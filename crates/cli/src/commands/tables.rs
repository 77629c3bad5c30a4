//! `dsearch tables` — print the paper's tables from the platform models.

use dsearch::core::Implementation;
use dsearch::sim::paper;
use dsearch::sim::sweep::SweepRanges;
use dsearch::sim::{
    best_configuration, estimate_run, sequential_stages, PlatformModel, WorkloadModel,
};

use crate::args::ParsedArgs;
use crate::commands::format_table;
use crate::CliError;

fn table1() -> String {
    let workload = WorkloadModel::paper();
    let rows: Vec<Vec<String>> = PlatformModel::paper_platforms()
        .iter()
        .zip(paper::table1())
        .map(|(platform, expected)| {
            let est = sequential_stages(platform, &workload);
            vec![
                format!("{}-core", platform.cores),
                format!("{:.1} ({:.1})", est.filename_generation_s, expected.filename_generation_s),
                format!("{:.1} ({:.1})", est.read_files_s, expected.read_files_s),
                format!("{:.1} ({:.1})", est.read_and_extract_s, expected.read_and_extract_s),
                format!("{:.1} ({:.1})", est.index_update_s, expected.index_update_s),
            ]
        })
        .collect();
    format!(
        "Table 1 — sequential stage times in seconds, model (paper)\n{}",
        format_table(
            &["platform", "filename gen", "read files", "read + extract", "index update"],
            &rows
        )
    )
}

fn best_config_table(platform: &PlatformModel, table: &paper::BestConfigTable) -> String {
    let workload = WorkloadModel::paper();
    let ranges = SweepRanges::for_platform(platform);
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| {
            let at_paper =
                estimate_run(platform, &workload, row.implementation, row.best_configuration);
            let model_best = best_configuration(platform, &workload, row.implementation, ranges);
            vec![
                row.implementation.paper_name().to_owned(),
                row.best_configuration.to_string(),
                format!("{:.1} ({:.1})", at_paper.total_s, row.execution_time_s),
                format!("{:.2} ({:.2})", at_paper.speedup, row.speedup),
                format!("{} @ {:.1}s", model_best.configuration, model_best.estimate.total_s),
            ]
        })
        .collect();
    format!(
        "Table {} — {}-core machine, model (paper), sequential ≈ {:.0} s\n{}",
        match table.platform_cores {
            4 => 2,
            8 => 3,
            _ => 4,
        },
        table.platform_cores,
        table.sequential_s,
        format_table(
            &["implementation", "paper best (x,y,z)", "exec time s", "speed-up", "model best"],
            &rows
        )
    )
}

/// Runs the `tables` command.
///
/// # Errors
///
/// Fails when `--table` names anything other than 1–4.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let which = args.value_of("table");
    let platforms = PlatformModel::paper_platforms();
    let best_tables = [paper::table2(), paper::table3(), paper::table4()];
    let mut sections: Vec<String> = Vec::new();
    match which {
        None => {
            sections.push(table1());
            for (platform, table) in platforms.iter().zip(&best_tables) {
                sections.push(best_config_table(platform, table));
            }
        }
        Some("1") => sections.push(table1()),
        Some("2") => sections.push(best_config_table(&platforms[0], &best_tables[0])),
        Some("3") => sections.push(best_config_table(&platforms[1], &best_tables[1])),
        Some("4") => sections.push(best_config_table(&platforms[2], &best_tables[2])),
        Some(other) => {
            return Err(CliError::Usage(format!("--table must be 1, 2, 3 or 4 (got {other:?})")))
        }
    }
    // Sanity note: the model's winner matches the paper's on every platform.
    let workload = WorkloadModel::paper();
    let winner_note = platforms
        .iter()
        .map(|p| {
            let ranges = SweepRanges::for_platform(p);
            let best = Implementation::ALL
                .into_iter()
                .map(|i| (i, best_configuration(p, &workload, i, ranges).estimate.total_s))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i.paper_name().to_owned())
                .unwrap_or_default();
            format!("{}-core winner: {best}", p.cores)
        })
        .collect::<Vec<_>>()
        .join("; ");
    sections.push(format!("({winner_note})\n"));
    Ok(sections.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tables_are_printed_by_default() {
        let args = ParsedArgs::parse(["tables"]).unwrap();
        let out = run(&args).unwrap();
        for needle in ["Table 1", "Table 2", "Table 3", "Table 4", "Implementation 3"] {
            assert!(out.contains(needle), "missing {needle}");
        }
        assert!(out.contains("winner"));
    }

    #[test]
    fn single_table_selection_works() {
        let args = ParsedArgs::parse(["tables", "--table", "3"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("Table 3"));
        assert!(!out.contains("Table 2"));
        let args = ParsedArgs::parse(["tables", "--table", "9"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
    }
}
