//! `dsearch curves` — speed-up-vs-thread-count curves per implementation.

use dsearch::sim::{all_curves, amdahl_ceiling, PlatformModel, WorkloadModel};

use crate::args::ParsedArgs;
use crate::commands::format_table;
use crate::CliError;

fn platform_from(args: &ParsedArgs) -> Result<PlatformModel, CliError> {
    match args.value_of("platform").unwrap_or("32") {
        "4" => Ok(PlatformModel::four_core()),
        "8" => Ok(PlatformModel::eight_core()),
        "32" => Ok(PlatformModel::thirty_two_core()),
        other => Err(CliError::Usage(format!("--platform must be 4, 8 or 32 (got {other:?})"))),
    }
}

/// Runs the `curves` command.
///
/// # Errors
///
/// Fails when `--platform` or `--max-threads` is invalid.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let platform = platform_from(args)?;
    let max_threads = args.number_of::<usize>("max-threads")?.unwrap_or(platform.cores + 2).max(1);
    let workload = WorkloadModel::paper();
    let curves = all_curves(&platform, &workload, max_threads);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for x in 1..=max_threads {
        let mut row = vec![x.to_string()];
        for curve in &curves {
            let point = &curve.points[x - 1];
            row.push(format!("{:.2}x ({})", point.estimate.speedup, point.configuration));
        }
        row.push(format!("{:.2}x", amdahl_ceiling(&platform, &workload, x)));
        rows.push(row);
    }

    let mut out = format!(
        "speed-up vs extraction threads on {} (model; best (y, z) per point)\n",
        platform.name
    );
    out.push_str(&format_table(
        &["x", "Implementation 1", "Implementation 2", "Implementation 3", "Amdahl ceiling"],
        &rows,
    ));
    out.push('\n');
    for curve in &curves {
        out.push_str(&format!(
            "{}: peak {:.2}x, 95% of peak reached at x = {}\n",
            curve.implementation.paper_name(),
            curve.peak_speedup(),
            curve.knee(0.95).unwrap_or(0),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_cover_all_three_implementations() {
        let args = ParsedArgs::parse(["curves", "--platform", "8", "--max-threads", "6"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("8-core"));
        for needle in ["Implementation 1", "Implementation 2", "Implementation 3", "Amdahl"] {
            assert!(out.contains(needle), "missing {needle}");
        }
        // Six rows of data plus header/separator.
        assert!(out.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count() >= 6);
    }

    #[test]
    fn invalid_platform_is_rejected() {
        let args = ParsedArgs::parse(["curves", "--platform", "16"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
        let args = ParsedArgs::parse(["curves"]).unwrap();
        assert!(run(&args).unwrap().contains("32-core"));
    }
}
