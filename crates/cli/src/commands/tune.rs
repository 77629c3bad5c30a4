//! `dsearch tune` — search the `(x, y, z)` space with the auto-tuners.
//!
//! The paper used an auto-tuner (Schäfer et al.) to explore thread
//! allocations.  This command runs the reproduction's tuners (exhaustive,
//! hill-climbing with restarts, random search) against the calibrated cost
//! model of one paper platform and reports the configuration each finds for
//! every implementation, together with how many objective evaluations it
//! needed — the trade-off an auto-tuner exists to improve.

use dsearch::autotune::{ConfigSpace, ExhaustiveTuner, HillClimbTuner, RandomSearchTuner, Tuner};
use dsearch::core::Implementation;
use dsearch::sim::{estimate_run, PlatformModel, WorkloadModel};

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

/// Runs the `tune` command.
///
/// # Errors
///
/// Fails when `--platform` is not one of the paper's machines.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let platform = platform_from(args)?;
    let workload = WorkloadModel::paper();
    let space = ConfigSpace::for_cores(platform.cores);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for implementation in Implementation::ALL {
        let objective = |configuration: &dsearch::core::Configuration| {
            if configuration.validate(implementation).is_err() {
                return f64::INFINITY;
            }
            estimate_run(&platform, &workload, implementation, *configuration).total_s
        };
        let results = [
            ("exhaustive", ExhaustiveTuner::new().tune(&space, objective)),
            ("hill-climb", HillClimbTuner::default().tune(&space, objective)),
            ("random-search", RandomSearchTuner::default().tune(&space, objective)),
        ];
        for (name, result) in results {
            rows.push(vec![
                implementation.paper_name().to_owned(),
                name.to_owned(),
                result.best_configuration.to_string(),
                format!("{:.1}", result.best_cost),
                format!("{:.2}", platform.sequential_reported_s / result.best_cost),
                result.evaluation_count().to_string(),
            ]);
        }
    }

    let mut out = format!(
        "auto-tuning the (x, y, z) space on {} ({} configurations)\n",
        platform.name,
        space.size() * Implementation::ALL.len(),
    );
    out.push_str(&format_table(
        &["implementation", "tuner", "best (x,y,z)", "best time s", "speed-up", "evaluations"],
        &rows,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuners_agree_on_the_best_time_within_tolerance() {
        let args = ParsedArgs::parse(["tune", "--platform", "8"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("8-core"));
        for needle in ["exhaustive", "hill-climb", "random-search", "Implementation 3"] {
            assert!(out.contains(needle), "missing {needle}");
        }
        // Nine rows: three tuners for each of the three implementations.
        let data_rows = out.lines().filter(|l| l.contains("Implementation")).count();
        assert_eq!(data_rows, 9);
    }

    #[test]
    fn invalid_platform_is_rejected() {
        let args = ParsedArgs::parse(["tune", "--platform", "2"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
    }
}
