//! `dsearch dlq` — inspect and replay the dead-letter queue.
//!
//! `dlq list` prints the quarantined files with their attempt counts and
//! final errors; `dlq replay` re-runs them through the build pipeline once
//! the underlying fault is fixed (permissions repaired, disk healthy, …).

use std::path::PathBuf;

use dsearch::core::BuildPipeline;
use dsearch::persist::DeadLetterQueue;
use dsearch::vfs::{OsFs, VPath};

use crate::args::ParsedArgs;
use crate::commands::format_table;
use crate::CliError;

fn store_of(args: &ParsedArgs) -> Result<&str, CliError> {
    args.value_of("store").ok_or_else(|| CliError::Usage("dlq requires --store <path>".into()))
}

fn list(args: &ParsedArgs) -> Result<String, CliError> {
    let store = store_of(args)?;
    let dlq = DeadLetterQueue::load(store.as_ref()).map_err(CliError::failed)?;
    if dlq.is_empty() {
        return Ok(format!("dead-letter queue of {store} is empty\n"));
    }
    let rows: Vec<Vec<String>> = dlq
        .entries
        .iter()
        .map(|e| {
            vec![e.path.clone(), e.file_id.to_string(), e.attempts.to_string(), e.error.clone()]
        })
        .collect();
    let mut out = format!("{} quarantined file(s) in {store}\n", dlq.len());
    out.push_str(&format_table(&["path", "file_id", "attempts", "error"], &rows));
    out.push_str("\nre-run them with `dsearch dlq replay <dir> --store <path>`\n");
    Ok(out)
}

fn replay(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = args.require_positional(1, "directory the store was built from")?;
    let store = store_of(args)?;
    let options = crate::commands::build::options_from(args)?;
    let fs = OsFs::new(PathBuf::from(dir));
    let pipeline = BuildPipeline::new(options);
    let report =
        pipeline.replay_dlq(&fs, &VPath::root(), store.as_ref()).map_err(CliError::failed)?;
    let mut out = format!(
        "dlq replay of {store}: attempted {}  recovered {}  still_dead {}\n",
        report.attempted, report.recovered, report.still_dead
    );
    if report.missing > 0 {
        out.push_str(&format!(
            "  {} quarantined path(s) no longer exist in {dir} and were left in the queue\n",
            report.missing
        ));
    }
    Ok(out)
}

/// Runs the `dlq` command (`list` or `replay`).
///
/// # Errors
///
/// Fails on usage errors, a missing checkpoint, or store I/O errors.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    match args.require_positional(0, "dlq action (list or replay)")? {
        "list" => list(args),
        "replay" => replay(args),
        other => Err(CliError::Usage(format!(
            "unknown dlq action {other:?}; expected `list` or `replay`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_action_and_missing_store_are_usage_errors() {
        let args = ParsedArgs::parse(["dlq", "purge", "--store", "s"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args = ParsedArgs::parse(["dlq", "list"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args = ParsedArgs::parse(["dlq"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        // Replay needs the corpus directory too.
        let args = ParsedArgs::parse(["dlq", "replay", "--store", "s"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn listing_a_store_without_a_dlq_reports_empty() {
        let dir = std::env::temp_dir().join(format!("dsearch-dlq-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args = ParsedArgs::parse(["dlq", "list", "--store", dir.to_str().unwrap()]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("empty"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
