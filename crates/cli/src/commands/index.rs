//! `dsearch index` — index a directory and persist the result.

use std::path::PathBuf;

use dsearch::core::{Configuration, FormatMode, GeneratorOptions, Implementation, IndexGenerator};
use dsearch::persist::{IncrementalIndexer, IndexStore, SignatureDb};
use dsearch::vfs::{OsFs, VPath};

use crate::args::ParsedArgs;
use crate::CliError;

/// Name of the signature-database file inside the index store directory.
const SIGNATURES_FILE: &str = "signatures.json";

fn implementation_from(args: &ParsedArgs) -> Result<Implementation, CliError> {
    match args.value_of("implementation").unwrap_or("3") {
        "1" => Ok(Implementation::SharedLocked),
        "2" => Ok(Implementation::ReplicateJoin),
        "3" => Ok(Implementation::ReplicateNoJoin),
        other => {
            Err(CliError::Usage(format!("--implementation must be 1, 2 or 3 (got {other:?})")))
        }
    }
}

fn configuration_from(
    args: &ParsedArgs,
    implementation: Implementation,
) -> Result<Configuration, CliError> {
    let default_threads = std::thread::available_parallelism().map_or(2, usize::from);
    let x = args.number_of::<usize>("extractors")?.unwrap_or(default_threads.max(1));
    let y = args.number_of::<usize>("updaters")?.unwrap_or(0);
    let z =
        args.number_of::<usize>("joiners")?.unwrap_or(if implementation.joins() { 1 } else { 0 });
    let configuration = Configuration::new(x, y, z);
    configuration.validate(implementation).map_err(CliError::Usage)?;
    Ok(configuration)
}

/// Runs the `index` command.
///
/// # Errors
///
/// Fails on usage errors, unreadable input directories and store I/O errors.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = args.require_positional(0, "directory to index")?;
    let store_path = args
        .value_of("store")
        .ok_or_else(|| CliError::Usage("index requires --store <path>".into()))?;
    let implementation = implementation_from(args)?;
    let configuration = configuration_from(args, implementation)?;

    let mut options = GeneratorOptions::paper_defaults();
    if args.flag("formats") {
        options.formats = FormatMode::DetectAndExtract;
    }

    let fs = OsFs::new(PathBuf::from(dir));
    let mut store = IndexStore::open(store_path).map_err(CliError::failed)?;
    let mut out = String::new();

    if args.flag("incremental") {
        // Load the previous state (joined index + signatures), update only
        // what changed, and replace the store contents.
        let (mut index, mut docs) = if store.segment_count() > 0 {
            store.load_joined().map_err(CliError::failed)?
        } else {
            (dsearch::index::InMemoryIndex::new(), dsearch::index::DocTable::new())
        };
        let signatures_path = store.root().join(SIGNATURES_FILE);
        let mut signatures = if signatures_path.exists() {
            let json = std::fs::read_to_string(&signatures_path).map_err(CliError::failed)?;
            SignatureDb::from_json(&json).map_err(CliError::failed)?
        } else {
            SignatureDb::new()
        };

        let indexer = IncrementalIndexer::new();
        let report = indexer
            .update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures)
            .map_err(CliError::failed)?;
        let info = store.replace_all(&index, &docs).map_err(CliError::failed)?;
        std::fs::write(&signatures_path, signatures.to_json().map_err(CliError::failed)?)
            .map_err(CliError::failed)?;

        out.push_str(&format!(
            "incremental update of {dir}\n  added {} / modified {} / removed {} / unchanged {}\n  \
             re-scanned {:.2} MB ({:.0}% of tracked files)\n  store now holds {} docs, {} terms, {} postings\n",
            report.added,
            report.modified,
            report.removed,
            report.unchanged,
            report.bytes_scanned as f64 / 1e6,
            report.rescan_ratio() * 100.0,
            info.doc_count,
            info.term_count,
            info.posting_count,
        ));
        return Ok(out);
    }

    // Full rebuild through the paper's parallel pipeline.
    let generator = IndexGenerator::new(options);
    let run = generator
        .run(&fs, &VPath::root(), implementation, configuration)
        .map_err(CliError::failed)?;
    let report = run.report();
    out.push_str(&format!(
        "indexed {} files ({:.2} MB) from {dir}\n  {} with configuration {}\n  \
         total {:.3} s (stage 1 {:.3} s, extraction {:.3} s, join {:.3} s)\n",
        report.files,
        report.bytes as f64 / 1e6,
        implementation.paper_name(),
        configuration,
        report.total_seconds,
        report.filename_generation_seconds,
        report.extraction_seconds,
        report.join_seconds,
    ));

    // Persist: Implementation 3 keeps one segment per replica (searched
    // together); the others store a single joined segment.
    let outcome = run.outcome;
    let segments_before = store.segment_count();
    match outcome {
        dsearch::core::IndexOutcome::Replicas { set, docs } => {
            for replica in set.into_replicas() {
                store.commit(&replica, &docs).map_err(CliError::failed)?;
            }
        }
        single => {
            let (index, docs) = single.into_single_index();
            store.commit(&index, &docs).map_err(CliError::failed)?;
        }
    }
    out.push_str(&format!(
        "  store {store_path}: {} segment(s) (+{})\n",
        store.segment_count(),
        store.segment_count() - segments_before
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementation_parsing_accepts_paper_numbers() {
        let args = ParsedArgs::parse(["index", "d", "--implementation", "1"]).unwrap();
        assert_eq!(implementation_from(&args).unwrap(), Implementation::SharedLocked);
        let args = ParsedArgs::parse(["index", "d"]).unwrap();
        assert_eq!(implementation_from(&args).unwrap(), Implementation::ReplicateNoJoin);
        let args = ParsedArgs::parse(["index", "d", "--implementation", "7"]).unwrap();
        assert!(implementation_from(&args).is_err());
    }

    #[test]
    fn configuration_defaults_and_validation() {
        let args =
            ParsedArgs::parse(["index", "d", "--extractors", "3", "--updaters", "2"]).unwrap();
        let cfg = configuration_from(&args, Implementation::ReplicateNoJoin).unwrap();
        assert_eq!(cfg, Configuration::new(3, 2, 0));
        // Joiners default to 1 for Implementation 2 and are rejected for 3.
        let cfg = configuration_from(&args, Implementation::ReplicateJoin).unwrap();
        assert_eq!(cfg.join_threads, 1);
        let bad = ParsedArgs::parse(["index", "d", "--joiners", "2"]).unwrap();
        assert!(configuration_from(&bad, Implementation::SharedLocked).is_err());
    }

    #[test]
    fn missing_store_is_a_usage_error() {
        let args = ParsedArgs::parse(["index", "/tmp/somewhere"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let args = ParsedArgs::parse(["index"]).unwrap();
        assert!(run(&args).is_err());
    }
}
