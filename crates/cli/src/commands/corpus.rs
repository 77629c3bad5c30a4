//! `dsearch corpus` — materialise a synthetic benchmark corpus on disk.

use dsearch::corpus::materialize::DirSink;
use dsearch::corpus::{materialize, CorpusSpec};

use crate::args::ParsedArgs;
use crate::CliError;

/// Runs the `corpus` command.
///
/// # Errors
///
/// Fails on usage errors, an invalid scale, or output-directory I/O errors.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let out_dir = args.require_positional(0, "output directory")?;
    let scale = args.number_of::<f64>("scale")?.unwrap_or(0.01);
    let seed = args.number_of::<u64>("seed")?.unwrap_or(2010);
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(CliError::Usage(format!("--scale must be in (0, 1], got {scale}")));
    }

    let spec = CorpusSpec::paper_scaled(scale);
    let mut sink = DirSink::new(out_dir).map_err(CliError::Failed)?;
    let manifest = materialize(&spec, seed, &mut sink).map_err(CliError::Failed)?;

    Ok(format!(
        "materialised corpus in {out_dir}\n  scale {scale} of the paper benchmark (seed {seed})\n  \
         {} files, {:.2} MB total, {} large file(s)\n",
        manifest.file_count(),
        manifest.total_bytes() as f64 / 1e6,
        manifest.large_file_count(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_validated() {
        let args = ParsedArgs::parse(["corpus", "/tmp/x", "--scale", "2.0"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
        let args = ParsedArgs::parse(["corpus", "/tmp/x", "--scale", "0"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["corpus"]).unwrap();
        assert!(run(&args).is_err());
    }

    #[test]
    fn corpus_is_written_to_disk() {
        let dir = std::env::temp_dir().join(format!("dsearch-cli-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = ParsedArgs::parse([
            "corpus".to_owned(),
            dir.to_string_lossy().into_owned(),
            "--scale".to_owned(),
            "0.0005".to_owned(),
            "--seed".to_owned(),
            "7".to_owned(),
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("files"));
        assert!(dir.exists());
        let file_count = walk_count(&dir);
        assert!(file_count > 5, "expected files on disk, found {file_count}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn walk_count(dir: &std::path::Path) -> usize {
        let mut count = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                count += walk_count(&entry.path());
            } else {
                count += 1;
            }
        }
        count
    }
}
