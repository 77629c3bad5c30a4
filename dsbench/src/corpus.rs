//! Seeded corpora on disk and the seeded file changes of reindex cycles.

use std::path::{Path, PathBuf};

use dsearch::corpus::materialize::CorpusSink;
use dsearch::corpus::{materialize, CorpusSpec};
use dsearch::vfs::VPath;

/// A materialised corpus.
pub struct Corpus {
    pub root: PathBuf,
    pub files: u64,
    pub bytes: u64,
    /// Relative paths of the small files, candidates for edits.
    pub editable: Vec<String>,
}

/// Writes files below `root`, remembering the small ones.
struct Sink {
    root: PathBuf,
    editable: Vec<String>,
}

impl CorpusSink for Sink {
    fn write_file(&mut self, path: &VPath, contents: &[u8]) -> Result<(), String> {
        let host = path.to_os_path(&self.root);
        if let Some(parent) = host.parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        if contents.len() < 64 * 1024 {
            if let Ok(rel) = host.strip_prefix(&self.root) {
                self.editable.push(rel.to_string_lossy().into_owned());
            }
        }
        std::fs::write(&host, contents).map_err(|e| e.to_string())
    }
}

/// Writes `paper_scaled(scale)` with `seed` below `root`.
pub fn materialise(root: &Path, scale: f64, seed: u64) -> Result<Corpus, String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    let mut sink = Sink { root: root.to_path_buf(), editable: Vec::new() };
    let manifest = materialize(&CorpusSpec::paper_scaled(scale), seed, &mut sink)?;
    Ok(Corpus {
        root: root.to_path_buf(),
        files: manifest.file_count(),
        bytes: manifest.total_bytes(),
        editable: sink.editable,
    })
}

/// A term no generated document contains: letters only, unique per seed
/// and cycle.
pub fn planted_term(seed: u64, cycle: usize) -> String {
    let mut n = seed.wrapping_mul(1_000_003).wrapping_add(cycle as u64);
    let mut word = String::from("qzplant");
    for _ in 0..8 {
        word.push(char::from(b'a' + (n % 26) as u8));
        n /= 26;
    }
    word
}

/// One reindex cycle's edits: add a file holding the cycle's
/// planted term, append the term to an existing file, and remove the file
/// the previous cycle added.
pub struct Edit {
    pub term: String,
    pub added: String,
    pub modified: String,
    pub removed: Option<String>,
}

pub fn apply_edit(corpus: &Corpus, seed: u64, cycle: usize) -> Result<Edit, String> {
    let root = &corpus.root;
    let term = planted_term(seed, cycle);
    let added = format!("fresh/added{cycle}.txt");
    let path = root.join(&added);
    std::fs::create_dir_all(path.parent().expect("has a parent")).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("planted {term} for reindex cycle {cycle}\n"))
        .map_err(|e| e.to_string())?;
    let pick = (seed.wrapping_mul(2_654_435_761).wrapping_add(cycle as u64 * 7919)) as usize;
    let modified = corpus.editable[pick % corpus.editable.len()].clone();
    let mut text = std::fs::read_to_string(root.join(&modified)).map_err(|e| e.to_string())?;
    text.push_str(&format!("\n{term}\n"));
    std::fs::write(root.join(&modified), text).map_err(|e| e.to_string())?;
    let removed = cycle.checked_sub(1).map(|prev| format!("fresh/added{prev}.txt"));
    if let Some(prev) = &removed {
        std::fs::remove_file(root.join(prev)).map_err(|e| e.to_string())?;
    }
    Ok(Edit { term, added, modified, removed })
}
