//! Persist → serve roundtrip: an index built by the real pipeline, written
//! with `write_segment`, opened through `IndexStore` and loaded into an
//! `IndexSnapshot` must answer every query exactly like a snapshot sealed
//! straight from the in-memory index over the same corpus.

use std::fs;
use std::path::PathBuf;

use dsearch_core::{Configuration, Implementation, IndexGenerator};
use dsearch_corpus::{materialize_to_memfs, CorpusSpec};
use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_persist::segment::{read_segment, write_segment};
use dsearch_persist::IndexStore;
use dsearch_query::Query;
use dsearch_server::IndexSnapshot;
use dsearch_text::Term;
use dsearch_vfs::VPath;
use proptest::prelude::*;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir()
            .join(format!("dsearch-persist-roundtrip-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn snapshot_from_store_matches_in_memory_searcher() {
    // A real (tiny) corpus through the real parallel pipeline.
    let (fs, _manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 42);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();

    // write_segment → byte-exact read back.
    let mut buffer = Vec::new();
    write_segment(&index, &docs, &mut buffer).unwrap();
    let (restored, restored_docs) = read_segment(&buffer[..]).unwrap();
    assert_eq!(restored, index);
    assert_eq!(restored_docs.len(), docs.len());

    // Same bytes through the store layout, loaded as a serving snapshot.
    let dir = TempDir::new("match");
    let store_dir = dir.0.join("store");
    let mut store = IndexStore::open(&store_dir).unwrap();
    store.commit(&index, &docs).unwrap();
    let store = IndexStore::open(&store_dir).unwrap();
    let snapshot = IndexSnapshot::load(&store, 1).unwrap();
    assert_eq!(snapshot.shard_count(), 1);
    assert_eq!(snapshot.doc_count(), docs.len());

    // Derive queries from the indexed terms themselves so the comparison
    // covers hits, multi-term intersections, exclusions and prefixes.
    let from_memory = IndexSnapshot::from_index(index.clone(), docs, 1);
    let mut terms: Vec<String> = index.iter().map(|(t, _)| t.as_str().to_owned()).collect();
    terms.sort();
    let mut checked = 0;
    for (i, term) in terms.iter().enumerate().step_by(7) {
        let other = &terms[(i * 3 + 11) % terms.len()];
        let prefix: String = term.chars().take(2).collect();
        for raw in [
            term.clone(),
            format!("{term} {other}"),
            format!("{term} OR {other}"),
            format!("{term} NOT {other}"),
            format!("{prefix}*"),
        ] {
            let Ok(query) = Query::parse(&raw) else { continue };
            assert_eq!(
                snapshot.search(&query),
                from_memory.search(&query),
                "loaded and in-memory snapshots disagree on {raw:?}"
            );
            assert_eq!(
                snapshot.evaluate(&query, 20, &snapshot.searcher()).0,
                from_memory.evaluate(&query, 20, &from_memory.searcher()).0,
                "loaded and in-memory answers disagree on {raw:?}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 50, "too few queries exercised: {checked}");

    // The disk-loaded snapshot was lifted decode-free into the same sealed
    // form that sealing the in-memory index produces: byte-identical
    // compressed postings, and a real compression win on a real corpus.
    assert_eq!(snapshot.posting_count(), from_memory.posting_count());
    assert_eq!(snapshot.posting_bytes(), from_memory.posting_bytes());
    assert!(
        snapshot.posting_bytes() * 2 <= snapshot.uncompressed_posting_bytes(),
        "expected >= 2x posting compression on the corpus, got {} vs {}",
        snapshot.posting_bytes(),
        snapshot.uncompressed_posting_bytes()
    );
}

proptest! {
    /// persist → load → serve answers exactly like serving the in-memory
    /// index directly, for arbitrary little corpora: the compressed on-disk
    /// form and the sealed in-memory form are interchangeable.
    #[test]
    fn persisted_and_in_memory_snapshots_agree(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[a-d]{1,4}", 1..8), 1..25),
        seed in 0u32..1000,
    ) {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (i, words) in corpus.iter().enumerate() {
            let id = docs.insert(format!("doc{i}.txt"));
            let mut uniq = words.clone();
            uniq.sort();
            uniq.dedup();
            index.insert_file(id, uniq.iter().map(|w| Term::from(w.as_str())));
        }
        let dir = TempDir::new(&format!("prop-{seed}-{}", corpus.len()));
        let mut store = IndexStore::open(dir.0.join("store")).unwrap();
        store.commit(&index, &docs).unwrap();

        let loaded = IndexSnapshot::load(&store, 1).unwrap();
        let in_memory = IndexSnapshot::from_index(index, docs, 1);
        prop_assert_eq!(loaded.posting_count(), in_memory.posting_count());
        prop_assert_eq!(loaded.posting_bytes(), in_memory.posting_bytes());

        for raw in [
            "a", "b", "ab", "a b", "a OR b", "a NOT b", "a*", "ab*", "c d", "d*", "a b OR c",
        ] {
            let query = Query::parse(raw).unwrap();
            prop_assert_eq!(
                loaded.search(&query),
                in_memory.search(&query),
                "loaded and in-memory snapshots disagree on {:?}", raw
            );
        }
        // Raw posting lookups agree too (what the batch memo consumes).
        for term in ["a", "ab", "abcd", "zz"] {
            prop_assert_eq!(
                loaded.searcher().term_postings(&Term::from(term)).into_owned(),
                in_memory.searcher().term_postings(&Term::from(term)).into_owned(),
                "term_postings disagree on {:?}", term
            );
        }
    }
}
