//! Integration tests spanning the parallel pipeline, the on-disk store and
//! the incremental re-indexer: the state a desktop-search engine keeps
//! between runs must reproduce exactly what a fresh run would build.

use std::fs;
use std::path::{Path, PathBuf};

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::{DocTable, InMemoryIndex};
use dsearch::persist::{IncrementalIndexer, IndexStore, SignatureDb};
use dsearch::query::Query;
use dsearch::server::IndexSnapshot;
use dsearch::text::Term;
use dsearch::vfs::{MemFs, VPath};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dsearch-persist-it-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn pipeline_output_survives_a_store_round_trip() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 99);
    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(3, 0, 1))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();

    let dir = TempDir::new("roundtrip");
    let mut store = IndexStore::open(dir.path().join("store")).unwrap();
    let info = store.commit(&index, &docs).unwrap();
    assert_eq!(info.doc_count, docs.len() as u64);

    // Re-open the store as a new process would and compare.
    let store = IndexStore::open(dir.path().join("store")).unwrap();
    let (restored, restored_docs) = store.load_segment(0).unwrap();
    assert_eq!(restored, index);
    assert_eq!(restored_docs.len(), docs.len());

    // Queries answered from the store match the in-memory index, ranked
    // and boolean alike.
    let terms: Vec<_> = index.iter().take(20).map(|(term, _)| term.clone()).collect();
    let live = IndexSnapshot::from_index(index, docs, 1);
    let persisted = IndexSnapshot::load(&store, 1).unwrap();
    let mut checked = 0;
    for term in terms {
        let q = Query::all_of([term.clone()]);
        assert_eq!(live.search(&q), persisted.search(&q), "term {term}");
        assert_eq!(
            live.evaluate(&q, 20, &live.searcher()).0,
            persisted.evaluate(&q, 20, &persisted.searcher()).0,
            "term {term}"
        );
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn implementation3_replicas_stored_as_segments_join_to_the_same_index() {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 123);
    let generator = IndexGenerator::default();
    let replicated = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(4, 0, 0))
        .unwrap();
    let reference = generator
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
        .unwrap();
    let (reference_index, _) = reference.outcome.into_single_index();

    let dir = TempDir::new("replicas");
    let mut store = IndexStore::open(dir.path().join("store")).unwrap();
    match replicated.outcome {
        dsearch::core::IndexOutcome::Replicas { set, docs } => {
            for replica in set.into_replicas() {
                store.commit(&replica, &docs).unwrap();
            }
        }
        _ => panic!("Implementation 3 must keep replicas"),
    }
    assert_eq!(store.segment_count(), 4);

    // The on-disk compaction is the deferred "Join Forces" step.
    store.compact().unwrap();
    assert_eq!(store.segment_count(), 1);
    let (joined, _) = store.load_segment(0).unwrap();
    assert_eq!(joined, reference_index);
}

#[test]
fn incremental_update_matches_a_full_rebuild_on_a_mutated_corpus() {
    // Start from a generated corpus in memory.
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::tiny(), 7);
    let indexer = IncrementalIndexer::new();

    let mut index = InMemoryIndex::new();
    let mut docs = DocTable::new();
    let mut signatures = SignatureDb::new();
    let first =
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures).unwrap();
    assert_eq!(first.added, manifest.file_count());

    // Mutate the corpus: delete a few files, rewrite one, add new ones.
    let paths = manifest.paths();
    fs.remove_file(&paths[0]).unwrap();
    fs.remove_file(&paths[3]).unwrap();
    fs.remove_file(&paths[5]).unwrap();
    fs.add_file(&paths[5], b"completely rewritten contents about tuning".to_vec()).unwrap();
    fs.add_file(&VPath::new("extra/new_one.txt"), b"freshly added document".to_vec()).unwrap();
    fs.add_file(&VPath::new("extra/new_two.txt"), b"another new file with unique wording".to_vec())
        .unwrap();

    let second =
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures).unwrap();
    assert_eq!(second.added, 2);
    assert_eq!(second.modified, 1);
    assert_eq!(second.removed, 2);
    assert!(second.unchanged > 0);
    assert!(second.rescan_ratio() < 0.25, "most files must not be re-scanned");

    // A full rebuild over the final tree must agree term-by-term (compare by
    // path because doc ids can differ).
    let mut full_index = InMemoryIndex::new();
    let mut full_docs = DocTable::new();
    let mut full_sigs = SignatureDb::new();
    indexer.update(&fs, &VPath::root(), &mut full_index, &mut full_docs, &mut full_sigs).unwrap();

    let paths_for = |idx: &InMemoryIndex, table: &DocTable, term: &Term| -> Vec<String> {
        idx.postings(term)
            .map(|p| {
                let mut v: Vec<String> =
                    p.iter().filter_map(|id| table.path(id).map(str::to_owned)).collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    };
    assert_eq!(full_index.term_count(), index.term_count());
    for (term, _) in full_index.iter() {
        assert_eq!(
            paths_for(&index, &docs, term),
            paths_for(&full_index, &full_docs, term),
            "postings diverge for {term}"
        );
    }
    assert!(index.contains_term(&Term::from("freshly")));
    assert!(index.contains_term(&Term::from("tuning")));
}

#[test]
fn signature_db_and_store_survive_process_restart_on_disk() {
    // Simulate two separate runs of an application sharing only the disk.
    let dir = TempDir::new("restart");
    let docs_dir = dir.path().join("docs");
    fs::create_dir_all(&docs_dir).unwrap();
    fs::write(docs_dir.join("a.txt"), "alpha beta").unwrap();
    fs::write(docs_dir.join("b.txt"), "beta gamma").unwrap();
    let store_dir = dir.path().join("store");
    let sig_path = dir.path().join("signatures.json");

    {
        let fs_view = dsearch::vfs::OsFs::new(&docs_dir);
        let indexer = IncrementalIndexer::new();
        let mut index = InMemoryIndex::new();
        let mut docs = DocTable::new();
        let mut signatures = SignatureDb::new();
        indexer.update(&fs_view, &VPath::root(), &mut index, &mut docs, &mut signatures).unwrap();
        let mut store = IndexStore::open(&store_dir).unwrap();
        store.replace_all(&index, &docs).unwrap();
        fs::write(&sig_path, signatures.to_json().unwrap()).unwrap();
    }

    // "Second process": change one file, reload everything from disk.
    fs::write(docs_dir.join("a.txt"), "alpha delta").unwrap();
    {
        let fs_view = dsearch::vfs::OsFs::new(&docs_dir);
        let indexer = IncrementalIndexer::new();
        let mut store = IndexStore::open(&store_dir).unwrap();
        let (mut index, mut docs) = store.load_joined().unwrap();
        let mut signatures =
            SignatureDb::from_json(&fs::read_to_string(&sig_path).unwrap()).unwrap();
        let report = indexer
            .update(&fs_view, &VPath::root(), &mut index, &mut docs, &mut signatures)
            .unwrap();
        assert_eq!(report.modified, 1);
        assert_eq!(report.unchanged, 1);
        store.replace_all(&index, &docs).unwrap();
    }

    let store = IndexStore::open(&store_dir).unwrap();
    let snapshot = IndexSnapshot::load(&store, 1).unwrap();
    assert_eq!(snapshot.search(&Query::parse("delta").unwrap()).len(), 1);
    assert!(snapshot.search(&Query::parse("beta").unwrap()).len() == 1);
}

#[test]
fn empty_memfs_corpus_is_handled_gracefully() {
    let fs = MemFs::new();
    fs.add_dir(&VPath::new("empty/nested")).unwrap();
    let indexer = IncrementalIndexer::new();
    let mut index = InMemoryIndex::new();
    let mut docs = DocTable::new();
    let mut signatures = SignatureDb::new();
    let report =
        indexer.update(&fs, &VPath::root(), &mut index, &mut docs, &mut signatures).unwrap();
    assert_eq!(report.added + report.modified + report.removed, 0);
    assert!(index.is_empty());

    let dir = TempDir::new("empty");
    let mut store = IndexStore::open(dir.path().join("store")).unwrap();
    store.commit(&index, &docs).unwrap();
    let (restored, _) = store.load_joined().unwrap();
    assert!(restored.is_empty());
}
