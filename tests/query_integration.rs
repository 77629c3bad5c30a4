//! Integration tests for the query layer against indices produced by the
//! real pipeline: the joined index (Implementations 1/2), sealed as one
//! shard, and the replica set (Implementation 3), sealed as one shard per
//! replica, must match every query identically.

use dsearch::core::{Configuration, Implementation, IndexGenerator, IndexOutcome};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::{InMemoryIndex, SealedShard};
use dsearch::query::{evaluate, Query, SealedSearcher, SearchBackend};
use dsearch::text::Term;
use dsearch::vfs::{MemFs, VPath};

fn seal(index: &InMemoryIndex) -> Vec<SealedShard> {
    vec![SealedShard::from_index(index)]
}

fn build_outcomes(
) -> (dsearch::index::InMemoryIndex, dsearch::index::DocTable, dsearch::index::IndexSet) {
    let (fs, _) = materialize_to_memfs(&CorpusSpec::tiny(), 5);
    let generator = IndexGenerator::default();

    let joined_run = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(3, 0, 1))
        .unwrap();
    let (joined, docs) = joined_run.outcome.into_single_index();

    let replica_run = generator
        .run(&fs, &VPath::root(), Implementation::ReplicateNoJoin, Configuration::new(3, 0, 0))
        .unwrap();
    let IndexOutcome::Replicas { set, .. } = replica_run.outcome else {
        panic!("implementation 3 keeps replicas");
    };
    (joined, docs, set)
}

fn frequent_terms(index: &dsearch::index::InMemoryIndex, n: usize) -> Vec<String> {
    let mut by_frequency: Vec<_> = index.iter().collect();
    by_frequency
        .sort_by_key(|(t, postings)| (std::cmp::Reverse(postings.len()), t.as_str().to_owned()));
    by_frequency.iter().take(n).map(|(t, _)| t.to_string()).collect()
}

#[test]
fn joined_and_replicated_indices_answer_queries_identically() {
    let (joined, docs, set) = build_outcomes();
    let joined_shards = seal(&joined);
    let replica_shards: Vec<SealedShard> =
        set.replicas().iter().map(SealedShard::from_index).collect();
    assert_eq!(replica_shards.len(), 3);
    let single = SealedSearcher::new(&joined_shards, &docs);
    let multi = SealedSearcher::new(&replica_shards, &docs);

    let terms = frequent_terms(&joined, 6);
    let queries = [
        terms[0].clone(),
        format!("{} {}", terms[0], terms[1]),
        format!("{} OR {}", terms[2], terms[3]),
        format!("{} {} OR {} {}", terms[0], terms[4], terms[1], terms[5]),
        format!("{} NOT {}", terms[0], terms[1]),
        format!("{}* OR {}", terms[2].chars().take(2).collect::<String>(), terms[3]),
        "termthatdoesnotexistanywhere".to_string(),
        format!("{} termthatdoesnotexistanywhere", terms[0]),
    ];
    for raw in queries {
        let query = Query::parse(&raw).unwrap();
        assert_eq!(multi.search(&query), single.search(&query), "query {raw:?}");
    }
}

#[test]
fn ranked_answers_of_replicas_and_joined_index_find_the_same_files() {
    // BM25 statistics are per shard, so the replicas and the joined index
    // score the same document differently — but the ranked answer rule
    // must still find exactly the same files when nothing is cut off.
    let (joined, docs, set) = build_outcomes();
    let joined_shards = seal(&joined);
    let replica_shards: Vec<SealedShard> =
        set.replicas().iter().map(SealedShard::from_index).collect();
    let terms = frequent_terms(&joined, 6);
    for raw in [
        terms[0].clone(),
        format!("{} OR {}", terms[1], terms[2]),
        format!("{} {}", terms[0], terms[3]),
        format!("{} {} OR {}", terms[4], terms[5], terms[1]),
    ] {
        let query = Query::parse(&raw).unwrap();
        let answer = |shards: &[SealedShard]| {
            let searcher = SealedSearcher::new(shards, &docs);
            let (results, prune) = evaluate(shards, &docs, &query, usize::MAX, &searcher);
            assert!(prune.is_some(), "query {raw:?} is scorable");
            let mut paths: Vec<String> = results.paths().iter().map(|p| (*p).to_owned()).collect();
            paths.sort();
            paths
        };
        let from_joined = answer(&joined_shards);
        assert!(!from_joined.is_empty(), "query {raw:?}");
        assert_eq!(answer(&replica_shards), from_joined, "query {raw:?}");
    }
}

#[test]
fn search_results_agree_with_raw_postings() {
    let (joined, docs, _) = build_outcomes();
    let shards = seal(&joined);
    let single = SealedSearcher::new(&shards, &docs);
    for term_text in frequent_terms(&joined, 10) {
        let term = Term::from(term_text.as_str());
        let query = Query::parse(&term_text).unwrap();
        let results = single.search(&query);
        let postings = joined.postings(&term).cloned().unwrap_or_default();
        assert_eq!(results.len(), postings.len(), "term {term_text}");
        let mut result_ids: Vec<_> = results.file_ids();
        result_ids.sort();
        let posting_ids: Vec<_> = postings.iter().collect();
        assert_eq!(result_ids, posting_ids);
    }
}

#[test]
fn queries_against_a_known_corpus_return_exactly_the_right_files() {
    let fs = MemFs::new();
    fs.add_file(&VPath::new("recipes/pasta.txt"), b"tomato basil garlic pasta".to_vec()).unwrap();
    fs.add_file(&VPath::new("recipes/salad.txt"), b"tomato cucumber basil".to_vec()).unwrap();
    fs.add_file(&VPath::new("notes/todo.txt"), b"buy garlic and tomato".to_vec()).unwrap();
    fs.add_file(&VPath::new("notes/ideas.txt"), b"basil lemonade".to_vec()).unwrap();

    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::SharedLocked, Configuration::new(2, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    let shards = seal(&index);
    let searcher = SealedSearcher::new(&shards, &docs);

    let paths = |raw: &str| -> Vec<String> {
        let mut p: Vec<String> = searcher
            .search(&Query::parse(raw).unwrap())
            .hits()
            .iter()
            .map(|h| h.path.to_string())
            .collect();
        p.sort();
        p
    };

    assert_eq!(paths("tomato"), vec!["notes/todo.txt", "recipes/pasta.txt", "recipes/salad.txt"]);
    assert_eq!(paths("tomato basil"), vec!["recipes/pasta.txt", "recipes/salad.txt"]);
    assert_eq!(paths("garlic tomato"), vec!["notes/todo.txt", "recipes/pasta.txt"]);
    assert_eq!(paths("lemonade OR cucumber"), vec!["notes/ideas.txt", "recipes/salad.txt"]);
    assert_eq!(paths("TOMATO, BASIL!"), vec!["recipes/pasta.txt", "recipes/salad.txt"]);
    assert!(paths("pizza").is_empty());
}

#[test]
fn ranking_prefers_files_matching_more_terms() {
    let fs = MemFs::new();
    fs.add_file(&VPath::new("both.txt"), b"rust parallel".to_vec()).unwrap();
    fs.add_file(&VPath::new("one.txt"), b"rust only".to_vec()).unwrap();

    let run = IndexGenerator::default()
        .run(&fs, &VPath::root(), Implementation::ReplicateJoin, Configuration::new(1, 0, 0))
        .unwrap();
    let (index, docs) = run.outcome.into_single_index();
    let shards = seal(&index);
    let searcher = SealedSearcher::new(&shards, &docs);
    let results = searcher.search(&Query::parse("rust parallel OR rust").unwrap());
    assert_eq!(results.len(), 2);
    assert_eq!(&*results.hits()[0].path, "both.txt");
    assert_eq!(results.hits()[0].matched_terms, 2);
    assert_eq!(&*results.hits()[1].path, "one.txt");
}
