//! Search over un-joined replica indices (Implementation 3) — the paper's
//! future-work item "parallelize the search query functionality ... by using
//! multiple indices".
//!
//! ```text
//! cargo run --example parallel_query
//! ```

use std::collections::BTreeSet;

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::persist::IndexStore;
use dsearch::query::{Query, SearchResults};
use dsearch::server::IndexSnapshot;
use dsearch::vfs::VPath;

/// Answers `query` as `dsearch search` and `serve` do, with no result limit.
fn answer(snapshot: &IndexSnapshot, query: &Query) -> SearchResults {
    snapshot.evaluate(query, usize::MAX, &snapshot.searcher()).0
}

fn match_set(results: &SearchResults) -> BTreeSet<&str> {
    results.paths().into_iter().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (fs, manifest) = materialize_to_memfs(&CorpusSpec::paper_scaled(0.002), 13);
    println!(
        "corpus: {} files, {:.1} MB",
        manifest.file_count(),
        manifest.total_bytes() as f64 / 1e6
    );

    // Implementation 3 leaves one replica per extractor thread.
    let run = IndexGenerator::default().run(
        &fs,
        &VPath::root(),
        Implementation::ReplicateNoJoin,
        Configuration::new(4, 0, 0),
    )?;
    let docs = run.outcome.docs().clone();
    let dsearch::core::IndexOutcome::Replicas { set, .. } = run.outcome else {
        unreachable!("Implementation 3 always produces replicas");
    };
    println!("built {} replica indices\n", set.replica_count());

    // Pick a couple of frequent terms to query for.
    let joined = set.clone().join();
    let mut by_frequency: Vec<_> = joined.iter().collect();
    by_frequency.sort_by_key(|(_, postings)| std::cmp::Reverse(postings.len()));
    let terms: Vec<String> = by_frequency.iter().take(3).map(|(t, _)| t.to_string()).collect();
    let query = Query::parse(&terms.join(" "))?;
    println!("query: {query}");

    // Search the replicas directly, sealed one shard each, and the joined
    // index, sealed as one shard.  Both find the same files; the BM25 scores
    // differ by design, because each shard scores with its own statistics.
    let replicas = IndexSnapshot::from_shards(set.into_replicas(), docs.clone(), 1);
    let single = IndexSnapshot::from_index(joined.clone(), docs.clone(), 1);
    let from_replicas = answer(&replicas, &query);
    let from_single = answer(&single, &query);
    assert_eq!(
        match_set(&from_replicas),
        match_set(&from_single),
        "replica search must find the joined index's files"
    );
    println!(
        "{} matching files (the same set from {} replica shards and the joined index)",
        from_single.len(),
        replicas.shard_count()
    );
    for hit in from_replicas.hits().iter().take(5) {
        println!("  {} (matched {} terms, score {})", hit.path, hit.matched_terms, hit.score);
    }

    // Persist the joined index and load it back — the desktop-search engine
    // does this between indexing runs, and `serve` answers from the result.
    let dir = std::env::temp_dir().join(format!("dsearch-parallel-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let info = IndexStore::open(&dir)?.commit(&joined, &docs)?;
    let restored = IndexSnapshot::load(&IndexStore::open(&dir)?, 1)?;
    std::fs::remove_dir_all(&dir)?;
    assert_eq!(answer(&restored, &query), from_single);
    println!(
        "\nstore round-trip OK ({} terms, {} bytes on disk, same ranked answer)",
        info.term_count, info.bytes
    );
    Ok(())
}
