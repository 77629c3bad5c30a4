//! Quickstart: generate a corpus, index it in parallel, and search it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dsearch::core::{Configuration, Implementation, IndexGenerator};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::query::Query;
use dsearch::server::IndexSnapshot;
use dsearch::vfs::VPath;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small synthetic corpus (shape of the paper's benchmark, scaled way
    //    down so the example runs in a second).
    let spec = CorpusSpec::paper_scaled(0.002);
    let (fs, manifest) = materialize_to_memfs(&spec, 42);
    println!(
        "corpus: {} files, {:.1} MB",
        manifest.file_count(),
        manifest.total_bytes() as f64 / 1e6
    );

    // 2. Generate the inverted index with Implementation 2 ("Join Forces"):
    //    two extractor threads with private replica indices, joined at the end.
    let generator = IndexGenerator::default();
    let run = generator.run(
        &fs,
        &VPath::root(),
        Implementation::ReplicateJoin,
        Configuration::new(2, 0, 1),
    )?;
    println!(
        "indexed {} files in {:?} ({} on this host)",
        run.outcome.file_count(),
        run.timings.total,
        run.configuration
    );
    let (index, docs) = run.outcome.into_single_index();
    println!("index: {}", index.stats());

    // 3. Search it. Query terms go through the same normalisation as indexed
    //    terms, and multiple words mean AND.
    // Pick two terms we know exist: the two most common terms in the index.
    let mut by_frequency: Vec<_> = index.iter().collect();
    by_frequency.sort_by_key(|(_, postings)| std::cmp::Reverse(postings.len()));
    let common: Vec<String> = by_frequency.iter().take(2).map(|(t, _)| t.to_string()).collect();

    // Seal the index into the serving form and answer the way `dsearch
    // search` and `serve` do: BM25-ranked, best five.
    let snapshot = IndexSnapshot::from_index(index, docs, 1);
    let query_text = common.join(" ");
    let query = Query::parse(&query_text)?;
    let (results, _) = snapshot.evaluate(&query, 5, &snapshot.searcher());
    println!("query {query_text:?}; top hits:");
    for hit in results.hits() {
        println!("  {} (matched {} terms, score {})", hit.path, hit.matched_terms, hit.score);
    }
    Ok(())
}
