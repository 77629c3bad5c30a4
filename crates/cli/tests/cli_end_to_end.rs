//! End-to-end tests of the CLI: corpus → index → search → incremental update,
//! all through the library-level `run` entry point (no subprocess needed).

use std::fs;
use std::path::{Path, PathBuf};

use dsearch::persist::IndexStore;
use dsearch::server::{EngineConfig, IndexSnapshot, QueryEngine};
use dsearch_cli::{run, CliError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dsearch-cli-e2e-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn sub(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn write_docs(dir: &Path) {
    fs::create_dir_all(dir.join("notes")).unwrap();
    fs::write(dir.join("notes/report.txt"), "quarterly revenue grew strongly").unwrap();
    fs::write(dir.join("notes/plan.md"), "# Roadmap\n\nParallel indexing milestones\n").unwrap();
    fs::write(dir.join("todo.txt"), "review the parallel index generator").unwrap();
}

#[test]
fn index_then_search_finds_documents() {
    let dir = TempDir::new("index-search");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    let out = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--extractors".to_owned(),
        "2".to_owned(),
        "--implementation".to_owned(),
        "2".to_owned(),
        "--formats".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("indexed 3 files"), "{out}");
    assert!(out.contains("Implementation 2"));

    let out =
        run(["search".to_owned(), "--store".to_owned(), store.clone(), "parallel".to_owned()])
            .unwrap();
    assert!(out.contains("2 result(s)"), "{out}");
    assert!(out.contains("todo.txt"));

    // NOT and prefix queries work through the CLI too.
    let out = run([
        "search".to_owned(),
        "--store".to_owned(),
        store.clone(),
        "parallel".to_owned(),
        "NOT".to_owned(),
        "roadmap".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("1 result(s)"), "{out}");
    let out =
        run(["search".to_owned(), "--store".to_owned(), store, "revenu*".to_owned()]).unwrap();
    assert!(out.contains("report.txt"), "{out}");
}

#[test]
fn implementation_three_stores_replicas_and_searches_them_together() {
    let dir = TempDir::new("replicas");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    let out = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--extractors".to_owned(),
        "3".to_owned(),
        "--implementation".to_owned(),
        "3".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("3 segment(s)"), "{out}");

    let out = run(["search".to_owned(), "--store".to_owned(), store, "index".to_owned()]).unwrap();
    assert!(out.contains("result(s)"), "{out}");
    assert!(out.contains("todo.txt"), "{out}");
}

#[test]
fn incremental_update_rescans_only_changes() {
    let dir = TempDir::new("incremental");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    let first = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--incremental".to_owned(),
    ])
    .unwrap();
    assert!(first.contains("added 3"), "{first}");

    // No changes: nothing is re-scanned.
    let second = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--incremental".to_owned(),
    ])
    .unwrap();
    assert!(second.contains("added 0 / modified 0 / removed 0 / unchanged 3"), "{second}");

    // Add one file, remove another.
    fs::write(docs.join("notes/new.txt"), "fresh incremental content").unwrap();
    fs::remove_file(docs.join("todo.txt")).unwrap();
    let third = run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--incremental".to_owned(),
    ])
    .unwrap();
    assert!(third.contains("added 1"), "{third}");
    assert!(third.contains("removed 1"), "{third}");

    let out =
        run(["search".to_owned(), "--store".to_owned(), store.clone(), "incremental".to_owned()])
            .unwrap();
    assert!(out.contains("new.txt"), "{out}");
    let out =
        run(["search".to_owned(), "--store".to_owned(), store, "generator".to_owned()]).unwrap();
    assert!(out.contains("0 result(s)"), "removed file must not be found: {out}");
}

#[test]
fn loadgen_reports_qps_and_percentiles() {
    let dir = TempDir::new("loadgen");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");

    run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
    ])
    .unwrap();

    let out = run([
        "loadgen".to_owned(),
        "--store".to_owned(),
        store.clone(),
        "--requests".to_owned(),
        "200".to_owned(),
        "--queries".to_owned(),
        "16".to_owned(),
        "--clients".to_owned(),
        "2".to_owned(),
        "--workers".to_owned(),
        "2".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("qps"), "{out}");
    assert!(out.contains("p50") && out.contains("p95") && out.contains("p99"), "{out}");
    assert!(out.contains("errors 0"), "{out}");
    assert!(out.contains("generations seen {1}"), "{out}");

    // Open-loop mode works through the CLI too.
    let out = run([
        "loadgen".to_owned(),
        "--store".to_owned(),
        store,
        "--requests".to_owned(),
        "50".to_owned(),
        "--mode".to_owned(),
        "open".to_owned(),
        "--rate".to_owned(),
        "5000".to_owned(),
    ])
    .unwrap();
    assert!(out.contains("open-loop"), "{out}");
    assert!(out.contains("p99"), "{out}");
}

#[test]
fn searching_an_empty_store_fails_cleanly() {
    let dir = TempDir::new("empty-store");
    let store = dir.sub("store");
    // Opening the store lazily creates it, so the search sees zero segments.
    let err =
        run(["search".to_owned(), "--store".to_owned(), store, "anything".to_owned()]).unwrap_err();
    assert!(matches!(err, CliError::Failed(_)));
    assert!(err.to_string().contains("empty"));
    assert!(err.to_string().contains("run `dsearch index` first"), "{err}");
}

#[test]
fn tables_and_curves_commands_run_without_a_corpus() {
    let out = run(["tables", "--table", "4"]).unwrap();
    assert!(out.contains("32-core"));
    let out = run(["curves", "--platform", "4", "--max-threads", "4"]).unwrap();
    assert!(out.contains("Implementation 3"));
}

/// One hit as `(path, matched terms, score bits)`.
type HitKey = (String, usize, u32);

/// Parses the hit lines of `dsearch search` output:
/// `  <path>  (matched <n> terms[, score <s>])`.
fn cli_hits(out: &str) -> Vec<HitKey> {
    out.lines()
        .filter_map(|line| line.strip_prefix("  "))
        .map(|line| {
            let (path, rest) = line.rsplit_once("  (matched ").expect("hit line shape");
            let rest = rest.strip_suffix(')').expect("hit line closes");
            let (matched, score) = match rest.split_once(" terms, score ") {
                Some((matched, score)) => (matched, score.parse::<f32>().expect("score parses")),
                None => (rest.strip_suffix(" terms").expect("terms suffix"), 0.0),
            };
            (path.to_owned(), matched.parse().expect("matched count"), score.to_bits())
        })
        .collect()
}

/// What `serve`'s engine answers for `raw` on `store` at `limit`.
fn served_hits(store: &str, raw: &str, limit: usize) -> (usize, Vec<HitKey>) {
    let snapshot = IndexSnapshot::load(&IndexStore::open(store).unwrap(), 1).unwrap();
    let shards = snapshot.shard_count();
    let config = EngineConfig { workers: 1, result_limit: limit, ..EngineConfig::default() };
    let engine = QueryEngine::new(snapshot, config).unwrap();
    let response = engine.execute(raw).unwrap();
    let hits = response
        .results
        .hits()
        .iter()
        .map(|h| (h.path.to_string(), h.matched_terms, h.score.to_bits()))
        .collect();
    (shards, hits)
}

/// A small deterministic generator (xorshift64*) for seeded corpora.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    /// A skewed pick: early vocabulary words are much more frequent.
    fn word(&mut self) -> &'static str {
        VOCAB[self.below(VOCAB.len()).min(self.below(VOCAB.len()))]
    }
}

const VOCAB: &[&str] = &[
    "rust", "search", "index", "parallel", "rusty", "indexer", "serve", "segment", "replica",
    "query", "shard", "score",
];

#[test]
fn search_answers_exactly_like_serve_on_random_stores() {
    let mut shard_counts = std::collections::BTreeSet::new();
    for seed in 0..6u64 {
        let implementation = seed % 3 + 1;
        let extractors = 2 + seed % 2;
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (seed + 1).wrapping_mul(0x1234_5678_9abc));
        let dir = TempDir::new(&format!("differential-{seed}"));
        let docs = dir.path().join("docs");
        fs::create_dir_all(&docs).unwrap();
        for file in 0..12 + rng.below(12) {
            let words: Vec<&str> = (0..1 + rng.below(10)).map(|_| rng.word()).collect();
            fs::write(docs.join(format!("doc{file:02}.txt")), words.join(" ")).unwrap();
        }
        let store = dir.sub("store");
        run([
            "index".to_owned(),
            docs.to_string_lossy().into_owned(),
            "--store".to_owned(),
            store.clone(),
            "--implementation".to_owned(),
            implementation.to_string(),
            "--extractors".to_owned(),
            extractors.to_string(),
        ])
        .unwrap();

        // All five query shapes: term, OR, AND, prefix and NOT.
        let mut queries = Vec::new();
        for _ in 0..4 {
            let (a, b) = (rng.word(), rng.word());
            queries.push(a.to_owned());
            queries.push(format!("{a} OR {b}"));
            queries.push(format!("{a} AND {b}"));
            queries.push(format!("{}* OR {b}", &a[..3]));
            queries.push(format!("{a} NOT {b}"));
        }
        for raw in &queries {
            for limit in [3usize, 20] {
                let mut argv = vec![
                    "search".to_owned(),
                    "--store".to_owned(),
                    store.clone(),
                    "--limit".to_owned(),
                    limit.to_string(),
                ];
                argv.extend(raw.split_whitespace().map(str::to_owned));
                let out = run(argv).unwrap();
                let (shards, served) = served_hits(&store, raw, limit);
                shard_counts.insert(shards);
                let printed = cli_hits(&out);
                assert!(out.contains(&format!("\n{} result(s)\n", printed.len())), "{out}");
                assert_eq!(
                    printed, served,
                    "seed {seed}, Implementation {implementation}, query {raw:?}, limit {limit}"
                );
            }
        }
    }
    assert_eq!(shard_counts.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
}

#[test]
fn search_ranks_by_bm25_like_serve() {
    let dir = TempDir::new("bm25-order");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    fs::write(docs.join("a.txt"), "rust rust rust search").unwrap();
    fs::write(docs.join("b.txt"), "rust search search search search").unwrap();
    fs::write(docs.join("c.txt"), "rust parallel").unwrap();
    let store = dir.sub("store");
    run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
    ])
    .unwrap();
    let out = run([
        "search".to_owned(),
        "--store".to_owned(),
        store,
        "rust".to_owned(),
        "OR".to_owned(),
        "search".to_owned(),
    ])
    .unwrap();
    let paths: Vec<String> = cli_hits(&out)
        .into_iter()
        .map(|(path, _, _)| Path::new(&path).file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(paths, vec!["b.txt", "a.txt", "c.txt"], "{out}");
    assert!(out.contains("(matched 2 terms, score "), "{out}");
}

#[test]
fn search_hit_lines_keep_the_format_scripts_parse() {
    // Scripts (and the benchmark harness) split hit lines at
    // "  (matched": the path comes first, two spaces in, and the score
    // follows the matched-term count on ranked hits only.
    let dir = TempDir::new("hit-lines");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    write_docs(&docs);
    let store = dir.sub("store");
    run([
        "index".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
    ])
    .unwrap();
    let search = |words: &[&str]| {
        let mut argv = vec!["search".to_owned(), "--store".to_owned(), store.clone()];
        argv.extend(words.iter().map(|w| (*w).to_owned()));
        run(argv).unwrap()
    };
    let ranked = search(&["parallel", "--limit", "1"]);
    let lines: Vec<&str> = ranked.lines().collect();
    assert_eq!(lines[..2], ["query: parallel", "1 result(s)"], "{ranked}");
    assert!(lines[2].starts_with("  "), "{ranked}");
    assert!(lines[2].contains("  (matched 1 terms, score "), "{ranked}");
    assert_eq!(lines.len(), 3, "--limit 1 keeps one hit: {ranked}");
    // Prefix and NOT queries are answered unranked: no score.
    for words in [&["revenu*"][..], &["parallel", "NOT", "roadmap"]] {
        let out = search(words);
        let hits: Vec<&str> = out.lines().filter(|l| l.starts_with("  ")).collect();
        assert_eq!(hits.len(), 1, "{out}");
        assert!(hits[0].ends_with("  (matched 1 terms)"), "{out}");
    }
}

#[test]
fn search_answers_like_serve_on_checkpointed_build_stores() {
    // `dsearch build` seals a segment per checkpoint: at --checkpoint-every
    // 0 every file is its own segment, the most shards a store can have.
    let dir = TempDir::new("build-differential");
    let docs = dir.path().join("docs");
    fs::create_dir_all(&docs).unwrap();
    let mut rng = Rng(0x0dd_ba11);
    for file in 0..10 {
        let words: Vec<&str> = (0..1 + rng.below(8)).map(|_| rng.word()).collect();
        fs::write(docs.join(format!("doc{file:02}.txt")), words.join(" ")).unwrap();
    }
    let store = dir.sub("store");
    run([
        "build".to_owned(),
        docs.to_string_lossy().into_owned(),
        "--store".to_owned(),
        store.clone(),
        "--checkpoint-every".to_owned(),
        "0".to_owned(),
    ])
    .unwrap();
    for raw in ["rust", "rust OR search", "rust search", "ind* OR rust", "search NOT rust"] {
        let mut argv = vec!["search".to_owned(), "--store".to_owned(), store.clone()];
        argv.extend(raw.split_whitespace().map(str::to_owned));
        let out = run(argv).unwrap();
        let (shards, served) = served_hits(&store, raw, 20);
        assert!(shards > 1, "a per-file checkpointed build has many segments");
        assert_eq!(cli_hits(&out), served, "query {raw:?}");
    }
}
