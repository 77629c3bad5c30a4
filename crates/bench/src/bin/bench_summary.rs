//! `bench_summary` — machine-readable perf trajectory for CI.
//!
//! Re-runs the key `posting_ops`/`query_eval` measurements with plain
//! `Instant` timing (median of N runs) and emits them, together with the
//! compressed-index size metrics, a `query_topk` group (BM25 block-max
//! WAND top-k vs an exhaustive scoring of every posting, at k=10/100 over
//! a skewed and a dense-OR shape, with the prune counters), a router
//! scatter-gather group (direct engine vs routed over 1 and 2 local
//! shards), the traced router stage breakdown (scatter vs shard round
//! trip vs merge medians, harvested from the responses' own query
//! traces), a `route_replicated` group (2 logical shards × 2 replicas:
//! healthy vs one-replica-down vs hedged p50/p99) and a `build_pipeline`
//! group (cold checkpointed build vs a build resumed at 50 %, plus the
//! wall-time cost of per-item / 1 s / 10 s checkpoint intervals), as one
//! JSON object — `BENCH_PR10.json` by default — so the perf trajectory of
//! the serving stack is diffable PR-over-PR without scraping bench
//! output.
//!
//! ```text
//! bench_summary [--quick] [--out PATH]
//! ```
//!
//! `--quick` (used by CI's compile-and-smoke step) cuts the sample count so
//! the whole run stays in the low seconds; absolute numbers are then noisy,
//! but the file's shape and the size metrics (which do not depend on timing)
//! stay exact.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dsearch::core::{BuildOptions, BuildPipeline};
use dsearch::corpus::{materialize_to_memfs, CorpusSpec};
use dsearch::index::{
    intersect_cursors_into, union_cursors_into, union_into, CompressedPostings, DocTable, FileId,
    InMemoryIndex, PostingList, PostingView, PostingsCursor, SealedShard,
};
use dsearch::obs::Stage;
use dsearch::query::{search_topk, Query};
use dsearch::server::{
    EngineConfig, IndexSnapshot, LocalShards, QueryEngine, RemoteShard, RemoteShardConfig,
    ReplicaSet, ReplicaSetConfig, Router, RouterConfig, ShardBackend,
};
use dsearch::text::Term;
use dsearch::vfs::VPath;
use serde::Value;

/// A self-cleaning store directory for the build-pipeline group.
struct BenchStoreDir(std::path::PathBuf);

impl BenchStoreDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dsearch-bench-build-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("bench store dir");
        BenchStoreDir(path)
    }

    fn path(&self) -> std::path::PathBuf {
        self.0.clone()
    }
}

impl Drop for BenchStoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median_ns<F: FnMut()>(samples: usize, mut routine: F) -> u64 {
    routine(); // warm-up, untimed
    let mut times: Vec<u64> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            routine();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The `posting_ops` synthetic corpus: one ubiquitous term, 200 mid-frequency
/// terms, one rare term per document, plus "even" on every second document.
fn synthetic_index(docs: u32) -> (InMemoryIndex, DocTable) {
    let mut index = InMemoryIndex::new();
    let mut table = DocTable::new();
    for d in 0..docs {
        let id = table.insert(format!("doc{d:06}.txt"));
        let mut terms = vec![
            Term::from("common"),
            Term::from(format!("mid{:03}", d % 200)),
            Term::from(format!("rare{d:06}")),
        ];
        if d % 2 == 0 {
            terms.push(Term::from("even"));
        }
        index.insert_file(id, terms);
    }
    (index, table)
}

fn list_of(range: impl Iterator<Item = u32>) -> PostingList {
    PostingList::from_ids(range.map(FileId))
}

/// The same synthetic corpus split into `shards` independent engines, each
/// with its own doc table (shard-local file ids, like separate `dsearch
/// serve` processes).
fn sharded_engines(docs: u32, shards: u32) -> Vec<std::sync::Arc<QueryEngine>> {
    (0..shards)
        .map(|s| {
            let mut index = InMemoryIndex::new();
            let mut table = DocTable::new();
            for d in (0..docs).filter(|d| d % shards == s) {
                let id = table.insert(format!("doc{d:06}.txt"));
                let mut terms = vec![
                    Term::from("common"),
                    Term::from(format!("mid{:03}", d % 200)),
                    Term::from(format!("rare{d:06}")),
                ];
                if d % 2 == 0 {
                    terms.push(Term::from("even"));
                }
                index.insert_file(id, terms);
            }
            QueryEngine::new(
                IndexSnapshot::from_index(index, table, 1),
                EngineConfig { workers: 1, ..EngineConfig::default() },
            )
            .expect("bench engine config is valid")
        })
        .collect()
}

/// Router config for the timing groups: result cache off, so repeated
/// identical bench queries measure the scatter path PR-over-PR instead of a
/// cache lookup.
fn scatter_config() -> RouterConfig {
    RouterConfig { cache_capacity: 0, ..RouterConfig::default() }
}

fn router_over(shards: u32) -> std::sync::Arc<Router> {
    let backends: Vec<Box<dyn ShardBackend>> = sharded_engines(20_000, shards)
        .into_iter()
        .enumerate()
        .map(|(i, engine)| {
            Box::new(LocalShards::new(engine).with_id(format!("shard-{i}")))
                as Box<dyn ShardBackend>
        })
        .collect();
    Router::new(backends, scatter_config()).expect("bench router config is valid")
}

/// The `route_replicated` scenarios: every logical shard sits behind a
/// 2-replica [`ReplicaSet`].
enum ReplicaScenario {
    /// Both replicas healthy; no hedging pressure.
    Healthy,
    /// One replica of each set is a dead address — the breaker must open it
    /// and route around for near-healthy latency.
    OneReplicaDown,
    /// Both healthy, but the hedge deadline is tiny so nearly every query
    /// races two replicas.
    Hedged,
}

fn replicated_router(scenario: &ReplicaScenario) -> std::sync::Arc<Router> {
    let breaker = ReplicaSetConfig {
        // No probes mid-measurement: the dead replica opens during warm-up
        // and stays open, which is the steady state being measured.
        probe_backoff: Duration::from_secs(120),
        hedge_after: match scenario {
            ReplicaScenario::Hedged => Some(Duration::from_micros(20)),
            _ => None,
        },
        adaptive_hedge: false,
        ..ReplicaSetConfig::default()
    };
    let dead = || -> Box<dyn ShardBackend> {
        // Connection refused on loopback is immediate; the timeout only
        // bounds pathological environments.
        Box::new(RemoteShard::with_config(
            "127.0.0.1:1",
            RemoteShardConfig {
                connect_timeout: Duration::from_millis(50),
                ..RemoteShardConfig::default()
            },
        ))
    };
    let backends: Vec<Box<dyn ShardBackend>> = sharded_engines(20_000, 2)
        .into_iter()
        .enumerate()
        .map(|(i, engine)| {
            // Two replicas per logical shard; in the down scenario replica 0
            // is a dead address, so the idle-tie pick tries it first — the
            // worst case for the health gating being measured.
            let first: Box<dyn ShardBackend> = match scenario {
                ReplicaScenario::OneReplicaDown => dead(),
                _ => Box::new(
                    LocalShards::new(std::sync::Arc::clone(&engine))
                        .with_id(format!("shard-{i}-a")),
                ),
            };
            let second: Box<dyn ShardBackend> =
                Box::new(LocalShards::new(engine).with_id(format!("shard-{i}-b")));
            let replicas = vec![first, second];
            Box::new(
                ReplicaSet::new(format!("shard-{i}"), replicas, breaker)
                    .expect("bench replica config is valid"),
            ) as Box<dyn ShardBackend>
        })
        .collect();
    Router::new(backends, scatter_config()).expect("bench router config is valid")
}

/// p50/p99 over `samples` timed runs (plus an untimed warm-up — which for
/// the one-replica-down scenario also absorbs the breaker opening).
fn percentiles_ns<F: FnMut()>(samples: usize, mut routine: F) -> (u64, u64) {
    routine(); // warm-up, untimed
    let mut times: Vec<u64> = (0..samples.max(10))
        .map(|_| {
            let start = Instant::now();
            routine();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    (times[times.len() / 2], times[times.len() * 99 / 100])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PR10.json".to_owned());
    let samples = if quick { 5 } else { 25 };

    let mut fields: Vec<(String, Value)> = Vec::new();
    let mut record = |key: &str, value: Value| fields.push((key.to_owned(), value));

    // ---- Size: bytes/posting on the bench corpus -------------------------
    let (index, docs) = synthetic_index(20_000);
    let shard = SealedShard::from_index(&index);
    let compressed_bytes = shard.posting_bytes();
    let raw_bytes = shard.uncompressed_posting_bytes();
    let postings = shard.posting_count();
    let bytes_per_posting = compressed_bytes as f64 / postings as f64;
    record("corpus_docs", Value::UInt(20_000));
    record("corpus_postings", Value::UInt(postings));
    record("posting_bytes_compressed", Value::UInt(compressed_bytes as u64));
    record("posting_bytes_raw", Value::UInt(raw_bytes as u64));
    record("bytes_per_posting_compressed", Value::Float(bytes_per_posting));
    record("bytes_per_posting_raw", Value::Float(4.0));
    record("compression_ratio", Value::Float(raw_bytes as f64 / compressed_bytes as f64));
    // The interning satellite: dictionary text the sealed shard *shares*
    // with the vocabulary instead of duplicating (the pre-PR-4 dictionary
    // cloned every term string at snapshot build).
    let vocab_bytes: u64 = shard.terms().iter().map(|t| t.len() as u64).sum();
    record("dictionary_bytes_shared_not_copied", Value::UInt(vocab_bytes));

    // ---- Primitive: skewed intersect (100 ids vs 100k ids) ---------------
    let small = list_of((0..100).map(|i| i * 1_000));
    let large = list_of(0..100_000);
    let mut out: Vec<FileId> = Vec::new();
    let view_ns = median_ns(samples, || {
        small.as_view().intersect_into(large.as_view(), &mut out);
        black_box(out.len());
    });
    let small_cp = CompressedPostings::from_list(&small);
    let large_cp = CompressedPostings::from_list(&large);
    let block_ns = median_ns(samples, || {
        intersect_cursors_into(
            PostingsCursor::Block(small_cp.cursor()),
            PostingsCursor::Block(large_cp.cursor()),
            &mut out,
        );
        black_box(out.len());
    });
    record("intersect_skewed_100_vs_100k_view_ns", Value::UInt(view_ns));
    record("intersect_skewed_100_vs_100k_block_ns", Value::UInt(block_ns));

    // ---- Primitive: 16-way union of 2k-id interleaved lists --------------
    let union_lists: Vec<PostingList> =
        (0..16u32).map(|j| list_of((0..2_000u32).map(move |i| i * 16 + j))).collect();
    let views: Vec<PostingView<'_>> = union_lists.iter().map(PostingList::as_view).collect();
    let union_view_ns = median_ns(samples, || {
        union_into(&views, &mut out);
        black_box(out.len());
    });
    let union_compressed: Vec<CompressedPostings> =
        union_lists.iter().map(CompressedPostings::from_list).collect();
    let union_block_ns = median_ns(samples, || {
        let cursors: Vec<PostingsCursor<'_>> =
            union_compressed.iter().map(|cp| PostingsCursor::Block(cp.cursor())).collect();
        union_cursors_into(cursors, &mut out);
        black_box(out.len());
    });
    record("union_16x2k_view_ns", Value::UInt(union_view_ns));
    record("union_16x2k_block_ns", Value::UInt(union_block_ns));

    // ---- End to end: query_eval over the sealed-compressed snapshot ------
    let snapshot = IndexSnapshot::from_index(index, docs, 1);
    for (name, raw) in [
        ("skewed_and", "rare012345 common"),
        ("three_term_and", "mid042 even common"),
        ("prefix", "mid04* even"),
        ("or_groups", "mid001 common OR mid002 even"),
    ] {
        let query = Query::parse(raw).expect("bench query parses");
        let sealed_ns = median_ns(samples, || {
            black_box(snapshot.search(&query).len());
        });
        record(&format!("query_{name}_sealed_ns"), Value::UInt(sealed_ns));
    }

    // ---- Ranked retrieval: block-max WAND vs exhaustive top-k ------------
    // Two pure-OR shapes over a 100k-document corpus.  "skewed": a term on
    // every document plus a rare high-tf term that owns the top ranks — the
    // case block-max pruning exists for.  "dense_or": three overlapping
    // lists that keep the WAND frontier aligned — pruning's worst case, kept
    // honest next to the win.  The exhaustive baseline is the same evaluator
    // with an unbounded k, which can never prune (the heap threshold never
    // rises), so it scores every posting block.
    let topk_corpora: Vec<(&str, &str, SealedShard, DocTable)> = {
        let mut skewed = InMemoryIndex::new();
        let mut skewed_docs = DocTable::new();
        for d in 0..100_000u32 {
            let id = skewed_docs.insert(format!("doc{d:06}.txt"));
            let mut words = vec![(Term::from("common"), 1u32)];
            if d % 1_000 == 0 {
                words.push((Term::from("rare"), 8));
            }
            skewed.insert_file_counted(id, words);
        }
        let mut dense = InMemoryIndex::new();
        let mut dense_docs = DocTable::new();
        for d in 0..100_000u32 {
            let id = dense_docs.insert(format!("doc{d:06}.txt"));
            let mut words = vec![(Term::from("alpha"), 1 + d % 4)];
            if d % 2 == 0 {
                words.push((Term::from("beta"), 1 + d % 3));
            }
            if d % 3 == 0 {
                words.push((Term::from("gamma"), 1));
            }
            dense.insert_file_counted(id, words);
        }
        vec![
            ("skewed", "common OR rare", SealedShard::from_index(&skewed), skewed_docs),
            ("dense_or", "alpha OR beta OR gamma", SealedShard::from_index(&dense), dense_docs),
        ]
    };
    let no_cancel = || false;
    for (shape, raw, shard, topk_docs) in &topk_corpora {
        let topk_shards = std::slice::from_ref(shard);
        let query = Query::parse(raw).expect("bench query parses");
        let exhaustive_ns = median_ns(samples, || {
            let (results, _) = search_topk(topk_shards, topk_docs, &query, usize::MAX, &no_cancel)
                .expect("pure-OR query is scorable");
            black_box(results.len());
        });
        record(&format!("query_topk_{shape}_exhaustive_ns"), Value::UInt(exhaustive_ns));
        for k in [10usize, 100] {
            let ns = median_ns(samples, || {
                let (results, _) = search_topk(topk_shards, topk_docs, &query, k, &no_cancel)
                    .expect("pure-OR query is scorable");
                black_box(results.len());
            });
            record(&format!("query_topk_{shape}_blockmax_k{k}_ns"), Value::UInt(ns));
            record(
                &format!("query_topk_{shape}_k{k}_speedup"),
                Value::Float(exhaustive_ns as f64 / ns.max(1) as f64),
            );
        }
        let (_, prune) = search_topk(topk_shards, topk_docs, &query, 10, &no_cancel)
            .expect("pure-OR query is scorable");
        record(&format!("query_topk_{shape}_k10_blocks_scored"), Value::UInt(prune.blocks_scored));
        record(
            &format!("query_topk_{shape}_k10_blocks_skipped"),
            Value::UInt(prune.blocks_skipped),
        );
    }

    // ---- Router: scatter-gather overhead, direct vs 1 vs 2 local shards --
    // Steady-state serving comparison (caches warm on every side): the
    // routed paths add scatter, per-shard result cloning and the k-way
    // ranked merge on top of the same engine execution.
    let direct = sharded_engines(20_000, 1).pop().expect("one engine");
    let router_one = router_over(1);
    let router_two = router_over(2);
    for (name, raw) in [
        ("skewed_and", "rare012345 common"),
        ("three_term_and", "mid042 even common"),
        ("prefix", "mid04* even"),
    ] {
        let direct_ns = median_ns(samples, || {
            black_box(direct.execute(raw).expect("bench query serves").results.len());
        });
        let one_ns = median_ns(samples, || {
            black_box(router_one.route(raw).expect("routed query serves").hits.len());
        });
        let two_ns = median_ns(samples, || {
            black_box(router_two.route(raw).expect("routed query serves").hits.len());
        });
        record(&format!("route_{name}_direct_ns"), Value::UInt(direct_ns));
        record(&format!("route_{name}_1shard_ns"), Value::UInt(one_ns));
        record(&format!("route_{name}_2shard_ns"), Value::UInt(two_ns));
    }

    // ---- Router: traced stage breakdown over 2 shards --------------------
    // Where a routed query's wall time goes, from the responses' own query
    // traces (`@id`-prefixed, so the traced path is exercised): the scatter
    // (fan-out plus shard execution), the critical-path shard round trip
    // inside it, and the k-way ranked merge.
    let mut scatter_ns: Vec<u64> = Vec::new();
    let mut shard_rtt_ns: Vec<u64> = Vec::new();
    let mut merge_ns: Vec<u64> = Vec::new();
    for _ in 0..samples.max(3) {
        let response = router_two.route("@1 mid042 even common").expect("traced query serves");
        for span in response.trace.spans() {
            let ns = u64::try_from(span.dur.as_nanos()).unwrap_or(u64::MAX);
            match span.stage {
                Stage::Scatter => scatter_ns.push(ns),
                Stage::Merge => merge_ns.push(ns),
                _ => {}
            }
        }
        if let Some(worst) = response.trace.shards().iter().map(|shard| shard.rtt).max() {
            shard_rtt_ns.push(u64::try_from(worst.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    let median_of = |mut ns: Vec<u64>| -> u64 {
        assert!(!ns.is_empty(), "traced responses carry the stage");
        ns.sort_unstable();
        ns[ns.len() / 2]
    };
    record("route_stage_scatter_2shard_ns", Value::UInt(median_of(scatter_ns)));
    record("route_stage_shard_rtt_2shard_ns", Value::UInt(median_of(shard_rtt_ns)));
    record("route_stage_merge_2shard_ns", Value::UInt(median_of(merge_ns)));

    // ---- Router: replicated shard sets, healthy / one-down / hedged ------
    // Two logical shards, each a 2-replica ReplicaSet over local engines.
    // The acceptance bar: losing one replica per set must cost near nothing
    // once the breaker opens (one_replica_down p99 within 2x of healthy).
    let replica_samples = if quick { 40 } else { 400 };
    for (name, scenario) in [
        ("healthy", ReplicaScenario::Healthy),
        ("one_replica_down", ReplicaScenario::OneReplicaDown),
        ("hedged", ReplicaScenario::Hedged),
    ] {
        let router = replicated_router(&scenario);
        let (p50, p99) = percentiles_ns(replica_samples, || {
            black_box(
                router.route("mid042 even common").expect("replicated query serves").hits.len(),
            );
        });
        record(&format!("route_replicated_{name}_p50_ns"), Value::UInt(p50));
        record(&format!("route_replicated_{name}_p99_ns"), Value::UInt(p99));
    }

    // ---- Build pipeline: cold vs resumed, checkpoint-interval overhead ---
    // A fixed synthetic corpus in memory (so only the pipeline and the store
    // writes are measured).  "Resumed at 50 %" interrupts a build via
    // stop_after at half the corpus, then times the --resume run alone — the
    // crash-recovery cost the checkpoint exists to bound.
    let build_corpus = {
        let spec = CorpusSpec { small_files: 240, directories: 8, ..CorpusSpec::tiny() };
        let (fs, _) = materialize_to_memfs(&spec, 97);
        std::sync::Arc::new(fs)
    };
    let build_files = {
        let probe = BuildPipeline::new(BuildOptions { extractors: 2, ..BuildOptions::default() });
        let dir = BenchStoreDir::new("probe");
        probe.build(build_corpus.as_ref(), &VPath::root(), &dir.path()).expect("probe build").files
    };
    record("build_corpus_files", Value::UInt(build_files));
    let build_options = |checkpoint_every: Duration| BuildOptions {
        extractors: 2,
        checkpoint_every,
        ..BuildOptions::default()
    };
    let build_samples = samples.min(9);
    for (name, interval) in
        [("0s", Duration::ZERO), ("1s", Duration::from_secs(1)), ("10s", Duration::from_secs(10))]
    {
        let dir = BenchStoreDir::new(name);
        let pipeline = BuildPipeline::new(build_options(interval));
        let ns = median_ns(build_samples, || {
            black_box(
                pipeline
                    .build(build_corpus.as_ref(), &VPath::root(), &dir.path())
                    .expect("bench build completes")
                    .counters
                    .items_ok,
            );
        });
        record(&format!("build_cold_checkpoint_every_{name}_ns"), Value::UInt(ns));
    }
    {
        let dir = BenchStoreDir::new("resume");
        let half = build_files / 2;
        let mut interrupted = build_options(Duration::ZERO);
        interrupted.stop_after = Some(half);
        let interrupted = BuildPipeline::new(interrupted);
        let mut resumed = build_options(Duration::ZERO);
        resumed.resume = true;
        let resumed = BuildPipeline::new(resumed);
        let ns = median_ns(build_samples, || {
            // Each sample replays the full crash story: fresh build killed at
            // 50 %, then the timed resume finishes the other half.
            let report = interrupted
                .build(build_corpus.as_ref(), &VPath::root(), &dir.path())
                .expect("interrupted build runs");
            assert!(report.interrupted, "stop_after fired");
            let start = Instant::now();
            let report = resumed
                .build(build_corpus.as_ref(), &VPath::root(), &dir.path())
                .expect("resumed build completes");
            black_box(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            assert!(report.complete && report.skipped >= half, "resume skipped sealed work");
        });
        // median_ns times interrupted+resume together; re-time just the
        // resume leg for the headline number.
        record("build_interrupt_plus_resume_at_50pct_ns", Value::UInt(ns));
        let mut resume_only: Vec<u64> = (0..build_samples.max(3))
            .map(|_| {
                interrupted
                    .build(build_corpus.as_ref(), &VPath::root(), &dir.path())
                    .expect("interrupted build runs");
                let start = Instant::now();
                resumed
                    .build(build_corpus.as_ref(), &VPath::root(), &dir.path())
                    .expect("resumed build completes");
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        resume_only.sort_unstable();
        record("build_resumed_at_50pct_ns", Value::UInt(resume_only[resume_only.len() / 2]));
    }

    let json = serde_json::to_string_pretty(&Value::Object(fields)).expect("summary serialises");
    std::fs::write(&out_path, format!("{json}\n")).expect("summary written");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
