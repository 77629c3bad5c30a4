//! The traced run: the workload's seeded inputs replayed in-process through
//! each layer's public entry points, plus a short traced TCP phase against
//! the real servers, with a span around every call.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `.bench_out/spans-<workload>-<seed>.jsonl` at the end, with
//! each span's self time (its duration minus the part its children cover).
//! Nothing is added to the program: server-side timings come from the
//! `micros=`, `stages=` and `# shard … rtt=` fields it already emits.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dsearch::core::{
    BuildOptions, Configuration, GeneratorOptions, Implementation, IndexGenerator, IndexOutcome,
};
use dsearch::index::{DocTable, InMemoryIndex};
use dsearch::persist::{IncrementalIndexer, IndexStore, SignatureDb};
use dsearch::query::Query;
use dsearch::server::{EngineConfig, IndexSnapshot, QueryEngine};
use dsearch::vfs::{CountingFs, OsFs, VPath, Walker};

use crate::check::{self, Reference};
use crate::client::{self, Conn};
use crate::corpus;
use crate::procs::{self, Server};
use crate::queries::{self, Mix, KINDS};
use crate::session::{self, SessionResult, Tally, Workload};
use crate::stats::{self, Metrics};

/// One recorded span.
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: usize,
    request: u64,
}

/// In-memory span recorder.  Span ids are 1-based positions; 0 is "no
/// parent".
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn open(&mut self, name: &str, parent: usize, request: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name: name.to_owned(), start: now, end: now, parent, request });
        self.spans.len()
    }

    fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id - 1];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Records a span whose times were measured elsewhere.
    fn record(&mut self, name: &str, start: Instant, dur: Duration, parent: usize, request: u64) {
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span { name: name.to_owned(), start, end: start + dur, parent, request });
    }

    /// Times `f` as a span under `parent`.
    fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.open(name, parent, 0);
        let out = f();
        let dur = self.close(id);
        (out, dur)
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals (clipped to the span).
    fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                children[span.parent - 1].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort();
                let (mut covered, mut reach) = (Duration::ZERO, span.start);
                for &(s, e) in kids.iter() {
                    let (s, e) = (s.max(reach), e.min(span.end));
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes the spans as JSON lines and logs self time per span name.
    fn write(&self, path: &Path) -> Result<(), String> {
        let selfs = self.self_times();
        let mut out = String::new();
        let mut by_name: std::collections::BTreeMap<&str, (Duration, usize)> = Default::default();
        for (i, (span, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {}, \"request\": {}, \"self_us\": {:.1}}}",
                i + 1,
                stats::json_str(&span.name),
                stats::micros(span.start),
                stats::micros(span.end),
                span.parent,
                span.request,
                stats::micros(*own)
            );
            let entry = by_name.entry(&span.name).or_default();
            entry.0 += *own;
            entry.1 += 1;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
        let mut ranked: Vec<_> = by_name.into_iter().collect();
        ranked.sort_by_key(|entry| std::cmp::Reverse(entry.1 .0));
        for (name, (own, n)) in ranked.iter().take(12) {
            eprintln!(
                "dsbench: self time {name:<32} {:>10.1} ms over {n} span(s)",
                own.as_secs_f64() * 1e3
            );
        }
        Ok(())
    }
}

/// The `index` command's default `(x, y, z)` for `implementation`.
fn cli_configuration(implementation: Implementation) -> Configuration {
    let x = std::thread::available_parallelism().map_or(2, usize::from).max(1);
    Configuration::new(x, 0, usize::from(implementation.joins()))
}

fn engine(snapshot: IndexSnapshot) -> Result<std::sync::Arc<QueryEngine>, String> {
    QueryEngine::new(snapshot, EngineConfig::default()).map_err(|e| e.to_string())
}

/// Paths `dsearch search` prints for `query`.
fn cli_search(bin: &Path, store: &Path, query: &str) -> Result<Vec<String>, String> {
    let mut args = vec!["search".to_owned(), "--store".to_owned(), store.display().to_string()];
    args.extend(query.split_whitespace().map(str::to_owned));
    let out = procs::run(bin, &args)?.stdout;
    Ok(out
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.rsplit_once("  (matched").map(|(p, _)| p.trim().to_owned()))
        .collect())
}

/// A `name=value` number from a `!stats` line.
fn stat_field(stats: &str, name: &str) -> f64 {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        .unwrap_or(0.0)
}

/// The p99 a `!stats` line reports (`latency[… p99 73.665µs …]`).
fn stats_p99(stats: &str) -> Option<Duration> {
    let rest = stats.split("p99 ").nth(1)?;
    stats::parse_debug_duration(rest.split_whitespace().next()?)
}

fn put_p50_p99(m: &mut Metrics, name: &str, values: &[f64], unit: &'static str) {
    m.put(format!("{name}.p50"), stats::percentile(values, 0.50), unit);
    m.put(format!("{name}.p99"), stats::percentile(values, 0.99), unit);
}

/// Runs the traced replay of workload `w`.
pub fn run(
    bin: &Path,
    w: &Workload,
    seed: u64,
    seconds: u64,
    work: &Path,
) -> Result<SessionResult, String> {
    let mut t = Tracer::new();
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let root_span = t.open(w.name, 0, 0);

    // ---- Set-up: the same deployment as the untraced run, plus a router
    // in front of the serve so the route layer is traced too.
    let setup = t.open("setup", root_span, 0);
    let (mut dep, _) = session::deploy(bin, w, seed, &work.join("deploy"))?;
    let serve_addr = dep.servers[0].addr;
    dep.servers
        .push(Server::start(bin, vec!["route".into(), "--shard".into(), serve_addr.to_string()])?);
    let route_addr = dep.servers.last().expect("router").addr;
    t.close(setup);
    let top = dep.corpus.root.clone();
    let input_bytes = dep.corpus.bytes as f64;
    let files = dep.corpus.files as f64;

    // ---- vfs -------------------------------------------------------------
    let os = OsFs::new(top.clone());
    let (walked, walk) = t.time("vfs.walk", root_span, || Walker::new().walk(&os, &VPath::root()));
    walked.map_err(|e| e.to_string())?;
    m.put("vfs.walk_ms", walk.as_secs_f64() * 1e3, "ms");

    // ---- core: Table 1 and the three Implementations ------------------------
    let generator = IndexGenerator::new(GeneratorOptions::paper_defaults());
    let (seq, _) =
        t.time("core.run_sequential", root_span, || generator.run_sequential(&os, &VPath::root()));
    let seq = seq.map_err(|e| e.to_string())?;
    let table = seq.timings;
    let extract_only = table.read_and_extract.saturating_sub(table.read_files);
    m.put(
        "text.extract_mb_per_s",
        seq.stage2.bytes as f64 / 1e6 / extract_only.as_secs_f64(),
        "MB/s",
    );
    m.put(
        "text.terms_per_kb",
        seq.stage2.occurrences as f64 / (seq.stage2.bytes as f64 / 1024.0),
        "1/KB",
    );
    m.put("core.table1.filenames_s", table.filename_generation.as_secs_f64(), "s");
    m.put("core.table1.read_s", table.read_files.as_secs_f64(), "s");
    m.put("core.table1.extract_s", table.read_and_extract.as_secs_f64(), "s");
    m.put("core.table1.update_s", table.index_update.as_secs_f64(), "s");
    let sequential_s = table.total().as_secs_f64();
    drop(seq);

    let counting = CountingFs::new(OsFs::new(top.clone()));
    let mut impl3_outcome = None;
    for (n, implementation) in [
        (1, Implementation::SharedLocked),
        (2, Implementation::ReplicateJoin),
        (3, Implementation::ReplicateNoJoin),
    ] {
        let (run, _) = t.time(&format!("core.run.impl{n}"), root_span, || {
            if n == 3 {
                generator.run(
                    &counting,
                    &VPath::root(),
                    implementation,
                    cli_configuration(implementation),
                )
            } else {
                generator.run(
                    &os,
                    &VPath::root(),
                    implementation,
                    cli_configuration(implementation),
                )
            }
        });
        let run = run.map_err(|e| e.to_string())?;
        let report = run.report();
        m.put(format!("core.extraction_s.impl{n}"), report.extraction_seconds, "s");
        if n == 2 {
            m.put("core.join_s.impl2", report.join_seconds, "s");
        }
        m.put(format!("core.speedup.impl{n}"), report.speedup_vs_seconds(sequential_s), "x");
        if n == 3 {
            impl3_outcome = Some(run.outcome);
        }
    }
    let io = counting.counters();
    m.put("vfs.bytes_read_per_input_byte", io.bytes_read as f64 / input_bytes, "ratio");
    m.put("vfs.opens_per_file", io.file_reads as f64 / files, "ratio");
    let outcome = impl3_outcome.expect("Implementation 3 ran");
    let index_stats = outcome.stats();
    m.put("index.terms", index_stats.distinct_terms as f64, "count");
    m.put("index.postings", index_stats.postings as f64, "count");

    // ---- persist: commit and load -----------------------------------------
    let store_dir = work.join("traced-store");
    let (committed, commit) = t.time("persist.commit", root_span, || -> Result<usize, String> {
        let mut store = IndexStore::open(&store_dir).map_err(|e| e.to_string())?;
        match outcome {
            IndexOutcome::Replicas { set, docs } => {
                for replica in set.into_replicas() {
                    store.commit(&replica, &docs).map_err(|e| e.to_string())?;
                }
            }
            single => {
                let (index, docs) = single.into_single_index();
                store.commit(&index, &docs).map_err(|e| e.to_string())?;
            }
        }
        Ok(store.segment_count())
    });
    m.put("persist.commit_ms", commit.as_secs_f64() * 1e3, "ms");
    m.put("index.segments", committed? as f64, "count");
    let (loaded, load) = t.time("persist.load", root_span, || check::load_snapshot(&store_dir));
    loaded?;
    m.put("persist.load_ms", load.as_secs_f64() * 1e3, "ms");
    let _ = std::fs::remove_dir_all(&store_dir);

    // ---- core: the checkpointed build pipeline ------------------------------
    let build_store = work.join("traced-build");
    let options = BuildOptions {
        extractors: std::thread::available_parallelism().map_or(2, usize::from),
        ..BuildOptions::default()
    };
    let (built, _) = t.time("core.build_pipeline", root_span, || {
        dsearch::core::BuildPipeline::new(options).build(&os, &VPath::root(), &build_store)
    });
    let built = built.map_err(|e| e.to_string())?;
    m.put("core.build.checkpoint_writes", built.counters.checkpoint_writes as f64, "count");
    m.put("core.build.items_retried", built.counters.items_retried as f64, "count");
    let _ = std::fs::remove_dir_all(&build_store);

    // ---- core: the shipped build drivers, once each -------------------------
    // Implementation 1 and `build` are not end-to-end metrics (too unsteady
    // on a shared VM), so their spawn-to-exit MB/s are reported here.
    for (name, args) in session::DRIVERS {
        let store = work.join(format!("traced-{name}"));
        let (finished, _) = t.time(&format!("cli.{name}"), root_span, || {
            session::run_driver(bin, &dep.corpus, args, &store)
        });
        m.put(format!("core.cli.{name}_mb_per_s"), finished?.1, "MB/s");
        let _ = std::fs::remove_dir_all(&store);
    }

    // ---- query: evaluator per shape on the served store -------------------
    let snapshot = check::load_snapshot(&dep.store)?;
    let vocab = queries::vocabulary(&[&snapshot]);
    let ranked = queries::build(Mix::Ranked, &vocab, seed);
    let mut sample: Vec<usize> = Vec::new();
    for kind in 0..KINDS.len() {
        sample.extend(
            ranked.kinds.iter().enumerate().filter(|(_, k)| **k == kind).map(|(i, _)| i).take(120),
        );
    }
    let parsed: Vec<Query> = sample
        .iter()
        .map(|&i| Query::parse(&ranked.texts[i]))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut eval_us: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let (mut skipped, mut scored) = (0u64, 0u64);
    // Paired untraced/traced passes over the same queries give the span
    // overhead; the traced passes also give the per-shape timings.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let never = || false;
    for pass in 0..6 {
        let traced = pass % 2 == 1;
        let started = Instant::now();
        for (q, &i) in parsed.iter().zip(&sample) {
            if traced {
                let id = t.open("query.search_topk", root_span, i as u64);
                if let Some((_, prune)) = snapshot.search_topk(q, 20, &never) {
                    skipped += prune.blocks_skipped;
                    scored += prune.blocks_scored;
                } else {
                    let fallback = t.open("query.search", id, i as u64);
                    std::hint::black_box(snapshot.search(q));
                    t.close(fallback);
                }
                eval_us[ranked.kinds[i]].push(stats::micros(t.close(id)));
            } else if snapshot.search_topk(q, 20, &never).map(std::hint::black_box).is_none() {
                std::hint::black_box(snapshot.search(q));
            }
        }
        let wall = started.elapsed().as_secs_f64();
        if traced {
            traced_s.push(wall);
        } else {
            untraced_s.push(wall);
        }
    }
    for (kind, name) in KINDS.iter().enumerate() {
        put_p50_p99(&mut m, &format!("query.eval_us.{name}"), &eval_us[kind], "us");
    }
    m.put("query.blocks_skipped_ratio", skipped as f64 / (skipped + scored).max(1) as f64, "ratio");
    let overhead = (stats::median(&traced_s) - stats::median(&untraced_s))
        / stats::median(&untraced_s)
        * 100.0;
    m.put("obs.trace_overhead_pct", overhead, "%");

    // `search` vs `serve` on the same store and queries.
    let serve_engine = engine(snapshot)?;
    let mut mismatches = 0;
    for &i in sample.iter().step_by(sample.len() / 10 + 1) {
        let text = &ranked.texts[i];
        let (cli, _) = t.time("cli.search", root_span, || cli_search(bin, &dep.store, text));
        let served: Vec<String> = serve_engine
            .execute(text)
            .map_err(|e| e.to_string())?
            .results
            .hits()
            .iter()
            .map(|h| h.path.to_string())
            .collect();
        if cli? != served {
            mismatches += 1;
        }
    }
    m.put("query.search_vs_serve_mismatches", f64::from(mismatches), "count");
    drop(serve_engine);

    // ---- server: engine and in-process router over the workload's stores ---
    let set = queries::build(w.mix, &vocab, seed);
    let requests = (w.nominal_qps * 2.0) as usize;
    let stream = queries::stream(&set, requests, seed ^ 1);
    // Requests of the workload's stream that `search_topk` cannot rank.
    let unranked = stream
        .iter()
        .filter(|&&q| {
            Query::parse(&set.texts[q]).map_or(true, |parsed| !dsearch::query::scorable(&parsed))
        })
        .count();
    m.put("query.unranked_share", unranked as f64 / stream.len().max(1) as f64, "ratio");
    let serve_engine = engine(check::load_snapshot(&dep.store)?)?;
    let mut execute_us = Vec::new();
    for (r, &q) in stream.iter().enumerate() {
        let id = t.open("server.engine.execute", root_span, r as u64);
        std::hint::black_box(serve_engine.execute(&set.texts[q]).map_err(|e| e.to_string())?);
        execute_us.push(stats::micros(t.close(id)));
    }
    put_p50_p99(&mut m, "server.engine.execute_us", &execute_us, "us");
    let router = check::router(&dep.store)?;
    let mut inproc_us = Vec::new();
    for (r, &q) in stream.iter().enumerate() {
        let id = t.open("server.route.route", root_span, r as u64);
        std::hint::black_box(router.route(&set.texts[q]).map_err(|e| e.to_string())?);
        inproc_us.push(stats::micros(t.close(id)));
    }
    put_p50_p99(&mut m, "server.route.inproc_us", &inproc_us, "us");
    drop(serve_engine);

    // ---- Traced TCP phases: direct serve, then the router -------------------
    let reference = Reference::serve(&dep.store)?;
    let routed_reference = Reference::Route(router);
    let phase_s = (seconds as f64 * 0.1).clamp(1.0, 3.0);
    let plan_stream = queries::stream(&set, (w.nominal_qps * phase_s) as usize, seed ^ 3);
    let plan = client::schedule(w.nominal_qps, phase_s, &plan_stream);
    let wire =
        client::Wire { connections: session::client_connections(), prefix: "@1 ", quickack: true };
    let direct_started = Instant::now() + Duration::from_millis(20);
    let direct = client::run_phase(serve_addr, &set.texts, &plan, wire);
    let mut expect = |_: u64, q: usize| reference.expect(&set.texts[q]);
    session::judge_phase(&direct, &mut tally, &mut expect);
    // Read before any other request, `!stats` covers the same requests as
    // `served_micros`: the first answer and the direct phase.
    let mut control = Conn::connect(serve_addr)?;
    let stats_line = control.request("!stats")?;
    let mut wire_us = Vec::new();
    let mut served_micros = vec![check::micros(&dep.first_reply).unwrap_or(0) as f64];
    for (r, o) in direct.outcomes.iter().enumerate() {
        let Some(latency) = o.latency else { continue };
        let id = t.spans.len() + 1;
        t.record("client.request", direct_started + o.due, latency, root_span, r as u64);
        if let Some(us) = check::micros(&o.reply) {
            let server = Duration::from_micros(us);
            t.record(
                "server.serve",
                direct_started + o.due + latency - server,
                server,
                id,
                r as u64,
            );
            wire_us.push(stats::micros(latency) - us as f64);
            served_micros.push(us as f64);
        }
    }
    put_p50_p99(&mut m, "server.serve.wire_us", &wire_us, "us");
    let direct_us: Vec<f64> =
        direct.outcomes.iter().filter_map(|o| o.latency).map(stats::micros).collect();
    m.put("loadgen.latency_us.p50", stats::percentile(&direct_us, 0.50), "us");
    m.put("loadgen.latency_us.p90", stats::percentile(&direct_us, 0.90), "us");
    m.put("loadgen.latency_us.p99", stats::percentile(&direct_us, 0.99), "us");
    // The same phase with the client's delayed ACK left on: the extra
    // median latency is what the servers' Nagle buffering costs a client
    // that does not ACK at once.
    let delayed =
        client::run_phase(serve_addr, &set.texts, &plan, client::Wire { quickack: false, ..wire });
    session::judge_phase(&delayed, &mut tally, &mut expect);
    let latency_us = |phase: &client::PhaseResult| -> Vec<f64> {
        phase.outcomes.iter().filter_map(|o| o.latency).map(stats::micros).collect()
    };
    m.put(
        "server.serve.nagle_wait_us",
        stats::percentile(&latency_us(&delayed), 0.5)
            - stats::percentile(&latency_us(&direct), 0.5),
        "us",
    );
    m.put("server.cache.hit_ratio", stat_field(&stats_line, "cache_hit_rate"), "ratio");
    m.put("workload.repeat_share", queries::repeat_share(&plan_stream), "ratio");
    m.put("server.batch.batched", stat_field(&stats_line, "batched"), "count");
    m.put("server.batch.dedup_hits", stat_field(&stats_line, "dedup_hits"), "count");
    let exact_p99 = stats::percentile(&served_micros, 0.99);
    let reported_p99 = stats_p99(&stats_line).map_or(0.0, stats::micros);
    m.put("obs.p99_rel_error", (reported_p99 - exact_p99).abs() / exact_p99.max(1.0), "ratio");
    let mut reload_ms = Vec::new();
    for _ in 0..3 {
        let (reply, dur) =
            t.time("server.snapshot.reload", root_span, || control.request("!reload"));
        let reply = reply?;
        if !reply.starts_with("OK") {
            tally.fail(false, format!("reload: {reply}"));
        }
        reload_ms.push(dur.as_secs_f64() * 1e3);
    }
    m.put("server.snapshot.reload_ms", stats::median(&reload_ms), "ms");
    drop(control);

    // The router answers far fewer pipelined requests per second than a
    // shard, so its phase runs at a rate it sustains.
    let route_qps = w.nominal_qps.min(400.0);
    let route_plan = client::schedule(route_qps, phase_s, &plan_stream);
    let routed_started = Instant::now() + Duration::from_millis(20);
    let routed = client::run_phase(
        route_addr,
        &set.texts,
        &route_plan,
        client::Wire { prefix: "@2 ", ..wire },
    );
    session::judge_phase(&routed, &mut tally, &mut |_, q| routed_reference.expect(&set.texts[q]));
    let (mut rtt_us, mut overhead_us, mut hop_us) = (Vec::new(), Vec::new(), Vec::new());
    for (r, o) in routed.outcomes.iter().enumerate() {
        let Some(latency) = o.latency else { continue };
        let parsed = dsearch::server::protocol::ParsedResponse {
            ok: o.reply.starts_with("OK"),
            status: o.reply.lines().next().unwrap_or_default().trim_start_matches("OK ").to_owned(),
            body: o.reply.lines().skip(1).map(str::to_owned).collect(),
        };
        let id = t.spans.len() + 1;
        let end = routed_started + o.due + latency;
        t.record("client.request.routed", routed_started + o.due, latency, root_span, r as u64);
        let Some(router_us) = check::micros(&o.reply) else { continue };
        let router_time = Duration::from_micros(router_us);
        t.record("server.route", end - router_time, router_time, id, r as u64);
        hop_us.push(stats::micros(latency) - router_us as f64);
        let mut slowest = Duration::ZERO;
        for shard in parsed.shard_spans() {
            rtt_us.push(stats::micros(shard.rtt));
            slowest = slowest.max(shard.rtt);
            t.record(
                "server.route.shard_rtt",
                end - router_time,
                shard.rtt.min(router_time),
                id + 1,
                r as u64,
            );
        }
        overhead_us.push(router_us as f64 - stats::micros(slowest));
    }
    put_p50_p99(&mut m, "server.route.shard_rtt_us", &rtt_us, "us");
    put_p50_p99(&mut m, "server.route.overhead_us", &overhead_us, "us");
    put_p50_p99(&mut m, "server.route.hop_us", &hop_us, "us");
    let lateness: Vec<f64> =
        direct.outcomes.iter().chain(&routed.outcomes).map(|o| stats::micros(o.lateness)).collect();
    put_p50_p99(&mut m, "loadgen.lateness_us", &lateness, "us");
    m.put("loadgen.backlog", (direct.backlog + routed.backlog) as f64, "count");

    // ---- persist: one incremental update after a seeded edit -------------
    let inc_store = work.join("traced-incremental");
    let root0 = OsFs::new(dep.corpus.root.clone());
    let mut index = InMemoryIndex::new();
    let mut docs = DocTable::new();
    let mut signatures = SignatureDb::new();
    let indexer = IncrementalIndexer::new();
    indexer
        .update(&root0, &VPath::root(), &mut index, &mut docs, &mut signatures)
        .map_err(|e| e.to_string())?;
    let mut store = IndexStore::open(&inc_store).map_err(|e| e.to_string())?;
    store.replace_all(&index, &docs).map_err(|e| e.to_string())?;
    drop((index, docs));
    corpus::apply_edit(&dep.corpus, seed, 0)?;
    let (report, incremental) =
        t.time("persist.incremental", root_span, || -> Result<_, String> {
            let (mut index, mut docs) = store.load_joined().map_err(|e| e.to_string())?;
            let report = indexer
                .update(&root0, &VPath::root(), &mut index, &mut docs, &mut signatures)
                .map_err(|e| e.to_string())?;
            store.replace_all(&index, &docs).map_err(|e| e.to_string())?;
            Ok(report)
        });
    let report = report?;
    m.put("persist.incremental_ms", incremental.as_secs_f64() * 1e3, "ms");
    m.put("persist.rescan_ratio", report.rescan_ratio(), "ratio");
    drop(store);
    let _ = std::fs::remove_dir_all(&inc_store);

    dep.stop();
    t.close(root_span);
    let spans_path = PathBuf::from(".bench_out").join(format!("spans-{}-{seed}.jsonl", w.name));
    t.write(&spans_path)?;
    let record = vec![
        ("spans".into(), t.spans.len().to_string()),
        ("spans_file".into(), spans_path.display().to_string()),
        ("corpus_files".into(), dep.corpus.files.to_string()),
        ("distinct_queries".into(), set.texts.len().to_string()),
        ("obs.exact_p99_us".into(), format!("{exact_p99:.1}")),
        ("obs.stats_p99_us".into(), format!("{reported_p99:.1}")),
        ("obs.p99_requests".into(), served_micros.len().to_string()),
    ];
    Ok(SessionResult { metrics: m, tally, record })
}
