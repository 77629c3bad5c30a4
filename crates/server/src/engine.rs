//! The query engine: snapshot + cache + stats behind a batch-scheduled
//! worker-thread pool.
//!
//! [`QueryEngine::execute_batch`] is the serving path (parse → dedup → cache
//! probe → memoized snapshot search → fan-out); [`QueryEngine::execute`] is
//! the batch-of-one convenience.  [`WorkerPool`] runs that path on a fixed
//! set of worker threads fed through an admission-controlled
//! [`QueueGovernor`](crate::batch::QueueGovernor): each worker drains up to
//! `max_batch` queued queries at a time, so a backlog turns into shared work
//! (one snapshot load, one posting memo, one search per distinct canonical
//! query) instead of per-request overhead.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsearch_obs::{QueryTrace, Stage};
use dsearch_query::{ParseError, Query, SearchResults};

use crate::batch::{BatchConfig, BatchSearcher, QueueGovernor, QueueJob};
use crate::cache::{AdmissionPolicy, CacheCounters, CacheKey, QueryCache};
use crate::protocol::split_request_meta;
use crate::snapshot::{IndexSnapshot, SnapshotCell};
use crate::stats::{DeadlineStage, ServerStats};

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads the pool spawns.
    pub workers: usize,
    /// Total cached query results across all shards.
    pub cache_capacity: usize,
    /// Number of cache shards (locks).
    pub cache_shards: usize,
    /// Whether inserts into a full cache must pass the TinyLFU frequency
    /// filter (`--cache-admission lfu|all`).
    pub cache_admission: AdmissionPolicy,
    /// Cap on hits kept per response (and per cache entry).
    pub result_limit: usize,
    /// Batching and admission-control parameters for the worker pool.
    pub batch: BatchConfig,
    /// Deadline applied to queries that carry no `@d=<ms>` budget of their
    /// own (`--default-deadline-ms`).  `None`: no implicit deadline.
    pub default_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from).min(16),
            cache_capacity: 4096,
            cache_shards: 8,
            cache_admission: AdmissionPolicy::default(),
            result_limit: 20,
            batch: BatchConfig::default(),
            default_deadline: None,
        }
    }
}

/// An invalid [`EngineConfig`], reported at engine construction instead of
/// producing a pool that can never make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: no thread would ever drain the queue.
    NoWorkers,
    /// `cache_shards == 0`: the cache would have no shard to store into.
    NoCacheShards,
    /// `batch.max_batch == 0`: a worker would drain nothing per wakeup.
    EmptyBatch,
    /// A router was built with no shard backends to scatter to.
    NoShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoWorkers => f.write_str("workers must be at least 1"),
            ConfigError::NoCacheShards => f.write_str("cache_shards must be at least 1"),
            ConfigError::EmptyBatch => f.write_str("max_batch must be at least 1"),
            ConfigError::NoShards => f.write_str("at least one shard backend is required"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Checks the configuration for values that would deadlock or disable
    /// the serving path.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::NoWorkers);
        }
        if self.cache_shards == 0 {
            return Err(ConfigError::NoCacheShards);
        }
        if self.batch.max_batch == 0 {
            return Err(ConfigError::EmptyBatch);
        }
        Ok(())
    }
}

/// Errors surfaced to protocol clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The query did not parse.
    Parse(ParseError),
    /// The request was shed by admission control.
    Overloaded,
    /// The worker pool is shutting down.
    ShuttingDown,
    /// Every shard failed for a scatter-gathered query: there is no partial
    /// result left to serve.
    AllShardsFailed,
    /// The query's deadline budget ran out before an answer was produced.
    /// Reported distinctly from errors: the server was healthy, the caller's
    /// time budget was not.
    DeadlineExceeded,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Parse(e) => write!(f, "invalid query: {e}"),
            ServerError::Overloaded => f.write_str("server overloaded: request shed"),
            ServerError::ShuttingDown => f.write_str("server is shutting down"),
            ServerError::AllShardsFailed => f.write_str("all shards failed"),
            ServerError::DeadlineExceeded => {
                f.write_str("deadline_exceeded: query budget exhausted")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Canonical (parsed-and-rendered) query text.
    pub query: String,
    /// Ranked hits, truncated to the engine's result limit.
    pub results: Arc<SearchResults>,
    /// Snapshot generation the answer came from.
    pub generation: u64,
    /// Whether the result was served from cache.
    pub cached: bool,
    /// Wall-clock service time.  For pool-served queries this runs from the
    /// batch's earliest submission until the whole batch finished, so queue
    /// wait and any `max_wait` fill window are included; every query in a
    /// batch shares the value — no response is released before its batch
    /// completes, so this approximates what the client observes, not the
    /// query's share of the evaluation work.  Direct
    /// [`QueryEngine::execute`] calls time only the engine itself.
    pub latency: Duration,
    /// The query's stage timing record.  Spans are shared by the whole batch
    /// (one parse/snapshot/eval pass serves every query in it); the id is
    /// per query when the request carried a `@<hex>` trace-id prefix and
    /// zero otherwise.
    pub trace: Arc<QueryTrace>,
}

/// The shared serving state.
#[derive(Debug)]
pub struct QueryEngine {
    snapshot: SnapshotCell,
    cache: QueryCache,
    stats: ServerStats,
    config: EngineConfig,
}

impl QueryEngine {
    /// Builds an engine serving `snapshot` under `config`.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is invalid (zero workers, zero cache
    /// shards, empty batches) — see [`EngineConfig::validate`].
    pub fn new(snapshot: IndexSnapshot, config: EngineConfig) -> Result<Arc<Self>, ConfigError> {
        config.validate()?;
        Ok(Arc::new(QueryEngine {
            snapshot: SnapshotCell::new(snapshot),
            cache: QueryCache::with_admission(
                config.cache_capacity,
                config.cache_shards,
                config.cache_admission,
            ),
            stats: ServerStats::new(),
            config,
        }))
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The snapshot slot (for publishing new generations).
    #[must_use]
    pub fn snapshot_cell(&self) -> &SnapshotCell {
        &self.snapshot
    }

    /// The live serving counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// The rendered stats report (the `!stats` protocol answer), including
    /// the served snapshot's compressed-index footprint.
    #[must_use]
    pub fn stats_report(&self) -> String {
        let snapshot = self.snapshot.load();
        let compressed = snapshot.posting_bytes();
        let raw = snapshot.uncompressed_posting_bytes();
        let ratio = if compressed == 0 { 1.0 } else { raw as f64 / compressed as f64 };
        format!(
            "{} index[shards={} postings={} posting_bytes={compressed} raw_bytes={raw} \
             compression={ratio:.2}x]",
            self.stats.render(self.cache.counters(), snapshot.generation()),
            snapshot.shard_count(),
            snapshot.posting_count(),
        )
    }

    /// Serves one query synchronously (a batch of one).
    ///
    /// # Errors
    ///
    /// Fails when the query does not parse; the error is also counted in the
    /// engine stats.
    pub fn execute(&self, raw: &str) -> Result<QueryResponse, ServerError> {
        self.execute_batch(&[raw]).pop().expect("one query in, one response out")
    }

    /// Serves a batch of queries against a single snapshot load.
    ///
    /// Identical canonical queries collapse to one evaluation fanned out to
    /// every position (`dedup_hits`), and distinct queries that share terms
    /// reuse per-batch memoized posting lists.  Responses come back in
    /// submission order; parse failures occupy their slot as errors without
    /// failing the rest of the batch.
    #[must_use]
    pub fn execute_batch(&self, raws: &[&str]) -> Vec<Result<QueryResponse, ServerError>> {
        self.execute_batch_since(raws, std::time::Instant::now())
    }

    /// [`execute_batch`](QueryEngine::execute_batch) with an explicit start
    /// instant: the worker pool passes the batch's earliest submission time,
    /// so queueing delay and any `max_wait` fill window are charged to the
    /// served queries' latency rather than hidden from it.
    pub(crate) fn execute_batch_since(
        &self,
        raws: &[&str],
        started: Instant,
    ) -> Vec<Result<QueryResponse, ServerError>> {
        self.execute_batch_timed(raws, started, Duration::ZERO)
    }

    /// The full serving path with queue timing attached: `started` is when
    /// the batch's oldest job was submitted, `fill_wait` how long the worker
    /// lingered for the batch to fill.  Everything between submission and
    /// execution that is not the fill window — queueing plus the dispatch
    /// hop to this worker — is attributed to the `queue_wait` stage, so the
    /// recorded stages tile the measured latency without holes.
    pub(crate) fn execute_batch_timed(
        &self,
        raws: &[&str],
        started: Instant,
        fill_wait: Duration,
    ) -> Vec<Result<QueryResponse, ServerError>> {
        struct Answered {
            query: String,
            results: Arc<SearchResults>,
            cached: bool,
        }
        let exec_started = Instant::now();
        let queue_wait = exec_started.saturating_duration_since(started).saturating_sub(fill_wait);
        let mut trace = QueryTrace::default();
        if !queue_wait.is_zero() {
            trace.record(Stage::QueueWait, queue_wait);
        }
        if !fill_wait.is_zero() {
            trace.record(Stage::BatchFill, fill_wait);
        }

        let mut slots: Vec<Option<Result<Answered, ServerError>>> =
            raws.iter().map(|_| None).collect();
        let mut parsed: Vec<Option<Query>> = raws.iter().map(|_| None).collect();
        let mut trace_ids: Vec<u64> = Vec::with_capacity(raws.len());
        let mut deadlines: Vec<Option<Instant>> = Vec::with_capacity(raws.len());

        // Group positions by canonical query text: "RUST  search" and
        // "rust AND search" are one evaluation.  A `@<hex>` prefix is the
        // router's trace id, a `@d=<ms>` prefix the query's deadline budget
        // (anchored at the batch's submission instant): both ride along per
        // slot, outside the canonical grouping.
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut executed = 0u64;
        let mut ranked_lookups = Duration::ZERO;
        for (i, raw) in raws.iter().enumerate() {
            let (meta, query_text) = split_request_meta(raw);
            trace_ids.push(meta.trace_id);
            deadlines.push(
                meta.deadline_ms
                    .map(Duration::from_millis)
                    .or(self.config.default_deadline)
                    .map(|budget| started + budget),
            );
            match Query::parse(query_text) {
                Ok(query) => {
                    groups.entry(query.to_string()).or_default().push(i);
                    parsed[i] = Some(query);
                    executed += 1;
                }
                Err(e) => {
                    self.stats.record_error();
                    slots[i] = Some(Err(ServerError::Parse(e)));
                }
            }
        }
        let parse_done = Instant::now();
        trace.record(Stage::Parse, parse_done.saturating_duration_since(exec_started));

        // One snapshot load for the whole batch: every query in it shares a
        // generation, and a concurrent publish cannot tear the image.
        let snapshot = self.snapshot.load();
        let generation = snapshot.generation();
        let searcher = BatchSearcher::new(&snapshot);
        let snapshot_done = Instant::now();
        trace.record(Stage::SnapshotLoad, snapshot_done.saturating_duration_since(parse_done));

        for (canonical, positions) in groups {
            // Deadline checkpoint between batch members: positions whose
            // budget is already gone answer `DeadlineExceeded` without
            // touching the cache — a cache hit cannot resurrect a dead
            // query, and a dead query never pollutes the cache.
            let now = Instant::now();
            let mut live: Vec<usize> = Vec::with_capacity(positions.len());
            for &i in &positions {
                match deadlines[i] {
                    Some(deadline) if deadline <= now => {
                        self.stats.record_deadline_exceeded(DeadlineStage::Exec);
                        slots[i] = Some(Err(ServerError::DeadlineExceeded));
                    }
                    _ => live.push(i),
                }
            }
            if live.is_empty() {
                continue;
            }
            let key = CacheKey { query: canonical.clone(), generation };
            let (results, cached) = match self.cache.get(&key) {
                Some(results) => (results, true),
                None => {
                    let query = parsed[positions[0]].take().expect("grouped position parsed");
                    // The most patient live position drives cancellation: any
                    // position that can still use the answer justifies
                    // finishing the evaluation.
                    let group_deadline = if live.iter().any(|&i| deadlines[i].is_none()) {
                        None
                    } else {
                        live.iter().filter_map(|&i| deadlines[i]).max()
                    };
                    searcher.set_deadline(group_deadline);
                    // The shared answer rule (ranked top-k, boolean fallback
                    // through this batch's posting memo, truncated to the
                    // result limit); both paths poll the memo's deadline.
                    let (results, prune) =
                        snapshot.evaluate(&query, self.config.result_limit, &searcher);
                    if let Some(prune) = prune {
                        ranked_lookups += prune.lookup;
                        self.stats.record_prune(prune);
                    }
                    searcher.set_deadline(None);
                    if searcher.take_cancelled() {
                        // The evaluation was stopped mid-flight: the partial
                        // result is dead work — never cached, never served.
                        for &i in &live {
                            self.stats.record_deadline_exceeded(DeadlineStage::Exec);
                            slots[i] = Some(Err(ServerError::DeadlineExceeded));
                        }
                        continue;
                    }
                    let results = Arc::new(results);
                    self.cache.insert(key, Arc::clone(&results));
                    (results, false)
                }
            };
            self.stats.record_dedup_hits((live.len() - 1) as u64);
            for &i in &live {
                slots[i] = Some(Ok(Answered {
                    query: canonical.clone(),
                    results: Arc::clone(&results),
                    cached,
                }));
            }
        }
        // Evaluation splits into posting-list resolution — the boolean
        // searcher's memo plus the ranked path's cursor/dictionary lookups —
        // and everything else: intersect/union/rank plus cache probes.
        let eval = snapshot_done.elapsed();
        let lookups = searcher.lookup_time() + ranked_lookups;
        trace.record(Stage::Postings, lookups);
        trace.record(Stage::IntersectMerge, eval.saturating_sub(lookups));

        // Only queries that actually executed count toward the batching
        // stats; parse-error slots never shared any work.  The trace is
        // recorded once per batch: its spans describe the shared pass.
        self.stats.record_batch(executed);
        self.stats.record_trace(&trace);
        let latency = started.elapsed();
        let shared_trace = Arc::new(trace);
        slots
            .into_iter()
            .zip(trace_ids)
            .map(|(slot, trace_id)| match slot.expect("every position answered") {
                Ok(answered) => {
                    self.stats.record_query(latency);
                    let trace = if trace_id == 0 {
                        Arc::clone(&shared_trace)
                    } else {
                        let mut own = (*shared_trace).clone();
                        own.set_id(trace_id);
                        Arc::new(own)
                    };
                    Ok(QueryResponse {
                        query: answered.query,
                        results: answered.results,
                        generation,
                        cached: answered.cached,
                        latency,
                        trace,
                    })
                }
                Err(e) => Err(e),
            })
            .collect()
    }
}

/// A submitted query waiting for its worker.
pub struct PendingResponse {
    receiver: mpsc::Receiver<Result<QueryResponse, ServerError>>,
}

impl PendingResponse {
    /// Wraps a raw response channel (crate-internal plumbing).
    pub(crate) fn from_receiver(
        receiver: mpsc::Receiver<Result<QueryResponse, ServerError>>,
    ) -> Self {
        PendingResponse { receiver }
    }

    /// Blocks until the worker answers.
    ///
    /// # Errors
    ///
    /// Propagates the worker's error; reports `ShuttingDown` when the pool
    /// died before answering.
    pub fn wait(self) -> Result<QueryResponse, ServerError> {
        self.receiver.recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

/// A queued query plus the channel its answer travels back on.
pub(crate) struct Job {
    pub(crate) raw: String,
    pub(crate) respond: mpsc::Sender<Result<QueryResponse, ServerError>>,
    /// When the job entered the queue; served queries are timed from here so
    /// queueing delay shows up in the latency percentiles.
    pub(crate) submitted: std::time::Instant,
    /// Absolute deadline from the request's `@d=<ms>` prefix (or the
    /// engine's default), anchored at submission.
    pub(crate) deadline: Option<std::time::Instant>,
}

impl QueueJob for Job {
    fn shed(self) {
        // The waiter may have given up; that is not an error.
        let _ = self.respond.send(Err(ServerError::Overloaded));
    }

    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn expire(self) {
        let _ = self.respond.send(Err(ServerError::DeadlineExceeded));
    }
}

/// A fixed pool of worker threads draining query batches from an
/// admission-controlled queue.
pub struct WorkerPool {
    engine: Arc<QueryEngine>,
    governor: Arc<QueueGovernor<Job>>,
    handles: Vec<std::thread::JoinHandle<u64>>,
}

impl WorkerPool {
    /// Spawns `engine.config().workers` workers behind a
    /// [`QueueGovernor`] configured from `engine.config().batch`.
    #[must_use]
    pub fn start(engine: Arc<QueryEngine>) -> Self {
        let workers = engine.config().workers;
        let governor = Arc::new(QueueGovernor::<Job>::new(engine.config().batch));
        let handles = (0..workers)
            .map(|_| {
                let governor = Arc::clone(&governor);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    while let Some(batch) = governor.next_batch(engine.stats()) {
                        // Time the batch from its earliest submission, so
                        // queueing delay and the fill window both land in
                        // the recorded latency (and in the trace, as the
                        // queue_wait and batch_fill stages).
                        let started = batch
                            .jobs
                            .iter()
                            .map(|job| job.submitted)
                            .min()
                            .expect("batches are never empty");
                        let raws: Vec<&str> =
                            batch.jobs.iter().map(|job| job.raw.as_str()).collect();
                        let responses = engine.execute_batch_timed(&raws, started, batch.fill_wait);
                        for (job, response) in batch.jobs.iter().zip(responses) {
                            // A client that gave up is not an error.
                            let _ = job.respond.send(response);
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();
        WorkerPool { engine, governor, handles }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Jobs currently waiting in the admission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.governor.depth()
    }

    /// Enqueues a query; the result is collected through the returned handle.
    ///
    /// # Errors
    ///
    /// Fails with [`ServerError::Overloaded`] when admission control rejects
    /// the request, and [`ServerError::ShuttingDown`] when the pool is
    /// stopping.
    pub fn submit(&self, raw: impl Into<String>) -> Result<PendingResponse, ServerError> {
        let raw = raw.into();
        let (respond, receiver) = mpsc::channel();
        let submitted = std::time::Instant::now();
        let (meta, _) = split_request_meta(&raw);
        let deadline = meta
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.engine.config().default_deadline)
            .map(|budget| submitted + budget);
        let job = Job { raw, respond, submitted, deadline };
        self.governor.submit(job, self.engine.stats())?;
        Ok(PendingResponse::from_receiver(receiver))
    }

    /// Submits and waits: the closed-loop client path.
    ///
    /// # Errors
    ///
    /// Propagates submit and execution errors.
    pub fn execute(&self, raw: &str) -> Result<QueryResponse, ServerError> {
        self.submit(raw)?.wait()
    }

    /// Drains the queue and joins every worker, returning the total number of
    /// jobs served.
    pub fn shutdown(mut self) -> u64 {
        self.governor.close();
        self.handles.drain(..).map(|h| h.join().unwrap_or(0)).sum()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.governor.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::OverloadPolicy;
    use dsearch_index::{DocTable, InMemoryIndex};
    use dsearch_text::Term;

    fn engine(config: EngineConfig) -> Arc<QueryEngine> {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (path, words) in [
            ("a.txt", vec!["rust", "parallel", "index"]),
            ("b.txt", vec!["rust", "search"]),
            ("c.txt", vec!["java", "search"]),
        ] {
            let id = docs.insert(path);
            index.insert_file(id, words.into_iter().map(Term::from));
        }
        QueryEngine::new(IndexSnapshot::from_index(index, docs, 1), config).unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        for (config, expected) in [
            (EngineConfig { workers: 0, ..EngineConfig::default() }, ConfigError::NoWorkers),
            (
                EngineConfig { cache_shards: 0, ..EngineConfig::default() },
                ConfigError::NoCacheShards,
            ),
            (
                EngineConfig {
                    batch: BatchConfig { max_batch: 0, ..BatchConfig::default() },
                    ..EngineConfig::default()
                },
                ConfigError::EmptyBatch,
            ),
        ] {
            let mut docs = DocTable::new();
            let id = docs.insert("a.txt");
            let mut index = InMemoryIndex::new();
            index.insert_file(id, [Term::from("rust")]);
            let err = QueryEngine::new(IndexSnapshot::from_index(index, docs, 1), config.clone())
                .unwrap_err();
            assert_eq!(err, expected, "config {config:?}");
            assert!(!err.to_string().is_empty());
            assert_eq!(config.validate().unwrap_err(), expected);
        }
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn execute_answers_and_caches() {
        let engine = engine(EngineConfig::default());
        let first = engine.execute("rust search").unwrap();
        assert!(!first.cached);
        assert_eq!(first.results.paths(), vec!["b.txt"]);
        assert_eq!(first.generation, 1);
        assert_eq!(first.query, "rust AND search");

        // Different spelling, same canonical query: served from cache.
        let second = engine.execute("RUST AND search").unwrap();
        assert!(second.cached);
        assert_eq!(second.results.paths(), vec!["b.txt"]);
        assert_eq!(engine.cache_counters().hits, 1);
        assert_eq!(engine.stats().query_count(), 2);
    }

    #[test]
    fn batches_answer_like_the_snapshot_evaluator() {
        // One batch over a 2-shard snapshot, every query shape, the batch
        // memo as the boolean backend: each answer equals the plain
        // snapshot evaluation at the same limit (what `dsearch search`
        // prints), scores and all.
        let mut docs = DocTable::new();
        let mut shards = vec![InMemoryIndex::new(), InMemoryIndex::new()];
        for (i, (path, words)) in [
            ("a.txt", &[("rust", 3u32), ("search", 1)][..]),
            ("b.txt", &[("rust", 1), ("search", 4)]),
            ("c.txt", &[("rust", 1), ("parallel", 2)]),
            ("d.txt", &[("search", 1), ("parallel", 1)]),
        ]
        .into_iter()
        .enumerate()
        {
            let id = docs.insert(path);
            shards[i % 2].insert_file_counted(id, words.iter().map(|&(w, tf)| (Term::from(w), tf)));
        }
        let snapshot = IndexSnapshot::from_shards(shards.clone(), docs.clone(), 1);
        let config = EngineConfig { result_limit: 3, ..EngineConfig::default() };
        let engine = QueryEngine::new(IndexSnapshot::from_shards(shards, docs, 1), config).unwrap();
        let raws = ["rust", "rust OR search", "rust search", "par* OR rust", "search NOT rust"];
        let answers = engine.execute_batch(&raws);
        for (raw, answer) in raws.iter().zip(answers) {
            let query = Query::parse(raw).unwrap();
            let (expected, _) = snapshot.evaluate(&query, 3, &snapshot.searcher());
            assert_eq!(*answer.unwrap().results, expected, "query {raw:?}");
        }
    }

    #[test]
    fn parse_errors_are_counted_not_cached() {
        let engine = engine(EngineConfig::default());
        let err = engine.execute("AND").unwrap_err();
        assert!(matches!(err, ServerError::Parse(_)));
        assert!(err.to_string().contains("invalid query"));
        assert_eq!(engine.stats().error_count(), 1);
        assert_eq!(engine.stats().query_count(), 0);
    }

    #[test]
    fn batch_deduplicates_identical_canonical_queries() {
        let engine = engine(EngineConfig::default());
        let raws = ["rust search", "RUST  AND search", "rust", "rust AND search"];
        let responses = engine.execute_batch(&raws);
        assert_eq!(responses.len(), 4);
        for (i, response) in responses.iter().enumerate() {
            let response = response.as_ref().unwrap();
            assert_eq!(response.generation, 1, "slot {i}");
        }
        // Three spellings of "rust AND search" share one evaluation and one
        // result Arc; "rust" is its own evaluation.
        assert!(Arc::ptr_eq(
            &responses[0].as_ref().unwrap().results,
            &responses[1].as_ref().unwrap().results
        ));
        assert!(Arc::ptr_eq(
            &responses[0].as_ref().unwrap().results,
            &responses[3].as_ref().unwrap().results
        ));
        let counters = engine.cache_counters();
        assert_eq!(counters.misses, 2, "one probe per distinct canonical query");
        assert_eq!(counters.hits, 0);
        assert_eq!(engine.stats().dedup_hit_count(), 2);
        assert_eq!(engine.stats().batched_count(), 4);
        assert_eq!(engine.stats().batch_count(), 1);
        assert_eq!(engine.stats().query_count(), 4);
    }

    #[test]
    fn batch_mixes_errors_and_answers_in_order() {
        let engine = engine(EngineConfig::default());
        let responses = engine.execute_batch(&["rust", "AND", "search"]);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].is_ok());
        assert!(matches!(responses[1], Err(ServerError::Parse(_))));
        assert!(responses[2].is_ok());
        assert_eq!(engine.stats().error_count(), 1);
        assert_eq!(engine.stats().query_count(), 2);
    }

    #[test]
    fn batch_results_match_individual_execution() {
        let solo = engine(EngineConfig::default());
        let batched = engine(EngineConfig::default());
        let raws =
            ["rust", "search", "rust search", "java OR rust", "par*", "rust NOT java", "rust"];
        let batch_responses = batched.execute_batch(&raws);
        for (raw, batch_response) in raws.iter().zip(batch_responses) {
            let expected = solo.execute(raw).unwrap();
            let got = batch_response.unwrap();
            assert_eq!(got.results.hits(), expected.results.hits(), "query {raw:?}");
            assert_eq!(got.query, expected.query);
        }
    }

    #[test]
    fn publish_invalidates_via_generation() {
        let engine = engine(EngineConfig::default());
        let before = engine.execute("rust").unwrap();
        assert_eq!(before.generation, 1);
        assert_eq!(before.results.len(), 2);

        // Publish generation 2 with one more rust document.
        let mut docs = DocTable::new();
        let id = docs.insert("d.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file(id, [Term::from("rust")]);
        engine.snapshot_cell().publish(IndexSnapshot::from_index(index, docs, 2));

        let after = engine.execute("rust").unwrap();
        assert_eq!(after.generation, 2);
        assert!(!after.cached, "old generation's cache entry must not serve generation 2");
        assert_eq!(after.results.paths(), vec!["d.txt"]);
        assert!(engine.stats_report().contains("generation=2"));
    }

    #[test]
    fn expired_queries_answer_deadline_exceeded_and_never_cache() {
        let engine = engine(EngineConfig::default());
        // A zero budget is expired by the time the group checkpoint runs.
        let err = engine.execute("@d=0 rust").unwrap_err();
        assert_eq!(err, ServerError::DeadlineExceeded);
        assert!(err.to_string().starts_with("deadline_exceeded"), "{err}");
        assert_eq!(engine.cache_counters().insertions, 0, "dead work must not be cached");
        assert_eq!(
            engine.stats().deadline_exceeded_stage_count(crate::stats::DeadlineStage::Exec),
            1
        );
        // Deadline misses are not errors.
        assert_eq!(engine.stats().error_count(), 0);
        // A generous budget answers normally and caches.
        let ok = engine.execute("@d=60000 rust").unwrap();
        assert_eq!(ok.results.len(), 2);
        assert_eq!(engine.cache_counters().insertions, 1);
    }

    #[test]
    fn cache_hits_still_honor_the_callers_deadline() {
        let engine = engine(EngineConfig::default());
        assert!(engine.execute("rust").is_ok());
        assert_eq!(engine.cache_counters().insertions, 1);
        // The answer is cached, but this caller's budget is already gone: a
        // hit cannot resurrect a dead query.
        let err = engine.execute("@d=0 rust").unwrap_err();
        assert_eq!(err, ServerError::DeadlineExceeded);
    }

    #[test]
    fn default_deadline_applies_to_plain_queries() {
        let engine = engine(EngineConfig {
            default_deadline: Some(Duration::ZERO),
            ..EngineConfig::default()
        });
        assert_eq!(engine.execute("rust").unwrap_err(), ServerError::DeadlineExceeded);
        // An explicit budget overrides the default.
        assert!(engine.execute("@d=60000 rust").is_ok());
    }

    #[test]
    fn mixed_deadline_batch_answers_live_positions_only() {
        let engine = engine(EngineConfig::default());
        let responses = engine.execute_batch(&["@d=0 rust", "rust", "@d=60000 rust"]);
        assert!(matches!(responses[0], Err(ServerError::DeadlineExceeded)));
        assert!(responses[1].is_ok());
        assert!(responses[2].is_ok());
        // The live positions shared one evaluation.
        assert_eq!(engine.stats().dedup_hit_count(), 1);
    }

    #[test]
    fn result_limit_truncates_responses() {
        let engine = engine(EngineConfig { result_limit: 1, ..EngineConfig::default() });
        let response = engine.execute("rust").unwrap();
        assert_eq!(response.results.len(), 1);
    }

    #[test]
    fn worker_pool_serves_concurrent_clients() {
        let engine = engine(EngineConfig { workers: 4, ..EngineConfig::default() });
        let pool = Arc::new(WorkerPool::start(Arc::clone(&engine)));
        assert_eq!(pool.worker_count(), 4);

        let mut clients = Vec::new();
        for t in 0..6 {
            let pool = Arc::clone(&pool);
            clients.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let raw = if (t + i) % 2 == 0 { "rust" } else { "search" };
                    let response = pool.execute(raw).unwrap();
                    assert!(!response.results.is_empty());
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(pool.queue_depth(), 0);
        let pool = Arc::try_unwrap(pool).ok().expect("all clients done");
        assert_eq!(pool.shutdown(), 300);
        assert_eq!(engine.stats().query_count(), 300);
        // Every query either probed the cache once (hit or miss) or
        // piggybacked on an identical query in its batch.
        let counters = engine.cache_counters();
        assert_eq!(counters.hits + counters.misses + engine.stats().dedup_hit_count(), 300);
        // 2 distinct queries × 1 generation: only the first evaluations can
        // miss (racing workers may each miss once).
        assert!(counters.misses >= 2, "{counters:?}");
        assert!(counters.misses <= 2 * engine.config().workers as u64, "{counters:?}");
    }

    #[test]
    fn bounded_pool_sheds_when_overfilled() {
        // One worker, queue bound 1, reject-new: with the worker wedged on a
        // first query, at most 1 more fits; further submissions shed.
        let engine = engine(EngineConfig {
            workers: 1,
            cache_capacity: 1,
            batch: BatchConfig {
                max_batch: 1,
                queue_bound: 1,
                overload: OverloadPolicy::RejectNew,
                ..BatchConfig::default()
            },
            ..EngineConfig::default()
        });
        let pool = WorkerPool::start(Arc::clone(&engine));
        // Saturate: submit faster than the single worker can possibly drain
        // by never waiting, with every query distinct so none is a cheap
        // cache hit.  At least one submission must shed once the queue holds
        // `queue_bound` jobs.
        let mut pendings = Vec::new();
        let mut shed = 0;
        for i in 0..200 {
            match pool.submit(format!("par* OR rust q{i}")) {
                Ok(pending) => pendings.push(pending),
                Err(ServerError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "200 instant submissions through a depth-1 queue never shed");
        assert_eq!(engine.stats().shed_count(), shed);
        for pending in pendings {
            pending.wait().unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_fails_cleanly() {
        let engine = engine(EngineConfig { workers: 1, ..EngineConfig::default() });
        let pool = WorkerPool::start(engine);
        let pending = pool.submit("rust").unwrap();
        assert!(pending.wait().is_ok());
        let served = pool.shutdown();
        assert_eq!(served, 1);
    }
}
