//! The answer checker: every TCP reply is compared with an in-process
//! reference over the same stores — a [`QueryEngine`] for `serve`, a
//! [`Router`] over [`LocalShards`] with the same shard split for `route`.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use dsearch::persist::IndexStore;
use dsearch::query::Query;
use dsearch::server::protocol::parse_hit_line;
use dsearch::server::{
    EngineConfig, IndexSnapshot, LocalShards, QueryEngine, Router, RouterConfig, ShardBackend,
};

/// One expected hit: path, matched terms, score bits.
pub type ExpectedHit = (String, usize, u32);

/// The in-process reference for one served topology.
pub enum Reference {
    Serve(Arc<QueryEngine>),
    Route(Arc<Router>),
}

/// Loads a store as the serving path does (generation 1).
pub fn load_snapshot(store: &Path) -> Result<IndexSnapshot, String> {
    let store = IndexStore::open(store).map_err(|e| format!("open {}: {e}", store.display()))?;
    IndexSnapshot::load(&store, 1).map_err(|e| format!("load {}: {e}", store.root().display()))
}

fn engine(store: &Path) -> Result<Arc<QueryEngine>, String> {
    QueryEngine::new(load_snapshot(store)?, EngineConfig::default()).map_err(|e| e.to_string())
}

/// A `Router` over one in-process shard: what `dsearch route` in front of a
/// `serve` of `store` must answer.
pub fn router(store: &Path) -> Result<Arc<Router>, String> {
    let backends: Vec<Box<dyn ShardBackend>> = vec![Box::new(LocalShards::new(engine(store)?))];
    Router::new(backends, RouterConfig::default()).map_err(|e| e.to_string())
}

impl Reference {
    /// The reference for `serve` over `store`.
    pub fn serve(store: &Path) -> Result<Reference, String> {
        Ok(Reference::Serve(engine(store)?))
    }

    /// The hits the served topology must answer for `raw`.
    pub fn expect(&self, raw: &str) -> Result<Vec<ExpectedHit>, String> {
        match self {
            Reference::Serve(engine) => {
                let response = engine.execute(raw).map_err(|e| e.to_string())?;
                Ok(response
                    .results
                    .hits()
                    .iter()
                    .map(|h| (h.path.to_string(), h.matched_terms, h.score.to_bits()))
                    .collect())
            }
            Reference::Route(router) => {
                let response = router.route(raw).map_err(|e| e.to_string())?;
                if response.partial() {
                    return Err(format!("reference answer for {raw:?} is partial"));
                }
                Ok(response
                    .hits
                    .iter()
                    .map(|h| (h.path.to_string(), h.matched_terms, h.score.to_bits()))
                    .collect())
            }
        }
    }
}

/// How one reply is judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Good,
    /// The request's own `@d=` budget ran out (a saturation-slice miss).
    Deadline,
    /// ERR, refused, partial or wrong.
    Failed(String),
}

/// A reply's `generation=` field (single-store servers only).
pub fn generation(reply: &str) -> Option<u64> {
    let status = reply.lines().next()?;
    status.split_whitespace().find_map(|f| f.strip_prefix("generation=")?.parse().ok())
}

/// A reply's `micros=` field: the server's own service time.
pub fn micros(reply: &str) -> Option<u64> {
    let status = reply.lines().next()?;
    status.split_whitespace().find_map(|f| f.strip_prefix("micros=")?.parse().ok())
}

/// Judges one reply (status line + body, no `END`) against `expected`.
pub fn judge(reply: &str, expected: &[ExpectedHit]) -> Verdict {
    let mut lines = reply.lines();
    let status = lines.next().unwrap_or_default();
    if let Some(err) = status.strip_prefix("ERR ") {
        if err.starts_with("deadline_exceeded") {
            return Verdict::Deadline;
        }
        return Verdict::Failed(format!("ERR {err}"));
    }
    let Some(rest) = status.strip_prefix("OK ") else {
        return Verdict::Failed(format!("malformed status {status:?}"));
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.contains(&"partial=true") {
        if fields.contains(&"deadline=exceeded") {
            return Verdict::Deadline;
        }
        return Verdict::Failed("partial answer".into());
    }
    let count: usize = fields.first().and_then(|n| n.parse().ok()).unwrap_or(usize::MAX);
    let hits: Vec<ExpectedHit> = lines
        .filter(|l| !l.starts_with('#'))
        .filter_map(parse_hit_line)
        .map(|h| (h.path.to_string(), h.matched_terms, h.score.to_bits()))
        .collect();
    if count != expected.len() || hits != expected {
        return Verdict::Failed(format!(
            "wrong answer: {count} hits {:?} vs expected {} {:?}",
            hits.first(),
            expected.len(),
            expected.first()
        ));
    }
    Verdict::Good
}

/// Boolean match sets of `probes` over one store (BM25 statistics are per
/// segment, so stores of different drivers agree on matches, not scores).
pub fn match_sets(store: &Path, probes: &[String]) -> Result<Vec<BTreeSet<String>>, String> {
    let snapshot = load_snapshot(store)?;
    probes
        .iter()
        .map(|raw| {
            let query = Query::parse(raw).map_err(|e| format!("probe {raw:?}: {e}"))?;
            Ok(snapshot.search(&query).hits().iter().map(|h| h.path.to_string()).collect())
        })
        .collect()
}
