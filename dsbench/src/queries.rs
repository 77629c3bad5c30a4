//! Seeded query sets drawn from a store's own vocabulary.

use std::collections::{BTreeMap, HashSet};

use dsearch::server::IndexSnapshot;

/// SplitMix64: a small deterministic generator for inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The shape of a workload's queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Mixed shapes over mid-frequency terms (the build check's probes).
    Probe,
    /// Zipf-skewed term/OR/AND/prefix/NOT queries on frequent terms, with
    /// several times more distinct queries than the result cache.
    Ranked,
    /// A small hot set that fits the cache.
    Hot,
}

/// The query kinds, in the order per-kind metrics report them.
pub const KINDS: [&str; 5] = ["term", "or", "and", "prefix", "not"];

/// A workload's distinct queries and how the stream draws from them.
pub struct QuerySet {
    pub texts: Vec<String>,
    /// Index into [`KINDS`] per text.
    pub kinds: Vec<usize>,
    /// Zipf exponent of the stream over `texts` (0: uniform).
    pub skew: f64,
}

/// `(term, document frequency)` over every shard, most frequent first
/// (ties by term, so the order repeats exactly).
pub fn vocabulary(snapshots: &[&IndexSnapshot]) -> Vec<(String, usize)> {
    let mut df: BTreeMap<String, usize> = BTreeMap::new();
    for snapshot in snapshots {
        for (term, n) in snapshot.terms() {
            *df.entry(term).or_default() += n;
        }
    }
    let mut vocab: Vec<(String, usize)> =
        df.into_iter().filter(|(t, _)| t.chars().all(|c| c.is_ascii_lowercase())).collect();
    vocab.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    vocab
}

/// Builds the distinct query set of `mix` from `vocab` with `seed`.
pub fn build(mix: Mix, vocab: &[(String, usize)], seed: u64) -> QuerySet {
    let mut rng = Rng::new(seed);
    let frequent = &vocab[..vocab.len().min(4000)];
    let zipf = Zipf::new(frequent.len(), 1.0);
    let mid = &vocab[vocab.len().min(200)..vocab.len().min(3000)];
    let (target, skew) = match mix {
        Mix::Probe => (256, 0.0),
        Mix::Ranked => (16_384, 0.9),
        Mix::Hot => (64, 0.0),
    };
    let mut seen = HashSet::new();
    let mut set = QuerySet { texts: Vec::new(), kinds: Vec::new(), skew };
    let mut attempts = 0;
    while set.texts.len() < target && attempts < target * 20 {
        attempts += 1;
        let (kind, text) = match mix {
            Mix::Ranked => {
                let mut pick = |rng: &mut Rng| frequent[zipf.sample(rng)].0.clone();
                shaped(&mut rng, &mut pick, [30, 25, 20, 15, 10])
            }
            Mix::Probe | Mix::Hot => {
                let pool = if mix == Mix::Hot { frequent } else { mid };
                let mut pick = |rng: &mut Rng| pool[rng.below(pool.len())].0.clone();
                shaped(&mut rng, &mut pick, [30, 25, 25, 10, 10])
            }
        };
        if seen.insert(text.clone()) {
            set.texts.push(text);
            set.kinds.push(kind);
        }
    }
    set
}

/// One query of a shape drawn with `weights` (per [`KINDS`]).
fn shaped(
    rng: &mut Rng,
    pick: &mut dyn FnMut(&mut Rng) -> String,
    weights: [usize; 5],
) -> (usize, String) {
    let total: usize = weights.iter().sum();
    let mut roll = rng.below(total);
    let mut kind = 0;
    while roll >= weights[kind] {
        roll -= weights[kind];
        kind += 1;
    }
    let text = match kind {
        0 => pick(rng),
        1 => {
            let n = 2 + rng.below(2);
            (0..n).map(|_| pick(rng)).collect::<Vec<_>>().join(" OR ")
        }
        2 => format!("{} AND {}", pick(rng), pick(rng)),
        3 => {
            let term = pick(rng);
            let keep = term.len().min(3 + rng.below(2));
            format!("{}*", &term[..keep])
        }
        _ => format!("{} NOT {}", pick(rng), pick(rng)),
    };
    (kind, text)
}

/// The request stream: `count` draws over the set (Zipf-skewed or uniform).
pub fn stream(set: &QuerySet, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5eed);
    if set.skew > 0.0 {
        let zipf = Zipf::new(set.texts.len(), set.skew);
        // Shuffle rank → text so popularity does not follow build order.
        let mut order: Vec<usize> = (0..set.texts.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        (0..count).map(|_| order[zipf.sample(&mut rng)]).collect()
    } else {
        (0..count).map(|_| rng.below(set.texts.len())).collect()
    }
}

/// Share of requests in `stream` that repeat an earlier one.
pub fn repeat_share(stream: &[usize]) -> f64 {
    let distinct: HashSet<usize> = stream.iter().copied().collect();
    1.0 - distinct.len() as f64 / stream.len().max(1) as f64
}
