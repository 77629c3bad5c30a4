//! Query evaluation over sealed shards.
//!
//! [`SealedSearcher`] is the one boolean evaluator every front end uses: it
//! searches a slice of [`SealedShard`]s (one shard for a joined index, one
//! per replica for Implementation 3's un-joined replicas — the "search can
//! work with multiple indices" future work the paper sketches) through
//! their [`DocTable`].  [`evaluate`] is the one answer rule on top of it:
//! BM25 top-k when the query is scorable, this boolean evaluator otherwise.
//!
//! # The cursor evaluation path
//!
//! [`SearchBackend::postings`] returns a [`Postings`] — a zero-copy borrow of
//! one shard's block-compressed list whenever one shard answers,
//! materialised only when several shards or prefix-matched terms had to be
//! merged.  The default [`SearchBackend::search`] evaluates each `AND` group
//! over [`PostingsCursor`]s:
//!
//! 1. every required term's postings are fetched (a group with any unknown
//!    term is dead and skipped outright);
//! 2. the lists are ordered by ascending length, so the intermediate result
//!    can never exceed the rarest term's list (selectivity ordering);
//! 3. intersections run through [`intersect_cursors_into`]: two uncompressed
//!    lists take the tuned slice path (linear merge or gallop), while any
//!    compressed operand leapfrogs by `seek`, skipping whole blocks of the
//!    longer list via its skip table without decoding them;
//! 4. `NOT` terms are subtracted the same way via
//!    [`difference_cursors_into`];
//! 5. everything writes into one pair of scratch buffers reused across every
//!    operator of the query.
//!
//! A single-term group decodes its compressed list exactly once, straight
//! into the scratch buffer (a merged list is read in place).

use dsearch_index::{
    difference_cursors_into, intersect_cursors_into, DocTable, FileId, PostingCursor, Postings,
    PostingsCursor, SealedShard, SliceCursor,
};
use dsearch_text::Term;

use crate::query::{Query, QueryTerm};
use crate::results::{Hit, SearchResults};
use crate::topk::{search_topk, PruneStats};

/// When the rarest required list of an `AND` group has at most this many ids,
/// skip the generic leapfrog/scratch-swap machinery: copy the tiny list once
/// and probe each remaining list with a single forward-only `seek` per id.
/// The generic path costs two cursor setups plus a buffer swap per operator,
/// which dominates sub-microsecond queries (the PR 4 `1 ∩ 20k` regression).
const TINY_AND: usize = 4;

/// Anything queries can be evaluated against.
pub trait SearchBackend {
    /// The posting list for one term (empty when the term is unknown).
    ///
    /// Implementations should borrow from their underlying index whenever
    /// they can — [`Postings::Owned`] is for lookups that had to merge.
    fn postings(&self, term: &Term) -> Postings<'_>;

    /// The union of the posting lists of every indexed term starting with
    /// `prefix` (used for `word*` queries).
    fn prefix_postings(&self, prefix: &str) -> Postings<'_>;

    /// The path registered for a file id.
    fn path_of(&self, id: FileId) -> Option<&str>;

    /// Cooperative cancellation checkpoint, consulted by the default
    /// evaluator between query groups and between posting-cursor operator
    /// passes.  A backend with a deadline returns `true` to stop evaluation
    /// mid-flight (a huge `OR` over cold postings must not run to completion
    /// after its budget is gone); the partial result it yields is the
    /// caller's to discard.  The default never cancels.
    fn should_cancel(&self) -> bool {
        false
    }

    /// Evaluates a query, producing ranked results.
    fn search(&self, query: &Query) -> SearchResults {
        let hits = self
            .matched_ids(query)
            .into_iter()
            .map(|(id, matched_terms)| Hit {
                file_id: id,
                path: self.path_of(id).map_or_else(|| "<unknown>".into(), std::sync::Arc::from),
                matched_terms,
                score: 0.0,
            })
            .collect();
        SearchResults::new(hits)
    }

    /// Boolean query evaluation: the deduplicated matching file ids, sorted
    /// ascending, each with the matched-term count of its best `OR` group.
    /// This is the engine under [`SearchBackend::search`]; the BM25 scorer
    /// reuses it to enumerate candidates without materialising paths.
    fn matched_ids(&self, query: &Query) -> Vec<(FileId, usize)> {
        let mut matched: Vec<(FileId, usize)> = Vec::new();
        // One pair of scratch buffers, reused by every AND/NOT operator of
        // every group; `acc` holds the running result once an operator ran.
        let mut acc: Vec<FileId> = Vec::new();
        let mut next: Vec<FileId> = Vec::new();
        'groups: for group in query.groups() {
            if self.should_cancel() {
                break 'groups;
            }
            // Fetch all required lists up front; any empty list kills the
            // whole conjunction before a single merge step runs.
            let mut lists: Vec<Postings<'_>> = Vec::with_capacity(group.required().len());
            let mut dead = false;
            for term in group.required() {
                let postings = match term {
                    QueryTerm::Exact(term) => self.postings(term),
                    QueryTerm::Prefix(prefix) => self.prefix_postings(prefix),
                };
                if postings.is_empty() {
                    dead = true;
                    break;
                }
                lists.push(postings);
            }
            if dead || lists.is_empty() {
                continue;
            }
            // Selectivity ordering: intersect smallest-first so every
            // intermediate result is bounded by the rarest term's list.
            lists.sort_by_key(Postings::len);

            // `in_scratch` tracks whether the running result lives in `acc`
            // or is still the (borrowed, undecoded) smallest input list.
            let mut in_scratch = false;
            if lists.len() >= 2 && lists[0].len() <= TINY_AND {
                // Tiny-slice fast path: the rarest list bounds the result to
                // a handful of ids, so probe each other list directly —
                // `acc` ids ascend, so one cursor per list seeks forward.
                lists[0].copy_into(&mut acc);
                in_scratch = true;
                for postings in lists.iter().skip(1) {
                    if acc.is_empty() {
                        break;
                    }
                    let mut cursor = postings.cursor();
                    acc.retain(|&id| cursor.seek(id) == Some(id));
                }
            } else {
                for postings in lists.iter().skip(1) {
                    // Each pass is a full posting-cursor sweep: check the
                    // budget between them so a long conjunction stops as
                    // soon as it is dead work.
                    if self.should_cancel() {
                        break 'groups;
                    }
                    let current = if in_scratch {
                        PostingsCursor::Slice(SliceCursor::new(&acc))
                    } else {
                        lists[0].cursor()
                    };
                    intersect_cursors_into(current, postings.cursor(), &mut next);
                    std::mem::swap(&mut acc, &mut next);
                    in_scratch = true;
                    if acc.is_empty() {
                        break;
                    }
                }
            }
            // NOT terms: subtract the postings of every excluded term.
            for term in group.excluded() {
                if in_scratch && acc.is_empty() {
                    break;
                }
                if self.should_cancel() {
                    break 'groups;
                }
                let excluded = self.postings(term);
                if excluded.is_empty() {
                    continue;
                }
                let current = if in_scratch {
                    PostingsCursor::Slice(SliceCursor::new(&acc))
                } else {
                    lists[0].cursor()
                };
                difference_cursors_into(current, excluded.cursor(), &mut next);
                std::mem::swap(&mut acc, &mut next);
                in_scratch = true;
            }
            if !in_scratch {
                // Single required term, no operator ran.  A merged list is
                // read in place; a compressed list decodes exactly once into
                // the reused scratch buffer.
                match lists[0].try_view() {
                    Some(view) => {
                        matched.extend(view.iter().map(|id| (id, group.len())));
                        continue;
                    }
                    None => lists[0].copy_into(&mut acc),
                }
            }
            matched.extend(acc.iter().map(|&id| (id, group.len())));
        }
        // A document matching several OR groups keeps its best (highest
        // matched-term) group.
        matched.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
        matched.dedup_by_key(|(id, _)| *id);
        matched
    }
}

/// The boolean evaluator over sealed shards plus the doc table naming their
/// file ids.  Lookups union the shards' lists: a term one shard knows stays a
/// zero-copy `Postings::Compressed` borrow, and only genuine cross-shard
/// overlap merges (and therefore decodes).
#[derive(Debug, Clone, Copy)]
pub struct SealedSearcher<'a> {
    shards: &'a [SealedShard],
    docs: &'a DocTable,
}

impl<'a> SealedSearcher<'a> {
    /// Creates a searcher over `shards` with paths resolved through `docs`.
    #[must_use]
    pub fn new(shards: &'a [SealedShard], docs: &'a DocTable) -> Self {
        SealedSearcher { shards, docs }
    }

    /// The posting list for one exact term across every shard (empty when
    /// the term is unknown), borrowed for as long as the shards are.
    #[must_use]
    pub fn term_postings(&self, term: &Term) -> Postings<'a> {
        Postings::union_of_compressed(
            self.shards.iter().filter_map(|shard| shard.postings(term)).collect(),
        )
    }

    /// The union of the posting lists of every term starting with `prefix`,
    /// across every shard.  Each shard resolves the prefix to a contiguous
    /// dictionary range; the union streams through block cursors, decoding
    /// each block exactly once.
    #[must_use]
    pub fn prefix_postings(&self, prefix: &str) -> Postings<'a> {
        Postings::union_of_compressed(
            self.shards.iter().flat_map(|shard| shard.prefix_postings(prefix)).collect(),
        )
    }
}

impl SearchBackend for SealedSearcher<'_> {
    fn postings(&self, term: &Term) -> Postings<'_> {
        self.term_postings(term)
    }

    fn prefix_postings(&self, prefix: &str) -> Postings<'_> {
        // The inherent lookup above (inherent methods win over the trait's).
        SealedSearcher::prefix_postings(self, prefix)
    }

    fn path_of(&self, id: FileId) -> Option<&str> {
        self.docs.path(id)
    }
}

/// Answers `query` the way every `dsearch` front end does: BM25-scored top
/// `limit` with block-max pruning when the query is scorable, otherwise the
/// boolean evaluation of `boolean` (prefix terms and exclusions rank by
/// matched terms, then path); either way truncated to `limit`.
///
/// `boolean` must search the same `shards` — [`SealedSearcher`] over them,
/// or a memo in front of it such as a serving batch's posting cache — and its
/// [`SearchBackend::should_cancel`] is the deadline both paths poll.  The
/// pruning counters come back for ranked answers, `None` for boolean ones.
#[must_use]
pub fn evaluate(
    shards: &[SealedShard],
    docs: &DocTable,
    query: &Query,
    limit: usize,
    boolean: &dyn SearchBackend,
) -> (SearchResults, Option<PruneStats>) {
    let (mut results, prune) =
        match search_topk(shards, docs, query, limit, &|| boolean.should_cancel()) {
            Some((results, prune)) => (results, Some(prune)),
            None => (boolean.search(query), None),
        };
    results.truncate(limit);
    (results, prune)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_index::InMemoryIndex;
    use proptest::prelude::*;

    /// One document collection sealed two ways: as one joined shard and as
    /// three un-joined replica shards.
    struct Fixture {
        joined: Vec<SealedShard>,
        replicas: Vec<SealedShard>,
        docs: DocTable,
        index: InMemoryIndex,
    }

    impl Fixture {
        fn single(&self) -> SealedSearcher<'_> {
            SealedSearcher::new(&self.joined, &self.docs)
        }

        fn multi(&self) -> SealedSearcher<'_> {
            SealedSearcher::new(&self.replicas, &self.docs)
        }
    }

    fn fixture() -> Fixture {
        let docs_content: &[(&str, &[&str])] = &[
            ("a.txt", &["rust", "parallel", "index"]),
            ("b.txt", &["rust", "search"]),
            ("c.txt", &["java", "search", "index"]),
            ("d.txt", &["rust", "java"]),
            ("e.txt", &["parallel", "search", "rust"]),
        ];
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        let mut replicas: Vec<InMemoryIndex> = (0..3).map(|_| InMemoryIndex::new()).collect();
        for (i, (path, words)) in docs_content.iter().enumerate() {
            let id = docs.insert(*path);
            let terms: Vec<Term> = words.iter().map(|w| Term::from(*w)).collect();
            index.insert_file(id, terms.clone());
            replicas[i % 3].insert_file(id, terms);
        }
        Fixture {
            joined: vec![SealedShard::from_index(&index)],
            replicas: replicas.iter().map(SealedShard::from_index).collect(),
            docs,
            index,
        }
    }

    fn search(searcher: SealedSearcher<'_>, raw: &str) -> SearchResults {
        searcher.search(&Query::parse(raw).unwrap())
    }

    #[test]
    fn single_term_query() {
        let f = fixture();
        let results = search(f.single(), "rust");
        assert_eq!(results.len(), 4);
        assert!(results.paths().contains(&"a.txt"));
        assert!(!results.paths().contains(&"c.txt"));
    }

    #[test]
    fn exact_term_lookup_is_borrowed() {
        let f = fixture();
        // Known term in one shard: a borrow of its compressed list.
        assert!(matches!(f.single().postings(&Term::from("rust")), Postings::Compressed(_)));
        // Unknown term: empty, without allocating.
        assert!(f.single().postings(&Term::from("cobol")).is_empty());
        // A term one replica knows stays borrowed; a term several replicas
        // know is merged.
        let lone = SealedSearcher::new(&f.replicas[2..], &f.docs);
        assert!(matches!(lone.term_postings(&Term::from("java")), Postings::Compressed(_)));
        let merged = f.multi().term_postings(&Term::from("rust"));
        assert!(matches!(merged, Postings::Owned(_)));
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn and_query_intersects() {
        let f = fixture();
        assert_eq!(search(f.single(), "rust search").paths(), vec!["b.txt", "e.txt"]);
    }

    #[test]
    fn or_query_unions_and_ranks_by_matched_terms() {
        let f = fixture();
        let results = search(f.single(), "rust parallel OR java");
        // a.txt and e.txt match both terms of the first group (2 matched
        // terms); c.txt and d.txt match "java" (1 matched term).
        assert_eq!(results.len(), 4);
        assert_eq!(results.hits()[0].matched_terms, 2);
        assert!(results.paths()[..2].contains(&"a.txt"));
        assert!(results.paths()[..2].contains(&"e.txt"));
    }

    #[test]
    fn unknown_terms_produce_no_hits() {
        let f = fixture();
        assert!(search(f.single(), "nonexistent").is_empty());
        assert!(search(f.single(), "rust nonexistent").is_empty());
    }

    #[test]
    fn multi_index_matches_single_index() {
        let f = fixture();
        assert_eq!(f.replicas.len(), 3);
        for raw in [
            "rust",
            "rust search",
            "index OR java",
            "parallel rust OR java search",
            "rust java index OR search",
            "ja* OR par*",
            "rust NOT java",
        ] {
            assert_eq!(search(f.multi(), raw), search(f.single(), raw), "query {raw:?}");
        }
    }

    #[test]
    fn not_terms_exclude_documents() {
        let f = fixture();
        // All rust documents except the ones also mentioning java.
        let results = search(f.single(), "rust NOT java");
        assert_eq!(results.paths(), vec!["a.txt", "b.txt", "e.txt"]);
        // Dash syntax and the multi-shard searcher agree.
        assert_eq!(search(f.multi(), "rust -java"), results);
        // Excluding a term that never occurs changes nothing.
        assert_eq!(search(f.single(), "rust NOT cobol").len(), 4);
        // Subtracting down to nothing short-circuits later exclusions.
        assert!(search(f.single(), "java NOT java NOT rust").is_empty());
    }

    #[test]
    fn prefix_queries_expand_over_index_terms() {
        let f = fixture();
        // "ja*" matches "java"; "par*" matches "parallel".
        assert_eq!(search(f.single(), "ja*").paths(), vec!["c.txt", "d.txt"]);
        assert_eq!(search(f.single(), "par* search").paths(), vec!["e.txt"]);
        // Prefix matching nothing yields no hits.
        assert!(search(f.single(), "zz*").is_empty());
        // Multi-shard prefix expansion covers every shard.
        assert_eq!(search(f.multi(), "ja*"), search(f.single(), "ja*"));
        assert_eq!(search(f.multi(), "in*").len(), 2);
    }

    /// Naive reference: set operations over the unsealed index.
    fn reference(index: &InMemoryIndex, query: &Query) -> Vec<(FileId, usize)> {
        use std::collections::BTreeMap;
        let ids = |term: &QueryTerm| -> Vec<FileId> {
            let mut ids: Vec<FileId> = match term {
                QueryTerm::Exact(t) => index.postings(t).map(|l| l.doc_ids().to_vec()),
                QueryTerm::Prefix(p) => {
                    Some(index.prefix_lists(p).iter().flat_map(|l| l.doc_ids().to_vec()).collect())
                }
            }
            .unwrap_or_default();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let mut best: BTreeMap<FileId, usize> = BTreeMap::new();
        for group in query.groups() {
            let mut required = group.required().iter();
            let Some(first) = required.next() else { continue };
            let mut acc = ids(first);
            for term in required {
                let other = ids(term);
                acc.retain(|id| other.contains(id));
            }
            for term in group.excluded() {
                acc.retain(|id| !index.postings(term).is_some_and(|l| l.doc_ids().contains(id)));
            }
            for id in acc {
                let entry = best.entry(id).or_insert(0);
                *entry = (*entry).max(group.len());
            }
        }
        best.into_iter().collect()
    }

    #[test]
    fn sealed_dictionary_does_not_change_results() {
        let f = fixture();
        for raw in ["rust", "rust search", "ja* OR par*", "inde*", "rust NOT java", "s* r* OR p*"] {
            let query = Query::parse(raw).unwrap();
            let expected = reference(&f.index, &query);
            assert_eq!(f.single().matched_ids(&query), expected, "single, query {raw:?}");
            assert_eq!(f.multi().matched_ids(&query), expected, "multi, query {raw:?}");
        }
    }

    #[test]
    fn duplicate_document_across_or_groups_is_reported_once() {
        let f = fixture();
        // b.txt matches both groups.
        for searcher in [f.single(), f.multi()] {
            let results = search(searcher, "rust OR search");
            assert_eq!(results.paths().iter().filter(|p| **p == "b.txt").count(), 1);
            assert_eq!(results.len(), 5);
        }
    }

    #[test]
    fn tiny_and_fast_path_matches_generic_intersection() {
        // One rare term (1–3 postings) against mid/common terms: the rare
        // side takes the TINY_AND seek path, and widening it past TINY_AND
        // exercises the generic leapfrog on the same corpus for comparison.
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for d in 0..500u32 {
            let id = docs.insert(format!("doc{d:04}.txt"));
            let mut words = vec![Term::from("common")];
            if d % 2 == 0 {
                words.push(Term::from("even"));
            }
            if d % 181 == 0 {
                words.push(Term::from("rare"));
            }
            if d % 31 == 0 {
                words.push(Term::from("mid"));
            }
            index.insert_file(id, words);
        }
        let shards = [SealedShard::from_index(&index)];
        let searcher = SealedSearcher::new(&shards, &docs);
        // rare: docs 0, 181, 362 → 3 ids ≤ TINY_AND; rare∩even = 0, 362.
        let results = search(searcher, "rare even common");
        assert_eq!(results.paths(), vec!["doc0000.txt", "doc0362.txt"]);
        // A NOT after the tiny path still subtracts from the scratch result.
        assert_eq!(search(searcher, "rare even NOT mid").paths(), vec!["doc0362.txt"]);
        // mid (17 ids) ∩ even goes through the generic path; cross-check a
        // shared document against the tiny-path result above.
        let generic = search(searcher, "mid even common");
        assert!(generic.paths().contains(&"doc0000.txt"));
        assert_eq!(generic.len(), 9, "mid ∩ even: d % 62 == 0");
    }

    #[test]
    fn cancellation_stops_evaluation_between_groups() {
        use std::cell::Cell;
        struct CancellingSearcher<'a> {
            inner: SealedSearcher<'a>,
            budget: Cell<usize>,
        }
        impl SearchBackend for CancellingSearcher<'_> {
            fn postings(&self, term: &Term) -> Postings<'_> {
                self.inner.term_postings(term)
            }
            fn prefix_postings(&self, prefix: &str) -> Postings<'_> {
                self.inner.prefix_postings(prefix)
            }
            fn path_of(&self, id: FileId) -> Option<&str> {
                self.inner.docs.path(id)
            }
            fn should_cancel(&self) -> bool {
                let left = self.budget.get();
                if left == 0 {
                    return true;
                }
                self.budget.set(left - 1);
                false
            }
        }
        let f = fixture();
        let query = Query::parse("rust OR java").unwrap();
        // Budget 0: cancelled before the first group, nothing evaluates.
        let searcher = CancellingSearcher { inner: f.single(), budget: Cell::new(0) };
        assert!(searcher.search(&query).is_empty());
        // Budget 1: the first OR group evaluates, the second is cut off —
        // the caller sees a strict subset it knows to discard.
        let searcher = CancellingSearcher { inner: f.single(), budget: Cell::new(1) };
        assert_eq!(searcher.search(&query).len(), 4, "only the rust group ran");
        // A backend that never cancels is unaffected.
        assert_eq!(f.single().search(&query).len(), 5);
        // The ranked path polls the same checkpoint: a cancelled evaluation
        // returns nothing for the caller to serve.
        let searcher = CancellingSearcher { inner: f.single(), budget: Cell::new(0) };
        let (results, prune) = evaluate(&f.joined, &f.docs, &query, 10, &searcher);
        assert!(results.is_empty());
        assert!(prune.is_some());
    }

    #[test]
    fn path_of_unknown_id_is_placeholder() {
        let f = fixture();
        let empty_docs = DocTable::new();
        let searcher = SealedSearcher::new(&f.joined, &empty_docs);
        // Boolean and ranked evaluation name unknown ids the same way.
        let results = search(searcher, "rust");
        assert!(results.hits().iter().all(|h| &*h.path == "<unknown>"));
        let query = Query::parse("rust").unwrap();
        let (ranked, _) = evaluate(&f.joined, &empty_docs, &query, 10, &searcher);
        assert!(ranked.hits().iter().all(|h| &*h.path == "<unknown>"));
    }

    #[test]
    fn evaluate_ranks_scorable_queries_and_falls_back_for_prefix_and_not() {
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        for (path, words) in [
            ("a.txt", &[("rust", 3u32), ("search", 1)][..]),
            ("b.txt", &[("rust", 1), ("search", 4)]),
            ("c.txt", &[("rust", 1), ("parallel", 1)]),
        ] {
            let id = docs.insert(path);
            index.insert_file_counted(id, words.iter().map(|&(w, tf)| (Term::from(w), tf)));
        }
        let shards = [SealedShard::from_index(&index)];
        let searcher = SealedSearcher::new(&shards, &docs);
        let answer = |raw: &str, limit: usize| {
            evaluate(&shards, &docs, &Query::parse(raw).unwrap(), limit, &searcher)
        };
        // Scorable: BM25 order, scores on every hit, pruning counters back.
        let (ranked, prune) = answer("rust OR search", 20);
        assert_eq!(ranked.paths(), vec!["b.txt", "a.txt", "c.txt"]);
        assert!(ranked.hits().iter().all(|h| h.score > 0.0));
        assert!(prune.is_some());
        // The limit bounds the heap: top-2 is the prefix of the full order.
        let (top2, _) = answer("rust OR search", 2);
        assert_eq!(top2.paths(), vec!["b.txt", "a.txt"]);
        // Prefix and NOT: the boolean evaluator, matched terms then path.
        let (prefix, prune) = answer("ru* OR search", 20);
        assert!(prune.is_none());
        assert_eq!(prefix.paths(), vec!["a.txt", "b.txt", "c.txt"]);
        assert!(prefix.hits().iter().all(|h| h.score == 0.0));
        let (not, _) = answer("rust NOT parallel", 1);
        assert_eq!(not.paths(), vec!["a.txt"]);
    }

    /// Query and corpus vocabulary: the later words are rare (see the
    /// skewed pick below), so single-posting terms and lists confined to
    /// one shard occur often.
    const WORDS: &[&str] = &["a", "b", "ab", "ba", "c", "cd", "d", "abc", "e", "ef", "f", "bad"];

    proptest! {
        /// For random corpora split across 1–3 shards and random queries of
        /// every shape, the sealed evaluator matches the naive reference over
        /// the joined index, and the front-end answer rule returns exactly
        /// that match set when unlimited (ranked or not).
        #[test]
        fn sealed_searcher_matches_reference_on_random_shardings(
            corpus in proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..12), 1..6),
                1..24,
            ),
            shard_count in 1usize..4,
            groups in proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..3), 1..4),
                1..4,
            ),
        ) {
            let mut docs = DocTable::new();
            let mut joined = InMemoryIndex::new();
            let mut parts: Vec<InMemoryIndex> =
                (0..shard_count).map(|_| InMemoryIndex::new()).collect();
            for (i, words) in corpus.iter().enumerate() {
                let id = docs.insert(format!("doc{i:02}.txt"));
                let mut terms: Vec<Term> =
                    words.iter().map(|&(x, y)| Term::from(WORDS[x.min(y)])).collect();
                terms.sort();
                terms.dedup();
                joined.insert_file(id, terms.clone());
                parts[i % shard_count].insert_file(id, terms);
            }
            let shards: Vec<SealedShard> = parts.iter().map(SealedShard::from_index).collect();
            let searcher = SealedSearcher::new(&shards, &docs);

            // Kind 0: exact term, 1: prefix of its first letter, 2: NOT (never
            // a group's first term, which must be required).
            let raw = groups
                .iter()
                .map(|group| {
                    group
                        .iter()
                        .enumerate()
                        .map(|(i, &(w, kind))| match kind {
                            1 => format!("{}*", &WORDS[w][..1]),
                            2 if i > 0 => format!("NOT {}", WORDS[w]),
                            _ => WORDS[w].to_owned(),
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect::<Vec<_>>()
                .join(" OR ");
            let query = Query::parse(&raw).unwrap();
            let expected = reference(&joined, &query);
            prop_assert_eq!(searcher.matched_ids(&query), expected.clone(), "query {:?}", raw);

            let (answer, _) = evaluate(&shards, &docs, &query, usize::MAX, &searcher);
            let mut answered: Vec<FileId> = answer.file_ids();
            answered.sort_unstable();
            let matched: Vec<FileId> = expected.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(answered, matched, "query {:?}", raw);
        }
    }
}
