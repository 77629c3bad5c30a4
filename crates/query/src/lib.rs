//! Search-query layer for `dsearch`.
//!
//! The paper's future-work section ("we will analyze how to integrate the
//! search query functionality and parallelize it as well, for instance by
//! using multiple indices") is implemented here, over the sealed serving
//! form of an index ([`dsearch_index::SealedShard`]):
//!
//! * [`query::Query`] — a small boolean query language (`AND`/`OR`/`NOT`,
//!   implicit `AND` between words, trailing-`*` prefix queries);
//! * [`search::SealedSearcher`] — the boolean evaluator over one or more
//!   sealed shards: one shard for a joined index (Implementations 1 and 2),
//!   one per un-joined replica for Implementation 3;
//! * [`topk::search_topk`] — BM25 top-k ranked retrieval with block-max
//!   pruning over the same shards;
//! * [`search::evaluate`] — the one answer rule every front end uses: ranked
//!   when the query is scorable, boolean otherwise, truncated to a limit;
//! * [`results::SearchResults`] — ranked hits with their file paths.
//!
//! # Example
//!
//! ```
//! use dsearch_index::{DocTable, InMemoryIndex, SealedShard};
//! use dsearch_query::{evaluate, Query, SealedSearcher};
//! use dsearch_text::Term;
//!
//! let mut docs = DocTable::new();
//! let a = docs.insert("a.txt");
//! let b = docs.insert("b.txt");
//! let mut index = InMemoryIndex::new();
//! index.insert_file(a, [Term::from("rust"), Term::from("search")]);
//! index.insert_file(b, [Term::from("rust")]);
//!
//! let shards = [SealedShard::from_index(&index)];
//! let searcher = SealedSearcher::new(&shards, &docs);
//! let query = Query::parse("rust AND search").unwrap();
//! let (results, _prune) = evaluate(&shards, &docs, &query, 10, &searcher);
//! assert_eq!(results.len(), 1);
//! assert_eq!(&*results.hits()[0].path, "a.txt");
//! assert!(results.hits()[0].score > 0.0, "scorable queries are BM25-ranked");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;
pub mod results;
pub mod search;
pub mod topk;

pub use dsearch_index::{PostingView, Postings};
pub use query::{ParseError, Query, QueryGroup, QueryTerm};
pub use results::{merge_ranked, Hit, RankedHit, SearchResults};
pub use search::{evaluate, SealedSearcher, SearchBackend};
pub use topk::{scorable, search_topk, PruneStats};
