//! Inverted index for the `dsearch` desktop-search engine.
//!
//! The index maps every term to the list of files it occurs in.  The paper
//! compares three ways of updating it from multiple term-extractor threads;
//! this crate provides the building blocks for all three:
//!
//! * [`InMemoryIndex`] — the single-threaded index structure (an FNV hash map
//!   from term to posting list, as in the original Boost-based C++ code);
//! * [`SharedIndex`] — one index behind a lock, updated by every thread
//!   (**Implementation 1**);
//! * [`join`] — merging per-thread replica indices at the end of the run,
//!   either with a single thread or as a parallel reduction
//!   (**Implementation 2**, the "Join Forces" pattern);
//! * [`IndexSet`] — the collection of un-joined replicas that
//!   **Implementation 3** ends with (persisted one segment per replica and
//!   served as the shards of one sealed snapshot);
//! * [`ShardedIndex`] — a term-sharded index with one lock per shard, used by
//!   the ablation benchmarks as a fourth design point;
//! * [`DocTable`] — the table mapping compact [`FileId`]s to file paths,
//!   assigned during filename generation so the extractors need no
//!   synchronisation to name files;
//! * [`view`] — borrowed [`PostingView`]s over posting lists plus the
//!   allocation-free set operations (galloping intersection, k-way heap
//!   union), the [`Postings`] compressed-borrow-or-merged wrapper the query
//!   layer evaluates with, and the cursor-based set operations that run over
//!   compressed and raw lists alike;
//! * [`block`] — block-compressed posting lists ([`CompressedPostings`]:
//!   128-id delta blocks with per-block skip metadata) and the skip-aware
//!   [`BlockCursor`]/[`SliceCursor`] cursors;
//! * [`sealed`] — [`SealedShard`], the immutable serving form: a sorted
//!   interned term dictionary aligned with compressed postings.
//!
//! # Example
//!
//! ```
//! use dsearch_index::{DocTable, InMemoryIndex};
//! use dsearch_text::Term;
//!
//! let mut docs = DocTable::new();
//! let report = docs.insert("docs/report.txt");
//! let notes = docs.insert("docs/notes.txt");
//!
//! let mut index = InMemoryIndex::new();
//! index.insert_file(report, [Term::from("quarterly"), Term::from("revenue")]);
//! index.insert_file(notes, [Term::from("revenue"), Term::from("meeting")]);
//!
//! let hits = index.postings(&Term::from("revenue")).unwrap();
//! assert_eq!(hits.doc_ids(), &[report, notes]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod doc_table;
pub mod join;
pub mod memory_index;
pub mod posting;
pub mod sealed;
pub mod sharded;
pub mod shared;
pub mod stats;
pub mod view;

pub use block::{
    BlockCursor, BlockFormatError, CompressedPostings, PostingCursor, SkipEntry, SliceCursor,
    BLOCK_SIZE,
};
pub use doc_table::{DocTable, FileId};
pub use join::{join_all, join_into, parallel_join, JoinPlan};
pub use memory_index::InMemoryIndex;
pub use posting::PostingList;
pub use sealed::{bm25_idf, bm25_neutral_norm, bm25_score, SealedShard, BM25_B, BM25_K1};
pub use sharded::ShardedIndex;
pub use shared::{IndexSet, SharedIndex};
pub use stats::IndexStats;
pub use view::{
    difference_cursors_into, intersect_cursors_into, union_cursors_into, union_into, PostingView,
    Postings, PostingsCursor,
};
