//! Posting lists.
//!
//! A posting list records which files contain a given term.  Because each
//! extractor hands the index a de-duplicated word list per file, a file id is
//! added to any particular term's list at most once per index, so the list is
//! a set of file ids.  It is kept sorted to make joins (set unions) and query
//! intersections linear.

use serde::{Deserialize, Serialize};

use crate::doc_table::FileId;
use crate::view::PostingView;

/// A sorted, duplicate-free list of the files containing one term.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostingList {
    ids: Vec<FileId>,
    /// Per-posting term frequencies, parallel to `ids`.
    ///
    /// Canonical form: **empty means every frequency is 1** (the common case
    /// for condensed word lists), and a non-empty vector always contains at
    /// least one value > 1.  Every mutation re-establishes this, so the
    /// derived equality stays set-correct.
    tfs: Vec<u32>,
}

impl PostingList {
    /// Creates an empty posting list.
    #[must_use]
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Creates a list from an iterator of file ids (sorted and de-duplicated).
    pub fn from_ids<I: IntoIterator<Item = FileId>>(ids: I) -> Self {
        let mut ids: Vec<FileId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        PostingList { ids, tfs: Vec::new() }
    }

    /// Builds a list from an id vector in **any** order, reusing the
    /// allocation: one sort + dedup instead of the per-element binary-search
    /// insert a descending [`PostingList::add`] loop degrades to (O(n log n)
    /// instead of O(n²) shifts).  Bulk build paths — segment loading,
    /// snapshot reconstruction — should come through here or
    /// [`PostingList::from_sorted`], never an `add` loop.
    #[must_use]
    pub fn from_unsorted(mut ids: Vec<FileId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        PostingList { ids, tfs: Vec::new() }
    }

    /// Wraps a vector that is **already** sorted and duplicate-free (the
    /// output shape of every set operation in [`crate::view`]), skipping the
    /// re-sort `from_ids` would pay.  The invariant is checked in debug
    /// builds only.
    #[must_use]
    pub fn from_sorted(ids: Vec<FileId>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires a sorted, duplicate-free vector"
        );
        PostingList { ids, tfs: Vec::new() }
    }

    /// Like [`PostingList::from_sorted`], but also records per-posting term
    /// frequencies.  `tfs` must be parallel to `ids` (or empty for all-1);
    /// an all-1 vector is normalised to the canonical empty form.
    #[must_use]
    pub fn from_sorted_counted(ids: Vec<FileId>, tfs: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_counted requires a sorted, duplicate-free vector"
        );
        debug_assert!(tfs.is_empty() || tfs.len() == ids.len());
        let mut list = PostingList { ids, tfs };
        list.canonicalize_tfs();
        list
    }

    /// Restores the canonical `tfs` form (empty ⇔ all frequencies are 1).
    fn canonicalize_tfs(&mut self) {
        if !self.tfs.is_empty() && self.tfs.iter().all(|&tf| tf <= 1) {
            self.tfs.clear();
        }
    }

    /// Materialises the `tfs` vector (one entry per id) prior to a mutation
    /// that records a frequency other than 1.
    fn materialize_tfs(&mut self) {
        if self.tfs.is_empty() {
            self.tfs = vec![1; self.ids.len()];
        }
    }

    /// Raw per-posting frequencies, parallel to `doc_ids`.  Empty means every
    /// frequency is 1.
    #[must_use]
    pub fn tfs(&self) -> &[u32] {
        &self.tfs
    }

    /// The term frequency of the posting at `pos` (1 when untracked).
    #[must_use]
    pub fn tf_at(&self, pos: usize) -> u32 {
        self.tfs.get(pos).copied().unwrap_or(1)
    }

    /// The term frequency recorded for `id`, or `None` when `id` is absent.
    #[must_use]
    pub fn tf_of(&self, id: FileId) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|pos| self.tf_at(pos))
    }

    /// A borrowed [`PostingView`] of this list.
    #[must_use]
    pub fn as_view(&self) -> PostingView<'_> {
        PostingView::new(&self.ids)
    }

    /// Number of files in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when no file contains the term.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The file ids, sorted ascending.
    #[must_use]
    pub fn doc_ids(&self) -> &[FileId] {
        &self.ids
    }

    /// Returns `true` when `id` is in the list.
    #[must_use]
    pub fn contains(&self, id: FileId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Adds a file id, keeping the list sorted; returns `true` when it was new.
    ///
    /// Appending ids in increasing order (the common case when one extractor
    /// owns a contiguous slice of files) is O(1).
    pub fn add(&mut self, id: FileId) -> bool {
        self.add_with_tf(id, 1)
    }

    /// Adds a file id with its term frequency, keeping the list sorted;
    /// returns `true` when the id was new.  A duplicate id keeps the larger
    /// of the stored and offered frequencies.
    pub fn add_with_tf(&mut self, id: FileId, tf: u32) -> bool {
        let tf = tf.max(1);
        if tf > 1 {
            self.materialize_tfs();
        }
        // `tf > 1` keeps tracking on when the list (and thus the freshly
        // materialised vector) is still empty.
        let tracked = tf > 1 || !self.tfs.is_empty();
        match self.ids.last() {
            Some(&last) if last < id => {
                self.ids.push(id);
                if tracked {
                    self.tfs.push(tf.max(1));
                }
                true
            }
            Some(&last) if last == id => {
                if tracked {
                    let end = self.tfs.len() - 1;
                    self.tfs[end] = self.tfs[end].max(tf);
                }
                false
            }
            _ => match self.ids.binary_search(&id) {
                Ok(pos) => {
                    if tracked {
                        self.tfs[pos] = self.tfs[pos].max(tf);
                    }
                    false
                }
                Err(pos) => {
                    self.ids.insert(pos, id);
                    if tracked {
                        self.tfs.insert(pos, tf.max(1));
                    }
                    true
                }
            },
        }
    }

    /// Merges `other` into `self` (set union). Linear in the combined length.
    /// A file present in both lists keeps the larger term frequency.
    pub fn union_with(&mut self, other: &PostingList) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.ids = other.ids.clone();
            self.tfs = other.tfs.clone();
            return;
        }
        let untracked = self.tfs.is_empty() && other.tfs.is_empty();
        // Disjoint-range fast paths: shards and join stages usually own
        // contiguous file-id ranges, so one list often sits entirely before
        // the other and no element-wise merge is needed.
        if *self.ids.last().expect("non-empty") < other.ids[0] {
            if !untracked {
                self.materialize_tfs();
                if other.tfs.is_empty() {
                    self.tfs.extend(std::iter::repeat_n(1, other.ids.len()));
                } else {
                    self.tfs.extend_from_slice(&other.tfs);
                }
            }
            self.ids.extend_from_slice(&other.ids);
            return;
        }
        if *other.ids.last().expect("non-empty") < self.ids[0] {
            if !untracked {
                self.materialize_tfs();
                if other.tfs.is_empty() {
                    self.tfs.splice(0..0, std::iter::repeat_n(1, other.ids.len()));
                } else {
                    self.tfs.splice(0..0, other.tfs.iter().copied());
                }
            }
            self.ids.splice(0..0, other.ids.iter().copied());
            return;
        }
        let mut merged = Vec::with_capacity(self.ids.len() + other.ids.len());
        let mut merged_tfs = if untracked {
            Vec::new()
        } else {
            Vec::with_capacity(self.ids.len() + other.ids.len())
        };
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.ids[i]);
                    if !untracked {
                        merged_tfs.push(self.tf_at(i));
                    }
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.ids[j]);
                    if !untracked {
                        merged_tfs.push(other.tf_at(j));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.ids[i]);
                    if !untracked {
                        merged_tfs.push(self.tf_at(i).max(other.tf_at(j)));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if !untracked {
            merged_tfs.extend((i..self.ids.len()).map(|p| self.tf_at(p)));
            merged_tfs.extend((j..other.ids.len()).map(|p| other.tf_at(p)));
        }
        merged.extend_from_slice(&self.ids[i..]);
        merged.extend_from_slice(&other.ids[j..]);
        self.ids = merged;
        self.tfs = merged_tfs;
        self.canonicalize_tfs();
    }

    /// Returns the intersection of two lists (files containing both terms).
    #[must_use]
    pub fn intersect(&self, other: &PostingList) -> PostingList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        let mut out_tfs = Vec::new();
        let tracked = !self.tfs.is_empty();
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    if tracked {
                        out_tfs.push(self.tf_at(i));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut list = PostingList { ids: out, tfs: out_tfs };
        list.canonicalize_tfs();
        list
    }

    /// Removes a file id from the list; returns `true` when it was present.
    ///
    /// Used by the incremental re-indexer when a file is deleted or about to
    /// be re-indexed after a modification.
    pub fn remove(&mut self, id: FileId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                if !self.tfs.is_empty() {
                    self.tfs.remove(pos);
                    self.canonicalize_tfs();
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Returns the union of two lists without modifying either.
    #[must_use]
    pub fn union(&self, other: &PostingList) -> PostingList {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the files in `self` that are **not** in `other` (set
    /// difference).  Used to evaluate `NOT` terms in queries.
    #[must_use]
    pub fn difference(&self, other: &PostingList) -> PostingList {
        let mut ids = Vec::new();
        let mut tfs = Vec::new();
        let tracked = !self.tfs.is_empty();
        for (pos, id) in self.ids.iter().copied().enumerate() {
            if !other.contains(id) {
                ids.push(id);
                if tracked {
                    tfs.push(self.tf_at(pos));
                }
            }
        }
        let mut list = PostingList { ids, tfs };
        list.canonicalize_tfs();
        list
    }

    /// Iterates over `(file id, term frequency)` pairs in ascending id order.
    pub fn iter_counted(&self) -> impl Iterator<Item = (FileId, u32)> + '_ {
        self.ids.iter().copied().enumerate().map(|(pos, id)| (id, self.tf_at(pos)))
    }

    /// Iterates over the file ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        self.ids.iter().copied()
    }
}

impl FromIterator<FileId> for PostingList {
    fn from_iter<I: IntoIterator<Item = FileId>>(iter: I) -> Self {
        PostingList::from_ids(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<FileId> {
        v.iter().map(|&i| FileId(i)).collect()
    }

    #[test]
    fn add_keeps_sorted_unique() {
        let mut p = PostingList::new();
        assert!(p.add(FileId(5)));
        assert!(p.add(FileId(2)));
        assert!(!p.add(FileId(5)));
        assert!(p.add(FileId(9)));
        assert_eq!(p.doc_ids(), ids(&[2, 5, 9]).as_slice());
        assert_eq!(p.len(), 3);
        assert!(p.contains(FileId(2)));
        assert!(!p.contains(FileId(3)));
    }

    #[test]
    fn append_in_order_fast_path() {
        let mut p = PostingList::new();
        for i in 0..1000 {
            assert!(p.add(FileId(i)));
        }
        assert_eq!(p.len(), 1000);
        assert!(!p.add(FileId(999)));
    }

    #[test]
    fn remove_deletes_only_the_given_id() {
        let mut p = PostingList::from_ids(ids(&[1, 3, 5]));
        assert!(p.remove(FileId(3)));
        assert_eq!(p.doc_ids(), ids(&[1, 5]).as_slice());
        assert!(!p.remove(FileId(3)));
        assert!(!p.remove(FileId(99)));
        assert!(p.remove(FileId(1)));
        assert!(p.remove(FileId(5)));
        assert!(p.is_empty());
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let p = PostingList::from_ids(ids(&[3, 1, 3, 2, 1]));
        assert_eq!(p.doc_ids(), ids(&[1, 2, 3]).as_slice());
    }

    #[test]
    fn difference_removes_other_ids() {
        let a = PostingList::from_ids(ids(&[1, 2, 3, 4]));
        let b = PostingList::from_ids(ids(&[2, 4, 6]));
        assert_eq!(a.difference(&b).doc_ids(), ids(&[1, 3]).as_slice());
        assert_eq!(b.difference(&a).doc_ids(), ids(&[6]).as_slice());
        assert_eq!(a.difference(&PostingList::new()), a);
        assert!(a.difference(&a).is_empty());
    }

    #[test]
    fn union_with_merges_sets() {
        let mut a = PostingList::from_ids(ids(&[1, 3, 5]));
        let b = PostingList::from_ids(ids(&[2, 3, 6]));
        a.union_with(&b);
        assert_eq!(a.doc_ids(), ids(&[1, 2, 3, 5, 6]).as_slice());
    }

    #[test]
    fn union_with_disjoint_ranges_extends_in_place() {
        // Append: every id of `other` is past the end of `self`.
        let mut a = PostingList::from_ids(ids(&[1, 2, 3]));
        a.union_with(&PostingList::from_ids(ids(&[5, 6])));
        assert_eq!(a.doc_ids(), ids(&[1, 2, 3, 5, 6]).as_slice());
        // Prepend: every id of `other` is before the start of `self`.
        let mut b = PostingList::from_ids(ids(&[10, 20]));
        b.union_with(&PostingList::from_ids(ids(&[1, 2])));
        assert_eq!(b.doc_ids(), ids(&[1, 2, 10, 20]).as_slice());
        // Touching boundary (equal edge ids) must still merge correctly.
        let mut c = PostingList::from_ids(ids(&[1, 5]));
        c.union_with(&PostingList::from_ids(ids(&[5, 9])));
        assert_eq!(c.doc_ids(), ids(&[1, 5, 9]).as_slice());
    }

    #[test]
    fn from_sorted_and_views() {
        let list = PostingList::from_sorted(ids(&[2, 4, 6]));
        assert_eq!(list.doc_ids(), ids(&[2, 4, 6]).as_slice());
        assert_eq!(list.as_view().len(), 3);
        assert_eq!(PostingList::new().as_view().len(), 0);
    }

    #[test]
    fn union_with_empty_cases() {
        let mut a = PostingList::new();
        let b = PostingList::from_ids(ids(&[1, 2]));
        a.union_with(&b);
        assert_eq!(a.doc_ids(), ids(&[1, 2]).as_slice());
        let mut c = a.clone();
        c.union_with(&PostingList::new());
        assert_eq!(c, a);
    }

    #[test]
    fn intersect_returns_common_ids() {
        let a = PostingList::from_ids(ids(&[1, 2, 4, 8]));
        let b = PostingList::from_ids(ids(&[2, 3, 4, 9]));
        assert_eq!(a.intersect(&b).doc_ids(), ids(&[2, 4]).as_slice());
        assert!(a.intersect(&PostingList::new()).is_empty());
    }

    #[test]
    fn tf_tracking_roundtrip() {
        let mut p = PostingList::new();
        assert!(p.add_with_tf(FileId(1), 3));
        assert!(p.add_with_tf(FileId(0), 1));
        assert!(p.add_with_tf(FileId(2), 2));
        assert_eq!(p.tf_of(FileId(1)), Some(3));
        assert_eq!(p.tf_of(FileId(0)), Some(1));
        assert_eq!(p.tf_of(FileId(9)), None);
        // A duplicate id keeps the larger frequency.
        assert!(!p.add_with_tf(FileId(2), 7));
        assert_eq!(p.tf_of(FileId(2)), Some(7));
        let pairs: Vec<(FileId, u32)> = p.iter_counted().collect();
        assert_eq!(pairs, [(FileId(0), 1), (FileId(1), 3), (FileId(2), 7)]);
    }

    #[test]
    fn tf_canonical_form() {
        let all_one = PostingList::from_sorted_counted(ids(&[1, 2]), vec![1, 1]);
        assert!(all_one.tfs().is_empty());
        assert_eq!(all_one, PostingList::from_sorted(ids(&[1, 2])));
        assert_eq!(all_one.tf_at(0), 1);

        let mut p = PostingList::from_sorted_counted(ids(&[1, 2]), vec![1, 5]);
        assert_eq!(p.tfs(), [1, 5]);
        p.remove(FileId(2));
        assert!(p.tfs().is_empty(), "dropping the only tf>1 posting restores canonical form");
    }

    #[test]
    fn union_keeps_larger_tf() {
        let mut a = PostingList::from_sorted_counted(ids(&[1, 3]), vec![2, 1]);
        let b = PostingList::from_sorted_counted(ids(&[1, 2]), vec![1, 4]);
        a.union_with(&b);
        assert_eq!(a.doc_ids(), ids(&[1, 2, 3]).as_slice());
        assert_eq!(a.tfs(), [2, 4, 1]);

        // Disjoint fast paths preserve frequencies on both sides.
        let mut c = PostingList::from_sorted_counted(ids(&[1]), vec![3]);
        c.union_with(&PostingList::from_sorted(ids(&[5, 6])));
        assert_eq!(c.tfs(), [3, 1, 1]);
        let mut d = PostingList::from_sorted(ids(&[10]));
        d.union_with(&PostingList::from_sorted_counted(ids(&[2]), vec![9]));
        assert_eq!(d.tfs(), [9, 1]);
    }

    #[test]
    fn intersect_and_difference_carry_tfs() {
        let a = PostingList::from_sorted_counted(ids(&[1, 2, 3]), vec![5, 1, 2]);
        let b = PostingList::from_sorted(ids(&[1, 3]));
        assert_eq!(a.intersect(&b).tfs(), [5, 2]);
        assert_eq!(a.difference(&b).tfs(), &[] as &[u32], "all-1 remainder is canonical");
        assert_eq!(a.difference(&PostingList::new()).tfs(), [5, 1, 2]);
    }

    #[test]
    fn iterator_and_collect() {
        let p: PostingList = ids(&[4, 1, 4]).into_iter().collect();
        let back: Vec<FileId> = p.iter().collect();
        assert_eq!(back, ids(&[1, 4]));
    }

    proptest! {
        /// union and intersect agree with the naive set implementations.
        #[test]
        fn set_semantics(a in proptest::collection::vec(0u32..200, 0..100),
                         b in proptest::collection::vec(0u32..200, 0..100)) {
            use std::collections::BTreeSet;
            let pa = PostingList::from_ids(a.iter().map(|&i| FileId(i)));
            let pb = PostingList::from_ids(b.iter().map(|&i| FileId(i)));
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();

            let union: Vec<u32> = pa.union(&pb).iter().map(FileId::as_u32).collect();
            let expected_union: Vec<u32> = sa.union(&sb).copied().collect();
            prop_assert_eq!(union, expected_union);

            let inter: Vec<u32> = pa.intersect(&pb).iter().map(FileId::as_u32).collect();
            let expected_inter: Vec<u32> = sa.intersection(&sb).copied().collect();
            prop_assert_eq!(inter, expected_inter);
        }

        /// add() produces the same set as from_ids() regardless of order.
        #[test]
        fn add_matches_from_ids(xs in proptest::collection::vec(0u32..500, 0..200)) {
            let mut incremental = PostingList::new();
            for &x in &xs {
                incremental.add(FileId(x));
            }
            let bulk = PostingList::from_ids(xs.iter().map(|&x| FileId(x)));
            prop_assert_eq!(incremental, bulk);
        }
    }
}
