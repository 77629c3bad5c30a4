//! The binary segment format.
//!
//! One segment stores one complete index (terms, block-compressed posting
//! lists) together with its document table.  The version-3 layout is:
//!
//! ```text
//! magic   "DSG1"                            4 bytes
//! checksum FNV-1a(payload)                  8 bytes little-endian
//! payload:
//!   version                                 varint
//!   doc count                               varint
//!   per doc: path                           length-prefixed bytes
//!   doc-length count (v3)                   varint
//!   per length (v3, id ascending):          file id, length as varints
//!   term count                              varint
//!   per term (sorted ascending):
//!     term                                  length-prefixed bytes
//!     posting count                         varint
//!     skip entries (only when > 1 block):   per block: first, last, offset
//!                                           as varints
//!     block payload                         length-prefixed bytes
//!     frequency payload (v3)                length-prefixed bytes
//!     frequency offsets (v3, only when      per block: byte offset varint
//!       the frequency payload is non-empty)
//!     max score (v3)                        f32 bits as varint
//!     block score bounds (v3, only when     one u8 per block, raw
//!       max score > 0)
//! ```
//!
//! The per-term payload is **exactly** the in-memory
//! [`CompressedPostings`] representation (delta blocks, varint or bitpacked,
//! plus the v3 term-frequency payload and quantized per-block BM25 score
//! bounds, see `dsearch_index::block`), so serving a segment is decode-free:
//! the bytes are lifted straight into a [`SealedShard`] without touching a
//! single posting, and ranked queries prune with the persisted bounds.
//! Version-1 segments (per-id ascending varint deltas) and version-2
//! segments (no frequencies or scores — served unscored) are still
//! readable.  The checksum makes a truncated or bit-flipped segment a clean
//! [`PersistError::Corrupt`] instead of a garbage index.

use std::io::{Read, Write};

use dsearch_index::{
    CompressedPostings, DocTable, FileId, InMemoryIndex, PostingList, SealedShard, SkipEntry,
    BLOCK_SIZE,
};
use dsearch_text::fnv::fnv1a_64;
use dsearch_text::Term;

use crate::error::PersistError;
use crate::varint;

/// Magic bytes identifying a segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"DSG1";

/// Current segment format version (3 = term frequencies, document lengths
/// and block-max score bounds; 2 = block-compressed postings).
pub const SEGMENT_VERSION: u32 = 3;

/// Oldest version [`read_segment`] still understands.
pub const MIN_SEGMENT_VERSION: u32 = 1;

/// Longest path or term (in bytes) a segment will accept when reading;
/// protects against corrupt length prefixes.
const MAX_STRING_LEN: u64 = 64 * 1024;

/// Summary of a written segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SegmentInfo {
    /// Number of documents in the segment's doc table.
    pub doc_count: u64,
    /// Number of distinct terms.
    pub term_count: u64,
    /// Number of `(term, file)` postings.
    pub posting_count: u64,
    /// Encoded size in bytes (including header).
    pub bytes: u64,
}

/// Writes `index` and `docs` as one segment.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_segment<W: Write>(
    index: &InMemoryIndex,
    docs: &DocTable,
    mut writer: W,
) -> Result<SegmentInfo, PersistError> {
    let mut payload: Vec<u8> = Vec::new();
    varint::write_u32(&mut payload, SEGMENT_VERSION)?;

    varint::write_u64(&mut payload, docs.len() as u64)?;
    for (_, path) in docs.iter() {
        varint::write_bytes(&mut payload, path.as_bytes())?;
    }

    let mut doc_lens: Vec<(FileId, u32)> = index.doc_lens().collect();
    doc_lens.sort_unstable_by_key(|&(id, _)| id);
    varint::write_u64(&mut payload, doc_lens.len() as u64)?;
    for &(id, len) in &doc_lens {
        varint::write_u32(&mut payload, id.as_u32())?;
        varint::write_u32(&mut payload, len)?;
    }

    // Sealing computes the per-block BM25 score bounds exactly as the
    // serving path would, so persisted bounds match in-memory seals bit for
    // bit.
    let shard = SealedShard::from_index(index);
    varint::write_u64(&mut payload, shard.term_count() as u64)?;
    for (term, compressed) in shard.iter() {
        write_term_postings(&mut payload, term, compressed)?;
    }

    let checksum = fnv1a_64(&payload);
    writer.write_all(&SEGMENT_MAGIC)?;
    writer.write_all(&checksum.to_le_bytes())?;
    writer.write_all(&payload)?;

    Ok(SegmentInfo {
        doc_count: docs.len() as u64,
        term_count: shard.term_count() as u64,
        posting_count: shard.posting_count(),
        bytes: (SEGMENT_MAGIC.len() + 8 + payload.len()) as u64,
    })
}

fn write_term_postings(
    payload: &mut Vec<u8>,
    term: &Term,
    compressed: &CompressedPostings,
) -> Result<(), PersistError> {
    varint::write_bytes(payload, term.as_str().as_bytes())?;
    varint::write_u64(payload, compressed.len() as u64)?;
    for skip in compressed.skips() {
        varint::write_u32(payload, skip.first.as_u32())?;
        varint::write_u32(payload, skip.last.as_u32())?;
        varint::write_u32(payload, skip.offset)?;
    }
    varint::write_bytes(payload, compressed.data())?;
    varint::write_bytes(payload, compressed.freqs())?;
    for &offset in compressed.freq_offsets() {
        varint::write_u32(payload, offset)?;
    }
    varint::write_u32(payload, compressed.max_score().to_bits())?;
    payload.extend_from_slice(compressed.block_scores());
    Ok(())
}

fn read_term_postings(
    cursor: &mut &[u8],
    version: u32,
) -> Result<(Term, CompressedPostings), PersistError> {
    let term = varint::read_bytes(cursor, MAX_STRING_LEN)?;
    let term = String::from_utf8(term)
        .map_err(|_| PersistError::Corrupt("term is not valid UTF-8".into()))?;
    let term = Term::from(term);
    let posting_count = varint::read_u64(cursor)? as usize;
    if version == 1 {
        // Legacy per-id ascending deltas: decode, then compress.
        let mut ids = Vec::with_capacity(posting_count.min(1 << 20));
        let mut previous = 0u64;
        for i in 0..posting_count {
            let delta = varint::read_u64(cursor)?;
            let value = if i == 0 { delta } else { previous + delta };
            let id = u32::try_from(value)
                .map_err(|_| PersistError::Corrupt("file id does not fit in u32".into()))?;
            ids.push(FileId(id));
            previous = value;
        }
        return Ok((term, CompressedPostings::from_sorted(&ids)));
    }
    let block_count = posting_count.div_ceil(BLOCK_SIZE);
    let skip_count = if block_count > 1 { block_count } else { 0 };
    let mut skips = Vec::with_capacity(skip_count);
    for _ in 0..skip_count {
        let first = FileId(varint::read_u32(cursor)?);
        let last = FileId(varint::read_u32(cursor)?);
        let offset = varint::read_u32(cursor)?;
        skips.push(SkipEntry { first, last, offset });
    }
    // Encoded blocks never exceed ~5 bytes/id plus per-block headers.
    let data_bound = 6 * posting_count as u64 + 2 * block_count as u64 + 16;
    let data = varint::read_bytes(cursor, data_bound)?;
    if version == 2 {
        let compressed = CompressedPostings::from_parts(posting_count, skips, data)
            .map_err(|e| PersistError::Corrupt(e.to_string()))?;
        return Ok((term, compressed));
    }

    // Version 3: term frequencies and block-max score bounds.
    let freq_bound = 5 * posting_count as u64 + 2 * block_count as u64 + 16;
    let freqs = varint::read_bytes(cursor, freq_bound)?;
    let mut freq_offsets = Vec::new();
    if !freqs.is_empty() {
        freq_offsets.reserve(block_count);
        for _ in 0..block_count {
            freq_offsets.push(varint::read_u32(cursor)?);
        }
    }
    let max_score = f32::from_bits(varint::read_u32(cursor)?);
    let mut block_scores = Vec::new();
    if max_score > 0.0 {
        if cursor.len() < block_count {
            return Err(PersistError::Corrupt("truncated block score bounds".into()));
        }
        block_scores.extend_from_slice(&cursor[..block_count]);
        *cursor = &cursor[block_count..];
    }
    let compressed = CompressedPostings::from_parts_scored(
        posting_count,
        skips,
        data,
        freqs,
        freq_offsets,
        block_scores,
        max_score,
    )
    .map_err(|e| PersistError::Corrupt(e.to_string()))?;
    Ok((term, compressed))
}

/// Shared front matter: magic, checksum verification, version, doc table,
/// document lengths (v3).  Returns the doc table, the recorded lengths
/// (empty for v1/v2 — those segments serve unscored), the remaining payload
/// cursor and the version.
#[allow(clippy::type_complexity)]
fn read_segment_header(
    payload: &[u8],
) -> Result<(DocTable, Vec<(FileId, u32)>, &[u8], u32), PersistError> {
    let mut cursor = payload;
    let version = varint::read_u32(&mut cursor)?;
    if !(MIN_SEGMENT_VERSION..=SEGMENT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion { found: version, expected: SEGMENT_VERSION });
    }
    let doc_count = varint::read_u64(&mut cursor)?;
    let mut docs = DocTable::with_capacity(doc_count as usize);
    for _ in 0..doc_count {
        let path = varint::read_bytes(&mut cursor, MAX_STRING_LEN)?;
        let path = String::from_utf8(path)
            .map_err(|_| PersistError::Corrupt("document path is not valid UTF-8".into()))?;
        docs.insert(path);
    }
    let mut doc_lens = Vec::new();
    if version >= 3 {
        let len_count = varint::read_u64(&mut cursor)?;
        if len_count > doc_count {
            return Err(PersistError::Corrupt("more document lengths than documents".into()));
        }
        doc_lens.reserve(len_count as usize);
        let mut previous: Option<u32> = None;
        for _ in 0..len_count {
            let id = varint::read_u32(&mut cursor)?;
            let len = varint::read_u32(&mut cursor)?;
            if previous.is_some_and(|p| p >= id) {
                return Err(PersistError::Corrupt(
                    "document lengths are not strictly ascending by id".into(),
                ));
            }
            previous = Some(id);
            doc_lens.push((FileId(id), len));
        }
    }
    Ok((docs, doc_lens, cursor, version))
}

fn read_payload<R: Read>(mut reader: R) -> Result<Vec<u8>, PersistError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt("bad segment magic".into()));
    }
    let mut checksum_bytes = [0u8; 8];
    reader.read_exact(&mut checksum_bytes)?;
    let expected_checksum = u64::from_le_bytes(checksum_bytes);

    let mut payload = Vec::new();
    reader.read_to_end(&mut payload)?;
    if fnv1a_64(&payload) != expected_checksum {
        return Err(PersistError::Corrupt("segment checksum mismatch".into()));
    }
    Ok(payload)
}

/// Reads one segment, reconstructing the mutable index and its document
/// table (the incremental re-indexing path; serving should prefer
/// [`read_segment_sealed`]).
///
/// # Errors
///
/// Fails on I/O errors, a wrong magic number, a checksum mismatch, an
/// unsupported version or any malformed length/delta.
pub fn read_segment<R: Read>(reader: R) -> Result<(InMemoryIndex, DocTable), PersistError> {
    let payload = read_payload(reader)?;
    let (docs, doc_lens, mut cursor, version) = read_segment_header(&payload)?;

    let term_count = varint::read_u64(&mut cursor)?;
    let mut index = InMemoryIndex::with_capacity(term_count as usize);
    for _ in 0..term_count {
        let (term, compressed) = read_term_postings(&mut cursor, version)?;
        // Bulk insert: one map operation per term, never a per-id add loop.
        index.insert_term_list(term, decompress_list(&compressed)?);
    }
    for (file, len) in doc_lens {
        index.note_doc_len(file, len);
    }
    // Restore the file counter from the doc table, as the JSON snapshot does.
    for _ in 0..docs.len() {
        index.note_file_done();
    }

    ensure_drained(cursor)?;
    Ok((index, docs))
}

/// Reads one segment straight into a [`SealedShard`] — the decode-free
/// serving path: version-2 block payloads are lifted as-is, no posting is
/// ever decompressed.
///
/// # Errors
///
/// Fails like [`read_segment`].
pub fn read_segment_sealed<R: Read>(reader: R) -> Result<(SealedShard, DocTable), PersistError> {
    let payload = read_payload(reader)?;
    let (docs, doc_lens, mut cursor, version) = read_segment_header(&payload)?;

    let term_count = varint::read_u64(&mut cursor)?;
    let mut entries = Vec::with_capacity(term_count as usize);
    for _ in 0..term_count {
        entries.push(read_term_postings(&mut cursor, version)?);
    }
    ensure_drained(cursor)?;
    let shard = SealedShard::from_entries_scored(entries, docs.len() as u64, doc_lens)
        .map_err(PersistError::Corrupt)?;
    Ok((shard, docs))
}

fn decompress_list(compressed: &CompressedPostings) -> Result<PostingList, PersistError> {
    let mut ids = Vec::new();
    compressed.decode_into(&mut ids);
    if ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::Corrupt("posting ids are not strictly ascending".into()));
    }
    let mut tfs = Vec::new();
    compressed.decode_freqs_into(&mut tfs);
    Ok(PostingList::from_sorted_counted(ids, tfs))
}

fn ensure_drained(cursor: &[u8]) -> Result<(), PersistError> {
    if cursor.is_empty() {
        Ok(())
    } else {
        Err(PersistError::Corrupt(format!("{} trailing bytes after segment payload", cursor.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> (InMemoryIndex, DocTable) {
        let mut docs = DocTable::new();
        let a = docs.insert("dir/a.txt");
        let b = docs.insert("dir/b.txt");
        let c = docs.insert("c.md");
        let mut index = InMemoryIndex::new();
        index.insert_file(a, [Term::from("alpha"), Term::from("beta")]);
        index.insert_file(b, [Term::from("beta"), Term::from("gamma")]);
        index.insert_file(c, [Term::from("alpha"), Term::from("gamma"), Term::from("delta")]);
        (index, docs)
    }

    #[test]
    fn round_trip_preserves_index_and_docs() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        let info = write_segment(&index, &docs, &mut buf).unwrap();
        assert_eq!(info.doc_count, 3);
        assert_eq!(info.term_count, 4);
        assert_eq!(info.posting_count, 7);
        assert_eq!(info.bytes, buf.len() as u64);

        let (restored, restored_docs) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, index);
        assert_eq!(restored_docs.len(), docs.len());
        for (id, path) in docs.iter() {
            assert_eq!(restored_docs.path(id), Some(path));
        }
        assert_eq!(restored.file_count(), 3);
    }

    #[test]
    fn counted_round_trip_preserves_tfs_lens_and_scores() {
        let mut docs = DocTable::new();
        let a = docs.insert("a.txt");
        let b = docs.insert("b.txt");
        let mut index = InMemoryIndex::new();
        index.insert_file_counted(a, [(Term::from("alpha"), 4u32), (Term::from("beta"), 1)]);
        index.insert_file_counted(b, [(Term::from("alpha"), 1u32)]);

        let mut buf = Vec::new();
        write_segment(&index, &docs, &mut buf).unwrap();

        // Mutable path: tfs and doc lens restored exactly.
        let (restored, _) = read_segment(&buf[..]).unwrap();
        assert_eq!(restored, index);
        assert_eq!(restored.postings(&Term::from("alpha")).unwrap().tf_of(a), Some(4));
        assert_eq!(restored.doc_len(a), Some(5));
        assert_eq!(restored.doc_len(b), Some(1));

        // Sealed path: identical to sealing the source index, including the
        // persisted block-max score bounds and rebuilt norms.
        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert_eq!(shard, SealedShard::from_index(&index));
        assert!(shard.has_scoring());
        assert!(shard.postings(&Term::from("alpha")).unwrap().max_score() > 0.0);
    }

    #[test]
    fn v2_segments_are_still_readable_as_unscored() {
        // Hand-build a version-2 payload: no doc-length section, no
        // frequency or score sections after each term's block payload.
        let mut payload = Vec::new();
        crate::varint::write_u32(&mut payload, 2).unwrap();
        crate::varint::write_u64(&mut payload, 2).unwrap();
        crate::varint::write_bytes(&mut payload, b"a.txt").unwrap();
        crate::varint::write_bytes(&mut payload, b"b.txt").unwrap();
        crate::varint::write_u64(&mut payload, 1).unwrap();
        let compressed = CompressedPostings::from_sorted(&[FileId(0), FileId(1)]);
        crate::varint::write_bytes(&mut payload, b"alpha").unwrap();
        crate::varint::write_u64(&mut payload, compressed.len() as u64).unwrap();
        assert!(compressed.skips().is_empty());
        crate::varint::write_bytes(&mut payload, compressed.data()).unwrap();

        let mut buf = Vec::new();
        buf.extend_from_slice(&SEGMENT_MAGIC);
        buf.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);

        let (index, docs) = read_segment(&buf[..]).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(index.postings(&Term::from("alpha")).unwrap().tf_of(FileId(0)), Some(1));
        assert_eq!(index.doc_len(FileId(0)), None);

        let (shard, _) = read_segment_sealed(&buf[..]).unwrap();
        assert!(!shard.has_scoring());
        assert_eq!(shard.postings(&Term::from("alpha")).unwrap().max_score(), 0.0);
    }

    #[test]
    fn equal_indices_encode_to_identical_segments() {
        // The same postings inserted in a different order: the hash map
        // iterates differently, but terms are written sorted, so the bytes
        // (and therefore the checksum) are identical.
        let (forward, docs) = sample();
        let mut backward = InMemoryIndex::new();
        for (id, _) in docs.iter().collect::<Vec<_>>().into_iter().rev() {
            let terms: Vec<Term> = forward
                .iter()
                .filter(|(_, list)| list.doc_ids().contains(&id))
                .map(|(term, _)| term.clone())
                .collect();
            backward.insert_file(id, terms);
        }
        assert_eq!(backward, forward);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_segment(&forward, &docs, &mut a).unwrap();
        write_segment(&backward, &docs, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unsupported_segment_version_is_rejected() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, &mut buf).unwrap();
        // The version is the payload's first varint (one byte for small
        // values); rewrite it and re-seal the checksum so only the version
        // is wrong.
        assert_eq!(buf[12], SEGMENT_VERSION as u8);
        buf[12] = 99;
        let checksum = fnv1a_64(&buf[12..]);
        buf[4..12].copy_from_slice(&checksum.to_le_bytes());
        let err = read_segment(&buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::UnsupportedVersion { found: 99, expected: SEGMENT_VERSION }
            ),
            "{err:?}"
        );
        assert!(read_segment_sealed(&buf[..]).is_err());
    }

    #[test]
    fn empty_index_round_trips() {
        let mut buf = Vec::new();
        let info = write_segment(&InMemoryIndex::new(), &DocTable::new(), &mut buf).unwrap();
        assert_eq!(info.term_count, 0);
        let (restored, docs) = read_segment(&buf[..]).unwrap();
        assert!(restored.is_empty());
        assert!(docs.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_segment(&buf[..]), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn bit_flip_in_payload_is_caught_by_checksum() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(read_segment(&buf[..]), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn truncated_segment_is_an_error() {
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_segment(&buf[..]).is_err());
        assert!(read_segment(&buf[..6]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected_even_with_matching_length() {
        // Appending bytes invalidates the checksum; the reader reports
        // corruption rather than silently ignoring the tail.
        let (index, docs) = sample();
        let mut buf = Vec::new();
        write_segment(&index, &docs, &mut buf).unwrap();
        buf.extend_from_slice(b"junk");
        assert!(read_segment(&buf[..]).is_err());
    }

    proptest! {
        /// Any index built from en-bloc file insertions survives a
        /// write → read round trip exactly.
        #[test]
        fn arbitrary_indices_round_trip(
            files in proptest::collection::vec(
                proptest::collection::vec("[a-f]{1,4}", 1..10),
                0..40,
            )
        ) {
            let mut docs = DocTable::new();
            let mut index = InMemoryIndex::new();
            for (i, words) in files.iter().enumerate() {
                let id = docs.insert(format!("f{i}.txt"));
                let mut uniq = words.clone();
                uniq.sort();
                uniq.dedup();
                index.insert_file(id, uniq.iter().map(|w| Term::from(w.as_str())));
            }
            let mut buf = Vec::new();
            let info = write_segment(&index, &docs, &mut buf).unwrap();
            prop_assert_eq!(info.doc_count, docs.len() as u64);
            let (restored, restored_docs) = read_segment(&buf[..]).unwrap();
            prop_assert_eq!(&restored, &index);
            prop_assert_eq!(restored_docs.len(), docs.len());
        }
    }
}
