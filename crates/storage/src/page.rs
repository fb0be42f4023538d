//! Fixed-size slotted pages.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  next page id (NO_PAGE terminates chains)
//!      4     2  slot count
//!      6     2  free end: start of the cell region (cells grow downward)
//!      8     1  page kind
//!      9     3  reserved
//!     12     4  extra (B+-tree internal nodes: leftmost child page id)
//!     16     8  page LSN: log sequence number of the WAL record that
//!               last stamped this page (0 = never logged)
//!     24   4*n  slot array: (cell offset u16, cell length u16) per record
//!   free_end.. PAGE_SIZE  cell data
//! ```
//!
//! Slot-level deletion is a tombstone: the slot keeps its offset but
//! its length drops to 0, so record ids stay stable and scans skip the
//! slot (no live record is ever zero-length — heap tuples carry a
//! 2-byte count, index entries a key header). Cell bytes of tombstoned
//! or shrunk records accumulate as dead space until [`Page::compact`]
//! repacks the live cells against the page end — slot numbers (and so
//! rids) never change, only cell offsets move. The heap layer compacts
//! lazily: exactly when an insert or in-place rewrite would otherwise
//! spill to another page while dead bytes could make it fit.

use crate::{StorageError, StorageResult};

/// Page size in bytes. 4 KiB, the classical unit the paper's I/O cost
/// model counts.
pub const PAGE_SIZE: usize = 4096;

/// Identifies a page within the database file.
pub type PageId = u32;

/// Chain terminator / "no page" marker.
pub const NO_PAGE: PageId = u32::MAX;

const HEADER_SIZE: usize = 24;
/// Bytes of slot directory each record costs beside its cell.
pub const SLOT_SIZE: usize = 4;

/// What a page stores; persisted in the header so reopening a file can
/// sanity-check chains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PageKind {
    Free = 0,
    Heap = 1,
    BTreeLeaf = 2,
    BTreeInternal = 3,
    /// Engine metadata (one per database): the `extra` word holds the
    /// head of the free-page list.
    Meta = 4,
}

impl PageKind {
    pub fn from_u8(v: u8) -> StorageResult<PageKind> {
        match v {
            0 => Ok(PageKind::Free),
            1 => Ok(PageKind::Heap),
            2 => Ok(PageKind::BTreeLeaf),
            3 => Ok(PageKind::BTreeInternal),
            4 => Ok(PageKind::Meta),
            other => Err(StorageError::Corrupt(format!("unknown page kind {other}"))),
        }
    }
}

/// One fixed-size page. Boxed by all holders; the array never moves.
pub struct Page {
    bytes: [u8; PAGE_SIZE],
}

impl Page {
    /// A zeroed page (kind `Free`, no slots, no next).
    pub fn zeroed() -> Box<Page> {
        let mut page = Box::new(Page {
            bytes: [0; PAGE_SIZE],
        });
        page.init(PageKind::Free);
        page
    }

    /// Resets the page to an empty page of the given kind.
    pub fn init(&mut self, kind: PageKind) {
        self.bytes = [0; PAGE_SIZE];
        self.set_next(NO_PAGE);
        self.set_free_end(PAGE_SIZE as u16);
        self.bytes[8] = kind as u8;
    }

    pub fn kind(&self) -> StorageResult<PageKind> {
        PageKind::from_u8(self.bytes[8])
    }

    pub fn next(&self) -> PageId {
        u32::from_le_bytes(self.bytes[0..4].try_into().expect("4 bytes"))
    }

    pub fn set_next(&mut self, next: PageId) {
        self.bytes[0..4].copy_from_slice(&next.to_le_bytes());
    }

    /// Extra header word; B+-tree internal nodes keep their leftmost
    /// child here.
    pub fn extra(&self) -> u32 {
        u32::from_le_bytes(self.bytes[12..16].try_into().expect("4 bytes"))
    }

    pub fn set_extra(&mut self, v: u32) {
        self.bytes[12..16].copy_from_slice(&v.to_le_bytes());
    }

    /// Log sequence number of the WAL record that last captured this
    /// page's image (0 for pages that were never logged). The buffer
    /// pool stamps it at commit; recovery and the eviction rule compare
    /// it against the durable LSN.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.bytes[16..24].try_into().expect("8 bytes"))
    }

    pub fn set_lsn(&mut self, lsn: u64) {
        self.bytes[16..24].copy_from_slice(&lsn.to_le_bytes());
    }

    pub fn slot_count(&self) -> usize {
        u16::from_le_bytes(self.bytes[4..6].try_into().expect("2 bytes")) as usize
    }

    fn set_slot_count(&mut self, n: u16) {
        self.bytes[4..6].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> usize {
        u16::from_le_bytes(self.bytes[6..8].try_into().expect("2 bytes")) as usize
    }

    fn set_free_end(&mut self, v: u16) {
        self.bytes[6..8].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let base = HEADER_SIZE + i * SLOT_SIZE;
        let off = u16::from_le_bytes(self.bytes[base..base + 2].try_into().expect("2 bytes"));
        let len = u16::from_le_bytes(self.bytes[base + 2..base + 4].try_into().expect("2 bytes"));
        (off as usize, len as usize)
    }

    fn set_slot(&mut self, i: usize, off: u16, len: u16) {
        let base = HEADER_SIZE + i * SLOT_SIZE;
        self.bytes[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.bytes[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes still available for one more record (slot entry included).
    pub fn free_space(&self) -> usize {
        self.free_end()
            .saturating_sub(HEADER_SIZE + self.slot_count() * SLOT_SIZE)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Largest record an empty page can hold.
    pub fn max_record_len() -> usize {
        PAGE_SIZE - HEADER_SIZE - SLOT_SIZE
    }

    /// The record stored in slot `i`.
    pub fn record(&self, i: usize) -> &[u8] {
        let (off, len) = self.slot(i);
        &self.bytes[off..off + len]
    }

    /// Appends a record, returning its slot number.
    pub fn push_record(&mut self, data: &[u8]) -> StorageResult<usize> {
        let slot = self.slot_count();
        self.insert_record_at(slot, data)?;
        Ok(slot)
    }

    /// Inserts a record so it occupies slot `pos`, shifting later slots
    /// up by one (cell data is position-independent). Used by B+-tree
    /// nodes to keep their records sorted.
    pub fn insert_record_at(&mut self, pos: usize, data: &[u8]) -> StorageResult<()> {
        if data.len() > Self::max_record_len() {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        if !self.fits(data.len()) {
            return Err(StorageError::Internal("insert into full page".into()));
        }
        let count = self.slot_count();
        assert!(pos <= count, "slot position out of range");
        let off = self.free_end() - data.len();
        self.bytes[off..off + data.len()].copy_from_slice(data);
        // Shift the slot array open.
        for i in (pos..count).rev() {
            let (o, l) = self.slot(i);
            self.set_slot(i + 1, o as u16, l as u16);
        }
        self.set_slot(pos, off as u16, data.len() as u16);
        self.set_free_end(off as u16);
        self.set_slot_count((count + 1) as u16);
        Ok(())
    }

    /// Length of the record in slot `i` (0 = tombstoned).
    pub fn record_len(&self, i: usize) -> usize {
        self.slot(i).1
    }

    /// Whether slot `i` holds a live record.
    pub fn is_live(&self, i: usize) -> bool {
        i < self.slot_count() && self.record_len(i) > 0
    }

    /// Tombstones slot `i`: the slot entry stays (record ids of later
    /// slots are stable) but its length becomes 0, which scans skip.
    /// The cell bytes are not reclaimed.
    pub fn remove_record(&mut self, i: usize) -> StorageResult<()> {
        if i >= self.slot_count() {
            return Err(StorageError::Internal(format!(
                "remove of slot {i} out of range ({} slots)",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(i);
        if len == 0 {
            return Err(StorageError::Internal(format!(
                "slot {i} is already deleted"
            )));
        }
        self.set_slot(i, off as u16, 0);
        Ok(())
    }

    /// Rewrites the record in slot `i` without changing its slot number.
    /// Shrinking (or equal-size) rewrites happen in the existing cell;
    /// growing rewrites allocate a fresh cell from this page's free
    /// space (the old cell leaks until the page is rebuilt). Returns
    /// `false` when the new record no longer fits this page — the
    /// caller must relocate it (tombstone + re-insert elsewhere).
    pub fn replace_record(&mut self, i: usize, data: &[u8]) -> StorageResult<bool> {
        if data.len() > Self::max_record_len() {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        if data.is_empty() {
            // Length 0 is the tombstone encoding; writing it through
            // replace would silently delete the record.
            return Err(StorageError::Internal(
                "replace_record with an empty record (use remove_record)".into(),
            ));
        }
        if i >= self.slot_count() {
            return Err(StorageError::Internal(format!(
                "replace of slot {i} out of range ({} slots)",
                self.slot_count()
            )));
        }
        let (off, len) = self.slot(i);
        if len == 0 {
            return Err(StorageError::Internal(format!("slot {i} is deleted")));
        }
        if data.len() <= len {
            self.bytes[off..off + data.len()].copy_from_slice(data);
            self.set_slot(i, off as u16, data.len() as u16);
            return Ok(true);
        }
        // The slot entry is reused, so only the cell bytes must fit
        // (free_space already excludes the slot array).
        if self.free_space() >= data.len() {
            let new_off = self.free_end() - data.len();
            self.bytes[new_off..new_off + data.len()].copy_from_slice(data);
            self.set_slot(i, new_off as u16, data.len() as u16);
            self.set_free_end(new_off as u16);
            return Ok(true);
        }
        Ok(false)
    }

    /// Bytes an in-place [`Page::compact`] would reclaim: cells of
    /// tombstoned records, leaked cells of grown rewrites, and shrunk
    /// records' tails. 0 means the cell region is already packed.
    pub fn dead_space(&self) -> usize {
        let live: usize = (0..self.slot_count()).map(|i| self.record_len(i)).sum();
        (PAGE_SIZE - self.free_end()).saturating_sub(live)
    }

    /// Whether a record of `len` bytes would fit after compaction (slot
    /// entry included) even though it may not fit right now.
    pub fn fits_after_compact(&self, len: usize) -> bool {
        self.free_space() + self.dead_space() >= len + SLOT_SIZE
    }

    /// Repacks every live cell against the end of the page, reclaiming
    /// the dead bytes tombstones and rewrites left behind. Slot numbers
    /// are untouched (rids stay valid); only cell offsets move.
    /// Tombstoned slots keep their zero length. Returns the bytes
    /// reclaimed.
    pub fn compact(&mut self) -> usize {
        let dead = self.dead_space();
        if dead == 0 {
            return 0;
        }
        let mut packed = [0u8; PAGE_SIZE];
        let mut end = PAGE_SIZE;
        let mut offsets = Vec::with_capacity(self.slot_count());
        for i in 0..self.slot_count() {
            let (off, len) = self.slot(i);
            if len == 0 {
                offsets.push((off, 0));
                continue;
            }
            end -= len;
            packed[end..end + len].copy_from_slice(&self.bytes[off..off + len]);
            offsets.push((end, len));
        }
        self.bytes[end..PAGE_SIZE].copy_from_slice(&packed[end..PAGE_SIZE]);
        for (i, (off, len)) in offsets.into_iter().enumerate() {
            // Dead slots are re-pointed at the new free end: their old
            // offsets may now sit below it, which validate() rejects.
            let off = if len == 0 { end } else { off };
            self.set_slot(i, off as u16, len as u16);
        }
        self.set_free_end(end as u16);
        dead
    }

    /// Iterates over all records in slot order (tombstones included, as
    /// empty slices — B+-tree nodes never tombstone; heap readers skip
    /// zero-length slots).
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.slot_count()).map(move |i| self.record(i))
    }

    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Copies another page's contents wholesale.
    pub fn copy_from(&mut self, other: &Page) {
        self.bytes = other.bytes;
    }

    /// Structural validation of untrusted page bytes: kind tag, header
    /// offsets and every slot must be in bounds. Run by the buffer pool
    /// on every page faulted in from the pager, so a torn write or bit
    /// flip in a database file surfaces as [`StorageError::Corrupt`]
    /// instead of an out-of-bounds panic in [`Page::record`].
    pub fn validate(&self) -> StorageResult<()> {
        self.kind()?;
        let free_end = self.free_end();
        let count = self.slot_count();
        if free_end > PAGE_SIZE || HEADER_SIZE + count * SLOT_SIZE > free_end {
            return Err(StorageError::Corrupt(format!(
                "page header out of bounds: {count} slots, free end {free_end}"
            )));
        }
        for i in 0..count {
            let (off, len) = self.slot(i);
            if off < free_end || off + len > PAGE_SIZE {
                return Err(StorageError::Corrupt(format!(
                    "slot {i} out of bounds: offset {off}, length {len}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_header_round_trip() {
        let mut p = Page::zeroed();
        assert_eq!(p.kind().unwrap(), PageKind::Free);
        p.init(PageKind::Heap);
        assert_eq!(p.kind().unwrap(), PageKind::Heap);
        assert_eq!(p.next(), NO_PAGE);
        assert_eq!(p.slot_count(), 0);
        p.set_next(7);
        p.set_extra(99);
        p.set_lsn(0xdead_beef_0042);
        assert_eq!(p.next(), 7);
        assert_eq!(p.extra(), 99);
        assert_eq!(p.lsn(), 0xdead_beef_0042);
        p.init(PageKind::Heap);
        assert_eq!(p.lsn(), 0, "init must clear the page LSN");
    }

    #[test]
    fn push_and_read_records() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        let a = p.push_record(b"hello").unwrap();
        let b = p.push_record(b"world!").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.record(0), b"hello");
        assert_eq!(p.record(1), b"world!");
        let all: Vec<&[u8]> = p.records().collect();
        assert_eq!(all, vec![b"hello".as_slice(), b"world!".as_slice()]);
    }

    #[test]
    fn insert_at_keeps_order() {
        let mut p = Page::zeroed();
        p.init(PageKind::BTreeLeaf);
        p.push_record(b"a").unwrap();
        p.push_record(b"c").unwrap();
        p.insert_record_at(1, b"b").unwrap();
        let all: Vec<&[u8]> = p.records().collect();
        assert_eq!(all, vec![b"a".as_slice(), b"b".as_slice(), b"c".as_slice()]);
    }

    #[test]
    fn fills_up_and_reports_capacity() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        let record = [0u8; 100];
        let mut n = 0;
        while p.fits(record.len()) {
            p.push_record(&record).unwrap();
            n += 1;
        }
        // 4096 - 24 header = 4072; each record costs 104 bytes.
        assert_eq!(n, 39);
        assert!(p.push_record(&record).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        let big = vec![1u8; PAGE_SIZE];
        assert!(matches!(
            p.push_record(&big),
            Err(StorageError::RecordTooLarge(_))
        ));
        assert!(p.push_record(&vec![2u8; Page::max_record_len()]).is_ok());
    }

    #[test]
    fn remove_record_tombstones_without_moving_neighbors() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        p.push_record(b"first").unwrap();
        p.push_record(b"second").unwrap();
        p.push_record(b"third").unwrap();
        p.remove_record(1).unwrap();
        assert_eq!(p.slot_count(), 3, "slots are stable");
        assert!(p.is_live(0) && !p.is_live(1) && p.is_live(2));
        assert_eq!(p.record(0), b"first");
        assert_eq!(p.record(1), b"");
        assert_eq!(p.record(2), b"third");
        assert!(p.remove_record(1).is_err(), "double delete rejected");
        assert!(p.remove_record(9).is_err());
        p.validate().unwrap();
    }

    #[test]
    fn replace_record_in_place_and_grown() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        p.push_record(b"abcdef").unwrap();
        p.push_record(b"neighbor").unwrap();
        // Shrink: same cell.
        assert!(p.replace_record(0, b"xy").unwrap());
        assert_eq!(p.record(0), b"xy");
        assert_eq!(p.record(1), b"neighbor");
        // Grow: fresh cell from free space, same slot.
        assert!(p.replace_record(0, b"a-much-longer-record").unwrap());
        assert_eq!(p.record(0), b"a-much-longer-record");
        assert_eq!(p.record(1), b"neighbor");
        p.validate().unwrap();
        // Grow past the page's remaining space: refused, record intact.
        p.push_record(&vec![0u8; 3000]).unwrap();
        let free = p.free_space();
        assert!(free + 100 <= Page::max_record_len());
        assert!(!p.replace_record(0, &vec![7u8; free + 100]).unwrap());
        assert_eq!(p.record(0), b"a-much-longer-record");
        assert!(p.replace_record(9, b"x").is_err());
        assert!(matches!(
            p.replace_record(0, &vec![1u8; PAGE_SIZE]),
            Err(StorageError::RecordTooLarge(_))
        ));
        // An empty record is the tombstone encoding: rejected, not a
        // silent delete.
        assert!(p.replace_record(0, b"").is_err());
        assert!(p.is_live(0));
    }

    #[test]
    fn compact_reclaims_tombstoned_and_leaked_cells() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        for i in 0..8 {
            p.push_record(&vec![i as u8; 400]).unwrap();
        }
        // Tombstone half, shrink one, grow one (leaking its old cell).
        for i in [1usize, 3, 5, 7] {
            p.remove_record(i).unwrap();
        }
        assert!(p.replace_record(0, &[9u8; 100]).unwrap());
        assert!(p.replace_record(2, &[8u8; 450]).unwrap());
        let dead = p.dead_space();
        assert!(dead >= 4 * 400 + 300, "dead bytes accumulated: {dead}");
        let before: Vec<(bool, Vec<u8>)> = (0..p.slot_count())
            .map(|i| (p.is_live(i), p.record(i).to_vec()))
            .collect();
        let reclaimed = p.compact();
        assert_eq!(reclaimed, dead);
        assert_eq!(p.dead_space(), 0);
        p.validate().unwrap();
        let after: Vec<(bool, Vec<u8>)> = (0..p.slot_count())
            .map(|i| (p.is_live(i), p.record(i).to_vec()))
            .collect();
        assert_eq!(before, after, "compaction must not move slots");
        assert_eq!(p.compact(), 0, "already packed");
        // The reclaimed space is insertable again.
        assert!(p.fits(dead - SLOT_SIZE));
    }

    #[test]
    fn fits_after_compact_predicts_compaction() {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        let a = p.push_record(&vec![1u8; 2000]).unwrap();
        p.push_record(&vec![2u8; 1800]).unwrap();
        p.remove_record(a).unwrap();
        let big = vec![3u8; 2000];
        assert!(!p.fits(big.len()), "no contiguous room before compaction");
        assert!(p.fits_after_compact(big.len()));
        p.compact();
        let slot = p.push_record(&big).unwrap();
        assert_eq!(p.record(slot), &big[..]);
        assert_eq!(p.record(1), &[2u8; 1800][..], "neighbor survived");
        p.validate().unwrap();
    }

    #[test]
    fn kind_round_trip_and_corruption() {
        for kind in [
            PageKind::Free,
            PageKind::Heap,
            PageKind::BTreeLeaf,
            PageKind::BTreeInternal,
        ] {
            assert_eq!(PageKind::from_u8(kind as u8).unwrap(), kind);
        }
        assert!(PageKind::from_u8(42).is_err());
    }
}
