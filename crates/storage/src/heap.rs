//! Heap files: a table's tuples as a linked chain of slotted pages.
//!
//! Records are appended to the tail page, spilling into a freshly
//! allocated page when full. A record id ([`Rid`]) names a (page, slot)
//! pair and is what B+-tree indexes point at. Truncation reinitializes
//! the head page and abandons the rest of the chain onto the free list.
//!
//! Row-level DML works in place: [`HeapFile::delete`] tombstones a slot
//! (later rids on the page stay stable), and [`HeapFile::update`]
//! rewrites a record within its page when it still fits — falling back
//! to tombstone + re-append (a new rid the caller must repost in every
//! index) only when it no longer does. Scans skip tombstoned slots.
//! Dead cell space (tombstones, leaked grow-rewrites) is reclaimed
//! lazily: when an insert or rewrite would otherwise spill off the page
//! while [`crate::page::Page::fits_after_compact`] says compaction
//! would make it fit, the page is compacted in place first — so
//! DELETE-heavy workloads reuse their space instead of growing the
//! chain forever.
//!
//! Heap mutations go through [`BufferPool`] guards, so inside a WAL
//! transaction every touched page gets a before-image (rollback) and a
//! commit-time redo image automatically; this module never talks to the
//! log directly. Callers that mutate a `HeapFile` inside a transaction
//! must roll back their copy of the `first`/`last` pointers on abort
//! (the engine snapshots them alongside its catalog).

use crate::buffer::BufferPool;
use crate::metrics::bump;
use crate::page::{PageId, PageKind, NO_PAGE};
use crate::{StorageError, StorageResult};

/// A record id: which page, which slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    pub page: PageId,
    pub slot: u16,
}

impl Rid {
    pub const ENCODED_LEN: usize = 6;

    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.page.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
    }

    pub fn decode(bytes: &[u8]) -> StorageResult<Rid> {
        if bytes.len() < Self::ENCODED_LEN {
            return Err(StorageError::Corrupt("truncated rid".into()));
        }
        Ok(Rid {
            page: u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
            slot: u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")),
        })
    }

    /// The rid packed into one `u64` (16 bits of slot under the page
    /// id): what MVCC files versions under, what row locks are taken on
    /// and the relational layer's row id. In-place updates never change
    /// it (relocations do, but the lock on the old key is what
    /// serializes the relocating statement).
    pub fn key(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// The rid [`Rid::key`] packed.
    pub fn from_key(key: u64) -> Rid {
        Rid {
            page: (key >> 16) as PageId,
            slot: (key & 0xFFFF) as u16,
        }
    }
}

/// A heap file: head and tail of the page chain, and its length — the
/// pages a full scan reads, which the planner weighs index probes
/// against. The length lives in the descriptor so every path that saves
/// and restores a descriptor (abort compensation, catalog snapshots)
/// rolls it back with the tail it counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapFile {
    pub first: PageId,
    pub last: PageId,
    pub pages: u32,
}

impl HeapFile {
    /// Creates an empty heap with one page.
    pub fn create(pool: &BufferPool) -> StorageResult<HeapFile> {
        let (id, _guard) = pool.allocate(PageKind::Heap)?;
        Ok(HeapFile {
            first: id,
            last: id,
            pages: 1,
        })
    }

    /// Adopts an existing chain head (catalog bootstrap); walks the chain
    /// to find the tail and count its pages.
    pub fn open(pool: &BufferPool, first: PageId) -> StorageResult<HeapFile> {
        let mut last = first;
        let mut walked: u32 = 0;
        loop {
            walked = check_chain_step(pool, walked)?;
            let guard = pool.fetch(last)?;
            let next = guard.with(|p| p.next());
            if next == NO_PAGE {
                break;
            }
            last = next;
        }
        Ok(HeapFile {
            first,
            last,
            pages: walked,
        })
    }

    /// Appends one record, growing the chain if the tail page is full.
    /// A tail page whose dead bytes (tombstones, leaked rewrites) would
    /// make the record fit is compacted in place instead of spilling.
    pub fn insert(&mut self, pool: &BufferPool, record: &[u8]) -> StorageResult<Rid> {
        bump(&pool.metrics().heap_inserts);
        let tail = pool.fetch(self.last)?;
        if tail.with(|p| !p.fits(record.len()) && p.fits_after_compact(record.len())) {
            tail.with_mut(|p| p.compact())?;
            bump(&pool.metrics().heap_compactions);
        }
        if tail.with(|p| p.fits(record.len())) {
            let slot = tail.with_mut(|p| p.push_record(record))??;
            return Ok(Rid {
                page: self.last,
                slot: slot as u16,
            });
        }
        let (new_id, new_page) = pool.allocate(PageKind::Heap)?;
        let slot = new_page.with_mut(|p| p.push_record(record))??;
        tail.with_mut(|p| p.set_next(new_id))?;
        self.last = new_id;
        self.pages += 1;
        Ok(Rid {
            page: new_id,
            slot: slot as u16,
        })
    }

    /// Visits every live record in chain order (tombstoned slots are
    /// skipped). The callback receives copies page-by-page, so it may
    /// freely touch the pool itself.
    pub fn scan(&self, pool: &BufferPool, mut f: impl FnMut(Rid, &[u8])) -> StorageResult<()> {
        self.scan_while(pool, |rid, rec| {
            f(rid, rec);
            true
        })
    }

    /// Like [`HeapFile::scan`], but stops as soon as the callback
    /// returns `false` (early-exit existence probes).
    pub fn scan_while(
        &self,
        pool: &BufferPool,
        mut f: impl FnMut(Rid, &[u8]) -> bool,
    ) -> StorageResult<()> {
        let mut page_id = self.first;
        let mut walked: u32 = 0;
        while page_id != NO_PAGE {
            walked = check_chain_step(pool, walked)?;
            let guard = pool.fetch(page_id)?;
            let (records, next) = guard.with(|p| {
                let records: Vec<(u16, Vec<u8>)> = (0..p.slot_count())
                    .filter(|&i| p.is_live(i))
                    .map(|i| (i as u16, p.record(i).to_vec()))
                    .collect();
                (records, p.next())
            });
            drop(guard);
            for (slot, record) in &records {
                if !f(
                    Rid {
                        page: page_id,
                        slot: *slot,
                    },
                    record,
                ) {
                    return Ok(());
                }
            }
            page_id = next;
        }
        Ok(())
    }

    /// Fetches one live record by rid.
    pub fn fetch(&self, pool: &BufferPool, rid: Rid) -> StorageResult<Vec<u8>> {
        let guard = pool.fetch(rid.page)?;
        guard.with(|p| {
            if p.is_live(rid.slot as usize) {
                Ok(p.record(rid.slot as usize).to_vec())
            } else {
                Err(StorageError::Corrupt(format!(
                    "rid {rid:?} names no live record (page has {} slots)",
                    p.slot_count()
                )))
            }
        })
    }

    /// Tombstones the record at `rid`. Later rids stay valid; the slot
    /// itself is never reused.
    pub fn delete(&self, pool: &BufferPool, rid: Rid) -> StorageResult<()> {
        let guard = pool.fetch(rid.page)?;
        guard.with_mut(|p| p.remove_record(rid.slot as usize))?
    }

    /// Rewrites the record at `rid`, returning its (possibly new) rid.
    /// The rewrite stays in place whenever the record still fits its
    /// page — compacting the page's dead bytes first when that is what
    /// makes it fit; otherwise the old slot is tombstoned and the
    /// record re-appended at the chain tail — the caller must repost
    /// every index entry pointing at the old rid.
    pub fn update(&mut self, pool: &BufferPool, rid: Rid, record: &[u8]) -> StorageResult<Rid> {
        bump(&pool.metrics().heap_rewrites);
        let guard = pool.fetch(rid.page)?;
        if !guard.with(|p| p.is_live(rid.slot as usize)) {
            return Err(StorageError::Corrupt(format!(
                "update of {rid:?}: no live record there"
            )));
        }
        if guard.with_mut(|p| p.replace_record(rid.slot as usize, record))?? {
            return Ok(rid);
        }
        // A grown rewrite that spilled: the page's dead bytes may make
        // it fit in place once compacted. Only pay for the compaction
        // (a dirtied page, hence a logged image at commit) when it can
        // actually succeed: the slot is reused, so the cell needs
        // `record.len()` bytes of post-compaction free space.
        if guard.with(|p| p.dead_space() > 0 && p.free_space() + p.dead_space() >= record.len()) {
            guard.with_mut(|p| p.compact())?;
            bump(&pool.metrics().heap_compactions);
            if guard.with_mut(|p| p.replace_record(rid.slot as usize, record))?? {
                return Ok(rid);
            }
        }
        guard.with_mut(|p| p.remove_record(rid.slot as usize))??;
        drop(guard);
        self.insert(pool, record)
    }

    /// Number of live records (walks the chain).
    pub fn count(&self, pool: &BufferPool) -> StorageResult<usize> {
        let mut n = 0;
        let mut page_id = self.first;
        let mut walked: u32 = 0;
        while page_id != NO_PAGE {
            walked = check_chain_step(pool, walked)?;
            let guard = pool.fetch(page_id)?;
            let (count, next) = guard.with(|p| {
                (
                    (0..p.slot_count()).filter(|&i| p.is_live(i)).count(),
                    p.next(),
                )
            });
            n += count;
            page_id = next;
        }
        Ok(n)
    }

    /// Drops all records, keeping (and resetting) the head page.
    pub fn truncate(&mut self, pool: &BufferPool) -> StorageResult<()> {
        let guard = pool.fetch(self.first)?;
        guard.with_mut(|p| p.init(PageKind::Heap))?;
        self.last = self.first;
        self.pages = 1;
        Ok(())
    }

    /// The page ids of the chain *after* the head (what truncation
    /// abandons), in chain order. The engine hands these to the buffer
    /// pool's free list instead of leaking them.
    pub fn tail_pages(&self, pool: &BufferPool) -> StorageResult<Vec<PageId>> {
        let mut out = Vec::new();
        let mut page_id = self.first;
        let mut walked: u32 = 0;
        loop {
            walked = check_chain_step(pool, walked)?;
            let guard = pool.fetch(page_id)?;
            let next = guard.with(|p| p.next());
            if next == NO_PAGE {
                break;
            }
            out.push(next);
            page_id = next;
        }
        Ok(out)
    }

    /// Every page id of the chain, head included (what dropping the
    /// table abandons).
    pub fn all_pages(&self, pool: &BufferPool) -> StorageResult<Vec<PageId>> {
        let mut out = vec![self.first];
        out.extend(self.tail_pages(pool)?);
        Ok(out)
    }
}

/// Guards chain walks against cycles in corrupted `next` pointers: a
/// chain can never be longer than the number of allocated pages, so
/// walking further means a torn write bent a pointer backwards. Returns
/// the incremented step count.
fn check_chain_step(pool: &BufferPool, walked: u32) -> StorageResult<u32> {
    if walked >= pool.page_count() {
        return Err(StorageError::Corrupt(
            "page chain cycle: next pointers revisit a page".into(),
        ));
    }
    Ok(walked + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Pager::in_memory(), capacity, crate::wal::Wal::in_memory())
    }

    #[test]
    fn rid_key_roundtrips() {
        let r = Rid {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(Rid::from_key(r.key()), r);
    }

    #[test]
    fn insert_scan_fetch() {
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        let r0 = heap.insert(&pool, b"alpha").unwrap();
        let r1 = heap.insert(&pool, b"beta").unwrap();
        let mut seen = Vec::new();
        heap.scan(&pool, |rid, rec| seen.push((rid, rec.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(r0, b"alpha".to_vec()), (r1, b"beta".to_vec())]);
        assert_eq!(heap.fetch(&pool, r1).unwrap(), b"beta");
        assert_eq!(heap.count(&pool).unwrap(), 2);
        assert!(heap
            .fetch(
                &pool,
                Rid {
                    page: r0.page,
                    slot: 99
                }
            )
            .is_err());
    }

    #[test]
    fn grows_across_pages_under_tiny_pool() {
        let pool = pool(2);
        let mut heap = HeapFile::create(&pool).unwrap();
        let record = [7u8; 500];
        let mut rids = Vec::new();
        for _ in 0..50 {
            rids.push(heap.insert(&pool, &record).unwrap());
        }
        // 500-byte records, ~8 per 4 KiB page: several pages, 2 frames.
        let pages: std::collections::HashSet<PageId> = rids.iter().map(|r| r.page).collect();
        assert!(
            pages.len() >= 6,
            "expected multi-page heap, got {}",
            pages.len()
        );
        assert_eq!(
            heap.pages as usize,
            pages.len(),
            "the descriptor counts its chain"
        );
        assert_eq!(heap.count(&pool).unwrap(), 50);
        let mut n = 0;
        heap.scan(&pool, |_, rec| {
            assert_eq!(rec, &record);
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn reopen_finds_tail() {
        let pool = pool(3);
        let mut heap = HeapFile::create(&pool).unwrap();
        for _ in 0..50 {
            heap.insert(&pool, &[3u8; 500]).unwrap();
        }
        let reopened = HeapFile::open(&pool, heap.first).unwrap();
        assert_eq!(reopened, heap);
        let mut reopened = reopened;
        reopened.insert(&pool, b"tail").unwrap();
        assert_eq!(reopened.count(&pool).unwrap(), 51);
    }

    #[test]
    fn truncate_resets() {
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        for _ in 0..20 {
            heap.insert(&pool, &[1u8; 500]).unwrap();
        }
        assert!(heap.pages > 1);
        heap.truncate(&pool).unwrap();
        assert_eq!(heap.count(&pool).unwrap(), 0);
        assert_eq!(heap.first, heap.last);
        assert_eq!(heap.pages, 1);
        heap.insert(&pool, b"fresh").unwrap();
        assert_eq!(heap.count(&pool).unwrap(), 1);
    }

    #[test]
    fn chain_cycle_detected_not_hung() {
        // Regression: a corrupted next pointer forming a cycle used to
        // hang open/scan/count forever.
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        for _ in 0..30 {
            heap.insert(&pool, &[9u8; 500]).unwrap();
        }
        // Bend the tail's next pointer back to the head.
        let tail = pool.fetch(heap.last).unwrap();
        tail.with_mut(|p| p.set_next(heap.first)).unwrap();
        drop(tail);
        assert!(matches!(
            HeapFile::open(&pool, heap.first),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(heap.count(&pool), Err(StorageError::Corrupt(_))));
        assert!(matches!(
            heap.scan(&pool, |_, _| ()),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            heap.scan_while(&pool, |_, _| true),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn delete_tombstones_and_scans_skip() {
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        let rids: Vec<Rid> = (0..10)
            .map(|i| heap.insert(&pool, format!("r{i}").as_bytes()).unwrap())
            .collect();
        heap.delete(&pool, rids[3]).unwrap();
        heap.delete(&pool, rids[7]).unwrap();
        assert_eq!(heap.count(&pool).unwrap(), 8);
        let mut seen = Vec::new();
        heap.scan(&pool, |rid, rec| seen.push((rid, rec.to_vec())))
            .unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen
            .iter()
            .all(|(rid, _)| *rid != rids[3] && *rid != rids[7]));
        // Later rids are untouched by the tombstones before them.
        assert_eq!(heap.fetch(&pool, rids[4]).unwrap(), b"r4");
        assert!(heap.fetch(&pool, rids[3]).is_err());
        assert!(heap.delete(&pool, rids[3]).is_err(), "double delete");
    }

    #[test]
    fn update_in_place_keeps_rid_and_relocation_moves_it() {
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        let rid = heap.insert(&pool, b"original-record").unwrap();
        heap.insert(&pool, b"neighbor").unwrap();
        // Shrink and grow within the page: rid is stable.
        assert_eq!(heap.update(&pool, rid, b"tiny").unwrap(), rid);
        assert_eq!(heap.fetch(&pool, rid).unwrap(), b"tiny");
        let grown = vec![9u8; 600];
        assert_eq!(heap.update(&pool, rid, &grown).unwrap(), rid);
        assert_eq!(heap.fetch(&pool, rid).unwrap(), grown);
        // Fill the page so the next growth must relocate.
        while pool.fetch(rid.page).unwrap().with(|p| p.fits(400)) {
            heap.insert(&pool, &[1u8; 400]).unwrap();
        }
        let huge = vec![8u8; 2000];
        let moved = heap.update(&pool, rid, &huge).unwrap();
        assert_ne!(moved, rid, "record must relocate off the full page");
        assert_eq!(heap.fetch(&pool, moved).unwrap(), huge);
        assert!(heap.fetch(&pool, rid).is_err(), "old rid is a tombstone");
        let mut scanned = 0;
        heap.scan(&pool, |_, _| scanned += 1).unwrap();
        assert_eq!(heap.count(&pool).unwrap(), scanned);
    }

    #[test]
    fn delete_heavy_pages_reuse_their_dead_space() {
        // DELETE-heavy workloads used to tombstone cells forever; the
        // lazy compaction pass must let later inserts reuse the bytes
        // instead of growing the chain.
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        // Fill the single page to capacity.
        let mut rids = Vec::new();
        while pool.fetch(heap.last).unwrap().with(|p| p.fits(350)) {
            rids.push(heap.insert(&pool, &[7u8; 350]).unwrap());
        }
        assert_eq!(heap.first, heap.last);
        // Tombstone most of it, then refill with same-sized records:
        // every one must land in the reclaimed space of the same page.
        let keep = rids.pop().unwrap();
        for rid in &rids {
            heap.delete(&pool, *rid).unwrap();
        }
        let pages_before = pool.page_count();
        for _ in 0..rids.len() {
            heap.insert(&pool, &[9u8; 350]).unwrap();
        }
        assert_eq!(heap.first, heap.last, "chain must not grow");
        assert_eq!(pool.page_count(), pages_before);
        assert_eq!(heap.fetch(&pool, keep).unwrap(), [7u8; 350]);
        assert_eq!(heap.count(&pool).unwrap(), rids.len() + 1);
    }

    #[test]
    fn update_grows_in_place_through_compaction() {
        let pool = pool(4);
        let mut heap = HeapFile::create(&pool).unwrap();
        let keep = heap.insert(&pool, &[1u8; 1200]).unwrap();
        let doomed = heap.insert(&pool, &[2u8; 1200]).unwrap();
        heap.insert(&pool, &[3u8; 1200]).unwrap();
        heap.delete(&pool, doomed).unwrap();
        // Grown past the contiguous free space, but the tombstoned cell
        // covers it: the rid must stay put.
        let grown = vec![4u8; 1500];
        assert_eq!(heap.update(&pool, keep, &grown).unwrap(), keep);
        assert_eq!(heap.fetch(&pool, keep).unwrap(), grown);
        assert_eq!(heap.first, heap.last, "no relocation, no chain growth");
    }

    #[test]
    fn rid_codec_round_trip() {
        let rid = Rid {
            page: 123456,
            slot: 789,
        };
        let mut bytes = Vec::new();
        rid.encode(&mut bytes);
        assert_eq!(Rid::decode(&bytes).unwrap(), rid);
        assert!(Rid::decode(&bytes[..3]).is_err());
    }
}
