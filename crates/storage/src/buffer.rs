//! The buffer pool: a fixed set of in-memory frames between the engine
//! and the pager, with clock (second-chance) eviction, write-ahead
//! logging and multi-transaction bookkeeping.
//!
//! Access is guard-based: [`BufferPool::fetch`] returns a [`PinnedPage`]
//! that pins its frame for as long as it lives (pinned frames are never
//! evicted), so multi-page operations like B+-tree splits can hold a few
//! pages while faulting others in. The pool is `Send + Sync` and
//! **lock-striped**: the frame table is split into N shards (pages hash
//! to a stripe by id), each with its own page→slot map and clock hand,
//! so resident fetches on different stripes never contend on a shared
//! lock. Everything that *changes* the frame table — fault-ins,
//! evictions, allocation, transaction commit/abort, flush — additionally
//! holds the single `Core` mutex (pager, WAL, transaction table), in
//! strict `core → shard → frame latch` order; holding core therefore
//! freezes the whole table, which is what keeps multi-page operations
//! (free-list walks, contiguous commit logging) atomic without a global
//! frame lock. Every frame still carries its own latch, and guards touch
//! only their frame's latch — the shared server's sessions all funnel
//! through one pool.
//!
//! Transactions: every pool logs to a WAL. Any number of transactions
//! may be *open* at once — one per server session — but at most one is
//! *active* (joined by writes) at a time, because the engine executes
//! one statement at a time; sessions switch their
//! transaction in with [`BufferPool::resume_txn`] / out with
//! [`BufferPool::suspend_txn`]. Between begin and commit/abort, the
//! first write to each page saves an in-memory before-image and marks
//! the frame as owned by that transaction. A write to a frame owned by
//! a *different* open transaction fails with
//! [`StorageError::Conflict`] — the storage-level backstop beneath the
//! lock manager's row locks ([`crate::lock`]), which make such
//! collisions rare. The protocol is **steal / force-the-log**:
//!
//! * eviction prefers frames no open transaction owns, but when every
//!   unpinned frame is transaction-dirty it **steals** one: the frame's
//!   pre-transaction before-image is appended to the log as an
//!   `UndoImage` frame and *forced* (the write-ahead rule for undo),
//!   only then is the uncommitted content written to the database file
//!   and the frame evicted. A transaction's write set is therefore
//!   bounded by disk, not by pool frames; steals stay rare because they
//!   each cost a log force;
//! * a dirty frame may only be written back once its page LSN is
//!   covered by the durable log (`page.lsn() <= wal.durable_lsn()`);
//! * [`BufferPool::commit_txn`] appends `Begin`, one stamped page image
//!   per owned frame — plus a fresh image of every page the
//!   transaction stole that no owned frame still covers, re-read from
//!   the pool or the pager, so redo never depends on an unsynced
//!   data-file write — and `Commit`, then syncs the log — all under
//!   the pool lock, so the frames of one commit are always contiguous
//!   in the log and a failed commit can be physically rewound
//!   ([`crate::wal::Wal::discard_after`]) without touching any other
//!   transaction's frames;
//! * [`BufferPool::abort_txn`] restores every resident before-image and
//!   rolls stolen pages back from their logged undo images (newest
//!   first, so a twice-stolen page ends on its true pre-transaction
//!   state); pages the transaction allocated from the pager revert to
//!   free pages and are remembered in an in-memory recycle list so the
//!   next allocation reuses them instead of growing the file — stolen
//!   or not;
//! * crash recovery ([`crate::wal::Wal::recover`]) applies losers' undo
//!   images backwards before replaying committed redo images forwards,
//!   so stolen uncommitted writes never survive a crash.
//!
//! Allocation order: the recycle list first, then the persistent
//! free-page list (head in the meta page's `extra` word, pages chained
//! through their `next` pointers — see [`BufferPool::free_pages`]),
//! then appending a fresh page via the pager. Free-list maintenance is
//! opportunistic: when the meta page is owned by another open
//! transaction the pool silently falls back to appending (allocation)
//! or abandons the pages (reclamation) rather than conflicting.
//!
//! Counters: the pool counts into the registry its WAL created
//! ([`crate::metrics`]), the one set of counters per database. Every
//! miss that goes to the pager is a `fault_ins`, every fetch served
//! from a frame a `buffer_hits`, every write-back a `page_writes`, and
//! the log counts its own `wal_appends`. A statement reads its I/O as
//! deltas of that registry (`rqs::QueryMetrics`), so benchmarks report
//! saved page I/O — the paper's actual cost model — and what
//! durability costs next to it, without taking a pool lock.

use crate::metrics::{bump, StorageMetrics};
use crate::page::{Page, PageId, PageKind, NO_PAGE, PAGE_SIZE};
use crate::pager::Pager;
use crate::wal::{Wal, WalRecord};
use crate::{StorageError, StorageResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Identifies one write-ahead-log transaction. Ids are handed out by the
/// WAL, start at 1 and never repeat within a log generation; 0 is
/// reserved for "no transaction".
pub type TxnId = u64;

/// Locks a mutex, recovering the data if a previous holder panicked
/// (poisoning carries no extra invariant here: every critical section
/// leaves the structures consistent or returns an error first).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Frame {
    id: PageId,
    page: Box<Page>,
    dirty: bool,
    /// Clock reference bit (second chance).
    referenced: bool,
    /// Open transaction that wrote this frame; unevictable while set.
    owner: Option<TxnId>,
    /// Pre-transaction image and dirty flag, for rollback.
    before: Option<(Box<Page>, bool)>,
}

impl Frame {
    /// Captures the pre-transaction state on the first write inside a
    /// transaction.
    fn capture_before(&mut self, txn: TxnId) {
        let mut copy = Page::zeroed();
        copy.copy_from(&self.page);
        self.before = Some((copy, self.dirty));
        self.owner = Some(txn);
    }

    /// Admits (or rejects) a write under the currently active
    /// transaction (`0` = none), saving the before-image on the first
    /// touch. A frame owned by a different open transaction refuses the
    /// write — the page-level backstop beneath the row locks.
    fn prepare_write(&mut self, active: u64) -> StorageResult<()> {
        match self.owner {
            Some(owner) if owner == active => Ok(()),
            Some(owner) => Err(StorageError::Conflict(format!(
                "page {} is written by open transaction {owner}",
                self.id
            ))),
            None if active == 0 => Ok(()), // unlogged write outside any txn
            None => {
                self.capture_before(active);
                Ok(())
            }
        }
    }

    /// Restores the pre-transaction state (abort).
    fn rollback(&mut self) {
        if let Some((image, was_dirty)) = self.before.take() {
            self.page = image;
            self.dirty = was_dirty;
        }
        self.owner = None;
    }
}

/// Per-open-transaction bookkeeping.
#[derive(Default)]
struct TxnCtx {
    /// Pages this transaction allocated from the *pager* (not from the
    /// free list); recycled on abort so aborted allocations do not grow
    /// the file — even when the allocation was stolen before the abort.
    allocated: Vec<PageId>,
    /// Pages stolen from this transaction (evicted uncommitted, their
    /// undo images forced to the log). Commit logs a redo image for
    /// each one not covered by an owned frame; abort restores them from
    /// the log. May hold duplicates (a page can be stolen repeatedly).
    stolen: Vec<PageId>,
    /// Byte offsets of this transaction's `UndoImage` frames in the
    /// log, in append order: abort seek-reads exactly these, so its
    /// cost scales with the stolen set, not the log.
    undo_offsets: Vec<u64>,
}

/// One lock stripe of the frame table: the frames, page→slot map and
/// clock hand for the pages that hash to this stripe. A resident fetch
/// locks only its page's shard, so hits on different stripes never
/// contend; anything that inserts or evicts frames additionally holds
/// [`Core`] first (strict `core → shard` order), which makes "core
/// held" a freeze of the entire frame table.
struct Shard {
    frames: Vec<Arc<Mutex<Frame>>>,
    map: HashMap<PageId, usize>,
    hand: usize,
    /// This stripe's slice of the pool's frame budget.
    capacity: usize,
}

/// Everything the pool shares across shards: the pager and log, the
/// open-transaction table, free-page bookkeeping and failure parking.
/// Lock order is strictly `core → shard → frame latch`; the resident
/// fast path takes `shard → frame` only and never reaches for core.
struct Core {
    pager: Pager,
    wal: Wal,
    txns: HashMap<TxnId, TxnCtx>,
    /// Aborted-transaction allocations, reusable immediately (their disk
    /// image is a free page). In-memory only: lost on crash, at worst
    /// leaking the pages a crash already abandoned.
    recycled: Vec<PageId>,
    /// Page whose `extra` word anchors the persistent free-page list
    /// (set by the engine once the meta page exists).
    meta_page: Option<PageId>,
    /// Which open transaction stole each currently-stolen page. Faulting
    /// such a page back in restores the thief's ownership on the frame
    /// (with no in-memory before-image — the undo image is already in
    /// the log), so the cross-transaction `Conflict` backstop keeps
    /// holding for pages whose uncommitted content lives on disk.
    /// Entries die with their transaction.
    stolen_by: HashMap<PageId, TxnId>,
    /// Undo restores that hit an I/O error during an in-flight abort:
    /// page id → its correct (pre-transaction) image. Fault-ins serve
    /// from here instead of the stale disk bytes; [`BufferPool::flush`]
    /// retries the writes and fails while any remain, which keeps
    /// checkpoints from truncating the undo images recovery would need.
    pending_undo: HashMap<PageId, Box<Page>>,
    /// Set when an abort could not even *read* its undo images back
    /// from the log. Checkpoints are refused for the rest of the
    /// process lifetime: the log still holds the images, so crash
    /// recovery repairs what the live abort could not.
    undo_incomplete: bool,
}

/// A page pinned in the pool. Dropping the guard unpins it.
pub struct PinnedPage {
    frame: Arc<Mutex<Frame>>,
    active: Arc<AtomicU64>,
}

impl PinnedPage {
    /// Read access to the pinned page.
    pub fn with<R>(&self, f: impl FnOnce(&Page) -> R) -> R {
        f(&lock(&self.frame).page)
    }

    /// Write access; marks the frame dirty and, inside a transaction,
    /// saves the before-image on first touch. Fails with
    /// [`StorageError::Conflict`] if the frame is owned by a different
    /// open transaction.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        let mut frame = lock(&self.frame);
        frame.prepare_write(self.active.load(Ordering::SeqCst))?;
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    pub fn id(&self) -> PageId {
        lock(&self.frame).id
    }

    /// Read access that try-locks the frame latch first, counting a
    /// `btree_latch_waits` bump when another thread already holds it.
    /// The B+-tree's crabbing descents call this instead of
    /// [`PinnedPage::with`] so latch contention is observable.
    pub fn with_latched<R>(&self, metrics: &StorageMetrics, f: impl FnOnce(&Page) -> R) -> R {
        let frame = match self.frame.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                bump(&metrics.btree_latch_waits);
                lock(&self.frame)
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        f(&frame.page)
    }
}

/// The pool. `Arc` strong counts implement pinning: a frame whose only
/// holders are the pool itself is evictable.
pub struct BufferPool {
    core: Mutex<Core>,
    /// The lock-striped frame table; pages hash to a stripe by id.
    shards: Vec<Mutex<Shard>>,
    /// The transaction currently joined by writes (0 = none); shared
    /// with guards so `with_mut` can capture before-images without
    /// reaching back into the pool.
    active: Arc<AtomicU64>,
    capacity: usize,
    /// Lock-free handle on the WAL's observability registry: the shard
    /// fast path bumps hits without taking core, and the access methods
    /// (heap, B+-tree) count through the pool they already hold.
    metrics: Arc<StorageMetrics>,
}

impl BufferPool {
    /// A pool of `capacity` frames over the given pager, whose mutations
    /// can be grouped into transactions logged to `wal`. Capacities below
    /// 2 are raised to 2 (split operations pin two pages at once).
    pub fn new(pager: Pager, capacity: usize, wal: Wal) -> BufferPool {
        let metrics = Arc::clone(wal.metrics());
        let capacity = capacity.max(2);
        // One stripe per ~8 frames, capped at 16: tiny pools (component
        // tests, the 8-frame steal-pressure floor) collapse to a single
        // stripe and keep the exact legacy clock semantics; big pools
        // spread hit traffic across stripes.
        let n_shards = (capacity / 8).clamp(1, 16);
        let shards = (0..n_shards)
            .map(|i| {
                // Distribute the frame budget exactly: the first
                // `capacity % n_shards` stripes take one extra frame.
                let cap = capacity / n_shards + usize::from(i < capacity % n_shards);
                Mutex::new(Shard {
                    frames: Vec::new(),
                    map: HashMap::new(),
                    hand: 0,
                    capacity: cap,
                })
            })
            .collect();
        BufferPool {
            core: Mutex::new(Core {
                pager,
                wal,
                txns: HashMap::new(),
                recycled: Vec::new(),
                meta_page: None,
                stolen_by: HashMap::new(),
                pending_undo: HashMap::new(),
                undo_incomplete: false,
            }),
            shards,
            active: Arc::new(AtomicU64::new(0)),
            capacity,
            metrics,
        }
    }

    /// The stripe `id` hashes to.
    fn shard_for(&self, id: PageId) -> &Mutex<Shard> {
        &self.shards[id as usize % self.shards.len()]
    }

    /// Locks `id`'s stripe, counting contended acquisitions (the
    /// `pool_shard_conflicts` counter: how often striping still made
    /// someone wait).
    fn lock_shard(&self, id: PageId) -> MutexGuard<'_, Shard> {
        match self.shard_for(id).try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                bump(&self.metrics.pool_shard_conflicts);
                lock(self.shard_for(id))
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// The resident frame for `id`, if any — no fault-in, no hit
    /// accounting. Takes only the page's stripe, so it is safe with or
    /// without core held.
    fn resident(&self, id: PageId) -> Option<Arc<Mutex<Frame>>> {
        let shard = self.lock_shard(id);
        shard
            .map
            .get(&id)
            .map(|&slot| Arc::clone(&shard.frames[slot]))
    }

    /// Every frame in the pool, stripe by stripe. Callers hold core, so
    /// the table cannot change between stripes.
    fn all_frames(&self) -> Vec<Arc<Mutex<Frame>>> {
        let mut out = Vec::with_capacity(self.capacity);
        for shard in &self.shards {
            out.extend(lock(shard).frames.iter().map(Arc::clone));
        }
        out
    }

    /// The database's observability registry ([`crate::metrics`]):
    /// created by the WAL, incremented by the pool internals and by the
    /// access methods running over this pool.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages the pager has allocated.
    pub fn page_count(&self) -> u32 {
        lock(&self.core).pager.page_count()
    }

    /// Bytes currently sitting in the WAL.
    pub fn wal_len_bytes(&self) -> u64 {
        lock(&self.core).wal.len_bytes()
    }

    /// Anchors the persistent free-page list at `page`'s `extra` word
    /// (the engine's meta page). `None` disables the list (pre-meta
    /// database files).
    pub fn set_meta_page(&self, page: Option<PageId>) {
        lock(&self.core).meta_page = page;
    }

    /// The transaction currently joined by writes, if any.
    pub fn active_txn(&self) -> Option<TxnId> {
        match self.active.load(Ordering::SeqCst) {
            0 => None,
            id => Some(id),
        }
    }

    /// Whether a transaction is active (joined by writes).
    pub fn in_txn(&self) -> bool {
        self.active_txn().is_some()
    }

    /// Number of open (possibly suspended) transactions.
    pub fn open_txn_count(&self) -> usize {
        lock(&self.core).txns.len()
    }

    /// Opens a transaction and makes it the active one. Fails if another
    /// transaction is currently active (suspend it first).
    pub fn begin_txn(&self) -> StorageResult<TxnId> {
        let mut core = lock(&self.core);
        if self.active.load(Ordering::SeqCst) != 0 {
            return Err(StorageError::Internal(
                "another transaction is active; suspend or finish it first".into(),
            ));
        }
        let id = core.wal.begin_txn_id();
        core.txns.insert(id, TxnCtx::default());
        self.active.store(id, Ordering::SeqCst);
        Ok(id)
    }

    /// Makes an open transaction the active one (a session switching its
    /// transaction in before a statement).
    pub fn resume_txn(&self, id: TxnId) -> StorageResult<()> {
        let core = lock(&self.core);
        if !core.txns.contains_key(&id) {
            return Err(StorageError::Internal(format!(
                "resume of unknown transaction {id}"
            )));
        }
        let current = self.active.load(Ordering::SeqCst);
        if current != 0 && current != id {
            return Err(StorageError::Internal(format!(
                "transaction {current} is active; suspend it before resuming {id}"
            )));
        }
        self.active.store(id, Ordering::SeqCst);
        Ok(())
    }

    /// Detaches the active transaction (it stays open; its frames stay
    /// owned and unevictable). A no-op when none is active.
    pub fn suspend_txn(&self) {
        self.active.store(0, Ordering::SeqCst);
    }

    /// Commits an open transaction: logs `Begin`, a stamped image of
    /// every owned page (plus a fresh image of every stolen page no
    /// owned frame still covers — their uncommitted content reached the
    /// database file through an unsynced write, and redo must never
    /// depend on one), `Commit`, then forces the log. On any error the
    /// transaction is rolled back (as [`BufferPool::abort_txn`]) before
    /// the error is returned. The whole commit runs under the pool lock,
    /// so its frames are contiguous in the log and a failed commit is
    /// physically rewound without touching other transactions.
    pub fn commit_txn(&self, id: TxnId) -> StorageResult<()> {
        let start = std::time::Instant::now();
        let mut core = lock(&self.core);
        let core = &mut *core;
        if !core.txns.contains_key(&id) {
            return Err(StorageError::Internal(format!(
                "commit of unknown transaction {id}"
            )));
        }
        // Core is held for the whole commit; every fault-in or eviction
        // also needs core, so the frame table is frozen and the shard
        // walks below see a consistent cut.
        let touched: Vec<Arc<Mutex<Frame>>> = self
            .all_frames()
            .into_iter()
            .filter(|f| lock(f).owner == Some(id))
            .collect();
        // Stolen pages whose current content an owned frame does NOT
        // carry: re-owned resident pages are logged from their frame
        // above; the rest are read back (from an unowned frame or the
        // pager — the stolen write is visible through the file handle).
        let mut stolen: Vec<PageId> = core
            .txns
            .get(&id)
            .map(|ctx| ctx.stolen.clone())
            .unwrap_or_default();
        stolen.sort_unstable();
        stolen.dedup();
        stolen.retain(|&pid| match self.resident(pid) {
            Some(frame) => lock(&frame).owner != Some(id),
            None => true,
        });
        if touched.is_empty() && stolen.is_empty() {
            // Read-only transaction: nothing to log.
            self.finish_txn(core, id);
            return Ok(());
        }
        let mark = core.wal.mark();
        let logged = {
            let Core { pager, wal, .. } = core;
            self.log_commit(pager, wal, id, &touched, &stolen)
        };
        match logged {
            Ok(()) => {
                for frame in &touched {
                    let mut frame = lock(frame);
                    frame.owner = None;
                    frame.before = None;
                }
                self.finish_txn(core, id);
                // Only committed forces count: a rewound commit never
                // made anything durable.
                self.metrics
                    .histograms
                    .commit
                    .record(start.elapsed().as_nanos() as u64);
                Ok(())
            }
            Err(e) => {
                // Rewind the half-logged (or fully logged but unsynced)
                // commit out of the log, then roll the pages back.
                core.wal.discard_after(mark);
                self.rollback_txn_locked(core, id);
                Err(e)
            }
        }
    }

    /// The logging half of [`BufferPool::commit_txn`]: `Begin`, one
    /// stamped image per owned frame and per uncovered stolen page,
    /// `Commit`, force. The caller holds core.
    fn log_commit(
        &self,
        pager: &mut Pager,
        wal: &mut Wal,
        id: TxnId,
        touched: &[Arc<Mutex<Frame>>],
        stolen: &[PageId],
    ) -> StorageResult<()> {
        wal.append(&WalRecord::Begin { txn: id })?;
        for frame in touched {
            let mut frame = lock(frame);
            // Stamp the image with the LSN its Update frame will
            // get, both in the resident page and in the logged copy.
            frame.page.set_lsn(wal.next_lsn());
            wal.append(&WalRecord::Update {
                txn: id,
                page: frame.id,
                image: Box::new(*frame.page.as_bytes()),
            })?;
        }
        for &pid in stolen {
            let mut image = Page::zeroed();
            match self.resident(pid) {
                Some(frame) => image.copy_from(&lock(&frame).page),
                None => pager.read(pid, &mut image)?,
            }
            image.set_lsn(wal.next_lsn());
            wal.append(&WalRecord::Update {
                txn: id,
                page: pid,
                image: Box::new(*image.as_bytes()),
            })?;
        }
        wal.append(&WalRecord::Commit { txn: id })?;
        wal.sync()
    }

    /// Rolls an open transaction back: every owned frame reverts to its
    /// before-image, stolen pages are restored from their logged undo
    /// images, and pages the transaction allocated from the pager are
    /// queued for reuse. A no-op for an unknown id; never fails.
    pub fn abort_txn(&self, id: TxnId) {
        let mut core = lock(&self.core);
        self.rollback_txn_locked(&mut core, id);
    }

    /// Removes transaction bookkeeping after a commit (or an empty
    /// transaction) and deactivates it if it was active.
    fn finish_txn(&self, core: &mut Core, id: TxnId) {
        core.txns.remove(&id);
        core.stolen_by.retain(|_, t| *t != id);
        let _ = self
            .active
            .compare_exchange(id, 0, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn rollback_txn_locked(&self, core: &mut Core, id: TxnId) {
        let Some(ctx) = core.txns.remove(&id) else {
            return;
        };
        for frame in self.all_frames() {
            let mut frame = lock(&frame);
            if frame.owner == Some(id) {
                frame.rollback();
            }
        }
        // After the resident rollbacks: the reverse walk below ends on
        // each stolen page's true pre-transaction image.
        if !ctx.undo_offsets.is_empty() {
            self.restore_stolen(core, &ctx.undo_offsets);
        }
        core.stolen_by.retain(|_, t| *t != id);
        core.recycled.extend(ctx.allocated);
        let _ = self
            .active
            .compare_exchange(id, 0, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Rolls an aborting transaction's stolen pages back from their
    /// logged undo images — per page, the *earliest* image is the
    /// pre-transaction state. Resident frames are overwritten in place
    /// (dirty, carrying the image's old page LSN, so write-back stays
    /// legal); evicted pages are rewritten in the database file. An
    /// image whose disk write fails parks in [`Core::pending_undo`]
    /// (served to fault-ins, retried by flush, blocking checkpoints),
    /// and a failure to even read the log back sets
    /// [`Core::undo_incomplete`], which pins the log until the process
    /// restarts — either way the undo images outlive the failure, so
    /// recovery can finish the rollback.
    fn restore_stolen(&self, core: &mut Core, undo_offsets: &[u64]) {
        let Core {
            pager,
            wal,
            pending_undo,
            undo_incomplete,
            ..
        } = core;
        // Walking backwards and overwriting leaves each page's earliest
        // (pre-transaction) image. A frame that cannot be read back
        // pins the log (checkpoints refused) so recovery can still
        // finish the rollback; the rest restore regardless.
        let mut finals: HashMap<PageId, Box<[u8; PAGE_SIZE]>> = HashMap::new();
        for &offset in undo_offsets.iter().rev() {
            match wal.undo_image_at(offset) {
                Ok((pid, image)) => {
                    finals.insert(pid, image);
                }
                Err(_) => *undo_incomplete = true,
            }
        }
        for (pid, image) in finals {
            match self.resident(pid) {
                Some(frame) => {
                    let mut frame = lock(&frame);
                    frame.page.as_bytes_mut().copy_from_slice(&image[..]);
                    frame.dirty = true;
                    frame.owner = None;
                    frame.before = None;
                }
                None => {
                    let mut page = Page::zeroed();
                    page.as_bytes_mut().copy_from_slice(&image[..]);
                    if pager.write(pid, &page).is_err() {
                        pending_undo.insert(pid, page);
                    }
                }
            }
        }
    }

    /// Allocates a page of the given kind and pins it: first from the
    /// recycle list (aborted allocations), then from the persistent
    /// free list, then by appending a fresh page via the pager.
    pub fn allocate(&self, kind: PageKind) -> StorageResult<(PageId, PinnedPage)> {
        let mut core = lock(&self.core);
        let core = &mut *core;
        let active = self.active.load(Ordering::SeqCst);

        // 1. Recycled pages: Free on disk, not on the persistent list.
        // Only *transactional* allocations may reuse them: a recycled
        // page that was stolen before its transaction aborted still has
        // an UndoImage in the log, and recovery would replay that image
        // over an *unlogged* reuse (index bulk builds) — the same rule
        // the persistent free list enforces below.
        if active != 0 {
            let mut skipped = Vec::new();
            let mut reuse: Option<PageId> = None;
            while let Some(id) = core.recycled.pop() {
                if id >= core.pager.page_count() {
                    continue; // stale entry (should not happen; be safe)
                }
                if let Some(frame) = self.resident(id) {
                    let usable = Arc::strong_count(&frame) <= 2 && lock(&frame).owner.is_none();
                    if !usable {
                        skipped.push(id);
                        continue;
                    }
                }
                reuse = Some(id);
                break;
            }
            core.recycled.extend(skipped);
            if let Some(id) = reuse {
                let guard = self.adopt_free_page(core, id, kind, active, true)?;
                return Ok((id, guard));
            }
        }

        // 2. Persistent free list (opportunistic).
        if let Some(id) = self.pop_free_list(core, active)? {
            let guard = self.adopt_free_page(core, id, kind, active, false)?;
            return Ok((id, guard));
        }

        // 3. Append a fresh page.
        let id = core.pager.allocate()?;
        let mut page = Page::zeroed();
        page.init(kind);
        let mut frame = Frame {
            id,
            page,
            dirty: true,
            referenced: true,
            owner: None,
            before: None,
        };
        if active != 0 {
            // A brand-new page's before-image is a free page: aborting
            // abandons the allocation (and recycles the id).
            frame.before = Some((Page::zeroed(), false));
            frame.owner = Some(active);
            if let Some(ctx) = core.txns.get_mut(&active) {
                ctx.allocated.push(id);
            }
        }
        let frame = Arc::new(Mutex::new(frame));
        {
            let mut shard = self.lock_shard(id);
            let slot = self.place(core, &mut shard, Arc::clone(&frame))?;
            shard.map.insert(id, slot);
        }
        Ok((
            id,
            PinnedPage {
                frame,
                active: Arc::clone(&self.active),
            },
        ))
    }

    /// Turns a known-free page into a fresh allocation of `kind`,
    /// faulting it in if needed. `recyclable` records the page in the
    /// active transaction's allocation list (recycle-list pages revert
    /// to the recycle list on abort; free-list pages revert through
    /// their own restored pointers instead).
    fn adopt_free_page(
        &self,
        core: &mut Core,
        id: PageId,
        kind: PageKind,
        active: u64,
        recyclable: bool,
    ) -> StorageResult<PinnedPage> {
        // The page is being re-materialized from scratch: a parked undo
        // image for it (failed abort restore) is superseded — leaving
        // it behind would overlay stale bytes on a later fault-in. But
        // its existence means the *disk* copy is not the free page the
        // fast path below assumes, so the frame must start dirty: even
        // if the adopting transaction aborts, the rolled-back free page
        // then gets written over the stale bytes.
        let disk_stale = core.pending_undo.remove(&id).is_some();
        let frame = match self.resident(id) {
            Some(frame) => frame,
            None => {
                // Disk holds a free page (unless a failed undo restore
                // says otherwise); no need to read it back.
                let frame = Arc::new(Mutex::new(Frame {
                    id,
                    page: Page::zeroed(),
                    dirty: disk_stale,
                    referenced: true,
                    owner: None,
                    before: None,
                }));
                let mut shard = self.lock_shard(id);
                let slot = self.place(core, &mut shard, Arc::clone(&frame))?;
                shard.map.insert(id, slot);
                frame
            }
        };
        {
            let mut f = lock(&frame);
            f.prepare_write(active)?;
            f.page.init(kind);
            f.dirty = true;
            f.referenced = true;
        }
        if recyclable && active != 0 {
            if let Some(ctx) = core.txns.get_mut(&active) {
                ctx.allocated.push(id);
            }
        }
        Ok(PinnedPage {
            frame,
            active: Arc::clone(&self.active),
        })
    }

    /// Pops the head of the persistent free list, updating the meta
    /// page under the active transaction (both writes get before-images,
    /// so an abort relinks the list). Returns `None` — falling back to
    /// a pager append — when there is no meta page, the list is empty,
    /// or the involved pages are owned by another open transaction.
    fn pop_free_list(&self, core: &mut Core, active: u64) -> StorageResult<Option<PageId>> {
        // Only transactional allocations may reuse listed pages: a
        // listed page's Free image sits in the log (the reclaim commit
        // wrote it), so an *unlogged* reuse (index bulk builds) would
        // be clobbered when recovery replays that Free image. Inside a
        // transaction the reuse is logged with a later LSN and replays
        // after the Free image, in order.
        if active == 0 {
            return Ok(None);
        }
        let Some(meta_id) = core.meta_page else {
            return Ok(None);
        };
        let meta = self.frame_at_locked(core, meta_id)?;
        let head = {
            let m = lock(&meta);
            // `active != 0` is guaranteed by the guard above.
            if m.owner.is_some() && m.owner != Some(active) {
                return Ok(None);
            }
            m.page.extra()
        };
        if head == NO_PAGE || head >= core.pager.page_count() {
            return Ok(None);
        }
        let head_frame = self.frame_at_locked(core, head)?;
        let next = {
            let h = lock(&head_frame);
            let foreign = h.owner.is_some() && h.owner != Some(active);
            if foreign || h.page.kind() != Ok(PageKind::Free) || Arc::strong_count(&head_frame) > 2
            {
                return Ok(None); // corrupt list head or page in use: leave it
            }
            h.page.next()
        };
        {
            let mut m = lock(&meta);
            if m.prepare_write(active).is_err() {
                return Ok(None);
            }
            m.page.set_extra(next);
            m.dirty = true;
        }
        Ok(Some(head))
    }

    /// Links `ids` into the persistent free list for reuse by later
    /// allocations. Best-effort: pages (or the meta page) owned by
    /// another open transaction are skipped — a skipped page is merely
    /// leaked, exactly what happened before the free list existed.
    /// Returns how many pages were actually linked. Runs under the
    /// caller's transaction, so an abort restores every pointer.
    pub fn free_pages(&self, ids: &[PageId]) -> StorageResult<usize> {
        let mut core = lock(&self.core);
        let core = &mut *core;
        let active = self.active.load(Ordering::SeqCst);
        let Some(meta_id) = core.meta_page else {
            return Ok(0);
        };
        let meta = self.frame_at_locked(core, meta_id)?;
        let mut head = {
            let mut m = lock(&meta);
            if m.prepare_write(active).is_err() {
                return Ok(0);
            }
            m.page.extra()
        };
        let mut freed = 0;
        for &id in ids {
            if id == meta_id || id >= core.pager.page_count() {
                continue;
            }
            let frame = self.frame_at_locked(core, id)?;
            {
                let mut f = lock(&frame);
                if Arc::strong_count(&frame) > 2 || f.prepare_write(active).is_err() {
                    continue; // pinned or foreign-owned: leak it instead
                }
                f.page.init(PageKind::Free);
                f.page.set_next(head);
                f.dirty = true;
            }
            head = id;
            freed += 1;
        }
        if freed > 0 {
            let mut m = lock(&meta);
            m.prepare_write(active)?; // succeeded above; same txn
            m.page.set_extra(head);
            m.dirty = true;
        }
        Ok(freed)
    }

    /// Number of pages on the persistent free list (walks the chain;
    /// diagnostics and tests).
    pub fn free_list_len(&self) -> StorageResult<usize> {
        let mut core = lock(&self.core);
        let core = &mut *core;
        let Some(meta_id) = core.meta_page else {
            return Ok(0);
        };
        let meta = self.frame_at_locked(core, meta_id)?;
        let mut cursor = lock(&meta).page.extra();
        let mut n = 0usize;
        while cursor != NO_PAGE {
            if n as u32 >= core.pager.page_count() {
                return Err(StorageError::Corrupt(
                    "free list cycle: next pointers revisit a page".into(),
                ));
            }
            let frame = self.frame_at_locked(core, cursor)?;
            cursor = lock(&frame).page.next();
            n += 1;
        }
        Ok(n)
    }

    /// Fetches a page, from a frame if resident, else from the pager.
    pub fn fetch(&self, id: PageId) -> StorageResult<PinnedPage> {
        // Fast path: a resident page takes only its shard stripe, so
        // hits on different stripes run fully in parallel.
        {
            let shard = self.lock_shard(id);
            if let Some(&slot) = shard.map.get(&id) {
                let frame = Arc::clone(&shard.frames[slot]);
                drop(shard);
                bump(&self.metrics.buffer_hits);
                lock(&frame).referenced = true;
                return Ok(PinnedPage {
                    frame,
                    active: Arc::clone(&self.active),
                });
            }
        }
        // Miss: fault in under core (lock order core → shard).
        let mut core = lock(&self.core);
        let frame = self.frame_at_locked(&mut core, id)?;
        Ok(PinnedPage {
            frame,
            active: Arc::clone(&self.active),
        })
    }

    /// Resident frame for `id`, faulting it in (and evicting) if needed.
    /// The caller holds core; residency is rechecked after relocking the
    /// stripe because another thread may have faulted the page in
    /// between the caller's miss and its core acquisition. The returned
    /// `Arc` itself protects the frame from eviction while held (strong
    /// count ≥ 3 during the clock sweep's check).
    fn frame_at_locked(&self, core: &mut Core, id: PageId) -> StorageResult<Arc<Mutex<Frame>>> {
        {
            let shard = self.lock_shard(id);
            if let Some(&slot) = shard.map.get(&id) {
                let frame = Arc::clone(&shard.frames[slot]);
                drop(shard);
                bump(&self.metrics.buffer_hits);
                lock(&frame).referenced = true;
                return Ok(frame);
            }
        }
        bump(&self.metrics.fault_ins);
        let start = std::time::Instant::now();
        let mut page = Page::zeroed();
        let mut dirty = false;
        match core.pending_undo.remove(&id) {
            // An aborted restore that never reached the disk: the
            // correct image is carried here instead of the file.
            Some(image) => {
                bump(&self.metrics.pending_undo_restores);
                page = image;
                dirty = true;
            }
            None => {
                core.pager.read(id, &mut page)?;
                page.validate()?;
            }
        }
        // One record per fault_ins bump (a parked-undo serve measures
        // the copy, not a pager read) so histogram count == counter.
        self.metrics
            .histograms
            .fault_in
            .record(start.elapsed().as_nanos() as u64);
        // A stolen page faulted back in still belongs to its thief: the
        // on-disk content is that transaction's uncommitted write, so
        // the frame keeps the owner (foreign writes stay `Conflict`s)
        // but no in-memory before-image — the undo is already logged.
        let owner = core.stolen_by.get(&id).copied();
        let frame = Arc::new(Mutex::new(Frame {
            id,
            page,
            dirty,
            referenced: true,
            owner,
            before: None,
        }));
        let mut shard = self.lock_shard(id);
        let slot = self.place(core, &mut shard, Arc::clone(&frame))?;
        shard.map.insert(id, slot);
        Ok(frame)
    }

    /// Finds a slot for a new frame in its stripe, evicting with the
    /// clock policy when the stripe is full. Pinned frames (strong
    /// count > 2) and dirty frames whose LSN is past the durable log
    /// (write-ahead rule) are skipped; frames owned by an open
    /// transaction are a last resort — when nothing else is evictable
    /// one is **stolen** ([`BufferPool::steal`]), so a write set larger
    /// than the pool spills to disk instead of failing. The caller
    /// holds core (eviction writes back through the pager/log) and the
    /// stripe.
    fn place(
        &self,
        core: &mut Core,
        shard: &mut Shard,
        frame: Arc<Mutex<Frame>>,
    ) -> StorageResult<usize> {
        if shard.frames.len() < shard.capacity {
            shard.frames.push(frame);
            return Ok(shard.frames.len() - 1);
        }
        let n = shard.frames.len();
        // Pass 1 — the plain clock over unowned frames. Two sweeps clear
        // every reference bit; a third guarantees that an evictable
        // frame, if any exists, is found.
        for _ in 0..3 * n {
            let slot = shard.hand;
            shard.hand = (shard.hand + 1) % n;
            bump(&self.metrics.clock_sweeps);
            let candidate = Arc::clone(&shard.frames[slot]);
            if Arc::strong_count(&candidate) > 2 {
                continue; // pinned by a live guard (shard + candidate + guard)
            }
            let mut victim = lock(&candidate);
            if victim.owner.is_some() {
                continue; // owned frames cost a log force: pass 2's last resort
            }
            if victim.dirty {
                // Write-ahead: never let a page overtake the log it
                // depends on. Commit forces the log, so this only
                // triggers if an unlogged mutation path appears.
                if victim.page.lsn() > core.wal.durable_lsn() {
                    continue;
                }
            }
            if victim.referenced {
                victim.referenced = false;
                continue;
            }
            if victim.dirty {
                bump(&self.metrics.page_writes);
                let Frame { id, ref page, .. } = *victim;
                core.pager.write(id, page)?;
            }
            bump(&self.metrics.evictions);
            let old_id = victim.id;
            drop(victim);
            shard.map.remove(&old_id);
            shard.frames[slot] = frame;
            return Ok(slot);
        }
        // Pass 2 — steal: every unpinned frame belongs to an open
        // transaction. Evict one anyway, with its undo image forced to
        // the log first.
        for _ in 0..n {
            let slot = shard.hand;
            shard.hand = (shard.hand + 1) % n;
            let candidate = Arc::clone(&shard.frames[slot]);
            if Arc::strong_count(&candidate) > 2 {
                continue;
            }
            {
                let victim = lock(&candidate);
                if victim.owner.is_none() {
                    continue; // unowned yet unevictable (see pass 1)
                }
            }
            self.steal(core, &candidate)?;
            let old_id = lock(&candidate).id;
            shard.map.remove(&old_id);
            shard.frames[slot] = frame;
            return Ok(slot);
        }
        Err(StorageError::Internal(format!(
            "buffer pool exhausted: all {n} frames of the page's stripe pinned or unevictable"
        )))
    }

    /// Steals one transaction-owned frame: forces its pre-transaction
    /// before-image to the log as an `UndoImage` (write-ahead rule for
    /// undo — without it a crash could leave uncommitted bytes in the
    /// database file with no way back), then writes the uncommitted
    /// content to the database file and evicts the frame. The page id is
    /// recorded in the owner's context (commit logs its redo image,
    /// abort restores it) and in [`Core::stolen_by`] (a re-fault
    /// restores the thief's ownership). A page stolen for the *second*
    /// time carries no in-memory before-image — its undo is already in
    /// the log from the first steal, so nothing new is appended.
    fn steal(&self, core: &mut Core, candidate: &Arc<Mutex<Frame>>) -> StorageResult<()> {
        let (owner, id, record) = {
            let victim = lock(candidate);
            let owner = victim.owner.expect("steal candidates are owned");
            let record = victim
                .before
                .as_ref()
                .map(|(before, _)| WalRecord::UndoImage {
                    txn: owner,
                    page: victim.id,
                    image: Box::new(*before.as_bytes()),
                });
            (owner, victim.id, record)
        };
        if let Some(record) = record {
            let wal = &mut core.wal;
            let offset = wal.len_bytes();
            wal.append(&record)?;
            wal.sync()?;
            if let Some(ctx) = core.txns.get_mut(&owner) {
                ctx.undo_offsets.push(offset);
            }
        }
        {
            let mut victim = lock(candidate);
            bump(&self.metrics.page_writes);
            let Frame { id, ref page, .. } = *victim;
            core.pager.write(id, page)?;
            victim.owner = None;
            victim.before = None;
            victim.dirty = false;
        }
        bump(&self.metrics.steals);
        core.stolen_by.insert(id, owner);
        if let Some(ctx) = core.txns.get_mut(&owner) {
            ctx.stolen.push(id);
        }
        Ok(())
    }

    /// Writes every committed dirty frame back and syncs file-backed
    /// storage. Frames owned by open transactions are skipped (flush
    /// never steals — only eviction pressure pays the undo-logging
    /// cost); the log is left alone — see [`BufferPool::checkpoint`]
    /// for write-back plus log truncation.
    pub fn flush(&self) -> StorageResult<()> {
        let mut core = lock(&self.core);
        let core = &mut *core;
        // Parked undo restores first: until they land, the disk holds
        // rolled-back uncommitted bytes.
        let pending: Vec<PageId> = core.pending_undo.keys().copied().collect();
        for pid in pending {
            let page = core.pending_undo.remove(&pid).expect("collected above");
            if self.resident(pid).is_some() {
                // A fault-in adopted the image meanwhile; the frame
                // write-back below covers it.
                continue;
            }
            bump(&self.metrics.page_writes);
            if let Err(e) = core.pager.write(pid, &page) {
                core.pending_undo.insert(pid, page);
                return Err(e);
            }
            bump(&self.metrics.pending_undo_restores);
        }
        for frame in self.all_frames() {
            let mut frame = lock(&frame);
            if frame.dirty && frame.owner.is_none() {
                bump(&self.metrics.page_writes);
                let Frame { id, ref page, .. } = *frame;
                core.pager.write(id, page)?;
                frame.dirty = false;
            }
        }
        core.pager.sync()
    }

    /// Checkpoint: writes every committed dirty page back, syncs the
    /// pager, then truncates the WAL — all durable state now lives in
    /// the database file. If the write-back fails the log is left
    /// intact, so a crash mid-checkpoint still recovers. Refused while
    /// any transaction is open: open transactions hold unlogged frames
    /// whose redo must land in the log the checkpoint would race.
    pub fn checkpoint(&self) -> StorageResult<()> {
        {
            let core = lock(&self.core);
            if !core.txns.is_empty() {
                return Err(StorageError::Internal(
                    "checkpoint during an open transaction (commit or abort it first)".into(),
                ));
            }
            if core.undo_incomplete {
                // An abort could not read its undo images back; the log
                // is the only copy, so it must never be truncated.
                return Err(StorageError::Internal(
                    "checkpoint refused: an aborted transaction's undo images could \
                     not be re-read; restart (crash recovery) to repair"
                        .into(),
                ));
            }
        }
        self.flush()?;
        lock(&self.core).wal.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Pager::in_memory(), capacity, Wal::in_memory())
    }

    #[test]
    fn pool_and_guards_are_send() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<BufferPool>();
        assert_sync::<BufferPool>();
        assert_send::<PinnedPage>();
    }

    #[test]
    fn hit_and_miss_counting() {
        let pool = pool(4);
        let (id, guard) = pool.allocate(PageKind::Heap).unwrap();
        drop(guard);
        assert_eq!(pool.metrics().snapshot().fault_ins, 0);
        let g = pool.fetch(id).unwrap();
        assert_eq!(pool.metrics().snapshot().buffer_hits, 1);
        drop(g);
        let g = pool.fetch(id).unwrap();
        let m = pool.metrics().snapshot();
        assert_eq!((m.fault_ins, m.buffer_hits), (0, 2));
        drop(g);
    }

    #[test]
    fn eviction_under_tiny_pool_preserves_data() {
        let pool = pool(2);
        let mut ids = Vec::new();
        for i in 0..10u8 {
            let (id, guard) = pool.allocate(PageKind::Heap).unwrap();
            guard.with_mut(|p| p.push_record(&[i]).unwrap()).unwrap();
            ids.push(id);
        }
        // Far more pages than frames: every page must still read back.
        for (i, &id) in ids.iter().enumerate() {
            let guard = pool.fetch(id).unwrap();
            assert_eq!(guard.with(|p| p.record(0).to_vec()), vec![i as u8]);
        }
        let stats = pool.metrics().snapshot();
        assert!(stats.fault_ins >= 8, "reads: {stats:?}");
        assert!(stats.page_writes >= 8, "writes: {stats:?}");
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let pool = pool(2);
        let (id_a, guard_a) = pool.allocate(PageKind::Heap).unwrap();
        guard_a
            .with_mut(|p| p.push_record(b"pinned").unwrap())
            .unwrap();
        // Cycle many other pages through the pool while `guard_a` lives.
        for _ in 0..6 {
            let (_, g) = pool.allocate(PageKind::Heap).unwrap();
            drop(g);
        }
        assert_eq!(guard_a.with(|p| p.record(0).to_vec()), b"pinned");
        assert_eq!(guard_a.id(), id_a);
        drop(guard_a);
        let g = pool.fetch(id_a).unwrap();
        assert_eq!(g.with(|p| p.record(0).to_vec()), b"pinned");
    }

    #[test]
    fn exhaustion_is_an_error_not_a_crash() {
        let pool = pool(2);
        let (_, g1) = pool.allocate(PageKind::Heap).unwrap();
        let (_, g2) = pool.allocate(PageKind::Heap).unwrap();
        assert!(pool.allocate(PageKind::Heap).is_err());
        drop((g1, g2));
        assert!(pool.allocate(PageKind::Heap).is_ok());
    }

    #[test]
    fn flush_writes_dirty_frames() {
        let dir = std::env::temp_dir().join(format!("rqs-buffer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush.pages");
        let _ = std::fs::remove_file(&path);
        {
            let pool = BufferPool::new(Pager::open(&path).unwrap(), 4, Wal::in_memory());
            let (_, guard) = pool.allocate(PageKind::Heap).unwrap();
            guard
                .with_mut(|p| p.push_record(b"durable").unwrap())
                .unwrap();
            drop(guard);
            pool.flush().unwrap();
        }
        let pool = BufferPool::new(Pager::open(&path).unwrap(), 4, Wal::in_memory());
        let guard = pool.fetch(0).unwrap();
        assert_eq!(guard.with(|p| p.record(0).to_vec()), b"durable");
        drop(guard);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn abort_restores_before_images_and_recycles_allocations() {
        let pool = pool(8);
        let (id, g) = pool.allocate(PageKind::Heap).unwrap();
        g.with_mut(|p| p.push_record(b"committed").unwrap())
            .unwrap();
        drop(g);
        let t = pool.begin_txn().unwrap();
        pool.commit_txn(t).unwrap(); // empty txn commits as a no-op
        assert_eq!(pool.metrics().snapshot().wal_appends, 0);

        let t = pool.begin_txn().unwrap();
        let g = pool.fetch(id).unwrap();
        g.with_mut(|p| p.push_record(b"uncommitted").unwrap())
            .unwrap();
        drop(g);
        let (new_id, g2) = pool.allocate(PageKind::Heap).unwrap();
        g2.with_mut(|p| p.push_record(b"new page").unwrap())
            .unwrap();
        drop(g2);
        pool.abort_txn(t);
        let g = pool.fetch(id).unwrap();
        assert_eq!(g.with(|p| p.slot_count()), 1, "txn record rolled back");
        drop(g);
        let g = pool.fetch(new_id).unwrap();
        assert_eq!(
            g.with(|p| (p.kind().unwrap(), p.slot_count())),
            (PageKind::Free, 0)
        );
        drop(g);
        assert_eq!(
            pool.metrics().snapshot().wal_appends,
            0,
            "nothing was logged"
        );
        // The aborted allocation is recycled: the next *transactional*
        // allocation reuses its page id instead of growing the pager
        // (untracked allocations must append — see
        // `unlogged_allocations_never_reuse_recycled_pages`).
        let pages_before = pool.page_count();
        let t = pool.begin_txn().unwrap();
        let (reused, g) = pool.allocate(PageKind::Heap).unwrap();
        assert_eq!(reused, new_id, "aborted allocation must be recycled");
        assert_eq!(pool.page_count(), pages_before);
        drop(g);
        pool.commit_txn(t).unwrap();
    }

    #[test]
    fn commit_logs_and_stamps_lsns() {
        let pool = pool(8);
        let t = pool.begin_txn().unwrap();
        let (a, ga) = pool.allocate(PageKind::Heap).unwrap();
        ga.with_mut(|p| p.push_record(b"a").unwrap()).unwrap();
        let (b, gb) = pool.allocate(PageKind::Heap).unwrap();
        gb.with_mut(|p| p.push_record(b"b").unwrap()).unwrap();
        drop((ga, gb));
        pool.commit_txn(t).unwrap();
        // Begin + 2 updates + Commit.
        let stats = pool.metrics().snapshot();
        assert_eq!(stats.wal_appends, 4);
        assert!(stats.wal_bytes > 2 * crate::page::PAGE_SIZE as u64);
        for id in [a, b] {
            let g = pool.fetch(id).unwrap();
            assert!(g.with(|p| p.lsn()) > 0, "page {id} must carry its LSN");
            drop(g);
        }
        assert!(!pool.in_txn());
    }

    #[test]
    fn steal_lets_a_write_set_exceed_the_pool_and_commit() {
        let pool = pool(3);
        let t = pool.begin_txn().unwrap();
        let mut ids = Vec::new();
        for i in 0..10u8 {
            let (id, g) = pool.allocate(PageKind::Heap).unwrap();
            g.with_mut(|p| p.push_record(&[i; 8]).unwrap()).unwrap();
            ids.push(id);
        }
        // Re-reading a stolen page inside the transaction sees its own
        // (uncommitted) write, faulted back from the database file.
        let g = pool.fetch(ids[0]).unwrap();
        assert_eq!(g.with(|p| p.record(0).to_vec()), vec![0u8; 8]);
        drop(g);
        pool.commit_txn(t).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let g = pool.fetch(id).unwrap();
            assert_eq!(g.with(|p| p.record(0).to_vec()), vec![i as u8; 8]);
        }
        let stats = pool.metrics().snapshot();
        assert!(stats.page_writes >= 7, "steals must write back: {stats:?}");
        // Undo images plus commit redo of every stolen page were logged.
        assert!(stats.wal_appends > 12, "{stats:?}");
    }

    #[test]
    fn steal_then_abort_restores_pre_transaction_state() {
        let pool = pool(3);
        // Committed baseline across more pages than the pool holds.
        let t = pool.begin_txn().unwrap();
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let (id, g) = pool.allocate(PageKind::Heap).unwrap();
            g.with_mut(|p| p.push_record(&[i; 8]).unwrap()).unwrap();
            ids.push(id);
        }
        pool.commit_txn(t).unwrap();
        // A transaction rewrites every page (write set > pool, so pages
        // are stolen and uncommitted bytes reach the file), then aborts.
        let t = pool.begin_txn().unwrap();
        for &id in &ids {
            let g = pool.fetch(id).unwrap();
            g.with_mut(|p| p.push_record(b"uncommitted").unwrap())
                .unwrap();
        }
        let (extra, g) = pool.allocate(PageKind::Heap).unwrap();
        g.with_mut(|p| p.push_record(b"newpage").unwrap()).unwrap();
        drop(g);
        pool.abort_txn(t);
        for (i, &id) in ids.iter().enumerate() {
            let g = pool.fetch(id).unwrap();
            assert_eq!(
                g.with(|p| (p.slot_count(), p.record(0).to_vec())),
                (1, vec![i as u8; 8]),
                "page {id} must roll back to its committed state"
            );
        }
        // The stolen-then-aborted allocation reverted to a free page and
        // is recycled by the next allocation instead of growing the file.
        let g = pool.fetch(extra).unwrap();
        assert_eq!(g.with(|p| p.kind().unwrap()), PageKind::Free);
        drop(g);
        let pages = pool.page_count();
        let t = pool.begin_txn().unwrap();
        let (reused, g) = pool.allocate(PageKind::Heap).unwrap();
        drop(g);
        pool.commit_txn(t).unwrap();
        assert_eq!(reused, extra, "stolen-then-aborted allocation recycles");
        assert_eq!(pool.page_count(), pages);
    }

    #[test]
    fn refaulted_stolen_pages_keep_their_owner() {
        // A steal evicts the frame, but the page still belongs to its
        // transaction: faulting it back in must restore the ownership
        // so a different open transaction's write stays a Conflict —
        // otherwise its uncommitted content could leak into the other
        // transaction's commit images.
        let pool = pool(3);
        let ta = pool.begin_txn().unwrap();
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let (id, g) = pool.allocate(PageKind::Heap).unwrap();
            g.with_mut(|p| p.push_record(&[i; 8]).unwrap()).unwrap();
            ids.push(id);
        }
        pool.suspend_txn();
        let tb = pool.begin_txn().unwrap();
        let g = pool.fetch(ids[0]).unwrap();
        assert!(
            matches!(
                g.with_mut(|p| p.slot_count()),
                Err(StorageError::Conflict(_))
            ),
            "a stolen page must still refuse foreign writes after refault"
        );
        assert_eq!(g.with(|p| p.slot_count()), 1, "reads still allowed");
        drop(g);
        pool.abort_txn(tb);
        pool.resume_txn(ta).unwrap();
        pool.commit_txn(ta).unwrap();
        // Committed: the page is writable by anyone again.
        let tc = pool.begin_txn().unwrap();
        let g = pool.fetch(ids[0]).unwrap();
        g.with_mut(|p| p.push_record(b"tc").unwrap()).unwrap();
        drop(g);
        pool.commit_txn(tc).unwrap();
    }

    #[test]
    fn failed_abort_restores_park_and_block_checkpoints_until_written() {
        // An abort whose stolen-page restores hit a dead disk must not
        // let the process serve the uncommitted bytes afterwards: the
        // images park in memory, overlay every fault-in, and flush
        // writes them back before a checkpoint may truncate the log.
        let dir = std::env::temp_dir().join(format!("rqs-buffer-undo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pages = dir.join("park.pages");
        let _ = std::fs::remove_file(&pages);
        let fault = crate::pager::Fault::new();
        let pool = BufferPool::new(
            Pager::faulty(Pager::open(&pages).unwrap(), fault.clone()),
            3,
            Wal::in_memory(),
        );
        let t = pool.begin_txn().unwrap();
        let mut ids = Vec::new();
        for i in 0..8u8 {
            let (id, g) = pool.allocate(PageKind::Heap).unwrap();
            g.with_mut(|p| p.push_record(&[i; 8]).unwrap()).unwrap();
            ids.push(id);
        }
        pool.commit_txn(t).unwrap();
        let t = pool.begin_txn().unwrap();
        for &id in &ids {
            let g = pool.fetch(id).unwrap();
            g.with_mut(|p| p.push_record(b"doomed").unwrap()).unwrap();
        }
        fault.fail_after_writes(0);
        pool.abort_txn(t); // restores park instead of reaching the disk
        fault.heal();
        // Every page reads back rolled-to-committed, parked or not.
        for (i, &id) in ids.iter().enumerate() {
            let g = pool.fetch(id).unwrap();
            assert_eq!(
                g.with(|p| (p.slot_count(), p.record(0).to_vec())),
                (1, vec![i as u8; 8]),
                "page {id} must serve the restored image"
            );
        }
        // Flush (via checkpoint) lands the parked images; disk is clean.
        pool.checkpoint().unwrap();
        std::fs::remove_file(&pages).unwrap();
    }

    #[test]
    fn unlogged_allocations_never_reuse_recycled_pages() {
        // A stolen-then-aborted allocation leaves an UndoImage in the
        // log; recovery replays it for the loser. An *unlogged* reuse
        // of the recycled page (index bulk builds allocate outside any
        // transaction) would be clobbered by that replay, so untracked
        // allocations must append instead — the recycle-list cousin of
        // the persistent-free-list rule.
        let pool = pool(4);
        let t = pool.begin_txn().unwrap();
        let (id, g) = pool.allocate(PageKind::Heap).unwrap();
        g.with_mut(|p| p.push_record(b"aborted").unwrap()).unwrap();
        drop(g);
        pool.abort_txn(t);
        // Unlogged (no active transaction): must not get the recycled id.
        let (unlogged, g) = pool.allocate(PageKind::BTreeLeaf).unwrap();
        assert_ne!(unlogged, id, "unlogged reuse would be undone at replay");
        drop(g);
        // Transactional reuse is safe (its redo replays after the undo).
        let t = pool.begin_txn().unwrap();
        let (reused, g) = pool.allocate(PageKind::Heap).unwrap();
        assert_eq!(reused, id);
        drop(g);
        pool.commit_txn(t).unwrap();
    }

    #[test]
    fn fully_pinned_pool_still_errors() {
        let pool = pool(2);
        let t = pool.begin_txn().unwrap();
        let (_, g1) = pool.allocate(PageKind::Heap).unwrap();
        let (_, g2) = pool.allocate(PageKind::Heap).unwrap();
        // Both frames pinned by live guards: stealing is impossible.
        assert!(matches!(
            pool.allocate(PageKind::Heap),
            Err(StorageError::Internal(_))
        ));
        drop((g1, g2));
        // Unpinned, the owned frames are stolen and allocation succeeds.
        assert!(pool.allocate(PageKind::Heap).is_ok());
        pool.abort_txn(t);
    }

    #[test]
    fn double_begin_rejected_and_commit_of_unknown_txn_rejected() {
        let pool = pool(4);
        let t = pool.begin_txn().unwrap();
        assert!(pool.begin_txn().is_err());
        pool.abort_txn(t);
        assert!(pool.commit_txn(t).is_err(), "txn is gone");
        let t2 = pool.begin_txn().unwrap();
        pool.abort_txn(t2);
        pool.abort_txn(t2); // idempotent
    }

    #[test]
    fn suspended_transactions_interleave_and_conflict_cleanly() {
        let pool = pool(8);
        // Txn A writes page pa, then suspends.
        let ta = pool.begin_txn().unwrap();
        let (pa, ga) = pool.allocate(PageKind::Heap).unwrap();
        ga.with_mut(|p| p.push_record(b"a1").unwrap()).unwrap();
        drop(ga);
        pool.suspend_txn();
        assert!(!pool.in_txn());
        assert_eq!(pool.open_txn_count(), 1);

        // Txn B runs while A is open, on its own page.
        let tb = pool.begin_txn().unwrap();
        let (pb, gb) = pool.allocate(PageKind::Heap).unwrap();
        gb.with_mut(|p| p.push_record(b"b1").unwrap()).unwrap();
        // Writing A's page from B is a conflict, not corruption.
        let g = pool.fetch(pa).unwrap();
        assert!(matches!(
            g.with_mut(|p| p.slot_count()),
            Err(StorageError::Conflict(_))
        ));
        assert_eq!(g.with(|p| p.slot_count()), 1, "reads still allowed");
        drop((g, gb));
        pool.commit_txn(tb).unwrap();

        // Resume A, write more, commit.
        pool.resume_txn(ta).unwrap();
        let g = pool.fetch(pa).unwrap();
        g.with_mut(|p| p.push_record(b"a2").unwrap()).unwrap();
        drop(g);
        pool.commit_txn(ta).unwrap();
        assert_eq!(pool.open_txn_count(), 0);
        // Both transactions' effects visible.
        for (id, n) in [(pa, 2), (pb, 1)] {
            let g = pool.fetch(id).unwrap();
            assert_eq!(g.with(|p| p.slot_count()), n);
            drop(g);
        }
        // Begin+Update+Commit per txn = 3 + 3 appends.
        assert_eq!(pool.metrics().snapshot().wal_appends, 6);
    }

    #[test]
    fn resume_requires_known_txn_and_no_other_active() {
        let pool = pool(4);
        assert!(pool.resume_txn(99).is_err());
        let ta = pool.begin_txn().unwrap();
        pool.suspend_txn();
        let tb = pool.begin_txn().unwrap();
        assert!(pool.resume_txn(ta).is_err(), "tb is active");
        pool.suspend_txn();
        pool.resume_txn(ta).unwrap();
        pool.abort_txn(ta);
        pool.abort_txn(tb);
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let pool = pool(4);
        let t = pool.begin_txn().unwrap();
        let (_, g) = pool.allocate(PageKind::Heap).unwrap();
        g.with_mut(|p| p.push_record(b"x").unwrap()).unwrap();
        drop(g);
        pool.commit_txn(t).unwrap();
        assert!(pool.wal_len_bytes() > 0);
        pool.checkpoint().unwrap();
        assert_eq!(pool.wal_len_bytes(), 0);
    }

    #[test]
    fn free_list_round_trips_pages_through_the_meta_page() {
        let pool = pool(8);
        // Build a meta page by hand (the engine normally owns this).
        let t = pool.begin_txn().unwrap();
        let (meta, g) = pool.allocate(PageKind::Meta).unwrap();
        g.with_mut(|p| p.set_extra(NO_PAGE)).unwrap();
        drop(g);
        let (a, ga) = pool.allocate(PageKind::Heap).unwrap();
        let (b, gb) = pool.allocate(PageKind::Heap).unwrap();
        drop((ga, gb));
        pool.commit_txn(t).unwrap();
        pool.set_meta_page(Some(meta));
        assert_eq!(pool.free_list_len().unwrap(), 0);

        let t = pool.begin_txn().unwrap();
        assert_eq!(pool.free_pages(&[a, b]).unwrap(), 2);
        assert_eq!(pool.free_list_len().unwrap(), 2);
        pool.commit_txn(t).unwrap();

        // Allocations reuse the freed pages instead of growing the file.
        let pages = pool.page_count();
        let t = pool.begin_txn().unwrap();
        let (r1, g1) = pool.allocate(PageKind::Heap).unwrap();
        let (r2, g2) = pool.allocate(PageKind::Heap).unwrap();
        drop((g1, g2));
        pool.commit_txn(t).unwrap();
        let mut got = [r1, r2];
        got.sort_unstable();
        let mut want = [a, b];
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(pool.page_count(), pages, "file must not grow");
        assert_eq!(pool.free_list_len().unwrap(), 0);
    }

    #[test]
    fn aborted_free_list_pop_relinks_the_list() {
        let pool = pool(8);
        let t = pool.begin_txn().unwrap();
        let (meta, g) = pool.allocate(PageKind::Meta).unwrap();
        g.with_mut(|p| p.set_extra(NO_PAGE)).unwrap();
        drop(g);
        let (a, ga) = pool.allocate(PageKind::Heap).unwrap();
        drop(ga);
        pool.commit_txn(t).unwrap();
        pool.set_meta_page(Some(meta));
        let t = pool.begin_txn().unwrap();
        pool.free_pages(&[a]).unwrap();
        pool.commit_txn(t).unwrap();
        assert_eq!(pool.free_list_len().unwrap(), 1);

        // Pop inside a transaction, then abort: the list is restored.
        let t = pool.begin_txn().unwrap();
        let (popped, g) = pool.allocate(PageKind::Heap).unwrap();
        assert_eq!(popped, a);
        drop(g);
        pool.abort_txn(t);
        assert_eq!(pool.free_list_len().unwrap(), 1, "abort must relink");
        // And the page is reusable again afterwards.
        let t = pool.begin_txn().unwrap();
        let (again, g) = pool.allocate(PageKind::Heap).unwrap();
        assert_eq!(again, a);
        drop(g);
        pool.commit_txn(t).unwrap();
        assert_eq!(pool.free_list_len().unwrap(), 0);
    }
}
