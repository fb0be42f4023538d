//! Multiversion read views over the paged engine.
//!
//! Writes keep the engine's in-place heap protocol (tombstone, rewrite,
//! append) and the caller's locking; this module adds the *logical*
//! version history that lets readers skip locks entirely. Per rid it
//! tracks a begin stamp for the current heap content (or tombstone) and
//! a list of prior tuples, each bounded by `[begin, end)` commit
//! timestamps. Absence of metadata means "committed long ago, visible
//! to every snapshot", so a table nobody has written lately carries
//! nothing and its reads consult nothing.
//!
//! A `View` is a commit-timestamp cut: statement-scoped for
//! autocommit (opened and closed around one statement) or
//! transaction-scoped for explicit `BEGIN` (opened at `BEGIN`, closed
//! at commit/abort). A row is visible when its begin stamp is a commit
//! at or before the view's timestamp, or its own transaction's pending
//! write (read-your-own-writes); otherwise the priors are searched for
//! the version whose `[begin, end)` interval covers the view.
//!
//! Every read of a table that carries metadata — heap scan, early-exit
//! membership probe, index read — resolves through one [`Versions`]:
//! [`Versions::resolve`] maps each `(rid, tuple)` the physical read
//! yields to the version the view sees, and
//! [`Versions::unseen_priors`] then surfaces the rows the physical read
//! could not yield (tombstoned, relocated, or — for an index read —
//! filed under another key now). Both take the read's predicate, so an
//! index probe pays for the postings it reads plus the table's few
//! in-memory version entries, never for the table.
//!
//! Constraint probes are the exception to snapshot timestamps:
//! uniqueness and FK checks must judge the *latest* committed state
//! plus the writer's own pending rows, never a stale snapshot. Probe
//! mode reads at `ts = u64::MAX` and refuses (with a retryable
//! [`StorageError::Conflict`]) an entry another transaction has pending
//! *when a version of it answers the probe's predicate* — the verdict
//! would depend on whether that transaction commits, so the prober
//! backs off and retries instead of reporting a violation against a row
//! that may roll back. Pending writes to rows that carry other keys
//! cannot change the verdict and are ignored.
//!
//! Everything here is volatile by design: version metadata lives only
//! in memory and is never WAL-logged. Crash recovery replays committed
//! page images, so a reopened database holds exactly the committed
//! rows and no snapshot survives to need anything older; the fresh
//! engine starts with an empty store whose absence-semantics are
//! already correct.
//!
//! Garbage collection runs at every view close and transaction end: a
//! prior whose end commit is at or below the oldest open view's
//! timestamp is invisible to every current and future snapshot and is
//! dropped (counted in `versions_gc`); a meta whose begin commit is
//! equally old conveys nothing beyond the absence default and is
//! dropped with it.

use crate::buffer::TxnId;
use crate::heap::Rid;
use crate::metrics::{self, StorageMetrics};
use crate::page::PageId;
use crate::value::Tuple;
use crate::{StorageError, StorageResult};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Packs a rid into the map key (16 bits of slot under the page id).
fn rid_key(rid: Rid) -> u64 {
    ((rid.page as u64) << 16) | rid.slot as u64
}

fn key_rid(key: u64) -> Rid {
    Rid {
        page: (key >> 16) as PageId,
        slot: (key & 0xFFFF) as u16,
    }
}

/// A version boundary: a committed timestamp or a still-pending
/// transaction's mark (resolved to a commit stamp when it commits,
/// rolled back when it aborts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stamp {
    Committed(u64),
    Pending(TxnId),
}

/// One superseded row version, alive for views inside `[begin, end)`.
#[derive(Clone, Debug)]
struct Prior {
    begin: u64,
    end: Stamp,
    tuple: Tuple,
}

/// Version metadata for one rid: the begin stamp of the current heap
/// content (or of the tombstone, when the slot is deleted) plus any
/// prior versions still visible to an open snapshot.
#[derive(Clone, Debug)]
struct RowMeta {
    begin: Stamp,
    priors: Vec<Prior>,
}

/// A read snapshot: everything committed at or before `ts` is visible,
/// plus `txn`'s own pending writes. `probe` marks constraint-check
/// reads (latest committed + own, conflict on concurrent pending).
#[derive(Clone, Copy, Debug)]
struct View {
    ts: u64,
    txn: Option<TxnId>,
    probe: bool,
}

impl View {
    fn sees(&self, stamp: Stamp) -> bool {
        match stamp {
            Stamp::Committed(ts) => ts <= self.ts,
            Stamp::Pending(t) => self.txn == Some(t),
        }
    }
}

/// One table's version metadata by rid key.
type TableVersions = HashMap<u64, RowMeta>;

#[derive(Default)]
struct MvccState {
    /// table id → version metadata, copy-on-write per table: a read
    /// clones the `Arc` under the lock and resolves outside it, so
    /// concurrent readers never serialise on the store. Empty per-table
    /// maps are pruned — presence means "this table has entries".
    store: HashMap<i64, Arc<TableVersions>>,
    /// Open view timestamps with refcounts; the smallest key is the GC
    /// horizon.
    views: BTreeMap<u64, usize>,
    /// Transaction-scoped views (explicit BEGIN and autocommit DML).
    txn_views: HashMap<TxnId, u64>,
    /// The statement-scoped view, if any are open: the shared commit
    /// horizon and the number of statements reading through it.
    /// Concurrent read-only statements share one slot — the engine
    /// excludes writers while statement views are open, so the clock
    /// cannot advance between two concurrent opens and one timestamp
    /// serves them all.
    stmt_view: Option<(u64, usize)>,
    /// Per-transaction undo: the begin stamp each touched rid had
    /// before this transaction's first write to it (`None` = no meta
    /// existed). Drives both commit stamping and rollback.
    touches: HashMap<TxnId, HashMap<(i64, u64), Option<Stamp>>>,
    /// Tables dropped by a still-open transaction; their metadata is
    /// purged only when the drop commits.
    drops: HashMap<TxnId, Vec<i64>>,
}

/// The engine-wide MVCC authority: the commit-timestamp clock and the
/// version store. Interior mutability throughout so `&self` read paths
/// can consult it.
pub struct Mvcc {
    clock: AtomicU64,
    probe: AtomicBool,
    state: Mutex<MvccState>,
}

impl Default for Mvcc {
    fn default() -> Self {
        Mvcc {
            clock: AtomicU64::new(0),
            probe: AtomicBool::new(false),
            state: Mutex::new(MvccState::default()),
        }
    }
}

impl Mvcc {
    pub fn new() -> Mvcc {
        Mvcc::default()
    }

    /// Marks subsequent reads as constraint probes (latest committed +
    /// own pending, conflict on concurrent pending writers).
    pub fn set_probe(&self, on: bool) {
        self.probe.store(on, Ordering::Relaxed);
    }

    /// The resolver reads of `table` go through, given the active
    /// transaction: probe mode wins, then the transaction's view, then
    /// the statement view. `None` — no view open, or no version entry
    /// on the table, where every row was committed long ago and the
    /// physical read *is* the snapshot — means heap and index are read
    /// as they are. One lock acquisition either way.
    pub fn versions(&self, active_txn: Option<TxnId>, table: i64) -> Option<Versions> {
        let st = self.state.lock().unwrap();
        let metas = Arc::clone(st.store.get(&table)?);
        let probe = self.probe.load(Ordering::Relaxed);
        let own_ts = active_txn.and_then(|t| st.txn_views.get(&t).copied());
        let (ts, txn) = match (probe, own_ts) {
            (true, _) => (u64::MAX, active_txn),
            (false, Some(ts)) => (ts, active_txn),
            (false, None) => (st.stmt_view?.0, None),
        };
        Some(Versions {
            view: View { ts, txn, probe },
            table,
            metas,
            seen: HashSet::new(),
        })
    }

    /// Opens the transaction-scoped view at `BEGIN`.
    pub fn open_txn_view(&self, txn: TxnId, m: &StorageMetrics) {
        let ts = self.clock.load(Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        *st.views.entry(ts).or_insert(0) += 1;
        st.txn_views.insert(txn, ts);
        metrics::bump(&m.snapshot_reads);
    }

    /// Opens a statement-scoped view (autocommit statements only; a
    /// session inside BEGIN reads through its transaction view).
    /// Concurrent statements share the open slot's timestamp — see
    /// `MvccState::stmt_view`.
    pub fn open_stmt_view(&self, m: &StorageMetrics) {
        let ts = self.clock.load(Ordering::SeqCst);
        let mut st = self.state.lock().unwrap();
        match &mut st.stmt_view {
            Some((_, refs)) => *refs += 1,
            None => {
                *st.views.entry(ts).or_insert(0) += 1;
                st.stmt_view = Some((ts, 1));
            }
        }
        metrics::bump(&m.snapshot_reads);
    }

    /// Closes one statement view (no-op when none is open) and clears
    /// probe mode — statement end is the natural probe boundary even on
    /// error paths. The shared slot is released (and GC runs) when the
    /// last concurrent statement closes.
    pub fn close_stmt_view(&self, m: &StorageMetrics) {
        self.probe.store(false, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        match &mut st.stmt_view {
            Some((_, refs)) if *refs > 1 => *refs -= 1,
            Some((ts, _)) => {
                let ts = *ts;
                st.stmt_view = None;
                unregister(&mut st, ts);
                gc(&mut st, m);
            }
            None => {}
        }
    }

    /// First-updater-wins pre-check, called before a transaction
    /// touches `rid`: conflicts retryably when another transaction's
    /// write to the rid is pending, or when a commit newer than the
    /// writer's snapshot already rewrote it.
    pub fn check_write(&self, txn: TxnId, table: i64, rid: Rid) -> StorageResult<()> {
        let st = self.state.lock().unwrap();
        let Some(meta) = st.store.get(&table).and_then(|t| t.get(&rid_key(rid))) else {
            return Ok(());
        };
        let view_ts = st.txn_views.get(&txn).copied().unwrap_or(u64::MAX);
        match meta.begin {
            Stamp::Pending(t) if t != txn => Err(StorageError::Conflict(format!(
                "row in table {table} has an uncommitted concurrent write"
            ))),
            Stamp::Committed(b) if b > view_ts => Err(StorageError::Conflict(format!(
                "row in table {table} was rewritten after this transaction's snapshot"
            ))),
            _ => Ok(()),
        }
    }

    /// Records one write by `txn` to `rid`: `old` is the committed
    /// tuple the write supersedes (kept as a prior for open snapshots),
    /// or `None` for an insert into an empty slot. Existing priors are
    /// preserved — a truncated table's reused rids still owe old
    /// versions to old snapshots.
    pub fn note_write(
        &self,
        txn: TxnId,
        table: i64,
        rid: Rid,
        old: Option<Tuple>,
        m: &StorageMetrics,
    ) {
        let key = rid_key(rid);
        let mut st = self.state.lock().unwrap();
        let prev = st
            .store
            .get(&table)
            .and_then(|t| t.get(&key))
            .map(|meta| meta.begin);
        st.touches
            .entry(txn)
            .or_default()
            .entry((table, key))
            .or_insert(prev);
        let meta = Arc::make_mut(st.store.entry(table).or_default())
            .entry(key)
            .or_insert(RowMeta {
                begin: Stamp::Committed(0),
                priors: Vec::new(),
            });
        if let Some(old) = old {
            // Keep the superseded version only when it was committed:
            // a transaction's own intermediate versions are invisible
            // to everyone else and need no history (and pending-other
            // begins were refused by `check_write`).
            if let Stamp::Committed(b) = meta.begin {
                meta.priors.push(Prior {
                    begin: b,
                    end: Stamp::Pending(txn),
                    tuple: old,
                });
                metrics::bump(&m.versions_kept);
            }
        }
        meta.begin = Stamp::Pending(txn);
    }

    /// Defers purging a dropped table's metadata to the drop's commit
    /// (an aborted DROP TABLE must leave history intact).
    pub fn note_drop_table(&self, txn: TxnId, table: i64) {
        self.state
            .lock()
            .unwrap()
            .drops
            .entry(txn)
            .or_default()
            .push(table);
    }

    /// Commit: stamp every pending mark of `txn` with a fresh commit
    /// timestamp, purge dropped tables, close the transaction view, GC.
    pub fn commit(&self, txn: TxnId, m: &StorageMetrics) {
        let mut st = self.state.lock().unwrap();
        if let Some(touches) = st.touches.remove(&txn) {
            if !touches.is_empty() {
                let ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
                for (table, key) in touches.into_keys() {
                    let Some(meta) = st
                        .store
                        .get_mut(&table)
                        .and_then(|t| Arc::make_mut(t).get_mut(&key))
                    else {
                        continue;
                    };
                    if meta.begin == Stamp::Pending(txn) {
                        meta.begin = Stamp::Committed(ts);
                    }
                    for p in &mut meta.priors {
                        if p.end == Stamp::Pending(txn) {
                            p.end = Stamp::Committed(ts);
                        }
                    }
                }
            }
        }
        if let Some(tables) = st.drops.remove(&txn) {
            for table in tables {
                if let Some(tbl) = st.store.remove(&table) {
                    let dropped: usize = tbl.values().map(|meta| meta.priors.len()).sum();
                    metrics::add(&m.versions_gc, dropped as u64);
                }
            }
        }
        if let Some(ts) = st.txn_views.remove(&txn) {
            unregister(&mut st, ts);
        }
        gc(&mut st, m);
    }

    /// Rollback: restore every touched rid's previous begin stamp, pop
    /// the priors this transaction pushed, close its view. Idempotent —
    /// the touch entry is consumed on first call.
    pub fn rollback(&self, txn: TxnId, m: &StorageMetrics) {
        let mut st = self.state.lock().unwrap();
        if let Some(touches) = st.touches.remove(&txn) {
            for ((table, key), prev) in touches {
                let Some(tbl) = st.store.get_mut(&table).map(Arc::make_mut) else {
                    continue;
                };
                if let Some(meta) = tbl.get_mut(&key) {
                    let before = meta.priors.len();
                    meta.priors.retain(|p| p.end != Stamp::Pending(txn));
                    metrics::add(&m.versions_gc, (before - meta.priors.len()) as u64);
                    match prev {
                        Some(stamp) => meta.begin = stamp,
                        None => {
                            tbl.remove(&key);
                        }
                    }
                }
                if tbl.is_empty() {
                    st.store.remove(&table);
                }
            }
        }
        st.drops.remove(&txn);
        if let Some(ts) = st.txn_views.remove(&txn) {
            unregister(&mut st, ts);
        }
        gc(&mut st, m);
    }
}

/// One table's version entries as one view resolves them — the single
/// visibility authority under heap scans, membership probes and index
/// reads alike. Feed it every `(rid, tuple)` the physical read yields,
/// then ask for the rows that read could not yield; each rid comes out
/// at most once. `answers` is the read's predicate (always-true for a
/// scan): versions failing it are dropped, and a probe view conflicts
/// only on pending writes to versions passing it.
pub struct Versions {
    view: View,
    table: i64,
    metas: Arc<TableVersions>,
    /// Entry-carrying rids already resolved.
    seen: HashSet<u64>,
}

impl Versions {
    /// The version of `rid` the view sees, when there is one and it
    /// answers: the current heap content `tuple`, or the prior covering
    /// the view when that content is too new (the prior may carry
    /// other column values than the posting or predicate that led
    /// here, hence the re-check).
    pub fn resolve(
        &mut self,
        rid: Rid,
        tuple: Tuple,
        answers: &dyn Fn(&Tuple) -> bool,
    ) -> StorageResult<Option<Tuple>> {
        let key = rid_key(rid);
        let Some(meta) = self.metas.get(&key) else {
            return Ok(Some(tuple).filter(|t| answers(t)));
        };
        self.seen.insert(key);
        let prior = || visible_prior(meta, &self.view).map(|p| &p.tuple);
        if self.pending_other(meta) && (answers(&tuple) || prior().is_some_and(answers)) {
            return Err(self.probe_conflict());
        }
        let version = if self.view.sees(meta.begin) {
            Some(tuple)
        } else {
            prior().cloned()
        };
        Ok(version.filter(|t| answers(t)))
    }

    /// Visits the answering versions [`Versions::resolve`] was never
    /// asked about: entries whose current state the view must not see
    /// (a deletion, a relocation, a re-keying that moved the index
    /// posting) but whose covering prior it must. `f` returns whether
    /// to keep going.
    pub fn unseen_priors(
        &self,
        answers: &dyn Fn(&Tuple) -> bool,
        f: &mut dyn FnMut(Rid, Tuple) -> bool,
    ) -> StorageResult<()> {
        for (&key, meta) in self.metas.iter() {
            if self.seen.contains(&key) || self.view.sees(meta.begin) {
                continue;
            }
            let Some(p) = visible_prior(meta, &self.view).filter(|p| answers(&p.tuple)) else {
                continue;
            };
            if self.pending_other(meta) {
                return Err(self.probe_conflict());
            }
            if !f(key_rid(key), p.tuple.clone()) {
                break;
            }
        }
        Ok(())
    }

    /// Whether this is a probe view looking at another transaction's
    /// uncommitted write.
    fn pending_other(&self, meta: &RowMeta) -> bool {
        self.view.probe && matches!(meta.begin, Stamp::Pending(t) if self.view.txn != Some(t))
    }

    fn probe_conflict(&self) -> StorageError {
        StorageError::Conflict(format!(
            "constraint probe of table {} raced an uncommitted concurrent write",
            self.table
        ))
    }
}

/// The prior version whose `[begin, end)` interval covers the view —
/// at most one, since a rid's priors partition time.
fn visible_prior<'a>(meta: &'a RowMeta, view: &View) -> Option<&'a Prior> {
    meta.priors
        .iter()
        .find(|p| p.begin <= view.ts && !view.sees(p.end))
}

fn unregister(st: &mut MvccState, ts: u64) {
    if let Some(n) = st.views.get_mut(&ts) {
        if *n > 1 {
            *n -= 1;
        } else {
            st.views.remove(&ts);
        }
    }
}

/// Drops every version invisible to all open views. With no view open
/// the horizon is infinite and the store drains completely (pending
/// stamps excepted).
fn gc(st: &mut MvccState, m: &StorageMetrics) {
    let horizon = st.views.keys().next().copied().unwrap_or(u64::MAX);
    let mut collected = 0u64;
    st.store.retain(|_, tbl| {
        Arc::make_mut(tbl).retain(|_, meta| {
            let before = meta.priors.len();
            meta.priors.retain(|p| match p.end {
                Stamp::Committed(e) => e > horizon,
                Stamp::Pending(_) => true,
            });
            collected += (before - meta.priors.len()) as u64;
            match meta.begin {
                Stamp::Committed(b) => b > horizon || !meta.priors.is_empty(),
                Stamp::Pending(_) => true,
            }
        });
        !tbl.is_empty()
    });
    if collected > 0 {
        metrics::add(&m.versions_gc, collected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;

    fn rid(page: PageId, slot: u16) -> Rid {
        Rid { page, slot }
    }

    fn row(v: i64) -> Tuple {
        vec![Datum::Int(v)]
    }

    /// What a read of table 7 by `txn` resolves to when the physical
    /// read yields `raw` and the predicate is "column 0 is in `keys`"
    /// (`None` = a scan).
    fn read(
        mv: &Mvcc,
        txn: Option<TxnId>,
        raw: Vec<(Rid, Tuple)>,
        keys: Option<&[i64]>,
    ) -> StorageResult<Vec<(Rid, Tuple)>> {
        let answers =
            |t: &Tuple| keys.is_none_or(|keys| keys.contains(&t[0].as_int().expect("int rows")));
        let mut out = Vec::new();
        let Some(mut versions) = mv.versions(txn, 7) else {
            out.extend(raw.into_iter().filter(|(_, t)| answers(t)));
            return Ok(out);
        };
        for (rid, tuple) in raw {
            out.extend(versions.resolve(rid, tuple, &answers)?.map(|t| (rid, t)));
        }
        versions.unseen_priors(&answers, &mut |rid, tuple| {
            out.push((rid, tuple));
            true
        })?;
        Ok(out)
    }

    #[test]
    fn rid_key_roundtrips() {
        let r = rid(123_456, 789);
        assert_eq!(key_rid(rid_key(r)), r);
    }

    #[test]
    fn snapshot_sees_prior_version_until_view_closes() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        // Writer 1 inserts and commits row v=1 at rid (1,0).
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), None, &m);
        mv.commit(1, &m);
        // A reader opens a statement view, then writer 2 rewrites the
        // row and commits under it.
        mv.open_stmt_view(&m);
        mv.open_txn_view(2, &m);
        mv.check_write(2, 7, rid(1, 0)).unwrap();
        mv.note_write(2, 7, rid(1, 0), Some(row(1)), &m);
        mv.commit(2, &m);
        // The reader's view still resolves to the old version.
        let vis = read(&mv, None, vec![(rid(1, 0), row(2))], None).unwrap();
        assert_eq!(vis, vec![(rid(1, 0), row(1))]);
        // A fresh view sees the new version.
        mv.open_txn_view(3, &m);
        let vis = read(&mv, Some(3), vec![(rid(1, 0), row(2))], None).unwrap();
        assert_eq!(vis, vec![(rid(1, 0), row(2))]);
        mv.commit(3, &m);
        // Closing the reader's view GCs the prior and drains the store.
        mv.close_stmt_view(&m);
        mv.open_stmt_view(&m);
        assert!(mv.versions(None, 7).is_none());
        mv.close_stmt_view(&m);
        let snap = m.snapshot();
        assert_eq!(snap.versions_kept, 1);
        assert!(snap.versions_gc >= 1);
        assert!(snap.snapshot_reads >= 3);
    }

    #[test]
    fn no_view_or_no_entries_means_no_resolver() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        // Entries but no view.
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), None, &m);
        assert!(mv.versions(None, 7).is_none());
        // A view, but on a table without entries.
        assert!(mv.versions(Some(1), 8).is_none());
        assert!(mv.versions(Some(1), 7).is_some());
        mv.commit(1, &m);
    }

    #[test]
    fn deleted_row_resurfaces_for_old_view_only() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(2, 3), None, &m);
        mv.commit(1, &m);
        mv.open_stmt_view(&m);
        // Writer deletes the row (heap tombstones it) and commits.
        mv.open_txn_view(2, &m);
        mv.note_write(2, 7, rid(2, 3), Some(row(9)), &m);
        mv.commit(2, &m);
        // Old view: the heap scan yields nothing, the prior resurfaces
        // — for a scan and for a probe of its key, not for another key.
        for keys in [None, Some(&[9][..])] {
            let vis = read(&mv, None, Vec::new(), keys).unwrap();
            assert_eq!(vis, vec![(rid(2, 3), row(9))]);
        }
        assert!(read(&mv, None, Vec::new(), Some(&[8])).unwrap().is_empty());
        // New view: the deletion is visible, nothing resurfaces.
        mv.open_txn_view(3, &m);
        assert!(read(&mv, Some(3), Vec::new(), None).unwrap().is_empty());
        mv.commit(3, &m);
        mv.close_stmt_view(&m);
    }

    #[test]
    fn rekeyed_row_answers_old_key_for_old_view_and_new_key_for_new_view() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        mv.open_stmt_view(&m);
        // Under the open view a writer re-keys the row 4 -> 6 in place.
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), Some(row(4)), &m);
        mv.commit(1, &m);
        // Old view. Probe 4: the posting is gone, the prior answers.
        let old4 = read(&mv, None, Vec::new(), Some(&[4])).unwrap();
        assert_eq!(old4, vec![(rid(1, 0), row(4))]);
        // Probe 6: the posting leads to a prior keyed 4 — rejected.
        let old6 = read(&mv, None, vec![(rid(1, 0), row(6))], Some(&[6])).unwrap();
        assert!(old6.is_empty());
        // A range holding both keys yields the row exactly once.
        let both = read(&mv, None, vec![(rid(1, 0), row(6))], Some(&[4, 5, 6])).unwrap();
        assert_eq!(both, vec![(rid(1, 0), row(4))]);
        // New view: the reverse.
        mv.open_txn_view(2, &m);
        assert!(read(&mv, Some(2), Vec::new(), Some(&[4]))
            .unwrap()
            .is_empty());
        let new6 = read(&mv, Some(2), vec![(rid(1, 0), row(6))], Some(&[6])).unwrap();
        assert_eq!(new6, vec![(rid(1, 0), row(6))]);
        mv.commit(2, &m);
        mv.close_stmt_view(&m);
    }

    #[test]
    fn relocated_row_is_emitted_once_under_its_old_rid() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        mv.open_stmt_view(&m);
        // A growing update moves the row from (1,0) to (5,2).
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), Some(row(4)), &m);
        mv.note_write(1, 7, rid(5, 2), None, &m);
        // The writer sees its own new copy only; the old view sees the
        // old copy only — before and after the commit.
        let own = read(&mv, Some(1), vec![(rid(5, 2), row(4))], Some(&[4])).unwrap();
        assert_eq!(own, vec![(rid(5, 2), row(4))]);
        for _ in 0..2 {
            let old = read(&mv, None, vec![(rid(5, 2), row(4))], Some(&[4])).unwrap();
            assert_eq!(old, vec![(rid(1, 0), row(4))]);
            mv.commit(1, &m);
        }
        mv.close_stmt_view(&m);
    }

    #[test]
    fn rollback_restores_previous_stamp_and_pops_priors() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 1), None, &m);
        mv.commit(1, &m);
        // Keep a view open so the committed meta survives GC.
        mv.open_stmt_view(&m);
        mv.open_txn_view(2, &m);
        mv.note_write(2, 7, rid(1, 1), Some(row(1)), &m);
        mv.note_write(2, 7, rid(1, 2), None, &m);
        mv.rollback(2, &m);
        // The rewritten rid's committed stamp is back, the fresh rid's
        // meta is gone, and pending marks vanished entirely.
        let vis = read(&mv, None, vec![(rid(1, 1), row(1))], None).unwrap();
        assert_eq!(vis, vec![(rid(1, 1), row(1))]);
        mv.open_txn_view(3, &m);
        assert!(mv.check_write(3, 7, rid(1, 1)).is_ok());
        assert!(mv.check_write(3, 7, rid(1, 2)).is_ok());
        mv.commit(3, &m);
        mv.close_stmt_view(&m);
    }

    #[test]
    fn first_updater_wins_conflicts() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), None, &m);
        mv.commit(1, &m);
        // T2 (old snapshot) vs T3 committing a rewrite after it.
        mv.open_txn_view(2, &m);
        mv.open_txn_view(3, &m);
        mv.note_write(3, 7, rid(1, 0), Some(row(1)), &m);
        // Pending-other conflicts.
        assert!(matches!(
            mv.check_write(2, 7, rid(1, 0)),
            Err(StorageError::Conflict(_))
        ));
        mv.commit(3, &m);
        // Committed-after-snapshot still conflicts.
        assert!(matches!(
            mv.check_write(2, 7, rid(1, 0)),
            Err(StorageError::Conflict(_))
        ));
        mv.commit(2, &m);
    }

    #[test]
    fn probe_conflicts_on_pending_other_and_sees_latest_otherwise() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), None, &m);
        mv.set_probe(true);
        // Own pending write: probe sees it, no conflict.
        let vis = read(&mv, Some(1), vec![(rid(1, 0), row(5))], None).unwrap();
        assert_eq!(vis, vec![(rid(1, 0), row(5))]);
        // Another transaction's probe conflicts retryably.
        assert!(matches!(
            read(&mv, Some(2), vec![(rid(1, 0), row(5))], None),
            Err(StorageError::Conflict(_))
        ));
        mv.set_probe(false);
        mv.commit(1, &m);
    }

    #[test]
    fn probe_conflicts_only_on_pending_versions_that_answer_it() {
        let m = StorageMetrics::default();
        let mv = Mvcc::new();
        // T1 holds three uncommitted writes: an insert of key 5, a
        // re-keying 1 -> 2, and a delete of key 3.
        mv.open_txn_view(1, &m);
        mv.note_write(1, 7, rid(1, 0), None, &m);
        mv.note_write(1, 7, rid(1, 1), Some(row(1)), &m);
        mv.note_write(1, 7, rid(1, 2), Some(row(3)), &m);
        mv.set_probe(true);
        let conflicts = |raw: Vec<(Rid, Tuple)>, key: i64| {
            matches!(
                read(&mv, Some(2), raw, Some(&[key])),
                Err(StorageError::Conflict(_))
            )
        };
        // A key none of them carries: the verdict cannot depend on T1.
        assert!(!conflicts(Vec::new(), 9));
        assert!(!conflicts(vec![(rid(4, 4), row(9))], 9));
        // The pending insert's key (its posting leads there).
        assert!(conflicts(vec![(rid(1, 0), row(5))], 5));
        // Both keys of the re-keyed row: the new one through its
        // posting, the old one through the pending prior.
        assert!(conflicts(vec![(rid(1, 1), row(2))], 2));
        assert!(conflicts(Vec::new(), 1));
        // The pending delete's key: the row may come back.
        assert!(conflicts(Vec::new(), 3));
        // A scan-shaped probe that walks past a pending row (heap row
        // (1,1) does not answer key 9 in either version) is unmoved.
        assert!(!conflicts(vec![(rid(1, 1), row(2))], 9));
        mv.set_probe(false);
        mv.rollback(1, &m);
    }
}
