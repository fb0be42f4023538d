//! Two-phase locking for writers (IX / S / X) with row-granular
//! exclusive locks and wait-die deadlock avoidance.
//!
//! Readers never come here: a `SELECT` reads through an MVCC snapshot
//! and takes no lock at all. The shared server gives every writing
//! transaction (or autocommit statement) a monotonically increasing
//! *owner id* — its timestamp — and acquires table-level locks
//! **before** executing a statement:
//!
//! * `IX` (intent-exclusive) on the table row-granular DML writes; the
//!   statement then takes an `X` on each `(table, rid)` it actually
//!   touches, via [`LockManager::acquire_row`], as the engine produces
//!   the rids;
//! * `S` (shared) on the tables a write's integrity checks read — the
//!   foreign-key parents it probes, the children its restrict checks
//!   scan — and on the schema pseudo-resource for DML and `EXPLAIN`;
//! * `X` (exclusive) for whole-table rewrites (truncation), and on the
//!   schema pseudo-resource for DDL.
//!
//! The compatibility matrix — rows are holders, columns requesters:
//!
//! | held \ req | IX | S  | X  |
//! |------------|----|----|----|
//! | **IX**     | ✓  | ✗  | ✗  |
//! | **S**      | ✗  | ✓  | ✗  |
//! | **X**      | ✗  | ✗  | ✗  |
//!
//! `IX ∥ IX` is the point of the exercise: two sessions writing
//! *different rows* of one table coexist at the table level and only
//! collide if they request the same row's `X`. `S ∥ IX = ✗` keeps what
//! a write's integrity check read true until it commits, which a
//! snapshot alone does not promise: a parent cannot lose a key while a
//! child referencing it is being inserted, or the reverse. It does not
//! make transactions serializable — their reads are snapshot reads, and
//! write skew across statements is possible (the server's module docs
//! state the contract). There is no `SIX` mode; a read-then-write
//! upgrade joins to `X`.
//!
//! Two-phase discipline is the caller's job: owners only ever call
//! [`LockManager::acquire`] / [`LockManager::acquire_row`] while
//! running and [`LockManager::release_all`] once, at commit or abort.
//!
//! Deadlocks are avoided with **wait-die**: when a requested table lock
//! conflicts, an owner *older* (smaller id) than every conflicting
//! holder blocks on a condvar until the holders release; a *younger*
//! owner dies immediately with [`StorageError::Conflict`] — its
//! transaction aborts and the client may retry. Because waiters are
//! always older than the owners they wait for, the waits-for graph is
//! ordered by age and can never form a cycle. A configurable timeout
//! (default 10 s, see [`LockManager::with_timeout`]) backstops
//! pathological schedules; a timed-out waiter re-checks grantability
//! once before failing (the wakeup may *be* the release) and a genuine
//! timeout is counted in `lock_timeouts`.
//!
//! **Row locks never wait.** They are acquired mid-statement, while the
//! caller holds the exclusive side of the server's statement latch —
//! blocking there would deadlock against the very holder that needs the
//! latch to commit and release. So [`LockManager::acquire_row`] applies
//! wait-die with an immediate-abort fallback: a younger requester dies,
//! and an older one returns the same retryable [`StorageError::Conflict`]
//! instead of waiting (the caller's retry/backoff loop absorbs it). Past
//! [`ROW_LOCK_ESCALATION`] row locks on one table, the owner's `IX` is
//! opportunistically upgraded to a table `X` (when no other session
//! holds the table) so whole-table rewrites don't
//! allocate thousands of entries; on conflict the upgrade is simply
//! skipped and row locks continue.
//!
//! Lock upgrades (e.g. `S` → `IX`, which joins to `X`) are granted in
//! place when compatible with every other holder and otherwise follow
//! the same wait-die rule.

use crate::metrics::{add, bump, MetricsSnapshot, StorageMetrics};
use crate::{StorageError, StorageResult};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Row locks escalate to a table `X` once one owner holds this many on
/// one table.
pub const ROW_LOCK_ESCALATION: usize = 64;

/// What an owner may do with a resource while holding the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Intent to write individual rows: the owner will take row-level
    /// `Exclusive` locks under this table lock.
    IntentExclusive,
    /// Whole-table read; conflicts with `IntentExclusive` and
    /// `Exclusive`.
    Shared,
    /// Sole access; conflicts with everything.
    Exclusive,
}

impl LockMode {
    /// The compatibility matrix: may `self` (held) coexist with a
    /// request for `other` by a different owner?
    fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (Exclusive, _) | (_, Exclusive) => false,
            (IntentExclusive, IntentExclusive) | (Shared, Shared) => true,
            _ => false, // IX vs S, either direction
        }
    }

    /// Whether holding `self` already satisfies a request for `other`
    /// (re-entrant acquisitions are no-ops).
    fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (Exclusive, _) => true,
            (IntentExclusive, IntentExclusive) | (Shared, Shared) => true,
            (Shared, IntentExclusive) | (IntentExclusive, Shared) => false,
            _ => self == other,
        }
    }

    /// Least mode satisfying both `self` and `other` — the upgrade
    /// target. With no `SIX` mode in the lattice, `S ∨ IX = X`.
    fn join(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self.covers(other) {
            return self;
        }
        if other.covers(self) {
            return other;
        }
        // The only incomparable pair below X is {Shared, IntentExclusive}.
        debug_assert!(matches!(
            (self, other),
            (Shared, IntentExclusive) | (IntentExclusive, Shared)
        ));
        Exclusive
    }
}

#[derive(Default)]
struct LockState {
    /// Table (or pseudo) resource → (owner id → granted mode).
    locks: HashMap<String, HashMap<u64, LockMode>>,
    /// `(table, rid key)` → owner holding the row exclusively. Row
    /// locks have one mode (`X`), so the value is just the owner.
    rows: HashMap<(String, u64), u64>,
    /// Row locks held per (owner, table) — the escalation trigger.
    row_counts: HashMap<(u64, String), usize>,
}

/// The lock table. One per shared database.
pub struct LockManager {
    state: Mutex<LockState>,
    released: Condvar,
    timeout: Duration,
    /// Contention counters ([`crate::metrics`]). The lock manager is
    /// not tied to a buffer pool, so it keeps its own registry; the
    /// server merges this snapshot with the engine's.
    metrics: StorageMetrics,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

fn lock_state<'a>(m: &'a Mutex<LockState>) -> MutexGuard<'a, LockState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl LockManager {
    /// A lock manager with the default 10-second wait timeout.
    pub fn new() -> LockManager {
        Self::with_timeout(Duration::from_secs(10))
    }

    /// A lock manager whose waiters give up (with
    /// [`StorageError::Conflict`]) after `timeout`.
    pub fn with_timeout(timeout: Duration) -> LockManager {
        LockManager {
            state: Mutex::new(LockState::default()),
            released: Condvar::new(),
            timeout,
            metrics: StorageMetrics::default(),
        }
    }

    /// Snapshot of the contention counters (only the `lock_*` and
    /// `row_lock_*` fields are ever non-zero here).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Snapshot of the latency histograms (only `lock_wait` is ever
    /// non-zero here).
    pub fn histograms(&self) -> crate::metrics::HistogramsSnapshot {
        self.metrics.histograms_snapshot()
    }

    fn grant_counter(&self, mode: LockMode) -> &std::sync::atomic::AtomicU64 {
        match mode {
            LockMode::Shared => &self.metrics.lock_shared,
            LockMode::Exclusive => &self.metrics.lock_exclusive,
            LockMode::IntentExclusive => &self.metrics.lock_intent,
        }
    }

    /// Acquires (or upgrades to) `mode` on `resource` for `owner`,
    /// blocking while older-than-every-conflicting-holder, dying
    /// otherwise. Re-acquiring a covered mode is a no-op; upgrades join
    /// the held and requested modes (`S` + `IX` → `X`).
    pub fn acquire(&self, owner: u64, resource: &str, mode: LockMode) -> StorageResult<()> {
        let deadline = Instant::now() + self.timeout;
        let mut state = lock_state(&self.state);
        loop {
            let holders = state.locks.entry(resource.to_owned()).or_default();
            let wanted = match holders.get(&owner) {
                Some(held) if held.covers(mode) => return Ok(()),
                Some(held) => held.join(mode),
                None => mode,
            };
            let conflicting: Vec<u64> = holders
                .iter()
                .filter(|(&o, &m)| o != owner && !m.compatible(wanted))
                .map(|(&o, _)| o)
                .collect();
            if conflicting.is_empty() {
                holders.insert(owner, wanted);
                bump(self.grant_counter(wanted));
                return Ok(());
            }
            // Wait-die: only an owner older than every conflicting
            // holder may wait; a younger one dies so no cycle can form.
            if conflicting.iter().any(|&holder| holder < owner) {
                bump(&self.metrics.lock_wait_die_aborts);
                return Err(StorageError::Conflict(format!(
                    "wait-die: transaction {owner} is younger than a holder of '{resource}'"
                )));
            }
            let now = Instant::now();
            if now >= deadline {
                // Grantability was just re-checked above — this owner
                // really did wait out the clock against live holders.
                bump(&self.metrics.lock_timeouts);
                return Err(StorageError::Conflict(format!(
                    "timed out waiting for lock on '{resource}'"
                )));
            }
            bump(&self.metrics.lock_waits);
            let (next, _timed_out) = self
                .released
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            let waited = now.elapsed().as_nanos() as u64;
            add(&self.metrics.lock_wait_nanos, waited);
            // The same interval, as a distribution: histogram total and
            // the counter move in lockstep.
            self.metrics.histograms.lock_wait.record(waited);
            state = next;
            // Even a timed-out wakeup loops back for one more
            // grantability check: a `release_all` racing the timeout
            // notifies the condvar after the clock expired, and
            // failing without looking would discard a lock that is in
            // fact free. The deadline check above turns a still-held
            // conflict into the timeout error.
        }
    }

    /// Acquires an exclusive lock on one row of `table` for `owner`,
    /// which must already hold the table `IX` (or stronger). Never
    /// blocks — see the module docs: a conflicting row is a retryable
    /// [`StorageError::Conflict`] either way, with wait-die deciding
    /// who gets the abort counted against it. Past the escalation
    /// threshold the owner's table lock is upgraded to `X` when no
    /// other session holds the table.
    pub fn acquire_row(&self, owner: u64, table: &str, row: u64) -> StorageResult<()> {
        let mut state = lock_state(&self.state);
        if let Some(holders) = state.locks.get(table) {
            if holders.get(&owner) == Some(&LockMode::Exclusive) {
                // Escalated (or planned X): the table lock covers every
                // row; individual entries are pointless.
                return Ok(());
            }
        }
        let key = (table.to_owned(), row);
        match state.rows.get(&key) {
            Some(&holder) if holder == owner => return Ok(()),
            Some(&holder) => {
                bump(&self.metrics.row_lock_conflicts);
                if holder < owner {
                    bump(&self.metrics.lock_wait_die_aborts);
                    return Err(StorageError::Conflict(format!(
                        "wait-die: transaction {owner} is younger than the holder of a row of '{table}'"
                    )));
                }
                // An older owner would be entitled to wait, but row
                // locks are taken under the statement latch the holder
                // needs to finish — waiting here would deadlock. Abort
                // retryably instead.
                return Err(StorageError::Conflict(format!(
                    "row of '{table}' is write-locked by a younger transaction; retry"
                )));
            }
            None => {}
        }
        state.rows.insert(key, owner);
        bump(&self.metrics.row_lock_exclusive);
        let count = state
            .row_counts
            .entry((owner, table.to_owned()))
            .or_insert(0);
        *count += 1;
        if *count >= ROW_LOCK_ESCALATION {
            self.try_escalate(&mut state, owner, table);
        }
        Ok(())
    }

    /// Opportunistic row→table escalation: upgrade `owner`'s table lock
    /// to `X` if no other session holds the table in any mode. Row-lock
    /// holders always hold the table `IX`, so "no other table holder"
    /// implies "no other row holder" too. On conflict this simply does
    /// nothing and row locks keep accumulating.
    fn try_escalate(&self, state: &mut LockState, owner: u64, table: &str) {
        let Some(holders) = state.locks.get_mut(table) else {
            return;
        };
        let alone = holders.keys().all(|&o| o == owner);
        if alone
            && holders
                .get(&owner)
                .is_some_and(|m| *m != LockMode::Exclusive)
        {
            holders.insert(owner, LockMode::Exclusive);
            bump(&self.metrics.lock_exclusive);
            bump(&self.metrics.row_lock_escalations);
        }
    }

    /// Releases every lock `owner` holds — table and row granularity —
    /// (transaction end) and wakes all waiters.
    pub fn release_all(&self, owner: u64) {
        let mut state = lock_state(&self.state);
        state.locks.retain(|_, holders| {
            holders.remove(&owner);
            !holders.is_empty()
        });
        state.rows.retain(|_, &mut holder| holder != owner);
        state.row_counts.retain(|(o, _), _| *o != owner);
        self.released.notify_all();
    }

    /// Test seam for the lost-wakeup regression: releases like
    /// [`LockManager::release_all`] but *without* notifying the
    /// condvar, so a waiter only discovers the release when its wait
    /// times out — which must still grant, not fail.
    #[cfg(test)]
    fn release_all_quiet(&self, owner: u64) {
        let mut state = lock_state(&self.state);
        state.locks.retain(|_, holders| {
            holders.remove(&owner);
            !holders.is_empty()
        });
        state.rows.retain(|_, &mut holder| holder != owner);
        state.row_counts.retain(|(o, _), _| *o != owner);
    }

    /// Modes currently granted on `resource` (diagnostics and tests).
    pub fn holders(&self, resource: &str) -> Vec<(u64, LockMode)> {
        let state = lock_state(&self.state);
        state
            .locks
            .get(resource)
            .map(|h| {
                let mut v: Vec<_> = h.iter().map(|(&o, &m)| (o, m)).collect();
                v.sort_unstable_by_key(|&(o, _)| o);
                v
            })
            .unwrap_or_default()
    }

    /// Row locks currently held on `table` (diagnostics and tests).
    pub fn row_holders(&self, table: &str) -> Vec<(u64, u64)> {
        let state = lock_state(&self.state);
        let mut v: Vec<(u64, u64)> = state
            .rows
            .iter()
            .filter(|((t, _), _)| t == table)
            .map(|(&(_, row), &owner)| (row, owner))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use LockMode::*;

    #[test]
    fn compatibility_matrix_is_the_textbook_one() {
        let modes = [IntentExclusive, Shared, Exclusive];
        let expect = [
            // IX     S      X
            [true, false, false],  // IX
            [false, true, false],  // S
            [false, false, false], // X
        ];
        for (i, &a) in modes.iter().enumerate() {
            for (j, &b) in modes.iter().enumerate() {
                assert_eq!(a.compatible(b), expect[i][j], "{a:?} vs {b:?}");
                assert_eq!(a.compatible(b), b.compatible(a), "symmetry {a:?}/{b:?}");
            }
        }
    }

    #[test]
    fn join_upgrades_through_the_lattice() {
        assert_eq!(Shared.join(IntentExclusive), Exclusive);
        assert_eq!(IntentExclusive.join(Shared), Exclusive);
        assert_eq!(Exclusive.join(Shared), Exclusive);
        assert_eq!(Shared.join(Shared), Shared);
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(1, "t", Shared).unwrap();
        lm.acquire(2, "t", Shared).unwrap();
        // Owner 3 is younger than holders 1 and 2: dies immediately.
        assert!(matches!(
            lm.acquire(3, "t", Exclusive),
            Err(StorageError::Conflict(_))
        ));
        lm.release_all(1);
        lm.release_all(2);
        lm.acquire(3, "t", Exclusive).unwrap();
        assert!(matches!(
            lm.acquire(4, "t", Shared),
            Err(StorageError::Conflict(_))
        ));
    }

    #[test]
    fn intent_exclusive_locks_coexist_but_exclude_readers() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(1, "t", IntentExclusive).unwrap();
        lm.acquire(2, "t", IntentExclusive).unwrap();
        // A younger reader dies against the writers' intent locks.
        assert!(matches!(
            lm.acquire(3, "t", Shared),
            Err(StorageError::Conflict(_))
        ));
        lm.release_all(1);
        lm.release_all(2);
        lm.acquire(3, "t", Shared).unwrap();
        // And a younger intent writer dies against the reader.
        assert!(matches!(
            lm.acquire(4, "t", IntentExclusive),
            Err(StorageError::Conflict(_))
        ));
    }

    #[test]
    fn reentrant_and_upgrade_in_place() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(1, "t", Shared).unwrap();
        lm.acquire(1, "t", Shared).unwrap();
        // Sole holder: upgrade granted in place.
        lm.acquire(1, "t", Exclusive).unwrap();
        // Exclusive satisfies shared.
        lm.acquire(1, "t", Shared).unwrap();
        assert_eq!(lm.holders("t"), vec![(1, Exclusive)]);
        lm.release_all(1);
        assert!(lm.holders("t").is_empty());
    }

    #[test]
    fn read_then_write_upgrade_joins_to_exclusive() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(1, "t", Shared).unwrap();
        // S + IX has no SIX mode to land on: the join is X.
        lm.acquire(1, "t", IntentExclusive).unwrap();
        assert_eq!(lm.holders("t"), vec![(1, Exclusive)]);
        lm.release_all(1);
    }

    #[test]
    fn older_owner_waits_for_younger_holder() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(10, "t", Exclusive).unwrap();
        let waiter = {
            let lm = Arc::clone(&lm);
            std::thread::spawn(move || {
                // Owner 5 is older than holder 10: blocks until release.
                lm.acquire(5, "t", Exclusive).unwrap();
                lm.release_all(5);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "older owner must wait, not die");
        lm.release_all(10);
        waiter.join().unwrap();
    }

    #[test]
    fn younger_owner_dies_instead_of_deadlocking() {
        let lm = LockManager::new();
        lm.acquire(1, "a", Exclusive).unwrap();
        lm.acquire(2, "b", Exclusive).unwrap();
        // The classic crossing: 2 wants a (held by older 1) → dies at
        // once instead of waiting for a cycle to form.
        assert!(matches!(
            lm.acquire(2, "a", Exclusive),
            Err(StorageError::Conflict(_))
        ));
        lm.release_all(2);
        // 1 can now take b: no deadlock ever existed.
        lm.acquire(1, "b", Exclusive).unwrap();
        lm.release_all(1);
    }

    #[test]
    fn waiting_times_out_with_conflict_and_counts_it() {
        let lm = LockManager::with_timeout(Duration::from_millis(40));
        lm.acquire(10, "t", Exclusive).unwrap();
        // Owner 5 is older, so it waits — and then times out.
        let err = lm.acquire(5, "t", Shared).unwrap_err();
        assert!(matches!(err, StorageError::Conflict(_)), "{err}");
        assert_eq!(lm.metrics().lock_timeouts, 1, "timeout must be counted");
        lm.release_all(10);
        lm.acquire(5, "t", Shared).unwrap();
    }

    /// Satellite regression: a `release_all` that lands with (or after)
    /// the wait timeout must not be discarded. The quiet release never
    /// notifies the condvar, so the waiter only wakes when its wait
    /// times out — and the post-timeout re-check must grant the lock
    /// rather than abort.
    #[test]
    fn timed_out_wakeup_recheck_grants_a_released_lock() {
        let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(150)));
        lm.acquire(10, "t", Exclusive).unwrap();
        let waiter = {
            let lm = Arc::clone(&lm);
            std::thread::spawn(move || lm.acquire(5, "t", Exclusive))
        };
        // Let the waiter start waiting, then release without a wakeup.
        std::thread::sleep(Duration::from_millis(40));
        lm.release_all_quiet(10);
        waiter
            .join()
            .unwrap()
            .expect("released lock must be granted on the timed-out re-check");
        assert_eq!(lm.holders("t"), vec![(5, LockMode::Exclusive)]);
        assert_eq!(lm.metrics().lock_timeouts, 0, "this was not a timeout");
    }

    #[test]
    fn upgrade_with_other_sharers_follows_wait_die() {
        let lm = LockManager::with_timeout(Duration::from_millis(40));
        lm.acquire(1, "t", Shared).unwrap();
        lm.acquire(2, "t", Shared).unwrap();
        // 2 upgrading while older 1 still shares: 2 is younger → dies.
        assert!(matches!(
            lm.acquire(2, "t", Exclusive),
            Err(StorageError::Conflict(_))
        ));
        // 1 upgrading while younger 2 still shares: waits, then times out.
        assert!(matches!(
            lm.acquire(1, "t", Exclusive),
            Err(StorageError::Conflict(_))
        ));
        lm.release_all(2);
        lm.acquire(1, "t", Exclusive).unwrap();
    }

    #[test]
    fn disjoint_row_locks_coexist_same_row_conflicts() {
        let lm = LockManager::with_timeout(Duration::from_millis(40));
        lm.acquire(1, "t", IntentExclusive).unwrap();
        lm.acquire(2, "t", IntentExclusive).unwrap();
        lm.acquire_row(1, "t", 7).unwrap();
        lm.acquire_row(2, "t", 8).unwrap();
        // Re-entrant row acquisition is a no-op.
        lm.acquire_row(1, "t", 7).unwrap();
        // Same row: younger 2 dies...
        assert!(matches!(
            lm.acquire_row(2, "t", 7),
            Err(StorageError::Conflict(_))
        ));
        // ...and older 1 aborts retryably instead of waiting (row locks
        // never block — the statement latch deadlock).
        assert!(matches!(
            lm.acquire_row(1, "t", 8),
            Err(StorageError::Conflict(_))
        ));
        let m = lm.metrics();
        assert_eq!(m.row_lock_exclusive, 2);
        assert_eq!(m.row_lock_conflicts, 2);
        lm.release_all(1);
        // 1's row is free now; 2 takes it.
        lm.acquire_row(2, "t", 7).unwrap();
        lm.release_all(2);
        assert!(lm.row_holders("t").is_empty());
    }

    #[test]
    fn row_locks_escalate_to_table_exclusive_past_the_threshold() {
        let lm = LockManager::with_timeout(Duration::from_millis(40));
        let threshold = ROW_LOCK_ESCALATION as u64;
        lm.acquire(1, "t", IntentExclusive).unwrap();
        for row in 0..threshold - 1 {
            lm.acquire_row(1, "t", row).unwrap();
        }
        assert_eq!(lm.holders("t"), vec![(1, IntentExclusive)]);
        // The threshold-th row crosses it: IX → X.
        lm.acquire_row(1, "t", threshold - 1).unwrap();
        assert_eq!(lm.holders("t"), vec![(1, Exclusive)]);
        assert_eq!(lm.metrics().row_lock_escalations, 1);
        // Further rows ride the table lock without new entries.
        lm.acquire_row(1, "t", threshold).unwrap();
        assert_eq!(lm.metrics().row_lock_exclusive, threshold);
        // Another session now conflicts at the table, not the row.
        assert!(matches!(
            lm.acquire(2, "t", IntentExclusive),
            Err(StorageError::Conflict(_))
        ));
        lm.release_all(1);
        lm.acquire(2, "t", IntentExclusive).unwrap();
    }

    #[test]
    fn escalation_is_skipped_while_the_table_is_shared() {
        let lm = LockManager::with_timeout(Duration::from_millis(40));
        let rows = ROW_LOCK_ESCALATION + 1;
        lm.acquire(1, "t", IntentExclusive).unwrap();
        lm.acquire(2, "t", IntentExclusive).unwrap();
        for row in 0..rows as u64 {
            lm.acquire_row(1, "t", row).unwrap();
        }
        // Owner 2 still holds IX, so owner 1 cannot escalate — and must
        // not error out; row locks just keep accumulating.
        assert_eq!(
            lm.holders("t"),
            vec![(1, IntentExclusive), (2, IntentExclusive)]
        );
        assert_eq!(lm.metrics().row_lock_escalations, 0);
        assert_eq!(lm.row_holders("t").len(), rows);
        // Once alone, the next row lock escalates.
        lm.release_all(2);
        lm.acquire_row(1, "t", 999).unwrap();
        assert_eq!(lm.holders("t"), vec![(1, Exclusive)]);
        assert_eq!(lm.metrics().row_lock_escalations, 1);
        lm.release_all(1);
    }
}
