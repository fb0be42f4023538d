//! Bounded exponential backoff for wait-die `Conflict` retries.
//!
//! Under a contended table, wait-die kills every younger transaction
//! the moment it touches the hot lock; a client that retries in a hot
//! loop immediately collides with the same older holder and dies
//! again, burning CPU on thousands of futile round trips
//! (`tests/concurrency.rs::backoff_counters_surface_in_session_stats`
//! drives this loop; CHANGES.md, PR 21, records the last spin-vs-backoff
//! retry counts measured). Row-granular locking shrinks the blast
//! radius — only same-row writers conflict, and their non-blocking row
//! locks surface as the same retryable `Conflict` regardless of age —
//! but does not remove it, so the loop here serves both granularities
//! unchanged. [`Backoff`] spaces the retries out:
//! every loss doubles a capped delay, and deterministic jitter (an
//! inline SplitMix64, no external RNG dependency) decorrelates clients
//! that lost the same race so they do not stampede back in lockstep.
//!
//! The jitter follows the classic "equal jitter" recipe: the delay for
//! attempt *n* is uniform in `[ceil/2, ceil]` where
//! `ceil = min(cap, base << n)` — bounded above by `cap`, never zero,
//! and growing geometrically while the conflict persists.

use crate::{ServerError, ServerResult, ServerSession};
use rqs::QueryResult;
use std::time::Duration;

/// Capped exponential backoff with deterministic jitter. One instance
/// per client loop; it tracks the attempt count of the *current*
/// conflict streak (reset on success) plus a cumulative retry counter
/// for reporting.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    state: u64,
    total_retries: u64,
    total_sleep: Duration,
}

impl Backoff {
    /// Default bounds tuned for in-process lock conflicts: 100 µs base,
    /// 10 ms cap. `seed` decorrelates concurrent clients — pass
    /// something per-client (a thread index is fine).
    pub fn new(seed: u64) -> Backoff {
        Self::with_bounds(seed, Duration::from_micros(100), Duration::from_millis(10))
    }

    /// Backoff growing from `base` and clamped to `cap`. Both bounds
    /// are floored at 1 ns (and `cap` at `base`) so degenerate inputs
    /// like `Duration::ZERO` still yield a valid schedule.
    pub fn with_bounds(seed: u64, base: Duration, cap: Duration) -> Backoff {
        let base = base.max(Duration::from_nanos(1));
        Backoff {
            base,
            cap: cap.max(base),
            attempt: 0,
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            total_retries: 0,
            total_sleep: Duration::ZERO,
        }
    }

    /// SplitMix64: tiny, seedable, good enough to decorrelate sleeps.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The delay to sleep before the next retry of the current conflict
    /// streak; advances the streak. Uniform in `[ceil/2, ceil]` with
    /// `ceil = min(cap, base << attempt)`.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.base.as_nanos() as u64;
        let cap = self.cap.as_nanos() as u64;
        let ceil = base
            .saturating_mul(1u64 << self.attempt.min(20))
            .clamp(base, cap);
        self.attempt = self.attempt.saturating_add(1);
        self.total_retries += 1;
        let half = ceil / 2;
        let jittered = half + self.next_u64() % (ceil - half + 1);
        let delay = Duration::from_nanos(jittered);
        self.total_sleep += delay;
        delay
    }

    /// Ends the current conflict streak (the statement went through):
    /// the next conflict starts again from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Cumulative retries this instance has slept through.
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// Cumulative time this instance has scheduled to sleep (the sum of
    /// every [`Backoff::next_delay`] handed out).
    pub fn total_sleep(&self) -> Duration {
        self.total_sleep
    }
}

/// Executes one autocommit statement, sleeping through up to
/// `max_retries` wait-die losses with `backoff`'s delays. Only
/// retryable [`ServerError`]s (lock conflicts, lock timeouts) are
/// retried; anything else — and a conflict *inside* an explicit
/// transaction, where the whole transaction was already rolled back
/// and a lone-statement retry would be wrong — surfaces immediately.
pub fn execute_with_backoff(
    session: &mut ServerSession,
    sql: &str,
    backoff: &mut Backoff,
    max_retries: u64,
) -> ServerResult<QueryResult> {
    let mut retries = 0;
    loop {
        match session.execute(sql) {
            Ok(r) => {
                backoff.reset();
                return Ok(r);
            }
            // A conflict inside an explicit transaction rolled the
            // whole transaction back: retrying this one statement would
            // silently drop the rest of it.
            Err(e @ ServerError::RolledBack(_)) => return Err(e),
            Err(e) if e.is_retryable() && retries < max_retries => {
                retries += 1;
                let delay = backoff.next_delay();
                session.note_retry(delay);
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Convenience shim on the session itself.
impl ServerSession {
    /// See [`execute_with_backoff`].
    pub fn execute_with_backoff(
        &mut self,
        sql: &str,
        backoff: &mut Backoff,
        max_retries: u64,
    ) -> ServerResult<QueryResult> {
        execute_with_backoff(self, sql, backoff, max_retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedDatabase;
    use rqs::Database;

    #[test]
    fn delays_grow_geometrically_and_stay_bounded() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(10);
        let mut b = Backoff::with_bounds(7, base, cap);
        let mut prev_ceiling = Duration::ZERO;
        for attempt in 0..40u32 {
            let d = b.next_delay();
            let ceiling = (base * 2u32.saturating_pow(attempt).max(1)).min(cap);
            assert!(d <= ceiling, "attempt {attempt}: {d:?} > {ceiling:?}");
            assert!(d >= ceiling / 2, "attempt {attempt}: {d:?} below half");
            assert!(ceiling >= prev_ceiling, "ceiling must never shrink");
            prev_ceiling = ceiling;
        }
        assert_eq!(b.total_retries(), 40);
        b.reset();
        assert!(b.next_delay() <= base, "reset must restart from base");
        // Degenerate bounds must not panic ("retry with no delay").
        let mut zero = Backoff::with_bounds(3, Duration::ZERO, Duration::ZERO);
        assert!(zero.next_delay() <= Duration::from_nanos(1));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_differs_across_seeds() {
        let run = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed);
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(run(1), run(1), "same seed, same schedule");
        assert_ne!(run(1), run(2), "different seeds must decorrelate");
    }

    #[test]
    fn contended_statement_converges_with_backoff() {
        let db = SharedDatabase::with_lock_timeout(
            Database::paged(32).unwrap(),
            Duration::from_millis(100),
        );
        db.session().execute("CREATE TABLE hot (a INT)").unwrap();
        let n = 4;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..n {
                let db = db.clone();
                scope.spawn(move || {
                    let mut s = db.session();
                    let mut backoff = Backoff::new(t as u64);
                    for i in 0..per_thread {
                        let key = t * per_thread + i;
                        s.execute_with_backoff(
                            &format!("INSERT INTO hot VALUES ({key})"),
                            &mut backoff,
                            100_000,
                        )
                        .unwrap();
                    }
                });
            }
        });
        let r = db.session().execute("SELECT v.a FROM hot v").unwrap();
        assert_eq!(r.rows.len(), n * per_thread, "no insert lost to backoff");
    }

    #[test]
    fn conflict_inside_explicit_transaction_is_not_retried() {
        let db = SharedDatabase::with_lock_timeout(
            Database::paged(32).unwrap(),
            Duration::from_millis(50),
        );
        let mut a = db.session();
        a.execute("CREATE TABLE t (x INT)").unwrap();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        // A younger session in its own transaction loses wait-die (the
        // bare DELETE's table `X` collides with the writer's `IX`); the
        // helper must surface the rollback instead of spinning on a
        // transaction that no longer exists.
        let mut b = db.session();
        b.execute("BEGIN").unwrap();
        let mut backoff = Backoff::new(9);
        let err = b
            .execute_with_backoff("DELETE FROM t", &mut backoff, 1_000)
            .unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert_eq!(backoff.total_retries(), 0, "no sleeps inside a txn");
        a.execute("COMMIT").unwrap();
    }
}
