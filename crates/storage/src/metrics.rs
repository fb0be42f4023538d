//! Engine-wide observability: a registry of cumulative atomic counters.
//!
//! The paper's optimizer justifies itself by *measured* cost, so the
//! storage layer keeps a running account of everything it does. One
//! [`StorageMetrics`] registry exists per database: the WAL creates it
//! (before recovery, so recovery counts into it too), and the buffer
//! pool, the access methods, MVCC and the server's lock manager share
//! it by `Arc`. Every event is counted here and nowhere else,
//! lock-free, from every hot path:
//!
//! * **buffer pool** ([`crate::buffer`]) — fault-ins, hits, clock-sweep
//!   steps, evictions, steals, page write-backs, pending-undo restores;
//! * **write-ahead log** ([`crate::wal`]) — appends, bytes, forced
//!   fsyncs, undo images, checkpoints, plus the redo/undo page images
//!   crash recovery applied;
//! * **lock manager** ([`crate::lock`]) — grants by mode, waits,
//!   wait-die aborts, total nanoseconds spent blocked;
//! * **access methods** ([`crate::heap`], [`crate::btree`], routed
//!   through the pool they already receive) — heap inserts, in-place
//!   rewrites/relocations, page compactions, B+-tree splits and
//!   root-to-leaf descents.
//!
//! Reading is always a [`StorageMetrics::snapshot`]: a plain `Copy`
//! struct whose [`MetricsSnapshot::counters`] method yields stable
//! `(name, value)` pairs — the single source of truth for the server's
//! `STATS` wire rows and the benchmark JSON emitter, so the catalog
//! cannot drift between surfaces. Counters use relaxed ordering: they
//! are statistics, not synchronization.
//!
//! Counters answer "how many"; **latency histograms** answer "how
//! long, and how badly at the tail". Each registry also carries a
//! [`StorageHistograms`] set of lock-free [`LatencyHistogram`]s —
//! fixed log2 buckets of relaxed `AtomicU64`s, recorded inline at the
//! same sites that bump the matching counters:
//!
//! * `wal_fsync` — duration of each forced log sync ([`crate::wal`];
//!   one record per `wal_fsyncs` bump);
//! * `commit` — duration of each commit force (WAL transaction close,
//!   [`crate::buffer`]);
//! * `fault_in` — pager read latency for each buffer-pool miss
//!   ([`crate::buffer`]; one record per `fault_ins` bump);
//! * `lock_wait` — each blocked wait interval in the lock manager
//!   ([`crate::lock`]; the same intervals summed by `lock_wait_nanos`).
//!
//! A [`HistogramSnapshot`] reduces a histogram to count / total / max
//! and estimated p50/p90/p99 (bucket upper bound, clamped to the
//! observed max).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets per histogram. Bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0 ns); the last
/// bucket absorbs everything from ~2.1 s up.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free fixed-bucket log2 latency histogram. Recording is one
/// relaxed `fetch_add` per bucket plus total/max upkeep — cheap enough
/// for fsync/commit/fault-in/lock-wait hot paths.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// Index of the bucket holding `nanos`: `floor(log2(nanos))`,
    /// clamped to the last bucket (0 and 1 ns share bucket 0).
    #[inline]
    fn bucket_index(nanos: u64) -> usize {
        if nanos < 2 {
            0
        } else {
            ((63 - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample (relaxed; statistics, not synchronization).
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Copies the buckets into a plain snapshot (per-bucket atomic, not
    /// a consistent cut — fine for statistics).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram, with derived statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` = `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of every recorded sample, in nanoseconds.
    pub total_nanos: u64,
    /// Largest recorded sample, in nanoseconds.
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated percentile (`p` in 0..=100): the upper bound of the
    /// bucket containing the `ceil(p% * count)`-th sample, clamped to
    /// the observed max. Zero when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The overflow bucket has no finite upper bound (it
                // absorbs everything from 2^(BUCKETS-1) ns up), so a
                // percentile landing there reports the observed max
                // instead of the bucket boundary.
                let upper = if i + 1 >= HISTOGRAM_BUCKETS {
                    self.max_nanos
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// The derived statistics every surface renders, in wire order:
    /// `count`, `total_nanos`, `p50_nanos`, `p90_nanos`, `p99_nanos`,
    /// `max_nanos`.
    pub const STAT_NAMES: &'static [&'static str] = &[
        "count",
        "total_nanos",
        "p50_nanos",
        "p90_nanos",
        "p99_nanos",
        "max_nanos",
    ];

    /// `(stat, value)` pairs in [`Self::STAT_NAMES`] order.
    pub fn stats(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("count", self.count()),
            ("total_nanos", self.total_nanos),
            ("p50_nanos", self.percentile(50.0)),
            ("p90_nanos", self.percentile(90.0)),
            ("p99_nanos", self.percentile(99.0)),
            ("max_nanos", self.max_nanos),
        ]
    }
}

/// Adds one to a counter (relaxed; these are statistics).
#[inline]
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds `n` to a counter (relaxed).
#[inline]
pub fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

macro_rules! histograms {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// The live histogram registry: one [`LatencyHistogram`] per
        /// instrumented duration. Embedded in every [`StorageMetrics`]
        /// so the recording sites that already hold a registry need no
        /// extra plumbing.
        #[derive(Debug, Default)]
        pub struct StorageHistograms {
            $($(#[$doc])* pub $name: LatencyHistogram,)+
        }

        /// A point-in-time copy of every histogram.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct HistogramsSnapshot {
            $($(#[$doc])* pub $name: HistogramSnapshot,)+
        }

        impl StorageHistograms {
            /// Copies every histogram (per-bucket relaxed loads).
            pub fn snapshot(&self) -> HistogramsSnapshot {
                HistogramsSnapshot {
                    $($name: self.$name.snapshot(),)+
                }
            }
        }

        impl HistogramsSnapshot {
            /// Histogram names in declaration order — the wire schema.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name),)+];

            /// `(name, snapshot)` pairs in declaration order; the
            /// `STATS HISTOGRAMS` wire rows render from this one list.
            pub fn histograms(&self) -> Vec<(&'static str, HistogramSnapshot)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

histograms! {
    /// Duration of each forced WAL sync (`sync_data`); recorded
    /// exactly where `wal_fsyncs` bumps, so count == counter.
    wal_fsync,
    /// Duration of each commit force: Begin + page images + Commit
    /// appended and the log synced.
    commit,
    /// Pager read latency of each buffer-pool miss; recorded exactly
    /// where `fault_ins` bumps, so count == counter.
    fault_in,
    /// Each blocked wait interval in the lock manager — the same
    /// intervals `lock_wait_nanos` sums, so total <= the counter
    /// (modulo the clamp of concurrent in-flight waits).
    lock_wait,
}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// The live registry: one `AtomicU64` per counter, plus the
        /// [`StorageHistograms`] duration registry. See the module
        /// docs for who increments what.
        #[derive(Debug, Default)]
        pub struct StorageMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)+
            /// The latency-histogram registry riding alongside the
            /// counters (not part of [`MetricsSnapshot`] — snapshot it
            /// separately via [`StorageMetrics::histograms_snapshot`]).
            pub histograms: StorageHistograms,
        }

        /// A point-in-time copy of every counter.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl StorageMetrics {
            /// Copies every counter (relaxed loads; per-counter atomic,
            /// not a consistent cut — fine for statistics).
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Copies every latency histogram (see [`StorageHistograms`]).
            pub fn histograms_snapshot(&self) -> HistogramsSnapshot {
                self.histograms.snapshot()
            }
        }

        impl MetricsSnapshot {
            /// Counter names in declaration order — the wire/JSON schema.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name),)+];

            /// `(name, value)` pairs in declaration order; every surface
            /// (STATS rows, bench JSON) renders from this one list.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

counters! {
    /// Pages faulted in from the pager (buffer-pool misses).
    fault_ins,
    /// Fetches served from a resident frame (buffer-pool hits).
    buffer_hits,
    /// Clock-hand steps taken while hunting for an eviction victim.
    clock_sweeps,
    /// Frames evicted by the plain clock (pass 1, unowned frames).
    evictions,
    /// Frames stolen (evicted while owned by an open transaction,
    /// after their undo image was forced to the log).
    steals,
    /// Pages written back to the pager: eviction and steal write-backs
    /// and the two flush loops (parked undo images, dirty frames).
    page_writes,
    /// Parked undo images applied after a failed abort restore (served
    /// to a fault-in or written back by flush).
    pending_undo_restores,
    /// WAL frames appended (all record kinds).
    wal_appends,
    /// WAL bytes appended, frame headers included.
    wal_bytes,
    /// Forced log syncs (commit force, steal's write-ahead force).
    wal_fsyncs,
    /// UndoImage frames appended (one per steal of a first-touch page).
    wal_undo_images,
    /// Log truncations (explicit/automatic checkpoints and the
    /// checkpoint that ends every crash recovery).
    wal_checkpoints,
    /// Committed page images replayed by crash recovery (cumulative
    /// across every recovery this registry has seen, like all other
    /// counters; an engine recovers at most once, on open).
    recovery_redo_frames,
    /// Loser-transaction undo images applied by crash recovery
    /// (cumulative across recoveries, like `recovery_redo_frames`).
    recovery_undo_frames,
    /// Shared-mode lock grants (fresh grants; re-entrant no-ops not
    /// counted).
    lock_shared,
    /// Exclusive-mode lock grants (fresh grants and in-place upgrades,
    /// row-lock escalations included).
    lock_exclusive,
    /// Intent-exclusive (IX) table lock grants.
    lock_intent,
    /// Times an acquirer blocked on the condvar waiting for a release.
    lock_waits,
    /// Acquisitions refused by wait-die (younger than a holder; table
    /// and row granularity alike).
    lock_wait_die_aborts,
    /// Acquisitions that waited out the timeout against live holders.
    lock_timeouts,
    /// Total nanoseconds acquirers spent blocked.
    lock_wait_nanos,
    /// Row-granular exclusive lock grants (fresh grants; re-entrant and
    /// covered-by-table-X no-ops not counted).
    row_lock_exclusive,
    /// Row lock requests refused because another owner held the row.
    row_lock_conflicts,
    /// Row-lock escalations: one owner's table IX upgraded to X past
    /// the threshold.
    row_lock_escalations,
    /// Tuples appended to heap files (user and system heaps alike).
    heap_inserts,
    /// Heap tuple rewrites (in-place updates and relocations).
    heap_rewrites,
    /// Slotted-page compactions (dead space repacked to fit a record).
    heap_compactions,
    /// B+-tree node splits (leaf, internal, and root).
    btree_splits,
    /// B+-tree root-to-leaf descents (insert/delete/lookup/range).
    btree_descents,
    /// Read views (MVCC snapshots) opened: one per autocommit
    /// statement and one per explicit transaction.
    snapshot_reads,
    /// Prior row versions captured for snapshot readers (one per
    /// committed row a writer rewrote or removed).
    versions_kept,
    /// Prior row versions garbage-collected once no open snapshot
    /// could still see them.
    versions_gc,
    /// Index reads that resolved their postings through a read view
    /// because the table carried version metadata (the rest read the
    /// tree and heap as they are).
    versioned_index_reads,
    /// Buffer-pool shard lookups that found the shard's stripe lock
    /// already held (contended `try_lock`; the caller then blocked).
    pool_shard_conflicts,
    /// B+-tree page-latch acquisitions that found the frame latch
    /// already held by another thread (the descent then blocked).
    btree_latch_waits,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps_and_adds() {
        let m = StorageMetrics::default();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        bump(&m.fault_ins);
        bump(&m.fault_ins);
        add(&m.wal_bytes, 4096);
        let snap = m.snapshot();
        assert_eq!(snap.fault_ins, 2);
        assert_eq!(snap.wal_bytes, 4096);
        assert_eq!(snap.buffer_hits, 0);
    }

    #[test]
    fn counters_list_is_complete_and_ordered() {
        let m = MetricsSnapshot {
            fault_ins: 7,
            btree_latch_waits: 9,
            ..Default::default()
        };
        let pairs = m.counters();
        assert_eq!(pairs.len(), MetricsSnapshot::NAMES.len());
        assert_eq!(pairs.first(), Some(&("fault_ins", 7)));
        assert_eq!(pairs.last(), Some(&("btree_latch_waits", 9)));
        let names: Vec<&str> = pairs.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, MetricsSnapshot::NAMES);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = LatencyHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(4); // bucket 2
        h.record(1023); // bucket 9
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped into the last bucket
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.count(), 8);
        assert_eq!(s.max_nanos, u64::MAX);
        assert_eq!(
            s.total_nanos,
            [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX]
                .iter()
                .fold(0u64, |a, &b| a.wrapping_add(b))
        );
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_clamped() {
        let h = LatencyHistogram::default();
        for i in 0..100u64 {
            h.record(i * 1000); // 0 .. 99 microseconds
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.percentile(50.0);
        let p90 = s.percentile(90.0);
        let p99 = s.percentile(99.0);
        assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        assert!(p99 <= s.max_nanos, "p99 {p99} > max {}", s.max_nanos);
        // The median sample is ~49.5 us; its bucket [2^15, 2^16) has an
        // upper bound of 65535 ns — a log2 estimate, never below the
        // true value's bucket lower bound.
        assert!(p50 >= 1 << 15, "p50 {p50} below the median's bucket");
        assert_eq!(s.max_nanos, 99_000);
        // A single-sample histogram reports that sample's bucket for
        // every percentile, clamped to max.
        let one = LatencyHistogram::default();
        one.record(5);
        let os = one.snapshot();
        assert_eq!(os.percentile(50.0), 5);
        assert_eq!(os.percentile(99.0), 5);
        // Empty histogram: all zeros.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.percentile(99.0), 0);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn overflow_bucket_percentile_reports_observed_max() {
        // 10 s lands in the overflow bucket (2^31 ns ≈ 2.1 s and up).
        // The old guard compared against 64 buckets, so the overflow
        // percentile reported the dead boundary (1<<32)-1 ns (~4.3 s)
        // instead of the observed maximum.
        let h = LatencyHistogram::default();
        let ten_seconds = 10_000_000_000u64;
        h.record(ten_seconds);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.percentile(50.0), ten_seconds);
        assert_eq!(s.percentile(99.0), ten_seconds);
        // Mixed histogram: the tail percentile still climbs into the
        // overflow bucket and reports the max, not (1<<32)-1.
        let mixed = LatencyHistogram::default();
        mixed.record(100);
        mixed.record(ten_seconds);
        let ms = mixed.snapshot();
        assert_eq!(ms.percentile(99.0), ten_seconds);
        assert!(ms.percentile(25.0) < 1 << 7);
    }

    #[test]
    fn histograms_registry_lists_in_wire_order() {
        let h = StorageHistograms::default();
        h.wal_fsync.record(500);
        h.lock_wait.record(2_000);
        let snap = h.snapshot();
        let pairs = snap.histograms();
        assert_eq!(pairs.len(), HistogramsSnapshot::NAMES.len());
        let names: Vec<&str> = pairs.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, HistogramsSnapshot::NAMES);
        assert_eq!(snap.wal_fsync.count(), 1);
        assert_eq!(snap.commit.count(), 0);
        assert_eq!(snap.lock_wait.total_nanos, 2_000);
    }

    #[test]
    fn histogram_stats_render_in_wire_order() {
        let h = LatencyHistogram::default();
        h.record(7);
        let stats = h.snapshot().stats();
        let names: Vec<&str> = stats.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, HistogramSnapshot::STAT_NAMES);
        assert_eq!(stats[0], ("count", 1));
        assert_eq!(stats[1], ("total_nanos", 7));
        assert_eq!(stats[5], ("max_nanos", 7));
    }
}
