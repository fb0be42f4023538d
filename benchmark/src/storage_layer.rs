//! Storage-layer metrics from the engine's public counter registry
//! (`SharedDatabase::metrics` / `histograms` — the same numbers the
//! `STATS` and `STATS HISTOGRAMS` wire verbs render), as deltas over the
//! traced segment.

use crate::metrics::Values;
use crate::util::ratio;
use std::collections::BTreeMap;
use storage::{HistogramSnapshot, HistogramsSnapshot, MetricsSnapshot};

/// Counter name → increase between two snapshots. Names are the `STATS`
/// row names, so a counter the engine drops reads as 0 here instead of
/// breaking the build.
pub struct CounterDelta(BTreeMap<&'static str, u64>);

impl CounterDelta {
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> CounterDelta {
        let before: BTreeMap<_, _> = before.counters().into_iter().collect();
        CounterDelta(
            after
                .counters()
                .into_iter()
                .map(|(name, v)| (name, v.saturating_sub(*before.get(name).unwrap_or(&0))))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }

    /// Buffer-pool fetches: the paper's page-access cost model.
    pub fn pages(&self) -> f64 {
        self.get("fault_ins") + self.get("buffer_hits")
    }
}

/// Samples recorded into one histogram between two snapshots.
struct HistogramDelta {
    buckets: Vec<u64>,
}

impl HistogramDelta {
    fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramDelta {
        HistogramDelta {
            buckets: after
                .buckets
                .iter()
                .zip(before.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }

    fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Median in microseconds. Bucket `i` holds samples in
    /// `[2^i, 2^(i+1))` ns; the median is interpolated linearly inside
    /// the bucket it falls in.
    fn p50_us(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let target = count as f64 / 2.0;
        let mut seen = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && seen + c as f64 >= target {
                let lower = (1u64 << i) as f64;
                return lower * (1.0 + (target - seen) / c as f64) / 1_000.0;
            }
            seen += c as f64;
        }
        0.0
    }
}

fn histogram_delta(
    before: &HistogramsSnapshot,
    after: &HistogramsSnapshot,
    name: &str,
) -> HistogramDelta {
    let find = |set: &HistogramsSnapshot| {
        set.histograms()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
            .unwrap_or_default()
    };
    HistogramDelta::between(&find(before), &find(after))
}

/// Inserts every storage-layer metric that is a pure function of the
/// counter and histogram deltas. `ops` is the number of traced ops.
pub fn insert(
    v: &mut Values,
    d: &CounterDelta,
    hist_before: &HistogramsSnapshot,
    hist_after: &HistogramsSnapshot,
    ops: f64,
) {
    let per_op = |name: &str| ratio(d.get(name), ops);
    let per_kop = |name: &str| ratio(d.get(name) * 1_000.0, ops);
    let commits = histogram_delta(hist_before, hist_after, "commit");
    let per_commit = |name: &str| ratio(d.get(name), commits.count() as f64);

    v.insert("buffer.fetches_per_op", ratio(d.pages(), ops));
    v.insert("buffer.hit_ratio", ratio(d.get("buffer_hits"), d.pages()));
    v.insert("buffer.fault_ins_per_op", per_op("fault_ins"));
    v.insert("buffer.evictions_per_op", per_op("evictions"));
    v.insert("buffer.steals_per_op", per_op("steals"));
    v.insert(
        "buffer.shard_conflicts_per_kop",
        per_kop("pool_shard_conflicts"),
    );
    v.insert(
        "buffer.fault_in_p50_us",
        histogram_delta(hist_before, hist_after, "fault_in").p50_us(),
    );
    v.insert("btree.descents_per_op", per_op("btree_descents"));
    v.insert("btree.splits", d.get("btree_splits"));
    v.insert("btree.latch_waits_per_kop", per_kop("btree_latch_waits"));
    v.insert("heap.inserts_per_op", per_op("heap_inserts"));
    v.insert("heap.rewrites_per_op", per_op("heap_rewrites"));
    v.insert("heap.compactions", d.get("heap_compactions"));
    v.insert("wal.bytes_per_commit", per_commit("wal_bytes"));
    v.insert("wal.appends_per_commit", per_commit("wal_appends"));
    v.insert("wal.fsyncs_per_commit", per_commit("wal_fsyncs"));
    v.insert("wal.undo_images_per_commit", per_commit("wal_undo_images"));
    v.insert(
        "wal.fsync_p50_us",
        histogram_delta(hist_before, hist_after, "wal_fsync").p50_us(),
    );
    v.insert("wal.commit_p50_us", commits.p50_us());
    v.insert("wal.checkpoints", d.get("wal_checkpoints"));
    v.insert("lock.waits_per_op", per_op("lock_waits"));
    v.insert(
        "lock.wait_us_per_op",
        ratio(d.get("lock_wait_nanos") / 1_000.0, ops),
    );
    v.insert(
        "lock.wait_die_aborts_per_op",
        per_op("lock_wait_die_aborts"),
    );
    v.insert("lock.row_conflicts_per_op", per_op("row_lock_conflicts"));
    v.insert("lock.escalations", d.get("row_lock_escalations"));
    v.insert("mvcc.snapshot_reads_per_op", per_op("snapshot_reads"));
    v.insert("mvcc.versions_kept_per_op", per_op("versions_kept"));
    v.insert("mvcc.versions_gc_per_op", per_op("versions_gc"));
}
