//! The metric catalogue: every name, unit and direction the benchmark
//! reports. `BENCHMARK.json` is rendered from these tables
//! (`--print-manifest`), so the manifest and the program cannot drift.

use crate::util::{median, peak_rss_mib, windowed, Sample};
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by every `--trace 0` run.
///
/// Every bound but `pages_per_op`'s is the contract's maximum, not the
/// 0.10 / 0.10 / 0.15 / 0.10 the issue asked for: this class of 2-vCPU
/// VM alternates between two speed levels ~30 % apart every ~10 s (host
/// neighbours; steal time reads 0), which puts the inter-quartile
/// spread of ten 20-second `paper_large` runs anywhere from 4 % to 24 %
/// whatever the estimator, and `server_mixed`'s peak memory depends on
/// how many full-scan materialisations coincide (3–14 %). A bound inside
/// the noise would reject the parent itself.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pages_per_op",
        unit: "pages",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer numbers; reported by every `--trace 1` run. A layer that
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    // client
    layer("client.read_p50_us", "us", Lower),
    layer("client.read_p95_us", "us", Lower),
    layer("client.write_p50_us", "us", Lower),
    layer("client.write_p95_us", "us", Lower),
    layer("client.p99_us", "us", Lower),
    layer("client.retries_per_op", "count", Lower),
    // metaeval / dbcl
    layer("metaeval.time_us", "us", Lower),
    layer("metaeval.branches_per_goal", "count", Lower),
    layer("dbcl.rows_per_branch", "count", Lower),
    // optimizer
    layer("optimizer.time_us", "us", Lower),
    layer("optimizer.rows_removed_ratio", "ratio", Higher),
    layer("optimizer.empty_proved_ratio", "ratio", Higher),
    layer("optimizer.pages_saved_ratio", "ratio", Higher),
    layer("optimizer.payback_ratio", "ratio", Higher),
    // sqlgen / coupling
    layer("sqlgen.time_us", "us", Lower),
    layer("sqlgen.sql_bytes", "bytes", Lower),
    layer("coupling.frontend_share", "ratio", Lower),
    layer("coupling.unattributed_us", "us", Lower),
    // rqs
    layer("rqs.parse_us", "us", Lower),
    layer("rqs.plan_us", "us", Lower),
    layer("rqs.exec_us", "us", Lower),
    layer("rqs.commit_us", "us", Lower),
    layer("rqs.rows_scanned_per_row", "count", Lower),
    layer("rqs.joins_per_stmt", "count", Lower),
    // server / net
    layer("server.locks_us", "us", Lower),
    layer("server.session_retries", "count", Lower),
    layer("server.txn_aborts", "count", Lower),
    layer("net.overhead_us", "us", Lower),
    layer("net.overhead_p95_us", "us", Lower),
    // storage
    layer("buffer.fetches_per_op", "pages", Lower),
    layer("buffer.hit_ratio", "ratio", Higher),
    layer("buffer.fault_ins_per_op", "count", Lower),
    layer("buffer.evictions_per_op", "count", Lower),
    layer("buffer.steals_per_op", "count", Lower),
    layer("buffer.shard_conflicts_per_kop", "count", Lower),
    layer("buffer.fault_in_p50_us", "us", Lower),
    layer("btree.descents_per_op", "count", Lower),
    layer("btree.splits", "count", Lower),
    layer("btree.latch_waits_per_kop", "count", Lower),
    layer("heap.inserts_per_op", "count", Lower),
    layer("heap.rewrites_per_op", "count", Lower),
    layer("heap.compactions", "count", Lower),
    layer("wal.bytes_per_commit", "bytes", Lower),
    layer("wal.appends_per_commit", "count", Lower),
    layer("wal.fsyncs_per_commit", "count", Lower),
    layer("wal.undo_images_per_commit", "count", Lower),
    layer("wal.fsync_p50_us", "us", Lower),
    layer("wal.commit_p50_us", "us", Lower),
    layer("wal.log_bytes_per_user_byte", "ratio", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.recovery_s", "s", Lower),
    layer("lock.waits_per_op", "count", Lower),
    layer("lock.wait_us_per_op", "us", Lower),
    layer("lock.wait_die_aborts_per_op", "count", Lower),
    layer("lock.row_conflicts_per_op", "count", Lower),
    layer("lock.escalations", "count", Lower),
    layer("mvcc.snapshot_reads_per_op", "count", Higher),
    layer("mvcc.versions_kept_per_op", "count", Lower),
    layer("mvcc.versions_gc_per_op", "count", Lower),
    layer("pager.file_bytes_per_user_byte", "ratio", Lower),
    // harness
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// Metric name → measured value for one run.
pub type Values = BTreeMap<&'static str, f64>;

/// The end-to-end values every untraced run reports, and the number of
/// windows behind the first three. `samples` are the timed run's ops;
/// `setups` the seconds each complete set-up took.
pub fn end_to_end(
    samples: &[Sample],
    seconds: f64,
    pages_per_op: f64,
    setups: &mut [f64],
) -> (Values, usize) {
    let typical = windowed(samples, (seconds * 1e9) as u64);
    let values = Values::from([
        ("throughput_ops_s", typical.throughput_ops_s),
        ("latency_p50_us", typical.latency_p50_us),
        ("latency_p95_us", typical.latency_p95_us),
        ("pages_per_op", pages_per_op),
        ("peak_rss_mb", peak_rss_mib()),
        ("setup_s", median(setups)),
    ]);
    (values, typical.windows)
}

/// One workload run: what the contract's result line carries.
pub struct Outcome {
    /// Ops started in the timed run plus end-of-run checks performed.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong answer, plus
    /// failed end-of-run checks.
    pub failed: u64,
    pub values: Values,
    /// Free-form facts for the header (sizes, sample counts).
    pub notes: Vec<String>,
}
