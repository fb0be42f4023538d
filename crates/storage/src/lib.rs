//! Paged storage engine for the relational query system.
//!
//! The paper's cost model is ultimately *pages touched*: its front-end
//! optimizer earns its keep by making the DBMS read fewer pages. This
//! crate is the physical layer that makes that measurable — a miniature
//! but real storage engine in the classical architecture:
//!
//! * [`page`] — fixed-size (4 KiB) slotted pages holding variable-length
//!   records;
//! * [`codec`] — serialization of [`value::Datum`] tuples into records;
//! * [`pager`] — the "disk": an in-memory page vector, a real file, or
//!   a fault-injecting wrapper ([`pager::Fault`]) used by the
//!   crash-recovery harness, addressed by page id;
//! * [`buffer`] — a pinned/unpinned buffer pool with clock (second-chance)
//!   eviction between the engine and the pager, counting `fault_ins` and
//!   `buffer_hits`, and grouping mutations into WAL transactions;
//! * [`wal`] — the write-ahead log: checksummed page-image redo and undo
//!   frames with Begin/Commit/Abort framing and undo-then-redo crash
//!   recovery;
//! * [`metrics`] — the observability registry, one per database:
//!   cumulative atomic counters incremented by the pool, WAL, MVCC
//!   and access methods, snapshotable for the server's `STATS` surface
//!   and the benchmark JSON emitter;
//! * [`heap`] — linked heap files of tuple pages (table storage);
//! * [`btree`] — B+-tree secondary indexes keyed on [`value::Datum`],
//!   mapping keys to record ids;
//! * [`engine`] — the [`engine::StorageEngine`] facade plus the
//!   persistent system catalog (`system_tables`, `system_columns`,
//!   `system_indexes`, `system_constraints` heaps at fixed page ids)
//!   from which a database is bootstrapped on reopen.
//!
//! # Durability protocol
//!
//! Every mutating engine operation runs inside a WAL transaction
//! (statement-level autocommit, or grouped via `begin`/`commit`/
//! `abort`). The rules, classical and deliberately simple:
//!
//! * **steal with undo logging** — a page an open transaction dirtied
//!   may be evicted once its before-image is forced to the log, so a
//!   write set is bounded by disk, not by the pool;
//! * **force the log at commit** — commit appends `Begin`, one
//!   CRC-checked page image per touched page (each stamped with its
//!   LSN), and `Commit`, then fsyncs the log; data pages reach the
//!   database file lazily via eviction, [`StorageEngine::flush`] or a
//!   checkpoint;
//! * **recovery on open** — roll losers' stolen pages back from their
//!   undo images, replay the images of committed transactions in log
//!   order, discard any torn tail (bad length or checksum), then
//!   checkpoint;
//! * **checkpoint** — write all committed dirty pages back, sync, then
//!   truncate the log; runs explicitly or automatically once the log
//!   exceeds [`engine::WAL_CHECKPOINT_BYTES`].
//!
//! # Concurrency
//!
//! The whole crate is `Send`: the buffer pool's frame table sits behind
//! a mutex with per-frame latches, so one engine can be shared by many
//! sessions (see the `server` crate). Any number of transactions may be
//! *open* at once — one per session — while statements execute one at a
//! time; the engine isolates transactions by itself, with no lock
//! manager: MVCC snapshot reads, the first-updater-wins check that makes
//! a row's pending version its write lock, the same pending stamps
//! guarding a truncation (refused while another transaction has a
//! pending version in the table), constraint-probe reads for keys and
//! foreign keys, and schema changes refused while another transaction
//! is open. A page-ownership check in the buffer pool is the
//! storage-level backstop. Every refusal is a retryable
//! [`StorageError::Conflict`]; nothing ever waits.

use std::fmt;

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod engine;
pub mod heap;
pub mod metrics;
pub mod mvcc;
pub mod page;
pub mod pager;
pub mod value;
pub mod wal;

pub use buffer::{BufferPool, TxnId};
pub use engine::{ColType, StorageEngine, TableConstraint, TableInfo};
pub use metrics::{
    HistogramSnapshot, HistogramsSnapshot, LatencyHistogram, MetricsSnapshot, StorageHistograms,
    StorageMetrics,
};
pub use page::{PageId, PAGE_SIZE};
pub use pager::Fault;
pub use value::{Datum, Tuple};
pub use wal::{RecoveryReport, Wal};

pub type StorageResult<T> = std::result::Result<T, StorageError>;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(String),
    /// A record exceeds what one page can hold.
    RecordTooLarge(usize),
    /// Reference to an unknown table.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// On-disk data failed to decode (corruption or version skew).
    Corrupt(String),
    /// A concurrent transaction holds a resource this one needs (a row,
    /// table or page it has pending writes on, or the schema while it
    /// is open). The statement was rolled back and can be retried.
    Conflict(String),
    /// Internal invariant failure (a bug in the engine).
    Internal(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds page capacity")
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table in storage: {t}"),
            StorageError::DuplicateTable(t) => write!(f, "table already stored: {t}"),
            StorageError::Corrupt(m) => write!(f, "corrupt page data: {m}"),
            StorageError::Conflict(m) => write!(f, "transaction conflict: {m}"),
            StorageError::Internal(m) => write!(f, "storage internal error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}
