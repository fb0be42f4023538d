//! The storage engine facade: transactions, system catalog, recovery.
//!
//! Table schemas are not special-cased: they are rows in four bootstrap
//! heap files living at fixed page ids —
//!
//! * `system_tables` (page 0): `(table id, name, heap first page)`;
//! * `system_columns` (page 1): `(table id, column index, name, type)`;
//! * `system_indexes` (page 2): `(table id, column index, root page)`;
//! * `system_constraints` (page 3): `(table id, sequence, spec text)` —
//!   each a [`TableConstraint`] in its [`TableConstraint::to_spec`]
//!   form, so integrity constraints survive reopen.
//!
//! Opening an existing database therefore needs no side files: the
//! engine first lets the WAL replay committed transactions into the
//! pager ([`crate::wal::Wal::recover`]), then reads the four well-known
//! heaps and reconstructs every table, column, B+-tree root and typed
//! constraint from them. This catalog is the only schema registry: the
//! relational layer reads every schema and constraint from it, so a
//! transaction's DDL rolls back with the transaction.
//!
//! Every mutating operation runs inside a WAL transaction. Callers may
//! group several operations with [`StorageEngine::begin`] /
//! [`StorageEngine::commit`] / [`StorageEngine::abort`] (the relational
//! layer wraps each SQL statement this way); an operation invoked with
//! no open transaction wraps itself (autocommit). Any number of
//! transactions may be *open* at once — the shared server gives each
//! session its own, switching it in with [`StorageEngine::resume`] and
//! out with [`StorageEngine::suspend`] around every statement — while
//! at most one is *active* (receiving writes) at a time. The engine
//! isolates open transactions by itself, without a lock manager: MVCC's
//! first-updater-wins check on every row it writes, a table-wide form
//! of it before a truncation, schema changes refused while another
//! transaction is open, clean per-transaction rollback and a
//! page-ownership conflict check in the buffer pool. Every refusal is a
//! retryable [`StorageError::Conflict`].
//!
//! Abort rolls back both the page level (buffer-pool before-images)
//! and the engine's in-memory catalog. The catalog rollback state is
//! captured lazily, copy-on-first-touch: a transaction snapshots only
//! the [`TableInfo`]s (and, separately, the index list and the
//! scalar/system-heap state) it actually mutates, so a statement
//! touching one table of a thousand-table schema copies one entry, not
//! the whole catalog. Commit forces the log; when the log grows past
//! [`WAL_CHECKPOINT_BYTES`] the engine checkpoints (write dirty pages
//! back, truncate the log) automatically — unless other transactions
//! are open, in which case the checkpoint waits for a quiet moment.
//!
//! A fifth bootstrap page (`meta`, page 4) anchors the persistent
//! free-page list: pages abandoned by truncation, `DROP TABLE` and
//! index rebuilds are chained there and reused by later allocations
//! instead of growing the file forever. Databases created before the
//! meta page existed open fine — the free list is simply disabled.
//!
//! One file per responsibility: this one holds the types, opening and
//! recovery, and the durability calls; `catalog` the system catalog
//! (bootstrap, DDL, index registration), `txn` transactions and their
//! compensation undo, `dml` the mutating row operations, and `read`
//! every read path (MVCC view selection, the heap visitor, the index
//! reader).

mod catalog;
mod dml;
mod read;
mod txn;

pub use catalog::TableConstraint;
pub use read::IndexProbe;

use crate::btree::BPlusTree;
use crate::buffer::{BufferPool, TxnId};
use crate::heap::HeapFile;
use crate::metrics::MetricsSnapshot;
use crate::mvcc::Mvcc;
use crate::page::{PageId, PageKind, NO_PAGE};
use crate::pager::{Fault, Pager};
use crate::wal::Wal;
use crate::{StorageError, StorageResult};
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::path::{Path, PathBuf};

const SYSTEM_TABLES_PAGE: PageId = 0;
const SYSTEM_COLUMNS_PAGE: PageId = 1;
const SYSTEM_INDEXES_PAGE: PageId = 2;
const SYSTEM_CONSTRAINTS_PAGE: PageId = 3;
/// The meta page: its `extra` word holds the free-page list head.
const META_PAGE: PageId = 4;

/// First table id handed to user tables (below are reserved).
const FIRST_USER_TABLE_ID: i64 = 100;

/// Committing past this much log triggers an automatic checkpoint.
pub const WAL_CHECKPOINT_BYTES: u64 = 4 << 20;

/// Column type tag persisted in `system_columns`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColType {
    Int,
    Text,
}

impl ColType {
    fn to_tag(self) -> i64 {
        match self {
            ColType::Int => 0,
            ColType::Text => 1,
        }
    }

    fn from_tag(tag: i64) -> StorageResult<ColType> {
        match tag {
            0 => Ok(ColType::Int),
            1 => Ok(ColType::Text),
            other => Err(StorageError::Corrupt(format!(
                "unknown column type tag {other}"
            ))),
        }
    }
}

impl std::fmt::Display for ColType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ColType::Int => "INT",
            ColType::Text => "TEXT",
        })
    }
}

/// In-memory image of one stored table: its schema, its integrity
/// constraints (parsed once, at bootstrap or `CREATE TABLE`), and where
/// its rows live. Rolled back with the transaction that changed it.
#[derive(Clone, Debug)]
pub struct TableInfo {
    pub id: i64,
    pub name: String,
    pub columns: Vec<(String, ColType)>,
    /// Persisted in `system_constraints`, one row per constraint.
    pub constraints: Vec<TableConstraint>,
    heap: HeapFile,
    row_count: usize,
}

impl TableInfo {
    /// The position of the column called `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(c, _)| c == name)
    }
}

#[derive(Clone, Copy, Debug)]
struct IndexInfo {
    table_id: i64,
    col: usize,
    tree: BPlusTree,
}

/// Scalar and system-heap state a transaction saves on first touch.
#[derive(Clone, Copy)]
struct MetaState {
    next_table_id: i64,
    sys_tables: HeapFile,
    sys_columns: HeapFile,
    sys_indexes: HeapFile,
    sys_constraints: HeapFile,
}

/// Copy-on-first-touch rollback state of one open transaction. Only
/// what the transaction actually mutates is saved: per-table entries
/// (`None` = the table did not exist), the index list, and the scalar
/// state — not a clone of the whole catalog.
#[derive(Default)]
struct TxnTouch {
    tables: BTreeMap<String, Option<TableInfo>>,
    indexes: Option<Vec<IndexInfo>>,
    meta: Option<MetaState>,
    /// Logical DML undo, recorded instead of a full [`TableInfo`]
    /// snapshot so that aborting one transaction does not clobber the
    /// `row_count`/heap state other transactions committed concurrently
    /// into the *same* table (writers of different rows coexist). Net
    /// row-count change per table; undone by subtraction on abort.
    row_deltas: BTreeMap<String, i64>,
    /// Heap descriptor as it was just before this transaction first
    /// grew/relocated the chain (recorded only when the descriptor
    /// actually changed — a changed tail page is owned by this
    /// transaction, so nobody else can move it again before our end).
    heap_undo: BTreeMap<String, HeapFile>,
    /// Per-index tree descriptor from just before this transaction
    /// first moved its root, keyed by `(table_id, col)` (same
    /// ownership argument: a moved root is a page write we own).
    index_root_undo: BTreeMap<(i64, usize), BPlusTree>,
    /// Pages the transaction abandoned (truncated chains, dropped
    /// tables' heaps and trees). Linked onto the free list only *after*
    /// commit — freeing inside the transaction would dirty one frame
    /// per page under the owning transaction (a large drop would churn
    /// through the pool stealing every one of them at a log force
    /// apiece). A crash between commit and reclamation merely leaks
    /// the pages, which is exactly the pre-free-list behavior.
    pending_free: Vec<PageId>,
}

/// The paged storage engine: buffer pool + WAL + heap files + B+-trees
/// + persistent catalog.
pub struct StorageEngine {
    pool: BufferPool,
    sys_tables: HeapFile,
    sys_columns: HeapFile,
    sys_indexes: HeapFile,
    sys_constraints: HeapFile,
    tables: BTreeMap<String, TableInfo>,
    indexes: Vec<IndexInfo>,
    next_table_id: i64,
    /// Rollback state per open transaction, keyed by WAL transaction id.
    txns: HashMap<TxnId, TxnTouch>,
    /// Commit-timestamp clock and row-version store backing snapshot
    /// reads (see [`crate::mvcc`]). Volatile: never WAL-logged, rebuilt
    /// empty on open — recovery yields committed-only data, which the
    /// store's absence semantics already describe.
    mvcc: Mvcc,
    crashed: bool,
}

impl Drop for StorageEngine {
    /// Best-effort write-back so dropping a file-backed engine without
    /// an explicit [`StorageEngine::flush`] does not silently lose every
    /// page still resident in the buffer pool. Errors are swallowed —
    /// call `flush()` yourself when you need to observe them. (Even a
    /// fully lost flush is no longer fatal: committed statements replay
    /// from the WAL on reopen.)
    fn drop(&mut self) {
        if !self.crashed {
            let _ = self.pool.flush();
        }
    }
}

/// The WAL sits beside the database file as `<file>.wal`.
pub fn wal_path(db_path: &Path) -> PathBuf {
    let mut os = OsString::from(db_path.as_os_str());
    os.push(".wal");
    PathBuf::from(os)
}

impl StorageEngine {
    /// A fresh anonymous in-memory database with a `pool_pages`-frame
    /// buffer pool (the pages themselves still flow through the full
    /// pager/buffer/WAL machinery, so I/O and logging counters are
    /// meaningful).
    pub fn in_memory(pool_pages: usize) -> StorageResult<StorageEngine> {
        Self::with_pager_and_wal(Pager::in_memory(), Wal::in_memory(), pool_pages)
    }

    /// Opens (creating if missing) a file-backed database; its WAL
    /// lives beside it as `<path>.wal` and is replayed before the
    /// catalog is bootstrapped.
    pub fn open(path: &Path, pool_pages: usize) -> StorageResult<StorageEngine> {
        let wal = Wal::open(&wal_path(path), None)?;
        Self::with_pager_and_wal(Pager::open(path)?, wal, pool_pages)
    }

    /// Like [`StorageEngine::open`], but every durable write (page
    /// writes, allocations, WAL appends, syncs) is charged against the
    /// shared fault switch — the crash-recovery test harness.
    pub fn open_with_fault(
        path: &Path,
        pool_pages: usize,
        fault: Fault,
    ) -> StorageResult<StorageEngine> {
        let wal = Wal::open(&wal_path(path), Some(fault.clone()))?;
        let pager = Pager::faulty(Pager::open(path)?, fault);
        Self::with_pager_and_wal(pager, wal, pool_pages)
    }

    fn with_pager_and_wal(
        mut pager: Pager,
        mut wal: Wal,
        pool_pages: usize,
    ) -> StorageResult<StorageEngine> {
        // Crash recovery first: replay committed transactions into the
        // pager, discard torn tails, checkpoint — counted in the
        // registry the WAL created, which the pool then shares.
        wal.recover(&mut pager)?;
        let fresh = pager.page_count() == 0;
        // Write sets may exceed the pool now that eviction steals (undo
        // logging spills uncommitted pages to disk), but multi-page
        // operations still *pin* several guards at once — B+-tree
        // splits, bootstrap — so tiny pools are clamped to a floor that
        // leaves headroom beyond the pinned set.
        let pool = BufferPool::new(pager, pool_pages.max(8), wal);
        if fresh {
            // The bootstrap heaps (and the meta page anchoring the
            // free-page list) are created inside a transaction so a
            // crash right after creation replays to a well-formed (if
            // empty) database instead of five zeroed pages.
            let txn = pool.begin_txn()?;
            let created = (|| -> StorageResult<_> {
                let sys_tables = HeapFile::create(&pool)?;
                let sys_columns = HeapFile::create(&pool)?;
                let sys_indexes = HeapFile::create(&pool)?;
                let sys_constraints = HeapFile::create(&pool)?;
                let (meta_id, meta) = pool.allocate(PageKind::Meta)?;
                meta.with_mut(|p| p.set_extra(NO_PAGE))?;
                drop(meta);
                debug_assert_eq!(meta_id, META_PAGE);
                Ok((sys_tables, sys_columns, sys_indexes, sys_constraints))
            })();
            let (sys_tables, sys_columns, sys_indexes, sys_constraints) = match created {
                Ok(heaps) => heaps,
                Err(e) => {
                    pool.abort_txn(txn);
                    return Err(e);
                }
            };
            pool.commit_txn(txn)?;
            debug_assert_eq!(
                (
                    sys_tables.first,
                    sys_columns.first,
                    sys_indexes.first,
                    sys_constraints.first
                ),
                (
                    SYSTEM_TABLES_PAGE,
                    SYSTEM_COLUMNS_PAGE,
                    SYSTEM_INDEXES_PAGE,
                    SYSTEM_CONSTRAINTS_PAGE
                )
            );
            pool.set_meta_page(Some(META_PAGE));
            Ok(StorageEngine {
                pool,
                sys_tables,
                sys_columns,
                sys_indexes,
                sys_constraints,
                tables: BTreeMap::new(),
                indexes: Vec::new(),
                next_table_id: FIRST_USER_TABLE_ID,
                txns: HashMap::new(),
                mvcc: Mvcc::new(),
                crashed: false,
            })
        } else {
            Self::bootstrap(pool)
        }
    }

    /// Snapshot of the database's observability counters (buffer pool,
    /// WAL, recovery, access methods, MVCC) — see [`crate::metrics`].
    /// Relaxed atomic loads: no lock is taken.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.pool.metrics().snapshot()
    }

    /// Snapshot of the database's latency histograms (WAL fsync, commit
    /// force, buffer-pool fault-in) — see [`crate::metrics`].
    pub fn histograms(&self) -> crate::metrics::HistogramsSnapshot {
        self.pool.metrics().histograms_snapshot()
    }

    /// Pages currently reusable on the persistent free list.
    pub fn free_page_count(&self) -> StorageResult<usize> {
        self.pool.free_list_len()
    }

    // -----------------------------------------------------------------
    // Durability
    // -----------------------------------------------------------------

    /// Writes every committed dirty page back (and syncs file-backed
    /// storage). The WAL is left alone; see
    /// [`StorageEngine::checkpoint`].
    pub fn flush(&self) -> StorageResult<()> {
        self.pool.flush()
    }

    /// Checkpoint: flush + truncate the WAL. After a successful
    /// checkpoint all durable state lives in the database file and
    /// recovery has nothing to replay. Refused while a transaction is
    /// open (it would invalidate the transaction's rewind mark).
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.pool.checkpoint()
    }

    /// Test/ops helper simulating a crash: the engine's drop skips the
    /// best-effort flush, so everything resident only in the buffer
    /// pool is lost and the next open must recover from the WAL. Drop
    /// the engine right after; it must not be used again.
    pub fn simulate_crash(&mut self) {
        self.crashed = true;
    }
}

#[cfg(test)]
mod tests;
