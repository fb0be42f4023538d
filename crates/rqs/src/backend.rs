//! Pluggable physical storage behind the relational engine.
//!
//! The planner and executor read tables through the [`StorageBackend`]
//! trait; the catalog keeps only schemas. Two implementations exist:
//!
//! * [`InMemoryBackend`] — the original representation: a `Vec<Tuple>`
//!   per table plus `BTreeMap` secondary indexes. Zero I/O, zero page
//!   accounting; what `Database::new()` gives you, and the oracle the
//!   paged engine is differentially tested against.
//! * [`PagedBackend`] — the [`storage`] crate's engine: slotted heap
//!   pages behind a clock-eviction buffer pool, B+-tree indexes, and a
//!   persistent system catalog. Scans and index lookups touch pages, so
//!   [`crate::QueryMetrics`] can report `page_reads`/`buffer_hits` — the
//!   paper's actual cost model. It alone has sessions, snapshots, row
//!   locks and durability, and it is the only backend the server
//!   serves.
//!
//! Both backends answer set-oriented SQL identically (the differential
//! test in `tests/backend_differential.rs` enforces this); they differ
//! only in physical cost.

use crate::catalog::{Catalog, Column, TableConstraint};
use crate::error::{RqsError, RqsResult};
use crate::value::{Datum, Tuple};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;
use storage::engine::ColType;
use storage::engine::IndexProbe;
use storage::heap::Rid;
use storage::{Fault, MetricsSnapshot, StorageEngine, StorageError};

impl From<StorageError> for RqsError {
    fn from(e: StorageError) -> RqsError {
        match e {
            StorageError::UnknownTable(t) => RqsError::UnknownTable(t),
            StorageError::DuplicateTable(t) => RqsError::DuplicateTable(t),
            StorageError::Conflict(m) => RqsError::Conflict(m),
            other => RqsError::Internal(other.to_string()),
        }
    }
}

/// Row-lock acquisition callback installed by the shared server around
/// a DML statement: called with the table name and the [`RowId`] of
/// every row the statement is about to mutate — *before* the engine
/// mutates it. Returning an error aborts the statement; a retryable
/// conflict means another session holds the row.
pub type RowLockHook = std::sync::Arc<dyn Fn(&str, RowId) -> RqsResult<()> + Send + Sync>;

/// A row's address as [`StorageBackend::read`] yields it and
/// [`StorageBackend::update_rows`]/[`StorageBackend::delete_rows`] take
/// it back: on the paged engine the rid's key ([`Rid::key`], stable
/// across in-place updates), on the in-memory oracle the row's
/// position, valid for one statement.
pub type RowId = u64;

/// Physical table storage — the data-access contract both backends
/// implement: DDL, rows in, one row read, secondary indexes, mutation
/// by row id, and one statement transaction for atomicity.
///
/// Everything only the paged engine has — session transactions, the
/// row-lock hook, statement snapshots and constraint-probe mode,
/// persisted constraints, flush/checkpoint/crash, latency histograms —
/// lives on [`PagedBackend`] itself, reached through
/// [`StorageBackend::as_paged`]; the in-memory backend is the
/// differential oracle and has none of it.
///
/// Backends are `Send + Sync` so one database can be owned by the
/// shared server, handed between session threads, and read through
/// `&self` by many snapshot SELECTs at once (mutating statements still
/// execute one at a time, under the server's statement latch).
pub trait StorageBackend: Send + Sync {
    /// Short human-readable backend name (shows up in diagnostics).
    fn name(&self) -> &'static str;

    /// The paged engine behind this backend, `None` for the in-memory
    /// oracle.
    fn as_paged(&self) -> Option<&PagedBackend>;

    fn as_paged_mut(&mut self) -> Option<&mut PagedBackend>;

    fn create_table(&mut self, name: &str, columns: &[Column]) -> RqsResult<()>;

    fn drop_table(&mut self, name: &str) -> RqsResult<()>;

    /// Removes all rows, returning how many were removed.
    fn truncate(&mut self, name: &str) -> RqsResult<usize>;

    /// Appends one (already validated) tuple.
    fn insert(&mut self, name: &str, tuple: Tuple) -> RqsResult<()>;

    /// Rows and heap pages of one table — the planner's two exact
    /// inputs: join order weighs row counts, and index probes are
    /// weighed against the pages one scan reads.
    fn table_size(&self, name: &str) -> RqsResult<TableSize>;

    /// The one row read: visits each row `access` locates, as the
    /// current read view sees it, with its [`RowId`], until `f` returns
    /// `false`. A full scan goes in storage order, an index path in key
    /// order; an index path on an unindexed column is an error (callers
    /// go through `choose_access`, which asks [`Self::has_index`]).
    fn read(
        &self,
        name: &str,
        access: &AccessPath,
        f: &mut dyn FnMut(RowId, &Tuple) -> bool,
    ) -> RqsResult<()>;

    /// Every tuple of the table, in storage order.
    fn scan(&self, name: &str) -> RqsResult<Vec<Tuple>> {
        let mut rows = Vec::new();
        self.read(name, &AccessPath::FullScan, &mut |_, row| {
            rows.push(row.clone());
            true
        })?;
        Ok(rows)
    }

    /// Creates (and backfills) a secondary index on column `col`.
    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()>;

    fn has_index(&self, name: &str, col: usize) -> bool;

    /// Deletes the rows [`Self::read`] yielded these ids for in this
    /// statement, returning how many were removed. Constraint checks
    /// are the caller's job (the relational layer re-validates before
    /// mutating).
    fn delete_rows(&mut self, name: &str, rows: &[RowId]) -> RqsResult<usize>;

    /// Rewrites each row [`Self::read`] yielded the id for in this
    /// statement with its new tuple, returning how many changed (the
    /// relational layer pre-validated every new tuple against schema,
    /// size caps and constraints).
    fn update_rows(&mut self, name: &str, rows: &[(RowId, Tuple)]) -> RqsResult<usize>;

    /// Whether any stored tuple matches `values` at columns `cols`
    /// (constraint probes), stopping at the first hit. Under the paged
    /// engine's constraint-probe mode it conflicts only on pending
    /// writes to rows that match, which a full-scan [`Self::read`]
    /// would not.
    fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> RqsResult<bool>;

    /// The database's counter registry, snapshotted with relaxed loads
    /// and no lock (all zero for in-memory). A statement's I/O is the
    /// delta of two snapshots.
    fn metrics(&self) -> MetricsSnapshot;

    /// Opens the statement transaction grouping the following mutations
    /// into one atomic (and, on the paged engine, durable) unit.
    fn begin(&mut self) -> RqsResult<()>;

    /// Commits the active transaction (forces the WAL on the paged
    /// engine).
    fn commit(&mut self) -> RqsResult<()>;

    /// Rolls the active transaction back; never fails.
    fn abort(&mut self);

    /// Whether a transaction is currently active (joined by mutations).
    /// `Database::execute` skips its per-statement transaction wrapper
    /// when one is — the session owning it commits or aborts instead.
    fn in_txn(&self) -> bool;
}

/// How big a table is, as [`StorageBackend::table_size`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableSize {
    pub rows: usize,
    /// Pages one full scan reads: the paged engine's exact heap chain
    /// length; the in-memory oracle derives it from its rows'
    /// encoded size, so plans may differ between backends (answers may
    /// not).
    pub pages: usize,
}

/// A read view over schema + storage, what the planner and executor
/// carry around.
#[derive(Clone, Copy)]
pub struct Snapshot<'a> {
    pub catalog: &'a Catalog,
    pub backend: &'a dyn StorageBackend,
}

/// How a statement locates the rows it reads — the planner's
/// access-path choice (see `exec::choose_access`) and what
/// [`StorageBackend::read`] walks, for SELECT scans, probe joins,
/// constraint probes and predicated UPDATE/DELETE alike. It
/// over-approximates: the caller filters what the read yields.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessPath {
    /// Walk the whole table.
    FullScan,
    /// Equality restriction on an indexed column: point lookup.
    KeyEq(usize, Datum),
    /// Inequality restrictions on an indexed column, collapsed into one
    /// ordered-index range cursor.
    KeyRange(usize, Bound<Datum>, Bound<Datum>),
    /// A contradictory predicate: no row can match.
    Nothing,
}

impl std::fmt::Display for AccessPath {
    /// EXPLAIN's rendering of the access-path choice, shared by SELECT
    /// annotations and the UPDATE/DELETE plans.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn side(f: &mut std::fmt::Formatter<'_>, b: &Bound<Datum>, open: bool) -> std::fmt::Result {
            match (b, open) {
                (Bound::Included(v), true) => write!(f, "[{v}"),
                (Bound::Excluded(v), true) => write!(f, "({v}"),
                (Bound::Unbounded, true) => write!(f, "(-inf"),
                (Bound::Included(v), false) => write!(f, "{v}]"),
                (Bound::Excluded(v), false) => write!(f, "{v})"),
                (Bound::Unbounded, false) => write!(f, "+inf)"),
            }
        }
        match self {
            AccessPath::FullScan => write!(f, "FullScan"),
            AccessPath::KeyEq(col, key) => write!(f, "IndexEq col#{col} = {key}"),
            AccessPath::KeyRange(col, lower, upper) => {
                write!(f, "IndexRange col#{col} in ")?;
                side(f, lower, true)?;
                write!(f, ", ")?;
                side(f, upper, false)
            }
            AccessPath::Nothing => write!(f, "Nothing (contradictory predicate)"),
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// Size of a tuple under the storage crate's record encoding, computed
/// without serializing (2-byte count, 1-byte tag + 8 for ints, 1-byte
/// tag + 4-byte length + bytes for text).
pub(crate) fn encoded_tuple_len(tuple: &Tuple) -> usize {
    2 + tuple
        .iter()
        .map(|d| match d {
            Datum::Int(_) => 9,
            Datum::Text(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

#[derive(Clone, Debug, Default)]
struct MemTable {
    rows: Vec<Tuple>,
    /// column index → value → row ids.
    indexes: BTreeMap<usize, BTreeMap<Datum, Vec<usize>>>,
}

impl MemTable {
    fn index(&self, name: &str, col: usize) -> RqsResult<&BTreeMap<Datum, Vec<usize>>> {
        self.indexes.get(&col).ok_or_else(|| {
            RqsError::Internal(format!(
                "index read of {name} column {col}, which has no index"
            ))
        })
    }
}

/// Whether `(lower, upper)` denotes an empty range. `BTreeMap::range`
/// panics on inverted (or doubly-excluded equal) bounds; the planner
/// can produce such ranges from contradictory restrictions. Each
/// backend's `read` asks once, before it walks a range.
fn bounds_are_empty(lower: &Bound<&Datum>, upper: &Bound<&Datum>) -> bool {
    match (lower, upper) {
        (Bound::Included(l), Bound::Included(u)) => l > u,
        (Bound::Included(l), Bound::Excluded(u))
        | (Bound::Excluded(l), Bound::Included(u))
        | (Bound::Excluded(l), Bound::Excluded(u)) => l >= u,
        _ => false,
    }
}

/// Pre-transaction state of one table, saved on its first mutation.
///
/// Appends only need the old row count (rollback trims rows and index
/// postings — O(1) to capture, so bulk loads stay linear); destructive
/// statements (truncate, drop, create over the same name, index
/// builds) save the whole table (`None` = it did not exist).
#[derive(Clone, Debug)]
enum MemSaved {
    RowCount(usize),
    Full(Option<MemTable>),
}

/// Rebuilds every index of a table from its rows. Row-level UPDATE and
/// DELETE shift row ids / change keys; with the whole table journaled
/// anyway (`MemSaved::Full`), a rebuild is the simplest way to keep
/// postings exact.
fn rebuild_indexes(table: &mut MemTable) {
    for (&col, index) in table.indexes.iter_mut() {
        index.clear();
        for (rid, row) in table.rows.iter().enumerate() {
            index.entry(row[col].clone()).or_default().push(rid);
        }
    }
}

/// Rewinds a table to its first `rows` rows, pruning index postings of
/// the trimmed tail.
fn rewind_rows(table: &mut MemTable, rows: usize) {
    table.rows.truncate(rows);
    for index in table.indexes.values_mut() {
        for postings in index.values_mut() {
            postings.retain(|&rid| rid < rows);
        }
        index.retain(|_, postings| !postings.is_empty());
    }
}

/// The original storage representation: everything in RAM, no paging.
/// Today it is the differential oracle the paged engine is tested
/// against, not something the server serves.
///
/// It has no durability and no concurrency, but it *does* honor
/// statement atomicity so the two backends stay observationally
/// identical through SQL: the first mutation of each table inside the
/// statement transaction saves rollback state for it (`MemSaved`,
/// copy-on-first-touch), and abort restores exactly the touched
/// entries.
#[derive(Clone, Debug, Default)]
pub struct InMemoryBackend {
    tables: BTreeMap<String, MemTable>,
    /// Rollback state of the open statement transaction: table → saved
    /// pre-transaction state.
    txn: Option<BTreeMap<String, MemSaved>>,
}

impl InMemoryBackend {
    pub fn new() -> InMemoryBackend {
        Self::default()
    }

    fn table(&self, name: &str) -> RqsResult<&MemTable> {
        self.tables
            .get(name)
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> RqsResult<&mut MemTable> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    /// Saves `name`'s row count for rollback (appends) on first touch.
    fn touch_rows(&mut self, name: &str) {
        let Some(touched) = self.txn.as_mut() else {
            return;
        };
        if !touched.contains_key(name) {
            let rows = self.tables.get(name).map_or(0, |t| t.rows.len());
            touched.insert(name.to_owned(), MemSaved::RowCount(rows));
        }
    }

    /// Saves `name`'s whole state for rollback (destructive statements).
    /// An existing row-count baseline is upgraded by rewinding a copy to
    /// it — only appends can have happened since, so that copy *is* the
    /// pre-transaction state.
    fn touch_full(&mut self, name: &str) {
        let Some(touched) = self.txn.as_mut() else {
            return;
        };
        let saved = match touched.get(name) {
            Some(MemSaved::Full(_)) => return,
            Some(MemSaved::RowCount(rows)) => {
                let mut copy = self.tables.get(name).cloned().expect("counted rows");
                rewind_rows(&mut copy, *rows);
                Some(copy)
            }
            None => self.tables.get(name).cloned(),
        };
        touched.insert(name.to_owned(), MemSaved::Full(saved));
    }
}

impl StorageBackend for InMemoryBackend {
    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn as_paged(&self) -> Option<&PagedBackend> {
        None
    }

    fn as_paged_mut(&mut self) -> Option<&mut PagedBackend> {
        None
    }

    fn create_table(&mut self, name: &str, _columns: &[Column]) -> RqsResult<()> {
        if self.tables.contains_key(name) {
            return Err(RqsError::DuplicateTable(name.to_owned()));
        }
        self.touch_full(name);
        self.tables.insert(name.to_owned(), MemTable::default());
        Ok(())
    }

    fn drop_table(&mut self, name: &str) -> RqsResult<()> {
        self.touch_full(name);
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    fn truncate(&mut self, name: &str) -> RqsResult<usize> {
        self.table(name)?;
        self.touch_full(name);
        let table = self.table_mut(name)?;
        let removed = table.rows.len();
        table.rows.clear();
        for index in table.indexes.values_mut() {
            index.clear();
        }
        Ok(removed)
    }

    fn begin(&mut self) -> RqsResult<()> {
        if self.txn.is_some() {
            return Err(RqsError::Internal("transaction already active".into()));
        }
        self.txn = Some(BTreeMap::new());
        Ok(())
    }

    fn commit(&mut self) -> RqsResult<()> {
        match self.txn.take() {
            Some(_) => Ok(()),
            None => Err(RqsError::Internal("commit without begin".into())),
        }
    }

    /// Restores every table the transaction touched.
    fn abort(&mut self) {
        for (name, saved) in self.txn.take().unwrap_or_default() {
            match saved {
                MemSaved::RowCount(rows) => {
                    if let Some(table) = self.tables.get_mut(&name) {
                        rewind_rows(table, rows);
                    }
                }
                MemSaved::Full(Some(table)) => {
                    self.tables.insert(name, table);
                }
                MemSaved::Full(None) => {
                    self.tables.remove(&name);
                }
            }
        }
    }

    fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    fn insert(&mut self, name: &str, tuple: Tuple) -> RqsResult<()> {
        // Enforce the paged engine's record-size cap so the two backends
        // stay observationally identical through SQL (a tuple that
        // cannot live on one 4 KiB page is rejected everywhere).
        let encoded = encoded_tuple_len(&tuple);
        if encoded > storage::page::Page::max_record_len() {
            return Err(StorageError::RecordTooLarge(encoded).into());
        }
        self.table(name)?;
        self.touch_rows(name);
        let table = self.table_mut(name)?;
        let rid = table.rows.len();
        for (&col, index) in table.indexes.iter_mut() {
            index.entry(tuple[col].clone()).or_default().push(rid);
        }
        table.rows.push(tuple);
        Ok(())
    }

    fn table_size(&self, name: &str) -> RqsResult<TableSize> {
        use storage::page::{Page, SLOT_SIZE};
        let rows = &self.table(name)?.rows;
        let bytes: usize = rows.iter().map(|r| encoded_tuple_len(r) + SLOT_SIZE).sum();
        Ok(TableSize {
            rows: rows.len(),
            pages: bytes.div_ceil(Page::max_record_len() + SLOT_SIZE).max(1),
        })
    }

    fn read(
        &self,
        name: &str,
        access: &AccessPath,
        f: &mut dyn FnMut(RowId, &Tuple) -> bool,
    ) -> RqsResult<()> {
        let table = self.table(name)?;
        let positions: Box<dyn Iterator<Item = usize>> = match access {
            AccessPath::FullScan => Box::new(0..table.rows.len()),
            AccessPath::Nothing => return Ok(()),
            AccessPath::KeyEq(col, key) => Box::new(
                table
                    .index(name, *col)?
                    .get(key)
                    .into_iter()
                    .flatten()
                    .copied(),
            ),
            AccessPath::KeyRange(col, lower, upper) => {
                let index = table.index(name, *col)?;
                let (lower, upper) = (lower.as_ref(), upper.as_ref());
                if bounds_are_empty(&lower, &upper) {
                    return Ok(());
                }
                Box::new(
                    index
                        .range((lower, upper))
                        .flat_map(|(_, rows)| rows.iter().copied()),
                )
            }
        };
        for pos in positions {
            if !f(pos as RowId, &table.rows[pos]) {
                break;
            }
        }
        Ok(())
    }

    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()> {
        self.table(name)?;
        self.touch_full(name);
        let table = self.table_mut(name)?;
        let mut index: BTreeMap<Datum, Vec<usize>> = BTreeMap::new();
        for (rid, row) in table.rows.iter().enumerate() {
            index.entry(row[col].clone()).or_default().push(rid);
        }
        table.indexes.insert(col, index);
        Ok(())
    }

    fn has_index(&self, name: &str, col: usize) -> bool {
        self.tables
            .get(name)
            .is_some_and(|t| t.indexes.contains_key(&col))
    }

    fn delete_rows(&mut self, name: &str, rows: &[RowId]) -> RqsResult<usize> {
        self.table(name)?;
        if rows.is_empty() {
            return Ok(0);
        }
        self.touch_full(name);
        let table = self.table_mut(name)?;
        let doomed: std::collections::HashSet<RowId> = rows.iter().copied().collect();
        let mut pos: RowId = 0;
        table.rows.retain(|_| {
            let keep = !doomed.contains(&pos);
            pos += 1;
            keep
        });
        rebuild_indexes(table);
        Ok(rows.len())
    }

    fn update_rows(&mut self, name: &str, rows: &[(RowId, Tuple)]) -> RqsResult<usize> {
        self.table(name)?;
        if rows.is_empty() {
            return Ok(0);
        }
        self.touch_full(name);
        let table = self.table_mut(name)?;
        for (pos, new) in rows {
            table.rows[*pos as usize] = new.clone();
        }
        rebuild_indexes(table);
        Ok(rows.len())
    }

    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> RqsResult<bool> {
        Ok(self
            .table(name)?
            .rows
            .iter()
            .any(|row| cols.iter().zip(values).all(|(&c, v)| &row[c] == v)))
    }
}

// ---------------------------------------------------------------------------
// Paged backend
// ---------------------------------------------------------------------------

fn to_col_type(ty: crate::catalog::ColumnType) -> ColType {
    match ty {
        crate::catalog::ColumnType::Int => ColType::Int,
        crate::catalog::ColumnType::Text => ColType::Text,
    }
}

pub(crate) fn from_col_type(ty: ColType) -> crate::catalog::ColumnType {
    match ty {
        ColType::Int => crate::catalog::ColumnType::Int,
        ColType::Text => crate::catalog::ColumnType::Text,
    }
}

/// The paged storage engine behind the backend trait.
pub struct PagedBackend {
    engine: StorageEngine,
    /// Per-row lock acquisition callback (see [`RowLockHook`]),
    /// installed by the shared server for the span of one DML
    /// statement and cleared afterwards.
    row_lock_hook: Option<RowLockHook>,
}

// Compile-time proof that the storage rewrite holds: both backends (and
// therefore `Box<dyn StorageBackend>`) cross thread boundaries and can
// be read from several at once, which is what lets the `server` crate
// share one database among sessions and run snapshot SELECTs in
// parallel.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PagedBackend>();
    assert_send_sync::<InMemoryBackend>();
    assert_send_sync::<Box<dyn StorageBackend>>();
};

impl PagedBackend {
    /// Anonymous in-memory paged database (pages + buffer pool, no file).
    pub fn in_memory(pool_pages: usize) -> RqsResult<PagedBackend> {
        Ok(PagedBackend {
            engine: StorageEngine::in_memory(pool_pages)?,
            row_lock_hook: None,
        })
    }

    /// File-backed paged database (creates the file when missing).
    pub fn open(path: &Path, pool_pages: usize) -> RqsResult<PagedBackend> {
        Ok(PagedBackend {
            engine: StorageEngine::open(path, pool_pages)?,
            row_lock_hook: None,
        })
    }

    /// File-backed paged database whose durable writes are charged
    /// against `fault` — the crash-recovery test harness.
    pub fn open_with_fault(
        path: &Path,
        pool_pages: usize,
        fault: Fault,
    ) -> RqsResult<PagedBackend> {
        Ok(PagedBackend {
            engine: StorageEngine::open_with_fault(path, pool_pages, fault)?,
            row_lock_hook: None,
        })
    }

    /// Runs the installed row-lock hook (if any) for one row.
    fn lock_row(&self, name: &str, row: RowId) -> RqsResult<()> {
        match &self.row_lock_hook {
            Some(hook) => hook(name, row),
            None => Ok(()),
        }
    }

    /// The engine itself: metrics and histograms, flush and checkpoint,
    /// statement snapshots and constraint-probe mode are its `&self`
    /// methods.
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Installs (`Some`) or clears (`None`) the per-row lock hook.
    pub fn set_row_lock_hook(&mut self, hook: Option<RowLockHook>) {
        self.row_lock_hook = hook;
    }

    // -- Session transactions (the shared server's API) ----------------
    //
    // A server session opens a transaction once, then resumes it before
    // and suspends it after each of its statements; any number of
    // sessions' transactions may be open at a time.

    /// Opens a session transaction and returns its id, leaving it
    /// *suspended* (resume it before the first statement).
    pub fn begin_session(&mut self) -> RqsResult<u64> {
        let id = self.engine.begin()?;
        self.engine.suspend();
        Ok(id)
    }

    /// Makes an open session transaction active.
    pub fn resume_session(&mut self, id: u64) -> RqsResult<()> {
        Ok(self.engine.resume(id)?)
    }

    /// Suspends the active session transaction (it stays open).
    pub fn suspend_session(&mut self) {
        self.engine.suspend();
    }

    /// Commits an open session transaction by id.
    pub fn commit_session(&mut self, id: u64) -> RqsResult<()> {
        Ok(self.engine.commit_txn(id)?)
    }

    /// Rolls an open session transaction back by id.
    pub fn abort_session(&mut self, id: u64) {
        self.engine.abort_txn(id);
    }

    /// Persists the integrity constraints of a table so they survive
    /// reopen.
    pub fn persist_constraints(
        &mut self,
        name: &str,
        constraints: &[TableConstraint],
    ) -> RqsResult<()> {
        let specs: Vec<String> = constraints.iter().map(TableConstraint::to_spec).collect();
        Ok(self.engine.set_constraints(name, &specs)?)
    }

    /// Constraints previously persisted for a table.
    pub fn stored_constraints(&self, name: &str) -> RqsResult<Vec<TableConstraint>> {
        self.engine
            .constraints(name)?
            .iter()
            .map(|spec| TableConstraint::parse_spec(spec))
            .collect()
    }

    /// Test/ops helper: makes the coming drop behave as a crash would —
    /// buffered state is not flushed — so reopening must run crash
    /// recovery. Drop the backend right after.
    pub fn crash(&mut self) {
        self.engine.simulate_crash();
    }
}

impl StorageBackend for PagedBackend {
    fn name(&self) -> &'static str {
        "paged"
    }

    fn as_paged(&self) -> Option<&PagedBackend> {
        Some(self)
    }

    fn as_paged_mut(&mut self) -> Option<&mut PagedBackend> {
        Some(self)
    }

    fn create_table(&mut self, name: &str, columns: &[Column]) -> RqsResult<()> {
        let cols: Vec<(String, ColType)> = columns
            .iter()
            .map(|c| (c.name.clone(), to_col_type(c.ty)))
            .collect();
        Ok(self.engine.create_table(name, &cols)?)
    }

    fn drop_table(&mut self, name: &str) -> RqsResult<()> {
        Ok(self.engine.drop_table(name)?)
    }

    fn truncate(&mut self, name: &str) -> RqsResult<usize> {
        let removed = self.engine.row_count(name)?;
        self.engine.truncate(name)?;
        Ok(removed)
    }

    fn insert(&mut self, name: &str, tuple: Tuple) -> RqsResult<()> {
        let rid = self.engine.insert(name, &tuple)?;
        // A fresh rid cannot be held by anyone else, but locking it
        // keeps the row pinned to this transaction until commit (a
        // concurrent statement that reads the uncommitted tuple
        // conflicts here instead of mutating it).
        self.lock_row(name, rid.key())?;
        Ok(())
    }

    fn table_size(&self, name: &str) -> RqsResult<TableSize> {
        Ok(TableSize {
            rows: self.engine.row_count(name)?,
            pages: self.engine.heap_pages(name)?,
        })
    }

    /// A full scan streams off the heap; an index path reads its
    /// postings through [`StorageEngine::index_read`] first.
    fn read(
        &self,
        name: &str,
        access: &AccessPath,
        f: &mut dyn FnMut(RowId, &Tuple) -> bool,
    ) -> RqsResult<()> {
        let (col, probe) = match access {
            AccessPath::FullScan => {
                return Ok(self
                    .engine
                    .visit(name, &mut |rid, row| f(rid.key(), &row))?)
            }
            AccessPath::Nothing => {
                self.engine.table(name)?;
                return Ok(());
            }
            AccessPath::KeyEq(col, key) => (*col, IndexProbe::Eq(key)),
            AccessPath::KeyRange(col, lower, upper) => {
                let (lower, upper) = (lower.as_ref(), upper.as_ref());
                if bounds_are_empty(&lower, &upper) {
                    return Ok(());
                }
                (*col, IndexProbe::Range(lower, upper))
            }
        };
        for (rid, row) in self.engine.index_read(name, col, probe)? {
            if !f(rid.key(), &row) {
                break;
            }
        }
        Ok(())
    }

    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()> {
        Ok(self.engine.create_index(name, col)?)
    }

    fn has_index(&self, name: &str, col: usize) -> bool {
        self.engine.has_index(name, col)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }

    fn begin(&mut self) -> RqsResult<()> {
        self.engine.begin()?;
        Ok(())
    }

    fn commit(&mut self) -> RqsResult<()> {
        Ok(self.engine.commit()?)
    }

    fn abort(&mut self) {
        self.engine.abort();
    }

    fn in_txn(&self) -> bool {
        self.engine.in_txn()
    }

    fn delete_rows(&mut self, name: &str, rows: &[RowId]) -> RqsResult<usize> {
        // Lock every doomed row before mutating any of them: a
        // conflict aborts the statement with nothing to undo.
        for &row in rows {
            self.lock_row(name, row)?;
        }
        let rids: Vec<Rid> = rows.iter().map(|&row| Rid::from_key(row)).collect();
        Ok(self.engine.delete_rows(name, &rids)?)
    }

    fn update_rows(&mut self, name: &str, rows: &[(RowId, Tuple)]) -> RqsResult<usize> {
        // Lock every matched row before rewriting any of them.
        for (row, _) in rows {
            self.lock_row(name, *row)?;
        }
        let updates: Vec<(Rid, Tuple)> = rows
            .iter()
            .map(|(row, new)| (Rid::from_key(*row), new.clone()))
            .collect();
        Ok(self.engine.update_rows(name, &updates)?)
    }

    fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> RqsResult<bool> {
        Ok(self.engine.contains(name, cols, values)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnType;

    fn columns() -> Vec<Column> {
        vec![
            Column {
                name: "a".into(),
                ty: ColumnType::Int,
            },
            Column {
                name: "b".into(),
                ty: ColumnType::Text,
            },
        ]
    }

    /// `(id, tuple)` of the rows `access` locates in `name` that pass
    /// `pred`.
    fn matching(
        backend: &dyn StorageBackend,
        name: &str,
        access: &AccessPath,
        pred: impl Fn(&Tuple) -> bool,
    ) -> RqsResult<Vec<(RowId, Tuple)>> {
        let mut out = Vec::new();
        backend.read(name, access, &mut |id, row| {
            if pred(row) {
                out.push((id, row.clone()));
            }
            true
        })?;
        Ok(out)
    }

    fn key(k: i64) -> AccessPath {
        AccessPath::KeyEq(0, Datum::Int(k))
    }

    fn exercise(backend: &mut dyn StorageBackend) {
        backend.create_table("t", &columns()).unwrap();
        assert!(matches!(
            backend.create_table("t", &columns()),
            Err(RqsError::DuplicateTable(_))
        ));
        for i in 0..200i64 {
            backend
                .insert("t", vec![Datum::Int(i % 20), Datum::text(&format!("v{i}"))])
                .unwrap();
        }
        let size = backend.table_size("t").unwrap();
        assert_eq!(size.rows, 200);
        assert!(size.pages > 1, "200 rows span several pages: {size:?}");
        assert_eq!(backend.scan("t").unwrap().len(), 200);
        assert!(matching(backend, "t", &key(3), |_| true).is_err());
        backend.create_index("t", 0).unwrap();
        assert!(backend.has_index("t", 0));
        assert!(!backend.has_index("t", 1));
        let hits = matching(backend, "t", &key(3), |_| true).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|(_, t)| t[0] == Datum::Int(3)));
        // Inverted and empty ranges read nothing.
        for (lower, upper) in [
            (
                Bound::Excluded(Datum::Int(9)),
                Bound::Excluded(Datum::Int(2)),
            ),
            (
                Bound::Included(Datum::Int(5)),
                Bound::Excluded(Datum::Int(5)),
            ),
        ] {
            let range = AccessPath::KeyRange(0, lower, upper);
            assert!(matching(backend, "t", &range, |_| true).unwrap().is_empty());
        }
        // The visitor stops when told to.
        let mut visited = 0;
        backend
            .read("t", &AccessPath::FullScan, &mut |_, _| {
                visited += 1;
                visited < 5
            })
            .unwrap();
        assert_eq!(visited, 5);
        assert_eq!(backend.truncate("t").unwrap(), 200);
        assert_eq!(backend.scan("t").unwrap().len(), 0);
        assert!(matching(backend, "t", &key(3), |_| true)
            .unwrap()
            .is_empty());
        backend.drop_table("t").unwrap();
        assert!(backend.scan("t").is_err());
    }

    /// DML contract both backends must honor identically: access paths
    /// narrow the read, the ids it yields address the rows mutated,
    /// indexes stay exact.
    fn exercise_dml(backend: &mut dyn StorageBackend) {
        backend.create_table("d", &columns()).unwrap();
        for i in 0..100i64 {
            backend
                .insert("d", vec![Datum::Int(i % 10), Datum::text(&format!("v{i}"))])
                .unwrap();
        }
        backend.create_index("d", 0).unwrap();
        let ids = |rows: Vec<(RowId, Tuple)>| -> Vec<RowId> {
            rows.into_iter().map(|(id, _)| id).collect()
        };
        // Point-indexed delete.
        let doomed = ids(matching(backend, "d", &key(3), |_| true).unwrap());
        assert_eq!(backend.delete_rows("d", &doomed).unwrap(), 10);
        // A predicate narrows below the access path.
        let doomed = ids(matching(backend, "d", &key(4), |t| t[1] == Datum::text("v14")).unwrap());
        assert_eq!(backend.delete_rows("d", &doomed).unwrap(), 1);
        // Range-indexed update rewrites the indexed column itself.
        let eight_up = AccessPath::KeyRange(0, Bound::Included(Datum::Int(8)), Bound::Unbounded);
        let updates: Vec<(RowId, Tuple)> = matching(backend, "d", &eight_up, |_| true)
            .unwrap()
            .into_iter()
            .map(|(id, t)| (id, vec![Datum::Int(88), t[1].clone()]))
            .collect();
        assert_eq!(backend.update_rows("d", &updates).unwrap(), 20);
        assert_eq!(backend.table_size("d").unwrap().rows, 89);
        // Index agreement after the churn.
        let count = |backend: &dyn StorageBackend, k: i64| {
            matching(backend, "d", &key(k), |_| true).unwrap().len()
        };
        assert_eq!(count(backend, 3), 0);
        assert_eq!(count(backend, 4), 9);
        assert_eq!(count(backend, 88), 20);
        assert_eq!(count(backend, 8), 0);
        // The Nothing path reads nothing; unknown tables error.
        assert!(matching(backend, "d", &AccessPath::Nothing, |_| true)
            .unwrap()
            .is_empty());
        assert!(matching(backend, "nosuch", &AccessPath::FullScan, |_| true).is_err());
        assert_eq!(backend.delete_rows("d", &[]).unwrap(), 0);
        assert!(backend.delete_rows("nosuch", &[]).is_err());
        // Full-scan update with no index on the touched column.
        let updates: Vec<(RowId, Tuple)> = matching(backend, "d", &AccessPath::FullScan, |t| {
            t[0] == Datum::Int(5)
        })
        .unwrap()
        .into_iter()
        .map(|(id, t)| (id, vec![t[0].clone(), Datum::text("five")]))
        .collect();
        assert_eq!(backend.update_rows("d", &updates).unwrap(), 10);
        let fives = matching(backend, "d", &key(5), |_| true).unwrap();
        assert_eq!(fives.len(), 10);
        assert!(fives.iter().all(|(_, t)| t[1] == Datum::text("five")));
        backend.drop_table("d").unwrap();
    }

    #[test]
    fn in_memory_backend_contract() {
        let mut backend = InMemoryBackend::new();
        exercise(&mut backend);
        exercise_dml(&mut backend);
        assert_eq!(backend.metrics(), MetricsSnapshot::default());
    }

    #[test]
    fn paged_backend_contract() {
        let mut backend = PagedBackend::in_memory(8).unwrap();
        exercise(&mut backend);
        exercise_dml(&mut backend);
        let stats = backend.metrics();
        assert!(
            stats.fault_ins > 0,
            "paged backend must fault pages: {stats:?}"
        );
    }
}
