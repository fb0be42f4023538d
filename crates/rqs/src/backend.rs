//! Pluggable physical storage behind the relational engine.
//!
//! The planner and executor read tables through the [`StorageBackend`]
//! trait; the catalog keeps only schemas. Two implementations exist:
//!
//! * [`PagedBackend`] — the [`storage`] crate's engine and the store
//!   every `Database` runs on except the oracle: slotted heap pages
//!   behind a clock-eviction buffer pool, B+-tree indexes, and a
//!   persistent system catalog. Scans and index lookups touch pages, so
//!   [`crate::QueryMetrics`] can report `page_reads`/`buffer_hits` — the
//!   paper's actual cost model. It alone has sessions, snapshots and
//!   durability.
//! * `InMemoryBackend` — the differential oracle ([`crate::Database::oracle`]):
//!   a `Vec<Tuple>` per table, read only by full scans, with no indexes,
//!   no I/O and no page accounting.
//!
//! Both backends answer set-oriented SQL identically (the differential
//! test in `tests/backend_differential.rs` enforces this); they differ
//! only in physical cost.

use crate::catalog::{Catalog, Column, TableConstraint};
use crate::error::{RqsError, RqsResult};
use crate::value::{Datum, Tuple};
use std::collections::{BTreeMap, BTreeSet};
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

/// A row's address as [`StorageBackend::read`] yields it and
/// [`StorageBackend::update_rows`]/[`StorageBackend::delete_rows`] take
/// it back: on the paged engine the rid's key ([`Rid::key`], stable
/// across in-place updates), on the oracle the row's position, valid
/// for one statement.
pub type RowId = u64;

/// Physical table storage — the data-access contract both backends
/// implement: DDL, rows in, one row read, secondary indexes (the
/// oracle keeps none), mutation by row id, and one statement
/// transaction for atomicity.
///
/// Everything only the paged engine has — session transactions,
/// statement snapshots and constraint-probe mode,
/// persisted constraints, flush/checkpoint/crash, latency histograms —
/// lives on [`PagedBackend`] itself, reached through
/// [`StorageBackend::as_paged`]; the in-memory oracle has none of it.
///
/// Backends are `Send + Sync` so one database can be owned by the
/// shared server, handed between session threads, and read through
/// `&self` by many snapshot SELECTs at once (mutating statements still
/// execute one at a time, under the server's statement latch).
pub trait StorageBackend: Send + Sync {
    /// Short human-readable backend name (shows up in diagnostics).
    fn name(&self) -> &'static str;

    /// The paged engine behind this backend, `None` for the oracle.
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

    /// Creates (and backfills) a secondary index on column `col`; the
    /// oracle builds none and only holds the column to the engine's
    /// B+-tree key cap.
    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()>;

    /// Whether column `col` has an index to read (never on the oracle).
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
    /// and no lock (all zero on the oracle). A statement's I/O is the
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
    /// length; 1 on the oracle, which has no pages and no index to
    /// weigh a scan against, so plans may differ between backends
    /// (answers may not).
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
// In-memory oracle
// ---------------------------------------------------------------------------

/// Size of a tuple under the storage crate's record encoding, computed
/// without serializing (2-byte count, 1-byte tag + 8 for ints, 1-byte
/// tag + 4-byte length + bytes for text).
fn encoded_tuple_len(tuple: &Tuple) -> usize {
    2 + tuple
        .iter()
        .map(|d| match d {
            Datum::Int(_) => 9,
            Datum::Text(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

/// Pre-transaction state of one table, saved on its first mutation.
///
/// Appends only need the old row count (rollback trims the rows — O(1)
/// to capture, so bulk loads stay linear); destructive statements
/// (truncate, drop, create over the same name, row rewrites) save the
/// whole table (`None` = it did not exist).
#[derive(Clone, Debug)]
enum MemSaved {
    RowCount(usize),
    Full(Option<Vec<Tuple>>),
}

/// The differential oracle the paged engine is tested against, built
/// only by `Database::oracle`: a `Vec<Tuple>` per table, read by plain
/// scans. It keeps no indexes (`has_index` is always `false`), so every
/// index read the engine makes is checked against a scan, not against
/// a second index implementation. `create_index` only holds the
/// column's values to the engine's B+-tree key cap from then on, so an
/// oversized key is refused on both backends.
///
/// It has no durability and no concurrency, but it *does* honor
/// statement atomicity so the two backends stay observationally
/// identical through SQL: the first mutation of each table inside the
/// statement transaction saves rollback state for it (`MemSaved`,
/// copy-on-first-touch), and abort restores exactly the touched
/// entries.
#[derive(Clone, Debug, Default)]
pub(crate) struct InMemoryBackend {
    tables: BTreeMap<String, Vec<Tuple>>,
    /// `(table, column)` pairs `create_index` named: their values must
    /// fit a B+-tree key, as on the engine.
    key_capped: BTreeSet<(String, usize)>,
    /// Rollback state of the open statement transaction: table → saved
    /// pre-transaction state.
    txn: Option<BTreeMap<String, MemSaved>>,
}

impl InMemoryBackend {
    fn table(&self, name: &str) -> RqsResult<&Vec<Tuple>> {
        self.tables
            .get(name)
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> RqsResult<&mut Vec<Tuple>> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    /// The engine's size caps, mirrored so the two backends stay
    /// observationally identical through SQL: a tuple must fit one
    /// 4 KiB page, and a value in a column `create_index` named must fit
    /// a B+-tree key.
    fn check_fits(&self, name: &str, tuple: &Tuple) -> RqsResult<()> {
        let encoded = encoded_tuple_len(tuple);
        if encoded > storage::page::Page::max_record_len() {
            return Err(StorageError::RecordTooLarge(encoded).into());
        }
        for (_, col) in self.key_capped.iter().filter(|(t, _)| t == name) {
            storage::btree::check_key(&tuple[*col])?;
        }
        Ok(())
    }

    /// Saves `name`'s row count for rollback (appends) on first touch.
    fn touch_rows(&mut self, name: &str) {
        let Some(touched) = self.txn.as_mut() else {
            return;
        };
        if !touched.contains_key(name) {
            let rows = self.tables.get(name).map_or(0, Vec::len);
            touched.insert(name.to_owned(), MemSaved::RowCount(rows));
        }
    }

    /// Saves `name`'s whole state for rollback (destructive statements).
    /// An existing row-count baseline is upgraded by truncating a copy to
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
                copy.truncate(*rows);
                Some(copy)
            }
            None => self.tables.get(name).cloned(),
        };
        touched.insert(name.to_owned(), MemSaved::Full(saved));
    }
}

impl StorageBackend for InMemoryBackend {
    fn name(&self) -> &'static str {
        "oracle"
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
        self.tables.insert(name.to_owned(), Vec::new());
        Ok(())
    }

    fn drop_table(&mut self, name: &str) -> RqsResult<()> {
        self.touch_full(name);
        self.key_capped.retain(|(t, _)| t != name);
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    fn truncate(&mut self, name: &str) -> RqsResult<usize> {
        self.table(name)?;
        self.touch_full(name);
        Ok(std::mem::take(self.table_mut(name)?).len())
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
                        table.truncate(rows);
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
        self.table(name)?;
        self.check_fits(name, &tuple)?;
        self.touch_rows(name);
        self.table_mut(name)?.push(tuple);
        Ok(())
    }

    /// One page per table: with no index to weigh a scan against, the
    /// page count steers nothing on the oracle.
    fn table_size(&self, name: &str) -> RqsResult<TableSize> {
        Ok(TableSize {
            rows: self.table(name)?.len(),
            pages: 1,
        })
    }

    /// Full scans only: an index path is an error, as on an unindexed
    /// column of the engine.
    fn read(
        &self,
        name: &str,
        access: &AccessPath,
        f: &mut dyn FnMut(RowId, &Tuple) -> bool,
    ) -> RqsResult<()> {
        let table = self.table(name)?;
        match access {
            AccessPath::FullScan => {}
            AccessPath::Nothing => return Ok(()),
            AccessPath::KeyEq(col, _) | AccessPath::KeyRange(col, ..) => {
                return Err(RqsError::Internal(format!(
                    "index read of {name} column {col} on the oracle, which keeps no indexes"
                )))
            }
        }
        for (pos, row) in table.iter().enumerate() {
            if !f(pos as RowId, row) {
                break;
            }
        }
        Ok(())
    }

    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()> {
        self.table(name)?;
        self.key_capped.insert((name.to_owned(), col));
        Ok(())
    }

    fn has_index(&self, _name: &str, _col: usize) -> bool {
        false
    }

    fn delete_rows(&mut self, name: &str, rows: &[RowId]) -> RqsResult<usize> {
        self.table(name)?;
        if rows.is_empty() {
            return Ok(0);
        }
        self.touch_full(name);
        let doomed: std::collections::HashSet<RowId> = rows.iter().copied().collect();
        let mut pos: RowId = 0;
        self.table_mut(name)?.retain(|_| {
            let keep = !doomed.contains(&pos);
            pos += 1;
            keep
        });
        Ok(rows.len())
    }

    fn update_rows(&mut self, name: &str, rows: &[(RowId, Tuple)]) -> RqsResult<usize> {
        self.table(name)?;
        if rows.is_empty() {
            return Ok(0);
        }
        for (_, new) in rows {
            self.check_fits(name, new)?;
        }
        self.touch_full(name);
        let table = self.table_mut(name)?;
        for (pos, new) in rows {
            table[*pos as usize] = new.clone();
        }
        Ok(rows.len())
    }

    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> RqsResult<bool> {
        Ok(self
            .table(name)?
            .iter()
            .any(|row| cols.iter().zip(values).all(|(&c, v)| &row[c] == v)))
    }
}

// ---------------------------------------------------------------------------
// Paged backend
// ---------------------------------------------------------------------------

/// Whether `(lower, upper)` denotes an empty range. The planner can
/// produce inverted (or doubly-excluded equal) bounds from
/// contradictory restrictions; `read` asks once, before it walks a
/// range.
fn bounds_are_empty(lower: &Bound<&Datum>, upper: &Bound<&Datum>) -> bool {
    match (lower, upper) {
        (Bound::Included(l), Bound::Included(u)) => l > u,
        (Bound::Included(l), Bound::Excluded(u))
        | (Bound::Excluded(l), Bound::Included(u))
        | (Bound::Excluded(l), Bound::Excluded(u)) => l >= u,
        _ => false,
    }
}

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
        })
    }

    /// File-backed paged database (creates the file when missing).
    pub fn open(path: &Path, pool_pages: usize) -> RqsResult<PagedBackend> {
        Ok(PagedBackend {
            engine: StorageEngine::open(path, pool_pages)?,
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
        })
    }

    /// The engine itself: metrics and histograms, flush and checkpoint,
    /// statement snapshots and constraint-probe mode are its `&self`
    /// methods.
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
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
        self.engine.insert(name, &tuple)?;
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
        let rids: Vec<Rid> = rows.iter().map(|&row| Rid::from_key(row)).collect();
        Ok(self.engine.delete_rows(name, &rids)?)
    }

    fn update_rows(&mut self, name: &str, rows: &[(RowId, Tuple)]) -> RqsResult<usize> {
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

    /// The rows of `name` whose `a` passes `on_a` and whose tuple passes
    /// `pred`, read through `index_path` on the engine and by a scan on
    /// the oracle, which keeps no indexes. The index path is not
    /// filtered on `a`: it must locate exactly the rows it names.
    fn located(
        backend: &dyn StorageBackend,
        name: &str,
        index_path: AccessPath,
        on_a: impl Fn(&Datum) -> bool,
        pred: impl Fn(&Tuple) -> bool,
    ) -> Vec<(RowId, Tuple)> {
        let indexed = backend.has_index(name, 0);
        let access = if indexed {
            index_path
        } else {
            AccessPath::FullScan
        };
        matching(backend, name, &access, |t| {
            (indexed || on_a(&t[0])) && pred(t)
        })
        .unwrap()
    }

    /// [`located`] for `a = k`.
    fn keyed(
        backend: &dyn StorageBackend,
        name: &str,
        k: i64,
        pred: impl Fn(&Tuple) -> bool,
    ) -> Vec<(RowId, Tuple)> {
        located(backend, name, key(k), |a| *a == Datum::Int(k), pred)
    }

    fn exercise(backend: &mut dyn StorageBackend) {
        let paged = backend.as_paged().is_some();
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
        if paged {
            assert!(size.pages > 1, "200 rows span several pages: {size:?}");
        }
        assert_eq!(backend.scan("t").unwrap().len(), 200);
        assert!(matching(backend, "t", &key(3), |_| true).is_err());
        backend.create_index("t", 0).unwrap();
        assert_eq!(backend.has_index("t", 0), paged);
        assert!(!backend.has_index("t", 1));
        assert!(backend.create_index("nosuch", 0).is_err());
        let hits = keyed(backend, "t", 3, |_| true);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|(_, t)| t[0] == Datum::Int(3)));
        // Inverted and empty ranges read nothing on the engine; the
        // oracle refuses every index path.
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
            match matching(backend, "t", &range, |_| true) {
                Ok(rows) => assert!(paged && rows.is_empty(), "{rows:?}"),
                Err(_) => assert!(!paged),
            }
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
        assert!(keyed(backend, "t", 3, |_| true).is_empty());
        backend.drop_table("t").unwrap();
        assert!(backend.scan("t").is_err());
    }

    /// DML contract both backends must honor identically: the read
    /// narrows to the rows asked for, the ids it yields address the
    /// rows mutated, and the engine's indexes stay exact.
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
        // Point-located delete.
        let doomed = ids(keyed(backend, "d", 3, |_| true));
        assert_eq!(backend.delete_rows("d", &doomed).unwrap(), 10);
        // A predicate narrows below the access path.
        let doomed = ids(keyed(backend, "d", 4, |t| t[1] == Datum::text("v14")));
        assert_eq!(backend.delete_rows("d", &doomed).unwrap(), 1);
        // Range-located update rewrites the located column itself.
        let eight_up = AccessPath::KeyRange(0, Bound::Included(Datum::Int(8)), Bound::Unbounded);
        let updates: Vec<(RowId, Tuple)> =
            located(backend, "d", eight_up, |a| *a >= Datum::Int(8), |_| true)
                .into_iter()
                .map(|(id, t)| (id, vec![Datum::Int(88), t[1].clone()]))
                .collect();
        assert_eq!(backend.update_rows("d", &updates).unwrap(), 20);
        assert_eq!(backend.table_size("d").unwrap().rows, 89);
        // Reads agree with the churn.
        let count = |backend: &dyn StorageBackend, k: i64| keyed(backend, "d", k, |_| true).len();
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
        // Full-scan update of a column no index covers.
        let updates: Vec<(RowId, Tuple)> = matching(backend, "d", &AccessPath::FullScan, |t| {
            t[0] == Datum::Int(5)
        })
        .unwrap()
        .into_iter()
        .map(|(id, t)| (id, vec![t[0].clone(), Datum::text("five")]))
        .collect();
        assert_eq!(backend.update_rows("d", &updates).unwrap(), 10);
        let fives = keyed(backend, "d", 5, |_| true);
        assert_eq!(fives.len(), 10);
        assert!(fives.iter().all(|(_, t)| t[1] == Datum::text("five")));
        backend.drop_table("d").unwrap();
    }

    #[test]
    fn in_memory_backend_contract() {
        let mut backend = InMemoryBackend::default();
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
