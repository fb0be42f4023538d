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
/// a DML statement: called with the table name and a stable row key
/// (derived from the rid) for every row the statement is about to
/// mutate — *before* the engine mutates it. Returning an error aborts
/// the statement; a retryable conflict means another session holds the
/// row.
pub type RowLockHook = std::sync::Arc<dyn Fn(&str, u64) -> RqsResult<()> + Send + Sync>;

/// Physical table storage — the data-access contract both backends
/// implement: DDL, rows in, rows out, secondary indexes, predicated
/// mutation, and one statement transaction for atomicity.
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

    /// Every tuple of the table, in storage order.
    fn scan(&self, name: &str) -> RqsResult<Vec<Tuple>>;

    /// Visits every tuple without materializing the table, so callers
    /// can filter before cloning (the executor's scan path).
    fn for_each(&self, name: &str, f: &mut dyn FnMut(&Tuple)) -> RqsResult<()> {
        for row in self.scan(name)? {
            f(&row);
        }
        Ok(())
    }

    /// Creates (and backfills) a secondary index on column `col`.
    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()>;

    fn has_index(&self, name: &str, col: usize) -> bool;

    /// Tuples whose `col` equals `key`, via the index on `col`. An
    /// unindexed column is an error: callers ask [`Self::has_index`]
    /// (or `choose_access`) first.
    fn index_lookup(&self, name: &str, col: usize, key: &Datum) -> RqsResult<Vec<Tuple>>;

    /// Tuples whose `col` falls inside `(lower, upper)`, via an ordered
    /// cursor over the index on `col` (an error when there is none).
    /// Feeds inequality restrictions (`<`, `<=`, `>`, `>=`, `BETWEEN`)
    /// without touching the whole table.
    fn index_range(
        &self,
        name: &str,
        col: usize,
        lower: Bound<&Datum>,
        upper: Bound<&Datum>,
    ) -> RqsResult<Vec<Tuple>>;

    /// Deletes every row the access path yields that satisfies `pred`,
    /// returning how many were removed. The predicate is a pure
    /// function of the tuple, so both backends remove the same multiset
    /// of rows. Constraint checks are the caller's job (the relational
    /// layer re-validates before mutating).
    fn delete_where(
        &mut self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
    ) -> RqsResult<usize>;

    /// Rewrites every row the access path yields that satisfies `pred`
    /// with the tuple `apply` produces, returning how many changed.
    /// `apply` is a pure function of the old tuple (the relational
    /// layer pre-validated its output against schema and constraints).
    fn update_where(
        &mut self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
        apply: &mut dyn FnMut(&Tuple) -> Tuple,
    ) -> RqsResult<usize>;

    /// Whether any stored tuple matches `values` at columns `cols`
    /// (constraint probes). Implementations should early-exit rather
    /// than materialize the table.
    fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> RqsResult<bool> {
        Ok(self
            .scan(name)?
            .iter()
            .any(|row| cols.iter().zip(values).all(|(&c, v)| &row[c] == v)))
    }

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

/// How a statement locates its candidate rows — the planner's
/// access-path choice (see `exec::choose_access`), handed through the
/// backend trait so predicated UPDATE/DELETE ride the same index
/// machinery as SELECT scans. The access path over-approximates: the
/// backend still applies the full predicate to every candidate.
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
/// can produce such ranges from contradictory restrictions.
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

    /// Row ids the access path yields for one table: `None` = every row
    /// (a full scan), `Some` = the index-narrowed candidate set.
    fn candidates(&self, name: &str, access: &AccessPath) -> RqsResult<Option<Vec<usize>>> {
        let table = self.table(name)?;
        Ok(match access {
            AccessPath::FullScan => None,
            AccessPath::Nothing => Some(Vec::new()),
            AccessPath::KeyEq(col, key) => Some(
                table
                    .index(name, *col)?
                    .get(key)
                    .cloned()
                    .unwrap_or_default(),
            ),
            AccessPath::KeyRange(col, lower, upper) => {
                let index = table.index(name, *col)?;
                let (lower, upper) = (lower.as_ref(), upper.as_ref());
                Some(if bounds_are_empty(&lower, &upper) {
                    Vec::new()
                } else {
                    index
                        .range((lower, upper))
                        .flat_map(|(_, rids)| rids.iter().copied())
                        .collect()
                })
            }
        })
    }

    /// Row ids of the rows that satisfy both the access path and the
    /// predicate, ascending.
    fn matched(
        &self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
    ) -> RqsResult<Vec<usize>> {
        let candidates = self.candidates(name, access)?;
        let table = self.table(name)?;
        let mut hits: Vec<usize> = match candidates {
            Some(rids) => rids
                .into_iter()
                .filter(|&rid| pred(&table.rows[rid]))
                .collect(),
            None => (0..table.rows.len())
                .filter(|&rid| pred(&table.rows[rid]))
                .collect(),
        };
        hits.sort_unstable();
        hits.dedup();
        Ok(hits)
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

    fn scan(&self, name: &str) -> RqsResult<Vec<Tuple>> {
        Ok(self.table(name)?.rows.clone())
    }

    fn for_each(&self, name: &str, f: &mut dyn FnMut(&Tuple)) -> RqsResult<()> {
        for row in &self.table(name)?.rows {
            f(row);
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

    fn index_lookup(&self, name: &str, col: usize, key: &Datum) -> RqsResult<Vec<Tuple>> {
        let table = self.table(name)?;
        let rids = table
            .index(name, col)?
            .get(key)
            .map_or(&[][..], Vec::as_slice);
        Ok(rids.iter().map(|&rid| table.rows[rid].clone()).collect())
    }

    fn index_range(
        &self,
        name: &str,
        col: usize,
        lower: Bound<&Datum>,
        upper: Bound<&Datum>,
    ) -> RqsResult<Vec<Tuple>> {
        let table = self.table(name)?;
        let index = table.index(name, col)?;
        if bounds_are_empty(&lower, &upper) {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for rids in index.range((lower, upper)).map(|(_, v)| v) {
            out.extend(rids.iter().map(|&rid| table.rows[rid].clone()));
        }
        Ok(out)
    }

    fn delete_where(
        &mut self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
    ) -> RqsResult<usize> {
        let doomed = self.matched(name, access, pred)?;
        if doomed.is_empty() {
            return Ok(0);
        }
        self.touch_full(name);
        let table = self.table_mut(name)?;
        let doomed_set: std::collections::HashSet<usize> = doomed.iter().copied().collect();
        let mut rid = 0;
        table.rows.retain(|_| {
            let keep = !doomed_set.contains(&rid);
            rid += 1;
            keep
        });
        rebuild_indexes(table);
        Ok(doomed.len())
    }

    fn update_where(
        &mut self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
        apply: &mut dyn FnMut(&Tuple) -> Tuple,
    ) -> RqsResult<usize> {
        let matched = self.matched(name, access, pred)?;
        if matched.is_empty() {
            return Ok(0);
        }
        // Compute every replacement (and enforce the paged engine's
        // record-size cap) before mutating, so an oversized row rejects
        // the statement without partial effects.
        let table = self.table(name)?;
        let mut replacements = Vec::with_capacity(matched.len());
        for &rid in &matched {
            let new = apply(&table.rows[rid]);
            let encoded = encoded_tuple_len(&new);
            if encoded > storage::page::Page::max_record_len() {
                return Err(StorageError::RecordTooLarge(encoded).into());
            }
            replacements.push((rid, new));
        }
        self.touch_full(name);
        let table = self.table_mut(name)?;
        for (rid, new) in replacements {
            table.rows[rid] = new;
        }
        rebuild_indexes(table);
        Ok(matched.len())
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

/// Packs a rid into the stable `u64` row key the lock manager indexes
/// by: page id in the high bits, slot in the low 16. In-place updates
/// never change a row's rid (relocations do, but the lock on the old
/// rid is what serializes the relocating statement).
fn rid_key(rid: storage::heap::Rid) -> u64 {
    ((rid.page as u64) << 16) | rid.slot as u64
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

    /// Runs the installed row-lock hook (if any) for one rid.
    fn lock_row(&self, name: &str, rid: storage::heap::Rid) -> RqsResult<()> {
        match &self.row_lock_hook {
            Some(hook) => hook(name, rid_key(rid)),
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

    /// Candidate `(rid, tuple)` pairs for one access path.
    fn candidates_rids(
        &self,
        name: &str,
        access: &AccessPath,
    ) -> RqsResult<Vec<(storage::heap::Rid, Tuple)>> {
        let (col, probe) = match access {
            AccessPath::FullScan => return Ok(self.engine.scan_rids(name)?),
            AccessPath::Nothing => {
                self.engine.table(name)?;
                return Ok(Vec::new());
            }
            AccessPath::KeyEq(col, key) => (*col, IndexProbe::Eq(key)),
            AccessPath::KeyRange(col, lower, upper) => {
                let (lower, upper) = (lower.as_ref(), upper.as_ref());
                if bounds_are_empty(&lower, &upper) {
                    return Ok(Vec::new());
                }
                (*col, IndexProbe::Range(lower, upper))
            }
        };
        Ok(self.engine.index_read(name, col, probe)?)
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
        // concurrent statement that sees the uncommitted tuple in its
        // candidate set conflicts here instead of mutating it).
        self.lock_row(name, rid)?;
        Ok(())
    }

    fn table_size(&self, name: &str) -> RqsResult<TableSize> {
        Ok(TableSize {
            rows: self.engine.row_count(name)?,
            pages: self.engine.heap_pages(name)?,
        })
    }

    fn scan(&self, name: &str) -> RqsResult<Vec<Tuple>> {
        Ok(self.engine.scan(name)?)
    }

    fn for_each(&self, name: &str, f: &mut dyn FnMut(&Tuple)) -> RqsResult<()> {
        Ok(self.engine.for_each(name, f)?)
    }

    fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()> {
        Ok(self.engine.create_index(name, col)?)
    }

    fn has_index(&self, name: &str, col: usize) -> bool {
        self.engine.has_index(name, col)
    }

    fn index_lookup(&self, name: &str, col: usize, key: &Datum) -> RqsResult<Vec<Tuple>> {
        Ok(self.engine.index_lookup(name, col, key)?)
    }

    fn index_range(
        &self,
        name: &str,
        col: usize,
        lower: Bound<&Datum>,
        upper: Bound<&Datum>,
    ) -> RqsResult<Vec<Tuple>> {
        if bounds_are_empty(&lower, &upper) {
            return Ok(Vec::new());
        }
        Ok(self.engine.index_range(name, col, lower, upper)?)
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

    fn delete_where(
        &mut self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
    ) -> RqsResult<usize> {
        let doomed: Vec<storage::heap::Rid> = self
            .candidates_rids(name, access)?
            .into_iter()
            .filter(|(_, tuple)| pred(tuple))
            .map(|(rid, _)| rid)
            .collect();
        // Lock every doomed row before mutating any of them: a
        // conflict aborts the statement with nothing to undo.
        for &rid in &doomed {
            self.lock_row(name, rid)?;
        }
        Ok(self.engine.delete_rows(name, &doomed)?)
    }

    fn update_where(
        &mut self,
        name: &str,
        access: &AccessPath,
        pred: &mut dyn FnMut(&Tuple) -> bool,
        apply: &mut dyn FnMut(&Tuple) -> Tuple,
    ) -> RqsResult<usize> {
        let updates: Vec<(storage::heap::Rid, Tuple)> = self
            .candidates_rids(name, access)?
            .into_iter()
            .filter(|(_, tuple)| pred(tuple))
            .map(|(rid, tuple)| (rid, apply(&tuple)))
            .collect();
        // Lock every matched row before rewriting any of them.
        for (rid, _) in &updates {
            self.lock_row(name, *rid)?;
        }
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
        assert!(backend.index_lookup("t", 0, &Datum::Int(3)).is_err());
        backend.create_index("t", 0).unwrap();
        assert!(backend.has_index("t", 0));
        assert!(!backend.has_index("t", 1));
        let hits = backend.index_lookup("t", 0, &Datum::Int(3)).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|t| t[0] == Datum::Int(3)));
        assert_eq!(backend.truncate("t").unwrap(), 200);
        assert_eq!(backend.scan("t").unwrap().len(), 0);
        assert_eq!(
            backend.index_lookup("t", 0, &Datum::Int(3)).unwrap(),
            Vec::<Tuple>::new()
        );
        backend.drop_table("t").unwrap();
        assert!(backend.scan("t").is_err());
    }

    /// DML contract both backends must honor identically: access paths
    /// narrow candidates, predicates select rows, indexes stay exact.
    fn exercise_dml(backend: &mut dyn StorageBackend) {
        backend.create_table("d", &columns()).unwrap();
        for i in 0..100i64 {
            backend
                .insert("d", vec![Datum::Int(i % 10), Datum::text(&format!("v{i}"))])
                .unwrap();
        }
        backend.create_index("d", 0).unwrap();
        // Point-indexed delete.
        let removed = backend
            .delete_where("d", &AccessPath::KeyEq(0, Datum::Int(3)), &mut |_| true)
            .unwrap();
        assert_eq!(removed, 10);
        // Predicate narrows below the access path.
        let removed = backend
            .delete_where("d", &AccessPath::KeyEq(0, Datum::Int(4)), &mut |t| {
                t[1] == Datum::text("v14")
            })
            .unwrap();
        assert_eq!(removed, 1);
        // Range-indexed update rewrites the indexed column itself.
        let changed = backend
            .update_where(
                "d",
                &AccessPath::KeyRange(0, Bound::Included(Datum::Int(8)), Bound::Unbounded),
                &mut |_| true,
                &mut |t| vec![Datum::Int(88), t[1].clone()],
            )
            .unwrap();
        assert_eq!(changed, 20);
        assert_eq!(backend.table_size("d").unwrap().rows, 89);
        // Index agreement after the churn.
        assert_eq!(
            backend.index_lookup("d", 0, &Datum::Int(3)).unwrap(),
            Vec::<Tuple>::new()
        );
        assert_eq!(
            backend.index_lookup("d", 0, &Datum::Int(4)).unwrap().len(),
            9
        );
        assert_eq!(
            backend.index_lookup("d", 0, &Datum::Int(88)).unwrap().len(),
            20
        );
        assert!(backend
            .index_lookup("d", 0, &Datum::Int(8))
            .unwrap()
            .is_empty());
        // Nothing path touches nothing; unknown tables error.
        assert_eq!(
            backend
                .delete_where("d", &AccessPath::Nothing, &mut |_| true)
                .unwrap(),
            0
        );
        assert!(backend
            .delete_where("nosuch", &AccessPath::FullScan, &mut |_| true)
            .is_err());
        // Full-scan update with no index on the touched column.
        let changed = backend
            .update_where(
                "d",
                &AccessPath::FullScan,
                &mut |t| t[0] == Datum::Int(5),
                &mut |t| vec![t[0].clone(), Datum::text("five")],
            )
            .unwrap();
        assert_eq!(changed, 10);
        let fives = backend.index_lookup("d", 0, &Datum::Int(5)).unwrap();
        assert!(fives.iter().all(|t| t[1] == Datum::text("five")));
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
