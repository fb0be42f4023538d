//! The physical store behind the relational engine: [`PagedBackend`],
//! the [`storage`] crate's engine — slotted heap pages behind a
//! clock-eviction buffer pool, B+-tree indexes, a persistent system
//! catalog, sessions, snapshots and durability. The catalog keeps only
//! schemas; the planner and executor read rows through one visitor,
//! [`PagedBackend::read`], and since every scan and index lookup touches
//! pages, [`crate::QueryMetrics`] can report `page_reads`/`buffer_hits`
//! — the paper's actual cost model.

use crate::catalog::{Catalog, Column, TableConstraint};
use crate::error::{RqsError, RqsResult};
use crate::value::{Datum, Tuple};
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
            // A table's one size limit, the same with or without an
            // index: a row is stored on one page.
            StorageError::RecordTooLarge(n) => RqsError::ConstraintViolation(format!(
                "row of {n} bytes exceeds the {}-byte page limit",
                storage::page::Page::max_record_len()
            )),
            other => RqsError::Internal(other.to_string()),
        }
    }
}

/// A row's address as [`PagedBackend::read`] yields it and
/// [`PagedBackend::update_rows`]/[`PagedBackend::delete_rows`] take it
/// back: the rid's key ([`Rid::key`], stable across in-place updates).
pub type RowId = u64;

/// How big a table is, as [`PagedBackend::table_size`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableSize {
    pub rows: usize,
    /// Pages one full scan reads: the exact heap chain length.
    pub pages: usize,
}

/// A read view over schema + storage, what the planner and executor
/// carry around.
#[derive(Clone, Copy)]
pub struct Snapshot<'a> {
    pub catalog: &'a Catalog,
    pub backend: &'a PagedBackend,
}

/// How a statement locates the rows it reads — the planner's
/// access-path choice (see `exec::choose_access`) and what
/// [`PagedBackend::read`] walks, for SELECT scans, probe joins,
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

/// The paged storage engine under every [`crate::Database`]: DDL, rows
/// in, one row read, secondary indexes, mutation by row id, statement
/// and session transactions.
///
/// It is `Send + Sync`, so one database can be owned by the shared
/// server, handed between session threads, and read through `&self` by
/// many snapshot SELECTs at once (mutating statements still execute one
/// at a time, under the server's statement latch).
pub struct PagedBackend {
    engine: StorageEngine,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PagedBackend>();
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

    // -- Tables and rows -----------------------------------------------

    pub fn create_table(&mut self, name: &str, columns: &[Column]) -> RqsResult<()> {
        let cols: Vec<(String, ColType)> = columns
            .iter()
            .map(|c| (c.name.clone(), to_col_type(c.ty)))
            .collect();
        Ok(self.engine.create_table(name, &cols)?)
    }

    pub fn drop_table(&mut self, name: &str) -> RqsResult<()> {
        Ok(self.engine.drop_table(name)?)
    }

    /// Removes all rows, returning how many were removed.
    pub fn truncate(&mut self, name: &str) -> RqsResult<usize> {
        let removed = self.engine.row_count(name)?;
        self.engine.truncate(name)?;
        Ok(removed)
    }

    /// Appends one (already validated) tuple.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> RqsResult<()> {
        self.engine.insert(name, &tuple)?;
        Ok(())
    }

    /// Rows and heap pages of one table — the planner's two exact
    /// inputs: join order weighs row counts, and index probes are
    /// weighed against the pages one scan reads.
    pub fn table_size(&self, name: &str) -> RqsResult<TableSize> {
        Ok(TableSize {
            rows: self.engine.row_count(name)?,
            pages: self.engine.heap_pages(name)?,
        })
    }

    /// The one row read: visits each row `access` locates, as the
    /// current read view sees it, with its [`RowId`], until `f` returns
    /// `false`. A full scan streams off the heap in storage order; an
    /// index path reads its postings through
    /// [`StorageEngine::index_read`] first, in key order, and is an
    /// error on an unindexed column (callers go through
    /// `choose_access`, which asks [`Self::has_index`]).
    pub fn read(
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

    /// Every tuple of the table, in storage order.
    pub fn scan(&self, name: &str) -> RqsResult<Vec<Tuple>> {
        Ok(self.engine.scan(name)?)
    }

    /// Creates (and backfills) a secondary index on column `col`.
    pub fn create_index(&mut self, name: &str, col: usize) -> RqsResult<()> {
        Ok(self.engine.create_index(name, col)?)
    }

    /// Whether column `col` has an index to read.
    pub fn has_index(&self, name: &str, col: usize) -> bool {
        self.engine.has_index(name, col)
    }

    /// Deletes the rows [`Self::read`] yielded these ids for in this
    /// statement, returning how many were removed. Constraint checks
    /// are the caller's job (the relational layer re-validates before
    /// mutating).
    pub fn delete_rows(&mut self, name: &str, rows: &[RowId]) -> RqsResult<usize> {
        let rids: Vec<Rid> = rows.iter().map(|&row| Rid::from_key(row)).collect();
        Ok(self.engine.delete_rows(name, &rids)?)
    }

    /// Rewrites each row [`Self::read`] yielded the id for in this
    /// statement with its new tuple, returning how many changed (the
    /// relational layer pre-validated every new tuple against schema
    /// and constraints).
    pub fn update_rows(&mut self, name: &str, rows: &[(RowId, Tuple)]) -> RqsResult<usize> {
        let updates: Vec<(Rid, Tuple)> = rows
            .iter()
            .map(|(row, new)| (Rid::from_key(*row), new.clone()))
            .collect();
        Ok(self.engine.update_rows(name, &updates)?)
    }

    /// Whether any stored tuple matches `values` at columns `cols`
    /// (constraint probes), stopping at the first hit. In
    /// constraint-probe mode it conflicts only on pending writes to rows
    /// that match, which a full-scan [`Self::read`] would not.
    pub fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> RqsResult<bool> {
        Ok(self.engine.contains(name, cols, values)?)
    }

    /// The database's counter registry, snapshotted with relaxed loads
    /// and no lock. A statement's I/O is the delta of two snapshots.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }

    // -- Statement transactions ----------------------------------------

    /// Opens the statement transaction grouping the following mutations
    /// into one atomic, durable unit.
    pub fn begin(&mut self) -> RqsResult<()> {
        self.engine.begin()?;
        Ok(())
    }

    /// Commits the active transaction (forces the WAL).
    pub fn commit(&mut self) -> RqsResult<()> {
        Ok(self.engine.commit()?)
    }

    /// Rolls the active transaction back; never fails.
    pub fn abort(&mut self) {
        self.engine.abort();
    }

    /// Whether a transaction is currently active (joined by mutations).
    /// `Database::execute` skips its per-statement transaction wrapper
    /// when one is — the session owning it commits or aborts instead.
    pub fn in_txn(&self) -> bool {
        self.engine.in_txn()
    }

    /// Test/ops helper: makes the coming drop behave as a crash would —
    /// buffered state is not flushed — so reopening must run crash
    /// recovery. Drop the backend right after.
    pub fn crash(&mut self) {
        self.engine.simulate_crash();
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
        backend: &PagedBackend,
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
    /// `pred`, read through `index_path` when `a` is indexed and by a
    /// scan otherwise. The index path is not filtered on `a`: it must
    /// locate exactly the rows it names.
    fn located(
        backend: &PagedBackend,
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
        backend: &PagedBackend,
        name: &str,
        k: i64,
        pred: impl Fn(&Tuple) -> bool,
    ) -> Vec<(RowId, Tuple)> {
        located(backend, name, key(k), |a| *a == Datum::Int(k), pred)
    }

    fn exercise(backend: &mut PagedBackend) {
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
        assert!(backend.create_index("nosuch", 0).is_err());
        let hits = keyed(backend, "t", 3, |_| true);
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
            let rows = matching(backend, "t", &range, |_| true).unwrap();
            assert!(rows.is_empty(), "{rows:?}");
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

    /// The DML contract: the read narrows to the rows asked for, the ids
    /// it yields address the rows mutated, and the indexes stay exact.
    fn exercise_dml(backend: &mut PagedBackend) {
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
        let count = |backend: &PagedBackend, k: i64| keyed(backend, "d", k, |_| true).len();
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
