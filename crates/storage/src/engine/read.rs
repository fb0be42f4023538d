//! Read paths: the version resolver a read goes through, one table
//! visitor behind every scan and membership probe, and one index reader
//! behind every point and range lookup.

use super::{StorageEngine, TableInfo};
use crate::codec::decode_tuple;
use crate::heap::{HeapFile, Rid};
use crate::metrics;
use crate::mvcc::Versions;
use crate::value::{Datum, Tuple};
use crate::{StorageError, StorageResult};
use std::ops::{Bound, RangeBounds};

/// What an index read asks the B+-tree for: the postings of one key, or
/// of every key inside `(lower, upper)` in key order.
#[derive(Clone, Copy, Debug)]
pub enum IndexProbe<'a> {
    Eq(&'a Datum),
    Range(Bound<&'a Datum>, Bound<&'a Datum>),
}

impl IndexProbe<'_> {
    /// Whether a column value answers the probe. The tree decides it
    /// only for values that fit a key (a longer text is stored as a cut
    /// prefix, shared with its neighbours), so every row an index read
    /// fetches is re-checked against it, and so is a prior version's old
    /// key.
    fn admits(&self, value: &Datum) -> bool {
        match self {
            IndexProbe::Eq(key) => value == *key,
            IndexProbe::Range(lower, upper) => (*lower, *upper).contains(value),
        }
    }
}

impl StorageEngine {
    // -----------------------------------------------------------------
    // Snapshot reads (MVCC)
    // -----------------------------------------------------------------

    /// Opens the statement-scoped read snapshot (autocommit statements;
    /// sessions inside `BEGIN` read through their transaction's view).
    pub fn open_statement_snapshot(&self) {
        self.mvcc.open_stmt_view(self.pool.metrics());
    }

    /// Closes the statement snapshot (and probe mode), releasing the
    /// prior versions only it kept alive. Safe to call unconditionally.
    pub fn close_statement_snapshot(&self) {
        self.mvcc.close_stmt_view(self.pool.metrics());
    }

    /// Marks subsequent reads as constraint probes: they judge the
    /// latest committed state plus the active transaction's own writes,
    /// and conflict retryably when a row version that answers the
    /// probe's predicate is another transaction's uncommitted write (a
    /// violation verdict against a row that may roll back would be a
    /// guess). Pending writes to rows the predicate rejects in both
    /// their old and new version cannot change the verdict and are
    /// ignored.
    pub fn set_constraint_probe(&self, on: bool) {
        self.mvcc.set_probe(on);
    }

    /// The resolver reads of `table_id` go through, or `None` when the
    /// physical read is the snapshot (see [`crate::mvcc::Mvcc::versions`]).
    fn versions_for(&self, table_id: i64) -> Option<Versions> {
        self.mvcc.versions(self.pool.active_txn(), table_id)
    }

    // -----------------------------------------------------------------
    // Heap scans
    // -----------------------------------------------------------------

    /// Decodes and visits the live records of a heap chain, in heap
    /// order, with no visibility filtering, until `f` returns
    /// `Ok(false)` or fails — the raw feed under every scan, and what
    /// index builds and truncation walk directly.
    pub(super) fn visit_heap(
        &self,
        heap: HeapFile,
        f: &mut dyn FnMut(Rid, Tuple) -> StorageResult<bool>,
    ) -> StorageResult<()> {
        let mut err = None;
        heap.scan_while(&self.pool, |rid, rec| {
            decode_tuple(rec)
                .and_then(|tuple| f(rid, tuple))
                .unwrap_or_else(|e| {
                    err = Some(e);
                    false
                })
        })?;
        err.map_or(Ok(()), Err)
    }

    /// The one table visitor: every row of `info` that `answers` and
    /// that the current read view may see, until `f` returns `false`.
    /// Rows stream off the heap in heap order, each resolved to its
    /// visible version as it is visited; the versions the heap no
    /// longer holds (deleted or relocated since the view was cut)
    /// follow. Nothing is materialised on either path.
    fn visit_rows(
        &self,
        info: &TableInfo,
        answers: &dyn Fn(&Tuple) -> bool,
        f: &mut dyn FnMut(Rid, Tuple) -> bool,
    ) -> StorageResult<()> {
        let Some(mut versions) = self.versions_for(info.id) else {
            return self.visit_heap(info.heap, &mut |rid, tuple| {
                Ok(!answers(&tuple) || f(rid, tuple))
            });
        };
        let mut more = true;
        self.visit_heap(info.heap, &mut |rid, tuple| {
            if let Some(version) = versions.resolve(rid, tuple, answers)? {
                more = f(rid, version);
            }
            Ok(more)
        })?;
        if more {
            versions.unseen_priors(answers, f)?;
        }
        Ok(())
    }

    /// Every row of a table the current read view may see, with its rid,
    /// in heap order, until `f` returns `false` — the full-scan feed of
    /// reads and of predicated UPDATE/DELETE alike. A snapshot-visible
    /// version of a rid another transaction has pending-rewritten is
    /// still visited; a write to it then fails the first-updater-wins
    /// check retryably instead of silently overwriting.
    pub fn visit(&self, name: &str, f: &mut dyn FnMut(Rid, Tuple) -> bool) -> StorageResult<()> {
        self.visit_rows(self.table(name)?, &|_| true, f)
    }

    /// All tuples of a table, in heap order.
    pub fn scan(&self, name: &str) -> StorageResult<Vec<Tuple>> {
        let mut out = Vec::with_capacity(self.row_count(name)?);
        self.visit(name, &mut |_, tuple| {
            out.push(tuple);
            true
        })?;
        Ok(out)
    }

    pub fn row_count(&self, name: &str) -> StorageResult<usize> {
        Ok(self.table(name)?.row_count)
    }

    /// Pages in the table's heap chain — what one full scan reads. Kept
    /// in the heap descriptor, so it rolls back with it on abort.
    pub fn heap_pages(&self, name: &str) -> StorageResult<usize> {
        Ok(self.table(name)?.heap.pages as usize)
    }

    /// Whether any stored tuple matches `values` at columns `cols`.
    /// Stops at the first hit instead of materializing the table.
    pub fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> StorageResult<bool> {
        let matches = |tuple: &Tuple| cols.iter().zip(values).all(|(&c, v)| &tuple[c] == v);
        let mut found = false;
        self.visit_rows(self.table(name)?, &matches, &mut |_, _| {
            found = true;
            false
        })?;
        Ok(found)
    }

    // -----------------------------------------------------------------
    // Index reads
    // -----------------------------------------------------------------

    /// The one index reader: `(rid, tuple)` pairs of the rows whose
    /// `col` answers `probe` as the current read view sees them, via
    /// the B+-tree — a point descent for [`IndexProbe::Eq`], the
    /// ordered leaf chain for [`IndexProbe::Range`] (page cost
    /// proportional to the matching range; this is what `<`, `<=`, `>`,
    /// `>=`, `BETWEEN` ride on instead of full heap scans). Errors when
    /// no index covers the column.
    ///
    /// Every fetched row is re-checked against `probe`, since a text
    /// longer than a key shares its stored prefix with its neighbours.
    /// Postings address the current heap, so on a table with version
    /// entries each posting is resolved through the view (current
    /// content, the covering prior if *its* key still answers, or
    /// nothing), and the visible priors whose old key answers but whose
    /// posting is gone — deleted, relocated, re-keyed — are unioned in
    /// from the table's in-memory entries. The pool fetches are the
    /// postings' either way: O(height + matches), never O(table).
    pub fn index_read(
        &self,
        name: &str,
        col: usize,
        probe: IndexProbe<'_>,
    ) -> StorageResult<Vec<(Rid, Tuple)>> {
        let info = self.table(name)?;
        let mut versions = self.versions_for(info.id);
        let ix = self.find_index(info.id, col).ok_or_else(|| {
            StorageError::Internal(format!(
                "index read of {name} column {col}, which has no index"
            ))
        })?;
        let rids = match probe {
            IndexProbe::Eq(key) => ix.tree.lookup(&self.pool, key)?,
            IndexProbe::Range(lower, upper) => ix.tree.range(&self.pool, lower, upper)?,
        };
        let answers = |tuple: &Tuple| probe.admits(&tuple[col]);
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            let tuple = decode_tuple(&info.heap.fetch(&self.pool, rid)?)?;
            let version = match &mut versions {
                Some(versions) => versions.resolve(rid, tuple, &answers)?,
                None => answers(&tuple).then_some(tuple),
            };
            out.extend(version.map(|tuple| (rid, tuple)));
        }
        if let Some(versions) = &versions {
            metrics::bump(&self.pool.metrics().versioned_index_reads);
            versions.unseen_priors(&answers, &mut |rid, tuple| {
                out.push((rid, tuple));
                true
            })?;
        }
        Ok(out)
    }

    /// Tuples whose `col` equals `key` ([`StorageEngine::index_read`]
    /// without the rids).
    pub fn index_lookup(&self, name: &str, col: usize, key: &Datum) -> StorageResult<Vec<Tuple>> {
        Ok(tuples(self.index_read(name, col, IndexProbe::Eq(key))?))
    }

    /// Tuples whose `col` falls inside `(lower, upper)`
    /// ([`StorageEngine::index_read`] without the rids).
    pub fn index_range(
        &self,
        name: &str,
        col: usize,
        lower: Bound<&Datum>,
        upper: Bound<&Datum>,
    ) -> StorageResult<Vec<Tuple>> {
        Ok(tuples(self.index_read(
            name,
            col,
            IndexProbe::Range(lower, upper),
        )?))
    }
}

fn tuples(rows: Vec<(Rid, Tuple)>) -> Vec<Tuple> {
    rows.into_iter().map(|(_, tuple)| tuple).collect()
}
