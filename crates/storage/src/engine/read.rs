//! Read paths: which MVCC view a read resolves through, one heap
//! visitor behind every table scan, and one index reader behind every
//! point and range lookup.

use super::{StorageEngine, TableInfo};
use crate::codec::decode_tuple;
use crate::heap::{HeapFile, Rid};
use crate::mvcc::View;
use crate::value::{Datum, Tuple};
use crate::StorageResult;
use std::ops::Bound;

/// What an index read asks the B+-tree for: the postings of one key, or
/// of every key inside `(lower, upper)` in key order.
#[derive(Clone, Copy, Debug)]
pub enum IndexProbe<'a> {
    Eq(&'a Datum),
    Range(Bound<&'a Datum>, Bound<&'a Datum>),
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
    /// and conflict retryably when the probed table carries another
    /// transaction's uncommitted writes (a violation verdict against a
    /// row that may roll back would be a guess).
    pub fn set_constraint_probe(&self, on: bool) {
        self.mvcc.set_probe(on);
    }

    /// The view reads of `table_id` should filter through, or `None`
    /// for the raw-heap fast path (no view open, or no version metadata
    /// on the table — absence means every row is committed long ago and
    /// raw equals filtered).
    fn read_view_for(&self, table_id: i64) -> Option<View> {
        let view = self.mvcc.read_view(self.pool.active_txn())?;
        self.mvcc.has_metas(table_id).then_some(view)
    }

    /// The `(rid, tuple)` pairs of one table as `view` sees them: raw
    /// heap rows filtered to snapshot-visible versions, with priors
    /// substituted for too-new content and visible-but-tombstoned rows
    /// resurrected.
    fn snapshot_rows(&self, info: &TableInfo, view: &View) -> StorageResult<Vec<(Rid, Tuple)>> {
        let mut raw = Vec::with_capacity(info.row_count);
        self.visit_heap(info.heap, &mut |rid, tuple| raw.push((rid, tuple)))?;
        self.mvcc.visible(view, info.id, raw)
    }

    // -----------------------------------------------------------------
    // Heap scans
    // -----------------------------------------------------------------

    /// Decodes and visits every live record of a heap chain, in heap
    /// order, with no visibility filtering — the raw feed under every
    /// scan, and what index builds and truncation walk directly.
    pub(super) fn visit_heap(
        &self,
        heap: HeapFile,
        f: &mut dyn FnMut(Rid, Tuple),
    ) -> StorageResult<()> {
        let mut err = None;
        heap.scan(&self.pool, |rid, rec| match decode_tuple(rec) {
            Ok(tuple) => f(rid, tuple),
            Err(e) => err = Some(e),
        })?;
        err.map_or(Ok(()), Err)
    }

    /// The one table visitor: every row of `info` the current read view
    /// may see, in heap order. Under an open read snapshot with live
    /// version metadata the rows are the snapshot-visible versions;
    /// otherwise this is the raw heap, streamed without materializing.
    fn visit_rows(&self, info: &TableInfo, f: &mut dyn FnMut(Rid, Tuple)) -> StorageResult<()> {
        if let Some(view) = self.read_view_for(info.id) {
            for (rid, tuple) in self.snapshot_rows(info, &view)? {
                f(rid, tuple);
            }
            return Ok(());
        }
        self.visit_heap(info.heap, f)
    }

    /// All tuples of a table, in heap order.
    pub fn scan(&self, name: &str) -> StorageResult<Vec<Tuple>> {
        let info = self.table(name)?;
        let mut out = Vec::with_capacity(info.row_count);
        self.visit_rows(info, &mut |_, tuple| out.push(tuple))?;
        Ok(out)
    }

    /// Live `(rid, tuple)` pairs of a table, in heap order — the
    /// candidate feed for predicated UPDATE/DELETE, which must address
    /// the rows they rewrite. A snapshot-visible version of a rid
    /// another transaction has pending-rewritten still feeds the
    /// candidate set; the write path's first-updater-wins check then
    /// conflicts retryably instead of silently overwriting.
    pub fn scan_rids(&self, name: &str) -> StorageResult<Vec<(Rid, Tuple)>> {
        let info = self.table(name)?;
        let mut out = Vec::with_capacity(info.row_count);
        self.visit_rows(info, &mut |rid, tuple| out.push((rid, tuple)))?;
        Ok(out)
    }

    /// Visits every tuple of a table in heap order without building the
    /// intermediate `Vec` that [`StorageEngine::scan`] returns.
    pub fn for_each(&self, name: &str, f: &mut dyn FnMut(&Tuple)) -> StorageResult<()> {
        self.visit_rows(self.table(name)?, &mut |_, tuple| f(&tuple))
    }

    pub fn row_count(&self, name: &str) -> StorageResult<usize> {
        Ok(self.table(name)?.row_count)
    }

    /// Whether any stored tuple matches `values` at columns `cols`.
    /// Early-exits on the first hit instead of materializing the table.
    pub fn contains(&self, name: &str, cols: &[usize], values: &[Datum]) -> StorageResult<bool> {
        let info = self.table(name)?;
        let matches = |tuple: &Tuple| cols.iter().zip(values).all(|(&c, v)| &tuple[c] == v);
        if let Some(view) = self.read_view_for(info.id) {
            // Versioned path: no early exit, but it only runs while the
            // table actually carries concurrent-write metadata.
            return Ok(self
                .snapshot_rows(info, &view)?
                .iter()
                .any(|(_, tuple)| matches(tuple)));
        }
        let mut found = false;
        let mut err = None;
        info.heap
            .scan_while(&self.pool, |_, rec| match decode_tuple(rec) {
                Ok(tuple) => {
                    found = matches(&tuple);
                    !found
                }
                Err(e) => {
                    err = Some(e);
                    false
                }
            })?;
        match err {
            Some(e) => Err(e),
            None => Ok(found),
        }
    }

    // -----------------------------------------------------------------
    // Index reads
    // -----------------------------------------------------------------

    /// The one index reader: `(rid, tuple)` pairs of the rows whose
    /// `col` answers `probe`, via the B+-tree — a point descent for
    /// [`IndexProbe::Eq`], the ordered leaf chain for
    /// [`IndexProbe::Range`] (page cost proportional to the matching
    /// range; this is what `<`, `<=`, `>`, `>=`, `BETWEEN` ride on
    /// instead of full heap scans). `None` when no index covers the
    /// column, and also while the table carries version metadata: index
    /// postings address the raw heap, which may hold versions a
    /// snapshot must not see, so the caller falls back to a filtered
    /// scan. The metadata drains at GC, restoring index reads.
    pub fn index_read(
        &self,
        name: &str,
        col: usize,
        probe: IndexProbe<'_>,
    ) -> StorageResult<Option<Vec<(Rid, Tuple)>>> {
        let info = self.table(name)?;
        if self.read_view_for(info.id).is_some() {
            return Ok(None);
        }
        let Some(ix) = self.find_index(info.id, col) else {
            return Ok(None);
        };
        let rids = match probe {
            IndexProbe::Eq(key) => ix.tree.lookup(&self.pool, key)?,
            IndexProbe::Range(lower, upper) => ix.tree.range(&self.pool, lower, upper)?,
        };
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            out.push((rid, decode_tuple(&info.heap.fetch(&self.pool, rid)?)?));
        }
        Ok(Some(out))
    }

    /// Tuples whose `col` equals `key` ([`StorageEngine::index_read`]
    /// without the rids).
    pub fn index_lookup(
        &self,
        name: &str,
        col: usize,
        key: &Datum,
    ) -> StorageResult<Option<Vec<Tuple>>> {
        Ok(self.index_read(name, col, IndexProbe::Eq(key))?.map(tuples))
    }

    /// Tuples whose `col` falls inside `(lower, upper)`
    /// ([`StorageEngine::index_read`] without the rids).
    pub fn index_range(
        &self,
        name: &str,
        col: usize,
        lower: Bound<&Datum>,
        upper: Bound<&Datum>,
    ) -> StorageResult<Option<Vec<Tuple>>> {
        Ok(self
            .index_read(name, col, IndexProbe::Range(lower, upper))?
            .map(tuples))
    }
}

fn tuples(rows: Vec<(Rid, Tuple)>) -> Vec<Tuple> {
    rows.into_iter().map(|(_, tuple)| tuple).collect()
}
