//! Row mutations: insert, delete, update, truncate — each joins the
//! active transaction (autocommit otherwise), records its MVCC version
//! deltas, and maintains every index on the table.

use super::StorageEngine;
use crate::btree::BPlusTree;
use crate::codec::{decode_tuple, encode_tuple};
use crate::heap::Rid;
use crate::value::{Datum, Tuple};
use crate::{StorageError, StorageResult};

impl StorageEngine {
    /// Appends one tuple and maintains every index on the table; one
    /// transaction unless the caller opened one.
    pub fn insert(&mut self, name: &str, tuple: &[Datum]) -> StorageResult<Rid> {
        let info = self
            .tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))?;
        if tuple.len() != info.columns.len() {
            return Err(StorageError::Internal(format!(
                "{name} stores {}-column tuples, got {}",
                info.columns.len(),
                tuple.len()
            )));
        }
        self.autocommit(|eng| {
            // No full table/index snapshot for DML: abort compensation
            // (`note_*`) undoes exactly this transaction's effects, so a
            // rollback cannot clobber rows a concurrent transaction
            // committed into the same table.
            let info = eng
                .tables
                .get_mut(name)
                .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))?;
            let table_id = info.id;
            let heap_before = info.heap;
            let res = info.heap.insert(&eng.pool, &encode_tuple(tuple));
            let heap_changed = info.heap != heap_before;
            if heap_changed {
                eng.note_heap(name, heap_before);
            }
            let rid = res?;
            if let Some(txn) = eng.pool.active_txn() {
                eng.mvcc
                    .note_write(txn, table_id, rid, None, eng.pool.metrics());
            }
            eng.note_row_delta(name, 1);
            eng.tables.get_mut(name).expect("checked above").row_count += 1;
            let mut roots_moved = false;
            for i in 0..eng.indexes.len() {
                if eng.indexes[i].table_id != table_id {
                    continue;
                }
                let before = eng.indexes[i].tree;
                let col = eng.indexes[i].col;
                let res = eng.indexes[i].tree.insert(&eng.pool, &tuple[col], rid);
                // Note a moved root even when the insert then errored:
                // the abort path must still rewind the tree descriptor.
                if eng.indexes[i].tree.root != before.root {
                    eng.note_index_root(table_id, col, before);
                    roots_moved = true;
                }
                res?;
            }
            if roots_moved {
                eng.touch_meta();
                eng.rewrite_system_indexes()?;
            }
            Ok(rid)
        })
    }

    /// Deletes the given rows: tombstones each heap slot and removes its
    /// posting from every index. Joins the active transaction
    /// (autocommit otherwise), so a failure mid-way rolls the whole
    /// batch back. Lazy B+-tree deletion never moves roots, so no
    /// catalog rewrite is needed.
    pub fn delete_rows(&mut self, name: &str, rids: &[Rid]) -> StorageResult<usize> {
        let info = self
            .tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))?;
        if rids.is_empty() {
            return Ok(0);
        }
        let table_id = info.id;
        self.autocommit(|eng| {
            // Logical undo only (see `insert`): deletes tombstone in
            // place — the heap descriptor never changes — and lazy
            // B+-tree deletion never moves roots, so per-row count
            // compensation is the whole rollback story here.
            for &rid in rids {
                // First-updater-wins, checked before touching the heap:
                // a rid pending under another transaction (or rewritten
                // by a commit newer than our snapshot) conflicts
                // retryably — its slot may even be tombstoned already,
                // so fetching first would report corruption instead.
                if let Some(txn) = eng.pool.active_txn() {
                    eng.mvcc
                        .check_write(txn, table_id, rid, eng.pool.metrics())?;
                }
                let heap = eng.tables.get(name).expect("checked above").heap;
                let old = decode_tuple(&heap.fetch(&eng.pool, rid)?)?;
                heap.delete(&eng.pool, rid)?;
                if let Some(txn) = eng.pool.active_txn() {
                    eng.mvcc
                        .note_write(txn, table_id, rid, Some(old.clone()), eng.pool.metrics());
                }
                for ix in &mut eng.indexes {
                    if ix.table_id == table_id {
                        ix.tree.delete(&eng.pool, &old[ix.col], rid)?;
                    }
                }
                eng.note_row_delta(name, -1);
                eng.tables.get_mut(name).expect("checked above").row_count -= 1;
            }
            Ok(rids.len())
        })
    }

    /// Rewrites each `(rid, new tuple)` in place, relocating rows that
    /// no longer fit their page, and maintains every index (postings
    /// move when the key or the rid changed). Joins the active
    /// transaction (autocommit otherwise).
    pub fn update_rows(&mut self, name: &str, updates: &[(Rid, Tuple)]) -> StorageResult<usize> {
        let info = self
            .tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))?;
        if updates.is_empty() {
            return Ok(0);
        }
        let table_id = info.id;
        let arity = info.columns.len();
        // Validate arities before mutating anything, mirroring insert.
        for (_, tuple) in updates {
            if tuple.len() != arity {
                return Err(StorageError::Internal(format!(
                    "{name} stores {arity}-column tuples, got {}",
                    tuple.len()
                )));
            }
        }
        self.autocommit(|eng| {
            // Logical undo only (see `insert`): row counts are
            // untouched by updates, so only heap-descriptor growth and
            // index root moves need compensation records.
            let mut roots_moved = false;
            for (rid, new) in updates {
                // First-updater-wins before the heap is touched (see
                // `delete_rows`).
                if let Some(txn) = eng.pool.active_txn() {
                    eng.mvcc
                        .check_write(txn, table_id, *rid, eng.pool.metrics())?;
                }
                let mut heap = eng.tables.get(name).expect("checked above").heap;
                let heap_before = heap;
                let old = decode_tuple(&heap.fetch(&eng.pool, *rid)?)?;
                let res = heap.update(&eng.pool, *rid, &encode_tuple(new));
                if heap != heap_before {
                    // The chain tail grew on relocation.
                    eng.note_heap(name, heap_before);
                    eng.tables.get_mut(name).expect("checked above").heap = heap;
                }
                let new_rid = res?;
                if let Some(txn) = eng.pool.active_txn() {
                    // The superseded version hangs off the old rid; a
                    // relocation additionally marks the new rid as this
                    // transaction's insert.
                    eng.mvcc
                        .note_write(txn, table_id, *rid, Some(old.clone()), eng.pool.metrics());
                    if new_rid != *rid {
                        eng.mvcc
                            .note_write(txn, table_id, new_rid, None, eng.pool.metrics());
                    }
                }
                for i in 0..eng.indexes.len() {
                    let (ix_table, col) = (eng.indexes[i].table_id, eng.indexes[i].col);
                    if ix_table != table_id {
                        continue;
                    }
                    if old[col] == new[col] && new_rid == *rid {
                        continue;
                    }
                    eng.indexes[i].tree.delete(&eng.pool, &old[col], *rid)?;
                    let before = eng.indexes[i].tree;
                    let res = eng.indexes[i].tree.insert(&eng.pool, &new[col], new_rid);
                    if eng.indexes[i].tree.root != before.root {
                        eng.note_index_root(table_id, col, before);
                        roots_moved = true;
                    }
                    res?;
                }
            }
            if roots_moved {
                eng.touch_meta();
                eng.rewrite_system_indexes()?;
            }
            Ok(updates.len())
        })
    }

    /// Removes all rows; indexes are rebuilt empty. The abandoned chain
    /// pages and old index trees go onto the free-page list instead of
    /// leaking (reclaimed space is reused by later allocations).
    /// Refused retryably while another transaction has a pending
    /// version in the table ([`crate::mvcc::Mvcc::check_table_write`]).
    pub fn truncate(&mut self, name: &str) -> StorageResult<()> {
        if !self.tables.contains_key(name) {
            return Err(StorageError::UnknownTable(name.to_owned()));
        }
        self.autocommit(|eng| {
            let table_id = eng.tables.get(name).expect("checked above").id;
            if let Some(txn) = eng.pool.active_txn() {
                eng.mvcc
                    .check_table_write(txn, table_id, eng.pool.metrics())?;
            }
            eng.touch_table(name);
            let info = eng.tables.get(name).expect("checked above");
            // Collect what the truncation abandons *before* resetting
            // the pointers that reach it.
            let mut reclaim = info.heap.tail_pages(&eng.pool)?;
            for ix in eng.indexes.iter().filter(|ix| ix.table_id == table_id) {
                reclaim.extend(ix.tree.collect_pages(&eng.pool)?);
            }
            // Capture every row as a pending delete before the chain is
            // reset: open snapshots must keep seeing the pre-truncate
            // table, and later inserts reusing these rids stack on top
            // of the history.
            if let Some(txn) = eng.pool.active_txn() {
                let mut doomed: Vec<(Rid, Tuple)> = Vec::with_capacity(info.row_count);
                eng.visit_heap(info.heap, &mut |rid, old| {
                    doomed.push((rid, old));
                    Ok(true)
                })?;
                for (rid, old) in doomed {
                    eng.mvcc
                        .note_write(txn, table_id, rid, Some(old), eng.pool.metrics());
                }
            }
            let info = eng.tables.get_mut(name).expect("checked above");
            info.heap.truncate(&eng.pool)?;
            info.row_count = 0;
            // Only this table's trees are saved for an abort: a snapshot
            // of the whole index list would rewind roots that other
            // transactions' inserts moved meanwhile.
            let mut roots_moved = false;
            for i in 0..eng.indexes.len() {
                let ix = eng.indexes[i];
                if ix.table_id == table_id {
                    eng.note_index_root(table_id, ix.col, ix.tree);
                    eng.indexes[i].tree = BPlusTree::create(&eng.pool)?;
                    roots_moved = true;
                }
            }
            if roots_moved {
                eng.touch_meta();
                eng.rewrite_system_indexes()?;
            }
            eng.defer_free(reclaim);
            Ok(())
        })
    }
}
