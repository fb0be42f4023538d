//! Transactions: begin/suspend/resume/commit/abort, the
//! copy-on-first-touch catalog rollback state, and the compensation
//! records DML leaves instead of whole-table snapshots.

use super::{MetaState, StorageEngine, TxnTouch, WAL_CHECKPOINT_BYTES};
use crate::btree::BPlusTree;
use crate::buffer::TxnId;
use crate::heap::HeapFile;
use crate::page::PageId;
use crate::{StorageError, StorageResult};

impl StorageEngine {
    // -----------------------------------------------------------------
    // Transactions
    // -----------------------------------------------------------------

    /// Whether a transaction is active (joined by the next mutation).
    pub fn in_txn(&self) -> bool {
        self.pool.in_txn()
    }

    /// The active transaction's id, if any.
    pub fn active_txn(&self) -> Option<TxnId> {
        self.pool.active_txn()
    }

    /// Number of open (active or suspended) transactions.
    pub fn open_txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Opens a transaction spanning the next mutating operations and
    /// makes it active. Errors if another transaction is active
    /// (suspend it first; any number may be open but suspended).
    pub fn begin(&mut self) -> StorageResult<TxnId> {
        if self.pool.in_txn() {
            return Err(StorageError::Internal("transaction already active".into()));
        }
        let id = self.pool.begin_txn()?;
        self.txns.insert(id, TxnTouch::default());
        // The transaction's read snapshot is cut here: everything
        // committed so far is visible, later commits are not (plus its
        // own writes). Autocommit wrappers get one too — it doubles as
        // the first-updater-wins baseline.
        self.mvcc.open_txn_view(id, self.pool.metrics());
        Ok(id)
    }

    /// Makes an open (suspended) transaction active again — a session
    /// switching its transaction in before a statement.
    pub fn resume(&mut self, id: TxnId) -> StorageResult<()> {
        if !self.txns.contains_key(&id) {
            return Err(StorageError::Internal(format!(
                "resume of unknown transaction {id}"
            )));
        }
        self.pool.resume_txn(id)
    }

    /// Detaches the active transaction, leaving it open (no-op when
    /// none is active).
    pub fn suspend(&mut self) {
        self.pool.suspend_txn();
    }

    /// Commits the active transaction: page images + Commit frame are
    /// forced to the log. On error the transaction is rolled back
    /// (pages and catalog) before the error returns.
    pub fn commit(&mut self) -> StorageResult<()> {
        let Some(id) = self.pool.active_txn() else {
            return Err(StorageError::Internal("commit without begin".into()));
        };
        self.commit_txn(id)
    }

    /// Commits an open transaction by id (it need not be active).
    pub fn commit_txn(&mut self, id: TxnId) -> StorageResult<()> {
        if !self.txns.contains_key(&id) {
            return Err(StorageError::Internal(format!(
                "commit of unknown transaction {id}"
            )));
        }
        match self.pool.commit_txn(id) {
            Ok(()) => {
                // Stamp this transaction's row versions with a fresh
                // commit timestamp before anything else reuses the
                // engine (reclaim below opens nested transactions).
                self.mvcc.commit(id, self.pool.metrics());
                let pending = self
                    .txns
                    .remove(&id)
                    .map(|t| t.pending_free)
                    .unwrap_or_default();
                self.reclaim_deferred(pending);
                // Keep the log bounded; failure (e.g. other transactions
                // still open) leaves the log intact and the commit
                // stands, so it is not an error here.
                if self.pool.wal_len_bytes() > WAL_CHECKPOINT_BYTES {
                    let _ = self.pool.checkpoint();
                }
                Ok(())
            }
            Err(e) => {
                // Pages already rolled back by the pool; restore the
                // in-memory catalog to match.
                self.restore_touch(id);
                Err(e)
            }
        }
    }

    /// Rolls the active transaction back (no-op without one).
    pub fn abort(&mut self) {
        if let Some(id) = self.pool.active_txn() {
            self.abort_txn(id);
        }
    }

    /// Rolls an open transaction back by id (it need not be active).
    pub fn abort_txn(&mut self, id: TxnId) {
        self.pool.abort_txn(id);
        self.restore_touch(id);
    }

    /// Restores the catalog entries a transaction saved before mutating
    /// them (the copy-on-first-touch counterpart of the old full-catalog
    /// snapshot restore).
    fn restore_touch(&mut self, id: TxnId) {
        // Roll the version store back first: restore superseded begin
        // stamps, pop this transaction's priors, close its view.
        self.mvcc.rollback(id, self.pool.metrics());
        let Some(touch) = self.txns.remove(&id) else {
            return;
        };
        for (name, saved) in touch.tables {
            match saved {
                Some(info) => {
                    self.tables.insert(name, info);
                }
                None => {
                    self.tables.remove(&name);
                }
            }
        }
        if let Some(indexes) = touch.indexes {
            self.indexes = indexes;
        }
        if let Some(meta) = touch.meta {
            self.next_table_id = meta.next_table_id;
            self.sys_tables = meta.sys_tables;
            self.sys_columns = meta.sys_columns;
            self.sys_indexes = meta.sys_indexes;
            self.sys_constraints = meta.sys_constraints;
        }
        // Logical DML undo, applied *after* any full restores: a full
        // snapshot taken later in the transaction (DML-then-DDL) saved
        // post-DML state, and the compensation below corrects it back;
        // notes recorded after a snapshot existed were skipped, so
        // nothing is undone twice.
        for (name, delta) in touch.row_deltas {
            if let Some(info) = self.tables.get_mut(&name) {
                info.row_count = (info.row_count as i64 - delta).max(0) as usize;
            }
        }
        for (name, heap) in touch.heap_undo {
            if let Some(info) = self.tables.get_mut(&name) {
                info.heap = heap;
            }
        }
        for ((table_id, col), tree) in touch.index_root_undo {
            if let Some(ix) = self
                .indexes
                .iter_mut()
                .find(|ix| ix.table_id == table_id && ix.col == col)
            {
                ix.tree = tree;
            }
        }
    }

    /// Queues pages for free-list linking once the active transaction
    /// commits (dropped silently if it aborts — the pages then still
    /// belong to the rolled-back structures).
    pub(super) fn defer_free(&mut self, pages: Vec<PageId>) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        if let Some(touch) = self.txns.get_mut(&id) {
            touch.pending_free.extend(pages);
        }
    }

    /// Links committed-abandoned pages onto the free list in small
    /// transactions sized to the pool (each freed page dirties a frame
    /// until its batch commits; batching keeps that churn from turning
    /// into steals). Best-effort: any failure just leaks the remaining
    /// pages.
    fn reclaim_deferred(&mut self, pages: Vec<PageId>) {
        if pages.is_empty() {
            return;
        }
        let batch = (self.pool.capacity() / 2).max(1);
        for chunk in pages.chunks(batch) {
            let Ok(id) = self.begin() else {
                return;
            };
            match self.pool.free_pages(chunk) {
                Ok(_) => {
                    if self.commit_txn(id).is_err() {
                        return;
                    }
                }
                Err(_) => {
                    self.abort_txn(id);
                    return;
                }
            }
        }
    }

    /// Refuses a schema change, retryably, while a transaction other
    /// than the active one is open: an aborting DDL restores whole
    /// snapshots of the index list and the system heaps, and an index
    /// build reads the heap as it physically is, so neither may overlap
    /// another transaction's writes. Counted in `row_lock_conflicts`.
    pub(super) fn check_schema_write(&self) -> StorageResult<()> {
        let active = self.pool.active_txn();
        if self.txns.keys().all(|&id| Some(id) == active) {
            return Ok(());
        }
        crate::metrics::bump(&self.pool.metrics().row_lock_conflicts);
        Err(StorageError::Conflict(
            "a schema change is refused while another transaction is open".into(),
        ))
    }

    /// Saves `name`'s catalog entry into the active transaction's touch
    /// set, once, before its first mutation (`None` when absent, so an
    /// abort un-creates it).
    pub(super) fn touch_table(&mut self, name: &str) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        let Some(touch) = self.txns.get_mut(&id) else {
            return;
        };
        if !touch.tables.contains_key(name) {
            let saved = self.tables.get(name).cloned();
            touch.tables.insert(name.to_owned(), saved);
        }
    }

    /// Saves the index list on its first mutation by the active txn.
    pub(super) fn touch_indexes(&mut self) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        let Some(touch) = self.txns.get_mut(&id) else {
            return;
        };
        if touch.indexes.is_none() {
            touch.indexes = Some(self.indexes.clone());
        }
    }

    /// Saves the scalar/system-heap state on its first mutation.
    pub(super) fn touch_meta(&mut self) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        let Some(touch) = self.txns.get_mut(&id) else {
            return;
        };
        if touch.meta.is_none() {
            touch.meta = Some(MetaState {
                next_table_id: self.next_table_id,
                sys_tables: self.sys_tables,
                sys_columns: self.sys_columns,
                sys_indexes: self.sys_indexes,
                sys_constraints: self.sys_constraints,
            });
        }
    }

    /// Records a DML row-count change for abort compensation. Skipped
    /// when the table is fully snapshotted in this transaction's touch
    /// set — the snapshot restore already rewinds the count.
    pub(super) fn note_row_delta(&mut self, name: &str, delta: i64) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        let Some(touch) = self.txns.get_mut(&id) else {
            return;
        };
        if touch.tables.contains_key(name) {
            return;
        }
        *touch.row_deltas.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Records the heap descriptor from just before this transaction
    /// first changed it (first capture wins; skipped under a full
    /// table snapshot).
    pub(super) fn note_heap(&mut self, name: &str, before: HeapFile) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        let Some(touch) = self.txns.get_mut(&id) else {
            return;
        };
        if touch.tables.contains_key(name) {
            return;
        }
        touch.heap_undo.entry(name.to_owned()).or_insert(before);
    }

    /// Records an index tree descriptor from just before this
    /// transaction first moved its root (first capture wins; skipped
    /// under a full index-list snapshot).
    pub(super) fn note_index_root(&mut self, table_id: i64, col: usize, before: BPlusTree) {
        let Some(id) = self.pool.active_txn() else {
            return;
        };
        let Some(touch) = self.txns.get_mut(&id) else {
            return;
        };
        if touch.indexes.is_some() {
            return;
        }
        touch
            .index_root_undo
            .entry((table_id, col))
            .or_insert(before);
    }

    /// Runs `f` inside the active transaction if there is one (the
    /// caller then owns commit/abort), else wraps it in its own
    /// transaction.
    pub(super) fn autocommit<R>(
        &mut self,
        f: impl FnOnce(&mut StorageEngine) -> StorageResult<R>,
    ) -> StorageResult<R> {
        if self.in_txn() {
            return f(self);
        }
        let id = self.begin()?;
        match f(self) {
            Ok(v) => {
                self.commit_txn(id)?;
                Ok(v)
            }
            Err(e) => {
                self.abort_txn(id);
                Err(e)
            }
        }
    }
}
