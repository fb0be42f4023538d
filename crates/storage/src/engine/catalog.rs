//! The system catalog: bootstrap from the four system heaps, DDL
//! (create/drop table, constraint specs, index registration), and the
//! catalog-page rewrites DDL and root moves trigger.

use super::{
    ColType, IndexInfo, StorageEngine, TableInfo, FIRST_USER_TABLE_ID, META_PAGE,
    SYSTEM_COLUMNS_PAGE, SYSTEM_CONSTRAINTS_PAGE, SYSTEM_INDEXES_PAGE, SYSTEM_TABLES_PAGE,
};
use crate::btree::BPlusTree;
use crate::buffer::BufferPool;
use crate::codec::{decode_tuple, encode_tuple};
use crate::heap::{HeapFile, Rid};
use crate::mvcc::Mvcc;
use crate::page::{PageId, PageKind};
use crate::value::{Datum, Tuple};
use crate::{StorageError, StorageResult};
use std::collections::{BTreeMap, HashMap};

impl StorageEngine {
    /// Rebuilds the in-memory catalog from the four system heaps.
    pub(super) fn bootstrap(pool: BufferPool) -> StorageResult<StorageEngine> {
        // Databases created before the meta page existed lack page 4 (or
        // use it for data): the free list is disabled for them.
        let meta = if pool.page_count() > META_PAGE {
            let guard = pool.fetch(META_PAGE)?;
            guard
                .with(|p| p.kind() == Ok(PageKind::Meta))
                .then_some(META_PAGE)
        } else {
            None
        };
        pool.set_meta_page(meta);
        let sys_tables = HeapFile::open(&pool, SYSTEM_TABLES_PAGE)?;
        let sys_columns = HeapFile::open(&pool, SYSTEM_COLUMNS_PAGE)?;
        let sys_indexes = HeapFile::open(&pool, SYSTEM_INDEXES_PAGE)?;
        let sys_constraints = HeapFile::open(&pool, SYSTEM_CONSTRAINTS_PAGE)?;

        let mut rows: Vec<Tuple> = Vec::new();
        sys_tables.scan(&pool, |_, rec| {
            rows.push(decode_tuple(rec).unwrap_or_default())
        })?;
        let mut tables: BTreeMap<String, TableInfo> = BTreeMap::new();
        let mut by_id: BTreeMap<i64, String> = BTreeMap::new();
        let mut next_table_id = FIRST_USER_TABLE_ID;
        for row in rows {
            let [Datum::Int(id), Datum::Text(name), Datum::Int(first)] = row.as_slice() else {
                return Err(StorageError::Corrupt("bad system_tables row".into()));
            };
            let heap = HeapFile::open(&pool, *first as PageId)?;
            let row_count = heap.count(&pool)?;
            by_id.insert(*id, name.to_string());
            tables.insert(
                name.to_string(),
                TableInfo {
                    id: *id,
                    name: name.to_string(),
                    columns: Vec::new(),
                    constraints: Vec::new(),
                    heap,
                    row_count,
                },
            );
            next_table_id = next_table_id.max(*id + 1);
        }

        let mut col_rows: Vec<Tuple> = Vec::new();
        sys_columns.scan(&pool, |_, rec| {
            col_rows.push(decode_tuple(rec).unwrap_or_default())
        })?;
        let mut columns: BTreeMap<i64, Vec<(i64, String, ColType)>> = BTreeMap::new();
        for row in col_rows {
            let [Datum::Int(tid), Datum::Int(idx), Datum::Text(name), Datum::Int(tag)] =
                row.as_slice()
            else {
                return Err(StorageError::Corrupt("bad system_columns row".into()));
            };
            columns.entry(*tid).or_default().push((
                *idx,
                name.to_string(),
                ColType::from_tag(*tag)?,
            ));
        }
        for (tid, mut cols) in columns {
            let name = by_id
                .get(&tid)
                .ok_or_else(|| StorageError::Corrupt(format!("columns for unknown table {tid}")))?;
            cols.sort_by_key(|(idx, _, _)| *idx);
            let table = tables.get_mut(name).expect("by_id is derived from tables");
            table.columns = cols.into_iter().map(|(_, n, t)| (n, t)).collect();
        }

        let mut con_rows: Vec<Tuple> = Vec::new();
        sys_constraints.scan(&pool, |_, rec| {
            con_rows.push(decode_tuple(rec).unwrap_or_default())
        })?;
        let mut con_by_table: BTreeMap<i64, Vec<(i64, String)>> = BTreeMap::new();
        for row in con_rows {
            let [Datum::Int(tid), Datum::Int(seq), Datum::Text(spec)] = row.as_slice() else {
                return Err(StorageError::Corrupt("bad system_constraints row".into()));
            };
            con_by_table
                .entry(*tid)
                .or_default()
                .push((*seq, spec.to_string()));
        }
        for (tid, mut specs) in con_by_table {
            let name = by_id.get(&tid).ok_or_else(|| {
                StorageError::Corrupt(format!("constraints for unknown table {tid}"))
            })?;
            specs.sort_by_key(|(seq, _)| *seq);
            let table = tables.get_mut(name).expect("by_id is derived from tables");
            table.constraints = specs.into_iter().map(|(_, s)| s).collect();
        }

        let mut idx_rows: Vec<Tuple> = Vec::new();
        sys_indexes.scan(&pool, |_, rec| {
            idx_rows.push(decode_tuple(rec).unwrap_or_default())
        })?;
        let mut indexes = Vec::new();
        for row in idx_rows {
            let [Datum::Int(tid), Datum::Int(col), Datum::Int(root)] = row.as_slice() else {
                return Err(StorageError::Corrupt("bad system_indexes row".into()));
            };
            indexes.push(IndexInfo {
                table_id: *tid,
                col: *col as usize,
                tree: BPlusTree::open(*root as PageId),
            });
        }

        Ok(StorageEngine {
            pool,
            sys_tables,
            sys_columns,
            sys_indexes,
            sys_constraints,
            tables,
            indexes,
            next_table_id,
            txns: HashMap::new(),
            mvcc: Mvcc::new(),
            crashed: false,
        })
    }

    // -----------------------------------------------------------------
    // Catalog
    // -----------------------------------------------------------------

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// The stored schema of one table.
    pub fn table(&self, name: &str) -> StorageResult<&TableInfo> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Creates a table and persists its schema in the system catalog.
    pub fn create_table(&mut self, name: &str, columns: &[(String, ColType)]) -> StorageResult<()> {
        if self.tables.contains_key(name) {
            return Err(StorageError::DuplicateTable(name.to_owned()));
        }
        self.check_schema_write()?;
        self.autocommit(|eng| {
            eng.touch_meta();
            eng.touch_table(name);
            let id = eng.next_table_id;
            eng.next_table_id += 1;
            let heap = HeapFile::create(&eng.pool)?;
            eng.sys_tables.insert(
                &eng.pool,
                &encode_tuple(&[
                    Datum::Int(id),
                    Datum::text(name),
                    Datum::Int(i64::from(heap.first)),
                ]),
            )?;
            for (idx, (col_name, ty)) in columns.iter().enumerate() {
                eng.sys_columns.insert(
                    &eng.pool,
                    &encode_tuple(&[
                        Datum::Int(id),
                        Datum::Int(idx as i64),
                        Datum::text(col_name),
                        Datum::Int(ty.to_tag()),
                    ]),
                )?;
            }
            eng.tables.insert(
                name.to_owned(),
                TableInfo {
                    id,
                    name: name.to_owned(),
                    columns: columns.to_vec(),
                    constraints: Vec::new(),
                    heap,
                    row_count: 0,
                },
            );
            Ok(())
        })
    }

    /// Replaces the persisted constraint specs of a table. The specs
    /// are opaque strings owned by the relational layer; the engine
    /// stores and returns them verbatim.
    pub fn set_constraints(&mut self, name: &str, specs: &[String]) -> StorageResult<()> {
        if !self.tables.contains_key(name) {
            return Err(StorageError::UnknownTable(name.to_owned()));
        }
        self.autocommit(|eng| {
            eng.touch_meta();
            eng.touch_table(name);
            let info = eng.tables.get_mut(name).expect("checked above");
            info.constraints = specs.to_vec();
            eng.rewrite_system_constraints()
        })
    }

    /// The persisted constraint specs of a table.
    pub fn constraints(&self, name: &str) -> StorageResult<&[String]> {
        Ok(&self.table(name)?.constraints)
    }

    /// Drops a table — its heap chain and index trees go onto the
    /// free-page list for reuse — and rewrites the catalog.
    pub fn drop_table(&mut self, name: &str) -> StorageResult<()> {
        if !self.tables.contains_key(name) {
            return Err(StorageError::UnknownTable(name.to_owned()));
        }
        self.check_schema_write()?;
        self.autocommit(|eng| {
            eng.touch_meta();
            eng.touch_table(name);
            eng.touch_indexes();
            let info = eng.tables.get(name).expect("checked above");
            let mut reclaim = info.heap.all_pages(&eng.pool)?;
            let table_id = info.id;
            for ix in eng.indexes.iter().filter(|ix| ix.table_id == table_id) {
                reclaim.extend(ix.tree.collect_pages(&eng.pool)?);
            }
            eng.tables.remove(name);
            eng.indexes.retain(|ix| ix.table_id != table_id);
            // Version metadata goes with the table — but only once the
            // drop commits (an aborted DROP must leave history intact).
            if let Some(txn) = eng.pool.active_txn() {
                eng.mvcc.note_drop_table(txn, table_id);
            }
            eng.rewrite_system_catalog()?;
            eng.defer_free(reclaim);
            Ok(())
        })
    }

    /// Builds a B+-tree over an existing column and registers it.
    ///
    /// The bulk build itself is *not* logged: logging it would append
    /// one redo image per tree page at commit, and a forced undo image
    /// per page stolen once the tree outgrows the pool. Instead it runs
    /// unlogged, the finished tree is forced to the database file, and
    /// only then is the catalog row committed through the WAL: a crash
    /// at any point either misses the catalog row (the orphaned build
    /// pages are abandoned, the index simply does not exist) or has
    /// both the tree and its registration durable.
    pub fn create_index(&mut self, name: &str, col: usize) -> StorageResult<()> {
        if self.in_txn() {
            return Err(StorageError::Internal(
                "create_index cannot run inside a transaction (bulk build is unlogged)".into(),
            ));
        }
        self.check_schema_write()?;
        let info = self.table(name)?;
        if col >= info.columns.len() {
            return Err(StorageError::Internal(format!(
                "index column {col} out of range for {name} ({} columns)",
                info.columns.len()
            )));
        }
        let table_id = info.id;
        let heap = info.heap;
        if self.find_index(table_id, col).is_some() {
            return Ok(()); // idempotent, like the in-memory engine
        }
        let mut tree = BPlusTree::create(&self.pool)?;
        let mut postings: Vec<(Datum, Rid)> = Vec::new();
        self.visit_heap(heap, &mut |rid, mut tuple| {
            postings.push((tuple.swap_remove(col), rid));
            Ok(true)
        })?;
        for (key, rid) in postings {
            tree.insert(&self.pool, &key, rid)?;
        }
        // Force the finished tree before the catalog points at it.
        self.pool.flush()?;
        self.autocommit(|eng| {
            eng.touch_meta();
            eng.touch_indexes();
            eng.sys_indexes.insert(
                &eng.pool,
                &encode_tuple(&[
                    Datum::Int(table_id),
                    Datum::Int(col as i64),
                    Datum::Int(i64::from(tree.root)),
                ]),
            )?;
            eng.indexes.push(IndexInfo {
                table_id,
                col,
                tree,
            });
            Ok(())
        })
    }

    pub fn has_index(&self, name: &str, col: usize) -> bool {
        self.tables
            .get(name)
            .is_some_and(|info| self.find_index(info.id, col).is_some())
    }

    pub(super) fn find_index(&self, table_id: i64, col: usize) -> Option<&IndexInfo> {
        self.indexes
            .iter()
            .find(|ix| ix.table_id == table_id && ix.col == col)
    }

    /// Queues the chain pages a system-heap truncation is about to
    /// abandon — catalog rewrites (root moves, DDL) must not leak pages
    /// any more than user-table truncation does.
    fn reclaim_sys_tail(&mut self, heap: HeapFile) -> StorageResult<()> {
        let tail = heap.tail_pages(&self.pool)?;
        self.defer_free(tail);
        Ok(())
    }

    pub(super) fn rewrite_system_indexes(&mut self) -> StorageResult<()> {
        self.reclaim_sys_tail(self.sys_indexes)?;
        self.sys_indexes.truncate(&self.pool)?;
        for ix in &self.indexes {
            self.sys_indexes.insert(
                &self.pool,
                &encode_tuple(&[
                    Datum::Int(ix.table_id),
                    Datum::Int(ix.col as i64),
                    Datum::Int(i64::from(ix.tree.root)),
                ]),
            )?;
        }
        Ok(())
    }

    fn rewrite_system_constraints(&mut self) -> StorageResult<()> {
        self.reclaim_sys_tail(self.sys_constraints)?;
        self.sys_constraints.truncate(&self.pool)?;
        for info in self.tables.values() {
            for (seq, spec) in info.constraints.iter().enumerate() {
                self.sys_constraints.insert(
                    &self.pool,
                    &encode_tuple(&[
                        Datum::Int(info.id),
                        Datum::Int(seq as i64),
                        Datum::text(spec),
                    ]),
                )?;
            }
        }
        Ok(())
    }

    fn rewrite_system_catalog(&mut self) -> StorageResult<()> {
        self.reclaim_sys_tail(self.sys_tables)?;
        self.reclaim_sys_tail(self.sys_columns)?;
        self.sys_tables.truncate(&self.pool)?;
        self.sys_columns.truncate(&self.pool)?;
        for info in self.tables.values() {
            self.sys_tables.insert(
                &self.pool,
                &encode_tuple(&[
                    Datum::Int(info.id),
                    Datum::text(&info.name),
                    Datum::Int(i64::from(info.heap.first)),
                ]),
            )?;
            for (idx, (col_name, ty)) in info.columns.iter().enumerate() {
                self.sys_columns.insert(
                    &self.pool,
                    &encode_tuple(&[
                        Datum::Int(info.id),
                        Datum::Int(idx as i64),
                        Datum::text(col_name),
                        Datum::Int(ty.to_tag()),
                    ]),
                )?;
            }
        }
        self.rewrite_system_constraints()?;
        self.rewrite_system_indexes()
    }
}
