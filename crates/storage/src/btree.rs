//! B+-tree secondary indexes keyed on [`Datum`], mapping keys to heap
//! record ids.
//!
//! Node layout reuses the slotted page:
//!
//! * leaf records: `[key length u16][key bytes][rid 6 bytes]`, sorted by
//!   `(key, rid)`; the page `next` pointer chains leaves left-to-right;
//! * internal records: `[key length u16][key bytes][child page u32]`,
//!   sorted by key; the page `extra` word holds the leftmost child
//!   (covering keys below every separator).
//!
//! Duplicate keys are supported; a run of equal keys may span leaves, so
//! lookups descend to the leftmost candidate leaf and walk the chain.
//! Splits rebuild nodes from scratch — simple, and with 4 KiB pages and
//! short keys, far from the bottleneck.
//!
//! Like the heap, tree mutations run through [`BufferPool`] guards and
//! inherit WAL transaction semantics from the pool: an aborted insert
//! restores every touched node (split allocations revert to free
//! pages), and the caller rolls back its copy of the root id. Bulk
//! builds (`StorageEngine::create_index`) run outside transactions and
//! are forced to disk before the catalog registers the root.
//!
//! # Concurrency: latch crabbing
//!
//! Read descents (lookups, range cursors, and the routing phase of
//! mutations) use **lock coupling**: the child page is pinned and
//! verified to be a tree node while the parent pin is still held, and
//! only then is the parent released (`descend_to_leaf`). Every
//! per-node read takes the page's frame latch
//! ([`PinnedPage::with_latched`]), so a node is always observed either
//! entirely before or entirely after a concurrent rebuild — splits
//! reconstruct a node in one latched mutation and populate the new
//! right sibling *before* it becomes reachable.
//!
//! Mutations stay exclusive (the engine serializes writers), so a
//! reader races at most one in-flight split. That race is benign by
//! construction: splits move entries **right**, never free pages, and
//! link `left.next → right` in the same latched rebuild, so a stale
//! route can only land a reader *left* of its target — and the
//! left-to-right leaf chain walk that follows every descent recovers
//! by walking forward until the key range is passed.
//!
//! [`PinnedPage::with_latched`]: crate::buffer::PinnedPage::with_latched

use crate::buffer::{BufferPool, PinnedPage};
use crate::codec::{decode_datum, encode_key};
use crate::heap::Rid;
use crate::metrics::bump;
use crate::page::{Page, PageId, PageKind, NO_PAGE};
use crate::value::Datum;
use crate::{StorageError, StorageResult};
use std::cmp::Ordering;

/// Largest encoded key the tree accepts. Capping keys at a quarter page
/// guarantees several entries fit per node, which in turn guarantees
/// byte-balanced splits always produce two halves that fit (see
/// `split_point`). Callers must check [`check_key`] *before* mutating
/// any other structure (the storage engine does, before heap inserts).
pub const MAX_KEY_LEN: usize = crate::page::PAGE_SIZE / 4;

/// Rejects keys the tree could not store without breaking node
/// invariants.
pub fn check_key(key: &Datum) -> StorageResult<()> {
    let len = encode_key(key).len();
    if len > MAX_KEY_LEN {
        return Err(StorageError::RecordTooLarge(len));
    }
    Ok(())
}

/// Index of the first entry of the right half when splitting: the
/// earliest cut point at or past half the total byte cost, clamped so
/// both halves are non-empty. Splitting by bytes (not entry count)
/// keeps either half within page capacity even when entry sizes are
/// skewed — a count split could put all the large entries on one side.
fn split_point(costs: &[usize]) -> usize {
    let total: usize = costs.iter().sum();
    let mut acc = 0;
    for (i, c) in costs.iter().enumerate() {
        acc += c;
        if acc * 2 >= total {
            return (i + 1).clamp(1, costs.len() - 1);
        }
    }
    costs.len() - 1
}

/// One leaf entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LeafEntry {
    key: Vec<u8>,
    rid: Rid,
}

impl LeafEntry {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.key.len() + Rid::ENCODED_LEN);
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.key);
        self.rid.encode(&mut out);
        out
    }

    fn decode(record: &[u8]) -> StorageResult<LeafEntry> {
        let (key, rest) = split_key(record)?;
        Ok(LeafEntry {
            key: key.to_vec(),
            rid: Rid::decode(rest)?,
        })
    }
}

/// One internal (separator, child) entry.
#[derive(Clone, Debug)]
struct InternalEntry {
    key: Vec<u8>,
    child: PageId,
}

impl InternalEntry {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.key.len() + 4);
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.child.to_le_bytes());
        out
    }

    fn decode(record: &[u8]) -> StorageResult<InternalEntry> {
        let (key, rest) = split_key(record)?;
        if rest.len() < 4 {
            return Err(StorageError::Corrupt("truncated internal entry".into()));
        }
        Ok(InternalEntry {
            key: key.to_vec(),
            child: u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")),
        })
    }
}

fn split_key(record: &[u8]) -> StorageResult<(&[u8], &[u8])> {
    if record.len() < 2 {
        return Err(StorageError::Corrupt("truncated index entry".into()));
    }
    let klen = u16::from_le_bytes(record[0..2].try_into().expect("2 bytes")) as usize;
    if record.len() < 2 + klen {
        return Err(StorageError::Corrupt("truncated index key".into()));
    }
    Ok((&record[2..2 + klen], &record[2 + klen..]))
}

/// Compares two encoded keys by their decoded [`Datum`] order.
fn cmp_keys(a: &[u8], b: &[u8]) -> StorageResult<Ordering> {
    let (mut pa, mut pb) = (0, 0);
    let da = decode_datum(a, &mut pa)?;
    let db = decode_datum(b, &mut pb)?;
    Ok(da.total_cmp(&db))
}

/// A B+-tree rooted at `root`. The root moves on root splits; callers
/// persist the new root id (the engine records it in `system_indexes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BPlusTree {
    pub root: PageId,
}

impl BPlusTree {
    /// Creates an empty tree (a single leaf).
    pub fn create(pool: &BufferPool) -> StorageResult<BPlusTree> {
        let (root, _guard) = pool.allocate(PageKind::BTreeLeaf)?;
        Ok(BPlusTree { root })
    }

    /// Adopts an existing root (catalog bootstrap).
    pub fn open(root: PageId) -> BPlusTree {
        BPlusTree { root }
    }

    /// Inserts one `key → rid` posting.
    pub fn insert(&mut self, pool: &BufferPool, key: &Datum, rid: Rid) -> StorageResult<()> {
        check_key(key)?;
        let entry = LeafEntry {
            key: encode_key(key),
            rid,
        };
        bump(&pool.metrics().btree_descents);
        // Crab to the leaf, remembering the path for split propagation.
        let mut path: Vec<PageId> = Vec::new();
        let leaf = descend_to_leaf(
            pool,
            self.root,
            |p| child_for_insert(p, &entry.key),
            |id| path.push(id),
        )?;
        let current = leaf.id();
        drop(leaf);

        // Insert into the leaf, splitting upward as needed.
        let mut promoted = self.insert_into_leaf(pool, current, entry)?;
        while let Some((sep, new_child)) = promoted {
            match path.pop() {
                Some(parent) => {
                    promoted = self.insert_into_internal(pool, parent, sep, new_child)?;
                }
                None => {
                    // Root split: new internal root over old root + new child.
                    bump(&pool.metrics().btree_splits);
                    let (new_root, guard) = pool.allocate(PageKind::BTreeInternal)?;
                    guard.with_mut(|p| {
                        p.set_extra(self.root);
                        p.push_record(
                            &InternalEntry {
                                key: sep,
                                child: new_child,
                            }
                            .encode(),
                        )
                    })??;
                    self.root = new_root;
                    promoted = None;
                }
            }
        }
        Ok(())
    }

    /// Inserts into a leaf; on overflow splits it and returns the
    /// promoted `(separator, right page)`.
    fn insert_into_leaf(
        &mut self,
        pool: &BufferPool,
        leaf_id: PageId,
        entry: LeafEntry,
    ) -> StorageResult<Option<(Vec<u8>, PageId)>> {
        let guard = pool.fetch(leaf_id)?;
        let record = entry.encode();
        let pos = guard.with(|p| leaf_position(p, &entry))?;
        if guard.with(|p| p.fits(record.len())) {
            guard.with_mut(|p| p.insert_record_at(pos, &record))??;
            return Ok(None);
        }
        // Split: collect all entries plus the new one, redistribute.
        bump(&pool.metrics().btree_splits);
        let (mut entries, old_next) = guard.with(|p| -> StorageResult<_> {
            let mut es = Vec::with_capacity(p.slot_count() + 1);
            for record in p.records() {
                es.push(LeafEntry::decode(record)?);
            }
            Ok((es, p.next()))
        })?;
        entries.insert(pos, entry);
        let costs: Vec<usize> = entries.iter().map(|e| e.encode().len() + 4).collect();
        let mid = split_point(&costs);
        let right_entries = entries.split_off(mid);
        let separator = right_entries[0].key.clone();

        let (right_id, right_guard) = pool.allocate(PageKind::BTreeLeaf)?;
        right_guard.with_mut(|p| -> StorageResult<()> {
            p.set_next(old_next);
            for e in &right_entries {
                p.push_record(&e.encode())?;
            }
            Ok(())
        })??;
        guard.with_mut(|p| -> StorageResult<()> {
            p.init(PageKind::BTreeLeaf);
            p.set_next(right_id);
            for e in &entries {
                p.push_record(&e.encode())?;
            }
            Ok(())
        })??;
        Ok(Some((separator, right_id)))
    }

    /// Inserts a promoted separator into an internal node; on overflow
    /// splits it and returns the next promotion.
    fn insert_into_internal(
        &mut self,
        pool: &BufferPool,
        node_id: PageId,
        sep: Vec<u8>,
        child: PageId,
    ) -> StorageResult<Option<(Vec<u8>, PageId)>> {
        let guard = pool.fetch(node_id)?;
        let record = InternalEntry {
            key: sep.clone(),
            child,
        }
        .encode();
        let pos = guard.with(|p| internal_position(p, &sep))?;
        if guard.with(|p| p.fits(record.len())) {
            guard.with_mut(|p| p.insert_record_at(pos, &record))??;
            return Ok(None);
        }
        // Split. children = [leftmost, e0.child, e1.child, ...].
        bump(&pool.metrics().btree_splits);
        let (mut entries, leftmost) = guard.with(|p| -> StorageResult<_> {
            let mut es = Vec::with_capacity(p.slot_count() + 1);
            for record in p.records() {
                es.push(InternalEntry::decode(record)?);
            }
            Ok((es, p.extra()))
        })?;
        entries.insert(pos, InternalEntry { key: sep, child });
        let costs: Vec<usize> = entries.iter().map(|e| e.encode().len() + 4).collect();
        let mid = split_point(&costs).min(entries.len() - 2).max(1);
        let right_entries = entries.split_off(mid + 1);
        let promoted = entries.pop().expect("mid entry exists");
        // Left keeps `leftmost` + entries; right's leftmost child is the
        // promoted entry's child.
        let (right_id, right_guard) = pool.allocate(PageKind::BTreeInternal)?;
        right_guard.with_mut(|p| -> StorageResult<()> {
            p.set_extra(promoted.child);
            for e in &right_entries {
                p.push_record(&e.encode())?;
            }
            Ok(())
        })??;
        guard.with_mut(|p| -> StorageResult<()> {
            p.init(PageKind::BTreeInternal);
            p.set_extra(leftmost);
            for e in &entries {
                p.push_record(&e.encode())?;
            }
            Ok(())
        })??;
        Ok(Some((promoted.key, right_id)))
    }

    /// Removes one `key → rid` posting, returning whether it existed.
    ///
    /// Lazy deletion: the holding leaf is rebuilt without the entry, but
    /// nodes are never merged or rebalanced — underfull (even empty)
    /// leaves stay in the chain and separators stay in their parents, so
    /// the root never moves and no catalog rewrite is needed. With the
    /// UPDATE/DELETE workloads this serves (and truncation rebuilding
    /// trees outright), space recovers on the next rebuild.
    pub fn delete(&mut self, pool: &BufferPool, key: &Datum, rid: Rid) -> StorageResult<bool> {
        let target = encode_key(key);
        bump(&pool.metrics().btree_descents);
        // Crab to the leftmost leaf that could hold the key.
        let mut guard = descend_to_leaf(pool, self.root, |p| child_for_lookup(p, &target), |_| ())?;
        // Walk the leaf chain while the key may still match, pinning
        // the next leaf before releasing the current one.
        loop {
            let (entries, found, done, next) = guard.with_latched(pool.metrics(), |p| {
                let mut entries = Vec::with_capacity(p.slot_count());
                let mut found = None;
                let mut done = false;
                for record in p.records() {
                    let entry = LeafEntry::decode(record)?;
                    match cmp_keys(&entry.key, &target)? {
                        Ordering::Less => {}
                        Ordering::Equal if entry.rid == rid => found = Some(entries.len()),
                        Ordering::Equal => {}
                        Ordering::Greater => {
                            done = true;
                        }
                    }
                    entries.push(entry);
                }
                Ok::<_, StorageError>((entries, found, done, p.next()))
            })?;
            if let Some(pos) = found {
                let mut entries = entries;
                entries.remove(pos);
                guard.with_mut(|p| -> StorageResult<()> {
                    p.init(PageKind::BTreeLeaf);
                    p.set_next(next);
                    for e in &entries {
                        p.push_record(&e.encode())?;
                    }
                    Ok(())
                })??;
                return Ok(true);
            }
            if done || next == NO_PAGE {
                return Ok(false);
            }
            let next_guard = pool.fetch(next)?; // current leaf still pinned
            guard = next_guard;
        }
    }

    /// All rids posted under `key`, in insertion-stable (key, rid) order.
    pub fn lookup(&self, pool: &BufferPool, key: &Datum) -> StorageResult<Vec<Rid>> {
        let target = encode_key(key);
        bump(&pool.metrics().btree_descents);
        // Crab to the leftmost leaf that could hold the key.
        let mut guard = descend_to_leaf(pool, self.root, |p| child_for_lookup(p, &target), |_| ())?;
        // Walk the leaf chain while keys may still match, pinning the
        // next leaf before releasing the current one so a concurrent
        // split cannot unlink the chain under the cursor.
        let mut rids = Vec::new();
        loop {
            let (matches, done, next) = guard.with_latched(pool.metrics(), |p| {
                let mut matches = Vec::new();
                let mut done = false;
                for record in p.records() {
                    let entry = LeafEntry::decode(record)?;
                    match cmp_keys(&entry.key, &target)? {
                        Ordering::Less => {}
                        Ordering::Equal => matches.push(entry.rid),
                        Ordering::Greater => {
                            done = true;
                            break;
                        }
                    }
                }
                Ok::<_, StorageError>((matches, done, p.next()))
            })?;
            rids.extend(matches);
            if done || next == NO_PAGE {
                break;
            }
            let next_guard = pool.fetch(next)?; // current leaf still pinned
            guard = next_guard;
        }
        Ok(rids)
    }

    /// All rids whose key falls inside `(lower, upper)`, in key order —
    /// the ordered-cursor path behind inequality restrictions (`<`,
    /// `<=`, `>`, `>=`, `BETWEEN`). Descends to the leftmost candidate
    /// leaf for the lower bound, then walks the leaf chain until an
    /// entry exceeds the upper bound, so the cost is proportional to the
    /// matching range, not the table.
    pub fn range(
        &self,
        pool: &BufferPool,
        lower: std::ops::Bound<&Datum>,
        upper: std::ops::Bound<&Datum>,
    ) -> StorageResult<Vec<Rid>> {
        use std::ops::Bound;
        let lower_key = match lower {
            Bound::Included(d) | Bound::Excluded(d) => Some(encode_key(d)),
            Bound::Unbounded => None,
        };
        let upper_key = match upper {
            Bound::Included(d) | Bound::Excluded(d) => Some(encode_key(d)),
            Bound::Unbounded => None,
        };
        bump(&pool.metrics().btree_descents);
        // Crab to the leftmost leaf that could hold the lower bound
        // (the leftmost leaf outright when unbounded below).
        let mut guard = descend_to_leaf(
            pool,
            self.root,
            |p| match &lower_key {
                Some(key) => child_for_lookup(p, key),
                None => Ok(p.extra()),
            },
            |_| (),
        )?;
        // Walk the leaf chain while keys may still fall in range,
        // pinning the next leaf before releasing the current one.
        let mut rids = Vec::new();
        loop {
            let (matches, done, next) = guard.with_latched(pool.metrics(), |p| {
                let mut matches = Vec::new();
                let mut done = false;
                for record in p.records() {
                    let entry = LeafEntry::decode(record)?;
                    if let Some(key) = &lower_key {
                        let ord = cmp_keys(&entry.key, key)?;
                        let below = match lower {
                            Bound::Included(_) => ord == Ordering::Less,
                            _ => ord != Ordering::Greater,
                        };
                        if below {
                            continue;
                        }
                    }
                    if let Some(key) = &upper_key {
                        let ord = cmp_keys(&entry.key, key)?;
                        let above = match upper {
                            Bound::Included(_) => ord == Ordering::Greater,
                            _ => ord != Ordering::Less,
                        };
                        if above {
                            done = true;
                            break;
                        }
                    }
                    matches.push(entry.rid);
                }
                Ok::<_, StorageError>((matches, done, p.next()))
            })?;
            rids.extend(matches);
            if done || next == NO_PAGE {
                break;
            }
            let next_guard = pool.fetch(next)?; // current leaf still pinned
            guard = next_guard;
        }
        Ok(rids)
    }

    /// Every page id of the tree (root, internal nodes, leaves). The
    /// engine hands these to the free list when the index is rebuilt or
    /// dropped. Guarded against pointer cycles like chain walks are.
    pub fn collect_pages(&self, pool: &BufferPool) -> StorageResult<Vec<PageId>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        let limit = pool.page_count() as usize;
        while let Some(id) = stack.pop() {
            if out.len() > limit {
                return Err(StorageError::Corrupt(
                    "B+-tree cycle: child pointers revisit a page".into(),
                ));
            }
            out.push(id);
            let guard = pool.fetch(id)?;
            match guard.with(|p| p.kind())? {
                PageKind::BTreeLeaf => {}
                PageKind::BTreeInternal => {
                    let children = guard.with(|p| -> StorageResult<Vec<PageId>> {
                        let mut cs = vec![p.extra()];
                        for record in p.records() {
                            cs.push(InternalEntry::decode(record)?.child);
                        }
                        Ok(cs)
                    })?;
                    stack.extend(children);
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "page {id} is {other:?}, expected a B+-tree node"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Tree height (1 for a lone leaf); test/diagnostic helper.
    pub fn height(&self, pool: &BufferPool) -> StorageResult<usize> {
        let mut h = 1;
        let mut current = self.root;
        loop {
            let guard = pool.fetch(current)?;
            match guard.with(|p| p.kind())? {
                PageKind::BTreeLeaf => return Ok(h),
                PageKind::BTreeInternal => {
                    let child = guard.with(|p| p.extra());
                    drop(guard);
                    current = child;
                    h += 1;
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "unexpected node kind {other:?}"
                    )))
                }
            }
        }
    }
}

/// Latch-crabbing descent from `root` to a leaf: at each internal node,
/// `route` picks the child under the node's frame latch; the child is
/// then pinned and kind-verified **while the parent pin is still
/// held**, and only then is the parent released (lock coupling). The
/// returned guard pins the leaf the descent landed on.
///
/// Concurrent exclusive splits can stale a route between reading the
/// parent and latching the child, but only *leftward* (splits move
/// entries right and never free pages); callers correct by walking the
/// leaf chain forward. `on_step` sees each internal node's id before
/// its child is taken — insert uses it to record the split-propagation
/// path.
fn descend_to_leaf(
    pool: &BufferPool,
    root: PageId,
    mut route: impl FnMut(&Page) -> StorageResult<PageId>,
    mut on_step: impl FnMut(PageId),
) -> StorageResult<PinnedPage> {
    let metrics = pool.metrics();
    let mut current = root;
    let mut guard = pool.fetch(current)?;
    let mut kind = guard.with_latched(metrics, |p| p.kind())?;
    loop {
        match kind {
            PageKind::BTreeLeaf => return Ok(guard),
            PageKind::BTreeInternal => {}
            other => {
                return Err(StorageError::Corrupt(format!(
                    "page {current} is {other:?}, expected a B+-tree node"
                )))
            }
        }
        let child = guard.with_latched(metrics, |p| route(p))?;
        let child_guard = pool.fetch(child)?;
        // Verify before releasing the parent: the child must still be a
        // tree node (the kind is consumed by the next iteration's
        // check, so corruption surfaces with the right page id).
        kind = child_guard.with_latched(metrics, |p| p.kind())?;
        on_step(current);
        guard = child_guard;
        current = child;
    }
}

/// Child to descend into when inserting `key`: the last separator ≤ key
/// (new equal keys go right), else the leftmost child.
fn child_for_insert(page: &Page, key: &[u8]) -> StorageResult<PageId> {
    let mut child = page.extra();
    for record in page.records() {
        let entry = InternalEntry::decode(record)?;
        if cmp_keys(&entry.key, key)? == Ordering::Greater {
            break;
        }
        child = entry.child;
    }
    Ok(child)
}

/// Child to descend into when looking up `key`: the last separator
/// strictly < key, else the leftmost child. Equal separators send the
/// search left because a run of equal keys may begin in the previous
/// subtree; the leaf chain walk picks up the rest.
fn child_for_lookup(page: &Page, key: &[u8]) -> StorageResult<PageId> {
    let mut child = page.extra();
    for record in page.records() {
        let entry = InternalEntry::decode(record)?;
        if cmp_keys(&entry.key, key)? != Ordering::Less {
            break;
        }
        child = entry.child;
    }
    Ok(child)
}

/// Sorted position of `entry` within a leaf, ordering by (key, rid).
fn leaf_position(page: &Page, entry: &LeafEntry) -> StorageResult<usize> {
    let mut pos = 0;
    for record in page.records() {
        let existing = LeafEntry::decode(record)?;
        let ord = cmp_keys(&existing.key, &entry.key)?.then_with(|| existing.rid.cmp(&entry.rid));
        if ord == Ordering::Greater {
            break;
        }
        pos += 1;
    }
    Ok(pos)
}

/// Sorted position of a separator within an internal node (after equal
/// separators).
fn internal_position(page: &Page, key: &[u8]) -> StorageResult<usize> {
    let mut pos = 0;
    for record in page.records() {
        let existing = InternalEntry::decode(record)?;
        if cmp_keys(&existing.key, key)? == Ordering::Greater {
            break;
        }
        pos += 1;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Pager::in_memory(), capacity, crate::wal::Wal::in_memory())
    }

    fn rid(n: u32) -> Rid {
        Rid {
            page: n,
            slot: (n % 7) as u16,
        }
    }

    #[test]
    fn single_leaf_insert_and_lookup() {
        let pool = pool(4);
        let mut tree = BPlusTree::create(&pool).unwrap();
        tree.insert(&pool, &Datum::Int(5), rid(1)).unwrap();
        tree.insert(&pool, &Datum::Int(3), rid(2)).unwrap();
        tree.insert(&pool, &Datum::text("x"), rid(3)).unwrap();
        assert_eq!(tree.lookup(&pool, &Datum::Int(5)).unwrap(), vec![rid(1)]);
        assert_eq!(tree.lookup(&pool, &Datum::Int(3)).unwrap(), vec![rid(2)]);
        assert_eq!(tree.lookup(&pool, &Datum::text("x")).unwrap(), vec![rid(3)]);
        assert!(tree.lookup(&pool, &Datum::Int(99)).unwrap().is_empty());
        assert_eq!(tree.height(&pool).unwrap(), 1);
    }

    #[test]
    fn splits_grow_the_tree_and_keep_every_key() {
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        let n = 2000u32;
        // Insert in a scrambled order to exercise mid-node insertion.
        for i in 0..n {
            let key = (i * 7919) % n;
            tree.insert(&pool, &Datum::Int(i64::from(key)), rid(key))
                .unwrap();
        }
        assert!(tree.height(&pool).unwrap() >= 2, "tree should have split");
        for key in 0..n {
            let got = tree.lookup(&pool, &Datum::Int(i64::from(key))).unwrap();
            assert_eq!(got, vec![rid(key)], "key {key}");
        }
        assert!(tree
            .lookup(&pool, &Datum::Int(i64::from(n)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn duplicate_keys_survive_splits() {
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        // 40 distinct keys × 30 duplicates each, interleaved.
        for round in 0..30u32 {
            for key in 0..40i64 {
                tree.insert(&pool, &Datum::Int(key), rid(round * 100 + key as u32))
                    .unwrap();
            }
        }
        for key in 0..40i64 {
            let got = tree.lookup(&pool, &Datum::Int(key)).unwrap();
            assert_eq!(got.len(), 30, "key {key} lost postings: {got:?}");
            let expected: std::collections::BTreeSet<Rid> =
                (0..30).map(|r| rid(r * 100 + key as u32)).collect();
            assert_eq!(
                got.into_iter().collect::<std::collections::BTreeSet<_>>(),
                expected
            );
        }
    }

    #[test]
    fn text_keys_sort_and_split_correctly() {
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        let n = 600u32;
        for i in 0..n {
            let name = format!("employee_{:04}", (i * 37) % n);
            tree.insert(&pool, &Datum::text(&name), rid(i)).unwrap();
        }
        for i in 0..n {
            let name = format!("employee_{:04}", i);
            assert_eq!(
                tree.lookup(&pool, &Datum::text(&name)).unwrap().len(),
                1,
                "missing {name}"
            );
        }
    }

    #[test]
    fn oversized_keys_rejected_before_mutation() {
        let pool = pool(4);
        let mut tree = BPlusTree::create(&pool).unwrap();
        let huge = "k".repeat(MAX_KEY_LEN + 100);
        assert!(matches!(
            tree.insert(&pool, &Datum::text(&huge), rid(1)),
            Err(StorageError::RecordTooLarge(_))
        ));
        // The tree is untouched and still usable.
        tree.insert(&pool, &Datum::Int(1), rid(2)).unwrap();
        assert_eq!(tree.lookup(&pool, &Datum::Int(1)).unwrap(), vec![rid(2)]);
    }

    #[test]
    fn skewed_key_sizes_split_safely() {
        // Regression: count-based splits could put every large entry in
        // one half, overflowing the rebuilt node after it was wiped.
        // Byte-balanced splits must keep all postings reachable.
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        let big = |i: u32| format!("{:0>width$}", i, width = MAX_KEY_LEN - 20);
        let mut expected = Vec::new();
        for i in 0..120u32 {
            // Interleave near-cap keys with tiny ones, scrambled order.
            let key = if i % 3 == 0 {
                Datum::text(&big((i * 37) % 120))
            } else {
                Datum::Int(i64::from((i * 53) % 120))
            };
            tree.insert(&pool, &key, rid(i)).unwrap();
            expected.push((key, rid(i)));
        }
        for (key, r) in expected {
            let got = tree.lookup(&pool, &key).unwrap();
            assert!(got.contains(&r), "posting lost for {key:?}");
        }
    }

    #[test]
    fn delete_removes_exactly_one_posting() {
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        let n = 2000u32;
        for i in 0..n {
            let key = (i * 7919) % n;
            tree.insert(&pool, &Datum::Int(i64::from(key)), rid(key))
                .unwrap();
        }
        let root_before = tree.root;
        // Delete every third key; the rest must survive untouched.
        for key in (0..n).step_by(3) {
            assert!(tree
                .delete(&pool, &Datum::Int(i64::from(key)), rid(key))
                .unwrap());
        }
        assert_eq!(tree.root, root_before, "lazy deletion never moves the root");
        for key in 0..n {
            let got = tree.lookup(&pool, &Datum::Int(i64::from(key))).unwrap();
            if key % 3 == 0 {
                assert!(got.is_empty(), "key {key} must be gone");
            } else {
                assert_eq!(got, vec![rid(key)], "key {key} must survive");
            }
        }
        // Deleting a missing posting reports false and changes nothing.
        assert!(!tree.delete(&pool, &Datum::Int(0), rid(0)).unwrap());
        assert!(!tree.delete(&pool, &Datum::Int(99_999), rid(1)).unwrap());
    }

    #[test]
    fn delete_picks_the_right_duplicate() {
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        // Duplicate runs long enough to span several leaves.
        for round in 0..30u32 {
            for key in 0..40i64 {
                tree.insert(&pool, &Datum::Int(key), rid(round * 100 + key as u32))
                    .unwrap();
            }
        }
        for round in (0..30u32).step_by(2) {
            assert!(tree
                .delete(&pool, &Datum::Int(17), rid(round * 100 + 17))
                .unwrap());
        }
        let got = tree.lookup(&pool, &Datum::Int(17)).unwrap();
        assert_eq!(got.len(), 15);
        assert!(got.iter().all(|r| (0..30u32)
            .filter(|r2| r2 % 2 == 1)
            .any(|r2| *r == rid(r2 * 100 + 17))));
        // Other keys keep all 30 postings.
        assert_eq!(tree.lookup(&pool, &Datum::Int(16)).unwrap().len(), 30);
    }

    #[test]
    fn range_scan_matches_filtered_lookup() {
        use std::ops::Bound;
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        let n = 2000u32;
        for i in 0..n {
            let key = (i * 7919) % n;
            tree.insert(&pool, &Datum::Int(i64::from(key)), rid(key))
                .unwrap();
        }
        let cases: Vec<(Bound<Datum>, Bound<Datum>, Vec<u32>)> = vec![
            (
                Bound::Included(Datum::Int(100)),
                Bound::Excluded(Datum::Int(110)),
                (100..110).collect(),
            ),
            (
                Bound::Excluded(Datum::Int(1995)),
                Bound::Unbounded,
                (1996..n).collect(),
            ),
            (
                Bound::Unbounded,
                Bound::Included(Datum::Int(5)),
                (0..=5).collect(),
            ),
            (Bound::Unbounded, Bound::Unbounded, (0..n).collect()),
            (
                Bound::Included(Datum::Int(50)),
                Bound::Included(Datum::Int(50)),
                vec![50],
            ),
            (Bound::Included(Datum::Int(3000)), Bound::Unbounded, vec![]),
        ];
        for (lower, upper, expect) in cases {
            let got = tree.range(&pool, lower.as_ref(), upper.as_ref()).unwrap();
            let want: Vec<Rid> = expect.iter().map(|&k| rid(k)).collect();
            assert_eq!(got, want, "range {lower:?}..{upper:?}");
        }
    }

    #[test]
    fn range_scan_reads_fewer_pages_than_full_walk() {
        use std::ops::Bound;
        let pool = pool(4);
        let mut tree = BPlusTree::create(&pool).unwrap();
        for i in 0..3000i64 {
            tree.insert(&pool, &Datum::Int(i), rid(i as u32)).unwrap();
        }
        let before = pool.metrics().snapshot();
        let narrow = tree
            .range(
                &pool,
                Bound::Included(&Datum::Int(1500)),
                Bound::Excluded(&Datum::Int(1510)),
            )
            .unwrap();
        let narrow_cost = {
            let s = pool.metrics().snapshot();
            (s.fault_ins + s.buffer_hits) - (before.fault_ins + before.buffer_hits)
        };
        assert_eq!(narrow.len(), 10);
        let before = pool.metrics().snapshot();
        let full = tree
            .range(&pool, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        let full_cost = {
            let s = pool.metrics().snapshot();
            (s.fault_ins + s.buffer_hits) - (before.fault_ins + before.buffer_hits)
        };
        assert_eq!(full.len(), 3000);
        assert!(
            narrow_cost * 4 < full_cost,
            "narrow range touched {narrow_cost} pages, full walk {full_cost}"
        );
    }

    #[test]
    fn collect_pages_covers_the_whole_tree() {
        let pool = pool(8);
        let mut tree = BPlusTree::create(&pool).unwrap();
        for i in 0..1200i64 {
            tree.insert(&pool, &Datum::Int(i), rid(i as u32)).unwrap();
        }
        assert!(tree.height(&pool).unwrap() >= 2);
        let pages = tree.collect_pages(&pool).unwrap();
        assert!(pages.contains(&tree.root));
        // Every allocated page belongs to this tree (nothing else was
        // created on this pool), so the sets must match exactly.
        let mut sorted: Vec<PageId> = pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pages.len(), "no page listed twice");
        assert_eq!(sorted.len(), pool.page_count() as usize);
    }

    #[test]
    fn works_under_minimal_buffer_pool() {
        // Pool far smaller than the tree: every descent faults pages in.
        let pool = pool(3);
        let mut tree = BPlusTree::create(&pool).unwrap();
        for i in 0..1500i64 {
            tree.insert(&pool, &Datum::Int(i), rid(i as u32)).unwrap();
        }
        for i in (0..1500i64).step_by(97) {
            assert_eq!(
                tree.lookup(&pool, &Datum::Int(i)).unwrap(),
                vec![rid(i as u32)]
            );
        }
        let stats = pool.metrics().snapshot();
        assert!(stats.fault_ins > 0 && stats.buffer_hits > 0, "{stats:?}");
    }
}
