//! How the relational layer reads rows: the [`AccessPath`] a statement
//! locates its rows by, and [`read`], the one row visitor over the
//! [`StorageEngine`] that walks it. Since every scan and index lookup
//! touches pages, [`crate::QueryMetrics`] can report
//! `page_reads`/`buffer_hits` — the paper's actual cost model.

use crate::error::RqsResult;
use crate::value::{Datum, Tuple};
use std::ops::Bound;
use storage::engine::IndexProbe;
use storage::heap::Rid;
use storage::StorageEngine;

/// How a statement locates the rows it reads — the planner's
/// access-path choice (see `exec::choose_access`) and what [`read`]
/// walks, for SELECT scans, probe joins, constraint probes and
/// predicated UPDATE/DELETE alike. It over-approximates: the caller
/// filters what the read yields.
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

/// The one row read: visits each row `access` locates in `table`, as
/// the current read view sees it, with its [`Rid`], until `f` returns
/// `false`. A full scan streams off the heap in storage order; an index
/// path reads its postings through [`StorageEngine::index_read`] first,
/// in key order, and is an error on an unindexed column (callers go
/// through `choose_access`, which asks [`StorageEngine::has_index`]).
pub fn read(
    engine: &StorageEngine,
    table: &str,
    access: &AccessPath,
    f: &mut dyn FnMut(Rid, &Tuple) -> bool,
) -> RqsResult<()> {
    let (col, probe) = match access {
        AccessPath::FullScan => return Ok(engine.visit(table, &mut |rid, row| f(rid, &row))?),
        AccessPath::Nothing => {
            engine.table(table)?;
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
    for (rid, row) in engine.index_read(table, col, probe)? {
        if !f(rid, &row) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColType, StorageError};

    fn create(engine: &mut StorageEngine, name: &str) -> Result<(), StorageError> {
        let columns = [
            ("a".to_owned(), ColType::Int),
            ("b".to_owned(), ColType::Text),
        ];
        engine.create_table(name, &columns, &[])
    }

    /// `(rid, tuple)` of the rows `access` locates in `name` that pass
    /// `pred`.
    fn matching(
        engine: &StorageEngine,
        name: &str,
        access: &AccessPath,
        pred: impl Fn(&Tuple) -> bool,
    ) -> RqsResult<Vec<(Rid, Tuple)>> {
        let mut out = Vec::new();
        read(engine, name, access, &mut |rid, row| {
            if pred(row) {
                out.push((rid, row.clone()));
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
        engine: &StorageEngine,
        name: &str,
        index_path: AccessPath,
        on_a: impl Fn(&Datum) -> bool,
        pred: impl Fn(&Tuple) -> bool,
    ) -> Vec<(Rid, Tuple)> {
        let indexed = engine.has_index(name, 0);
        let access = if indexed {
            index_path
        } else {
            AccessPath::FullScan
        };
        matching(engine, name, &access, |t| {
            (indexed || on_a(&t[0])) && pred(t)
        })
        .unwrap()
    }

    /// [`located`] for `a = k`.
    fn keyed(
        engine: &StorageEngine,
        name: &str,
        k: i64,
        pred: impl Fn(&Tuple) -> bool,
    ) -> Vec<(Rid, Tuple)> {
        located(engine, name, key(k), |a| *a == Datum::Int(k), pred)
    }

    fn exercise(engine: &mut StorageEngine) {
        create(engine, "t").unwrap();
        assert!(matches!(
            create(engine, "t"),
            Err(StorageError::DuplicateTable(_))
        ));
        for i in 0..200i64 {
            engine
                .insert("t", &[Datum::Int(i % 20), Datum::text(&format!("v{i}"))])
                .unwrap();
        }
        assert_eq!(engine.row_count("t").unwrap(), 200);
        let pages = engine.heap_pages("t").unwrap();
        assert!(pages > 1, "200 rows span several pages: {pages}");
        assert_eq!(engine.scan("t").unwrap().len(), 200);
        assert!(matching(engine, "t", &key(3), |_| true).is_err());
        engine.create_index("t", 0).unwrap();
        assert!(engine.has_index("t", 0));
        assert!(!engine.has_index("t", 1));
        assert!(engine.create_index("nosuch", 0).is_err());
        let hits = keyed(engine, "t", 3, |_| true);
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
            let rows = matching(engine, "t", &range, |_| true).unwrap();
            assert!(rows.is_empty(), "{rows:?}");
        }
        // The visitor stops when told to.
        let mut visited = 0;
        read(engine, "t", &AccessPath::FullScan, &mut |_, _| {
            visited += 1;
            visited < 5
        })
        .unwrap();
        assert_eq!(visited, 5);
        engine.truncate("t").unwrap();
        assert_eq!(engine.row_count("t").unwrap(), 0);
        assert_eq!(engine.scan("t").unwrap().len(), 0);
        assert!(keyed(engine, "t", 3, |_| true).is_empty());
        engine.drop_table("t").unwrap();
        assert!(engine.scan("t").is_err());
    }

    /// The DML contract: the read narrows to the rows asked for, the rids
    /// it yields address the rows mutated, and the indexes stay exact.
    fn exercise_dml(engine: &mut StorageEngine) {
        create(engine, "d").unwrap();
        for i in 0..100i64 {
            engine
                .insert("d", &[Datum::Int(i % 10), Datum::text(&format!("v{i}"))])
                .unwrap();
        }
        engine.create_index("d", 0).unwrap();
        let rids = |rows: Vec<(Rid, Tuple)>| -> Vec<Rid> {
            rows.into_iter().map(|(rid, _)| rid).collect()
        };
        // Point-located delete.
        let doomed = rids(keyed(engine, "d", 3, |_| true));
        assert_eq!(engine.delete_rows("d", &doomed).unwrap(), 10);
        // A predicate narrows below the access path.
        let doomed = rids(keyed(engine, "d", 4, |t| t[1] == Datum::text("v14")));
        assert_eq!(engine.delete_rows("d", &doomed).unwrap(), 1);
        // Range-located update rewrites the located column itself.
        let eight_up = AccessPath::KeyRange(0, Bound::Included(Datum::Int(8)), Bound::Unbounded);
        let updates: Vec<(Rid, Tuple)> =
            located(engine, "d", eight_up, |a| *a >= Datum::Int(8), |_| true)
                .into_iter()
                .map(|(rid, t)| (rid, vec![Datum::Int(88), t[1].clone()]))
                .collect();
        assert_eq!(engine.update_rows("d", &updates).unwrap(), 20);
        assert_eq!(engine.row_count("d").unwrap(), 89);
        // Reads agree with the churn.
        let count = |engine: &StorageEngine, k: i64| keyed(engine, "d", k, |_| true).len();
        assert_eq!(count(engine, 3), 0);
        assert_eq!(count(engine, 4), 9);
        assert_eq!(count(engine, 88), 20);
        assert_eq!(count(engine, 8), 0);
        // The Nothing path reads nothing; unknown tables error.
        assert!(matching(engine, "d", &AccessPath::Nothing, |_| true)
            .unwrap()
            .is_empty());
        assert!(matching(engine, "nosuch", &AccessPath::FullScan, |_| true).is_err());
        assert!(matching(engine, "nosuch", &AccessPath::Nothing, |_| true).is_err());
        assert_eq!(engine.delete_rows("d", &[]).unwrap(), 0);
        assert!(engine.delete_rows("nosuch", &[]).is_err());
        // Full-scan update of a column no index covers.
        let updates: Vec<(Rid, Tuple)> = matching(engine, "d", &AccessPath::FullScan, |t| {
            t[0] == Datum::Int(5)
        })
        .unwrap()
        .into_iter()
        .map(|(rid, t)| (rid, vec![t[0].clone(), Datum::text("five")]))
        .collect();
        assert_eq!(engine.update_rows("d", &updates).unwrap(), 10);
        let fives = keyed(engine, "d", 5, |_| true);
        assert_eq!(fives.len(), 10);
        assert!(fives.iter().all(|(_, t)| t[1] == Datum::text("five")));
        engine.drop_table("d").unwrap();
    }

    #[test]
    fn read_contract() {
        let mut engine = StorageEngine::in_memory(8).unwrap();
        exercise(&mut engine);
        exercise_dml(&mut engine);
        let stats = engine.metrics();
        assert!(
            stats.fault_ins > 0,
            "the engine must fault pages: {stats:?}"
        );
    }
}
