//! Integrity-constraint enforcement over the engine's catalog.
//!
//! The paper assumes "the use of an existing database system" that already
//! maintains value bounds, keys and referential integrity — the semantic
//! knowledge its optimizer exploits. The storage engine's catalog is the
//! one record of every schema and its typed [`TableConstraint`]s; this
//! module holds the checks that enforce them: the type check, value
//! bounds, keys and foreign keys on insert, and `validate_all` after
//! a bulk load.

use crate::access::{self, AccessPath};
use crate::error::{RqsError, RqsResult};
use crate::value::{Datum, Tuple};
use storage::{ColType, StorageEngine, TableConstraint, TableInfo};

/// Type-checks a tuple against the table's schema.
pub(crate) fn typecheck(table: &TableInfo, tuple: &Tuple) -> RqsResult<()> {
    if tuple.len() != table.columns.len() {
        return Err(RqsError::Type(format!(
            "{} expects {} values, got {}",
            table.name,
            table.columns.len(),
            tuple.len()
        )));
    }
    for ((name, ty), value) in table.columns.iter().zip(tuple) {
        let ok = matches!(
            (ty, value),
            (ColType::Int, Datum::Int(_)) | (ColType::Text, Datum::Text(_))
        );
        if !ok {
            return Err(RqsError::Type(format!(
                "column {}.{name} is {ty}, got {value}",
                table.name
            )));
        }
    }
    Ok(())
}

pub(crate) fn resolve_columns(
    table: &TableInfo,
    names: &[String],
    what: &str,
) -> RqsResult<Vec<usize>> {
    names
        .iter()
        .map(|c| {
            table
                .column_index(c)
                .ok_or_else(|| RqsError::Internal(format!("{what} on missing column {c}")))
        })
        .collect()
}

pub(crate) fn check_value_bound(
    table: &TableInfo,
    tuple: &Tuple,
    column: &str,
    lo: i64,
    hi: i64,
) -> RqsResult<()> {
    let col = table
        .column_index(column)
        .ok_or_else(|| RqsError::Internal(format!("bound on missing column {column}")))?;
    let v = tuple[col]
        .as_int()
        .ok_or_else(|| RqsError::Type(format!("value bound on non-integer column {column}")))?;
    if v < lo || v > hi {
        return Err(RqsError::ConstraintViolation(format!(
            "{}.{column} = {v} outside [{lo}, {hi}]",
            table.name
        )));
    }
    Ok(())
}

/// Whether `table` holds a row with `values` at `cols`: through the
/// index when one covers a single-column probe, visiting every match
/// (in probe mode each one is judged), else with an early-exit scan.
fn row_exists(
    engine: &StorageEngine,
    table: &str,
    cols: &[usize],
    values: &[Datum],
) -> RqsResult<bool> {
    if let ([col], [value]) = (cols, values) {
        if engine.has_index(table, *col) {
            let mut found = false;
            let key = AccessPath::KeyEq(*col, value.clone());
            access::read(engine, table, &key, &mut |_, _| {
                found = true;
                true
            })?;
            return Ok(found);
        }
    }
    Ok(engine.contains(table, cols, values)?)
}

/// Checks every constraint of `table_name` against one candidate tuple,
/// reading existing rows through the engine. Called before every
/// checked insert.
pub(crate) fn check_insert(
    engine: &StorageEngine,
    table_name: &str,
    tuple: &Tuple,
) -> RqsResult<()> {
    let table = engine.table(table_name)?;
    typecheck(table, tuple)?;
    for c in &table.constraints {
        match c {
            TableConstraint::ValueBound { column, lo, hi } => {
                check_value_bound(table, tuple, column, *lo, *hi)?;
            }
            TableConstraint::Key { columns } => {
                let cols = resolve_columns(table, columns, "key")?;
                let values: Vec<Datum> = cols.iter().map(|&c| tuple[c].clone()).collect();
                if row_exists(engine, table_name, &cols, &values)? {
                    return Err(RqsError::ConstraintViolation(format!(
                        "duplicate key {columns:?} in {table_name}"
                    )));
                }
            }
            TableConstraint::ForeignKey {
                columns,
                parent_table,
                parent_columns,
            } => {
                let child_cols = resolve_columns(table, columns, "fk")?;
                let parent = engine.table(parent_table)?;
                let parent_cols = resolve_columns(parent, parent_columns, "fk")?;
                let values: Vec<Datum> = child_cols.iter().map(|&c| tuple[c].clone()).collect();
                if !row_exists(engine, parent_table, &parent_cols, &values)? {
                    return Err(RqsError::ConstraintViolation(format!(
                        "{table_name}{columns:?} -> {parent_table}{parent_columns:?}: \
                         no parent for {:?}",
                        child_cols
                            .iter()
                            .map(|&c| tuple[c].clone())
                            .collect::<Vec<_>>()
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Re-validates every constraint of every table against stored data.
/// Needed after bulk loads through `Database::insert_unchecked`, which
/// exist because cyclic foreign keys (the paper's `empdep` has
/// `empl.dno → dept.dno` *and* `dept.mgr → empl.eno`) make strict
/// insert-time checking impossible.
pub(crate) fn validate_all(engine: &StorageEngine) -> RqsResult<()> {
    for name in engine.table_names() {
        let table = engine.table(name)?;
        if table.constraints.is_empty() {
            continue;
        }
        let rows = engine.scan(name)?;
        for c in &table.constraints {
            match c {
                TableConstraint::ValueBound { column, lo, hi } => {
                    for row in &rows {
                        check_value_bound(table, row, column, *lo, *hi)?;
                    }
                }
                TableConstraint::Key { columns } => {
                    let cols = resolve_columns(table, columns, "key")?;
                    let mut seen = std::collections::HashSet::new();
                    for row in &rows {
                        let key: Vec<&Datum> = cols.iter().map(|&c| &row[c]).collect();
                        if !seen.insert(key) {
                            return Err(RqsError::ConstraintViolation(format!(
                                "duplicate key {columns:?} in {}",
                                table.name
                            )));
                        }
                    }
                }
                TableConstraint::ForeignKey {
                    columns,
                    parent_table,
                    parent_columns,
                } => {
                    let child_cols = resolve_columns(table, columns, "fk")?;
                    let parent = engine.table(parent_table)?;
                    let parent_cols = resolve_columns(parent, parent_columns, "fk")?;
                    let parent_rows = engine.scan(parent_table)?;
                    let parent_keys: std::collections::HashSet<Vec<&Datum>> = parent_rows
                        .iter()
                        .map(|r| parent_cols.iter().map(|&c| &r[c]).collect())
                        .collect();
                    for row in &rows {
                        let key: Vec<&Datum> = child_cols.iter().map(|&c| &row[c]).collect();
                        if !parent_keys.contains(&key) {
                            return Err(RqsError::ConstraintViolation(format!(
                                "{}{columns:?} -> {parent_table}{parent_columns:?}: \
                                 missing parent for {key:?}",
                                table.name
                            )));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(spec: &[(&str, ColType)]) -> Vec<(String, ColType)> {
        spec.iter().map(|(n, t)| (n.to_string(), *t)).collect()
    }

    fn key(columns: &[&str]) -> TableConstraint {
        TableConstraint::Key {
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    fn fk(column: &str, parent_table: &str, parent_column: &str) -> TableConstraint {
        TableConstraint::ForeignKey {
            columns: vec![column.into()],
            parent_table: parent_table.into(),
            parent_columns: vec![parent_column.into()],
        }
    }

    /// Creates `empl` with its key on `eno`, the salary bound, and any
    /// `extra` constraints.
    fn create_empl(engine: &mut StorageEngine, extra: &[TableConstraint]) -> RqsResult<()> {
        let columns = cols(&[
            ("eno", ColType::Int),
            ("nam", ColType::Text),
            ("sal", ColType::Int),
            ("dno", ColType::Int),
        ]);
        let mut constraints = vec![
            key(&["eno"]),
            TableConstraint::ValueBound {
                column: "sal".into(),
                lo: 10_000,
                hi: 90_000,
            },
        ];
        constraints.extend_from_slice(extra);
        Ok(engine.create_table("empl", &columns, &constraints)?)
    }

    fn row(eno: i64, nam: &str, sal: i64, dno: i64) -> Tuple {
        vec![
            Datum::Int(eno),
            Datum::text(nam),
            Datum::Int(sal),
            Datum::Int(dno),
        ]
    }

    /// An engine holding `empl` with its constraints.
    fn setup() -> StorageEngine {
        let mut engine = StorageEngine::in_memory(8).unwrap();
        create_empl(&mut engine, &[]).unwrap();
        engine
    }

    fn insert_checked(engine: &mut StorageEngine, table: &str, tuple: Tuple) -> RqsResult<()> {
        check_insert(engine, table, &tuple)?;
        engine.insert(table, &tuple)?;
        Ok(())
    }

    #[test]
    fn insert_and_scan() {
        let mut engine = setup();
        insert_checked(&mut engine, "empl", row(1, "smiley", 50_000, 10)).unwrap();
        insert_checked(&mut engine, "empl", row(2, "jones", 30_000, 10)).unwrap();
        assert_eq!(engine.row_count("empl").unwrap(), 2);
        assert_eq!(engine.scan("empl").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut engine = setup();
        assert!(matches!(
            create_empl(&mut engine, &[]),
            Err(RqsError::DuplicateTable(_))
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut engine = setup();
        let bad = vec![
            Datum::text("x"),
            Datum::text("y"),
            Datum::Int(20_000),
            Datum::Int(1),
        ];
        assert!(matches!(
            insert_checked(&mut engine, "empl", bad),
            Err(RqsError::Type(_))
        ));
        let short = vec![Datum::Int(1)];
        assert!(matches!(
            insert_checked(&mut engine, "empl", short),
            Err(RqsError::Type(_))
        ));
    }

    #[test]
    fn value_bound_enforced() {
        let mut engine = setup();
        assert!(matches!(
            insert_checked(&mut engine, "empl", row(1, "cheap", 5_000, 10)),
            Err(RqsError::ConstraintViolation(_))
        ));
        assert!(matches!(
            insert_checked(&mut engine, "empl", row(1, "rich", 95_000, 10)),
            Err(RqsError::ConstraintViolation(_))
        ));
    }

    #[test]
    fn key_enforced() {
        let mut engine = setup();
        insert_checked(&mut engine, "empl", row(1, "smiley", 50_000, 10)).unwrap();
        assert!(matches!(
            insert_checked(&mut engine, "empl", row(1, "other", 40_000, 11)),
            Err(RqsError::ConstraintViolation(_))
        ));
    }

    #[test]
    fn key_enforced_through_index_too() {
        let mut engine = setup();
        engine.create_index("empl", 0).unwrap();
        insert_checked(&mut engine, "empl", row(1, "smiley", 50_000, 10)).unwrap();
        assert!(insert_checked(&mut engine, "empl", row(1, "dup", 40_000, 10)).is_err());
        insert_checked(&mut engine, "empl", row(2, "fine", 40_000, 10)).unwrap();
    }

    #[test]
    fn foreign_key_enforced() {
        let mut engine = StorageEngine::in_memory(8).unwrap();
        let dept = cols(&[("dno", ColType::Int), ("fct", ColType::Text)]);
        engine
            .create_table("dept", &dept, &[key(&["dno"])])
            .unwrap();
        create_empl(&mut engine, &[fk("dno", "dept", "dno")]).unwrap();
        assert!(matches!(
            insert_checked(&mut engine, "empl", row(1, "orphan", 20_000, 99)),
            Err(RqsError::ConstraintViolation(_))
        ));
        insert_checked(
            &mut engine,
            "dept",
            vec![Datum::Int(99), Datum::text("spying")],
        )
        .unwrap();
        insert_checked(&mut engine, "empl", row(1, "fine", 20_000, 99)).unwrap();
    }

    #[test]
    fn drop_table() {
        let mut engine = setup();
        engine.drop_table("empl").unwrap();
        assert!(!engine.has_table("empl"));
        assert!(matches!(
            engine.drop_table("empl").map_err(RqsError::from),
            Err(RqsError::UnknownTable(_))
        ));
        assert!(matches!(
            check_insert(&engine, "empl", &row(1, "gone", 20_000, 1)),
            Err(RqsError::UnknownTable(_))
        ));
    }

    mod validate_all_tests {
        use super::*;

        /// empdep's cyclic foreign keys: empl.dno → dept.dno, dept.mgr →
        /// empl.eno.
        fn cyclic_setup() -> StorageEngine {
            let mut engine = StorageEngine::in_memory(8).unwrap();
            let empl = cols(&[("eno", ColType::Int), ("dno", ColType::Int)]);
            let dept = cols(&[("dno", ColType::Int), ("mgr", ColType::Int)]);
            engine
                .create_table("empl", &empl, &[key(&["eno"]), fk("dno", "dept", "dno")])
                .unwrap();
            engine
                .create_table("dept", &dept, &[key(&["dno"]), fk("mgr", "empl", "eno")])
                .unwrap();
            engine
        }

        #[test]
        fn cyclic_fk_bulk_load_validates() {
            let mut engine = cyclic_setup();
            engine
                .insert("empl", &[Datum::Int(1), Datum::Int(10)])
                .unwrap();
            engine
                .insert("dept", &[Datum::Int(10), Datum::Int(1)])
                .unwrap();
            validate_all(&engine).unwrap();
        }

        #[test]
        fn validate_all_catches_broken_fk() {
            let mut engine = cyclic_setup();
            engine
                .insert("empl", &[Datum::Int(1), Datum::Int(99)])
                .unwrap();
            engine
                .insert("dept", &[Datum::Int(10), Datum::Int(1)])
                .unwrap();
            assert!(matches!(
                validate_all(&engine),
                Err(RqsError::ConstraintViolation(_))
            ));
        }

        #[test]
        fn validate_all_catches_duplicate_key() {
            let mut engine = cyclic_setup();
            engine
                .insert("dept", &[Datum::Int(10), Datum::Int(1)])
                .unwrap();
            engine
                .insert("empl", &[Datum::Int(1), Datum::Int(10)])
                .unwrap();
            engine
                .insert("empl", &[Datum::Int(1), Datum::Int(10)])
                .unwrap();
            assert!(validate_all(&engine).is_err());
        }
    }
}
