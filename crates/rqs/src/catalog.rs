//! Catalog: table schemas and integrity-constraint enforcement.
//!
//! The paper assumes "the use of an existing database system" that already
//! maintains value bounds, keys and referential integrity — the semantic
//! knowledge its optimizer exploits. This module holds that system's
//! *logical* layer: schemas and constraints. Physical row storage lives
//! in [`crate::backend::PagedBackend`]; the constraint checkers here read
//! through it.

use crate::backend::{AccessPath, PagedBackend};
use crate::error::{RqsError, RqsResult};
use crate::value::{Datum, Tuple};
use std::collections::BTreeMap;
use std::fmt;

/// Column type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnType {
    Int,
    Text,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => f.write_str("INT"),
            ColumnType::Text => f.write_str("TEXT"),
        }
    }
}

/// A column: name and type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

/// Table-level integrity constraints, enforced on insert.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TableConstraint {
    /// Values of the column must lie within `[lo, hi]`.
    ValueBound { column: String, lo: i64, hi: i64 },
    /// The column set is a key (no two rows agree on all of them).
    Key { columns: Vec<String> },
    /// Values of `columns` must appear as `parent_columns` values in
    /// `parent_table` (referential integrity).
    ForeignKey {
        columns: Vec<String>,
        parent_table: String,
        parent_columns: Vec<String>,
    },
}

impl TableConstraint {
    /// Serializes the constraint to the compact text spec persisted in
    /// the paged engine's `system_constraints` catalog. Column names
    /// are SQL identifiers (no spaces or commas), so space- and
    /// comma-separated fields are unambiguous.
    pub fn to_spec(&self) -> String {
        match self {
            TableConstraint::ValueBound { column, lo, hi } => format!("bound {column} {lo} {hi}"),
            TableConstraint::Key { columns } => format!("key {}", columns.join(",")),
            TableConstraint::ForeignKey {
                columns,
                parent_table,
                parent_columns,
            } => format!(
                "fk {} {parent_table} {}",
                columns.join(","),
                parent_columns.join(",")
            ),
        }
    }

    /// Parses a spec produced by [`TableConstraint::to_spec`].
    pub fn parse_spec(spec: &str) -> RqsResult<TableConstraint> {
        let corrupt = || RqsError::Internal(format!("malformed constraint spec: {spec:?}"));
        let fields: Vec<&str> = spec.split(' ').collect();
        let split_cols = |s: &str| -> Vec<String> { s.split(',').map(str::to_owned).collect() };
        match fields.as_slice() {
            ["bound", column, lo, hi] => Ok(TableConstraint::ValueBound {
                column: (*column).to_owned(),
                lo: lo.parse().map_err(|_| corrupt())?,
                hi: hi.parse().map_err(|_| corrupt())?,
            }),
            ["key", columns] => Ok(TableConstraint::Key {
                columns: split_cols(columns),
            }),
            ["fk", columns, parent, parent_columns] => Ok(TableConstraint::ForeignKey {
                columns: split_cols(columns),
                parent_table: (*parent).to_owned(),
                parent_columns: split_cols(parent_columns),
            }),
            _ => Err(corrupt()),
        }
    }
}

/// A table schema: name, typed columns, constraints. Rows live in the
/// storage backend.
#[derive(Clone, Debug)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub constraints: Vec<TableConstraint>,
}

impl Table {
    pub fn new(name: &str, columns: Vec<Column>) -> Table {
        Table {
            name: name.to_owned(),
            columns,
            constraints: Vec::new(),
        }
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Type-checks a tuple against the schema.
    pub fn typecheck(&self, tuple: &Tuple) -> RqsResult<()> {
        if tuple.len() != self.columns.len() {
            return Err(RqsError::Type(format!(
                "{} expects {} values, got {}",
                self.name,
                self.columns.len(),
                tuple.len()
            )));
        }
        for (col, value) in self.columns.iter().zip(tuple) {
            let ok = matches!(
                (col.ty, value),
                (ColumnType::Int, Datum::Int(_)) | (ColumnType::Text, Datum::Text(_))
            );
            if !ok {
                return Err(RqsError::Type(format!(
                    "column {}.{} is {}, got {value}",
                    self.name, col.name, col.ty
                )));
            }
        }
        Ok(())
    }
}

/// The catalog of all table schemas.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create_table(&mut self, table: Table) -> RqsResult<()> {
        if self.tables.contains_key(&table.name) {
            return Err(RqsError::DuplicateTable(table.name));
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> RqsResult<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    pub fn table(&self, name: &str) -> RqsResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    pub fn table_mut(&mut self, name: &str) -> RqsResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| RqsError::UnknownTable(name.to_owned()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }
}

pub(crate) fn resolve_columns(
    table: &Table,
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
    table: &Table,
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
    backend: &PagedBackend,
    table: &str,
    cols: &[usize],
    values: &[Datum],
) -> RqsResult<bool> {
    if let ([col], [value]) = (cols, values) {
        if backend.has_index(table, *col) {
            let mut found = false;
            let key = AccessPath::KeyEq(*col, value.clone());
            backend.read(table, &key, &mut |_, _| {
                found = true;
                true
            })?;
            return Ok(found);
        }
    }
    backend.contains(table, cols, values)
}

/// Checks every constraint of `table_name` against one candidate tuple,
/// reading existing rows through the backend. Called before every
/// checked insert.
pub(crate) fn check_insert(
    catalog: &Catalog,
    backend: &PagedBackend,
    table_name: &str,
    tuple: &Tuple,
) -> RqsResult<()> {
    let table = catalog.table(table_name)?;
    table.typecheck(tuple)?;
    for c in &table.constraints {
        match c {
            TableConstraint::ValueBound { column, lo, hi } => {
                check_value_bound(table, tuple, column, *lo, *hi)?;
            }
            TableConstraint::Key { columns } => {
                let cols = resolve_columns(table, columns, "key")?;
                let values: Vec<Datum> = cols.iter().map(|&c| tuple[c].clone()).collect();
                if row_exists(backend, table_name, &cols, &values)? {
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
                let parent = catalog.table(parent_table)?;
                let parent_cols = resolve_columns(parent, parent_columns, "fk")?;
                let values: Vec<Datum> = child_cols.iter().map(|&c| tuple[c].clone()).collect();
                if !row_exists(backend, parent_table, &parent_cols, &values)? {
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
pub(crate) fn validate_all(catalog: &Catalog, backend: &PagedBackend) -> RqsResult<()> {
    for table in catalog.tables.values() {
        if table.constraints.is_empty() {
            continue;
        }
        let rows = backend.scan(&table.name)?;
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
                    let parent = catalog.table(parent_table)?;
                    let parent_cols = resolve_columns(parent, parent_columns, "fk")?;
                    let parent_rows = backend.scan(parent_table)?;
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

    fn empl_table() -> Table {
        let mut t = Table::new(
            "empl",
            vec![
                Column {
                    name: "eno".into(),
                    ty: ColumnType::Int,
                },
                Column {
                    name: "nam".into(),
                    ty: ColumnType::Text,
                },
                Column {
                    name: "sal".into(),
                    ty: ColumnType::Int,
                },
                Column {
                    name: "dno".into(),
                    ty: ColumnType::Int,
                },
            ],
        );
        t.constraints.push(TableConstraint::Key {
            columns: vec!["eno".into()],
        });
        t.constraints.push(TableConstraint::ValueBound {
            column: "sal".into(),
            lo: 10_000,
            hi: 90_000,
        });
        t
    }

    fn row(eno: i64, nam: &str, sal: i64, dno: i64) -> Tuple {
        vec![
            Datum::Int(eno),
            Datum::text(nam),
            Datum::Int(sal),
            Datum::Int(dno),
        ]
    }

    /// Catalog + backend pair with `empl` registered in both.
    fn setup() -> (Catalog, PagedBackend) {
        let mut cat = Catalog::new();
        let table = empl_table();
        let mut backend = PagedBackend::in_memory(8).unwrap();
        backend.create_table("empl", &table.columns).unwrap();
        cat.create_table(table).unwrap();
        (cat, backend)
    }

    fn insert_checked(
        cat: &Catalog,
        backend: &mut PagedBackend,
        table: &str,
        tuple: Tuple,
    ) -> RqsResult<()> {
        check_insert(cat, backend, table, &tuple)?;
        backend.insert(table, tuple)
    }

    #[test]
    fn insert_and_scan() {
        let (cat, mut backend) = setup();
        insert_checked(&cat, &mut backend, "empl", row(1, "smiley", 50_000, 10)).unwrap();
        insert_checked(&cat, &mut backend, "empl", row(2, "jones", 30_000, 10)).unwrap();
        assert_eq!(backend.table_size("empl").unwrap().rows, 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.create_table(empl_table()).unwrap();
        assert!(matches!(
            cat.create_table(empl_table()),
            Err(RqsError::DuplicateTable(_))
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let (cat, mut backend) = setup();
        let bad = vec![
            Datum::text("x"),
            Datum::text("y"),
            Datum::Int(20_000),
            Datum::Int(1),
        ];
        assert!(matches!(
            insert_checked(&cat, &mut backend, "empl", bad),
            Err(RqsError::Type(_))
        ));
        let short = vec![Datum::Int(1)];
        assert!(matches!(
            insert_checked(&cat, &mut backend, "empl", short),
            Err(RqsError::Type(_))
        ));
    }

    #[test]
    fn value_bound_enforced() {
        let (cat, mut backend) = setup();
        assert!(matches!(
            insert_checked(&cat, &mut backend, "empl", row(1, "cheap", 5_000, 10)),
            Err(RqsError::ConstraintViolation(_))
        ));
        assert!(matches!(
            insert_checked(&cat, &mut backend, "empl", row(1, "rich", 95_000, 10)),
            Err(RqsError::ConstraintViolation(_))
        ));
    }

    #[test]
    fn key_enforced() {
        let (cat, mut backend) = setup();
        insert_checked(&cat, &mut backend, "empl", row(1, "smiley", 50_000, 10)).unwrap();
        assert!(matches!(
            insert_checked(&cat, &mut backend, "empl", row(1, "other", 40_000, 11)),
            Err(RqsError::ConstraintViolation(_))
        ));
    }

    #[test]
    fn key_enforced_through_index_too() {
        let (cat, mut backend) = setup();
        backend.create_index("empl", 0).unwrap();
        insert_checked(&cat, &mut backend, "empl", row(1, "smiley", 50_000, 10)).unwrap();
        assert!(insert_checked(&cat, &mut backend, "empl", row(1, "dup", 40_000, 10)).is_err());
        insert_checked(&cat, &mut backend, "empl", row(2, "fine", 40_000, 10)).unwrap();
    }

    #[test]
    fn foreign_key_enforced() {
        let (mut cat, mut backend) = setup();
        let mut dept = Table::new(
            "dept",
            vec![
                Column {
                    name: "dno".into(),
                    ty: ColumnType::Int,
                },
                Column {
                    name: "fct".into(),
                    ty: ColumnType::Text,
                },
            ],
        );
        dept.constraints.push(TableConstraint::Key {
            columns: vec!["dno".into()],
        });
        backend.create_table("dept", &dept.columns).unwrap();
        cat.create_table(dept).unwrap();
        cat.table_mut("empl")
            .unwrap()
            .constraints
            .push(TableConstraint::ForeignKey {
                columns: vec!["dno".into()],
                parent_table: "dept".into(),
                parent_columns: vec!["dno".into()],
            });
        assert!(matches!(
            insert_checked(&cat, &mut backend, "empl", row(1, "orphan", 20_000, 99)),
            Err(RqsError::ConstraintViolation(_))
        ));
        insert_checked(
            &cat,
            &mut backend,
            "dept",
            vec![Datum::Int(99), Datum::text("spying")],
        )
        .unwrap();
        insert_checked(&cat, &mut backend, "empl", row(1, "fine", 20_000, 99)).unwrap();
    }

    #[test]
    fn constraint_specs_round_trip() {
        let constraints = [
            TableConstraint::ValueBound {
                column: "sal".into(),
                lo: -10,
                hi: 90_000,
            },
            TableConstraint::Key {
                columns: vec!["eno".into()],
            },
            TableConstraint::Key {
                columns: vec!["a".into(), "b".into()],
            },
            TableConstraint::ForeignKey {
                columns: vec!["dno".into()],
                parent_table: "dept".into(),
                parent_columns: vec!["dno".into()],
            },
            TableConstraint::ForeignKey {
                columns: vec!["x".into(), "y".into()],
                parent_table: "p".into(),
                parent_columns: vec!["u".into(), "v".into()],
            },
        ];
        for c in &constraints {
            assert_eq!(&TableConstraint::parse_spec(&c.to_spec()).unwrap(), c);
        }
        for bad in ["", "nope", "bound a b c", "key", "fk a b"] {
            assert!(
                TableConstraint::parse_spec(bad).is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn drop_table() {
        let mut cat = Catalog::new();
        cat.create_table(empl_table()).unwrap();
        cat.drop_table("empl").unwrap();
        assert!(!cat.has_table("empl"));
        assert!(cat.drop_table("empl").is_err());
    }

    mod validate_all_tests {
        use super::*;

        /// empdep's cyclic foreign keys: empl.dno → dept.dno, dept.mgr →
        /// empl.eno.
        fn cyclic_setup() -> (Catalog, PagedBackend) {
            let mut cat = Catalog::new();
            let mut backend = PagedBackend::in_memory(8).unwrap();
            let mut empl = Table::new(
                "empl",
                vec![
                    Column {
                        name: "eno".into(),
                        ty: ColumnType::Int,
                    },
                    Column {
                        name: "dno".into(),
                        ty: ColumnType::Int,
                    },
                ],
            );
            empl.constraints.push(TableConstraint::Key {
                columns: vec!["eno".into()],
            });
            empl.constraints.push(TableConstraint::ForeignKey {
                columns: vec!["dno".into()],
                parent_table: "dept".into(),
                parent_columns: vec!["dno".into()],
            });
            let mut dept = Table::new(
                "dept",
                vec![
                    Column {
                        name: "dno".into(),
                        ty: ColumnType::Int,
                    },
                    Column {
                        name: "mgr".into(),
                        ty: ColumnType::Int,
                    },
                ],
            );
            dept.constraints.push(TableConstraint::Key {
                columns: vec!["dno".into()],
            });
            dept.constraints.push(TableConstraint::ForeignKey {
                columns: vec!["mgr".into()],
                parent_table: "empl".into(),
                parent_columns: vec!["eno".into()],
            });
            backend.create_table("empl", &empl.columns).unwrap();
            backend.create_table("dept", &dept.columns).unwrap();
            cat.create_table(empl).unwrap();
            cat.create_table(dept).unwrap();
            (cat, backend)
        }

        #[test]
        fn cyclic_fk_bulk_load_validates() {
            let (cat, mut backend) = cyclic_setup();
            backend
                .insert("empl", vec![Datum::Int(1), Datum::Int(10)])
                .unwrap();
            backend
                .insert("dept", vec![Datum::Int(10), Datum::Int(1)])
                .unwrap();
            validate_all(&cat, &backend).unwrap();
        }

        #[test]
        fn validate_all_catches_broken_fk() {
            let (cat, mut backend) = cyclic_setup();
            backend
                .insert("empl", vec![Datum::Int(1), Datum::Int(99)])
                .unwrap();
            backend
                .insert("dept", vec![Datum::Int(10), Datum::Int(1)])
                .unwrap();
            assert!(matches!(
                validate_all(&cat, &backend),
                Err(RqsError::ConstraintViolation(_))
            ));
        }

        #[test]
        fn validate_all_catches_duplicate_key() {
            let (cat, mut backend) = cyclic_setup();
            backend
                .insert("dept", vec![Datum::Int(10), Datum::Int(1)])
                .unwrap();
            backend
                .insert("empl", vec![Datum::Int(1), Datum::Int(10)])
                .unwrap();
            backend
                .insert("empl", vec![Datum::Int(1), Datum::Int(10)])
                .unwrap();
            assert!(validate_all(&cat, &backend).is_err());
        }
    }
}
