//! The SQL bridge between the shared database description and the RQS.
//!
//! The two subsystems stay independent: everything crossing the boundary
//! is SQL text or result tuples, exactly as in the paper.

use crate::{Answer, CouplingError, Result};
use dbcl::{AttrType, Constraint, ConstraintSet, DatabaseDef, DbclQuery, Entry, Value};
use prolog::{Atom, Term};
use rqs::{Datum, QueryResult, StorageEngine, TableConstraint};

/// Generates the DDL that stands up the external database: one
/// `CREATE TABLE` per relation with keys, bounds and foreign keys derived
/// from the §3 integrity constraints, plus an index per single-column key
/// and per single-column foreign key — the keys the optimizer trusts are
/// the keys the store can probe in O(height), and the restrictions and
/// joins the paper's goals carry (`nam = 'e'`, `dno`, `mgr = eno`) ride
/// them.
pub fn ddl_statements(db: &DatabaseDef, constraints: &ConstraintSet) -> Vec<String> {
    let mut out = Vec::new();
    let mut indexes: Vec<String> = Vec::new();
    let mut index = |rel: &str, attr: &str| {
        let stmt = format!("CREATE INDEX ON {rel} ({attr})");
        if !indexes.contains(&stmt) {
            indexes.push(stmt);
        }
    };
    for rel in &db.relations {
        let mut parts: Vec<String> = rel
            .attrs
            .iter()
            .map(|&attr| {
                let ty = match db.attr_type(attr).unwrap_or(AttrType::Text) {
                    AttrType::Int => "INT",
                    AttrType::Text => "TEXT",
                };
                format!("{attr} {ty}")
            })
            .collect();
        // Keys: FDs whose left-hand side determines the whole relation.
        for fd in constraints.fds_of(rel.name) {
            if constraints.is_key(db, rel.name, &fd.lhs) && fd.lhs.len() <= rel.arity() {
                let cols: Vec<&str> = fd.lhs.iter().map(|a| a.as_str()).collect();
                let clause = format!("PRIMARY KEY ({})", cols.join(", "));
                if !parts.contains(&clause) {
                    parts.push(clause);
                }
                if let [attr] = cols.as_slice() {
                    index(rel.name.as_str(), attr);
                }
            }
        }
        for b in constraints.bounds.iter().filter(|b| b.rel == rel.name) {
            parts.push(format!("CHECK ({} BETWEEN {} AND {})", b.attr, b.lo, b.hi));
        }
        for r in constraints.refints_from(rel.name) {
            let from: Vec<&str> = r.from_attrs.iter().map(|a| a.as_str()).collect();
            let to: Vec<&str> = r.to_attrs.iter().map(|a| a.as_str()).collect();
            parts.push(format!(
                "FOREIGN KEY ({}) REFERENCES {} ({})",
                from.join(", "),
                r.to_rel,
                to.join(", ")
            ));
        }
        out.push(format!("CREATE TABLE {} ({})", rel.name, parts.join(", ")));
    }
    for r in &constraints.refints {
        if let [attr] = r.from_attrs.as_slice() {
            index(r.from_rel.as_str(), attr.as_str());
        }
    }
    out.extend(indexes);
    out
}

/// Refuses a constraint set the store does not enforce. The §6
/// optimizer is sound only for constraints the data must satisfy, so
/// each one has to be implied by the typed constraints the engine's
/// catalog holds once [`ddl_statements`] ran:
/// - a value bound by a stored bound on the same column that is no
///   wider;
/// - an FD by a stored key contained in its left-hand side;
/// - a refint by a stored foreign key on the same columns.
///
/// The error names the first constraint that is not.
pub fn check_enforced(engine: &StorageEngine, constraints: &ConstraintSet) -> Result<()> {
    let stored = |rel: Atom| -> Result<&[TableConstraint]> {
        let table = engine.table(rel.as_str()).map_err(rqs::RqsError::from)?;
        Ok(&table.constraints)
    };
    let names = |attrs: &[Atom]| -> Vec<String> { attrs.iter().map(|a| a.to_string()).collect() };
    let refuse = |c: Constraint| -> Result<()> {
        Err(CouplingError(format!(
            "the store does not enforce {c}, so the optimizer may not assume it"
        )))
    };
    for b in &constraints.bounds {
        let implied = stored(b.rel)?.iter().any(|s| {
            matches!(s, TableConstraint::ValueBound { column, lo, hi }
                if column == b.attr.as_str() && *lo >= b.lo && *hi <= b.hi)
        });
        if !implied {
            return refuse(Constraint::ValueBound(b.clone()));
        }
    }
    for fd in &constraints.fds {
        let implied = stored(fd.rel)?.iter().any(|s| {
            matches!(s, TableConstraint::Key { columns }
                if columns.iter().all(|c| fd.lhs.iter().any(|a| a.as_str() == c)))
        });
        if !implied {
            return refuse(Constraint::FuncDep(fd.clone()));
        }
    }
    for r in &constraints.refints {
        let implied = stored(r.from_rel)?.iter().any(|s| {
            matches!(s, TableConstraint::ForeignKey { columns, parent_table, parent_columns }
                if *columns == names(&r.from_attrs)
                    && parent_table == r.to_rel.as_str()
                    && *parent_columns == names(&r.to_attrs))
        });
        if !implied {
            return refuse(Constraint::RefInt(r.clone()));
        }
    }
    Ok(())
}

/// DBCL constant → RQS cell value.
pub fn value_to_datum(value: &Value) -> Datum {
    match value {
        Value::Int(i) => Datum::Int(*i),
        Value::Sym(a) => Datum::text(a.as_str()),
    }
}

/// RQS cell value → Prolog term (for the internal database).
pub fn datum_to_term(datum: &Datum) -> Term {
    match datum {
        Datum::Int(i) => Term::Int(*i),
        Datum::Text(s) => Term::atom(s),
    }
}

/// Pairs a query's target symbols (in column order — the order the SQL
/// generator emits SELECT items) with the result columns, producing named
/// answers.
pub fn answers_from_result(query: &DbclQuery, result: &QueryResult) -> Result<Vec<Answer>> {
    let target_names: Vec<String> = query
        .target
        .iter()
        .filter_map(|e| match e {
            Entry::Sym(s) => Some(s.name().to_string()),
            _ => None,
        })
        .collect();
    if target_names.len() != result.columns.len() {
        return Err(CouplingError(format!(
            "result has {} columns for {} targets",
            result.columns.len(),
            target_names.len()
        )));
    }
    Ok(result
        .rows
        .iter()
        .map(|row| {
            target_names
                .iter()
                .cloned()
                .zip(row.iter().cloned())
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::{ConstraintSet, DatabaseDef};

    /// Each kind of constraint is checked against what the store holds:
    /// a bound only by one no wider, an FD only by a key inside its
    /// left-hand side, a refint only by a foreign key on its columns.
    #[test]
    fn only_constraints_the_store_holds_are_enforced() {
        let mut rqs = rqs::Database::new();
        rqs.execute("CREATE TABLE d (k INT, PRIMARY KEY (k))")
            .unwrap();
        rqs.execute(
            "CREATE TABLE e (k INT, s INT, j INT, PRIMARY KEY (k), \
             CHECK (s BETWEEN 0 AND 100), FOREIGN KEY (j) REFERENCES d (k))",
        )
        .unwrap();
        let check = |source: &str| {
            let set = ConstraintSet::parse(source).unwrap();
            check_enforced(rqs.engine(), &set).map_err(|e| e.0)
        };
        for implied in [
            "valuebound(e, s, 0, 100).",
            "valuebound(e, s, -5, 200).",
            "funcdep(e, [k], [s, j]).",
            "funcdep(e, [j, k], [s]).",
            "refint(e, [j], d, [k]).",
        ] {
            assert_eq!(check(implied), Ok(()), "{implied}");
        }
        for refused in [
            "valuebound(e, s, 10, 50).",
            "valuebound(e, j, 0, 100).",
            "funcdep(e, [j], [s]).",
            "refint(e, [s], d, [k]).",
            "refint(d, [k], e, [k]).",
        ] {
            let err = check(refused).unwrap_err();
            assert!(err.contains(refused.trim_end_matches('.')), "{err}");
        }
    }

    #[test]
    fn empdep_ddl_shape() {
        let ddl = ddl_statements(&DatabaseDef::empdep(), &ConstraintSet::empdep());
        let all = ddl.join("\n");
        assert!(all.contains("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT"));
        assert!(all.contains("CHECK (sal BETWEEN 10000 AND 90000)"));
        assert!(all.contains("FOREIGN KEY (dno) REFERENCES dept (dno)"));
        assert!(all.contains("FOREIGN KEY (mgr) REFERENCES empl (eno)"));
        assert!(all.contains("PRIMARY KEY (eno)"));
        assert!(all.contains("PRIMARY KEY (nam)")); // nam is a key via FDs
        assert!(all.contains("CREATE INDEX ON empl (dno)"));
        assert!(all.contains("CREATE INDEX ON dept (mgr)"));
        // Every single-column key is indexed too; `dept.mgr` is both a
        // key and a foreign key and gets one index.
        for key in ["empl (eno)", "empl (nam)", "dept (dno)"] {
            assert!(all.contains(&format!("CREATE INDEX ON {key}")), "{key}");
        }
        let indexes = ddl.iter().filter(|s| s.starts_with("CREATE INDEX"));
        assert_eq!(indexes.count(), 5, "{all}");
    }

    #[test]
    fn empdep_ddl_executes() {
        let mut db = rqs::Database::new();
        for stmt in ddl_statements(&DatabaseDef::empdep(), &ConstraintSet::empdep()) {
            db.execute(&stmt).unwrap();
        }
        assert!(db.engine().has_table("empl"));
        assert!(db.engine().has_table("dept"));
    }

    #[test]
    fn datum_value_round_trip() {
        assert_eq!(value_to_datum(&Value::Int(5)), Datum::Int(5));
        assert_eq!(value_to_datum(&Value::sym("jones")), Datum::text("jones"));
        assert_eq!(datum_to_term(&Datum::Int(5)), Term::Int(5));
        assert_eq!(datum_to_term(&Datum::text("jones")), Term::atom("jones"));
    }

    #[test]
    fn answers_pair_targets_with_columns() {
        let q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [v, t_E, t_X, *, *, *, *],
                  [[empl, t_E, t_X, v_S, v_D, *, *]], [])",
        )
        .unwrap();
        let result = QueryResult {
            columns: vec!["v1.eno".into(), "v1.nam".into()],
            rows: vec![vec![Datum::Int(3), Datum::text("jones")]],
            affected: 0,
            metrics: Default::default(),
        };
        let answers = answers_from_result(&q, &result).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0]["E"], Datum::Int(3));
        assert_eq!(answers[0]["X"], Datum::text("jones"));
    }

    #[test]
    fn column_count_mismatch_rejected() {
        let q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [v, *, t_X, *, *, *, *],
                  [[empl, v_E, t_X, v_S, v_D, *, *]], [])",
        )
        .unwrap();
        let result = QueryResult::default();
        assert!(answers_from_result(&q, &result).is_err());
    }
}
