//! The SQL bridge between the shared database description and the RQS.
//!
//! The two subsystems stay independent: everything crossing the boundary
//! is SQL text or result tuples, exactly as in the paper.

use crate::{Answer, CouplingError, Result};
use dbcl::{AttrType, ConstraintSet, DatabaseDef, DbclQuery, Entry, Value};
use prolog::Term;
use rqs::{Datum, QueryResult};

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
        assert!(db.catalog().has_table("empl"));
        assert!(db.catalog().has_table("dept"));
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
