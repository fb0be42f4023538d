//! The six DBCL→SQL mapping rules of §5.

use crate::ast::{SqlColumn, SqlCond, SqlOp, SqlQuery, SqlTerm};
use crate::{Result, SqlGenError};
use dbcl::{DatabaseDef, DbclQuery, Entry, Operand, Symbol};

/// Options controlling variable naming.
#[derive(Clone, Copy, Debug)]
pub struct MappingOptions {
    /// Index of the first range variable (`v<first>`); the paper's Appendix
    /// transcript happens to start at `v12` because its prototype used a
    /// global counter.
    pub first_var_index: usize,
    /// Emit `SELECT DISTINCT`. Set it where this one statement is the
    /// only place its answers are put together (a `NOT IN` query, a
    /// recursion step); leave it off where the caller unions the rows
    /// itself, as the coupler does across a view's branches, and for
    /// the paper's own SQL text.
    pub distinct: bool,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            first_var_index: 1,
            distinct: false,
        }
    }
}

/// Translates a conjunctive DBCL query into one SQL query.
pub fn translate(query: &DbclQuery, db: &DatabaseDef, opts: MappingOptions) -> Result<SqlQuery> {
    query.validate(db)?;
    if query.rows.is_empty() {
        return Err(SqlGenError(
            "cannot translate a query with no relation references".into(),
        ));
    }
    let var_name = |row: usize| format!("v{}", opts.first_var_index + row);
    // Column reference for a symbol: first row occurrence (rule 2/5).
    let col_ref = |sym: Symbol| -> Result<SqlColumn> {
        let (row, col) = query
            .first_row_occurrence(sym)
            .ok_or_else(|| SqlGenError(format!("symbol {sym} not anchored in any row")))?;
        Ok(SqlColumn {
            var: var_name(row),
            attr: query.attributes[col].to_string(),
        })
    };

    // Rule 1: FROM variables.
    let from: Vec<(String, String)> = query
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| (row.relation.to_string(), var_name(i)))
        .collect();

    // Rule 2: SELECT items from target-list symbols (rule 6 drops the rest).
    let mut select = Vec::new();
    for entry in &query.target {
        match entry {
            Entry::Sym(s) => select.push(col_ref(*s)?),
            Entry::Star => {}
            Entry::Const(c) => {
                return Err(SqlGenError(format!(
                    "constant {c} in target list has no SQL-84 equivalent"
                )))
            }
        }
    }
    if select.is_empty() {
        return Err(SqlGenError("query has an empty target list".into()));
    }

    let mut conds = Vec::new();
    // Rule 3: constants in rows → equality restrictions.
    for (i, row) in query.rows.iter().enumerate() {
        for (col, entry) in row.entries.iter().enumerate() {
            if let Entry::Const(v) = entry {
                conds.push(SqlCond {
                    op: SqlOp::Equal,
                    lhs: SqlTerm::Col(SqlColumn {
                        var: var_name(i),
                        attr: query.attributes[col].to_string(),
                    }),
                    rhs: SqlTerm::Const(*v),
                });
            }
        }
    }
    // Rule 4: repeated symbols → equijoins between consecutive occurrences.
    for sym in query.symbols() {
        let occurrences: Vec<(usize, usize)> = query
            .rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.entries
                    .iter()
                    .enumerate()
                    .filter(move |(_, e)| e.as_symbol() == Some(sym))
                    .map(move |(col, _)| (i, col))
            })
            .collect();
        for pair in occurrences.windows(2) {
            let (r1, c1) = pair[0];
            let (r2, c2) = pair[1];
            conds.push(SqlCond {
                op: SqlOp::Equal,
                lhs: SqlTerm::Col(SqlColumn {
                    var: var_name(r1),
                    attr: query.attributes[c1].to_string(),
                }),
                rhs: SqlTerm::Col(SqlColumn {
                    var: var_name(r2),
                    attr: query.attributes[c2].to_string(),
                }),
            });
        }
    }
    // Rule 5: relational comparisons, located by first occurrence.
    for comparison in &query.comparisons {
        let term_of = |operand: &Operand| -> Result<SqlTerm> {
            Ok(match operand {
                Operand::Sym(s) => SqlTerm::Col(col_ref(*s)?),
                Operand::Const(v) => SqlTerm::Const(*v),
            })
        };
        conds.push(SqlCond {
            op: SqlOp::from_comp(comparison.op),
            lhs: term_of(&comparison.lhs)?,
            rhs: term_of(&comparison.rhs)?,
        });
    }

    Ok(SqlQuery {
        distinct: opts.distinct,
        select,
        from,
        conds,
        not_in: None,
    })
}

/// Translates and renders: the SQL text the relational query system is
/// sent.
pub fn to_sql_text(query: &DbclQuery, db: &DatabaseDef, opts: MappingOptions) -> Result<String> {
    Ok(translate(query, db, opts)?.to_sql())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::{ConstraintSet, DatabaseDef};

    fn translate_default(q: &DbclQuery) -> SqlQuery {
        translate(q, &DatabaseDef::empdep(), MappingOptions::default()).unwrap()
    }

    #[test]
    fn example_5_1_shape() {
        // Direct translation of same_manager(t_X, jones): 6 FROM variables,
        // 5 join terms, jones restriction, and the neq comparison.
        let q = DbclQuery::example_4_1();
        let sql = translate_default(&q);
        assert_eq!(sql.from.len(), 6);
        assert_eq!(sql.join_term_count(), 5);
        assert_eq!(
            sql.select,
            vec![SqlColumn {
                var: "v1".into(),
                attr: "nam".into()
            }]
        );
        let text = sql.to_sql();
        assert!(text.contains("(v1.dno = v2.dno)"));
        assert!(
            text.contains("(v2.mgr = v3.eno)"),
            "cross-column equijoin: {text}"
        );
        assert!(text.contains("(v4.dno = v5.dno)"));
        assert!(text.contains("(v5.mgr = v6.eno)"));
        assert!(text.contains("(v3.nam = v6.nam)"));
        assert!(text.contains("(v4.nam = 'jones')"));
        assert!(text.contains("(v1.nam <> 'jones')"));
    }

    #[test]
    fn appendix_works_dir_for_smiley() {
        // Appendix: works_dir_for(t_nam, smiley), vars starting at v12.
        let q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [works_dir_for, *, t_nam, *, *, *, *],
                  [[empl, v_eno, t_nam, v_sal1, v_dno, *, *],
                   [dept, *, *, *, v_dno, v_fct, v_eno1],
                   [empl, v_eno1, smiley, v_sal2, v_dno2, *, *]],
                  [])",
        )
        .unwrap();
        let sql = translate(
            &q,
            &DatabaseDef::empdep(),
            MappingOptions {
                first_var_index: 12,
                distinct: false,
            },
        )
        .unwrap();
        let text = sql.to_sql();
        assert!(text.contains("SELECT v12.nam"));
        assert!(text.contains("FROM empl v12, dept v13, empl v14"));
        assert!(text.contains("(v12.dno = v13.dno)"));
        assert!(text.contains("(v14.nam = 'smiley')"));
        // Body-style attribute naming: the dept.mgr/empl.eno equijoin.
        assert!(text.contains("(v13.mgr = v14.eno)"));
    }

    #[test]
    fn example_3_3_includes_less_comparison() {
        let q = DbclQuery::example_3_3();
        let sql = translate_default(&q);
        let text = sql.to_sql();
        assert!(text.contains("(v4.sal < 40000)"));
        // t_X repeated in rows 1 and 4 → equijoin v1.nam = v4.nam.
        assert!(text.contains("(v1.nam = v4.nam)"));
    }

    #[test]
    fn rule_6_non_repeated_vars_vanish() {
        let q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [who, *, t_X, *, *, *, *],
                  [[empl, v_E, t_X, v_S, v_D, *, *]],
                  [])",
        )
        .unwrap();
        let sql = translate_default(&q);
        assert!(sql.conds.is_empty());
        assert_eq!(sql.to_sql(), "SELECT v1.nam\nFROM empl v1");
    }

    #[test]
    fn empty_rows_rejected() {
        let q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [who, *, t_X, *, *, *, *], [], [])",
        )
        .unwrap();
        // Validation fails first: t_X is unanchored.
        assert!(translate_default_checked(&q).is_err());
    }

    fn translate_default_checked(q: &DbclQuery) -> Result<SqlQuery> {
        translate(q, &DatabaseDef::empdep(), MappingOptions::default())
    }

    #[test]
    fn distinct_option_prefixes_select() {
        let q = DbclQuery::example_3_3();
        let text = to_sql_text(
            &q,
            &DatabaseDef::empdep(),
            MappingOptions {
                first_var_index: 1,
                distinct: true,
            },
        )
        .unwrap();
        assert!(text.starts_with("SELECT DISTINCT "));
    }

    #[test]
    fn generated_sql_is_valid_for_constraints_fixture() {
        // Sanity: every paper fixture translates without error.
        let _ = ConstraintSet::empdep();
        for q in [DbclQuery::example_3_3(), DbclQuery::example_4_1()] {
            translate_default_checked(&q).unwrap();
        }
    }
}
