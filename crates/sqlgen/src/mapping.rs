//! The six DBCL→SQL mapping rules of §5, and §7's `NOT IN` for the
//! negated queries of a branch.

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
    /// only place its answers are put together (a recursion step); leave
    /// it off where the caller unions the rows itself, as the coupler
    /// does across a view's branches, and for the paper's own SQL text.
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

/// Column reference for a symbol: its first row occurrence (rules 2, 5).
fn column_of(query: &DbclQuery, sym: Symbol, first_var_index: usize) -> Result<SqlColumn> {
    let (row, col) = query
        .first_row_occurrence(sym)
        .ok_or_else(|| SqlGenError(format!("symbol {sym} not anchored in any row")))?;
    Ok(SqlColumn {
        var: format!("v{}", first_var_index + row),
        attr: query.attributes[col].to_string(),
    })
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
    let col_ref = |sym: Symbol| column_of(query, sym, opts.first_var_index);

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
        not_in: Vec::new(),
    })
}

/// §7 negation: "Instead of set difference, SQL's nested expressions (NOT
/// IN (…)) can also be used." Translates `positive ∧ ¬negated₁ ∧ …` into
/// `SELECT … FROM positive WHERE … AND l₁ NOT IN (SELECT … FROM negated₁
/// …) AND …`, where `lᵢ` is the column of `positive` its link first occurs
/// in and the subquery selects the negated query's one target. With no
/// negated query this is [`translate`].
pub fn translate_with_negation(
    positive: &DbclQuery,
    negated: &[(Symbol, DbclQuery)],
    db: &DatabaseDef,
    opts: MappingOptions,
) -> Result<SqlQuery> {
    let mut outer = translate(positive, db, opts)?;
    // Inner range variables are numbered past the outer ones to keep the
    // generated text unambiguous for the DBMS parser. Membership needs no
    // set semantics: a subquery is never DISTINCT.
    let mut first_var_index = opts.first_var_index + positive.rows.len();
    for (link, neg) in negated {
        let column = column_of(positive, *link, opts.first_var_index)?;
        let inner_opts = MappingOptions {
            first_var_index,
            distinct: false,
        };
        outer.not_in.push((column, translate(neg, db, inner_opts)?));
        first_var_index += neg.rows.len();
    }
    Ok(outer)
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

    /// §7's view: `manager(X, Y) :- empl(X, _, _, D), dept(D, _, Y)` —
    /// the "managers" interpretation of `not(manager(jones, M))`:
    /// all managers (from dept) that do not manage jones.
    fn managers_query() -> DbclQuery {
        DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [managers, t_M, *, *, *, *, *],
                  [[empl, t_M, v_N, v_S, v_D, *, *],
                   [dept, *, *, *, v_D2, v_F, t_M]],
                  [])",
        )
        .unwrap()
    }

    fn manages_jones() -> (Symbol, DbclQuery) {
        let query = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [manages_jones, *, *, *, *, *, t_link],
                  [[empl, v_E, jones, v_S, v_D, *, *],
                   [dept, *, *, *, v_D, v_F, t_link]],
                  [])",
        )
        .unwrap();
        (Symbol::target("M"), query)
    }

    #[test]
    fn not_in_translation() {
        let sql = translate_with_negation(
            &managers_query(),
            &[manages_jones()],
            &DatabaseDef::empdep(),
            MappingOptions::default(),
        )
        .unwrap();
        let text = sql.to_sql();
        assert!(text.contains("v1.eno NOT IN (SELECT v4.mgr"), "{text}");
        // Inner query variables renumbered past the outer ones.
        assert!(text.contains("empl v3"), "{text}");
        assert!(text.contains("(v3.nam = 'jones')"), "{text}");
    }

    /// `\+ (A ; B)` is two negated queries: two `NOT IN` conjuncts, the
    /// second numbered past the first. The positive side may project
    /// more than the link.
    #[test]
    fn one_not_in_per_negated_query() {
        let mut positive = managers_query();
        positive.target[1] = Entry::target("N");
        positive.rows[0].entries[1] = Entry::target("N");
        let negated = [manages_jones(), manages_jones()];
        let db = DatabaseDef::empdep();
        let text = translate_with_negation(&positive, &negated, &db, MappingOptions::default())
            .unwrap()
            .to_sql();
        assert!(text.starts_with("SELECT v1.eno, v1.nam"), "{text}");
        assert_eq!(text.matches("v1.eno NOT IN").count(), 2, "{text}");
        assert!(text.contains("FROM empl v3, dept v4"), "{text}");
        assert!(text.contains("FROM empl v5, dept v6"), "{text}");
    }
}
