//! §7 negation: "its evaluation involves first computing the positive
//! result, and then its complement in the appropriate set. Instead of set
//! difference, SQL's nested expressions (NOT IN (…)) can also be used."
//!
//! This module implements the `NOT IN` route for the common shape
//! `positive ∧ ¬negated` where the two conjuncts share exactly one target
//! symbol — e.g. "employees who are managers but do not manage Jones".

use crate::ast::{SqlColumn, SqlQuery};
use crate::mapping::{translate, MappingOptions};
use crate::{Result, SqlGenError};
use dbcl::{DatabaseDef, DbclQuery, Entry, Symbol};

/// The single target symbol of `query`, or an error.
fn sole_target(query: &DbclQuery) -> Result<Symbol> {
    let mut targets = query.target.iter().filter_map(Entry::as_symbol);
    let first = targets
        .next()
        .ok_or_else(|| SqlGenError("query has no target symbol".into()))?;
    if targets.next().is_some() {
        return Err(SqlGenError(
            "NOT IN translation needs exactly one target symbol".into(),
        ));
    }
    Ok(first)
}

/// Translates `positive(t) ∧ ¬negated(t)` into
/// `SELECT … FROM positive WHERE … AND t NOT IN (SELECT t FROM negated …)`.
///
/// Both queries must project exactly one symbol; they join on it.
pub fn translate_with_negation(
    positive: &DbclQuery,
    negated: &DbclQuery,
    db: &DatabaseDef,
    opts: MappingOptions,
) -> Result<SqlQuery> {
    let pos_target = sole_target(positive)?;
    sole_target(negated)?;
    let mut outer = translate(positive, db, opts)?;
    // Name the inner query's variables after the outer ones to keep the
    // generated text unambiguous for the DBMS parser. Membership needs no
    // set semantics: the subquery is never DISTINCT.
    let inner_opts = MappingOptions {
        first_var_index: opts.first_var_index + positive.rows.len(),
        distinct: false,
    };
    let inner = translate(negated, db, inner_opts)?;
    let (row, col) = positive
        .first_row_occurrence(pos_target)
        .ok_or_else(|| SqlGenError(format!("target {pos_target} not anchored")))?;
    let link = SqlColumn {
        var: format!("v{}", opts.first_var_index + row),
        attr: positive.attributes[col].to_string(),
    };
    outer.not_in = Some((link, Box::new(inner)));
    Ok(outer)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn manages_jones_query() -> DbclQuery {
        DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [manages_jones, t_M, *, *, *, *, *],
                  [[empl, v_E, jones, v_S, v_D, *, *],
                   [dept, *, *, *, v_D, v_F, t_M]],
                  [])",
        )
        .unwrap()
    }

    #[test]
    fn not_in_translation() {
        let sql = translate_with_negation(
            &managers_query(),
            &manages_jones_query(),
            &DatabaseDef::empdep(),
            MappingOptions::default(),
        )
        .unwrap();
        let text = sql.to_sql();
        assert!(text.contains("NOT IN"), "{text}");
        assert!(text.contains("v1.eno NOT IN"), "{text}");
        // Inner query variables renumbered past the outer ones.
        assert!(text.contains("empl v3"), "{text}");
        assert!(text.contains("(v3.nam = 'jones')"), "{text}");
    }

    #[test]
    fn multi_target_rejected() {
        let mut q = managers_query();
        q.target[1] = Entry::target("N");
        // Anchor the second target so validation passes but negation fails.
        q.rows[0].entries[1] = Entry::target("N");
        let err = translate_with_negation(
            &q,
            &manages_jones_query(),
            &DatabaseDef::empdep(),
            MappingOptions::default(),
        );
        assert!(err.is_err());
    }
}
