//! §6.0 syntactic tableau minimization (Algorithm 2, step 6).
//!
//! "In a tableau representation, join minimization corresponds to the
//! minimization of the number of rows \[Aho et al. 1979\]. Our algorithms
//! for this syntactic step are based on proposals by Sagiv \[1983\] but
//! extended to a multi-relation environment, in which variables may appear
//! in more than one tableau column \[Johnson and Klug 1983\]."
//!
//! A row is redundant when the query has a containment mapping
//! (homomorphism) into itself that avoids the row: constants and frozen
//! symbols (targets, comparison operands) map to themselves, other
//! variables map to arbitrary entries, every row maps onto a surviving row
//! of the same relation. Removing such rows yields the *core* of the
//! tableau, i.e. the minimal equivalent join expression.

use dbcl::{DbclQuery, Entry, Operand, Symbol};
use std::collections::{HashMap, HashSet};

/// Symbols that must map to themselves: target variables and anything the
/// comparison section constrains.
fn frozen_symbols(query: &DbclQuery) -> HashSet<Symbol> {
    let mut frozen = HashSet::new();
    for entry in &query.target {
        if let Entry::Sym(s) = entry {
            frozen.insert(*s);
        }
    }
    for c in &query.comparisons {
        for operand in [&c.lhs, &c.rhs] {
            if let Operand::Sym(s) = operand {
                frozen.insert(*s);
            }
        }
    }
    frozen
}

/// Extends `mapping` so that `from` maps to `to`; `false` on conflict.
fn bind(
    mapping: &mut HashMap<Symbol, Entry>,
    frozen: &HashSet<Symbol>,
    from: &Entry,
    to: &Entry,
) -> bool {
    match (from, to) {
        (Entry::Star, Entry::Star) => true,
        (Entry::Const(a), Entry::Const(b)) => a == b,
        (Entry::Sym(s), to_entry) => {
            if frozen.contains(s) {
                return to_entry.as_symbol() == Some(*s);
            }
            match mapping.get(s) {
                Some(existing) => existing == to_entry,
                None => {
                    mapping.insert(*s, *to_entry);
                    true
                }
            }
        }
        _ => false,
    }
}

/// Is there a homomorphism from every row of `query` into the row set
/// `targets` (given as indexes into `query.rows`)?
fn homomorphism_exists(query: &DbclQuery, targets: &[usize]) -> bool {
    let frozen = frozen_symbols(query);
    fn search(
        query: &DbclQuery,
        targets: &[usize],
        frozen: &HashSet<Symbol>,
        source: usize,
        mapping: &HashMap<Symbol, Entry>,
    ) -> bool {
        if source == query.rows.len() {
            return true;
        }
        let src = &query.rows[source];
        for &t in targets {
            let dst = &query.rows[t];
            if src.relation != dst.relation {
                continue;
            }
            let mut attempt = mapping.clone();
            let ok = src
                .entries
                .iter()
                .zip(&dst.entries)
                .all(|(from, to)| bind(&mut attempt, frozen, from, to));
            if ok && search(query, targets, frozen, source + 1, &attempt) {
                return true;
            }
        }
        false
    }
    search(query, targets, &frozen, 0, &HashMap::new())
}

/// Minimizes the tableau in place; returns the number of rows removed.
pub fn minimize(query: &mut DbclQuery) -> usize {
    let mut removed = 0usize;
    loop {
        let n = query.rows.len();
        let mut candidate = None;
        for r in 0..n {
            let targets: Vec<usize> = (0..n).filter(|&i| i != r).collect();
            if targets.is_empty() {
                break;
            }
            if homomorphism_exists(query, &targets) {
                candidate = Some(r);
                break;
            }
        }
        match candidate {
            Some(r) => {
                query.remove_row(r);
                removed += 1;
            }
            None => return removed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::DbclQuery;

    #[test]
    fn redundant_free_row_removed() {
        // Second empl row is subsumed by the first (shared v_D, all else
        // free) — the classic redundant self-join.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E1, t_X, v_S1, v_D, *, *],
                   [empl, v_E2, v_N2, v_S2, v_D, *, *]],
                  [])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 1);
        assert_eq!(q.rows.len(), 1);
    }

    #[test]
    fn constant_pinned_row_kept() {
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E1, t_X, v_S1, v_D, *, *],
                   [empl, v_E2, jones, v_S2, v_D, *, *]],
                  [])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 0);
        assert_eq!(q.rows.len(), 2);
    }

    #[test]
    fn identical_rows_collapse() {
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E, t_X, v_S, v_D, *, *],
                   [empl, v_E, t_X, v_S, v_D, *, *]],
                  [])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 1);
    }

    #[test]
    fn comparison_symbols_frozen() {
        // v_S2 participates in a comparison, so the second row cannot fold
        // into the first even though it otherwise could.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E1, t_X, v_S1, v_D, *, *],
                   [empl, v_E2, v_N2, v_S2, v_D, *, *]],
                  [[less, v_S2, 40000]])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 0);
    }

    #[test]
    fn cross_relation_rows_never_merge() {
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E, t_X, v_S, v_D, *, *],
                   [dept, *, *, *, v_D, v_F, v_M]],
                  [])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 0);
        assert_eq!(q.rows.len(), 2);
    }

    #[test]
    fn chain_of_three_folds_to_core() {
        // Three rows chained on dno; the middle and last are free copies.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E1, t_X, v_S1, v_D, *, *],
                   [empl, v_E2, v_N2, v_S2, v_D, *, *],
                   [empl, v_E3, v_N3, v_S3, v_D, *, *]],
                  [])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 2);
        assert_eq!(q.rows.len(), 1);
    }

    #[test]
    fn paper_final_query_already_minimal() {
        // Example 6-2's final two-row query must survive minimization.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [same_manager, *, t_X, *, *, *, *],
                  [[empl, v_Eno1, t_X, v_Sal1, v_D1, *, *],
                   [empl, v_Eno4, jones, v_Sal4, v_D1, *, *]],
                  [[neq, t_X, jones]])",
        )
        .unwrap();
        assert_eq!(minimize(&mut q), 0);
        assert_eq!(q.rows.len(), 2);
    }
}
