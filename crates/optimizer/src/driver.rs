//! Algorithm 2: the DBCL simplification procedure (§6.4).
//!
//! ```text
//! 1. Add value bounds to Relcomparisons …; constants out of domain ⇒ empty.
//! 2. REPEAT := true, FIRSTTIME := true.
//! 3. Inequality simplification; contradiction ⇒ empty; renames or
//!    FIRSTTIME ⇒ REPEAT := true else false.
//! 4. If REPEAT: FD chase with duplicate-row deletion; contradiction ⇒
//!    empty; renames ⇒ back to 3.
//! 5. Remove deletable dangling tuples recursively.
//! 6. Minimize the remaining tableau syntactically.
//! ```
//!
//! Every phase can be toggled off for the ablation benchmarks.

use crate::bounds::{apply_bounds, BoundsOutcome};
use crate::chase::{chase, occurrence_order, ChaseOutcome};
use crate::ineq::simplify_inequalities;
use crate::minimize::minimize;
use crate::refint::remove_dangling_rows;
use dbcl::{ConstraintSet, DatabaseDef, DbclQuery};
use std::fmt;

/// Why a query was recognized as having an empty result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmptyReason {
    /// A row constant lies outside a declared value bound.
    DomainViolation(String),
    /// The comparison set is unsatisfiable.
    IneqContradiction(String),
    /// Functional dependencies force two distinct constants equal.
    ChaseContradiction(String),
}

impl fmt::Display for EmptyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmptyReason::DomainViolation(w) => write!(f, "domain violation: {w}"),
            EmptyReason::IneqContradiction(w) => write!(f, "inequality contradiction: {w}"),
            EmptyReason::ChaseContradiction(w) => write!(f, "chase contradiction: {w}"),
        }
    }
}

/// Phase toggles (all on by default); the A1 ablation in the
/// `experiments` binary turns them off one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplifyConfig {
    pub use_bounds: bool,
    pub use_ineq: bool,
    pub use_chase: bool,
    pub use_refint: bool,
    pub use_minimize: bool,
    /// Safety valve on the 3↔4 loop (the paper's REPEAT loop terminates
    /// because each pass strictly shrinks the symbol space; this guards
    /// against bugs, not theory).
    pub max_iterations: usize,
}

impl Default for SimplifyConfig {
    fn default() -> Self {
        SimplifyConfig {
            use_bounds: true,
            use_ineq: true,
            use_chase: true,
            use_refint: true,
            use_minimize: true,
            max_iterations: 64,
        }
    }
}

impl SimplifyConfig {
    /// Everything off — the "direct translation" baseline.
    pub fn none() -> Self {
        SimplifyConfig {
            use_bounds: false,
            use_ineq: false,
            use_chase: false,
            use_refint: false,
            use_minimize: false,
            max_iterations: 1,
        }
    }
}

/// What Algorithm 2 did to a query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    pub bound_axioms: usize,
    pub comparisons_removed: usize,
    pub comparisons_sharpened: usize,
    pub symbols_merged: usize,
    pub rows_removed_chase: usize,
    pub rows_removed_refint: usize,
    pub rows_removed_minimize: usize,
    pub iterations: usize,
}

impl SimplifyStats {
    /// Total rows removed by any phase — joins avoided, in paper terms.
    pub fn rows_removed(&self) -> usize {
        self.rows_removed_chase + self.rows_removed_refint + self.rows_removed_minimize
    }
}

/// The simplification result: a smaller equivalent query, or the static
/// knowledge that the result is empty.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplifyOutcome {
    Simplified(DbclQuery, SimplifyStats),
    Empty(EmptyReason),
}

impl SimplifyOutcome {
    /// The simplified query, panicking on `Empty` (test convenience).
    pub fn unwrap_query(self) -> DbclQuery {
        match self {
            SimplifyOutcome::Simplified(q, _) => q,
            SimplifyOutcome::Empty(reason) => panic!("query is empty: {reason}"),
        }
    }
}

/// The §6 local optimizer.
pub struct Simplifier<'a> {
    db: &'a DatabaseDef,
    constraints: &'a ConstraintSet,
    config: SimplifyConfig,
}

impl<'a> Simplifier<'a> {
    pub fn new(db: &'a DatabaseDef, constraints: &'a ConstraintSet) -> Self {
        Simplifier {
            db,
            constraints,
            config: SimplifyConfig::default(),
        }
    }

    pub fn with_config(
        db: &'a DatabaseDef,
        constraints: &'a ConstraintSet,
        config: SimplifyConfig,
    ) -> Self {
        Simplifier {
            db,
            constraints,
            config,
        }
    }

    pub fn config(&self) -> SimplifyConfig {
        self.config
    }

    /// Runs Algorithm 2 on `query`.
    pub fn simplify(&self, mut query: DbclQuery) -> SimplifyOutcome {
        let mut stats = SimplifyStats::default();

        // Steps 2-4: the REPEAT loop.
        let mut first_time = true;
        loop {
            stats.iterations += 1;
            if stats.iterations > self.config.max_iterations {
                break;
            }
            // Step 1: value bounds. Recomputed every iteration, not once:
            // a chase rename can move a comparison symbol into a bounded
            // column (or force a constant into a bounded cell), so the
            // axiom set changes as the tableau shrinks. §6.4 notes the
            // original prototype applied these "sequentially" and that
            // "checking value bounds and functional dependencies could be
            // integrated more efficiently" — this is that integration.
            let axioms = if self.config.use_bounds {
                match apply_bounds(&query, self.constraints) {
                    BoundsOutcome::Axioms(ax) => ax,
                    BoundsOutcome::Contradiction(w) => {
                        return SimplifyOutcome::Empty(EmptyReason::DomainViolation(w))
                    }
                }
            } else {
                Vec::new()
            };
            stats.bound_axioms = stats.bound_axioms.max(axioms.len());
            // Step 3: inequality simplification.
            let mut renamed = false;
            if self.config.use_ineq {
                let order = occurrence_order(&query);
                let result = simplify_inequalities(&query.comparisons, &axioms, &order);
                if let Some(w) = result.contradiction {
                    return SimplifyOutcome::Empty(EmptyReason::IneqContradiction(w));
                }
                for (from, to) in &result.merges {
                    query.substitute(*from, to);
                }
                renamed = !result.merges.is_empty();
                stats.symbols_merged += result.merges.len();
                stats.comparisons_removed += result.removed;
                stats.comparisons_sharpened += result.sharpened;
                query.comparisons = result.kept;
            }
            let repeat = renamed || first_time;
            first_time = false;
            if !repeat {
                break;
            }
            // Step 4: chase with duplicate-row deletion.
            if self.config.use_chase {
                match chase(&mut query, self.db, self.constraints) {
                    ChaseOutcome::Done(chase_stats) => {
                        stats.rows_removed_chase += chase_stats.rows_removed;
                        stats.symbols_merged += chase_stats.merges.len();
                        if chase_stats.merges.is_empty() {
                            break; // no renames: Algorithm 2 falls through
                        }
                        // Renames: return to step 3.
                    }
                    ChaseOutcome::Contradiction(w) => {
                        return SimplifyOutcome::Empty(EmptyReason::ChaseContradiction(w))
                    }
                }
            } else {
                break;
            }
        }

        // Step 5: dangling rows.
        if self.config.use_refint {
            let refint_stats = remove_dangling_rows(&mut query, self.db, self.constraints);
            stats.rows_removed_refint = refint_stats.rows_removed;
        }

        // Step 6: syntactic minimization.
        if self.config.use_minimize {
            stats.rows_removed_minimize = minimize(&mut query);
        }

        SimplifyOutcome::Simplified(query, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::{CompOp, Comparison, DbclQuery, Entry, Operand, Symbol, Value};

    fn simplifier_fixtures() -> (DatabaseDef, ConstraintSet) {
        (DatabaseDef::empdep(), ConstraintSet::empdep())
    }

    /// The paper's flagship result (Example 6-2): same_manager(t_X, jones)
    /// goes from 6 rows to 2 — "who works for the same manager as jones"
    /// becomes "who works in the same department as jones".
    #[test]
    fn example_6_2_full_simplification() {
        let (db, cs) = simplifier_fixtures();
        let outcome = Simplifier::new(&db, &cs).simplify(DbclQuery::example_4_1());
        let SimplifyOutcome::Simplified(q, stats) = outcome else {
            panic!("unexpected empty outcome");
        };
        assert_eq!(q.rows.len(), 2, "final query:\n{q}");
        assert!(q.rows.iter().all(|r| r.relation.as_str() == "empl"));
        assert_eq!(stats.rows_removed_chase, 2);
        assert_eq!(stats.rows_removed_refint, 2);
        assert_eq!(stats.rows_removed(), 4);
        // The neq(t_X, jones) comparison survives.
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].op, CompOp::Neq);
        // Both rows share the department variable (the surviving join).
        let dno_col = 3;
        assert_eq!(q.rows[0].entries[dno_col], q.rows[1].entries[dno_col]);
    }

    /// Example 6-1 within Algorithm 2: works_dir_for + salary restriction
    /// loses one empl row to the chase.
    #[test]
    fn example_3_3_simplifies_to_three_rows() {
        let (db, cs) = simplifier_fixtures();
        let outcome = Simplifier::new(&db, &cs).simplify(DbclQuery::example_3_3());
        let SimplifyOutcome::Simplified(q, stats) = outcome else {
            panic!("empty")
        };
        // Chase merges rows 1 and 4; the dept and manager rows are NOT
        // dangling because the query keeps smiley pinned.
        assert_eq!(q.rows.len(), 3, "final query:\n{q}");
        assert_eq!(stats.rows_removed_chase, 1);
        // less(v_S, 40000) was renamed to v_Sal1 and kept.
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].lhs, Operand::Sym(Symbol::var("Sal1")));
    }

    /// §6.1: a salary comparison implied by the value bound disappears.
    #[test]
    fn implied_salary_comparison_dropped() {
        let (db, cs) = simplifier_fixtures();
        let mut q = DbclQuery::example_3_3();
        q.comparisons[0] = Comparison::new(
            CompOp::Less,
            q.comparisons[0].lhs,
            Operand::Const(Value::Int(200_000)),
        );
        let SimplifyOutcome::Simplified(q, stats) = Simplifier::new(&db, &cs).simplify(q) else {
            panic!("empty")
        };
        assert!(q.comparisons.is_empty(), "final query:\n{q}");
        assert!(stats.comparisons_removed >= 1);
    }

    /// §6.1: a salary comparison contradicting the bound empties the query.
    #[test]
    fn contradictory_salary_comparison_empties() {
        let (db, cs) = simplifier_fixtures();
        let mut q = DbclQuery::example_3_3();
        q.comparisons[0] = Comparison::new(
            CompOp::Less,
            q.comparisons[0].lhs,
            Operand::Const(Value::Int(2_000)),
        );
        let outcome = Simplifier::new(&db, &cs).simplify(q);
        assert!(matches!(
            outcome,
            SimplifyOutcome::Empty(EmptyReason::IneqContradiction(_))
        ));
    }

    #[test]
    fn domain_violating_constant_empties() {
        let (db, cs) = simplifier_fixtures();
        let mut q = DbclQuery::example_3_3();
        q.rows[0].entries[2] = Entry::int(1_000); // sal below 10000
        assert!(matches!(
            Simplifier::new(&db, &cs).simplify(q),
            SimplifyOutcome::Empty(EmptyReason::DomainViolation(_))
        ));
    }

    #[test]
    fn baseline_config_changes_nothing() {
        let (db, cs) = simplifier_fixtures();
        let q = DbclQuery::example_4_1();
        let outcome = Simplifier::with_config(&db, &cs, SimplifyConfig::none()).simplify(q.clone());
        let SimplifyOutcome::Simplified(out, stats) = outcome else {
            panic!("empty")
        };
        assert_eq!(out, q);
        assert_eq!(stats.rows_removed(), 0);
    }

    #[test]
    fn chase_only_config_partial_result() {
        let (db, cs) = simplifier_fixtures();
        let config = SimplifyConfig {
            use_refint: false,
            use_minimize: false,
            ..SimplifyConfig::default()
        };
        let outcome = Simplifier::with_config(&db, &cs, config).simplify(DbclQuery::example_4_1());
        let SimplifyOutcome::Simplified(q, stats) = outcome else {
            panic!("empty")
        };
        assert_eq!(q.rows.len(), 4); // chase removes 2, refint would remove 2 more
        assert_eq!(stats.rows_removed_refint, 0);
    }

    #[test]
    fn simplification_is_idempotent() {
        let (db, cs) = simplifier_fixtures();
        let simplifier = Simplifier::new(&db, &cs);
        let SimplifyOutcome::Simplified(once, _) = simplifier.simplify(DbclQuery::example_4_1())
        else {
            panic!("empty")
        };
        let SimplifyOutcome::Simplified(twice, stats) = simplifier.simplify(once.clone()) else {
            panic!("empty")
        };
        assert_eq!(once, twice);
        assert_eq!(stats.rows_removed(), 0);
    }

    #[test]
    fn already_minimal_query_untouched() {
        let (db, cs) = simplifier_fixtures();
        let q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [who, *, t_X, *, *, *, *],
                  [[empl, v_E, t_X, v_S, v_D, *, *]],
                  [])",
        )
        .unwrap();
        let SimplifyOutcome::Simplified(out, stats) = Simplifier::new(&db, &cs).simplify(q.clone())
        else {
            panic!("empty")
        };
        assert_eq!(out, q);
        assert_eq!(stats.rows_removed(), 0);
    }

    #[test]
    fn stats_rows_removed_sums() {
        let s = SimplifyStats {
            rows_removed_chase: 2,
            rows_removed_refint: 2,
            rows_removed_minimize: 1,
            ..Default::default()
        };
        assert_eq!(s.rows_removed(), 5);
    }
}
