//! Coupler-level negation (§7): run `positive(t) ∧ ¬negated(t)` through
//! the pipeline using SQL's `NOT IN`.
//!
//! The paper: "its evaluation involves first computing the positive
//! result, and then its complement in the appropriate set. Instead of set
//! difference, SQL's nested expressions (NOT IN (…)) can also be used."
//! This module metaevaluates and locally optimizes *both* sides before
//! combining them — the §6 simplifier applies to the negated query too.

use crate::bridge::answers_from_result;
use crate::{Answer, Coupler, CouplingError, Result};
use dbcl::DbclQuery;
use metaeval::MetaEvaluator;
use optimizer::{Simplifier, SimplifyOutcome};
use rqs::QueryMetrics;
use sqlgen::negation::translate_with_negation;
use sqlgen::MappingOptions;

/// Result of a negated query.
#[derive(Debug, Clone)]
pub struct NegationRun {
    pub answers: Vec<Answer>,
    /// The optimized positive query.
    pub positive: DbclQuery,
    /// The optimized negated query, when it survived simplification;
    /// `None` means the negated side is provably empty, so the negation is
    /// vacuous and the positive result stands alone.
    pub negated: Option<DbclQuery>,
    pub sql: String,
    pub metrics: QueryMetrics,
}

impl Coupler {
    /// Evaluates `positive_goal ∧ ¬negated_goal`. Both goals use the
    /// variable-free convention and must share exactly one target symbol —
    /// the value the negation complements (the paper's "appropriate set").
    pub fn query_with_negation(
        &mut self,
        positive_goal: &str,
        negated_goal: &str,
        view_name: &str,
    ) -> Result<NegationRun> {
        let meta = MetaEvaluator::with_limits(self.engine.kb(), &self.db, self.config.unfold);
        let expand = |goal: &str| -> Result<DbclQuery> {
            let out = meta.metaevaluate(goal, view_name)?;
            if out.branches.len() != 1 {
                return Err(CouplingError(format!(
                    "negation handling needs a conjunctive goal; {goal} produced {} branches",
                    out.branches.len()
                )));
            }
            let branch = &out.branches[0];
            if !branch.residual.is_empty() {
                return Err(CouplingError(format!(
                    "negation handling cannot mix residual predicates: {:?}",
                    branch.residual
                )));
            }
            Ok(branch.query.clone())
        };
        let positive_raw = expand(positive_goal)?;
        let negated_raw = expand(negated_goal)?;

        let simplifier = Simplifier::with_config(&self.db, &self.constraints, self.config.simplify);
        let positive = if self.config.optimize {
            match simplifier.simplify(positive_raw) {
                SimplifyOutcome::Simplified(q, _) => q,
                SimplifyOutcome::Empty(reason) => {
                    // Positive side empty → no answers at all.
                    return Ok(NegationRun {
                        answers: Vec::new(),
                        positive: DbclQuery::new(&self.db, view_name),
                        negated: None,
                        sql: format!("-- positive side provably empty: {reason}"),
                        metrics: QueryMetrics::default(),
                    });
                }
            }
        } else {
            positive_raw
        };
        let negated = if self.config.optimize {
            match simplifier.simplify(negated_raw) {
                SimplifyOutcome::Simplified(q, _) => Some(q),
                // Negated side provably empty → the negation always holds.
                SimplifyOutcome::Empty(_) => None,
            }
        } else {
            Some(negated_raw)
        };

        // This one statement is where the answers are put together, so
        // it carries the dedup itself.
        let opts = MappingOptions {
            first_var_index: 1,
            distinct: true,
        };
        let sql = match &negated {
            Some(neg) => translate_with_negation(&positive, neg, &self.db, opts)?,
            None => sqlgen::mapping::translate(&positive, &self.db, opts)?,
        };
        let text = sql.to_sql();
        let result = self.rqs.execute(&text)?;
        let answers = answers_from_result(&positive, &result)?;
        Ok(NegationRun {
            answers,
            positive,
            negated,
            sql: text,
            metrics: result.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs::Datum;

    fn firm() -> Coupler {
        let mut c = Coupler::empdep();
        c.consult(metaeval::views::MANAGER).unwrap();
        c.consult(metaeval::views::WORKS_DIR_FOR).unwrap();
        for (eno, nam, sal, dno) in [
            (1, "control", 80_000, 10),
            (2, "smiley", 60_000, 10),
            (3, "jones", 30_000, 20),
            (4, "miller", 25_000, 20),
        ] {
            c.load_tuple(
                "empl",
                &[
                    Datum::Int(eno),
                    Datum::text(nam),
                    Datum::Int(sal),
                    Datum::Int(dno),
                ],
            )
            .unwrap();
        }
        for (dno, fct, mgr) in [(10, "hq", 1), (20, "field", 2)] {
            c.load_tuple(
                "dept",
                &[Datum::Int(dno), Datum::text(fct), Datum::Int(mgr)],
            )
            .unwrap();
        }
        c.check_integrity().unwrap();
        c
    }

    /// §7's example: managers who do not manage Jones.
    #[test]
    fn managers_not_managing_jones() {
        let mut c = firm();
        let run = c
            .query_with_negation(
                // someone (t_M) is a manager of some department…
                "empl(t_M, N, S, D), dept(D2, F, t_M)",
                // …and manages jones' department.
                "empl(E, jones, S2, D3), dept(D3, F2, t_M)",
                "not_jones_manager",
            )
            .unwrap();
        assert!(run.sql.contains("NOT IN"), "{}", run.sql);
        assert_eq!(run.answers.len(), 1);
        assert_eq!(run.answers[0]["M"], Datum::Int(1)); // control, not smiley
    }

    /// A provably empty negated side degenerates to the positive query.
    #[test]
    fn vacuous_negation_drops_not_in() {
        let mut c = firm();
        let run = c
            .query_with_negation(
                "empl(t_M, N, S, D), dept(D2, F, t_M)",
                // Nobody earns less than 2000: contradiction with the bound.
                "empl(t_M, N2, S2, D4), less(S2, 2000)",
                "q",
            )
            .unwrap();
        assert!(run.negated.is_none());
        assert!(!run.sql.contains("NOT IN"), "{}", run.sql);
        assert_eq!(run.answers.len(), 2); // both managers qualify
    }

    /// Residual predicates are rejected with a clear error.
    #[test]
    fn residual_in_negation_rejected() {
        let mut c = firm();
        c.consult("vip(control).").unwrap();
        let err = c.query_with_negation("empl(t_M, N, S, D), vip(N)", "empl(t_M, N2, S2, D2)", "q");
        assert!(err.is_err());
    }
}
