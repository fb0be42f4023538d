//! Tight coupling and global optimization (§2 and §7 of the paper).
//!
//! The [`Coupler`] owns both subsystems — the internal Prolog engine and
//! the external relational query system — and runs the full Figure-1
//! pipeline for every query:
//!
//! ```text
//! PROLOG goals → metaevaluate → DBCL → local optimize → SQL → RQS
//!                      ↑                                      │
//!                      └──── cache results as Prolog facts ←──┘
//! ```
//!
//! On top of the conjunctive pipeline it implements the §7 machinery:
//!
//! * [`recursion`] — naive re-execution vs. stored intermediate relations
//!   (the `setrel`/`works_for_boss` scheme of Example 7-1), including the
//!   orientation experiment (top-down vs bottom-up seeds);
//! * [`stepwise`] — right-to-left tuple substitution for goals the DBMS
//!   cannot evaluate;
//! * [`cache`] — the internal database of query answers with its merge
//!   procedure: syntactic variants of one query share an entry.
//!
//! A view's answer is "the union of all these query results" (§7): each
//! branch's SQL returns its rows as they come, and [`Coupler::query`]
//! deduplicates once, across branches. That set is what the §6 rewrites
//! need — they preserve answers, not their multiplicity.

pub mod bridge;
pub mod cache;
pub mod negation;
pub mod recursion;
pub mod stepwise;
pub mod workload;

pub use bridge::{answers_from_result, datum_to_term, ddl_statements, value_to_datum};
pub use cache::QueryCache;

use dbcl::{ConstraintSet, DatabaseDef, DbclQuery};
use metaeval::{MetaEvaluator, UnfoldLimits};
use optimizer::{Simplifier, SimplifyConfig, SimplifyOutcome, SimplifyStats};
use rqs::QueryMetrics;
use sqlgen::MappingOptions;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from any stage of the coupled pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingError(pub String);

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coupling error: {}", self.0)
    }
}

impl std::error::Error for CouplingError {}

macro_rules! from_error {
    ($ty:ty) => {
        impl From<$ty> for CouplingError {
            fn from(e: $ty) -> Self {
                CouplingError(e.to_string())
            }
        }
    };
}
from_error!(prolog::PrologError);
from_error!(dbcl::DbclError);
from_error!(metaeval::MetaError);
from_error!(sqlgen::SqlGenError);
from_error!(rqs::RqsError);

pub type Result<T> = std::result::Result<T, CouplingError>;

/// One answer tuple: target-variable name (without `t_`) → value.
pub type Answer = BTreeMap<String, rqs::Datum>;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct CouplerConfig {
    /// Run the §6 local optimizer (off reproduces the paper's `no_optim`).
    pub optimize: bool,
    /// Simplifier phase toggles (ablation experiments).
    pub simplify: SimplifyConfig,
    /// Metaevaluation limits (recursion depth = naive sequence length).
    pub unfold: UnfoldLimits,
    /// Cache answers in the internal Prolog database.
    pub cache: bool,
}

impl Default for CouplerConfig {
    fn default() -> Self {
        CouplerConfig {
            optimize: true,
            simplify: SimplifyConfig::default(),
            unfold: UnfoldLimits::default(),
            cache: true,
        }
    }
}

/// Trace of what happened to one conjunctive branch.
#[derive(Debug, Clone)]
pub struct BranchTrace {
    /// DBCL as metaevaluate produced it.
    pub dbcl_initial: DbclQuery,
    /// DBCL after local optimization (when it ran and was non-empty).
    pub dbcl_optimized: Option<DbclQuery>,
    /// Why the optimizer proved the branch empty, if it did.
    pub empty_reason: Option<String>,
    /// Simplification statistics.
    pub simplify_stats: SimplifyStats,
    /// Generated SQL text (absent when the branch was proved empty or
    /// served from cache).
    pub sql: Option<String>,
    /// DBMS work counters for this branch.
    pub metrics: QueryMetrics,
    /// Answers this branch contributed (before residual filtering).
    pub raw_answers: usize,
    /// Answers removed by residual (stepwise) evaluation.
    pub residual_filtered: usize,
    /// Whether the branch was answered from the internal cache.
    pub cache_hit: bool,
}

/// The result of one coupled query.
#[derive(Debug, Clone)]
pub struct QueryRun {
    pub answers: Vec<Answer>,
    pub branches: Vec<BranchTrace>,
    pub recursive: bool,
    pub truncated: bool,
}

impl QueryRun {
    /// Sum of DBMS metrics over all branches.
    pub fn total_metrics(&self) -> QueryMetrics {
        let mut total = QueryMetrics::default();
        for b in &self.branches {
            total.absorb(&b.metrics);
        }
        total
    }
}

/// The coupled system: internal Prolog engine + external RQS.
pub struct Coupler {
    pub engine: prolog::Engine,
    pub rqs: rqs::Database,
    pub db: DatabaseDef,
    pub constraints: ConstraintSet,
    pub config: CouplerConfig,
    cache: QueryCache,
}

impl Coupler {
    /// Creates the coupled system over a fresh external database on the
    /// paged engine ([`rqs::Database::new`]).
    pub fn new(db: DatabaseDef, constraints: ConstraintSet) -> Result<Coupler> {
        Self::over(rqs::Database::new(), db, constraints)
    }

    /// The paper's running system: empdep schema + Example 3-2 constraints.
    pub fn empdep() -> Coupler {
        Self::empdep_over(rqs::Database::new())
    }

    /// The empdep system over `rqs`: a paged database with a chosen pool,
    /// or the differential tests' oracle.
    pub fn empdep_over(rqs: rqs::Database) -> Coupler {
        Self::over(rqs, DatabaseDef::empdep(), ConstraintSet::empdep())
            .expect("empdep fixture is consistent")
    }

    /// Couples the Prolog engine to `rqs`: sets up the external database
    /// schema (tables, keys, bounds, foreign keys) from the shared
    /// definition.
    fn over(
        mut rqs: rqs::Database,
        db: DatabaseDef,
        constraints: ConstraintSet,
    ) -> Result<Coupler> {
        constraints.validate(&db)?;
        for ddl in ddl_statements(&db, &constraints) {
            rqs.execute(&ddl)?;
        }
        Ok(Coupler {
            engine: prolog::Engine::new(),
            rqs,
            db,
            constraints,
            config: CouplerConfig::default(),
            cache: QueryCache::new(),
        })
    }

    /// Loads Prolog view definitions / facts into the internal engine.
    pub fn consult(&mut self, source: &str) -> Result<()> {
        self.engine.consult(source)?;
        Ok(())
    }

    /// Bulk-loads one tuple into the external database without insert-time
    /// constraint checking (`empdep`'s foreign keys are cyclic); call
    /// [`Coupler::check_integrity`] after loading.
    pub fn load_tuple(&mut self, relation: &str, values: &[rqs::Datum]) -> Result<()> {
        self.rqs.insert_unchecked(relation, values.to_vec())?;
        Ok(())
    }

    /// Re-validates every integrity constraint against the loaded data.
    pub fn check_integrity(&self) -> Result<()> {
        self.rqs.validate_all()?;
        Ok(())
    }

    /// The cache of externally computed answers.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Drops all cached answers (external updates invalidate them).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Runs a goal list (variable-free metaterm convention: `t_X` atoms are
    /// targets) through the full pipeline and returns the answers.
    pub fn query(&mut self, goals_src: &str, view_name: &str) -> Result<QueryRun> {
        let meta = MetaEvaluator::with_limits(self.engine.kb(), &self.db, self.config.unfold);
        let outcome = meta.metaevaluate(goals_src, view_name)?;
        let goal_pattern = prolog::parse_term(goals_src)?;

        let mut run = QueryRun {
            answers: Vec::new(),
            branches: Vec::new(),
            recursive: outcome.recursive,
            truncated: outcome.truncated,
        };
        let mut seen = std::collections::HashSet::new();
        let mut raw_union: Vec<Answer> = Vec::new();
        for branch in outcome.branches {
            let (trace, raw, filtered) = self.run_branch(&branch)?;
            raw_union.extend(raw);
            for a in filtered {
                if seen.insert(a.clone()) {
                    run.answers.push(a);
                }
            }
            run.branches.push(trace);
        }
        if self.config.cache {
            // The database-resolved predicate's facts are the *raw* answers;
            // residual goals restrict the conjunction, not the view itself.
            cache::install_facts(&self.engine, &goal_pattern, &raw_union);
        }
        Ok(run)
    }

    /// Executes one metaevaluated branch: optimize → SQL → RQS → residual.
    /// Returns the trace, the raw database answers, and the answers
    /// surviving residual evaluation.
    fn run_branch(
        &mut self,
        branch: &metaeval::MetaBranch,
    ) -> Result<(BranchTrace, Vec<Answer>, Vec<Answer>)> {
        let initial = branch.query.clone();
        let mut trace = BranchTrace {
            dbcl_initial: initial.clone(),
            dbcl_optimized: None,
            empty_reason: None,
            simplify_stats: SimplifyStats::default(),
            sql: None,
            metrics: QueryMetrics::default(),
            raw_answers: 0,
            residual_filtered: 0,
            cache_hit: false,
        };

        // Local optimization (§6).
        let query = if self.config.optimize {
            let simplifier =
                Simplifier::with_config(&self.db, &self.constraints, self.config.simplify);
            match simplifier.simplify(initial) {
                SimplifyOutcome::Simplified(q, stats) => {
                    trace.simplify_stats = stats;
                    trace.dbcl_optimized = Some(q.clone());
                    q
                }
                SimplifyOutcome::Empty(reason) => {
                    trace.empty_reason = Some(reason.to_string());
                    return Ok((trace, Vec::new(), Vec::new()));
                }
            }
        } else {
            initial
        };

        // Global optimization: answer from the internal cache if possible.
        if self.config.cache {
            if let Some(answers) = self.cache.lookup(&query) {
                trace.cache_hit = true;
                trace.raw_answers = answers.len();
                // Residual goals still apply to cached tuples.
                let raw = answers.clone();
                let (answers, filtered) =
                    stepwise::filter_residual(&self.engine, &branch.residual, answers)?;
                trace.residual_filtered = filtered;
                return Ok((trace, raw, answers));
            }
        }

        // Translate (§5) and ship to the external DBMS. No DISTINCT:
        // `query` unions the branches through its own set.
        let sql_text = sqlgen::mapping::to_sql_text(&query, &self.db, MappingOptions::default())?;
        trace.sql = Some(sql_text.clone());
        let result = self.rqs.execute(&sql_text)?;
        trace.metrics = result.metrics.clone();
        let answers = answers_from_result(&query, &result)?;
        trace.raw_answers = answers.len();
        if self.config.cache {
            self.cache.store(&query, &answers);
        }

        // Stepwise evaluation of residual goals (§7).
        let raw = answers.clone();
        let (answers, filtered) =
            stepwise::filter_residual(&self.engine, &branch.residual, answers)?;
        trace.residual_filtered = filtered;
        Ok((trace, raw, answers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqs::Datum;

    /// The five-person spy shop used across coupling tests:
    /// control manages hq (dept 10); smiley works at hq and manages the
    /// field unit (dept 20) where jones, miller and leamas work.
    pub fn little_firm() -> Coupler {
        let mut c = Coupler::empdep();
        for (eno, nam, sal, dno) in [
            (1, "control", 80_000, 10),
            (2, "smiley", 60_000, 10),
            (3, "jones", 30_000, 20),
            (4, "miller", 25_000, 20),
            (5, "leamas", 35_000, 20),
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

    fn names(answers: &[Answer], var: &str) -> Vec<String> {
        let mut out: Vec<String> = answers
            .iter()
            .map(|a| a.get(var).unwrap().as_text().unwrap().to_owned())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn end_to_end_works_dir_for_smiley() {
        let mut c = little_firm();
        c.consult(metaeval::views::WORKS_DIR_FOR).unwrap();
        let run = c
            .query("works_dir_for(t_X, smiley)", "works_dir_for")
            .unwrap();
        assert_eq!(names(&run.answers, "X"), ["jones", "leamas", "miller"]);
        assert_eq!(run.branches.len(), 1);
        assert!(run.branches[0].sql.is_some());
    }

    #[test]
    fn end_to_end_same_manager_jones() {
        let mut c = little_firm();
        c.consult(metaeval::views::SAME_MANAGER).unwrap();
        let run = c.query("same_manager(t_X, jones)", "same_manager").unwrap();
        assert_eq!(names(&run.answers, "X"), ["leamas", "miller"]);
        // Optimizer shrank the branch to the 2-row form.
        let trace = &run.branches[0];
        assert_eq!(trace.dbcl_optimized.as_ref().unwrap().rows.len(), 2);
        assert_eq!(trace.simplify_stats.rows_removed(), 4);
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let mut c = little_firm();
        c.consult(metaeval::views::SAME_MANAGER).unwrap();
        let optimized = c.query("same_manager(t_X, jones)", "same_manager").unwrap();
        c.config.optimize = false;
        c.config.cache = false;
        let direct = c.query("same_manager(t_X, jones)", "same_manager").unwrap();
        assert_eq!(names(&optimized.answers, "X"), names(&direct.answers, "X"));
        // And the optimized run does strictly less DBMS work.
        assert!(
            optimized.total_metrics().joins < direct.total_metrics().joins,
            "optimized {:?} direct {:?}",
            optimized.total_metrics(),
            direct.total_metrics()
        );
    }

    #[test]
    fn empty_branch_detected_statically() {
        let mut c = little_firm();
        c.consult(metaeval::views::WORKS_DIR_FOR).unwrap();
        // Salary below the 10000 bound: contradiction, no SQL issued.
        let run = c
            .query(
                "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 2000)",
                "q",
            )
            .unwrap();
        assert!(run.answers.is_empty());
        assert!(run.branches[0].empty_reason.is_some());
        assert!(run.branches[0].sql.is_none());
    }

    #[test]
    fn cache_hit_on_repeat_query() {
        let mut c = little_firm();
        c.consult(metaeval::views::SAME_MANAGER).unwrap();
        let first = c.query("same_manager(t_X, jones)", "same_manager").unwrap();
        assert!(!first.branches[0].cache_hit);
        let second = c.query("same_manager(t_X, jones)", "same_manager").unwrap();
        assert!(second.branches[0].cache_hit);
        assert_eq!(names(&first.answers, "X"), names(&second.answers, "X"));
        // No SQL was sent the second time.
        assert!(second.branches[0].sql.is_none());
    }

    #[test]
    fn cached_answers_become_prolog_facts() {
        let mut c = little_firm();
        c.consult(metaeval::views::SAME_MANAGER).unwrap();
        c.query("same_manager(t_X, jones)", "same_manager").unwrap();
        // The internal database now holds instantiated same_manager facts
        // that plain Prolog resolution can use (Example 4-1's flow).
        c.consult("specialist(miller, driving). specialist(smiley, thinking).")
            .unwrap();
        let sols = c
            .engine
            .query_all("same_manager(X, jones), specialist(X, driving).")
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get("X").unwrap(), &prolog::Term::atom("miller"));
    }

    #[test]
    fn residual_goals_filter_answers() {
        let mut c = little_firm();
        c.consult(metaeval::views::SAME_MANAGER).unwrap();
        c.consult("specialist(miller, driving). specialist(leamas, languages).")
            .unwrap();
        // partner-style query: same manager as jones AND a driving specialist.
        let run = c
            .query(
                "same_manager(t_X, jones), specialist(t_X, driving)",
                "partner",
            )
            .unwrap();
        assert_eq!(names(&run.answers, "X"), ["miller"]);
        assert_eq!(run.branches[0].residual_filtered, 1); // leamas dropped
    }

    #[test]
    fn disjunctive_view_unions_branches() {
        let mut c = little_firm();
        c.consult(
            "notable(X) :- empl(_, X, S, _), greater(S, 70000).
             notable(X) :- empl(_, X, _, D), dept(D, field, _).",
        )
        .unwrap();
        let run = c.query("notable(t_X)", "notable").unwrap();
        assert_eq!(run.branches.len(), 2);
        assert_eq!(
            names(&run.answers, "X"),
            ["control", "jones", "leamas", "miller"]
        );
    }

    #[test]
    fn duplicate_rows_are_removed_once_by_the_union() {
        let mut c = little_firm();
        // Five employees in two departments: the branch's SQL returns a
        // department number per employee, and the union keeps each once.
        let run = c.query("empl(E, N, S, t_D)", "q").unwrap();
        assert_eq!(run.branches.len(), 1);
        let branch = &run.branches[0];
        let sql = branch.sql.as_deref().unwrap();
        assert!(!sql.contains("DISTINCT"), "{sql}");
        assert_eq!(branch.raw_answers, 5);
        assert_eq!(run.answers.len(), 2);
    }

    #[test]
    fn integrity_check_catches_bad_load() {
        let mut c = Coupler::empdep();
        c.load_tuple(
            "empl",
            &[
                Datum::Int(1),
                Datum::text("x"),
                Datum::Int(50_000),
                Datum::Int(99),
            ],
        )
        .unwrap();
        assert!(c.check_integrity().is_err());
    }
}
