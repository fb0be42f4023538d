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
//! need — they preserve answers, not their multiplicity. A `\+ G` over
//! database relations is one negated query per branch of `G`, which the
//! branch's SQL excludes with `NOT IN` (§7: "first computing the positive
//! result, and then its complement").

pub mod bridge;
pub mod cache;
pub mod recursion;
pub mod stepwise;
pub mod workload;

pub use bridge::{answers_from_result, datum_to_term, ddl_statements, value_to_datum};
pub use cache::QueryCache;

use dbcl::{ConstraintSet, DatabaseDef, DbclQuery, Entry};
use metaeval::{MetaEvaluator, UnfoldLimits};
use optimizer::{Simplifier, SimplifyConfig, SimplifyOutcome, SimplifyStats};
use rqs::QueryMetrics;
use sqlgen::{translate_with_negation, MappingOptions};
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

    /// The empdep system over `rqs`, such as a database with a chosen
    /// pool.
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
        let goal = prolog::parse_term(goals_src)?;
        let goals = prolog::parser::flatten_conjunction(&goal);
        let meta = MetaEvaluator::with_limits(self.engine.kb(), &self.db, self.config.unfold);
        let outcome = meta.metaevaluate_terms(&goals, view_name)?;
        // Beside other conjuncts, a negation may narrow the answers below
        // the first conjunct's own; then they are not its facts.
        let install_facts = self.config.cache
            && (goals.len() == 1 || outcome.branches.iter().all(|b| b.negated.is_empty()));

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
        if install_facts {
            // The database-resolved predicate's facts are the *raw* answers;
            // residual goals restrict the conjunction, not the view itself.
            cache::install_facts(&self.engine, &goal, &raw_union);
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
        let mut trace = BranchTrace {
            dbcl_initial: branch.query.clone(),
            dbcl_optimized: None,
            empty_reason: None,
            simplify_stats: SimplifyStats::default(),
            sql: None,
            metrics: QueryMetrics::default(),
            raw_answers: 0,
            residual_filtered: 0,
            cache_hit: false,
        };
        // Until it is keyed, the positive side holds each link in a free
        // target slot, so no §6 rewrite drops the link's row.
        let mut query = branch.query.clone();
        let mut slots = Vec::with_capacity(branch.negated.len());
        for (link, _) in &branch.negated {
            let free = query.target.iter().position(|e| *e == Entry::Star);
            let slot = free.ok_or_else(|| CouplingError(format!("no target slot for {link}")))?;
            query.target[slot] = Entry::Sym(*link);
            slots.push(slot);
        }
        let mut negated = branch.negated.clone();

        // Local optimization (§6) of both sides. A rewrite that fixes a
        // link to a constant leaves its `NOT IN` no column, so that side
        // runs as metaevaluated.
        let mut simplified = false;
        if self.config.optimize {
            let simplifier =
                Simplifier::with_config(&self.db, &self.constraints, self.config.simplify);
            let unsimplified = (!slots.is_empty()).then(|| query.clone());
            query = match simplifier.simplify(query) {
                SimplifyOutcome::Simplified(q, stats)
                    if slots.iter().all(|&s| q.target[s].as_symbol().is_some()) =>
                {
                    trace.simplify_stats = stats;
                    simplified = true;
                    q
                }
                SimplifyOutcome::Simplified(..) => unsimplified.expect("only a link is fixed"),
                SimplifyOutcome::Empty(reason) => {
                    trace.empty_reason = Some(reason.to_string());
                    return Ok((trace, Vec::new(), Vec::new()));
                }
            };
            let mut kept = Vec::with_capacity(negated.len());
            for ((_, neg), &slot) in negated.into_iter().zip(&slots) {
                let neg = match simplifier.simplify(neg.clone()) {
                    // Only a constant can replace the target `t_link`.
                    SimplifyOutcome::Simplified(q, _) if q.target == neg.target => q,
                    SimplifyOutcome::Simplified(..) => neg,
                    // Nothing to exclude: the `NOT IN` would hold for every row.
                    SimplifyOutcome::Empty(_) => continue,
                };
                kept.push((query.target[slot].as_symbol().expect("checked above"), neg));
            }
            negated = kept;
        }
        let key = self
            .config
            .cache
            .then(|| cache::branch_key(&query, &negated));
        for &slot in &slots {
            query.target[slot] = Entry::Star;
        }
        if simplified {
            trace.dbcl_optimized = Some(query.clone());
        }

        // Global optimization: answer from the internal cache if possible.
        if let Some(answers) = key.as_deref().and_then(|k| self.cache.lookup(k)) {
            trace.cache_hit = true;
            trace.raw_answers = answers.len();
            // Residual goals still apply to cached tuples.
            let raw = answers.clone();
            let (answers, filtered) =
                stepwise::filter_residual(&self.engine, &branch.residual, answers)?;
            trace.residual_filtered = filtered;
            return Ok((trace, raw, answers));
        }

        // Translate (§5) and ship to the external DBMS. No DISTINCT:
        // `query` unions the branches through its own set.
        let sql = translate_with_negation(&query, &negated, &self.db, MappingOptions::default())?;
        let sql_text = sql.to_sql();
        trace.sql = Some(sql_text.clone());
        let result = self.rqs.execute(&sql_text)?;
        trace.metrics = result.metrics.clone();
        let answers = answers_from_result(&query, &result)?;
        trace.raw_answers = answers.len();
        if let Some(key) = key {
            self.cache.store(key, &answers);
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
        // Salary below the 10000 bound: contradiction, no SQL issued, and
        // a positive side proved empty ends its branch beside a negation.
        for goal in [
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 2000)",
            "empl(E, t_X, S, D), less(S, 2000), \\+ dept(_, _, E)",
        ] {
            let run = c.query(goal, "q").unwrap();
            assert!(run.answers.is_empty());
            assert!(run.branches[0].empty_reason.is_some());
            assert!(run.branches[0].sql.is_none());
        }
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

    /// §7's negation example through the one pipeline: "managers who do
    /// not manage Jones" — a branch with one `NOT IN`.
    #[test]
    fn negated_goal_runs_as_not_in() {
        let mut c = little_firm();
        let run = c
            .query(
                "dept(_, _, t_M), \\+ (empl(E, jones, _, D), dept(D, _, t_M))",
                "q",
            )
            .unwrap();
        let sql = run.branches[0].sql.as_deref().unwrap();
        assert!(sql.contains("v1.mgr NOT IN (SELECT"), "{sql}");
        assert_eq!(run.answers.len(), 1);
        assert_eq!(run.answers[0]["M"], Datum::Int(1)); // control, not smiley
    }

    /// A negated side proved empty drops its `NOT IN`: nobody earns below
    /// the 10000 salary bound, so both managers qualify.
    #[test]
    fn vacuous_negation_drops_not_in() {
        let mut c = little_firm();
        let run = c
            .query(
                "empl(t_M, N, S, D), dept(D2, F, t_M), \\+ (empl(t_M, N2, S2, D4), less(S2, 2000))",
                "q",
            )
            .unwrap();
        let sql = run.branches[0].sql.as_deref().unwrap();
        assert!(!sql.contains("NOT IN"), "{sql}");
        let mut managers: Vec<&Datum> = run.answers.iter().map(|a| &a["M"]).collect();
        managers.sort();
        assert_eq!(managers, [&Datum::Int(1), &Datum::Int(2)]);
    }

    /// A negation that mixes database goals with Prolog-only ones has no
    /// translation: an error, not a residual that fails open.
    #[test]
    fn negation_mixing_residual_goals_is_an_error() {
        let mut c = little_firm();
        c.consult("vip(control).").unwrap();
        let err = c.query(
            "empl(t_M, N, S, D), \\+ (empl(t_M, N2, S2, D2), vip(N2))",
            "q",
        );
        assert!(err.is_err());
    }

    /// §6 keeps the row holding a negation's link: refint would drop the
    /// `dept` row (its manager symbol occurs once in the positive side),
    /// and with it the column the `NOT IN` reads.
    #[test]
    fn the_link_survives_local_optimization() {
        for (negated, expected) in [
            // Every manager works in department 10.
            ("empl(M, _, _, 10)", &[][..]),
            // Department 10's manager is control, department 20's smiley.
            ("empl(M, smiley, _, _)", &["control", "smiley"][..]),
        ] {
            let goal = format!("empl(_, t_N, _, D), dept(D, _, M), \\+ {negated}");
            let mut c = little_firm();
            c.config.cache = false;
            let optimized = c.query(&goal, "q").unwrap();
            let kept = optimized.branches[0].dbcl_optimized.as_ref().unwrap();
            assert_eq!(kept.rows.len(), 2, "{kept}");
            c.config.optimize = false;
            let direct = c.query(&goal, "q").unwrap();
            assert_eq!(names(&optimized.answers, "N"), expected, "{goal}");
            assert_eq!(names(&direct.answers, "N"), expected, "{goal}");
        }
    }

    /// A rewrite that fixes a link to a constant leaves that side as
    /// metaevaluated, so its `NOT IN` keeps a column to read.
    #[test]
    fn a_link_fixed_to_a_constant_runs_unsimplified() {
        let mut c = little_firm();
        let run = c
            .query("empl(E, t_N, S, D), eq(E, 3), \\+ dept(_, _, E)", "q")
            .unwrap();
        assert!(run.branches[0].dbcl_optimized.is_none());
        assert_eq!(names(&run.answers, "N"), ["jones"]);
        let run = c
            .query("empl(E, t_N, S, D), \\+ (dept(_, _, E), eq(E, 2))", "q")
            .unwrap();
        let sql = run.branches[0].sql.as_deref().unwrap();
        assert!(sql.contains("(v2.mgr = 2)"), "{sql}");
        assert_eq!(
            names(&run.answers, "N"),
            ["control", "jones", "leamas", "miller"]
        );
    }

    /// The cache key covers the negated side: after the positive-only goal
    /// filled the cache, the negated goal misses it, then hits its own
    /// entry, and both runs answer as with the cache off.
    #[test]
    fn cached_negated_goal_answers_as_uncached() {
        let positive = "empl(E, t_N, S, D)";
        let negated = "empl(E, t_N, S, D), \\+ dept(_, _, E)";
        let mut c = little_firm();
        c.config.cache = false;
        let uncached = names(&c.query(negated, "q").unwrap().answers, "N");
        assert_eq!(uncached, ["jones", "leamas", "miller"]);
        c.config.cache = true;
        c.query(positive, "q").unwrap();
        let first = c.query(negated, "q").unwrap();
        assert!(!first.branches[0].cache_hit);
        let second = c.query(negated, "q").unwrap();
        assert!(second.branches[0].cache_hit);
        assert_eq!(names(&first.answers, "N"), uncached);
        assert_eq!(names(&second.answers, "N"), uncached);
    }

    /// A negated view's answers become its facts; a negation beside the
    /// first conjunct would leave that conjunct's facts incomplete, so
    /// none are installed.
    #[test]
    fn negated_answers_install_only_their_own_facts() {
        let mut c = little_firm();
        c.consult(
            "staff(N) :- empl(_, N, _, _).
             nonmanager(N) :- empl(E, N, _, _), \\+ dept(_, _, E).",
        )
        .unwrap();
        c.query("nonmanager(t_N)", "q").unwrap();
        assert!(c.engine.holds("nonmanager(jones).").unwrap());
        assert!(!c.engine.holds("nonmanager(control).").unwrap());
        let run = c
            .query("staff(t_N), \\+ (empl(E, t_N, _, _), dept(_, _, E))", "q")
            .unwrap();
        assert_eq!(names(&run.answers, "N"), ["jones", "leamas", "miller"]);
        assert!(c.engine.query_all("staff(X).").unwrap().is_empty());
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
