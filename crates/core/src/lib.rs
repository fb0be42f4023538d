//! The end-to-end facade of the optimizing Prolog front-end.
//!
//! [`Session`] wires the whole Figure-1 architecture together:
//!
//! ```text
//!   PROLOG (tuple-at-a-time, recursive views)
//!      │ metaevaluate: collect database requests
//!      ▼
//!   DBCL (set-oriented, base relations, Prolog syntax)
//!      │ local optimize: §6 syntactic + semantic simplification
//!      │ global optimize: cache / recursion / batching
//!      ▼
//!   SQL → relational query system
//! ```
//!
//! ```
//! use pfe_core::Session;
//!
//! let mut session = Session::empdep();
//! session.consult(pfe_core::views::WORKS_DIR_FOR).unwrap();
//! session.load_empl(&[(1, "control", 80000, 10), (2, "smiley", 60000, 10),
//!                     (3, "jones", 30000, 20)]).unwrap();
//! session.load_dept(&[(10, "hq", 1), (20, "field", 2)]).unwrap();
//! session.check_integrity().unwrap();
//!
//! let run = session.query("works_dir_for(t_X, smiley)", "q").unwrap();
//! assert_eq!(run.answers.len(), 1); // jones
//! ```

pub use coupling::{Answer, BranchTrace, Coupler, CouplerConfig, CouplingError, QueryRun, Result};
pub use dbcl::{ConstraintSet, DatabaseDef, DbclQuery};
pub use metaeval::views;
pub use rqs::Datum;

use std::fmt::Write as _;

/// A coupled Prolog/RQS session: the library's main entry point.
///
/// Thin, documented wrapper over [`coupling::Coupler`] adding loading
/// conveniences and human-readable pipeline reports (the Appendix
/// transcript format).
pub struct Session {
    coupler: Coupler,
}

/// A session over an already-built coupler, such as one over a
/// database with a chosen pool ([`Coupler::empdep_over`]).
impl From<Coupler> for Session {
    fn from(coupler: Coupler) -> Session {
        Session { coupler }
    }
}

impl Session {
    /// A session over the paper's `empdep` database and Example 3-2
    /// constraints, on the paged storage engine ([`rqs::Database::new`]:
    /// slotted heap pages behind a buffer pool, B+-tree indexes), so
    /// query metrics report `page_reads`/`buffer_hits` — the paper's I/O
    /// cost model.
    pub fn empdep() -> Session {
        Session::from(Coupler::empdep())
    }

    /// Like [`Session::empdep`], with a `pool_pages`-frame buffer pool.
    pub fn empdep_paged(pool_pages: usize) -> Session {
        let rqs = rqs::Database::paged(pool_pages).expect("an in-memory paged database opens");
        Session::from(Coupler::empdep_over(rqs))
    }

    /// A session over an arbitrary schema/constraint pair.
    pub fn new(db: DatabaseDef, constraints: ConstraintSet) -> Result<Session> {
        Coupler::new(db, constraints).map(Session::from)
    }

    /// The underlying coupler, for full control.
    pub fn coupler(&self) -> &Coupler {
        &self.coupler
    }

    pub fn coupler_mut(&mut self) -> &mut Coupler {
        &mut self.coupler
    }

    /// Pipeline configuration (optimization toggles, recursion depth…).
    pub fn config_mut(&mut self) -> &mut CouplerConfig {
        &mut self.coupler.config
    }

    /// Loads Prolog views/facts into the internal knowledge base.
    pub fn consult(&mut self, source: &str) -> Result<()> {
        self.coupler.consult(source)
    }

    /// Loads `empl(eno, nam, sal, dno)` tuples (empdep sessions).
    pub fn load_empl(&mut self, rows: &[(i64, &str, i64, i64)]) -> Result<()> {
        for &(eno, nam, sal, dno) in rows {
            self.coupler.load_tuple(
                "empl",
                &[
                    Datum::Int(eno),
                    Datum::text(nam),
                    Datum::Int(sal),
                    Datum::Int(dno),
                ],
            )?;
        }
        Ok(())
    }

    /// Loads `dept(dno, fct, mgr)` tuples (empdep sessions).
    pub fn load_dept(&mut self, rows: &[(i64, &str, i64)]) -> Result<()> {
        for &(dno, fct, mgr) in rows {
            self.coupler.load_tuple(
                "dept",
                &[Datum::Int(dno), Datum::text(fct), Datum::Int(mgr)],
            )?;
        }
        Ok(())
    }

    /// Loads one tuple into any relation.
    pub fn load(&mut self, relation: &str, values: &[Datum]) -> Result<()> {
        self.coupler.load_tuple(relation, values)
    }

    /// Re-validates all integrity constraints after bulk loading.
    pub fn check_integrity(&self) -> Result<()> {
        self.coupler.check_integrity()
    }

    /// Runs a query through the full pipeline. Goals use the paper's
    /// variable-free convention: `t_X` atoms are targets.
    pub fn query(&mut self, goals: &str, view_name: &str) -> Result<QueryRun> {
        self.coupler.query(goals, view_name)
    }

    /// Runs a query and renders an Appendix-style transcript of every
    /// pipeline stage (metaevaluated DBCL, optimized DBCL, SQL, metrics).
    pub fn explain(&mut self, goals: &str, view_name: &str) -> Result<String> {
        let run = self.coupler.query(goals, view_name)?;
        let mut out = String::new();
        let _ = writeln!(out, "?- metaevaluate({view_name}, [{goals}], DBCL).");
        for (i, branch) in run.branches.iter().enumerate() {
            if run.branches.len() > 1 {
                let _ = writeln!(out, "% branch {}", i + 1);
            }
            let _ = writeln!(out, "\nDBCL =\n{}", branch.dbcl_initial);
            if let Some(optimized) = &branch.dbcl_optimized {
                if optimized != &branch.dbcl_initial {
                    let _ = writeln!(out, "\n% after local optimization (§6):\n{optimized}");
                    let s = &branch.simplify_stats;
                    let _ = writeln!(
                        out,
                        "% rows removed: {} (chase {}, refint {}, minimize {}); \
                         comparisons removed: {}; symbols merged: {}",
                        s.rows_removed(),
                        s.rows_removed_chase,
                        s.rows_removed_refint,
                        s.rows_removed_minimize,
                        s.comparisons_removed,
                        s.symbols_merged,
                    );
                }
            }
            if let Some(reason) = &branch.empty_reason {
                let _ = writeln!(out, "\n% result provably empty: {reason}");
            }
            if let Some(sql) = &branch.sql {
                let _ = writeln!(out, "\n{sql}");
                let m = &branch.metrics;
                let _ = writeln!(
                    out,
                    "\n% executed: {} scan(s), {} row(s) scanned, {} join(s), {} answer(s)",
                    m.scans, m.rows_scanned, m.joins, branch.raw_answers
                );
            } else if branch.cache_hit {
                let _ = writeln!(out, "\n% answered from the internal result cache");
            }
        }
        let _ = writeln!(out, "\n% {} answer(s)", run.answers.len());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn little_session() -> Session {
        let mut s = Session::empdep();
        s.load_empl(&[
            (1, "control", 80_000, 10),
            (2, "smiley", 60_000, 10),
            (3, "jones", 30_000, 20),
            (4, "miller", 25_000, 20),
            (5, "leamas", 35_000, 20),
        ])
        .unwrap();
        s.load_dept(&[(10, "hq", 1), (20, "field", 2)]).unwrap();
        s.check_integrity().unwrap();
        s
    }

    #[test]
    fn every_default_constructor_runs_on_the_paged_engine() {
        let custom = Session::new(DatabaseDef::empdep(), ConstraintSet::empdep()).unwrap();
        for s in [Session::empdep(), custom] {
            // The schema DDL reached the engine's own catalog.
            let engine = s.coupler().rqs.engine();
            assert!(engine.has_table("empl") && engine.has_table("dept"));
        }
    }

    #[test]
    fn session_end_to_end() {
        let mut s = little_session();
        s.consult(views::SAME_MANAGER).unwrap();
        let run = s.query("same_manager(t_X, jones)", "same_manager").unwrap();
        assert_eq!(run.answers.len(), 2);
    }

    #[test]
    fn explain_renders_all_stages() {
        let mut s = little_session();
        s.consult(views::SAME_MANAGER).unwrap();
        let text = s
            .explain("same_manager(t_X, jones)", "same_manager")
            .unwrap();
        assert!(text.contains("DBCL ="), "{text}");
        assert!(text.contains("after local optimization"), "{text}");
        assert!(text.contains("SELECT"), "{text}");
        assert!(text.contains("rows removed: 4"), "{text}");
        assert!(text.contains("2 answer(s)"), "{text}");
    }

    #[test]
    fn explain_notes_empty_results() {
        let mut s = little_session();
        s.consult(views::WORKS_DIR_FOR).unwrap();
        let text = s
            .explain(
                "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 2000)",
                "q",
            )
            .unwrap();
        assert!(text.contains("provably empty"), "{text}");
        assert!(text.contains("0 answer(s)"), "{text}");
    }

    #[test]
    fn explain_notes_cache_hits() {
        let mut s = little_session();
        s.consult(views::WORKS_DIR_FOR).unwrap();
        s.query("works_dir_for(t_X, smiley)", "q").unwrap();
        let text = s.explain("works_dir_for(t_X, smiley)", "q").unwrap();
        assert!(text.contains("internal result cache"), "{text}");
    }

    #[test]
    fn config_toggles_optimization() {
        let mut s = little_session();
        s.consult(views::SAME_MANAGER).unwrap();
        s.config_mut().optimize = false;
        let run = s.query("same_manager(t_X, jones)", "same_manager").unwrap();
        assert!(run.branches[0].dbcl_optimized.is_none());
        assert_eq!(run.answers.len(), 2);
    }
}
