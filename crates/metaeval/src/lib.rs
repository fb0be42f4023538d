//! PROLOG → DBCL translation (§4 of the paper): the `metaevaluate`
//! predicate.
//!
//! "The function of metaevaluate is to delay the execution of
//! database-related clauses in PROLOG, and to collect the related database
//! calls for set-oriented processing. … the most important function of
//! metaevaluate is the simulation of PROLOG's deduction procedure in order
//! to translate the view."
//!
//! Given a knowledge base of view definitions and the database schema,
//! [`MetaEvaluator::metaevaluate`] unfolds a (variable-free) goal list
//! into one or more conjunctive DBCL queries:
//!
//! * base-relation goals are **collected**, not executed;
//! * comparison goals are collected into `Relcomparisons` ("moved to the
//!   end of the predicate by goal reordering \[Warren 1981\]");
//! * other predicates defined in the knowledge base are **unfolded**
//!   through their clauses — several clauses yield several conjunctive
//!   branches (a disjunction);
//! * recursive views yield a *sequence* of DBCL statements, one per
//!   unfolding depth (Example 7-1's growing query chain);
//! * predicates known to neither the database nor the knowledge base are
//!   returned as **residue** for the coupling layer's stepwise evaluation
//!   (§7);
//! * a negated goal `\+ G` over database relations becomes one **negated**
//!   query per branch of `G`, linked by the one variable they share (§7's
//!   `NOT IN`); over knowledge-base facts alone it stays residue.
//!
//! ```
//! use metaeval::{MetaEvaluator, views};
//! use dbcl::DatabaseDef;
//! use prolog::Engine;
//!
//! let mut engine = Engine::new();
//! engine.consult(views::WORKS_DIR_FOR).unwrap();
//! let db = DatabaseDef::empdep();
//! let meta = MetaEvaluator::new(engine.kb(), &db);
//! let out = meta.metaevaluate("works_dir_for(t_nam, smiley)", "works_dir_for").unwrap();
//! assert_eq!(out.branches.len(), 1);
//! assert_eq!(out.branches[0].query.rows.len(), 3);
//! ```

pub mod rename;
pub mod unfold;
pub mod views;

use dbcl::{DatabaseDef, DbclQuery, Symbol};
use prolog::{KnowledgeBase, Term};

pub use unfold::UnfoldLimits;

/// Errors raised during metaevaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaError(pub String);

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metaevaluation error: {}", self.0)
    }
}

impl std::error::Error for MetaError {}

impl From<prolog::PrologError> for MetaError {
    fn from(e: prolog::PrologError) -> Self {
        MetaError(e.to_string())
    }
}

impl From<dbcl::DbclError> for MetaError {
    fn from(e: dbcl::DbclError) -> Self {
        MetaError(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, MetaError>;

/// One conjunctive branch of the metaevaluated goal.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaBranch {
    /// The collected set-oriented database call.
    pub query: DbclQuery,
    /// Negated database calls (§7), one per branch of each `\+ G`: the
    /// link, a symbol of `query`'s rows, and a query whose one target
    /// `t_link` stands for it. Rows of `query` whose link value a negated
    /// query returns are no answers (SQL's `NOT IN`).
    pub negated: Vec<(Symbol, DbclQuery)>,
    /// Goals the database cannot evaluate (general Prolog predicates);
    /// empty for pure database queries. Symbols shared with `query` appear
    /// in their `t_`/`v_` spelling.
    pub residual: Vec<Term>,
    /// How many times a recursive clause was applied along this branch
    /// (0 for non-recursive queries; Example 7-1's step number).
    pub recursion_level: usize,
}

impl MetaBranch {
    /// The `dbcall/…` list shown in the Appendix transcript:
    /// `[dbcall(empl, v_eno1, t_nam, v_sal1, v_dno1), …]`.
    pub fn dbcall_terms(&self) -> Vec<Term> {
        self.query
            .rows
            .iter()
            .map(|row| {
                let mut args = vec![Term::Atom(row.relation)];
                for entry in &row.entries {
                    if !matches!(entry, dbcl::Entry::Star) {
                        args.push(entry.to_term());
                    }
                }
                let (head, rest) = args.split_first().expect("relation name present");
                let Term::Atom(rel) = head else {
                    unreachable!("first arg is the relation")
                };
                Term::Struct(prolog::Atom::new("dbcall"), {
                    let mut v = vec![Term::Atom(*rel)];
                    v.extend(rest.iter().cloned());
                    v
                })
            })
            .collect()
    }
}

/// The full result of metaevaluating a goal list.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaOutcome {
    /// Conjunctive branches (one per clause combination; a recursive view
    /// produces one branch per unfolding depth — "a sequence of DBCL
    /// statements is generated").
    pub branches: Vec<MetaBranch>,
    /// Whether a recursive predicate was encountered.
    pub recursive: bool,
    /// Whether some branches were cut off by the depth limit (always true
    /// for genuinely recursive views — the sequence is infinite).
    pub truncated: bool,
}

/// The metaevaluator: a knowledge base of views plus the database schema.
pub struct MetaEvaluator<'a> {
    kb: &'a KnowledgeBase,
    db: &'a DatabaseDef,
    limits: UnfoldLimits,
}

impl<'a> MetaEvaluator<'a> {
    pub fn new(kb: &'a KnowledgeBase, db: &'a DatabaseDef) -> Self {
        MetaEvaluator {
            kb,
            db,
            limits: UnfoldLimits::default(),
        }
    }

    pub fn with_limits(kb: &'a KnowledgeBase, db: &'a DatabaseDef, limits: UnfoldLimits) -> Self {
        MetaEvaluator { kb, db, limits }
    }

    pub fn limits(&self) -> UnfoldLimits {
        self.limits
    }

    /// Metaevaluates a goal list given as source text in the paper's
    /// variable-free convention: atoms starting `t_` are target variables,
    /// other atoms are constants. `view_name` names the resulting query.
    pub fn metaevaluate(&self, goals_src: &str, view_name: &str) -> Result<MetaOutcome> {
        let term = prolog::parse_term(goals_src)?;
        let goals = prolog::parser::flatten_conjunction(&term);
        self.metaevaluate_terms(&goals, view_name)
    }

    /// Metaevaluates already-parsed variable-free goal terms.
    pub fn metaevaluate_terms(&self, goals: &[Term], view_name: &str) -> Result<MetaOutcome> {
        let unfolded = unfold::unfold(self.kb, self.db, goals, self.limits)?;
        let mut branches = Vec::with_capacity(unfolded.branches.len());
        for branch in &unfolded.branches {
            branches.push(rename::branch_to_dbcl(branch, self.db, view_name)?);
        }
        Ok(MetaOutcome {
            branches,
            recursive: unfolded.recursive,
            truncated: unfolded.truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::Entry;
    use prolog::Engine;

    fn fixture(source: &str) -> (Engine, DatabaseDef) {
        let mut engine = Engine::new();
        engine.consult(source).unwrap();
        (engine, DatabaseDef::empdep())
    }

    /// Appendix: works_dir_for(t_nam, smiley) → three dbcalls.
    #[test]
    fn appendix_works_dir_for() {
        let (engine, db) = fixture(views::WORKS_DIR_FOR);
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate("works_dir_for(t_nam, smiley)", "works_dir_for")
            .unwrap();
        assert_eq!(out.branches.len(), 1);
        assert!(!out.recursive);
        let q = &out.branches[0].query;
        q.validate(&db).unwrap();
        assert_eq!(q.rows.len(), 3);
        assert_eq!(q.rows[0].relation.as_str(), "empl");
        assert_eq!(q.rows[1].relation.as_str(), "dept");
        assert_eq!(q.rows[2].relation.as_str(), "empl");
        // smiley pinned in row 3's nam column.
        assert_eq!(q.rows[2].entries[1], Entry::sym_const("smiley"));
        // t_nam in row 1's nam column and in the target list.
        assert_eq!(q.rows[0].entries[1], Entry::target("nam"));
        assert_eq!(q.target[1], Entry::target("nam"));
        // dbcall list shape of the transcript.
        let dbcalls = out.branches[0].dbcall_terms();
        assert_eq!(dbcalls.len(), 3);
        assert!(dbcalls[0].to_string().starts_with("dbcall(empl, "));
        assert!(dbcalls[1].to_string().starts_with("dbcall(dept, "));
    }

    /// Example 3-3: view + extra relation goal + comparison.
    #[test]
    fn example_3_3_query() {
        let (engine, db) = fixture(views::WORKS_DIR_FOR);
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate(
                "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 40000)",
                "works_dir_for",
            )
            .unwrap();
        assert_eq!(out.branches.len(), 1);
        let q = &out.branches[0].query;
        q.validate(&db).unwrap();
        assert_eq!(q.rows.len(), 4);
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].op, dbcl::CompOp::Less);
    }

    /// Example 4-1: same_manager(t_X, jones) → six rows plus neq.
    #[test]
    fn example_4_1_same_manager() {
        let (engine, db) = fixture(views::SAME_MANAGER);
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate("same_manager(t_X, jones)", "same_manager")
            .unwrap();
        assert_eq!(out.branches.len(), 1);
        let q = &out.branches[0].query;
        q.validate(&db).unwrap();
        assert_eq!(q.rows.len(), 6, "query:\n{q}");
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].op, dbcl::CompOp::Neq);
        // The shared manager-name variable joins rows 3 and 6.
        assert_eq!(q.rows[2].entries[1], q.rows[5].entries[1]);
    }

    /// Uppercase variables in the goal text behave like v_ variables.
    #[test]
    fn plain_variables_allowed_in_goals() {
        let (engine, db) = fixture(views::WORKS_DIR_FOR);
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate("empl(E, t_X, S, D), less(S, 40000)", "q")
            .unwrap();
        let q = &out.branches[0].query;
        assert_eq!(q.rows.len(), 1);
        assert_eq!(q.comparisons.len(), 1);
    }

    /// A view with two clauses produces two conjunctive branches.
    #[test]
    fn disjunctive_view_two_branches() {
        let (engine, db) = fixture(
            "cheap_or_hq(X) :- empl(_, X, S, _), less(S, 20000).
             cheap_or_hq(X) :- empl(_, X, _, D), dept(D, hq, _).",
        );
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate("cheap_or_hq(t_X)", "cheap_or_hq")
            .unwrap();
        assert_eq!(out.branches.len(), 2);
        assert_eq!(out.branches[0].query.rows.len(), 1);
        assert_eq!(out.branches[0].query.comparisons.len(), 1);
        assert_eq!(out.branches[1].query.rows.len(), 2);
    }

    /// Example 7-1: works_for unfolds into the naive query sequence —
    /// 3, 6, 9, … rows.
    #[test]
    fn recursive_view_generates_sequence() {
        let (engine, db) = fixture(views::WORKS_FOR);
        let meta = MetaEvaluator::with_limits(
            engine.kb(),
            &db,
            UnfoldLimits {
                max_recursion_depth: 3,
                ..UnfoldLimits::default()
            },
        );
        let out = meta
            .metaevaluate("works_for(t_People, smiley)", "works_for")
            .unwrap();
        assert!(out.recursive);
        assert!(out.truncated);
        assert_eq!(out.branches.len(), 3);
        let sizes: Vec<usize> = out.branches.iter().map(|b| b.query.rows.len()).collect();
        assert_eq!(sizes, [3, 6, 9], "each step adds one works_dir_for body");
        let levels: Vec<usize> = out.branches.iter().map(|b| b.recursion_level).collect();
        assert_eq!(levels, [0, 1, 2]);
        for b in &out.branches {
            b.query.validate(&db).unwrap();
        }
    }

    /// Example 4-1's partner rule: specialist/2 is neither a relation nor
    /// a view → residual goal for stepwise evaluation.
    #[test]
    fn unknown_predicate_becomes_residue() {
        let (engine, db) = fixture(views::SAME_MANAGER);
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate(
                "same_manager(t_X, jones), specialist(t_X, driving)",
                "partner",
            )
            .unwrap();
        assert_eq!(out.branches.len(), 1);
        let b = &out.branches[0];
        assert_eq!(b.query.rows.len(), 6);
        assert_eq!(b.residual.len(), 1);
        assert_eq!(b.residual[0].to_string(), "specialist(t_X, driving)");
    }

    /// Finding 7's view: `\+ manages(E)` becomes a negated query linked
    /// by E, not a residual Prolog would prove over no `dept` facts.
    #[test]
    fn negated_view_becomes_a_negated_query() {
        let (engine, db) = fixture(
            "manages(M) :- dept(_, _, M).
             nonmanager(N) :- empl(E, N, _, _), \\+ manages(E).",
        );
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta.metaevaluate("nonmanager(t_N)", "q").unwrap();
        assert_eq!(out.branches.len(), 1);
        let b = &out.branches[0];
        assert!(b.residual.is_empty());
        assert_eq!(b.negated.len(), 1);
        let (link, neg) = &b.negated[0];
        neg.validate(&db).unwrap();
        assert_eq!(neg.rows.len(), 1);
        assert_eq!(neg.rows[0].relation.as_str(), "dept");
        // E links the positive empl.eno to the negated dept.mgr, the one
        // target.
        assert_eq!(b.query.rows[0].entries[0], Entry::Sym(*link));
        assert_eq!(neg.rows[0].entries[5], Entry::target("link"));
        assert_eq!(neg.target[5], Entry::target("link"));
        assert_eq!(neg.target.iter().filter(|e| **e != Entry::Star).count(), 1);
    }

    /// `\+ (A ; B)` is two negated queries on one branch (De Morgan).
    #[test]
    fn negated_disjunction_is_two_negated_queries() {
        let (engine, db) = fixture("");
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate(
                "empl(E, t_N, S, D), \\+ (dept(_, hq, E) ; dept(_, field, E))",
                "q",
            )
            .unwrap();
        assert_eq!(out.branches.len(), 1);
        let negated = &out.branches[0].negated;
        assert_eq!(negated.len(), 2);
        assert_eq!(negated[0].1.rows[0].entries[4], Entry::sym_const("hq"));
        assert_eq!(negated[1].1.rows[0].entries[4], Entry::sym_const("field"));
    }

    /// A negation over knowledge-base facts alone stays residue: Prolog
    /// holds every fact it reads.
    #[test]
    fn negated_fact_predicate_stays_residue() {
        let (engine, db) = fixture("vip(control).");
        let meta = MetaEvaluator::new(engine.kb(), &db);
        let out = meta
            .metaevaluate("empl(E, t_X, S, D), \\+ vip(t_X)", "q")
            .unwrap();
        let b = &out.branches[0];
        assert!(b.negated.is_empty());
        assert_eq!(b.residual.len(), 1);
        assert_eq!(b.residual[0].to_string(), "\\+(vip(t_X))");
    }

    /// Every `\+` with no translation is an error, never a residual.
    #[test]
    fn untranslatable_negations_are_errors() {
        let (engine, db) = fixture(
            "vip(control).
             manages(M) :- dept(_, _, M).",
        );
        let engine_wf = {
            let mut e = Engine::new();
            e.consult(views::WORKS_FOR).unwrap();
            e
        };
        let meta = MetaEvaluator::new(engine.kb(), &db);
        for goal in [
            // No variable shared with the positive side.
            "empl(E, t_N, S, D), \\+ dept(_, _, _)",
            // Two shared variables.
            "empl(E, t_N, S, D), \\+ dept(D, _, E)",
            // Database and Prolog-only goals mixed.
            "empl(E, t_N, S, D), \\+ (dept(_, _, E), vip(E))",
            // The shared variable is bound by no database goal.
            "empl(E, t_N, S, D), vip(X), \\+ dept(_, _, X)",
            // Nested negation.
            "empl(E, t_N, S, D), \\+ (dept(D2, _, E), \\+ empl(_, _, _, D2))",
            // A comparison alone.
            "empl(E, t_N, S, D), \\+ less(S, 30000)",
        ] {
            assert!(meta.metaevaluate(goal, "q").is_err(), "{goal}");
        }
        // A negated recursive view.
        let meta = MetaEvaluator::new(engine_wf.kb(), &db);
        let err = meta.metaevaluate("empl(E, t_N, S, D), \\+ works_for(t_N, smiley)", "q");
        assert!(err.is_err());
    }

    #[test]
    fn database_independent_comparison_becomes_residue() {
        let (engine, db) = fixture(views::WORKS_DIR_FOR);
        let meta = MetaEvaluator::new(engine.kb(), &db);
        // L never touches a database relation: the comparison is internal
        // computation and must be evaluated stepwise, not shipped as SQL.
        let out = meta
            .metaevaluate("empl(E, t_X, S, D), name_length(t_X, L), less(L, 6)", "q")
            .unwrap();
        let b = &out.branches[0];
        assert_eq!(b.query.comparisons.len(), 0);
        assert_eq!(b.residual.len(), 2);
        assert!(
            b.residual[1].to_string().starts_with("less("),
            "{:?}",
            b.residual
        );
    }
}
