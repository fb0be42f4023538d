//! A compact Prolog engine.
//!
//! This crate implements the logic-programming substrate that the 1984
//! Jarke/Clifford/Vassiliou paper assumes: a Prolog with SLD resolution,
//! cut, negation as failure, arithmetic, and an updatable clause store
//! (the "internal database" of the coupling architecture).
//!
//! The engine is deliberately an interpreter, not a WAM: the paper's
//! front-end manipulates programs as data (the DBCL meta-language is a
//! variable-free subset of Prolog), so a term-rewriting interpreter with
//! first-class [`Term`]s is the natural substrate.
//!
//! # Quick tour
//!
//! ```
//! use prolog::{Engine, Term};
//!
//! let mut engine = Engine::new();
//! engine.consult(
//!     "parent(tom, bob).
//!      parent(bob, ann).
//!      grandparent(X, Z) :- parent(X, Y), parent(Y, Z).",
//! ).unwrap();
//!
//! let solutions = engine.query_all("grandparent(tom, Who).").unwrap();
//! assert_eq!(solutions.len(), 1);
//! assert_eq!(solutions[0].get("Who").unwrap(), &Term::atom("ann"));
//! ```

pub mod error;
pub mod intern;
pub mod kb;
pub mod parser;
pub mod prelude;
pub mod pretty;
pub mod solve;
pub mod term;
pub mod unify;

pub use error::{PrologError, Result};
pub use intern::Atom;
pub use kb::{Clause, KnowledgeBase, PredKey};
pub use parser::{parse_program, parse_query, parse_term};
pub use solve::{Solution, Solver};
pub use term::{Term, VarId};

use std::collections::BTreeMap;

/// A ready-to-use Prolog engine: a knowledge base plus query helpers.
///
/// [`Engine`] is the top-level convenience wrapper. Lower-level control
/// (streaming solutions, custom var bindings) is available through
/// [`Solver`] directly.
#[derive(Debug, Default)]
pub struct Engine {
    kb: KnowledgeBase,
}

impl Engine {
    /// Creates an engine with an empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a shared reference to the underlying knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Loads a Prolog program (a sequence of clauses) into the knowledge base.
    pub fn consult(&mut self, source: &str) -> Result<()> {
        for clause in parse_program(source)? {
            self.kb.assertz(clause);
        }
        Ok(())
    }

    /// Runs a query and collects every solution.
    ///
    /// Each [`Solution`] maps the query's named variables to ground (or
    /// partially ground) terms.
    pub fn query_all(&self, source: &str) -> Result<Vec<Solution>> {
        let (goals, vars) = parse_query(source)?;
        let mut solver = Solver::new(&self.kb, goals, vars);
        let mut out = Vec::new();
        while let Some(sol) = solver.next_solution()? {
            out.push(sol);
        }
        Ok(out)
    }

    /// Runs a query and returns the first solution, if any.
    pub fn query_first(&self, source: &str) -> Result<Option<Solution>> {
        let (goals, vars) = parse_query(source)?;
        let mut solver = Solver::new(&self.kb, goals, vars);
        solver.next_solution()
    }

    /// Returns `true` when the query has at least one solution.
    pub fn holds(&self, source: &str) -> Result<bool> {
        Ok(self.query_first(source)?.is_some())
    }

    /// Runs a pre-parsed goal list against the knowledge base.
    pub fn solve_goals(&self, goals: Vec<Term>) -> Result<Vec<BTreeMap<String, Term>>> {
        let vars = collect_named_vars(&goals);
        let mut solver = Solver::new(&self.kb, goals, vars);
        let mut out = Vec::new();
        while let Some(sol) = solver.next_solution()? {
            out.push(sol.into_bindings());
        }
        Ok(out)
    }
}

/// Collects `(name, VarId)` pairs for every distinct named variable in `goals`.
///
/// Variable ids inside pre-built goal terms are assumed to already be
/// globally numbered (as produced by [`parse_query`] or manual construction).
pub fn collect_named_vars(goals: &[Term]) -> Vec<(String, VarId)> {
    let mut seen = std::collections::BTreeMap::new();
    for goal in goals {
        goal.visit(&mut |t| {
            if let Term::Var(v) = t {
                seen.entry(*v).or_insert_with(|| format!("_G{}", v.0));
            }
        });
    }
    seen.into_iter().map(|(v, name)| (name, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_basic_family() {
        let mut e = Engine::new();
        e.consult(
            "parent(tom, bob). parent(tom, liz). parent(bob, ann).
             grandparent(X, Z) :- parent(X, Y), parent(Y, Z).",
        )
        .unwrap();
        let sols = e.query_all("grandparent(tom, W).").unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get("W").unwrap(), &Term::atom("ann"));
    }

    #[test]
    fn engine_holds() {
        let mut e = Engine::new();
        e.consult("p(1). p(2).").unwrap();
        assert!(e.holds("p(1).").unwrap());
        assert!(!e.holds("p(3).").unwrap());
    }

    #[test]
    fn engine_query_first_none() {
        let e = Engine::new();
        assert!(e.query_first("unknown_pred(X).").unwrap().is_none());
    }
}
