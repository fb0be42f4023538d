//! View unfolding: simulating Prolog's deduction without executing
//! database goals.
//!
//! The unfolder runs a depth-first SLD-style expansion in which
//! base-relation goals and comparison goals are *collected* instead of
//! solved. Each complete expansion path becomes one conjunctive branch.
//! Recursive predicates are expanded up to a configurable depth,
//! producing the naive query sequence of Example 7-1.
//!
//! A negated goal `\+ G` is collected too. Once its path is complete, `G`
//! is unfolded on its own; each of its branches becomes a negation linked
//! to the path by the one variable they share, so `\+ (A ; B)` yields two
//! (De Morgan). A `G` over knowledge-base facts alone stays residue, since
//! Prolog holds every fact it reads; any other `\+` is an error.

use crate::{MetaError, Result};
use dbcl::DatabaseDef;
use prolog::unify::Bindings;
use prolog::{Atom, KnowledgeBase, PredKey, Term, VarId};
use std::collections::HashMap;

/// Expansion limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnfoldLimits {
    /// Maximum number of times a recursive predicate may be re-entered on
    /// one branch (= number of generated sequence steps).
    pub max_recursion_depth: usize,
    /// Upper bound on generated branches (guards against clause blowup).
    pub max_branches: usize,
}

impl Default for UnfoldLimits {
    fn default() -> Self {
        UnfoldLimits {
            max_recursion_depth: 4,
            max_branches: 256,
        }
    }
}

/// A fully resolved conjunctive expansion path.
#[derive(Debug, Clone, PartialEq)]
pub struct RawBranch {
    /// Collected base-relation goals, in encounter order.
    pub dbcalls: Vec<Term>,
    /// Collected comparison goals.
    pub comparisons: Vec<Term>,
    /// Goals neither the database nor the knowledge base can handle.
    pub residual: Vec<Term>,
    /// Resolved value of every target variable, by name (without `t_`).
    pub targets: Vec<(String, Term)>,
    /// Number of recursive re-entries along this path.
    pub recursion_level: usize,
    /// One entry per branch of each `\+ G`: the variable `G` shares with
    /// this branch's dbcalls, and `G`'s branch, whose target `link` is it.
    pub negated: Vec<(VarId, RawBranch)>,
}

/// Unfolding result.
#[derive(Debug, Clone, PartialEq)]
pub struct UnfoldResult {
    pub branches: Vec<RawBranch>,
    pub recursive: bool,
    pub truncated: bool,
}

/// Comparison predicates collected into `Relcomparisons`; both the paper's
/// names and the operator spellings are accepted.
pub fn comparison_op(name: &str) -> Option<dbcl::CompOp> {
    use dbcl::CompOp::*;
    Some(match name {
        "less" | "<" => Less,
        "greater" | ">" => Greater,
        "leq" | "=<" => Leq,
        "geq" | ">=" => Geq,
        "eq" | "=:=" => Eq,
        "neq" | "=\\=" | "\\==" => Neq,
        _ => return None,
    })
}

/// The goals collected along the current expansion path.
#[derive(Default)]
struct Collected {
    dbcalls: Vec<Term>,
    comps: Vec<Term>,
    residual: Vec<Term>,
    /// `\+ G` goals, resolved when the path is complete.
    negated: Vec<Term>,
}

struct Unfolder<'a> {
    kb: &'a KnowledgeBase,
    db: &'a DatabaseDef,
    limits: UnfoldLimits,
    bindings: Bindings,
    targets: Vec<(String, VarId)>,
    branches: Vec<RawBranch>,
    recursive: bool,
    truncated: bool,
    /// Set inside a negated goal, where a nested `\+` has no translation.
    negating: bool,
}

/// Replaces `t_…` atoms by shared fresh variables, recording the mapping.
fn lift_targets(term: &Term, bindings: &mut Bindings, targets: &mut Vec<(String, VarId)>) -> Term {
    match term {
        Term::Atom(a) => {
            if let Some(name) = a.as_str().strip_prefix("t_") {
                if let Some((_, v)) = targets.iter().find(|(n, _)| n == name) {
                    return Term::Var(*v);
                }
                let v = VarId(bindings.alloc(1));
                targets.push((name.to_owned(), v));
                Term::Var(v)
            } else {
                term.clone()
            }
        }
        Term::Struct(f, args) => Term::Struct(
            *f,
            args.iter()
                .map(|t| lift_targets(t, bindings, targets))
                .collect(),
        ),
        other => other.clone(),
    }
}

impl<'a> Unfolder<'a> {
    fn is_relation(&self, name: Atom, arity: usize) -> bool {
        self.db
            .relation(name)
            .is_some_and(|rel| rel.arity() == arity)
    }

    fn capture(&mut self, acc: &Collected, negated: Vec<(VarId, RawBranch)>, level: usize) {
        if self.branches.len() >= self.limits.max_branches {
            self.truncated = true;
            return;
        }
        let resolve_all =
            |terms: &[Term], b: &Bindings| terms.iter().map(|t| b.resolve(t)).collect();
        self.branches.push(RawBranch {
            dbcalls: resolve_all(&acc.dbcalls, &self.bindings),
            comparisons: resolve_all(&acc.comps, &self.bindings),
            residual: resolve_all(&acc.residual, &self.bindings),
            targets: self
                .targets
                .iter()
                .map(|(name, v)| (name.clone(), self.bindings.resolve(&Term::Var(*v))))
                .collect(),
            recursion_level: level,
            negated,
        });
    }

    /// A complete expansion path: translates its negated goals against
    /// the positive side collected beside them, then records the branch.
    fn finish(&mut self, acc: &mut Collected, level: usize) -> Result<()> {
        if let (true, Some(goal)) = (self.negating, acc.negated.first()) {
            return Err(MetaError(format!("cannot translate nested {goal}")));
        }
        let residual_len = acc.residual.len();
        let mut negated = Vec::new();
        for goal in acc.negated.clone() {
            negated.extend(self.negate(&goal, acc)?);
        }
        self.capture(acc, negated, level);
        acc.residual.truncate(residual_len);
        Ok(())
    }

    /// Unfolds the `G` of `goal` = `\+ G` on its own, into the negations
    /// of the path — or, when `G` reads knowledge-base facts only, into
    /// the path's residue.
    fn negate(&mut self, goal: &Term, acc: &mut Collected) -> Result<Vec<(VarId, RawBranch)>> {
        let Term::Struct(_, args) = goal else {
            unreachable!("collected as \\+/1 or not/1")
        };
        let inner = self.bindings.resolve(&args[0]);
        let vars = |terms: &[Term]| {
            let mut out = Vec::new();
            for t in terms {
                self.bindings.resolve(t).visit(&mut |t| {
                    if let Term::Var(v) = t {
                        out.push(*v);
                    }
                });
            }
            out
        };
        let db_vars = vars(&acc.dbcalls);
        let other_vars = vars(&[acc.comps.as_slice(), &acc.residual].concat());
        let mut shared = vars(std::slice::from_ref(&inner));
        shared.retain(|v| db_vars.contains(v) || other_vars.contains(v));
        shared.sort();
        shared.dedup();
        let mut sub = Unfolder {
            bindings: self.bindings.clone(),
            targets: shared.iter().map(|v| ("link".to_owned(), *v)).collect(),
            branches: Vec::new(),
            recursive: false,
            truncated: false,
            negating: true,
            ..*self
        };
        sub.dfs(&[inner], &mut Collected::default(), &mut HashMap::new(), 0)?;

        let fail = |why: &str| Err(MetaError(format!("cannot translate {goal}: {why}")));
        let kb_only = |b: &RawBranch| b.dbcalls.is_empty() && b.comparisons.is_empty();
        if sub.recursive || sub.truncated {
            return fail("it recurses or exceeds the branch limit");
        } else if sub.branches.iter().all(kb_only) {
            acc.residual.push(goal.clone());
            return Ok(Vec::new());
        }
        let link = match shared[..] {
            [link] if db_vars.contains(&link) => link,
            [_] => return fail("no database goal binds the variable it shares"),
            _ => return fail("NOT IN needs it to share exactly one variable"),
        };
        if sub
            .branches
            .iter()
            .any(|b| b.dbcalls.is_empty() || !b.residual.is_empty())
        {
            return fail("each branch needs database goals and no Prolog-only goal");
        }
        Ok(sub.branches.into_iter().map(|b| (link, b)).collect())
    }

    fn dfs(
        &mut self,
        goals: &[Term],
        acc: &mut Collected,
        active: &mut HashMap<PredKey, usize>,
        level: usize,
    ) -> Result<()> {
        if self.branches.len() >= self.limits.max_branches {
            self.truncated = true;
            return Ok(());
        }
        let Some((goal, rest)) = goals.split_first() else {
            return self.finish(acc, level);
        };
        let goal = self.bindings.deref(goal);
        let Some((name, arity)) = goal.functor() else {
            return Err(MetaError(format!("goal is not callable: {goal}")));
        };
        let name_str = name.as_str();

        // Control constructs.
        match (name_str, arity) {
            // Call-exit sentinel: the body of the predicate named in the
            // sentinel has been fully consumed, so its activation ends here
            // (re-opened on backtrack).
            ("$pop", 2) => {
                let Term::Struct(_, args) = &goal else {
                    unreachable!("functor checked")
                };
                let (Term::Atom(pname), Term::Int(parity)) = (&args[0], &args[1]) else {
                    return Err(MetaError(format!("malformed sentinel {goal}")));
                };
                let key = PredKey {
                    name: *pname,
                    arity: *parity as usize,
                };
                *active.get_mut(&key).expect("sentinel for active call") -= 1;
                self.dfs(rest, acc, active, level)?;
                *active.get_mut(&key).expect("sentinel for active call") += 1;
                return Ok(());
            }
            ("true", 0) | ("!", 0) => {
                // Cut is a search-control device; the collected query is
                // set-oriented, so it is a no-op here (§7 discusses richer
                // treatments).
                return self.dfs(rest, acc, active, level);
            }
            (",", 2) => {
                let Term::Struct(_, args) = &goal else {
                    unreachable!("functor checked")
                };
                let mut expanded = prolog::parser::flatten_conjunction(&args[0]);
                expanded.extend(prolog::parser::flatten_conjunction(&args[1]));
                expanded.extend_from_slice(rest);
                return self.dfs(&expanded, acc, active, level);
            }
            (";", 2) => {
                let Term::Struct(_, args) = &goal else {
                    unreachable!("functor checked")
                };
                for side in [&args[0], &args[1]] {
                    let mut expanded = prolog::parser::flatten_conjunction(side);
                    expanded.extend_from_slice(rest);
                    self.dfs(&expanded, acc, active, level)?;
                }
                return Ok(());
            }
            ("=", 2) => {
                let Term::Struct(_, args) = &goal else {
                    unreachable!("functor checked")
                };
                let mark = self.bindings.mark();
                if self.bindings.unify(&args[0], &args[1]) {
                    self.dfs(rest, acc, active, level)?;
                }
                self.bindings.undo_to(mark);
                return Ok(());
            }
            // Negation: complemented once the whole path is collected.
            ("\\+", 1) | ("not", 1) => {
                acc.negated.push(goal.clone());
                self.dfs(rest, acc, active, level)?;
                acc.negated.pop();
                return Ok(());
            }
            _ => {}
        }

        // Base relation: collect, don't execute.
        if self.is_relation(name, arity) {
            acc.dbcalls.push(goal.clone());
            self.dfs(rest, acc, active, level)?;
            acc.dbcalls.pop();
            return Ok(());
        }
        // Comparison: collect into Relcomparisons.
        if arity == 2 && comparison_op(name_str).is_some() {
            acc.comps.push(goal.clone());
            self.dfs(rest, acc, active, level)?;
            acc.comps.pop();
            return Ok(());
        }
        // View defined in the knowledge base: unfold through its clauses.
        //
        // Only *rule* clauses (and non-ground fact schemas) are intensional
        // view definitions. Ground facts are extensional internal data —
        // either user knowledge like `specialist(jones, guns)` or answers
        // the coupling layer cached back into the knowledge base — and are
        // evaluated by the Prolog engine, not compiled into database calls.
        let key = PredKey { name, arity };
        let clauses = self.kb.clauses(key);
        let rule_clauses: Vec<usize> = clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !(c.body.is_empty() && c.head.is_ground()))
            .map(|(i, _)| i)
            .collect();
        if self.kb.defines(key) && !rule_clauses.is_empty() {
            let depth = active.entry(key).or_insert(0);
            let reentry = *depth > 0;
            if reentry {
                self.recursive = true;
            }
            if *depth >= self.limits.max_recursion_depth {
                self.truncated = true;
                return Ok(()); // prune this branch
            }
            *depth += 1;
            // Closes this activation once the body goals are consumed, so
            // sibling calls later in the conjunction do not look recursive.
            let sentinel = Term::app("$pop", vec![Term::Atom(name), Term::Int(arity as i64)]);
            for &idx in &rule_clauses {
                let clause = &clauses[idx];
                let mark = self.bindings.mark();
                let slots = self.bindings.len();
                let base = self.bindings.alloc(clause.nvars);
                let head = clause.head.offset_vars(base);
                if self.bindings.unify(&goal, &head) {
                    let mut expanded: Vec<Term> =
                        clause.body.iter().map(|g| g.offset_vars(base)).collect();
                    expanded.push(sentinel.clone());
                    expanded.extend_from_slice(rest);
                    let next_level = if reentry { level + 1 } else { level };
                    self.dfs(&expanded, acc, active, next_level)?;
                }
                self.bindings.undo_to(mark);
                self.bindings.truncate(slots);
            }
            *active.get_mut(&key).expect("just inserted") -= 1;
            return Ok(());
        }
        // Anything else: residual goal for stepwise evaluation (§7).
        acc.residual.push(goal.clone());
        self.dfs(rest, acc, active, level)?;
        acc.residual.pop();
        Ok(())
    }
}

/// Unfolds variable-free goals (with `t_…` target atoms) into raw branches.
pub fn unfold(
    kb: &KnowledgeBase,
    db: &DatabaseDef,
    goals: &[Term],
    limits: UnfoldLimits,
) -> Result<UnfoldResult> {
    let mut bindings = Bindings::new();
    // Pre-allocate slots for ordinary variables already present in goals.
    let max_var = goals.iter().filter_map(Term::max_var).max();
    if let Some(m) = max_var {
        bindings.alloc(m + 1);
    }
    let mut targets = Vec::new();
    let lifted: Vec<Term> = goals
        .iter()
        .map(|g| lift_targets(g, &mut bindings, &mut targets))
        .collect();
    let mut unfolder = Unfolder {
        kb,
        db,
        limits,
        bindings,
        targets,
        branches: Vec::new(),
        recursive: false,
        truncated: false,
        negating: false,
    };
    unfolder.dfs(&lifted, &mut Collected::default(), &mut HashMap::new(), 0)?;
    Ok(UnfoldResult {
        branches: unfolder.branches,
        recursive: unfolder.recursive,
        truncated: unfolder.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog::Engine;

    fn setup(src: &str) -> (Engine, DatabaseDef) {
        let mut engine = Engine::new();
        engine.consult(src).unwrap();
        (engine, DatabaseDef::empdep())
    }

    fn unfold_src(engine: &Engine, db: &DatabaseDef, src: &str) -> UnfoldResult {
        let term = prolog::parse_term(src).unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        unfold(engine.kb(), db, &goals, UnfoldLimits::default()).unwrap()
    }

    #[test]
    fn collects_direct_relation_goal() {
        let (engine, db) = setup("");
        let out = unfold_src(&engine, &db, "empl(E, t_X, S, D)");
        assert_eq!(out.branches.len(), 1);
        assert_eq!(out.branches[0].dbcalls.len(), 1);
        assert!(!out.recursive);
        // Target recorded and still unbound.
        assert_eq!(out.branches[0].targets.len(), 1);
        assert_eq!(out.branches[0].targets[0].0, "X");
    }

    #[test]
    fn unfolds_view_body() {
        let (engine, db) = setup(crate::views::WORKS_DIR_FOR);
        let out = unfold_src(&engine, &db, "works_dir_for(t_nam, smiley)");
        assert_eq!(out.branches.len(), 1);
        let b = &out.branches[0];
        assert_eq!(b.dbcalls.len(), 3);
        // The constant smiley flowed into the third dbcall.
        assert!(b.dbcalls[2].to_string().contains("smiley"));
    }

    #[test]
    fn equality_goal_unifies() {
        let (engine, db) = setup("");
        let out = unfold_src(&engine, &db, "X = smiley, empl(E, X, S, D)");
        assert_eq!(out.branches.len(), 1);
        assert!(out.branches[0].dbcalls[0].to_string().contains("smiley"));
    }

    #[test]
    fn failed_equality_kills_branch() {
        let (engine, db) = setup("");
        let out = unfold_src(&engine, &db, "smiley = jones, empl(E, t_X, S, D)");
        assert!(out.branches.is_empty());
    }

    #[test]
    fn disjunction_in_goal_splits() {
        let (engine, db) = setup("");
        let out = unfold_src(&engine, &db, "(empl(E, t_X, S, D) ; dept(D2, t_X, M))");
        assert_eq!(out.branches.len(), 2);
    }

    #[test]
    fn shared_target_atom_is_one_variable() {
        let (engine, db) = setup("");
        let out = unfold_src(&engine, &db, "empl(E, t_X, S, D), dept(D, t_X, M)");
        // t_X appears in both dbcalls as the same variable.
        let b = &out.branches[0];
        let d0 = b.dbcalls[0].to_string();
        let d1 = b.dbcalls[1].to_string();
        let var0 = d0.split(", ").nth(1).unwrap().to_owned();
        assert!(d1.contains(&var0));
    }

    #[test]
    fn recursion_depth_limit_respected() {
        let (engine, db) = setup(crate::views::WORKS_FOR);
        let term = prolog::parse_term("works_for(t_P, smiley)").unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(
            engine.kb(),
            &db,
            &goals,
            UnfoldLimits {
                max_recursion_depth: 2,
                max_branches: 100,
            },
        )
        .unwrap();
        assert!(out.recursive);
        assert!(out.truncated);
        assert_eq!(out.branches.len(), 2);
        assert_eq!(out.branches[0].recursion_level, 0);
        assert_eq!(out.branches[1].recursion_level, 1);
    }

    #[test]
    fn branch_cap_truncates() {
        let (engine, db) = setup(
            "p(X) :- empl(_, X, _, _).
             p(X) :- dept(_, X, _).",
        );
        let term = prolog::parse_term("p(t_A), p(t_B), p(t_C)").unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(
            engine.kb(),
            &db,
            &goals,
            UnfoldLimits {
                max_recursion_depth: 4,
                max_branches: 5,
            },
        )
        .unwrap();
        assert!(out.truncated);
        assert_eq!(out.branches.len(), 5);
    }

    #[test]
    fn cut_ignored_true_skipped() {
        let (engine, db) = setup("q(X) :- empl(_, X, _, _), !, true.");
        let out = unfold_src(&engine, &db, "q(t_X)");
        assert_eq!(out.branches.len(), 1);
        assert_eq!(out.branches[0].dbcalls.len(), 1);
    }

    /// A negation is resolved once its path is complete, so a `\+` before
    /// the goal that binds its variable still links to it.
    #[test]
    fn negation_links_to_goals_after_it() {
        let (engine, db) = setup("");
        let out = unfold_src(&engine, &db, "\\+ dept(_, _, E), empl(E, t_X, S, D)");
        let b = &out.branches[0];
        assert_eq!(b.negated.len(), 1);
        let (link, neg) = &b.negated[0];
        let Term::Struct(_, args) = &b.dbcalls[0] else {
            panic!("empl call expected")
        };
        assert_eq!(args[0], Term::Var(*link));
        assert_eq!(neg.dbcalls.len(), 1);
        assert!(b.residual.is_empty());
    }

    #[test]
    fn arity_mismatch_is_not_a_relation() {
        let (engine, db) = setup("");
        // empl/2 is not the 4-ary base relation → residual.
        let out = unfold_src(&engine, &db, "empl(t_X, smiley)");
        assert_eq!(out.branches[0].dbcalls.len(), 0);
        assert_eq!(out.branches[0].residual.len(), 1);
    }
}

#[cfg(test)]
mod fact_skipping_tests {
    use super::*;
    use prolog::Engine;

    /// Ground facts in the knowledge base (user knowledge or cached query
    /// answers) are extensional: the unfolder must not compile them into
    /// database calls, and a purely extensional predicate is residue.
    #[test]
    fn pure_fact_predicate_is_residual() {
        let mut engine = Engine::new();
        engine
            .consult("specialist(jones, guns). specialist(miller, driving).")
            .unwrap();
        let db = DatabaseDef::empdep();
        let term = prolog::parse_term("empl(E, t_X, S, D), specialist(t_X, driving)").unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(engine.kb(), &db, &goals, UnfoldLimits::default()).unwrap();
        assert_eq!(out.branches.len(), 1);
        assert_eq!(out.branches[0].residual.len(), 1);
    }

    /// Cached ground answers alongside a view definition do not multiply
    /// or corrupt the unfolding (the post-caching re-query scenario).
    #[test]
    fn cached_facts_beside_view_are_ignored() {
        let mut engine = Engine::new();
        engine
            .consult(
                "works_dir_for(X, Y) :- empl(_, X, _, D), dept(D, _, M), empl(M, Y, _, _).
                 works_dir_for(jones, smiley).
                 works_dir_for(miller, smiley).",
            )
            .unwrap();
        let db = DatabaseDef::empdep();
        let term = prolog::parse_term("works_dir_for(t_X, smiley)").unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(engine.kb(), &db, &goals, UnfoldLimits::default()).unwrap();
        assert_eq!(out.branches.len(), 1, "only the rule clause unfolds");
        assert_eq!(out.branches[0].dbcalls.len(), 3);
    }

    /// Non-ground facts are schemas, not data: they still unfold.
    #[test]
    fn non_ground_fact_unfolds() {
        let mut engine = Engine::new();
        engine.consult("anyone(X).").unwrap();
        let db = DatabaseDef::empdep();
        let term = prolog::parse_term("empl(E, t_X, S, D), anyone(t_X)").unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(engine.kb(), &db, &goals, UnfoldLimits::default()).unwrap();
        assert_eq!(out.branches.len(), 1);
        assert!(out.branches[0].residual.is_empty());
    }
}
