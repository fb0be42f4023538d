//! The internal database of query answers (§2's global-optimize function).
//!
//! "An internal database system in the logic language can be used for
//! storing query answers from the external database. … a merge procedure
//! must be provided to combine internal and external database segments.
//! Our mechanism employs an internal DBMS because query results are
//! expected to be fairly small."
//!
//! Answers are cached twice: keyed by the *canonicalized* DBCL predicate
//! (so syntactic variants of one query hit), and — via
//! [`install_facts`] — as ordinary Prolog facts so plain resolution can
//! combine them with internal knowledge (the `partner` flow of
//! Example 4-1).

use crate::Answer;
use dbcl::{DbclQuery, Operand, Symbol};
use prolog::{Clause, Engine, Term};
use std::collections::HashMap;

/// Renames every `v_…` symbol to `v_1`, `v_2`, … by first occurrence
/// (target symbols keep their names: they are part of the interface) and
/// normalizes the view name, which is presentation only.
fn canonicalize(query: &DbclQuery) -> DbclQuery {
    let mut out = query.clone();
    out.view_name = prolog::Atom::new("q");
    // Collect in first-occurrence order from rows, then comparisons.
    let mut ordered: Vec<Symbol> = Vec::new();
    let push = |s: Symbol, ordered: &mut Vec<Symbol>| {
        if matches!(s, Symbol::Var(_)) && !ordered.contains(&s) {
            ordered.push(s);
        }
    };
    for row in &out.rows {
        for entry in &row.entries {
            if let Some(s) = entry.as_symbol() {
                push(s, &mut ordered);
            }
        }
    }
    for c in &out.comparisons {
        for operand in [&c.lhs, &c.rhs] {
            if let Operand::Sym(s) = operand {
                push(*s, &mut ordered);
            }
        }
    }
    // Two-phase rename so hand-written queries whose symbols are already
    // pure digits (v_2 before v_1, say) cannot collide mid-substitution.
    for (i, &sym) in ordered.iter().enumerate() {
        out.substitute(sym, &Operand::Sym(Symbol::var(&format!("canon tmp {i}"))));
    }
    for i in 0..ordered.len() {
        out.substitute(
            Symbol::var(&format!("canon tmp {i}")),
            &Operand::Sym(Symbol::var(&(i + 1).to_string())),
        );
    }
    out
}

/// The cache key of a branch: the canonical text of its positive query
/// (with every link held in the target list) and of each negated query,
/// joined at the target slot that holds its link.
pub fn branch_key(positive: &DbclQuery, negated: &[(Symbol, DbclQuery)]) -> String {
    let text = |q: &DbclQuery| canonicalize(q).to_term().to_string();
    let mut key = text(positive);
    for (link, neg) in negated {
        let slot = positive
            .target
            .iter()
            .position(|e| e.as_symbol() == Some(*link));
        key.push_str(&format!(" \\+{slot:?} {}", text(neg)));
    }
    key
}

/// Cache of externally computed answers, keyed by [`branch_key`].
#[derive(Debug, Default, Clone)]
pub struct QueryCache {
    entries: HashMap<String, Vec<Answer>>,
    hits: usize,
    misses: usize,
}

impl QueryCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks an optimized branch up by its [`branch_key`]; answer lists
    /// are cloned out (they are "fairly small" by the paper's working
    /// assumption).
    pub fn lookup(&mut self, key: &str) -> Option<Vec<Answer>> {
        match self.entries.get(key) {
            Some(answers) => {
                self.hits += 1;
                Some(answers.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores the answers of an executed branch under its [`branch_key`].
    pub fn store(&mut self, key: String, answers: &[Answer]) {
        self.entries.insert(key, answers.to_vec());
    }

    /// Merge procedure: combines another cache segment into this one;
    /// overlapping keys take the union of their answer sets.
    pub fn merge(&mut self, other: &QueryCache) {
        for (key, answers) in &other.entries {
            let slot = self.entries.entry(key.clone()).or_default();
            for a in answers {
                if !slot.contains(a) {
                    slot.push(a.clone());
                }
            }
        }
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn hits(&self) -> usize {
        self.hits
    }

    pub fn misses(&self) -> usize {
        self.misses
    }
}

/// Instantiates `goal_pattern` (a variable-free metaterm with `t_…` atoms)
/// with each answer and asserts the resulting ground facts into the
/// engine's knowledge base — the paper's "creation of instantiated
/// same_manager predicates in the internal PROLOG database".
///
/// Only callable single-predicate patterns are installed; conjunction
/// patterns would need clause bodies the internal engine re-derives anyway.
pub fn install_facts(engine: &Engine, goal_pattern: &Term, answers: &[Answer]) {
    // Use the first conjunct when the query was a conjunction.
    let pattern = match goal_pattern {
        Term::Struct(f, args) if f.as_str() == "," && args.len() == 2 => &args[0],
        other => other,
    };
    if pattern.functor().is_none() {
        return;
    }
    for answer in answers {
        let fact = instantiate(pattern, answer);
        if fact.is_ground() {
            // Avoid duplicate facts when the same query is re-asked.
            let clause = Clause::fact(fact);
            let key = prolog::PredKey::of(&clause.head).expect("callable checked");
            let already = engine
                .kb()
                .clauses(key)
                .iter()
                .any(|c| c.head == clause.head && c.body.is_empty());
            if !already {
                engine.kb().assertz(clause);
            }
        }
    }
}

fn instantiate(pattern: &Term, answer: &Answer) -> Term {
    match pattern {
        Term::Atom(a) => {
            if let Some(name) = a.as_str().strip_prefix("t_") {
                if let Some(datum) = answer.get(name) {
                    return crate::bridge::datum_to_term(datum);
                }
            }
            pattern.clone()
        }
        Term::Struct(f, args) => {
            Term::Struct(*f, args.iter().map(|t| instantiate(t, answer)).collect())
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::Entry;
    use rqs::Datum;

    fn answer(pairs: &[(&str, Datum)]) -> Answer {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn sample_query() -> DbclQuery {
        DbclQuery::example_4_1()
    }

    #[test]
    fn canonicalize_is_idempotent_and_rename_invariant() {
        let q = sample_query();
        let c1 = canonicalize(&q);
        assert_eq!(canonicalize(&c1), c1);
        let mut renamed = q.clone();
        renamed.substitute(
            Symbol::var("Eno1"),
            &Operand::Sym(Symbol::var("CompletelyDifferent")),
        );
        assert_ne!(renamed, q);
        assert_eq!(canonicalize(&renamed), c1);
    }

    #[test]
    fn canonicalize_keeps_targets() {
        let c = canonicalize(&sample_query());
        assert!(c.to_term().to_string().contains("t_X"));
    }

    #[test]
    fn store_lookup_hit_miss() {
        let mut cache = QueryCache::new();
        let key = branch_key(&sample_query(), &[]);
        assert!(cache.lookup(&key).is_none());
        cache.store(key.clone(), &[answer(&[("X", Datum::text("miller"))])]);
        assert_eq!(cache.lookup(&key).unwrap().len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn canonical_variants_share_entry() {
        let mut cache = QueryCache::new();
        let q = sample_query();
        cache.store(branch_key(&q, &[]), &[]);
        // Rename every v_ symbol; canonically the same query.
        let mut renamed = q.clone();
        for sym in q.symbols() {
            if let dbcl::Symbol::Var(a) = sym {
                renamed.substitute(
                    sym,
                    &dbcl::Operand::Sym(dbcl::Symbol::var(&format!("zz_{a}"))),
                );
            }
        }
        assert!(cache.lookup(&branch_key(&renamed, &[])).is_some());
    }

    /// A negated query is part of the key, and so is the slot that holds
    /// its link: a hit never serves answers without their `NOT IN`.
    #[test]
    fn negated_queries_and_their_links_are_keyed() {
        let mut positive = sample_query();
        let negated = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [same_manager, *, *, *, *, *, t_link],
                  [[dept, *, *, *, v_D9, v_F9, t_link]],
                  [])",
        )
        .unwrap();
        let negated = [(Symbol::var("M1"), negated)];
        let alone = branch_key(&positive, &[]);
        positive.target[4] = Entry::var("M1");
        let at_fct = branch_key(&positive, &negated);
        positive.target[4] = Entry::Star;
        positive.target[5] = Entry::var("M1");
        let at_mgr = branch_key(&positive, &negated);
        assert_ne!(alone, at_fct);
        assert_ne!(at_fct, at_mgr);
        assert!(at_mgr.contains("\\+Some(5)"), "{at_mgr}");
    }

    #[test]
    fn merge_unions_answers() {
        let mut a = QueryCache::new();
        let mut b = QueryCache::new();
        let key = branch_key(&sample_query(), &[]);
        let ans1 = answer(&[("X", Datum::text("miller"))]);
        let ans2 = answer(&[("X", Datum::text("leamas"))]);
        a.store(key.clone(), std::slice::from_ref(&ans1));
        b.store(key.clone(), &[ans1.clone(), ans2.clone()]);
        a.merge(&b);
        assert_eq!(a.lookup(&key).unwrap().len(), 2);
    }

    #[test]
    fn install_facts_asserts_ground_facts_once() {
        let engine = Engine::new();
        let pattern = prolog::parse_term("same_manager(t_X, jones)").unwrap();
        let answers = vec![
            answer(&[("X", Datum::text("miller"))]),
            answer(&[("X", Datum::text("leamas"))]),
        ];
        install_facts(&engine, &pattern, &answers);
        install_facts(&engine, &pattern, &answers); // idempotent
        let sols = engine.query_all("same_manager(W, jones).").unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn install_facts_uses_first_conjunct() {
        let engine = Engine::new();
        let pattern =
            prolog::parse_term("same_manager(t_X, jones), specialist(t_X, driving)").unwrap();
        install_facts(
            &engine,
            &pattern,
            &[answer(&[("X", Datum::text("miller"))])],
        );
        assert!(engine.holds("same_manager(miller, jones).").unwrap());
        assert!(!engine.holds("specialist(miller, driving).").unwrap());
    }

    #[test]
    fn integer_answers_become_integer_terms() {
        let engine = Engine::new();
        let pattern = prolog::parse_term("emp_no(t_E)").unwrap();
        install_facts(&engine, &pattern, &[answer(&[("E", Datum::Int(42))])]);
        assert!(engine.holds("emp_no(42).").unwrap());
    }
}
