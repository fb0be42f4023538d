//! Binding store and unification.
//!
//! Bindings live in a growable slot array; a trail records which slots each
//! unification bound so backtracking can undo them in O(undone work).
//! Unification performs the occurs check: the front-end manipulates queries
//! as data and must never build cyclic terms.

use crate::term::{Term, VarId};

/// A mutable binding environment with a trail for backtracking.
#[derive(Clone, Default, Debug)]
pub struct Bindings {
    slots: Vec<Option<Term>>,
    trail: Vec<u32>,
}

impl Bindings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variable slots allocated so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Allocates `n` fresh unbound variables, returning the first id.
    pub fn alloc(&mut self, n: u32) -> u32 {
        let first = self.slots.len() as u32;
        self.slots.resize(self.slots.len() + n as usize, None);
        first
    }

    /// Current trail height; pass to [`Bindings::undo_to`] to backtrack.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undoes all bindings made since `mark`.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let slot = self.trail.pop().expect("trail underflow");
            self.slots[slot as usize] = None;
        }
    }

    /// Shrinks the slot array to `len` slots. Only valid when every slot
    /// beyond `len` is unbound (i.e. after `undo_to` of the matching mark).
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.slots[len..].iter().all(Option::is_none));
        self.slots.truncate(len);
    }

    fn bind(&mut self, var: VarId, term: Term) {
        debug_assert!(self.slots[var.0 as usize].is_none(), "rebinding bound var");
        self.slots[var.0 as usize] = Some(term);
        self.trail.push(var.0);
    }

    /// Follows variable chains one level at a time until hitting a non-var
    /// term or an unbound variable. Returns a clone of the representative.
    pub fn deref(&self, term: &Term) -> Term {
        let mut cur = term.clone();
        loop {
            match cur {
                Term::Var(v) => match &self.slots[v.0 as usize] {
                    Some(t) => cur = t.clone(),
                    None => return Term::Var(v),
                },
                other => return other,
            }
        }
    }

    /// Fully applies the bindings to `term`, producing a term whose only
    /// variables are unbound ones.
    pub fn resolve(&self, term: &Term) -> Term {
        match self.deref(term) {
            Term::Struct(f, args) => {
                Term::Struct(f, args.iter().map(|a| self.resolve(a)).collect())
            }
            other => other,
        }
    }

    /// Does unbound variable `v` occur in (the resolved form of) `term`?
    fn occurs(&self, v: VarId, term: &Term) -> bool {
        match self.deref(term) {
            Term::Var(w) => v == w,
            Term::Struct(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }

    /// Unifies `a` and `b`, binding variables as needed.
    ///
    /// On failure the caller must [`Bindings::undo_to`] its own mark;
    /// partial bindings from the failed attempt remain trailed.
    pub fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let a = self.deref(a);
        let b = self.deref(b);
        match (a, b) {
            (Term::Var(v), Term::Var(w)) if v == w => true,
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if self.occurs(v, &t) {
                    return false;
                }
                self.bind(v, t);
                true
            }
            (Term::Atom(x), Term::Atom(y)) => x == y,
            (Term::Int(x), Term::Int(y)) => x == y,
            (Term::Struct(f, xs), Term::Struct(g, ys)) => {
                f == g && xs.len() == ys.len() && xs.iter().zip(&ys).all(|(x, y)| self.unify(x, y))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    fn vars(b: &mut Bindings, n: u32) -> Vec<Term> {
        let first = b.alloc(n);
        (first..first + n).map(|i| Term::Var(VarId(i))).collect()
    }

    #[test]
    fn unify_var_with_atom() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 1);
        assert!(b.unify(&v[0], &Term::atom("smiley")));
        assert_eq!(b.resolve(&v[0]), Term::atom("smiley"));
    }

    #[test]
    fn unify_structs() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 2);
        let lhs = Term::app("f", vec![v[0].clone(), Term::Int(1)]);
        let rhs = Term::app("f", vec![Term::atom("a"), v[1].clone()]);
        assert!(b.unify(&lhs, &rhs));
        assert_eq!(b.resolve(&v[0]), Term::atom("a"));
        assert_eq!(b.resolve(&v[1]), Term::Int(1));
    }

    #[test]
    fn unify_fails_on_clash() {
        let mut b = Bindings::new();
        assert!(!b.unify(&Term::atom("a"), &Term::atom("b")));
        assert!(!b.unify(&Term::Int(1), &Term::atom("a")));
        let f = parse_term("f(1)").unwrap();
        let g = parse_term("g(1)").unwrap();
        assert!(!b.unify(&f, &g));
    }

    #[test]
    fn arity_mismatch_fails() {
        let mut b = Bindings::new();
        let f1 = parse_term("f(1)").unwrap();
        let f2 = parse_term("f(1, 2)").unwrap();
        assert!(!b.unify(&f1, &f2));
    }

    #[test]
    fn occurs_check_blocks_cyclic_terms() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 1);
        let cyclic = Term::app("f", vec![v[0].clone()]);
        assert!(!b.unify(&v[0], &cyclic));
    }

    #[test]
    fn var_var_chains() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 3);
        assert!(b.unify(&v[0], &v[1]));
        assert!(b.unify(&v[1], &v[2]));
        assert!(b.unify(&v[2], &Term::Int(9)));
        assert_eq!(b.resolve(&v[0]), Term::Int(9));
    }

    #[test]
    fn backtracking_undoes_bindings() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 1);
        let mark = b.mark();
        assert!(b.unify(&v[0], &Term::Int(1)));
        b.undo_to(mark);
        assert!(b.unify(&v[0], &Term::Int(2)));
        assert_eq!(b.resolve(&v[0]), Term::Int(2));
    }

    #[test]
    fn failed_unify_then_undo_leaves_clean_state() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 2);
        let mark = b.mark();
        // First arg binds, second clashes.
        let lhs = Term::app("f", vec![v[0].clone(), Term::Int(1)]);
        let rhs = Term::app("f", vec![Term::atom("a"), Term::Int(2)]);
        assert!(!b.unify(&lhs, &rhs));
        b.undo_to(mark);
        assert_eq!(b.deref(&v[0]), v[0]);
        assert_eq!(b.deref(&v[1]), v[1]);
    }

    #[test]
    fn resolve_is_deep() {
        let mut b = Bindings::new();
        let v = vars(&mut b, 2);
        assert!(b.unify(&v[0], &Term::app("g", vec![v[1].clone()])));
        assert!(b.unify(&v[1], &Term::Int(5)));
        assert_eq!(b.resolve(&v[0]).to_string(), "g(5)");
    }
}
