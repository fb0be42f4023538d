//! Tableau cell entries and the variable-free symbol discipline.
//!
//! §3: "Constants are translated into themselves. Universally quantified
//! variables of the original goal clause are preceded by a `t_` (these
//! variables denote the target attributes of the query). Other variables
//! are preceded by a `v_` and a number is appended to them to distinguish
//! between different variables addressing the same attribute."

use prolog::{Atom, Term};
use std::fmt;

/// A database constant: a symbol (e.g. `smiley`) or an integer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    Sym(Atom),
    Int(i64),
}

impl Value {
    pub fn sym(name: &str) -> Value {
        Value::Sym(Atom::new(name))
    }

    /// The integer payload, when numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Sym(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(a) => write!(f, "{a}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

/// A named DBCL symbol: either a target variable (`t_Name`) or an ordinary
/// one (`v_Name`). Names keep the disambiguating suffix (`Eno1` vs `Eno4`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Symbol {
    /// `t_Name`: denotes a target attribute of the query.
    Target(Atom),
    /// `v_Name`: an existential variable.
    Var(Atom),
}

impl Symbol {
    pub fn target(name: &str) -> Symbol {
        Symbol::Target(Atom::new(name))
    }

    pub fn var(name: &str) -> Symbol {
        Symbol::Var(Atom::new(name))
    }

    /// Base name without the `t_`/`v_` marker.
    pub fn name(&self) -> Atom {
        match self {
            Symbol::Target(a) | Symbol::Var(a) => *a,
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Symbol::Target(a) => write!(f, "t_{a}"),
            Symbol::Var(a) => write!(f, "v_{a}"),
        }
    }
}

/// One cell of a tableau row or target list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Entry {
    /// `*`: the attribute does not apply to this row's relation.
    Star,
    /// A named symbol (`t_…` or `v_…`).
    Sym(Symbol),
    /// A constant.
    Const(Value),
}

impl Entry {
    pub fn target(name: &str) -> Entry {
        Entry::Sym(Symbol::target(name))
    }

    pub fn var(name: &str) -> Entry {
        Entry::Sym(Symbol::var(name))
    }

    pub fn int(i: i64) -> Entry {
        Entry::Const(Value::Int(i))
    }

    pub fn sym_const(name: &str) -> Entry {
        Entry::Const(Value::sym(name))
    }

    /// The symbol inside, when this entry is one.
    pub fn as_symbol(&self) -> Option<Symbol> {
        match self {
            Entry::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// Reads an entry from its Prolog-term spelling: `*`, `t_…`, `v_…`,
    /// other atoms/integers as constants.
    pub fn from_term(term: &Term) -> crate::Result<Entry> {
        match term {
            Term::Int(i) => Ok(Entry::Const(Value::Int(*i))),
            Term::Atom(a) => {
                let name = a.as_str();
                if name == "*" {
                    Ok(Entry::Star)
                } else if let Some(rest) = name.strip_prefix("t_") {
                    Ok(Entry::target(rest))
                } else if let Some(rest) = name.strip_prefix("v_") {
                    Ok(Entry::var(rest))
                } else {
                    Ok(Entry::Const(Value::Sym(*a)))
                }
            }
            other => Err(crate::DbclError(format!(
                "tableau entries must be atoms or integers, got {other}"
            ))),
        }
    }

    /// The Prolog-term spelling of this entry.
    pub fn to_term(&self) -> Term {
        match self {
            Entry::Star => Term::atom("*"),
            Entry::Sym(s) => Term::atom(&s.to_string()),
            Entry::Const(Value::Sym(a)) => Term::Atom(*a),
            Entry::Const(Value::Int(i)) => Term::Int(*i),
        }
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entry::Star => f.write_str("*"),
            Entry::Sym(s) => write!(f, "{s}"),
            Entry::Const(v) => write!(f, "{v}"),
        }
    }
}

impl From<Symbol> for Entry {
    fn from(s: Symbol) -> Entry {
        Entry::Sym(s)
    }
}

impl From<Value> for Entry {
    fn from(v: Value) -> Entry {
        Entry::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog::parse_term;

    #[test]
    fn entry_from_term_classifies() {
        let cases = [
            ("*", Entry::Star),
            ("t_X", Entry::target("X")),
            ("v_Eno1", Entry::var("Eno1")),
            ("smiley", Entry::sym_const("smiley")),
        ];
        for (src, want) in cases {
            assert_eq!(Entry::from_term(&parse_term(src).unwrap()).unwrap(), want);
        }
        assert_eq!(
            Entry::from_term(&Term::Int(40000)).unwrap(),
            Entry::int(40000)
        );
    }

    #[test]
    fn entry_term_round_trip() {
        for src in ["*", "t_X", "v_Eno1", "smiley", "40000"] {
            let term = parse_term(src).unwrap();
            let entry = Entry::from_term(&term).unwrap();
            assert_eq!(entry.to_term(), term, "round trip of {src}");
        }
    }

    #[test]
    fn compound_entry_rejected() {
        assert!(Entry::from_term(&parse_term("f(1)").unwrap()).is_err());
    }

    #[test]
    fn symbol_display_has_marker() {
        assert_eq!(Symbol::target("X").to_string(), "t_X");
        assert_eq!(Symbol::var("Eno1").to_string(), "v_Eno1");
    }

    #[test]
    fn symbols_with_same_name_different_kind_differ() {
        assert_ne!(Symbol::target("X"), Symbol::var("X"));
        assert_eq!(Symbol::target("X").name(), Symbol::var("X").name());
    }

    #[test]
    fn value_as_int() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::sym("a").as_int(), None);
    }
}
