//! DBCL — the intermediate language of database calls (§3 of the paper).
//!
//! DBCL is a *variable-free subset of Prolog* "designed to be similar to
//! tableaux": a conjunctive database query is a predicate
//!
//! ```text
//! dbcl(Schema, Targetlist, Relreferences, Relcomparisons)
//! ```
//!
//! where `Schema` names the database and its attribute columns,
//! `Targetlist` gives the result schema, `Relreferences` is a list of
//! tagged tableau rows (one per relation variable, `*` marking
//! non-applicable attributes, repeated symbols denoting equijoins), and
//! `Relcomparisons` lists inequality restrictions and joins.
//!
//! Because DBCL statements are ordinary Prolog terms, this crate parses
//! them with the [`prolog`] reader and converts to/from a typed tableau
//! model ([`DbclQuery`]). The crate also owns the pieces both sides of the
//! coupling share: the database schema description ([`DatabaseDef`]) and
//! the three §3 integrity-constraint forms ([`constraints`]).
//!
//! # Grammar (Figure 2)
//!
//! The figure in the surviving scan of the paper is not legible; this BNF
//! is reconstructed from the prose of §3 and every example in the paper.
//! "In general a DBCL statement may contain references to arbitrary
//! PROLOG predicates as well as negation and disjunction":
//!
//! ```text
//! <statement>      ::= <metaterm> | <statement> ";" <statement>
//!                    | "not(" <statement> ")" | <predreference>
//! <metaterm>       ::= "dbcl(" <schema> "," <targetlist> ","
//!                              <relreferences> "," <relcomparisons> ")"
//! <schema>         ::= "[" <dbname> { "," <attribute> } "]"
//! <targetlist>     ::= "[" <viewname> { "," <entry> } "]"
//! <relreferences>  ::= "[" { <relreference> } "]"
//! <relreference>   ::= "[" <relname> { "," <entry> } "]"
//! <relcomparisons> ::= "[" { <relcomparison> } "]"
//! <relcomparison>  ::= "[" <compop> "," <operand> "," <operand> "]"
//! <compop>         ::= "less" | "greater" | "leq" | "geq" | "eq" | "neq"
//! <entry>          ::= "*" | <operand>
//! <operand>        ::= <tvariable> | <vvariable> | <constant>
//! <tvariable>      ::= "t_" <name>          ; target attribute of the query
//! <vvariable>      ::= "v_" <name>          ; numbered to distinguish variables
//! <constant>       ::= <atom> | <integer>
//! <predreference>  ::= <prolog term>        ; arbitrary embedded predicate
//! ```
//!
//! [`DbclQuery`] is one `<metaterm>`, the conjunctive subset the §6
//! optimizer works on. Metaevaluation splits a `;` into branches, puts a
//! `not(…)` beside a branch as negated metaterms, and leaves a
//! `<predreference>` as a residual Prolog goal.
//!
//! ```
//! use dbcl::{DbclQuery, DatabaseDef};
//!
//! let db = DatabaseDef::empdep();
//! let q = DbclQuery::parse(
//!     "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
//!           [who, *, t_X, *, *, *, *],
//!           [[empl, v_Eno, t_X, v_Sal, v_D, *, *]],
//!           [[less, v_Sal, 40000]])",
//! ).unwrap();
//! q.validate(&db).unwrap();
//! assert_eq!(q.rows.len(), 1);
//! ```

pub mod constraints;
pub mod convert;
pub mod schema;
pub mod symbol;
pub mod tableau;

pub use constraints::{Constraint, ConstraintSet, FuncDep, RefInt, ValueBound};
pub use schema::{AttrType, DatabaseDef, RelationDef};
pub use symbol::{Entry, Symbol, Value};
pub use tableau::{CompOp, Comparison, DbclQuery, Loc, Operand, Row};

/// Error type for DBCL parsing/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbclError(pub String);

impl std::fmt::Display for DbclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DBCL error: {}", self.0)
    }
}

impl std::error::Error for DbclError {}

impl From<prolog::PrologError> for DbclError {
    fn from(e: prolog::PrologError) -> Self {
        DbclError(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, DbclError>;
