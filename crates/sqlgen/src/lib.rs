//! DBCL → SQL translation (§5 of the paper).
//!
//! "The algorithm just has to fill in the information from the DBCL
//! tableau into the `SELECT…FROM…WHERE…` pattern" — six rules, reproduced
//! one-for-one in [`mapping`]:
//!
//! 1. each `Relreferences` row becomes a FROM-clause range variable;
//! 2. target-list entries become SELECT items named by the first row in
//!    which the same entry appears;
//! 3. constants in rows become equality restrictions;
//! 4. repeated `t_`/`v_` symbols become equijoin terms;
//! 5. each `Relcomparisons` row becomes a restriction or join term located
//!    by first occurrence;
//! 6. non-repeated variables simply do not appear.
//!
//! The result is an explicit SQL syntax tree ([`ast::SqlQuery`]) — the
//! Appendix's `select/from/where` term — printed to SQL text for the
//! relational query system. Since only function-free conjunctive queries
//! are translated, "the generated queries do not require nesting". §7's
//! disjunction needs no SQL of its own: each conjunctive branch is one
//! query, and the coupler unions the answers. §7's negation nests one
//! `NOT IN` subquery per negated query of a branch
//! ([`translate_with_negation`]).

pub mod ast;
pub mod mapping;

pub use ast::{SqlColumn, SqlCond, SqlOp, SqlQuery, SqlTerm};
pub use mapping::{translate, translate_with_negation, MappingOptions};

/// Errors raised during SQL generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlGenError(pub String);

impl std::fmt::Display for SqlGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL generation error: {}", self.0)
    }
}

impl std::error::Error for SqlGenError {}

impl From<dbcl::DbclError> for SqlGenError {
    fn from(e: dbcl::DbclError) -> Self {
        SqlGenError(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, SqlGenError>;
