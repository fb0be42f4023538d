//! RQS error type.

use std::fmt;

pub type RqsResult<T> = std::result::Result<T, RqsError>;

/// Errors surfaced by the relational query system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RqsError {
    /// SQL lexical/syntactic error.
    Syntax(String),
    /// Reference to an unknown table.
    UnknownTable(String),
    /// Reference to an unknown column or range variable.
    UnknownColumn(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Type mismatch between a column and a value or comparison.
    Type(String),
    /// An integrity constraint rejected a modification.
    ConstraintViolation(String),
    /// A concurrent transaction holds a resource this statement needs
    /// (a row, table or page with its pending writes, or the schema
    /// while it is open). The statement
    /// — and any explicit transaction it ran in — was rolled back; the
    /// client may retry.
    Conflict(String),
    /// Internal invariant failure (a bug in the engine).
    Internal(String),
}

impl fmt::Display for RqsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RqsError::Syntax(m) => write!(f, "SQL syntax error: {m}"),
            RqsError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            RqsError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RqsError::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            RqsError::Type(m) => write!(f, "type error: {m}"),
            RqsError::ConstraintViolation(m) => write!(f, "integrity constraint violated: {m}"),
            RqsError::Conflict(m) => write!(f, "transaction conflict: {m}"),
            RqsError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for RqsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(RqsError::UnknownTable("empl".into())
            .to_string()
            .contains("empl"));
        assert!(RqsError::ConstraintViolation("sal out of bounds".into())
            .to_string()
            .contains("sal out of bounds"));
    }
}
