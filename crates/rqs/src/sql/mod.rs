//! The SQL dialect of the relational query system.
//!
//! Covers exactly what the 1984 front-end generates plus the DDL/DML needed
//! to stand the database up:
//!
//! ```sql
//! CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT,
//!                    PRIMARY KEY (eno),
//!                    CHECK (sal BETWEEN 10000 AND 90000),
//!                    FOREIGN KEY (dno) REFERENCES dept (dno))
//! CREATE INDEX ON empl (dno)
//! INSERT INTO empl VALUES (1, 'smiley', 50000, 10), (2, 'jones', 30000, 10)
//! SELECT v1.nam FROM empl v1, dept v2
//!   WHERE (v1.dno = v2.dno) AND (v1.nam <> 'jones')
//! SELECT … UNION SELECT …
//! SELECT … WHERE v1.eno NOT IN (SELECT v2.mgr FROM dept v2)
//! UPDATE empl SET sal = sal + 500, dno = 2 WHERE eno = 1
//! DELETE FROM empl WHERE sal < 10000 AND dno = 3
//! DELETE FROM intermediate
//! DROP TABLE intermediate
//! ```
//!
//! Conjunctive queries need no nesting (\[Kim 1982\], cited in §5); `NOT IN`
//! exists for the §7 negation extension.
//!
//! # DML notes
//!
//! `UPDATE` and predicated `DELETE` take a conjunction of comparisons
//! whose columns are written bare (`sal < 100`) or table-qualified
//! (`empl.sal < 100`) — no range variables, no subqueries. The
//! predicate feeds the same restriction planner as SELECT scans, so an
//! equality on an indexed column rides `index_lookup` and inequalities
//! collapse into one `index_range` cursor. SET expressions are a column
//! or literal, optionally `± ` another operand (INT columns only) —
//! enough for the textbook `UPDATE counter SET v = v + 1`. Assigned
//! columns are re-checked against CHECK bounds, keys (against the
//! post-statement state) and foreign keys, and updating or deleting a
//! parent row still referenced by a child is refused (restrict
//! semantics). Bare `DELETE FROM t` remains the truncation fast path
//! the front-end uses to reset whole intermediate relations, but it
//! now carries the same restrict rule: truncating a parent table that
//! referencing children still point at is refused.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{
    ArithOp, CmpOp, ColumnRef, Condition, Scalar, SelectCore, SelectStmt, SetExpr, SetOperand,
    Statement,
};
pub use parser::parse_statement;
