//! SQL abstract syntax.

use crate::value::Datum;
use std::fmt;
use storage::{ColType, TableConstraint};

/// A qualified column reference `var.column`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnRef {
    pub var: String,
    pub column: String,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.var, self.column)
    }
}

/// A scalar operand: column reference or literal.
#[derive(Clone, PartialEq, Debug)]
pub enum Scalar {
    Column(ColumnRef),
    Literal(Datum),
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Column(c) => write!(f, "{c}"),
            Scalar::Literal(d) => write!(f, "{d}"),
        }
    }
}

/// Comparison operators of the WHERE clause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl CmpOp {
    pub fn eval(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Gt => ord == Greater,
            CmpOp::Le => ord != Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
        })
    }
}

/// One conjunct of the WHERE clause.
#[derive(Clone, PartialEq, Debug)]
pub enum Condition {
    /// `lhs op rhs`.
    Compare { lhs: Scalar, op: CmpOp, rhs: Scalar },
    /// `col [NOT] IN (subquery)` — the §7 negation device.
    InSubquery {
        col: ColumnRef,
        negated: bool,
        subquery: Box<SelectStmt>,
    },
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Compare { lhs, op, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Condition::InSubquery {
                col,
                negated,
                subquery,
            } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "({col} {not}IN ({subquery}))")
            }
        }
    }
}

/// One SELECT block (no UNION).
#[derive(Clone, PartialEq, Debug)]
pub struct SelectCore {
    pub distinct: bool,
    pub items: Vec<ColumnRef>,
    /// `(table, alias)` pairs of the FROM clause.
    pub from: Vec<(String, String)>,
    /// Conjunctive WHERE clause.
    pub conds: Vec<Condition>,
}

impl fmt::Display for SelectCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        f.write_str(" FROM ")?;
        for (i, (table, alias)) in self.from.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{table} {alias}")?;
        }
        if !self.conds.is_empty() {
            f.write_str(" WHERE ")?;
            for (i, c) in self.conds.iter().enumerate() {
                if i > 0 {
                    f.write_str(" AND ")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// A full query: one core plus any number of UNION arms.
#[derive(Clone, PartialEq, Debug)]
pub struct SelectStmt {
    pub core: SelectCore,
    pub unions: Vec<SelectCore>,
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.core)?;
        for u in &self.unions {
            write!(f, " UNION {u}")?;
        }
        Ok(())
    }
}

/// One operand of a SET expression: a column of the updated table
/// (referenced bare, no range variable) or a literal.
#[derive(Clone, PartialEq, Debug)]
pub enum SetOperand {
    Column(String),
    Literal(Datum),
}

impl fmt::Display for SetOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOperand::Column(c) => f.write_str(c),
            SetOperand::Literal(d) => write!(f, "{d}"),
        }
    }
}

/// Integer arithmetic allowed in SET expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
}

impl ArithOp {
    /// Wrapping evaluation — DML must not panic on i64 overflow.
    pub fn eval(&self, lhs: i64, rhs: i64) -> i64 {
        match self {
            ArithOp::Add => lhs.wrapping_add(rhs),
            ArithOp::Sub => lhs.wrapping_sub(rhs),
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
        })
    }
}

/// The right-hand side of one `SET col = …` assignment: a plain operand
/// or `operand ± operand` (INT columns only — enough for the classic
/// `UPDATE counter SET v = v + 1`).
#[derive(Clone, PartialEq, Debug)]
pub enum SetExpr {
    Value(SetOperand),
    Arith {
        lhs: SetOperand,
        op: ArithOp,
        rhs: SetOperand,
    },
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Value(v) => write!(f, "{v}"),
            SetExpr::Arith { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// Any statement the engine accepts.
#[derive(Clone, PartialEq, Debug)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<(String, ColType)>,
        constraints: Vec<TableConstraint>,
    },
    CreateIndex {
        table: String,
        column: String,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Datum>>,
    },
    /// `DELETE FROM t [WHERE pred]`. Without WHERE this is the
    /// truncation fast path the front-end uses to reset whole
    /// intermediate relations — still a single engine truncate, but
    /// subject to the same restrict rule as predicated DELETE: a parent
    /// that referencing children still point at refuses to truncate.
    /// With WHERE it is row-level DML: the predicate is a conjunction
    /// of comparisons, matching rows are tombstoned in place, and
    /// deleting a referenced parent row is refused.
    Delete {
        table: String,
        filter: Option<Vec<Condition>>,
    },
    /// `UPDATE t SET col = expr, … [WHERE pred]` — in-place row rewrite
    /// with index maintenance and constraint re-checks on the assigned
    /// columns.
    Update {
        table: String,
        sets: Vec<(String, SetExpr)>,
        filter: Vec<Condition>,
    },
    DropTable {
        name: String,
    },
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] SELECT …` / `EXPLAIN UPDATE|DELETE …` —
    /// returns the chosen plan as text rows. With `analyze` the inner
    /// statement (SELECT only) also runs and the plan is annotated with
    /// actual row counts, page I/O, and elapsed time.
    Explain {
        analyze: bool,
        stmt: Box<Statement>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(CmpOp::Ne.eval(Less));
        assert!(CmpOp::Lt.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(!CmpOp::Gt.eval(Equal));
    }

    #[test]
    fn cmp_op_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
    }

    #[test]
    fn display_select() {
        let stmt = SelectCore {
            distinct: false,
            items: vec![ColumnRef {
                var: "v1".into(),
                column: "nam".into(),
            }],
            from: vec![("empl".into(), "v1".into())],
            conds: vec![Condition::Compare {
                lhs: Scalar::Column(ColumnRef {
                    var: "v1".into(),
                    column: "sal".into(),
                }),
                op: CmpOp::Lt,
                rhs: Scalar::Literal(Datum::Int(40000)),
            }],
        };
        assert_eq!(
            stmt.to_string(),
            "SELECT v1.nam FROM empl v1 WHERE (v1.sal < 40000)"
        );
    }
}
