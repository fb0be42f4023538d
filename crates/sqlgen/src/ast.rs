//! The SQL syntax tree (the Appendix's `select/from/where` term) and its
//! rendering to SQL text.

use dbcl::Value;
use prolog::Term;
use std::fmt;

/// `var.attr` — a qualified column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SqlColumn {
    pub var: String,
    pub attr: String,
}

impl fmt::Display for SqlColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.var, self.attr)
    }
}

/// A WHERE-clause operand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SqlTerm {
    Col(SqlColumn),
    Const(Value),
}

impl fmt::Display for SqlTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlTerm::Col(c) => write!(f, "{c}"),
            SqlTerm::Const(Value::Int(i)) => write!(f, "{i}"),
            SqlTerm::Const(Value::Sym(s)) => write!(f, "'{s}'"),
        }
    }
}

/// SQL comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SqlOp {
    Equal,
    NotEqual,
    Less,
    Greater,
    Leq,
    Geq,
}

impl SqlOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            SqlOp::Equal => "=",
            SqlOp::NotEqual => "<>",
            SqlOp::Less => "<",
            SqlOp::Greater => ">",
            SqlOp::Leq => "<=",
            SqlOp::Geq => ">=",
        }
    }

    /// The functor used in the Appendix syntax tree (`equal`, `notequal`, …).
    pub fn tree_name(&self) -> &'static str {
        match self {
            SqlOp::Equal => "equal",
            SqlOp::NotEqual => "notequal",
            SqlOp::Less => "less",
            SqlOp::Greater => "greater",
            SqlOp::Leq => "leq",
            SqlOp::Geq => "geq",
        }
    }

    pub fn from_comp(op: dbcl::CompOp) -> SqlOp {
        match op {
            dbcl::CompOp::Less => SqlOp::Less,
            dbcl::CompOp::Greater => SqlOp::Greater,
            dbcl::CompOp::Leq => SqlOp::Leq,
            dbcl::CompOp::Geq => SqlOp::Geq,
            dbcl::CompOp::Eq => SqlOp::Equal,
            dbcl::CompOp::Neq => SqlOp::NotEqual,
        }
    }
}

/// One WHERE conjunct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SqlCond {
    pub op: SqlOp,
    pub lhs: SqlTerm,
    pub rhs: SqlTerm,
}

impl fmt::Display for SqlCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} {})", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// A complete generated query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SqlQuery {
    /// `SELECT DISTINCT` (set semantics; see [`crate::MappingOptions`]).
    pub distinct: bool,
    pub select: Vec<SqlColumn>,
    /// `(relation, range variable)` in FROM order.
    pub from: Vec<(String, String)>,
    pub conds: Vec<SqlCond>,
    /// `column NOT IN (subquery)` conjuncts (§7 negation).
    pub not_in: Vec<(SqlColumn, SqlQuery)>,
}

impl SqlQuery {
    /// Number of equijoin/inequality terms joining two range variables —
    /// the quantity the paper's Example 6-2 counts ("four out of five join
    /// operations have been avoided").
    pub fn join_term_count(&self) -> usize {
        self.conds
            .iter()
            .filter(|c| {
                matches!(
                    (&c.lhs, &c.rhs),
                    (SqlTerm::Col(a), SqlTerm::Col(b)) if a.var != b.var
                )
            })
            .count()
    }

    /// Renders the SQL text the relational query system consumes.
    pub fn to_sql(&self) -> String {
        let mut out = String::from(if self.distinct {
            "SELECT DISTINCT "
        } else {
            "SELECT "
        });
        for (i, c) in self.select.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&c.to_string());
        }
        out.push_str("\nFROM ");
        for (i, (rel, var)) in self.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(rel);
            out.push(' ');
            out.push_str(var);
        }
        let mut conds: Vec<String> = self.conds.iter().map(|c| c.to_string()).collect();
        for (col, sub) in &self.not_in {
            conds.push(format!(
                "{col} NOT IN ({})",
                sub.to_sql().replace('\n', " ")
            ));
        }
        if !conds.is_empty() {
            out.push_str("\nWHERE ");
            out.push_str(&conds.join(" AND "));
        }
        out
    }

    /// Builds the Appendix's Prolog syntax tree:
    /// `select([dot(v, a)…], from([(rel, var)…]), where([equal(…)…]))`.
    pub fn to_syntax_tree(&self) -> Term {
        let select_items = self
            .select
            .iter()
            .map(|c| Term::app("dot", vec![Term::atom(&c.var), Term::atom(&c.attr)]))
            .collect();
        let from_items = self
            .from
            .iter()
            .map(|(rel, var)| Term::app(",", vec![Term::atom(rel), Term::atom(var)]))
            .collect();
        let term_of = |t: &SqlTerm| match t {
            SqlTerm::Col(c) => Term::app("dot", vec![Term::atom(&c.var), Term::atom(&c.attr)]),
            SqlTerm::Const(Value::Int(i)) => Term::Int(*i),
            SqlTerm::Const(Value::Sym(s)) => Term::Atom(*s),
        };
        let where_items = self
            .conds
            .iter()
            .map(|c| Term::app(c.op.tree_name(), vec![term_of(&c.lhs), term_of(&c.rhs)]))
            .collect();
        Term::app(
            "select",
            vec![
                Term::list(select_items),
                Term::app("from", vec![Term::list(from_items)]),
                Term::app("where", vec![Term::list(where_items)]),
            ],
        )
    }
}

impl fmt::Display for SqlQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SqlQuery {
        SqlQuery {
            distinct: false,
            select: vec![SqlColumn {
                var: "v1".into(),
                attr: "nam".into(),
            }],
            from: vec![("empl".into(), "v1".into()), ("empl".into(), "v2".into())],
            conds: vec![
                SqlCond {
                    op: SqlOp::Equal,
                    lhs: SqlTerm::Col(SqlColumn {
                        var: "v1".into(),
                        attr: "dno".into(),
                    }),
                    rhs: SqlTerm::Col(SqlColumn {
                        var: "v2".into(),
                        attr: "dno".into(),
                    }),
                },
                SqlCond {
                    op: SqlOp::Equal,
                    lhs: SqlTerm::Col(SqlColumn {
                        var: "v2".into(),
                        attr: "nam".into(),
                    }),
                    rhs: SqlTerm::Const(Value::sym("jones")),
                },
                SqlCond {
                    op: SqlOp::NotEqual,
                    lhs: SqlTerm::Col(SqlColumn {
                        var: "v1".into(),
                        attr: "nam".into(),
                    }),
                    rhs: SqlTerm::Const(Value::sym("jones")),
                },
            ],
            not_in: Vec::new(),
        }
    }

    #[test]
    fn renders_example_6_2_final_sql() {
        // The paper's final simplified same_manager query.
        let sql = sample().to_sql();
        assert_eq!(
            sql,
            "SELECT v1.nam\nFROM empl v1, empl v2\nWHERE (v1.dno = v2.dno) AND (v2.nam = 'jones') AND (v1.nam <> 'jones')"
        );
    }

    #[test]
    fn join_term_count_excludes_restrictions() {
        // One var-var condition, two var-const.
        assert_eq!(sample().join_term_count(), 1);
    }

    #[test]
    fn syntax_tree_shape() {
        let tree = sample().to_syntax_tree();
        let text = tree.to_string();
        assert!(text.starts_with("select("));
        assert!(text.contains("from("));
        assert!(text.contains("where("));
        assert!(text.contains("dot(v1, dno)"));
        assert!(text.contains("equal("));
    }

    #[test]
    fn not_in_renders_subquery() {
        let mut q = sample();
        q.conds.clear();
        q.not_in.push((
            SqlColumn {
                var: "v1".into(),
                attr: "eno".into(),
            },
            SqlQuery {
                distinct: false,
                select: vec![SqlColumn {
                    var: "v9".into(),
                    attr: "mgr".into(),
                }],
                from: vec![("dept".into(), "v9".into())],
                conds: vec![],
                not_in: Vec::new(),
            },
        ));
        let sql = q.to_sql();
        assert!(sql.contains("v1.eno NOT IN (SELECT v9.mgr FROM dept v9)"));
    }

    #[test]
    fn int_constants_unquoted() {
        let c = SqlCond {
            op: SqlOp::Less,
            lhs: SqlTerm::Col(SqlColumn {
                var: "v1".into(),
                attr: "sal".into(),
            }),
            rhs: SqlTerm::Const(Value::Int(40000)),
        };
        assert_eq!(c.to_string(), "(v1.sal < 40000)");
    }
}
