//! Recursive-descent SQL parser.

use crate::error::{RqsError, RqsResult};
use crate::sql::ast::*;
use crate::sql::lexer::{tokenize, Tok};
use crate::value::Datum;
use storage::{ColType, TableConstraint};

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> RqsError {
        RqsError::Syntax(format!(
            "{} (near token {})",
            message.into(),
            self.pos.min(self.toks.len())
        ))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> RqsResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.peek()
            == Some(&Tok::Sym(match sym {
                "(" => "(",
                ")" => ")",
                "," => ",",
                "." => ".",
                "=" => "=",
                "<" => "<",
                ">" => ">",
                "<=" => "<=",
                ">=" => ">=",
                "<>" => "<>",
                "*" => "*",
                ";" => ";",
                "+" => "+",
                "-" => "-",
                _ => return false,
            }))
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> RqsResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{sym}`")))
        }
    }

    fn ident(&mut self) -> RqsResult<String> {
        match self.bump() {
            Some(Tok::Word(w)) => Ok(w),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn literal(&mut self) -> RqsResult<Datum> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Datum::Int(i)),
            Some(Tok::Str(s)) => Ok(Datum::text(&s)),
            other => Err(self.err(format!("expected literal, got {other:?}"))),
        }
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> RqsResult<Statement> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            if self.eat_kw("INDEX") {
                return self.create_index();
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") {
                Some(self.dml_conditions(&table)?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, filter });
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(Statement::DropTable { name });
        }
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            let inner = self.statement()?;
            match &inner {
                Statement::Select(_) => {}
                Statement::Update { .. } => {}
                Statement::Delete {
                    filter: Some(_), ..
                } => {}
                // The bare-DELETE truncation fast path has no plan to
                // measure; EXPLAIN describes it, ANALYZE refuses.
                Statement::Delete { filter: None, .. } if !analyze => {}
                Statement::Delete { .. } => {
                    return Err(self
                        .err("EXPLAIN ANALYZE accepts only SELECT, UPDATE, or predicated DELETE"));
                }
                _ => {
                    return Err(self.err("EXPLAIN accepts only SELECT, UPDATE, or DELETE"));
                }
            }
            return Ok(Statement::Explain {
                analyze,
                stmt: Box::new(inner),
            });
        }
        if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
            return Ok(Statement::Select(self.select_stmt()?));
        }
        Err(self.err("expected a statement"))
    }

    fn create_table(&mut self) -> RqsResult<Statement> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                constraints.push(TableConstraint::Key {
                    columns: self.paren_ident_list()?,
                });
            } else if self.eat_kw("CHECK") {
                // CHECK (col BETWEEN lo AND hi)
                self.expect_sym("(")?;
                let column = self.ident()?;
                self.expect_kw("BETWEEN")?;
                let lo = self.int_literal()?;
                self.expect_kw("AND")?;
                let hi = self.int_literal()?;
                self.expect_sym(")")?;
                constraints.push(TableConstraint::ValueBound { column, lo, hi });
            } else if self.eat_kw("FOREIGN") {
                self.expect_kw("KEY")?;
                let columns = self.paren_ident_list()?;
                self.expect_kw("REFERENCES")?;
                let parent_table = self.ident()?;
                let parent_columns = self.paren_ident_list()?;
                constraints.push(TableConstraint::ForeignKey {
                    columns,
                    parent_table,
                    parent_columns,
                });
            } else {
                let col_name = self.ident()?;
                let ty_word = self.ident()?;
                let ty = match ty_word.to_ascii_uppercase().as_str() {
                    "INT" | "INTEGER" => ColType::Int,
                    "TEXT" | "CHAR" | "VARCHAR" | "STRING" => ColType::Text,
                    other => return Err(self.err(format!("unknown type {other}"))),
                };
                columns.push((col_name, ty));
            }
            if self.eat_sym(",") {
                continue;
            }
            self.expect_sym(")")?;
            break;
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            constraints,
        })
    }

    fn int_literal(&mut self) -> RqsResult<i64> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(i),
            other => Err(self.err(format!("expected integer, got {other:?}"))),
        }
    }

    fn paren_ident_list(&mut self) -> RqsResult<Vec<String>> {
        self.expect_sym("(")?;
        let mut out = vec![self.ident()?];
        while self.eat_sym(",") {
            out.push(self.ident()?);
        }
        self.expect_sym(")")?;
        Ok(out)
    }

    fn create_index(&mut self) -> RqsResult<Statement> {
        // CREATE INDEX ON table (col) — anonymous indexes suffice here.
        self.expect_kw("ON")?;
        let table = self.ident()?;
        let cols = self.paren_ident_list()?;
        if cols.len() != 1 {
            return Err(self.err("indexes cover exactly one column"));
        }
        Ok(Statement::CreateIndex {
            table,
            column: cols.into_iter().next().expect("one column"),
        })
    }

    fn insert(&mut self) -> RqsResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = vec![self.literal()?];
            while self.eat_sym(",") {
                row.push(self.literal()?);
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    // -- DML with predicates ------------------------------------------------

    fn update(&mut self) -> RqsResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = vec![self.assignment()?];
        while self.eat_sym(",") {
            sets.push(self.assignment()?);
        }
        let filter = if self.eat_kw("WHERE") {
            self.dml_conditions(&table)?
        } else {
            Vec::new()
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn assignment(&mut self) -> RqsResult<(String, SetExpr)> {
        let column = self.ident()?;
        self.expect_sym("=")?;
        let lhs = self.set_operand()?;
        let expr = if self.eat_sym("+") {
            SetExpr::Arith {
                lhs,
                op: ArithOp::Add,
                rhs: self.set_operand()?,
            }
        } else if self.eat_sym("-") {
            SetExpr::Arith {
                lhs,
                op: ArithOp::Sub,
                rhs: self.set_operand()?,
            }
        } else {
            SetExpr::Value(lhs)
        };
        Ok((column, expr))
    }

    fn set_operand(&mut self) -> RqsResult<SetOperand> {
        match self.peek() {
            Some(Tok::Word(_)) => Ok(SetOperand::Column(self.ident()?)),
            _ => Ok(SetOperand::Literal(self.literal()?)),
        }
    }

    /// The WHERE clause of UPDATE/DELETE: a conjunction of comparisons.
    /// Columns may be bare (`sal < 100`) or table-qualified
    /// (`empl.sal < 100`); bare names resolve against the target table,
    /// so the resulting [`Condition`]s feed the same restriction planner
    /// SELECT uses. Subqueries are not part of the DML dialect.
    fn dml_conditions(&mut self, table: &str) -> RqsResult<Vec<Condition>> {
        let mut conds = vec![self.dml_condition(table)?];
        while self.eat_kw("AND") {
            conds.push(self.dml_condition(table)?);
        }
        Ok(conds)
    }

    fn dml_condition(&mut self, table: &str) -> RqsResult<Condition> {
        let parenthesized = self.eat_sym("(");
        let lhs = self.dml_scalar(table)?;
        let op = self.cmp_op()?;
        let rhs = self.dml_scalar(table)?;
        if parenthesized {
            self.expect_sym(")")?;
        }
        Ok(Condition::Compare { lhs, op, rhs })
    }

    fn dml_scalar(&mut self, table: &str) -> RqsResult<Scalar> {
        match self.peek() {
            Some(Tok::Word(_)) => {
                let first = self.ident()?;
                let cref = if self.eat_sym(".") {
                    ColumnRef {
                        var: first,
                        column: self.ident()?,
                    }
                } else {
                    ColumnRef {
                        var: table.to_owned(),
                        column: first,
                    }
                };
                Ok(Scalar::Column(cref))
            }
            _ => Ok(Scalar::Literal(self.literal()?)),
        }
    }

    // -- queries ------------------------------------------------------------

    fn select_stmt(&mut self) -> RqsResult<SelectStmt> {
        let core = self.select_core()?;
        let mut unions = Vec::new();
        while self.eat_kw("UNION") {
            unions.push(self.select_core()?);
        }
        Ok(SelectStmt { core, unions })
    }

    fn select_core(&mut self) -> RqsResult<SelectCore> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = vec![self.column_ref()?];
        while self.eat_sym(",") {
            items.push(self.column_ref()?);
        }
        self.expect_kw("FROM")?;
        let mut from = vec![self.table_alias()?];
        while self.eat_sym(",") {
            from.push(self.table_alias()?);
        }
        let mut conds = Vec::new();
        if self.eat_kw("WHERE") {
            conds.push(self.condition()?);
            while self.eat_kw("AND") {
                conds.push(self.condition()?);
            }
        }
        Ok(SelectCore {
            distinct,
            items,
            from,
            conds,
        })
    }

    fn table_alias(&mut self) -> RqsResult<(String, String)> {
        let table = self.ident()?;
        // Alias is mandatory in the generated dialect but optional here;
        // a missing alias defaults to the table name.
        match self.peek() {
            Some(Tok::Word(w))
                if !w.eq_ignore_ascii_case("WHERE")
                    && !w.eq_ignore_ascii_case("UNION")
                    && !w.eq_ignore_ascii_case("AND") =>
            {
                let alias = self.ident()?;
                Ok((table, alias))
            }
            _ => Ok((table.clone(), table)),
        }
    }

    fn column_ref(&mut self) -> RqsResult<ColumnRef> {
        let var = self.ident()?;
        self.expect_sym(".")?;
        let column = self.ident()?;
        Ok(ColumnRef { var, column })
    }

    fn scalar(&mut self) -> RqsResult<Scalar> {
        match self.peek() {
            Some(Tok::Word(_)) => Ok(Scalar::Column(self.column_ref()?)),
            _ => Ok(Scalar::Literal(self.literal()?)),
        }
    }

    fn condition(&mut self) -> RqsResult<Condition> {
        let parenthesized = self.eat_sym("(");
        let lhs = self.scalar()?;
        let cond = if self.eat_kw("NOT") {
            self.expect_kw("IN")?;
            self.in_subquery(lhs, true)?
        } else if self.eat_kw("IN") {
            self.in_subquery(lhs, false)?
        } else {
            let op = self.cmp_op()?;
            let rhs = self.scalar()?;
            Condition::Compare { lhs, op, rhs }
        };
        if parenthesized {
            self.expect_sym(")")?;
        }
        Ok(cond)
    }

    fn in_subquery(&mut self, lhs: Scalar, negated: bool) -> RqsResult<Condition> {
        let Scalar::Column(col) = lhs else {
            return Err(self.err("IN requires a column on the left"));
        };
        self.expect_sym("(")?;
        let subquery = self.select_stmt()?;
        self.expect_sym(")")?;
        Ok(Condition::InSubquery {
            col,
            negated,
            subquery: Box::new(subquery),
        })
    }

    fn cmp_op(&mut self) -> RqsResult<CmpOp> {
        let op = match self.bump() {
            Some(Tok::Sym("=")) => CmpOp::Eq,
            Some(Tok::Sym("<>")) => CmpOp::Ne,
            Some(Tok::Sym("<")) => CmpOp::Lt,
            Some(Tok::Sym(">")) => CmpOp::Gt,
            Some(Tok::Sym("<=")) => CmpOp::Le,
            Some(Tok::Sym(">=")) => CmpOp::Ge,
            other => return Err(self.err(format!("expected comparison operator, got {other:?}"))),
        };
        Ok(op)
    }
}

/// Parses one SQL statement (a trailing `;` is allowed).
pub fn parse_statement(src: &str) -> RqsResult<Statement> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if let Some(t) = p.peek() {
        return Err(p.err(format!("trailing tokens after statement: {t:?}")));
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table_with_constraints() {
        let stmt = parse_statement(
            "CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT,
             PRIMARY KEY (eno),
             CHECK (sal BETWEEN 10000 AND 90000),
             FOREIGN KEY (dno) REFERENCES dept (dno))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                constraints,
            } => {
                assert_eq!(name, "empl");
                assert_eq!(columns.len(), 4);
                assert_eq!(constraints.len(), 3);
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let stmt = parse_statement(
            "INSERT INTO empl VALUES (1, 'smiley', 50000, 10), (2, 'jones', 30000, 10)",
        )
        .unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "empl");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][1], Datum::text("smiley"));
            }
            other => panic!("expected Insert, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_example_5_1() {
        let stmt = parse_statement(
            "SELECT v1.nam
             FROM empl v1, dept v2, empl v3, empl v4, dept v5, empl v6
             WHERE (v1.dno = v2.dno) AND (v2.mgr = v3.eno) AND
                   (v4.dno = v5.dno) AND (v5.mgr = v6.eno) AND
                   (v4.nam = 'jones') AND (v3.nam = v6.nam) AND
                   (v1.nam <> 'jones')",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.core.from.len(), 6);
                assert_eq!(s.core.conds.len(), 7);
                assert!(s.unions.is_empty());
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parses_union() {
        let stmt = parse_statement(
            "SELECT v1.nam FROM empl v1 UNION SELECT v2.nam FROM empl v2 UNION SELECT v3.nam FROM empl v3",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => assert_eq!(s.unions.len(), 2),
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parses_not_in_subquery() {
        let stmt = parse_statement(
            "SELECT v1.eno FROM empl v1 WHERE v1.eno NOT IN (SELECT v2.mgr FROM dept v2)",
        )
        .unwrap();
        match stmt {
            Statement::Select(s) => {
                assert!(matches!(
                    &s.core.conds[0],
                    Condition::InSubquery { negated: true, .. }
                ));
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parses_unparenthesized_conditions() {
        let stmt =
            parse_statement("SELECT v1.nam FROM empl v1 WHERE v1.sal < 40000 AND v1.dno = 10")
                .unwrap();
        match stmt {
            Statement::Select(s) => assert_eq!(s.core.conds.len(), 2),
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn alias_defaults_to_table_name() {
        let stmt = parse_statement("SELECT empl.nam FROM empl").unwrap();
        match stmt {
            Statement::Select(s) => {
                assert_eq!(s.core.from[0], ("empl".to_owned(), "empl".to_owned()))
            }
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn parses_delete_and_drop() {
        assert!(matches!(
            parse_statement("DELETE FROM intermediate").unwrap(),
            Statement::Delete { filter: None, .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE intermediate;").unwrap(),
            Statement::DropTable { .. }
        ));
    }

    #[test]
    fn parses_predicated_delete() {
        let stmt = parse_statement("DELETE FROM empl WHERE sal < 20000 AND dno = 3").unwrap();
        let Statement::Delete {
            table,
            filter: Some(conds),
        } = stmt
        else {
            panic!("expected predicated delete")
        };
        assert_eq!(table, "empl");
        assert_eq!(conds.len(), 2);
        // Bare columns resolve against the target table.
        assert_eq!(
            conds[0],
            Condition::Compare {
                lhs: Scalar::Column(ColumnRef {
                    var: "empl".into(),
                    column: "sal".into()
                }),
                op: CmpOp::Lt,
                rhs: Scalar::Literal(Datum::Int(20000)),
            }
        );
    }

    #[test]
    fn parses_update_with_arithmetic_and_where() {
        let stmt = parse_statement("UPDATE counter SET v = v + 1 WHERE v >= 0").unwrap();
        let Statement::Update {
            table,
            sets,
            filter,
        } = stmt
        else {
            panic!("expected update")
        };
        assert_eq!(table, "counter");
        assert_eq!(
            sets,
            vec![(
                "v".to_owned(),
                SetExpr::Arith {
                    lhs: SetOperand::Column("v".into()),
                    op: ArithOp::Add,
                    rhs: SetOperand::Literal(Datum::Int(1)),
                }
            )]
        );
        assert_eq!(filter.len(), 1);
    }

    #[test]
    fn parses_update_multi_set_without_where() {
        let stmt = parse_statement("UPDATE empl SET nam = 'x', sal = sal - 500, dno = 2").unwrap();
        let Statement::Update { sets, filter, .. } = stmt else {
            panic!("expected update")
        };
        assert_eq!(sets.len(), 3);
        assert_eq!(
            sets[0].1,
            SetExpr::Value(SetOperand::Literal(Datum::text("x")))
        );
        assert_eq!(
            sets[1].1,
            SetExpr::Arith {
                lhs: SetOperand::Column("sal".into()),
                op: ArithOp::Sub,
                rhs: SetOperand::Literal(Datum::Int(500)),
            }
        );
        assert!(filter.is_empty());
    }

    #[test]
    fn parses_qualified_and_parenthesized_dml_conditions() {
        let stmt = parse_statement(
            "DELETE FROM empl WHERE (empl.sal > 1000) AND (nam <> 'jones') AND sal <= dno",
        )
        .unwrap();
        let Statement::Delete {
            filter: Some(conds),
            ..
        } = stmt
        else {
            panic!("expected predicated delete")
        };
        assert_eq!(conds.len(), 3);
    }

    #[test]
    fn rejects_malformed_dml() {
        assert!(parse_statement("UPDATE t").is_err());
        assert!(parse_statement("UPDATE t SET").is_err());
        assert!(parse_statement("UPDATE t SET a = ").is_err());
        assert!(parse_statement("UPDATE t SET a = 1 WHERE").is_err());
        assert!(parse_statement("DELETE FROM t WHERE").is_err());
        assert!(
            parse_statement("DELETE FROM t WHERE a IN (SELECT v.b FROM s v)").is_err(),
            "subqueries are not part of the DML dialect"
        );
    }

    #[test]
    fn parses_create_index() {
        let stmt = parse_statement("CREATE INDEX ON empl (dno)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateIndex {
                table: "empl".into(),
                column: "dno".into()
            }
        );
    }

    #[test]
    fn select_display_round_trips() {
        let src =
            "SELECT v1.nam FROM empl v1, dept v2 WHERE (v1.dno = v2.dno) AND (v1.nam <> 'jones')";
        let Statement::Select(s) = parse_statement(src).unwrap() else {
            panic!()
        };
        let Statement::Select(s2) = parse_statement(&s.to_string()).unwrap() else {
            panic!()
        };
        assert_eq!(s, s2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEKT foo").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT v1.nam FROM empl v1 WHERE").is_err());
        assert!(parse_statement("SELECT v1.nam FROM empl v1 extra garbage").is_err());
    }

    #[test]
    fn rejects_literal_in_clause_without_column() {
        assert!(parse_statement(
            "SELECT v1.nam FROM empl v1 WHERE 1 IN (SELECT v2.dno FROM dept v2)"
        )
        .is_err());
    }
}
