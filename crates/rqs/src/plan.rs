//! Query planning: name resolution, condition classification, greedy join
//! ordering and access-path selection.
//!
//! The paper's division of labour leaves "the kind of query optimization
//! achieved by reordering PROLOG goals … to the existing query processor
//! of the DBMS" (§1). This module is that query processor: it picks scan
//! order and join methods but cannot remove redundant joins — eliminating
//! those is exactly the front-end optimizer's job, which is what the
//! benchmarks measure.

use crate::access::AccessPath;
use crate::error::{RqsError, RqsResult};
use crate::exec::StepRun;
use crate::sql::ast::{CmpOp, ColumnRef, Condition, Scalar, SelectCore, SelectStmt};
use crate::value::Datum;
use storage::StorageEngine;

/// A resolved range variable of the FROM clause.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    pub alias: String,
    pub table: String,
    pub width: usize,
    pub cardinality: usize,
    /// Pages one scan of the table reads: the exact heap chain length.
    pub pages: usize,
}

/// A single-variable restriction `var.col op value`, pushed to the scan.
#[derive(Clone, Debug, PartialEq)]
pub struct Restriction {
    pub var: usize,
    pub col: usize,
    pub op: CmpOp,
    pub value: Datum,
}

/// A two-variable condition `lvar.lcol op rvar.rcol`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinCond {
    pub lvar: usize,
    pub lcol: usize,
    pub op: CmpOp,
    pub rvar: usize,
    pub rcol: usize,
}

/// A `[NOT] IN` subquery condition.
#[derive(Clone, Debug, PartialEq)]
pub struct SubqueryCond {
    pub var: usize,
    pub col: usize,
    pub negated: bool,
    pub stmt: SelectStmt,
}

/// A fully resolved single SELECT block.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedCore {
    pub distinct: bool,
    pub vars: Vec<VarInfo>,
    /// Output columns as `(var, col)`.
    pub items: Vec<(usize, usize)>,
    pub restrictions: Vec<Restriction>,
    pub joins: Vec<JoinCond>,
    pub subqueries: Vec<SubqueryCond>,
}

/// How one range variable is brought into the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum JoinMethod {
    /// First variable: plain scan.
    Initial,
    /// Hash join on the given equijoin conditions: the executor builds
    /// on the left rows already joined and streams the new variable's
    /// rows past them as the probe side.
    Hash {
        eq: Vec<JoinCond>,
        extra: Vec<JoinCond>,
    },
    /// An equijoin on an indexed column `col` of the new variable, whose
    /// own restrictions leave it a full scan. The executor decides when
    /// the step runs, from the left side's actual row count: probe the
    /// index once per left row with the value at `key` (bound var,
    /// column) when that reads fewer pages than one scan
    /// ([`crate::exec::probes_beat_scan`]); otherwise scan and hash
    /// exactly as [`JoinMethod::Hash`]. Either way every condition in
    /// `eq` and `extra` is checked on the joined row.
    IndexProbe {
        col: usize,
        key: (usize, usize),
        eq: Vec<JoinCond>,
        extra: Vec<JoinCond>,
    },
    /// Nested loop with arbitrary conditions (possibly empty = product).
    NestedLoop { conds: Vec<JoinCond> },
}

/// One step of the left-deep pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinStep {
    pub var: usize,
    pub method: JoinMethod,
}

/// The physical plan: a left-deep join pipeline plus post-filters.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    pub core: ResolvedCore,
    pub steps: Vec<JoinStep>,
}

impl PhysicalPlan {
    /// Number of join operators (steps beyond the first scan).
    pub fn join_count(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }
}

/// Resolves a SELECT core against the engine's catalog. Row counts
/// and heap pages are the planner's two exact inputs: join order weighs
/// the first, index probes are weighed against the second.
pub fn resolve(engine: &StorageEngine, core: &SelectCore) -> RqsResult<ResolvedCore> {
    let mut vars = Vec::new();
    for (table_name, alias) in &core.from {
        let table = engine.table(table_name)?;
        if vars.iter().any(|v: &VarInfo| &v.alias == alias) {
            return Err(RqsError::Syntax(format!(
                "duplicate range variable {alias}"
            )));
        }
        vars.push(VarInfo {
            alias: alias.clone(),
            table: table_name.clone(),
            width: table.columns.len(),
            cardinality: engine.row_count(table_name)?,
            pages: engine.heap_pages(table_name)?,
        });
    }
    let lookup = |cref: &ColumnRef| -> RqsResult<(usize, usize)> {
        let var = vars
            .iter()
            .position(|v| v.alias == cref.var)
            .ok_or_else(|| RqsError::UnknownColumn(format!("{cref} (unknown variable)")))?;
        let col = engine
            .table(&vars[var].table)?
            .column_index(&cref.column)
            .ok_or_else(|| RqsError::UnknownColumn(cref.to_string()))?;
        Ok((var, col))
    };

    let items = core
        .items
        .iter()
        .map(&lookup)
        .collect::<RqsResult<Vec<_>>>()?;

    let mut restrictions = Vec::new();
    let mut joins = Vec::new();
    let mut subqueries = Vec::new();
    for cond in &core.conds {
        match cond {
            Condition::Compare { lhs, op, rhs } => match (lhs, rhs) {
                (Scalar::Column(l), Scalar::Column(r)) => {
                    // Column-column comparisons all become join
                    // conditions; when both sides name the same variable
                    // the executor evaluates it as a restriction over
                    // one tuple.
                    let (lvar, lcol) = lookup(l)?;
                    let (rvar, rcol) = lookup(r)?;
                    joins.push(JoinCond {
                        lvar,
                        lcol,
                        op: *op,
                        rvar,
                        rcol,
                    });
                }
                (Scalar::Column(l), Scalar::Literal(v)) => {
                    let (var, col) = lookup(l)?;
                    restrictions.push(Restriction {
                        var,
                        col,
                        op: *op,
                        value: v.clone(),
                    });
                }
                (Scalar::Literal(v), Scalar::Column(r)) => {
                    let (var, col) = lookup(r)?;
                    restrictions.push(Restriction {
                        var,
                        col,
                        op: op.flip(),
                        value: v.clone(),
                    });
                }
                (Scalar::Literal(a), Scalar::Literal(b)) => {
                    // Constant condition: keep as a degenerate restriction on
                    // var 0 only if true is undecidable; evaluate eagerly.
                    if !op.eval(a.total_cmp(b)) {
                        // Always-false: encode as impossible restriction.
                        restrictions.push(Restriction {
                            var: 0,
                            col: usize::MAX,
                            op: *op,
                            value: a.clone(),
                        });
                    }
                    // Always-true conditions just vanish.
                }
            },
            Condition::InSubquery {
                col,
                negated,
                subquery,
            } => {
                let (var, col) = lookup(col)?;
                subqueries.push(SubqueryCond {
                    var,
                    col,
                    negated: *negated,
                    stmt: (**subquery).clone(),
                });
            }
        }
    }
    Ok(ResolvedCore {
        distinct: core.distinct,
        vars,
        items,
        restrictions,
        joins,
        subqueries,
    })
}

/// Estimated cardinality of `var` after pushed-down restrictions.
fn estimate(core: &ResolvedCore, var: usize) -> usize {
    let mut est = core.vars[var].cardinality.max(1);
    for r in &core.restrictions {
        if r.var == var {
            est = match r.op {
                CmpOp::Eq => (est / 10).max(1),
                CmpOp::Ne => est,
                _ => (est / 3).max(1),
            };
        }
    }
    est
}

/// Greedy left-deep join ordering: start with the cheapest variable, then
/// repeatedly attach the cheapest variable reachable through an equijoin;
/// fall back to the cheapest remaining one (cross product) when the join
/// graph is disconnected. An equijoin step whose new variable has an
/// index on its side of one of the equalities — and no cheaper access
/// path of its own — may probe that index ([`JoinMethod::IndexProbe`]).
pub fn plan(core: ResolvedCore, engine: &StorageEngine) -> PhysicalPlan {
    let n = core.vars.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut chosen: Vec<usize> = Vec::new();
    let mut steps: Vec<JoinStep> = Vec::new();

    while !remaining.is_empty() {
        let pick = if chosen.is_empty() {
            *remaining
                .iter()
                .min_by_key(|&&v| estimate(&core, v))
                .expect("non-empty remaining")
        } else {
            // Prefer equijoin-connected vars.
            let connected: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&v| {
                    core.joins.iter().any(|j| {
                        j.op == CmpOp::Eq
                            && ((j.lvar == v && chosen.contains(&j.rvar))
                                || (j.rvar == v && chosen.contains(&j.lvar)))
                    })
                })
                .collect();
            let pool = if connected.is_empty() {
                &remaining
            } else {
                &connected
            };
            *pool
                .iter()
                .min_by_key(|&&v| estimate(&core, v))
                .expect("non-empty pool")
        };

        let method = if chosen.is_empty() {
            JoinMethod::Initial
        } else {
            // Conditions now fully bound: both sides among chosen ∪ {pick},
            // at least one side = pick.
            let mut eq = Vec::new();
            let mut extra = Vec::new();
            for j in &core.joins {
                let touches_pick = j.lvar == pick || j.rvar == pick;
                let other_bound = (j.lvar == pick || chosen.contains(&j.lvar))
                    && (j.rvar == pick || chosen.contains(&j.rvar));
                if touches_pick && other_bound {
                    if j.op == CmpOp::Eq && j.lvar != j.rvar {
                        eq.push(j.clone());
                    } else {
                        extra.push(j.clone());
                    }
                }
            }
            if eq.is_empty() {
                JoinMethod::NestedLoop { conds: extra }
            } else {
                match probe_column(&core, engine, pick, &eq) {
                    Some((col, key)) => JoinMethod::IndexProbe {
                        col,
                        key,
                        eq,
                        extra,
                    },
                    None => JoinMethod::Hash { eq, extra },
                }
            }
        };
        steps.push(JoinStep { var: pick, method });
        remaining.retain(|&v| v != pick);
        chosen.push(pick);
    }
    PhysicalPlan { core, steps }
}

/// The first equality of `eq` whose side on `var` is an indexed column,
/// as (that column, the other side's (var, column)) — provided a scan of
/// `var` would be a full one: a variable its own restrictions already
/// narrow to an index read (or to nothing) is read once and hashed.
fn probe_column(
    core: &ResolvedCore,
    engine: &StorageEngine,
    var: usize,
    eq: &[JoinCond],
) -> Option<(usize, (usize, usize))> {
    let info = &core.vars[var];
    let restrictions = core.restrictions_of(var);
    if crate::exec::choose_access(engine, &info.table, info.pages, &restrictions)
        != AccessPath::FullScan
    {
        return None;
    }
    eq.iter().find_map(|j| {
        let (col, key) = if j.lvar == var {
            (j.lcol, (j.rvar, j.rcol))
        } else {
            (j.rcol, (j.lvar, j.lcol))
        };
        engine.has_index(&info.table, col).then_some((col, key))
    })
}

impl ResolvedCore {
    /// The pushed-down restrictions on one variable.
    pub fn restrictions_of(&self, var: usize) -> Vec<&Restriction> {
        self.restrictions.iter().filter(|r| r.var == var).collect()
    }
}

impl PhysicalPlan {
    /// EXPLAIN's rendering: the join pipeline, each step with the access
    /// path its scan takes on `engine` — the same
    /// [`crate::exec::choose_access`] call the executor makes, so the
    /// path printed is the path that runs — and, for an
    /// [`JoinMethod::IndexProbe`] step, the column it can probe. Under
    /// `EXPLAIN ANALYZE`, `runs` holds what each step actually did (one
    /// per step, in step order) and every line says which method ran.
    pub fn explain(&self, engine: &StorageEngine, runs: Option<&[StepRun]>) -> String {
        let mut out = format!(
            "Project [{} item(s)]{}\n",
            self.core.items.len(),
            if self.core.distinct { " DISTINCT" } else { "" }
        );
        for (depth, step) in self.steps.iter().enumerate().rev() {
            let v = &self.core.vars[step.var];
            let indent = "  ".repeat(self.steps.len() - depth);
            let restrictions = self.core.restrictions_of(step.var);
            let (table, alias, restr) = (&v.table, &v.alias, restrictions.len());
            let head = match &step.method {
                JoinMethod::Initial => format!("Scan {table} {alias}"),
                JoinMethod::Hash { eq, extra } => format!(
                    "HashJoin {table} {alias} [{} key(s), {} extra]",
                    eq.len(),
                    extra.len()
                ),
                JoinMethod::IndexProbe {
                    col,
                    key: (kvar, kcol),
                    eq,
                    extra,
                } => format!(
                    "IndexProbe {table} {alias} col#{col} = {}.col#{kcol} [{} key(s), {} extra] or HashJoin",
                    self.core.vars[*kvar].alias,
                    eq.len(),
                    extra.len()
                ),
                JoinMethod::NestedLoop { conds } => {
                    format!("NestedLoop {table} {alias} [{} cond(s)]", conds.len())
                }
            };
            let access = crate::exec::choose_access(engine, table, v.pages, &restrictions);
            out += &format!("{indent}{head} [{restr} restriction(s)] via {access}");
            if let Some(run) = runs.and_then(|runs| runs.get(depth)) {
                out += &format!(" -> {run}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::sql::parse_statement;
    use crate::sql::Statement;

    fn db_with_empdep() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
            .unwrap();
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, mgr INT)")
            .unwrap();
        db
    }

    fn resolve_select(db: &Database, sql: &str) -> RqsResult<ResolvedCore> {
        let Statement::Select(s) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        resolve(db.engine(), &s.core)
    }

    #[test]
    fn resolves_columns_and_classifies_conditions() {
        let db = db_with_empdep();
        let core = resolve_select(
            &db,
            "SELECT v1.nam FROM empl v1, dept v2
             WHERE (v1.dno = v2.dno) AND (v1.sal < 40000) AND (100 < v1.sal)",
        )
        .unwrap();
        assert_eq!(core.vars.len(), 2);
        assert_eq!(core.joins.len(), 1);
        assert_eq!(core.restrictions.len(), 2);
        // Flipped literal-on-left restriction.
        assert_eq!(core.restrictions[1].op, CmpOp::Gt);
    }

    #[test]
    fn unknown_names_rejected() {
        let db = db_with_empdep();
        assert!(matches!(
            resolve_select(&db, "SELECT v9.nam FROM empl v1"),
            Err(RqsError::UnknownColumn(_))
        ));
        assert!(matches!(
            resolve_select(&db, "SELECT v1.zzz FROM empl v1"),
            Err(RqsError::UnknownColumn(_))
        ));
        assert!(matches!(
            resolve_select(&db, "SELECT v1.nam FROM nosuch v1"),
            Err(RqsError::UnknownTable(_))
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let db = db_with_empdep();
        assert!(resolve_select(&db, "SELECT v1.nam FROM empl v1, dept v1").is_err());
    }

    #[test]
    fn plan_is_left_deep_and_covers_all_vars() {
        let db = db_with_empdep();
        let core = resolve_select(
            &db,
            "SELECT v1.nam FROM empl v1, dept v2, empl v3
             WHERE (v1.dno = v2.dno) AND (v2.mgr = v3.eno)",
        )
        .unwrap();
        let plan = plan(core, db.engine());
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.join_count(), 2);
        assert!(matches!(plan.steps[0].method, JoinMethod::Initial));
        // Both subsequent steps join on equality → hash joins.
        assert!(plan.steps[1..]
            .iter()
            .all(|s| matches!(s.method, JoinMethod::Hash { .. })));
    }

    #[test]
    fn disconnected_vars_become_products() {
        let db = db_with_empdep();
        let core = resolve_select(&db, "SELECT v1.nam FROM empl v1, dept v2").unwrap();
        let plan = plan(core, db.engine());
        assert!(matches!(
            plan.steps[1].method,
            JoinMethod::NestedLoop { ref conds } if conds.is_empty()
        ));
    }

    #[test]
    fn inequality_join_uses_nested_loop() {
        let db = db_with_empdep();
        let core = resolve_select(
            &db,
            "SELECT v1.nam FROM empl v1, empl v2 WHERE v1.sal < v2.sal",
        )
        .unwrap();
        let plan = plan(core, db.engine());
        assert!(
            matches!(plan.steps[1].method, JoinMethod::NestedLoop { ref conds } if conds.len() == 1)
        );
    }

    #[test]
    fn display_shows_pipeline() {
        let db = db_with_empdep();
        let core = resolve_select(
            &db,
            "SELECT v1.nam FROM empl v1, dept v2 WHERE v1.dno = v2.dno",
        )
        .unwrap();
        let text = plan(core, db.engine()).explain(db.engine(), None);
        assert!(text.contains("Scan"));
        assert!(text.contains("HashJoin"));
        assert!(text.contains("via FullScan"));
    }

    #[test]
    fn equijoin_on_an_indexed_column_can_probe_and_explain_names_it() {
        let mut db = db_with_empdep();
        let rows: Vec<String> = (0..500)
            .map(|i| format!("({i}, 'e{i}', 20000, {})", i % 7))
            .collect();
        db.execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
            .unwrap();
        let sql = "SELECT v1.nam FROM empl v1, dept v2 WHERE v1.dno = v2.dno";
        let hashed = plan(resolve_select(&db, sql).unwrap(), db.engine());
        assert!(matches!(hashed.steps[1].method, JoinMethod::Hash { .. }));
        db.execute("CREATE INDEX ON empl (dno)").unwrap();
        let probing = plan(resolve_select(&db, sql).unwrap(), db.engine());
        assert_eq!(probing.core.vars[probing.steps[1].var].alias, "v1");
        assert!(matches!(
            probing.steps[1].method,
            JoinMethod::IndexProbe {
                col: 3,
                key: (1, 0),
                ..
            }
        ));
        let text = probing.explain(db.engine(), None);
        assert!(
            text.contains("IndexProbe empl v1 col#3 = v2.col#0"),
            "{text}"
        );
        // A restriction that already narrows the variable to an index
        // read keeps the one-shot read and the hash join.
        db.execute("CREATE INDEX ON empl (nam)").unwrap();
        let restricted = plan(
            resolve_select(&db, &format!("{sql} AND v1.nam = 'e7'")).unwrap(),
            db.engine(),
        );
        assert!(restricted
            .steps
            .iter()
            .all(|s| !matches!(s.method, JoinMethod::IndexProbe { .. })));
    }
}
