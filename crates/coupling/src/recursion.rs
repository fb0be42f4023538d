//! Recursive database calls (§7, Example 7-1).
//!
//! Three evaluation strategies for a transitive closure like `works_for`:
//!
//! 1. **Naive** — metaevaluate generates "a sequence of increasingly
//!    complex queries" (step *k* joins *k* copies of the view body) and
//!    each is shipped and fully re-executed: "the duplication of effort
//!    \[is\] even more obvious".
//! 2. **Intermediate relation** — the paper's `setrel` scheme: a stored
//!    unary relation holds the current frontier; every step runs the *same*
//!    constant-shape SQL query joined against it, and "the final result
//!    \[is\] the union of all these query results".
//! 3. **Orientation** — for `works_for(jones, Superior)` the top-down
//!    scheme "would generate as the first intermediate relation all
//!    employee names", while the bottom-up rewriting keeps intermediates
//!    proportional to the answer. [`eval_intermediate_mismatched`] measures
//!    the former, [`eval_intermediate`] with the appropriate seed the
//!    latter.

use crate::{Coupler, CouplingError, Result};
use dbcl::{AttrType, DatabaseDef, DbclQuery, Symbol};
use metaeval::rename::TargetConflict;
use metaeval::unfold::{unfold, UnfoldLimits};
use rqs::{Datum, QueryMetrics};
use sqlgen::ast::{SqlColumn, SqlCond, SqlOp, SqlTerm};
use sqlgen::mapping::{translate, MappingOptions};
use std::collections::HashSet;

/// Which argument of the closure view is bound by the query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BoundSide {
    /// `works_for('jones', t_Superior)`.
    Low,
    /// `works_for(t_People, 'smiley')`.
    High,
}

impl BoundSide {
    pub fn other(&self) -> BoundSide {
        match self {
            BoundSide::Low => BoundSide::High,
            BoundSide::High => BoundSide::Low,
        }
    }
}

/// A bound argument.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub side: BoundSide,
    pub value: Datum,
}

/// Per-step measurements of an iterative strategy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepInfo {
    /// Size of the stored intermediate relation for this step.
    pub frontier_size: usize,
    /// Previously unseen values discovered by this step.
    pub new_values: usize,
    /// DBMS work for this step's query.
    pub metrics: QueryMetrics,
}

/// Outcome of one recursive evaluation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecursionRun {
    /// Distinct values of the free argument satisfying the closure.
    pub answers: Vec<Datum>,
    /// Number of SQL queries shipped to the DBMS.
    pub queries_issued: usize,
    /// Total FROM-clause range variables across all shipped queries —
    /// the paper's visible measure of query complexity growth.
    pub total_from_vars: usize,
    /// Per-step details (iterative strategies only).
    pub steps: Vec<StepInfo>,
    /// Accumulated DBMS work.
    pub metrics: QueryMetrics,
    /// Candidate bindings tried (mismatched orientation only).
    pub candidates_tried: usize,
}

/// The step relation of a transitive closure, extracted from a Prolog
/// view: a conjunctive DBCL query in which [`Self::low`] and
/// [`Self::high`] mark the two closure arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosureSpec {
    pub step: DbclQuery,
    pub low: Symbol,
    pub high: Symbol,
}

impl ClosureSpec {
    /// Builds the spec by metaevaluating `view(t_low, t_high)` against the
    /// coupler's knowledge base. The view must be non-recursive (it is the
    /// *step*, e.g. `works_dir_for`).
    pub fn from_view(coupler: &Coupler, view: &str) -> Result<ClosureSpec> {
        let goal = prolog::parse_term(&format!("{view}(t_low, t_high)"))
            .map_err(|e| CouplingError(e.to_string()))?;
        let out = unfold(
            coupler.engine.kb(),
            &coupler.db,
            std::slice::from_ref(&goal),
            UnfoldLimits::default(),
        )?;
        if out.recursive {
            return Err(CouplingError(format!(
                "{view} is recursive; the closure step must be a plain view"
            )));
        }
        if out.branches.len() != 1 || !out.branches[0].negated.is_empty() {
            return Err(CouplingError(format!(
                "{view} expanded into {} branches or a negation; the step must be conjunctive",
                out.branches.len()
            )));
        }
        let branch = metaeval::rename::branch_to_dbcl_with(
            &out.branches[0],
            &coupler.db,
            view,
            TargetConflict::FirstWins,
        )?;
        Ok(ClosureSpec {
            step: branch.query,
            low: Symbol::target("low"),
            high: Symbol::target("high"),
        })
    }

    fn symbol_for(&self, side: BoundSide) -> Symbol {
        match side {
            BoundSide::Low => self.low,
            BoundSide::High => self.high,
        }
    }

    /// Column reference (`v<row+1>.<attr>`) of a closure argument in the
    /// translated step SQL.
    fn column_ref(&self, side: BoundSide) -> Result<SqlColumn> {
        let sym = self.symbol_for(side);
        let (row, col) = self.step.first_row_occurrence(sym).ok_or_else(|| {
            CouplingError(format!(
                "closure argument {sym} not anchored in the step query"
            ))
        })?;
        Ok(SqlColumn {
            var: format!("v{}", row + 1),
            attr: self.step.attributes[col].to_string(),
        })
    }
}

fn attr_type_of(db: &DatabaseDef, spec: &ClosureSpec, side: BoundSide) -> AttrType {
    let sym = spec.symbol_for(side);
    spec.step
        .first_row_occurrence(sym)
        .and_then(|(_, col)| db.attr_type(spec.step.attributes[col]))
        .unwrap_or(AttrType::Text)
}

fn datum_literal(d: &Datum) -> String {
    match d {
        Datum::Int(i) => i.to_string(),
        Datum::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Naive strategy: per-level queries from the metaevaluator.
///
/// The bound value is substituted into the recursive view's goal; each
/// unfolding depth becomes one (growing) SQL query; answers are unioned.
/// The caller picks `max_depth` at least the hierarchy depth.
pub fn eval_naive(
    coupler: &mut Coupler,
    view: &str,
    bound: &Bound,
    max_depth: usize,
) -> Result<RecursionRun> {
    let literal = match &bound.value {
        Datum::Int(i) => i.to_string(),
        Datum::Text(s) => format!("'{s}'"),
    };
    let goal = match bound.side {
        BoundSide::Low => format!("{view}({literal}, t_other)"),
        BoundSide::High => format!("{view}(t_other, {literal})"),
    };
    // Naive evaluation must not be rescued by the answer cache.
    let saved = coupler.config;
    coupler.config.cache = false;
    coupler.config.unfold.max_recursion_depth = max_depth;
    let outcome = coupler.query(&goal, view);
    coupler.config = saved;
    let run = outcome?;

    let mut result = RecursionRun::default();
    for branch in &run.branches {
        if branch.sql.is_some() {
            result.queries_issued += 1;
            let q = branch
                .dbcl_optimized
                .as_ref()
                .unwrap_or(&branch.dbcl_initial);
            result.total_from_vars += q.rows.len();
        }
        result.metrics.absorb(&branch.metrics);
    }
    result.answers = run
        .answers
        .iter()
        .filter_map(|a| a.get("other").cloned())
        .collect();
    Ok(result)
}

/// Intermediate-relation strategy (the paper's `setrel` scheme), with a
/// semi-naive frontier: each step stores only the newly discovered values,
/// so cyclic data (the root manager managing itself) terminates.
pub fn eval_intermediate(
    coupler: &mut Coupler,
    spec: &ClosureSpec,
    bound: &Bound,
    table: &str,
) -> Result<RecursionRun> {
    let free_side = bound.side.other();
    let ty = attr_type_of(&coupler.db, spec, bound.side);
    ensure_intermediate(coupler, table, ty)?;

    // Constant-shape step SQL: step query joined against the intermediate.
    let opts = MappingOptions {
        distinct: true,
        ..MappingOptions::default()
    };
    let mut sql = translate(&spec.step, &coupler.db, opts)?;
    let bound_ref = spec.column_ref(bound.side)?;
    let frontier_var = format!("v{}", spec.step.rows.len() + 1);
    sql.select = vec![spec.column_ref(free_side)?];
    sql.from.push((table.to_owned(), frontier_var.clone()));
    sql.conds.push(SqlCond {
        op: SqlOp::Equal,
        lhs: SqlTerm::Col(bound_ref),
        rhs: SqlTerm::Col(SqlColumn {
            var: frontier_var,
            attr: "val".into(),
        }),
    });
    let sql_text = sql.to_sql();

    let mut result = RecursionRun::default();
    // `result.answers` keeps the discovery order; `seen` answers
    // membership in constant time.
    let mut seen: HashSet<Datum> = HashSet::new();
    let mut frontier = vec![bound.value.clone()];
    while !frontier.is_empty() {
        set_intermediate(coupler, table, &frontier)?;
        let step_result = coupler.rqs.execute(&sql_text)?;
        result.queries_issued += 1;
        result.total_from_vars += sql.from.len();
        let mut info = StepInfo {
            frontier_size: frontier.len(),
            new_values: 0,
            metrics: step_result.metrics.clone(),
        };
        result.metrics.absorb(&step_result.metrics);
        let mut next = Vec::new();
        for row in step_result.rows {
            let value = row
                .into_iter()
                .next()
                .ok_or_else(|| CouplingError("step query returned an empty tuple".into()))?;
            if seen.insert(value.clone()) {
                result.answers.push(value.clone());
                next.push(value);
                info.new_values += 1;
            }
        }
        result.steps.push(info);
        frontier = next;
    }
    Ok(result)
}

/// The wrong-orientation strategy of Example 7-1: when the scheme iterates
/// from the side the query leaves *free*, every possible binding of that
/// side must be enumerated — "it would generate as the first intermediate
/// relation all employee names". One full frontier iteration runs per
/// candidate; a candidate is an answer when the bound value shows up.
pub fn eval_intermediate_mismatched(
    coupler: &mut Coupler,
    spec: &ClosureSpec,
    bound: &Bound,
    table: &str,
) -> Result<RecursionRun> {
    let free_side = bound.side.other();
    // All possible bindings of the free side: scan its column.
    let sym = spec.symbol_for(free_side);
    let (row, col) = spec
        .step
        .first_row_occurrence(sym)
        .ok_or_else(|| CouplingError(format!("closure argument {sym} not anchored")))?;
    let relation = spec.step.rows[row].relation;
    let attr = spec.step.attributes[col];
    let candidates = coupler
        .rqs
        .execute(&format!("SELECT DISTINCT v1.{attr} FROM {relation} v1"))?;

    let mut result = RecursionRun::default();
    result.metrics.absorb(&candidates.metrics);
    for candidate_row in candidates.rows {
        let candidate = candidate_row
            .into_iter()
            .next()
            .ok_or_else(|| CouplingError("candidate scan returned an empty tuple".into()))?;
        result.candidates_tried += 1;
        let sub = eval_intermediate(
            coupler,
            spec,
            &Bound {
                side: free_side,
                value: candidate.clone(),
            },
            table,
        )?;
        result.queries_issued += sub.queries_issued;
        result.total_from_vars += sub.total_from_vars;
        result.metrics.absorb(&sub.metrics);
        result.steps.extend(sub.steps);
        if sub.answers.contains(&bound.value) {
            result.answers.push(candidate);
        }
    }
    Ok(result)
}

fn ensure_intermediate(coupler: &mut Coupler, table: &str, ty: AttrType) -> Result<()> {
    if coupler.rqs.catalog().has_table(table) {
        coupler.rqs.execute(&format!("DELETE FROM {table}"))?;
    } else {
        let sql_ty = match ty {
            AttrType::Int => "INT",
            AttrType::Text => "TEXT",
        };
        coupler
            .rqs
            .execute(&format!("CREATE TABLE {table} (val {sql_ty})"))?;
    }
    Ok(())
}

/// Replaces the intermediate relation's rows with `values` as one
/// session transaction: its `DELETE FROM` and `INSERT` commit or roll
/// back together, so a failed `INSERT` leaves the previous frontier.
fn set_intermediate(coupler: &mut Coupler, table: &str, values: &[Datum]) -> Result<()> {
    let db = &mut coupler.rqs;
    let txn = db.begin_session_txn()?;
    let written = db
        .resume_session_txn(txn)
        .map_err(CouplingError::from)
        .and_then(|()| replace_rows(db, table, values));
    db.suspend_session_txn();
    match written {
        Ok(()) => Ok(db.commit_session_txn(txn)?),
        Err(e) => {
            db.abort_session_txn(txn);
            Err(e)
        }
    }
}

fn replace_rows(db: &mut rqs::Database, table: &str, values: &[Datum]) -> Result<()> {
    db.execute(&format!("DELETE FROM {table}"))?;
    if values.is_empty() {
        return Ok(());
    }
    let rows: Vec<String> = values
        .iter()
        .map(|v| format!("({})", datum_literal(v)))
        .collect();
    db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Firm, FirmParams};

    /// A fixed little hierarchy: e1 (ceo) manages d1; e2 manages d2 under
    /// d1; staff e3, e4 in d2; e5 staff in d1.
    fn chain_firm() -> Coupler {
        let mut c = Coupler::empdep();
        c.consult(metaeval::views::WORKS_FOR).unwrap();
        for (eno, nam, sal, dno) in [
            (1, "e1", 80_000, 1),
            (2, "e2", 60_000, 1),
            (3, "e3", 30_000, 2),
            (4, "e4", 25_000, 2),
            (5, "e5", 35_000, 1),
        ] {
            c.load_tuple(
                "empl",
                &[
                    Datum::Int(eno),
                    Datum::text(nam),
                    Datum::Int(sal),
                    Datum::Int(dno),
                ],
            )
            .unwrap();
        }
        for (dno, fct, mgr) in [(1, "hq", 1), (2, "field", 2)] {
            c.load_tuple(
                "dept",
                &[Datum::Int(dno), Datum::text(fct), Datum::Int(mgr)],
            )
            .unwrap();
        }
        c.check_integrity().unwrap();
        c
    }

    fn sorted_names(answers: &[Datum]) -> Vec<String> {
        let mut names: Vec<String> = answers
            .iter()
            .map(|d| d.as_text().unwrap().to_owned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn closure_spec_from_view() {
        let c = chain_firm();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        assert_eq!(spec.step.rows.len(), 3);
        assert!(spec.step.first_row_occurrence(spec.low).is_some());
        assert!(spec.step.first_row_occurrence(spec.high).is_some());
    }

    #[test]
    fn naive_finds_all_subordinates() {
        let mut c = chain_firm();
        let run = eval_naive(
            &mut c,
            "works_for",
            &Bound {
                side: BoundSide::High,
                value: Datum::text("e1"),
            },
            4,
        )
        .unwrap();
        // Everybody works for the ceo (e1 itself via the self-loop).
        assert_eq!(sorted_names(&run.answers), ["e1", "e2", "e3", "e4", "e5"]);
        assert_eq!(run.queries_issued, 4);
        // Naive growth: level k joins 3(k+1) relation references before
        // optimization; the chase merges one empl row per chaining point,
        // so the optimized sequence is 3, 5, 7, 9.
        assert_eq!(run.total_from_vars, 3 + 5 + 7 + 9);
    }

    #[test]
    fn intermediate_matches_naive_answers() {
        let mut c = chain_firm();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        let bound = Bound {
            side: BoundSide::High,
            value: Datum::text("e1"),
        };
        let inter = eval_intermediate(&mut c, &spec, &bound, "intermediate").unwrap();
        let naive = eval_naive(&mut c, "works_for", &bound, 5).unwrap();
        assert_eq!(sorted_names(&inter.answers), sorted_names(&naive.answers));
        // Constant-shape queries: every step uses the same FROM count.
        assert!(inter.steps.iter().all(|_| true));
        assert_eq!(inter.total_from_vars, inter.queries_issued * 4);
    }

    #[test]
    fn intermediate_terminates_on_cycle() {
        // e1 manages itself through d1: the frontier must not loop.
        let mut c = chain_firm();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        let run = eval_intermediate(
            &mut c,
            &spec,
            &Bound {
                side: BoundSide::High,
                value: Datum::text("e1"),
            },
            "intermediate",
        )
        .unwrap();
        assert!(run.queries_issued <= 6, "semi-naive frontier terminates");
    }

    #[test]
    fn intermediate_answers_are_distinct_and_in_discovery_order() {
        let mut c = chain_firm();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        let bound = Bound {
            side: BoundSide::High,
            value: Datum::text("e1"),
        };
        let run = eval_intermediate(&mut c, &spec, &bound, "intermediate").unwrap();
        // Step 1 finds d1's staff (e1 itself among them), step 2 d2's.
        let new: Vec<usize> = run.steps.iter().map(|s| s.new_values).collect();
        assert_eq!(new, [3, 2, 0]);
        assert_eq!(sorted_names(&run.answers[..3]), ["e1", "e2", "e5"]);
        assert_eq!(sorted_names(&run.answers[3..]), ["e3", "e4"]);
        assert_eq!(run.answers.len(), 5, "each answer once");
    }

    #[test]
    fn upward_query_bottom_up_is_small() {
        let mut c = chain_firm();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        // works_for(e4, Superior): bottom-up = seed {e4}, walk up.
        let run = eval_intermediate(
            &mut c,
            &spec,
            &Bound {
                side: BoundSide::Low,
                value: Datum::text("e4"),
            },
            "intermediate",
        )
        .unwrap();
        assert_eq!(sorted_names(&run.answers), ["e1", "e2"]);
        // Intermediates stay at most the answer-chain size.
        assert!(run.steps.iter().all(|s| s.frontier_size <= 2));
    }

    #[test]
    fn mismatched_orientation_explodes_but_agrees() {
        let mut c = chain_firm();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        let bound = Bound {
            side: BoundSide::Low,
            value: Datum::text("e4"),
        };
        let good = eval_intermediate(&mut c, &spec, &bound, "intermediate").unwrap();
        let bad = eval_intermediate_mismatched(&mut c, &spec, &bound, "intermediate").unwrap();
        assert_eq!(sorted_names(&bad.answers), sorted_names(&good.answers));
        // The paper's point: candidates = every employee name.
        assert_eq!(bad.candidates_tried, 5);
        assert!(bad.queries_issued > good.queries_issued * 2);
    }

    #[test]
    fn a_failed_frontier_write_keeps_the_previous_frontier() {
        let mut c = chain_firm();
        ensure_intermediate(&mut c, "intermediate", AttrType::Text).unwrap();
        let frontier = [Datum::text("e1"), Datum::text("e2")];
        set_intermediate(&mut c, "intermediate", &frontier).unwrap();
        // One value past the record-size cap of a 4 KiB page: the INSERT
        // fails after the DELETE ran, and both roll back together.
        let oversized = Datum::text(&"x".repeat(8192));
        assert!(set_intermediate(&mut c, "intermediate", &[oversized]).is_err());
        let mut rows = c.rqs.backend().scan("intermediate").unwrap();
        rows.sort();
        assert_eq!(rows, frontier.map(|v| vec![v]));
        // The database is usable afterwards: no transaction was left open.
        set_intermediate(&mut c, "intermediate", &[]).unwrap();
        assert!(c.rqs.backend().scan("intermediate").unwrap().is_empty());
    }

    #[test]
    fn generated_firm_round_trip() {
        let firm = Firm::generate(FirmParams {
            depth: 3,
            branching: 2,
            staff_per_dept: 2,
            seed: 7,
        });
        let mut c = Coupler::empdep();
        c.consult(metaeval::views::WORKS_FOR).unwrap();
        firm.load_into(&mut c).unwrap();
        let spec = ClosureSpec::from_view(&c, "works_dir_for").unwrap();
        let run = eval_intermediate(
            &mut c,
            &spec,
            &Bound {
                side: BoundSide::High,
                value: Datum::text(firm.ceo()),
            },
            "intermediate",
        )
        .unwrap();
        // Everyone in the firm works for the ceo (including the ceo via the
        // root self-loop).
        assert_eq!(run.answers.len(), firm.employees.len());
    }
}
