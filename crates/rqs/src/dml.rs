//! Predicated UPDATE and DELETE.
//!
//! The WHERE clause of a DML statement is resolved through the same
//! machinery as a single-table SELECT ([`plan::resolve`] over a
//! synthetic core), so its restrictions feed [`exec::choose_access`]
//! and indexed predicates ride an index read instead of a heap scan.
//! Execution then has three phases:
//!
//! 1. **read** — one [`PagedBackend::read`] of the chosen access path
//!    collects the matching rows with their [`RowId`]s (the predicate
//!    is a pure function of the tuple, so every access path selects the
//!    same multiset). This phase sees only committed-at-snapshot rows
//!    (plus the transaction's own writes), never a concurrent writer's
//!    uncommitted data;
//! 2. **re-check** — validate the statement against the integrity
//!    constraints it can disturb: CHECK bounds and types on assigned
//!    columns (a row's one size limit, the page, is met when the engine
//!    writes it), key uniqueness against the *post-statement*
//!    state, the row's own foreign keys, and restrict semantics for
//!    parents (updating a referenced key column or deleting a
//!    referenced row is refused while a child still points at it).
//!    These probes run in *constraint-probe* mode: they judge the
//!    latest committed state plus the writer's own rows, and conflict
//!    retryably when a probed table carries another transaction's
//!    uncommitted writes — a verdict against data that may roll back
//!    would be a guess either way;
//! 3. **mutate** — one backend transaction around
//!    [`PagedBackend::update_rows`]/[`PagedBackend::delete_rows`]
//!    over the ids phase 1 found: the rows are not walked again. The
//!    whole statement commits (and crash-recovers) atomically through
//!    the WAL. This is also where each row's write
//!    lock is taken: the engine's first-updater-wins check refuses a
//!    row another open transaction has written (or that a commit newer
//!    than this statement's snapshot rewrote), and a row it accepts
//!    stays pending under this transaction until commit or abort. A
//!    refusal can come after earlier rows were written; it fails the
//!    statement retryably and the transaction it ran in rolls back (the
//!    statement's own in autocommit, the server session's whole
//!    transaction inside `BEGIN`), so no row of it survives. Concurrent same-table writers are thus
//!    serialized per row, not per statement, and a race on one row is
//!    a retryable conflict instead of a silent overwrite.

use crate::backend::{AccessPath, PagedBackend, RowId, Snapshot};
use crate::catalog::{self, Catalog, ColumnType, Table, TableConstraint};
use crate::database::{probing, run_txn};
use crate::error::{RqsError, RqsResult};
use crate::exec;
use crate::plan::{self, JoinCond, Restriction};
use crate::sql::ast::{ArithOp, Condition, SelectCore, SetExpr, SetOperand};
use crate::value::{Datum, Tuple};
use std::collections::HashSet;

/// One resolved `SET col = expr` assignment.
struct ResolvedSet {
    col: usize,
    expr: ResolvedExpr,
}

enum ResolvedExpr {
    Value(ResolvedOperand),
    Arith(ResolvedOperand, ArithOp, ResolvedOperand),
}

enum ResolvedOperand {
    Col(usize),
    Lit(Datum),
}

impl ResolvedOperand {
    fn value(&self, row: &Tuple) -> Datum {
        match self {
            ResolvedOperand::Col(i) => row[*i].clone(),
            ResolvedOperand::Lit(d) => d.clone(),
        }
    }
}

/// Resolves and statically type-checks the SET list against the schema.
fn resolve_sets(table: &Table, sets: &[(String, SetExpr)]) -> RqsResult<Vec<ResolvedSet>> {
    let mut out: Vec<ResolvedSet> = Vec::with_capacity(sets.len());
    for (name, expr) in sets {
        let col = table
            .column_index(name)
            .ok_or_else(|| RqsError::UnknownColumn(format!("{}.{name}", table.name)))?;
        if out.iter().any(|s| s.col == col) {
            return Err(RqsError::Syntax(format!("column {name} assigned twice")));
        }
        let operand = |op: &SetOperand| -> RqsResult<(ResolvedOperand, ColumnType)> {
            match op {
                SetOperand::Column(c) => {
                    let i = table
                        .column_index(c)
                        .ok_or_else(|| RqsError::UnknownColumn(format!("{}.{c}", table.name)))?;
                    Ok((ResolvedOperand::Col(i), table.columns[i].ty))
                }
                SetOperand::Literal(d @ Datum::Int(_)) => {
                    Ok((ResolvedOperand::Lit(d.clone()), ColumnType::Int))
                }
                SetOperand::Literal(d @ Datum::Text(_)) => {
                    Ok((ResolvedOperand::Lit(d.clone()), ColumnType::Text))
                }
            }
        };
        let target_ty = table.columns[col].ty;
        let resolved = match expr {
            SetExpr::Value(v) => {
                let (v, ty) = operand(v)?;
                if ty != target_ty {
                    return Err(RqsError::Type(format!(
                        "cannot assign {ty} to {}.{name} ({target_ty})",
                        table.name
                    )));
                }
                ResolvedExpr::Value(v)
            }
            SetExpr::Arith { lhs, op, rhs } => {
                let (lhs, lty) = operand(lhs)?;
                let (rhs, rty) = operand(rhs)?;
                if lty != ColumnType::Int || rty != ColumnType::Int || target_ty != ColumnType::Int
                {
                    return Err(RqsError::Type(format!(
                        "arithmetic in SET needs INT operands and an INT target ({}.{name})",
                        table.name
                    )));
                }
                ResolvedExpr::Arith(lhs, *op, rhs)
            }
        };
        out.push(ResolvedSet {
            col,
            expr: resolved,
        });
    }
    Ok(out)
}

/// Computes the replacement tuple for one matched row.
fn apply_sets(sets: &[ResolvedSet], row: &Tuple) -> Tuple {
    let mut new = row.clone();
    for set in sets {
        new[set.col] = match &set.expr {
            ResolvedExpr::Value(v) => v.value(row),
            ResolvedExpr::Arith(lhs, op, rhs) => {
                let l = lhs.value(row).as_int().expect("statically typed INT");
                let r = rhs.value(row).as_int().expect("statically typed INT");
                Datum::Int(op.eval(l, r))
            }
        };
    }
    new
}

/// A DML WHERE clause resolved for one table: its pushed-down
/// restrictions, its same-row column comparisons, and the access path
/// they select.
struct Filter {
    restrictions: Vec<Restriction>,
    self_conds: Vec<JoinCond>,
    access: AccessPath,
}

/// Resolves a DML WHERE clause through the SELECT resolver over a
/// synthetic single-variable core and picks its access path with the
/// same [`exec::choose_access`] call a SELECT scan makes.
fn resolve_filter(
    catalog: &Catalog,
    backend: &PagedBackend,
    table: &str,
    filter: &[Condition],
) -> RqsResult<Filter> {
    let core = SelectCore {
        distinct: false,
        items: Vec::new(),
        from: vec![(table.to_owned(), table.to_owned())],
        conds: filter.to_vec(),
    };
    let snap = Snapshot { catalog, backend };
    let resolved = plan::resolve(&snap, &core)?;
    if !resolved.subqueries.is_empty() {
        return Err(RqsError::Syntax(
            "subqueries are not supported in DML predicates".into(),
        ));
    }
    let access = exec::choose_access(
        backend,
        table,
        resolved.vars[0].pages,
        &resolved.restrictions_of(0),
    );
    Ok(Filter {
        restrictions: resolved.restrictions,
        self_conds: resolved.joins,
        access,
    })
}

/// The row predicate: every restriction and every same-row comparison.
/// Always-false restrictions (`col == usize::MAX`) fail every row; the
/// access path already short-circuits them to an empty candidate set.
fn predicate<'a>(
    restrictions: &'a [Restriction],
    self_conds: &'a [JoinCond],
) -> impl FnMut(&Tuple) -> bool + 'a {
    move |row: &Tuple| {
        restrictions
            .iter()
            .all(|r| r.col != usize::MAX && r.op.eval(row[r.col].total_cmp(&r.value)))
            && self_conds
                .iter()
                .all(|j| j.op.eval(row[j.lcol].total_cmp(&row[j.rcol])))
    }
}

/// Read phase: the rows the statement will touch, with the ids the
/// mutate phase hands back to the backend.
fn matched_rows(
    backend: &PagedBackend,
    table: &str,
    access: &AccessPath,
    pred: &mut dyn FnMut(&Tuple) -> bool,
) -> RqsResult<Vec<(RowId, Tuple)>> {
    let mut out = Vec::new();
    backend.read(table, access, &mut |id, row| {
        if pred(row) {
            out.push((id, row.clone()));
        }
        true
    })?;
    Ok(out)
}

/// Visits every row of `table` (a full-scan [`PagedBackend::read`]).
fn each_row(backend: &PagedBackend, table: &str, f: &mut dyn FnMut(&Tuple)) -> RqsResult<()> {
    backend.read(table, &AccessPath::FullScan, &mut |_, row| {
        f(row);
        true
    })
}

/// The rows the statement leaves untouched (everything failing `pred`).
fn untouched_rows(
    backend: &PagedBackend,
    table: &str,
    pred: &mut dyn FnMut(&Tuple) -> bool,
) -> RqsResult<Vec<Tuple>> {
    let mut out = Vec::new();
    each_row(backend, table, &mut |row| {
        if !pred(row) {
            out.push(row.clone());
        }
    })?;
    Ok(out)
}

fn key_of(row: &Tuple, cols: &[usize]) -> Vec<Datum> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// One foreign-key edge into a parent table: the child's schema, its
/// fk column indices, and the parent's referenced column indices.
type FkEdge<'a> = (&'a Table, Vec<usize>, Vec<usize>);

/// Names of every table holding a foreign key into `parent`. Public so
/// the server's lock planner reads exactly the tables the restrict
/// checks here will read — one enumeration, no drift. Lookup failures
/// (unknown parent, corrupt constraint) yield an empty list; the
/// statement itself will surface them.
pub fn referencing_table_names(catalog: &Catalog, parent: &str) -> Vec<String> {
    referencing_edges(catalog, parent)
        .map(|edges| {
            edges
                .iter()
                .map(|(child, _, _)| child.name.clone())
                .collect()
        })
        .unwrap_or_default()
}

/// Every [`FkEdge`] whose parent is `name` — the edges restrict
/// semantics must re-check.
fn referencing_edges<'a>(catalog: &'a Catalog, name: &str) -> RqsResult<Vec<FkEdge<'a>>> {
    let parent = catalog.table(name)?;
    let mut out = Vec::new();
    for child_name in catalog.table_names() {
        let child = catalog.table(child_name)?;
        for c in &child.constraints {
            let TableConstraint::ForeignKey {
                columns,
                parent_table,
                parent_columns,
            } = c
            else {
                continue;
            };
            if parent_table != name {
                continue;
            }
            let child_cols = catalog::resolve_columns(child, columns, "fk")?;
            let parent_cols = catalog::resolve_columns(parent, parent_columns, "fk")?;
            out.push((child, child_cols, parent_cols));
        }
    }
    Ok(out)
}

/// Constraint re-checks for UPDATE, scoped to the assigned columns:
/// CHECK bounds, key uniqueness against the post-statement state, the
/// updated rows' own foreign keys, and children still referencing a
/// rewritten parent key.
fn check_update_constraints(
    catalog: &Catalog,
    backend: &PagedBackend,
    name: &str,
    new_rows: &[Tuple],
    changed: &HashSet<usize>,
    pred: &mut dyn FnMut(&Tuple) -> bool,
) -> RqsResult<()> {
    let table = catalog.table(name)?;
    for c in &table.constraints {
        if let TableConstraint::ValueBound { column, lo, hi } = c {
            let col = table
                .column_index(column)
                .ok_or_else(|| RqsError::Internal(format!("bound on missing column {column}")))?;
            if changed.contains(&col) {
                for row in new_rows {
                    catalog::check_value_bound(table, row, column, *lo, *hi)?;
                }
            }
        }
    }

    let edges = referencing_edges(catalog, name)?;
    let parent_key_rewritten = edges
        .iter()
        .any(|(_, _, parent_cols)| parent_cols.iter().any(|c| changed.contains(c)));
    let needs_final = parent_key_rewritten
        || table.constraints.iter().any(|c| match c {
            TableConstraint::Key { columns } => catalog::resolve_columns(table, columns, "key")
                .is_ok_and(|cols| cols.iter().any(|c| changed.contains(c))),
            TableConstraint::ForeignKey {
                columns,
                parent_table,
                ..
            } => {
                parent_table == name
                    && catalog::resolve_columns(table, columns, "fk")
                        .is_ok_and(|cols| cols.iter().any(|c| changed.contains(c)))
            }
            TableConstraint::ValueBound { .. } => false,
        });
    let untouched = if needs_final {
        untouched_rows(backend, name, pred)?
    } else {
        Vec::new()
    };

    // Key uniqueness against the final state (untouched ∪ new): catches
    // collisions with surviving rows and between two updated rows.
    for c in &table.constraints {
        let TableConstraint::Key { columns } = c else {
            continue;
        };
        let cols = catalog::resolve_columns(table, columns, "key")?;
        if !cols.iter().any(|c| changed.contains(c)) {
            continue;
        }
        let mut seen: HashSet<Vec<Datum>> = untouched.iter().map(|r| key_of(r, &cols)).collect();
        for row in new_rows {
            if !seen.insert(key_of(row, &cols)) {
                return Err(RqsError::ConstraintViolation(format!(
                    "duplicate key {columns:?} in {name}"
                )));
            }
        }
    }

    // The updated rows' own foreign keys (only when an fk column was
    // assigned). A self-referential parent is probed against the final
    // state.
    for c in &table.constraints {
        let TableConstraint::ForeignKey {
            columns,
            parent_table,
            parent_columns,
        } = c
        else {
            continue;
        };
        let child_cols = catalog::resolve_columns(table, columns, "fk")?;
        if !child_cols.iter().any(|c| changed.contains(c)) {
            continue;
        }
        let parent = catalog.table(parent_table)?;
        let parent_cols = catalog::resolve_columns(parent, parent_columns, "fk")?;
        let parent_keys: HashSet<Vec<Datum>> = if parent_table == name {
            untouched
                .iter()
                .chain(new_rows)
                .map(|r| key_of(r, &parent_cols))
                .collect()
        } else {
            let mut keys = HashSet::new();
            each_row(backend, parent_table, &mut |row| {
                keys.insert(key_of(row, &parent_cols));
            })?;
            keys
        };
        for row in new_rows {
            if !parent_keys.contains(&key_of(row, &child_cols)) {
                return Err(RqsError::ConstraintViolation(format!(
                    "{name}{columns:?} -> {parent_table}{parent_columns:?}: no parent for {:?}",
                    key_of(row, &child_cols)
                )));
            }
        }
    }

    // Restrict semantics: rewriting a referenced key column must leave
    // every child row a parent in the final state.
    for (child, child_cols, parent_cols) in &edges {
        if !parent_cols.iter().any(|c| changed.contains(c)) {
            continue;
        }
        let final_keys: HashSet<Vec<Datum>> = untouched
            .iter()
            .chain(new_rows)
            .map(|r| key_of(r, parent_cols))
            .collect();
        let mut orphan: Option<Vec<Datum>> = None;
        let mut check = |row: &Tuple| {
            let key = key_of(row, child_cols);
            if orphan.is_none() && !final_keys.contains(&key) {
                orphan = Some(key);
            }
        };
        if child.name == name {
            for row in untouched.iter().chain(new_rows) {
                check(row);
            }
        } else {
            each_row(backend, &child.name, &mut check)?;
        }
        if let Some(key) = orphan {
            return Err(RqsError::ConstraintViolation(format!(
                "{} still references {name} key {key:?}",
                child.name
            )));
        }
    }
    Ok(())
}

/// Restrict semantics for DELETE: every child row must keep a parent
/// among the surviving rows.
fn check_delete_constraints(
    catalog: &Catalog,
    backend: &PagedBackend,
    name: &str,
    pred: &mut dyn FnMut(&Tuple) -> bool,
) -> RqsResult<()> {
    let edges = referencing_edges(catalog, name)?;
    if edges.is_empty() {
        return Ok(());
    }
    let remaining = untouched_rows(backend, name, pred)?;
    for (child, child_cols, parent_cols) in &edges {
        let remaining_keys: HashSet<Vec<Datum>> =
            remaining.iter().map(|r| key_of(r, parent_cols)).collect();
        let mut orphan: Option<Vec<Datum>> = None;
        let mut check = |row: &Tuple| {
            let key = key_of(row, child_cols);
            if orphan.is_none() && !remaining_keys.contains(&key) {
                orphan = Some(key);
            }
        };
        if child.name == name {
            for row in &remaining {
                check(row);
            }
        } else {
            each_row(backend, &child.name, &mut check)?;
        }
        if let Some(key) = orphan {
            return Err(RqsError::ConstraintViolation(format!(
                "{} still references {name} key {key:?}",
                child.name
            )));
        }
    }
    Ok(())
}

/// Renders the plan `EXPLAIN UPDATE`/`EXPLAIN DELETE` shows: the exact
/// access path `execute_update`/`execute_delete` would choose for the
/// same predicate (they share `resolve_filter`),
/// without mutating anything.
pub(crate) fn explain_dml(
    catalog: &Catalog,
    backend: &PagedBackend,
    verb: &str,
    table_name: &str,
    filter: &[Condition],
) -> RqsResult<String> {
    catalog.table(table_name)?;
    let f = resolve_filter(catalog, backend, table_name, filter)?;
    Ok(format!(
        "{verb} {table_name} [{} restriction(s), {} self cond(s)]\n  {}\n",
        f.restrictions.len(),
        f.self_conds.len(),
        f.access,
    ))
}

/// Executes `UPDATE table SET … [WHERE …]`, returning the row count.
pub(crate) fn execute_update(
    catalog: &Catalog,
    backend: &mut PagedBackend,
    table_name: &str,
    sets: &[(String, SetExpr)],
    filter: &[Condition],
) -> RqsResult<usize> {
    let table = catalog.table(table_name)?;
    let sets = resolve_sets(table, sets)?;
    let changed: HashSet<usize> = sets.iter().map(|s| s.col).collect();
    let Filter {
        restrictions,
        self_conds,
        access,
    } = resolve_filter(catalog, &*backend, table_name, filter)?;
    let mut pred = predicate(&restrictions, &self_conds);
    let matched = matched_rows(&*backend, table_name, &access, &mut pred)?;
    if matched.is_empty() {
        return Ok(0);
    }
    let (ids, new_rows): (Vec<RowId>, Vec<Tuple>) = matched
        .iter()
        .map(|(id, row)| (*id, apply_sets(&sets, row)))
        .unzip();
    // Constraint re-checks run in probe mode: latest committed state
    // plus this transaction's own rows, conflicting retryably when the
    // probed tables carry another transaction's uncommitted writes.
    probing(&*backend, || {
        check_update_constraints(
            catalog, &*backend, table_name, &new_rows, &changed, &mut pred,
        )
    })?;
    let updates: Vec<(RowId, Tuple)> = ids.into_iter().zip(new_rows).collect();
    run_txn(backend, |b| b.update_rows(table_name, &updates))
}

/// Restrict semantics for the bare `DELETE FROM t` truncation fast
/// path: truncating a table is deleting every row, so it must be
/// refused while any child row still references one — exactly the
/// predicated-DELETE rule with an always-true predicate (the surviving
/// key set is empty). A self-referential table passes trivially: its
/// own rows vanish with it.
pub(crate) fn check_truncate_constraints(
    catalog: &Catalog,
    backend: &PagedBackend,
    name: &str,
) -> RqsResult<()> {
    check_delete_constraints(catalog, backend, name, &mut |_| true)
}

/// Executes `DELETE FROM table WHERE …`, returning the row count.
pub(crate) fn execute_delete(
    catalog: &Catalog,
    backend: &mut PagedBackend,
    table_name: &str,
    filter: &[Condition],
) -> RqsResult<usize> {
    catalog.table(table_name)?;
    let Filter {
        restrictions,
        self_conds,
        access,
    } = resolve_filter(catalog, &*backend, table_name, filter)?;
    let mut pred = predicate(&restrictions, &self_conds);
    let matched = matched_rows(&*backend, table_name, &access, &mut pred)?;
    if matched.is_empty() {
        return Ok(0);
    }
    // Probe mode for the restrict re-check (see `execute_update`).
    probing(&*backend, || {
        check_delete_constraints(catalog, &*backend, table_name, &mut pred)
    })?;
    let ids: Vec<RowId> = matched.into_iter().map(|(id, _)| id).collect();
    run_txn(backend, |b| b.delete_rows(table_name, &ids))
}
