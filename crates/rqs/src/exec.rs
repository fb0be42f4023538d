//! Physical execution: instrumented scans, hash/nested-loop joins,
//! subquery filters, projection, DISTINCT and UNION.
//!
//! Every operator updates [`QueryMetrics`]; the front-end benchmarks use
//! these counters to show how many joins and scanned tuples the §6
//! simplification saves, independently of wall-clock noise.

use crate::backend::{AccessPath, PagedBackend, Snapshot};
use crate::error::{RqsError, RqsResult};
use crate::plan::{self, JoinCond, JoinMethod, PhysicalPlan, Restriction};
use crate::sql::ast::{SelectCore, SelectStmt};
use crate::value::{Datum, Tuple};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};

/// Work counters accumulated over a statement (including subqueries and
/// every UNION arm).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Base-table scans performed.
    pub scans: usize,
    /// Tuples read from base tables (index lookups count matches only).
    pub rows_scanned: u64,
    /// Join operators executed. A step skipped because the rows before
    /// it were empty (`ran=Skipped`) is not one.
    pub joins: usize,
    /// Pairs/probes evaluated while joining.
    pub join_comparisons: u64,
    /// Tuples produced by join operators.
    pub intermediate_tuples: u64,
    /// Rows in the final result.
    pub result_rows: u64,
    /// Subqueries evaluated (NOT IN / IN).
    pub subqueries: usize,
    /// Index probes issued by join steps that joined through an index
    /// ([`JoinMethod::IndexProbe`] run as a probe: one per left row).
    pub index_probes: u64,
    /// Pages faulted in from storage.
    pub page_reads: u64,
    /// Page fetches served by the buffer pool.
    pub buffer_hits: u64,
    /// WAL frames appended (DML; 0 for queries).
    pub wal_appends: u64,
    /// WAL bytes appended, frame headers included (DML).
    pub wal_bytes: u64,
    /// Wall-clock of the whole statement (parse through result),
    /// nanoseconds. Filled by `Database::execute`.
    pub elapsed_nanos: u64,
    /// Time spent parsing the SQL text, nanoseconds.
    pub parse_nanos: u64,
    /// Time spent in resolve + plan (every core and UNION arm),
    /// nanoseconds. Accumulated by `run_core`.
    pub plan_nanos: u64,
    /// Time spent executing the statement (for queries this includes
    /// planning; `plan_nanos` isolates it), nanoseconds.
    pub exec_nanos: u64,
}

impl QueryMetrics {
    /// Folds another metrics bundle into this one.
    pub fn absorb(&mut self, other: &QueryMetrics) {
        self.scans += other.scans;
        self.rows_scanned += other.rows_scanned;
        self.joins += other.joins;
        self.join_comparisons += other.join_comparisons;
        self.intermediate_tuples += other.intermediate_tuples;
        self.result_rows += other.result_rows;
        self.subqueries += other.subqueries;
        self.index_probes += other.index_probes;
        self.page_reads += other.page_reads;
        self.buffer_hits += other.buffer_hits;
        self.wal_appends += other.wal_appends;
        self.wal_bytes += other.wal_bytes;
        self.elapsed_nanos += other.elapsed_nanos;
        self.parse_nanos += other.parse_nanos;
        self.plan_nanos += other.plan_nanos;
        self.exec_nanos += other.exec_nanos;
    }
}

/// An executed (sub)result: labeled columns plus rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Relation {
    pub columns: Vec<String>,
    pub rows: Vec<Tuple>,
}

/// What one pipeline step did when it ran — `EXPLAIN ANALYZE`'s
/// per-step report, so the plan printed is the plan that ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRun {
    /// `Scan`, `HashJoin`, `IndexProbe` or `NestedLoop`; `Skipped` when
    /// an earlier step left no rows, so this one read nothing.
    pub method: &'static str,
    /// Index probes issued (0 unless the step probed).
    pub probes: u64,
    /// Rows the step read from its table: its share of `rows_scanned`.
    pub rows_read: u64,
}

impl std::fmt::Display for StepRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ran={} probes={} rows_read={}",
            self.method, self.probes, self.rows_read
        )
    }
}

/// Receives each top-level SELECT core's plan with what its steps did
/// (subqueries are not reported).
pub type PlanObserver<'a> = dyn FnMut(&PhysicalPlan, &[StepRun]) + 'a;

/// Runs a full SELECT (with UNION arms); rows are deduplicated across arms
/// per SQL UNION semantics.
pub fn run_select(
    snap: &Snapshot,
    stmt: &SelectStmt,
    metrics: &mut QueryMetrics,
) -> RqsResult<Relation> {
    run_select_observed(snap, stmt, metrics, &mut |_, _| {})
}

/// [`run_select`], handing every top-level core's executed plan and step
/// reports to `observe` (`EXPLAIN ANALYZE`).
pub fn run_select_observed(
    snap: &Snapshot,
    stmt: &SelectStmt,
    metrics: &mut QueryMetrics,
    observe: &mut PlanObserver,
) -> RqsResult<Relation> {
    let mut first = run_core(snap, &stmt.core, metrics, observe)?;
    for arm in &stmt.unions {
        let rel = run_core(snap, arm, metrics, observe)?;
        if rel.columns.len() != first.columns.len() {
            return Err(RqsError::Type(format!(
                "UNION arms have {} vs {} columns",
                first.columns.len(),
                rel.columns.len()
            )));
        }
        first.rows.extend(rel.rows);
    }
    if !stmt.unions.is_empty() {
        // UNION output is a set: the first arm's own duplicates go too.
        dedup_rows(&mut first.rows);
    }
    metrics.result_rows = first.rows.len() as u64;
    Ok(first)
}

/// Drops every row equal to an earlier one, keeping first occurrences in
/// order. The one set borrows the rows, so no row is cloned.
fn dedup_rows(rows: &mut Vec<Tuple>) {
    let keep: Vec<bool> = {
        let mut seen: HashSet<&Tuple> = HashSet::with_capacity(rows.len());
        rows.iter().map(|row| seen.insert(row)).collect()
    };
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next().expect("one flag per row"));
}

/// Runs one SELECT core through resolve → plan → pipeline.
fn run_core(
    snap: &Snapshot,
    core: &SelectCore,
    metrics: &mut QueryMetrics,
    observe: &mut PlanObserver,
) -> RqsResult<Relation> {
    let planning = std::time::Instant::now();
    let resolved = plan::resolve(snap, core)?;
    let physical = plan::plan(resolved, snap.backend);
    metrics.plan_nanos += planning.elapsed().as_nanos() as u64;
    let (relation, runs) = run_physical(snap, &physical, metrics)?;
    observe(&physical, &runs);
    Ok(relation)
}

/// Executes a physical plan, reporting what each step did.
pub fn run_physical(
    snap: &Snapshot,
    physical: &PhysicalPlan,
    metrics: &mut QueryMetrics,
) -> RqsResult<(Relation, Vec<StepRun>)> {
    let core = &physical.core;
    // Combined-tuple offsets per var, in join order.
    let mut offsets: HashMap<usize, usize> = HashMap::new();
    let mut width = 0usize;
    for step in &physical.steps {
        offsets.insert(step.var, width);
        width += core.vars[step.var].width;
    }
    let at = |j: &JoinCond, left: bool| -> usize {
        if left {
            offsets[&j.lvar] + j.lcol
        } else {
            offsets[&j.rvar] + j.rcol
        }
    };
    // A condition evaluated on the pair (left row, new variable's row),
    // addressed as the joined row would be.
    let eval_join = |j: &JoinCond, left: &[Datum], right: &[Datum]| -> bool {
        let (l, r) = (
            pair_at(left, right, at(j, true)),
            pair_at(left, right, at(j, false)),
        );
        j.op.eval(l.total_cmp(r))
    };

    let mut current: Vec<Tuple> = Vec::new();
    let mut runs: Vec<StepRun> = Vec::with_capacity(physical.steps.len());
    for (i, step) in physical.steps.iter().enumerate() {
        if i > 0 && current.is_empty() {
            // Every join is inner, so an empty prefix joins to nothing:
            // the rest of the pipeline reads no row and no page.
            runs.push(StepRun {
                method: "Skipped",
                probes: 0,
                rows_read: 0,
            });
            continue;
        }
        let rows_before = metrics.rows_scanned;
        let mut run = StepRun {
            method: "Scan",
            probes: 0,
            rows_read: 0,
        };
        if i == 0 {
            // Self-conditions on the first variable apply right here.
            let self_conds: Vec<&JoinCond> = core
                .joins
                .iter()
                .filter(|j| j.lvar == step.var && j.rvar == step.var)
                .collect();
            visit_var(snap, core, step.var, metrics, |row| {
                if self_conds.iter().all(|j| eval_join(j, row, &[])) {
                    current.push(row.clone());
                }
            })?;
            run.rows_read = metrics.rows_scanned - rows_before;
            runs.push(run);
            continue;
        }
        metrics.joins += 1;
        let mut next: Vec<Tuple> = Vec::new();
        match &step.method {
            JoinMethod::Initial => {
                return Err(RqsError::Internal("Initial step after the first".into()))
            }
            JoinMethod::IndexProbe {
                col,
                key: (kvar, kcol),
                eq,
                extra,
            } if probes_beat_scan(current.len(), core.vars[step.var].pages) => {
                run.method = "IndexProbe";
                let table = &core.vars[step.var].table;
                let check = restriction_check(core.restrictions_of(step.var));
                let key_at = offsets[kvar] + kcol;
                for left_row in &current {
                    metrics.join_comparisons += 1;
                    let probe = AccessPath::KeyEq(*col, left_row[key_at].clone());
                    snap.backend.read(table, &probe, &mut |_, right| {
                        metrics.rows_scanned += 1;
                        if check(right)
                            && eq
                                .iter()
                                .chain(extra)
                                .all(|j| eval_join(j, left_row, right))
                        {
                            next.push(joined(left_row, right));
                        }
                        true
                    })?;
                }
                run.probes = current.len() as u64;
                metrics.index_probes += run.probes;
            }
            JoinMethod::Hash { eq, extra } | JoinMethod::IndexProbe { eq, extra, .. } => {
                run.method = "HashJoin";
                // Build on the left rows, which are already materialised:
                // each left row's index, bucketed by a hash of its key
                // columns borrowed in place. Then stream the new
                // variable's rows past the buckets and clone only the
                // ones that join.
                let (left_cols, right_cols): (Vec<usize>, Vec<usize>) = eq
                    .iter()
                    .map(|j| {
                        if j.lvar == step.var {
                            (at(j, false), j.lcol)
                        } else {
                            (at(j, true), j.rcol)
                        }
                    })
                    .unzip();
                let state = RandomState::new();
                let key_hash = |row: &[Datum], cols: &[usize]| -> u64 {
                    let mut h = state.build_hasher();
                    cols.iter().for_each(|&c| row[c].hash(&mut h));
                    h.finish()
                };
                let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
                for (l, left_row) in current.iter().enumerate() {
                    buckets
                        .entry(key_hash(left_row, &left_cols))
                        .or_default()
                        .push(l);
                }
                metrics.join_comparisons += current.len() as u64;
                let mut matched: Vec<(usize, Tuple)> = Vec::new();
                visit_var(snap, core, step.var, metrics, |right| {
                    let Some(lefts) = buckets.get(&key_hash(right, &right_cols)) else {
                        return;
                    };
                    for &l in lefts {
                        let left_row = &current[l];
                        // Equal hashes may hide unequal keys: every
                        // equality is checked on the pair.
                        if eq
                            .iter()
                            .chain(extra)
                            .all(|j| eval_join(j, left_row, right))
                        {
                            matched.push((l, joined(left_row, right)));
                        }
                    }
                })?;
                // Left-major, then heap order within one left row (a
                // stable sort), as a loop over the left rows would emit.
                matched.sort_by_key(|&(l, _)| l);
                next = matched.into_iter().map(|(_, row)| row).collect();
            }
            JoinMethod::NestedLoop { conds } => {
                run.method = "NestedLoop";
                let mut scanned: Vec<Tuple> = Vec::new();
                visit_var(snap, core, step.var, metrics, |row| {
                    scanned.push(row.clone())
                })?;
                for left_row in &current {
                    for right_row in &scanned {
                        metrics.join_comparisons += 1;
                        if conds.iter().all(|j| eval_join(j, left_row, right_row)) {
                            next.push(joined(left_row, right_row));
                        }
                    }
                }
            }
        }
        metrics.intermediate_tuples += next.len() as u64;
        current = next;
        run.rows_read = metrics.rows_scanned - rows_before;
        runs.push(run);
    }

    // Subquery filters.
    for sq in &core.subqueries {
        metrics.subqueries += 1;
        let sub = run_select(snap, &sq.stmt, metrics)?;
        let set: HashSet<Datum> = sub
            .rows
            .into_iter()
            .filter_map(|mut r| {
                if r.is_empty() {
                    None
                } else {
                    Some(r.swap_remove(0))
                }
            })
            .collect();
        let off = offsets[&sq.var] + sq.col;
        current.retain(|row| set.contains(&row[off]) != sq.negated);
    }

    // Projection.
    let columns: Vec<String> = core
        .items
        .iter()
        .map(|&(var, col)| {
            let v = &core.vars[var];
            let table = snap.catalog.table(&v.table).expect("resolved table");
            format!("{}.{}", v.alias, table.columns[col].name)
        })
        .collect();
    let mut rows: Vec<Tuple> = current
        .iter()
        .map(|row| {
            core.items
                .iter()
                .map(|&(var, col)| row[offsets[&var] + col].clone())
                .collect()
        })
        .collect();

    if core.distinct {
        dedup_rows(&mut rows);
    }
    Ok((Relation { columns, rows }, runs))
}

/// The value at position `i` of the row `left ++ right` would become,
/// read from the pair without building it.
fn pair_at<'r>(left: &'r [Datum], right: &'r [Datum], i: usize) -> &'r Datum {
    match i.checked_sub(left.len()) {
        Some(r) => &right[r],
        None => &left[i],
    }
}

/// The row `left ++ right`: what a join step emits for a surviving pair.
fn joined(left: &[Datum], right: &[Datum]) -> Tuple {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

/// Pages one point probe reads: the root and a leaf of a two-level
/// B+-tree — the height an index reaches once its keys outgrow one
/// leaf — and the heap page its match lives on. A one-leaf index reads
/// a page less and a long posting list more; charging every probe this
/// much keeps a probe from being chosen where it would read as many
/// pages as the scan it replaces.
pub const PROBE_PAGES: usize = 3;

/// Whether `probes` index probes read fewer pages than one scan of a
/// `heap_pages`-page table. The comparison always charges at least one
/// probe, so a table no larger than one probe keeps its scan whatever
/// the left side holds — a one-page table is read in one fetch.
pub fn probes_beat_scan(probes: usize, heap_pages: usize) -> bool {
    probes.max(1).saturating_mul(PROBE_PAGES) < heap_pages
}

/// Picks how candidate rows of one table are located for a set of
/// single-variable restrictions: an equality on an indexed column rides
/// a point lookup, inequalities (`<`, `<=`, `>`, `>=` — a BETWEEN is
/// two of them) on an indexed column collapse into one ordered range
/// cursor, anything else walks the heap — and so does every restriction
/// on a table of `heap_pages` no larger than one probe
/// ([`probes_beat_scan`] for a single probe): its scan is the cheaper
/// read. This is the access-path half of `scan_var`, shared with
/// predicated UPDATE/DELETE so DML rides exactly the same index
/// machinery as SELECT scans.
pub fn choose_access(
    backend: &PagedBackend,
    table: &str,
    heap_pages: usize,
    restrictions: &[&Restriction],
) -> AccessPath {
    use crate::sql::ast::CmpOp;
    use std::ops::Bound;
    // Always-false literal comparisons are encoded with col == usize::MAX.
    if restrictions.iter().any(|r| r.col == usize::MAX) {
        return AccessPath::Nothing;
    }
    if !probes_beat_scan(1, heap_pages) {
        return AccessPath::FullScan;
    }
    for r in restrictions {
        if matches!(r.op, CmpOp::Eq) && backend.has_index(table, r.col) {
            return AccessPath::KeyEq(r.col, r.value.clone());
        }
    }
    for r in restrictions {
        if !matches!(r.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
            || !backend.has_index(table, r.col)
        {
            continue;
        }
        let col = r.col;
        let mut lower: Bound<&Datum> = Bound::Unbounded;
        let mut upper: Bound<&Datum> = Bound::Unbounded;
        for s in restrictions.iter().filter(|s| s.col == col) {
            match s.op {
                CmpOp::Gt => lower = tighten_lower(lower, Bound::Excluded(&s.value)),
                CmpOp::Ge => lower = tighten_lower(lower, Bound::Included(&s.value)),
                CmpOp::Lt => upper = tighten_upper(upper, Bound::Excluded(&s.value)),
                CmpOp::Le => upper = tighten_upper(upper, Bound::Included(&s.value)),
                _ => {}
            }
        }
        return AccessPath::KeyRange(col, lower.cloned(), upper.cloned());
    }
    AccessPath::FullScan
}

/// Scans one range variable through the access path [`choose_access`]
/// picks, lending `f` each row that passes the variable's pushed-down
/// restrictions. Every row read counts in `rows_scanned`; the caller
/// clones only what it keeps.
fn visit_var(
    snap: &Snapshot,
    core: &plan::ResolvedCore,
    var: usize,
    metrics: &mut QueryMetrics,
    mut f: impl FnMut(&Tuple),
) -> RqsResult<()> {
    let info = &core.vars[var];
    metrics.scans += 1;
    let restrictions = core.restrictions_of(var);
    let access = choose_access(snap.backend, &info.table, info.pages, &restrictions);
    let check = restriction_check(restrictions);
    snap.backend.read(&info.table, &access, &mut |_, row| {
        metrics.rows_scanned += 1;
        if check(row) {
            f(row);
        }
        true
    })
}

/// The conjunction of one variable's pushed-down restrictions, as a
/// row predicate.
fn restriction_check(restrictions: Vec<&Restriction>) -> impl Fn(&Tuple) -> bool + '_ {
    move |row| {
        restrictions
            .iter()
            .all(|r| r.op.eval(row[r.col].total_cmp(&r.value)))
    }
}

/// The tighter of two lower bounds (the larger value; on ties an
/// exclusive bound excludes more).
fn tighten_lower<'a>(
    cur: std::ops::Bound<&'a Datum>,
    new: std::ops::Bound<&'a Datum>,
) -> std::ops::Bound<&'a Datum> {
    use std::ops::Bound::*;
    let (cv, cx) = match cur {
        Unbounded => return new,
        Included(v) => (v, false),
        Excluded(v) => (v, true),
    };
    let (nv, nx) = match new {
        Unbounded => return cur,
        Included(v) => (v, false),
        Excluded(v) => (v, true),
    };
    match nv.total_cmp(cv) {
        std::cmp::Ordering::Greater => new,
        std::cmp::Ordering::Less => cur,
        std::cmp::Ordering::Equal if nx && !cx => new,
        std::cmp::Ordering::Equal => cur,
    }
}

/// The tighter of two upper bounds (the smaller value; on ties an
/// exclusive bound excludes more).
fn tighten_upper<'a>(
    cur: std::ops::Bound<&'a Datum>,
    new: std::ops::Bound<&'a Datum>,
) -> std::ops::Bound<&'a Datum> {
    use std::ops::Bound::*;
    let (cv, cx) = match cur {
        Unbounded => return new,
        Included(v) => (v, false),
        Excluded(v) => (v, true),
    };
    let (nv, nx) = match new {
        Unbounded => return cur,
        Included(v) => (v, false),
        Excluded(v) => (v, true),
    };
    match nv.total_cmp(cv) {
        std::cmp::Ordering::Less => new,
        std::cmp::Ordering::Greater => cur,
        std::cmp::Ordering::Equal if nx && !cx => new,
        std::cmp::Ordering::Equal => cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn empdep_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
            .unwrap();
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, mgr INT)")
            .unwrap();
        // control(1, smiley) manages dept 10; smiley manages dept 20.
        db.execute(
            "INSERT INTO empl VALUES
             (1, 'control', 80000, 10),
             (2, 'smiley', 60000, 10),
             (3, 'jones', 30000, 20),
             (4, 'miller', 25000, 20),
             (5, 'leamas', 35000, 20)",
        )
        .unwrap();
        db.execute("INSERT INTO dept VALUES (10, 'hq', 1), (20, 'field', 2)")
            .unwrap();
        db
    }

    #[test]
    fn single_table_restriction() {
        let mut db = empdep_db();
        let r = db
            .execute("SELECT v1.nam FROM empl v1 WHERE v1.sal < 40000")
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|t| t[0].to_string()).collect();
        assert_eq!(names, ["'jones'", "'miller'", "'leamas'"]);
        assert_eq!(r.metrics.scans, 1);
        assert_eq!(r.metrics.rows_scanned, 5);
        assert_eq!(r.metrics.joins, 0);
    }

    #[test]
    fn equijoin_works_dir_for_smiley() {
        // Appendix query: who works directly for smiley?
        let mut db = empdep_db();
        let r = db
            .execute(
                "SELECT v12.nam FROM empl v12, dept v13, empl v14
                 WHERE (v12.dno = v13.dno) AND (v13.mgr = v14.eno)
                   AND (v14.nam = 'smiley')",
            )
            .unwrap();
        let mut names: Vec<String> = r.rows.iter().map(|t| t[0].to_string()).collect();
        names.sort();
        assert_eq!(names, ["'jones'", "'leamas'", "'miller'"]);
        assert_eq!(r.metrics.joins, 2);
    }

    #[test]
    fn cross_product_when_no_condition() {
        let mut db = empdep_db();
        let r = db.execute("SELECT v1.nam FROM empl v1, dept v2").unwrap();
        assert_eq!(r.rows.len(), 10); // 5 × 2
    }

    #[test]
    fn inequality_join() {
        let mut db = empdep_db();
        let r = db
            .execute(
                "SELECT v1.nam FROM empl v1, empl v2
                 WHERE v1.sal > v2.sal AND v2.nam = 'smiley'",
            )
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|t| t[0].to_string()).collect();
        assert_eq!(names, ["'control'"]);
    }

    #[test]
    fn same_var_comparison() {
        let mut db = empdep_db();
        // Employees who manage their own department would need eno = mgr;
        // here: self-comparison inside one var.
        let r = db
            .execute("SELECT v1.nam FROM empl v1 WHERE v1.eno < v1.dno")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        let r = db
            .execute("SELECT v1.nam FROM empl v1 WHERE v1.eno > v1.dno")
            .unwrap();
        assert_eq!(r.rows.len(), 0);
    }

    #[test]
    fn distinct_dedupes() {
        let mut db = empdep_db();
        let r = db.execute("SELECT v1.dno FROM empl v1").unwrap();
        assert_eq!(r.rows.len(), 5);
        let r = db.execute("SELECT DISTINCT v1.dno FROM empl v1").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn union_dedupes_across_arms() {
        let mut db = empdep_db();
        let r = db
            .execute(
                "SELECT v1.nam FROM empl v1 WHERE v1.sal < 40000
                 UNION SELECT v2.nam FROM empl v2 WHERE v2.dno = 20",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3); // same three people in both arms
                                     // The first arm's own duplicates go too; first occurrences keep
                                     // their order, the later arm's new rows follow.
        let r = db
            .execute("SELECT v1.dno FROM empl v1 UNION SELECT v2.mgr FROM dept v2")
            .unwrap();
        let ints: Vec<i64> = r.rows.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(ints, [10, 20, 1, 2]);
        assert_eq!(r.metrics.result_rows, 4);
    }

    #[test]
    fn union_column_count_mismatch_rejected() {
        let mut db = empdep_db();
        let err = db.execute("SELECT v1.nam FROM empl v1 UNION SELECT v2.dno, v2.mgr FROM dept v2");
        assert!(matches!(err, Err(RqsError::Type(_))));
    }

    #[test]
    fn not_in_subquery() {
        let mut db = empdep_db();
        // §7: employees who are managers but do not manage dept 20.
        let r = db
            .execute(
                "SELECT v1.nam FROM empl v1 WHERE v1.eno NOT IN
                 (SELECT v2.mgr FROM dept v2 WHERE v2.dno = 20)",
            )
            .unwrap();
        let mut names: Vec<String> = r.rows.iter().map(|t| t[0].to_string()).collect();
        names.sort();
        assert_eq!(names.len(), 4);
        assert!(!names.contains(&"'smiley'".to_owned()));
        assert_eq!(r.metrics.subqueries, 1);
    }

    #[test]
    fn in_subquery_positive() {
        let mut db = empdep_db();
        let r = db
            .execute(
                "SELECT v1.nam FROM empl v1 WHERE v1.eno IN
                 (SELECT v2.mgr FROM dept v2)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    /// Inserts `n` filler employees (enos from 100, in dept 20) so
    /// `empl` spans several pages and index paths beat its scan.
    fn add_filler_employees(db: &mut Database, n: i64) {
        let rows: Vec<String> = (100..100 + n)
            .map(|i| format!("({i}, 'filler{i}', 20000, 20)"))
            .collect();
        db.execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
            .unwrap();
    }

    #[test]
    fn index_accelerated_scan_counts_fewer_rows() {
        let mut db = empdep_db();
        add_filler_employees(&mut db, 500);
        db.execute("CREATE INDEX ON empl (nam)").unwrap();
        let r = db
            .execute("SELECT v1.sal FROM empl v1 WHERE v1.nam = 'jones'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.metrics.rows_scanned, 1); // index hit, not 505
    }

    /// The page rule: the same indexed equality is a one-fetch scan on a
    /// one-page table and an index read — fewer fetches than the scan —
    /// once the table spans more pages than a probe reads.
    #[test]
    fn indexed_equality_scans_one_page_tables_and_probes_larger_ones() {
        let mut db = Database::paged(8).unwrap();
        db.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
        db.execute("CREATE INDEX ON t (k)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        let q = "SELECT v.pad FROM t v WHERE v.k = 2";
        let fetches = |r: &crate::QueryResult| r.metrics.page_reads + r.metrics.buffer_hits;
        assert!(db.explain(q).unwrap().contains("via FullScan"));
        let small = db.execute(q).unwrap();
        assert_eq!(small.rows, vec![vec![Datum::text("b")]]);
        assert_eq!(fetches(&small), 1, "a one-page table is one fetch");

        let pad = "p".repeat(200);
        let rows: Vec<String> = (10..110).map(|k| format!("({k}, '{pad}')")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        let pages = db.backend().table_size("t").unwrap().pages as u64;
        assert!(pages > PROBE_PAGES as u64, "{pages} pages");
        assert!(db.explain(q).unwrap().contains("via IndexEq col#0 = 2"));
        let large = db.execute(q).unwrap();
        assert_eq!(large.rows, small.rows);
        assert_eq!(large.metrics.rows_scanned, 1);
        assert!(
            fetches(&large) < pages,
            "index read: {} fetches, scan: {pages}",
            fetches(&large)
        );
    }

    /// A database with `l` and `r` created from `(columns, rows)`. `l`
    /// must be no larger than `r` after its restrictions, so the planner
    /// scans `v1` first and joins `r v2` onto it.
    fn with_tables(l: (&str, &str), r: (&str, &str)) -> Database {
        let mut db = Database::paged(8).unwrap();
        for (name, (cols, rows)) in [("l", l), ("r", r)] {
            db.execute(&format!("CREATE TABLE {name} ({cols})"))
                .unwrap();
            db.execute(&format!("INSERT INTO {name} VALUES {rows}"))
                .unwrap();
        }
        db
    }

    /// Runs `sql` — every column of `l v1`, then every column of `r v2`,
    /// with a hash step onto `v2` — and checks it against a nested loop
    /// over the two tables in heap order: the same rows, in the same
    /// order (left-major, then the right table's heap order).
    fn assert_hash_step_matches_nested_loop(
        db: &mut Database,
        sql: &str,
        pred: impl Fn(&[Datum], &[Datum]) -> bool,
    ) {
        let plan = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let text: Vec<&str> = plan.rows.iter().filter_map(|r| r[0].as_text()).collect();
        let step = text.iter().find(|l| l.contains("r v2")).unwrap();
        assert!(step.contains("ran=HashJoin"), "{text:#?}");
        let (left, right) = (
            db.backend().scan("l").unwrap(),
            db.backend().scan("r").unwrap(),
        );
        let expected: Vec<Tuple> = left
            .iter()
            .flat_map(|l| {
                right
                    .iter()
                    .filter(|r| pred(l, r))
                    .map(|r| joined(l, r))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(db.execute(sql).unwrap().rows, expected, "{sql}");
    }

    #[test]
    fn hash_step_with_duplicate_left_keys_matches_nested_loop() {
        let l = (
            "k INT, p INT",
            "(1, 10), (2, 20), (1, 30), (3, 40), (1, 50)",
        );
        let r = (
            "k INT, q INT",
            "(1, 100), (4, 400), (1, 110), (2, 200), (1, 120), (5, 500)",
        );
        let mut db = with_tables(l, r);
        assert_hash_step_matches_nested_loop(
            &mut db,
            "SELECT v1.k, v1.p, v2.k, v2.q FROM l v1, r v2 WHERE v1.k = v2.k",
            |l, r| l[0] == r[0],
        );
    }

    #[test]
    fn hash_step_on_a_two_column_text_key_matches_nested_loop() {
        let l = (
            "a TEXT, b TEXT, p INT",
            "('x', 'y', 1), ('x', 'z', 2), ('w', 'y', 3), ('x', 'y', 4)",
        );
        let r = (
            "a TEXT, b TEXT, q INT",
            "('x', 'y', 10), ('x', 'z', 20), ('x', 'w', 30), ('w', 'y', 40), ('y', 'x', 50), ('x', 'y', 60)",
        );
        let mut db = with_tables(l, r);
        assert_hash_step_matches_nested_loop(
            &mut db,
            "SELECT v1.a, v1.b, v1.p, v2.a, v2.b, v2.q FROM l v1, r v2
             WHERE v1.a = v2.a AND v2.b = v1.b",
            |l, r| l[0] == r[0] && l[1] == r[1],
        );
    }

    #[test]
    fn hash_step_with_an_extra_condition_matches_nested_loop() {
        let l = ("k INT, p INT", "(1, 5), (2, 50), (1, 15), (2, 5)");
        let r = (
            "k INT, q INT",
            "(1, 10), (1, 20), (2, 40), (2, 60), (1, 1), (3, 99)",
        );
        let mut db = with_tables(l, r);
        assert_hash_step_matches_nested_loop(
            &mut db,
            "SELECT v1.k, v1.p, v2.k, v2.q FROM l v1, r v2
             WHERE v2.k = v1.k AND v1.p < v2.q",
            |l, r| l[0] == r[0] && l[1].total_cmp(&r[1]).is_lt(),
        );
    }

    #[test]
    fn hash_step_onto_an_empty_right_side_matches_nested_loop() {
        let l = ("k INT, p INT", "(1, 1), (2, 2)");
        let rows: Vec<String> = (0..9).map(|i| format!("({}, {i})", i % 3)).collect();
        let r = ("k INT, q INT", rows.join(", "));
        let mut db = with_tables(l, (r.0, &r.1));
        assert_hash_step_matches_nested_loop(
            &mut db,
            "SELECT v1.k, v1.p, v2.k, v2.q FROM l v1, r v2
             WHERE v1.k = v2.k AND v2.q > 1000",
            |l, r| l[0] == r[0] && r[1].total_cmp(&Datum::Int(1000)).is_gt(),
        );
    }

    #[test]
    fn always_false_literal_condition_yields_empty() {
        let mut db = empdep_db();
        let r = db
            .execute("SELECT v1.nam FROM empl v1 WHERE 1 = 2")
            .unwrap();
        assert!(r.rows.is_empty());
        let r = db
            .execute("SELECT v1.nam FROM empl v1 WHERE 1 = 1")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
    }

    #[test]
    fn metrics_absorb_sums() {
        let mut a = QueryMetrics {
            scans: 1,
            rows_scanned: 10,
            ..Default::default()
        };
        let b = QueryMetrics {
            scans: 2,
            joins: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.scans, 3);
        assert_eq!(a.rows_scanned, 10);
        assert_eq!(a.joins, 1);
    }
}
