//! The paper-pipeline workloads: one in-process client sending Prolog
//! goals through `Session::query` (metaevaluate → DBCL → §6 optimizer →
//! SQL → RQS on the paged engine).
//!
//! `paper_small` fits the buffer pool and is dominated by the front end;
//! `paper_large` is the same goal stream over a firm far larger than the
//! pool, dominated by RQS execution and the buffer pool.

use crate::metrics::{end_to_end, Outcome, Values};
use crate::storage_layer::CounterDelta;
use crate::trace::{self, Tracer};
use crate::util::{median, percentile_us, ratio, Rng, Sample};
use crate::{RunConfig, UNTRACED_SHARE};
use coupling::workload::{Firm, FirmParams};
use dbcl::{ConstraintSet, DatabaseDef};
use metaeval::MetaEvaluator;
use optimizer::{Simplifier, SimplifyOutcome};
use pfe_core::{Datum, Session};
use server::SharedDatabase;
use sqlgen::MappingOptions;
use std::time::Instant;

/// Sizes of one paper workload.
pub struct Spec {
    pub name: &'static str,
    pub depth: usize,
    pub branching: usize,
    pub staff_per_dept: usize,
    /// Buffer-pool frames of the paged RQS back end.
    pub pool_pages: usize,
}

pub const SMALL: Spec = Spec {
    name: "paper_small",
    depth: 2,
    branching: 2,
    staff_per_dept: 2,
    pool_pages: 64,
};

pub const LARGE: Spec = Spec {
    name: "paper_large",
    depth: 6,
    branching: 3,
    staff_per_dept: 6,
    pool_pages: 16,
};

/// `--smoke` stand-in for [`LARGE`]: same code path, data still larger
/// than the pool, a fraction of the run time.
pub const LARGE_SMOKE: Spec = Spec {
    name: "paper_large",
    depth: 4,
    branching: 3,
    staff_per_dept: 6,
    pool_pages: 16,
};

/// The views the goals resolve through: the paper's Example 3-3
/// (`works_dir_for`), Example 4-1 (`same_manager`) and Example 7-1
/// (recursive `works_for`). One source text so `works_dir_for` is
/// defined once.
const VIEWS: &str = "
    works_dir_for(X, Y) :-
        empl(_, X, _, D),
        dept(D, _, M),
        empl(M, Y, _, _).
    same_manager(X, Y) :-
        works_dir_for(X, M),
        works_dir_for(Y, M),
        neq(X, Y).
    works_for(Low, High) :-
        works_dir_for(Low, High).
    works_for(Low, High) :-
        works_dir_for(Low, Medium),
        works_for(Medium, High).
";

/// Management levels a `works_for` goal reaches: the metaevaluator
/// unfolds the recursive view into this many DBCL statements under the
/// session's default `UnfoldLimits`, and the oracle follows the chain
/// the same number of steps.
const WORKS_FOR_LEVELS: usize = 4;

/// Ops per cycle of the goal stream. The timed run ends on a cycle
/// boundary so every run executes the exact mix below.
const CYCLE: usize = 100;

/// The goal mix: (class, ops per [`CYCLE`]).
const MIX: [(Class, usize); 5] = [
    (Class::SameManager, 35),
    (Class::WorksDirFor, 25),
    (Class::WorksDirForCheap, 20),
    (Class::ProvablyEmpty, 10),
    (Class::WorksFor, 10),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// `same_manager(t_X, e)`: six DBCL rows the optimizer shrinks to two.
    SameManager,
    /// `works_dir_for(t_X, e)`: nothing to remove.
    WorksDirFor,
    /// `works_dir_for(t_X, e), empl(E, t_X, S, D), less(S, 40000)`.
    WorksDirForCheap,
    /// Same with `less(S, 2000)`: below the salary bound, so the
    /// optimizer proves the result empty and no SQL is sent.
    ProvablyEmpty,
    /// `works_for(t_X, e)`: the recursive view, several SQL statements.
    WorksFor,
}

struct Goal {
    text: String,
    /// Employee numbers of the expected answers, ascending — computed
    /// from the `Firm` hierarchy, never from the system under test.
    expected: Vec<i64>,
}

// ---------------------------------------------------------------------
// Oracle and goal stream
// ---------------------------------------------------------------------

/// Answers computed directly from the generated hierarchy.
struct Oracle<'a> {
    firm: &'a Firm,
}

impl Oracle<'_> {
    /// The employee number of `eno`'s direct manager.
    fn boss(&self, eno: i64) -> i64 {
        let dno = self.firm.employees[eno as usize - 1].dno;
        self.firm.departments[dno as usize - 1].mgr
    }

    fn expected(&self, class: Class, e: i64) -> Vec<i64> {
        let all = self.firm.employees.iter();
        match class {
            Class::SameManager => all
                .filter(|x| x.eno != e && self.boss(x.eno) == self.boss(e))
                .map(|x| x.eno)
                .collect(),
            Class::WorksDirFor => all
                .filter(|x| self.boss(x.eno) == e)
                .map(|x| x.eno)
                .collect(),
            Class::WorksDirForCheap => all
                .filter(|x| self.boss(x.eno) == e && x.sal < 40_000)
                .map(|x| x.eno)
                .collect(),
            Class::ProvablyEmpty => Vec::new(),
            Class::WorksFor => all
                .filter(|x| {
                    let mut up = x.eno;
                    (0..WORKS_FOR_LEVELS).any(|_| {
                        up = self.boss(up);
                        up == e
                    })
                })
                .map(|x| x.eno)
                .collect(),
        }
    }
}

fn goal_text(class: Class, name: &str) -> String {
    match class {
        Class::SameManager => format!("same_manager(t_X, {name})"),
        Class::WorksDirFor => format!("works_dir_for(t_X, {name})"),
        Class::WorksDirForCheap => {
            format!("works_dir_for(t_X, {name}), empl(E, t_X, S, D), less(S, 40000)")
        }
        Class::ProvablyEmpty => {
            format!("works_dir_for(t_X, {name}), empl(E, t_X, S, D), less(S, 2000)")
        }
        Class::WorksFor => format!("works_for(t_X, {name})"),
    }
}

/// Draws `count` employees uniformly, stratified by management level:
/// each level contributes its proportional share (largest remainder), so
/// two seeds differ in *which* employees they ask about, not in how deep
/// in the hierarchy the questions land.
fn stratified_employees(firm: &Firm, count: usize, rng: &mut Rng) -> Vec<i64> {
    let levels = firm.max_chain() + 1;
    let mut strata: Vec<Vec<i64>> = vec![Vec::new(); levels];
    for e in &firm.employees {
        strata[e.level].push(e.eno);
    }
    let total = firm.employees.len();
    let mut quota: Vec<usize> = strata.iter().map(|s| s.len() * count / total).collect();
    let mut by_remainder: Vec<usize> = (0..levels).collect();
    by_remainder.sort_by_key(|&l| std::cmp::Reverse((strata[l].len() * count) % total));
    let mut short = count - quota.iter().sum::<usize>();
    for &l in &by_remainder {
        if short == 0 {
            break;
        }
        quota[l] += 1;
        short -= 1;
    }
    let mut picked = Vec::with_capacity(count);
    for (members, &q) in strata.iter().zip(&quota) {
        for _ in 0..q {
            picked.push(members[rng.below(members.len() as u64) as usize]);
        }
    }
    picked
}

/// One cycle of the goal stream with its expected answers.
fn make_goals(firm: &Firm, seed: u64) -> Vec<Goal> {
    let oracle = Oracle { firm };
    let mut rng = Rng::new(seed);
    let mut goals = Vec::with_capacity(CYCLE);
    for (class, count) in MIX {
        for eno in stratified_employees(firm, count, &mut rng) {
            let name = &firm.employees[eno as usize - 1].nam;
            goals.push(Goal {
                text: goal_text(class, name),
                expected: oracle.expected(class, eno),
            });
        }
    }
    rng.shuffle(&mut goals);
    goals
}

// ---------------------------------------------------------------------
// System under test: set-up and one op
// ---------------------------------------------------------------------

fn firm_for(spec: &Spec, seed: u64) -> Firm {
    Firm::generate(FirmParams {
        depth: spec.depth,
        branching: spec.branching,
        staff_per_dept: spec.staff_per_dept,
        seed,
    })
}

/// Schema + load + integrity check: a ready session with the result
/// cache off (a cache hit would skip SQL entirely, and installed facts
/// grow the Prolog knowledge base for as long as the run lasts).
fn build_session(spec: &Spec, firm: &Firm) -> Result<Session, String> {
    let mut session = Session::empdep_paged(spec.pool_pages);
    session.consult(VIEWS).map_err(|e| e.to_string())?;
    for e in &firm.employees {
        let row = [
            Datum::Int(e.eno),
            Datum::text(&e.nam),
            Datum::Int(e.sal),
            Datum::Int(e.dno),
        ];
        session.load("empl", &row).map_err(|e| e.to_string())?;
    }
    for d in &firm.departments {
        let row = [Datum::Int(d.dno), Datum::text(&d.fct), Datum::Int(d.mgr)];
        session.load("dept", &row).map_err(|e| e.to_string())?;
    }
    session.check_integrity().map_err(|e| e.to_string())?;
    session.config_mut().cache = false;
    session.config_mut().optimize = true;
    Ok(session)
}

/// Employee numbers out of answer tuples (`X` bound to `'e<eno>'`),
/// ascending.
fn answer_enos(answers: &[pfe_core::Answer]) -> Option<Vec<i64>> {
    let mut enos = Vec::with_capacity(answers.len());
    for a in answers {
        let name = a.get("X")?.as_text()?;
        enos.push(name.strip_prefix('e')?.parse().ok()?);
    }
    enos.sort_unstable();
    Some(enos)
}

/// What one `Session::query` op cost.
struct OpResult {
    nanos: u64,
    /// Buffer-pool fetches (faults + hits) the op's SQL caused.
    pages: u64,
    exec_nanos: u64,
    ok: bool,
}

/// One op through the public entry point, timed at the caller and
/// checked against the oracle (the check is outside the timed interval).
fn session_op(session: &mut Session, goal: &Goal) -> OpResult {
    let started = Instant::now();
    let run = session.query(&goal.text, "q");
    let nanos = started.elapsed().as_nanos() as u64;
    match run {
        Ok(run) => {
            let m = run.total_metrics();
            OpResult {
                nanos,
                pages: m.page_reads + m.buffer_hits,
                exec_nanos: m.elapsed_nanos,
                ok: answer_enos(&run.answers).as_ref() == Some(&goal.expected),
            }
        }
        Err(_) => OpResult {
            nanos,
            pages: 0,
            exec_nanos: 0,
            ok: false,
        },
    }
}

#[derive(Default)]
struct LoopStats {
    /// Completed, verified ops in completion order.
    samples: Vec<Sample>,
    /// The same latencies grouped by position in the cycle (kept on
    /// request: the traced run attributes goal by goal).
    per_goal: Vec<Vec<u64>>,
    pages: u64,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
}

/// Closed loop, unpaced: whole cycles of the goal stream until `seconds`
/// have passed.
fn session_loop(
    session: &mut Session,
    goals: &[Goal],
    seconds: f64,
    keep_per_goal: bool,
) -> LoopStats {
    let mut stats = LoopStats {
        per_goal: vec![Vec::new(); goals.len()],
        ..LoopStats::default()
    };
    let started = Instant::now();
    loop {
        for (i, goal) in goals.iter().enumerate() {
            let op = session_op(session, goal);
            stats.attempted += 1;
            if op.ok {
                let end_ns = started.elapsed().as_nanos() as u64;
                stats.samples.push(Sample::new(end_ns, op.nanos));
                if keep_per_goal {
                    stats.per_goal[i].push(op.nanos);
                }
                stats.pages += op.pages;
            } else {
                stats.failed += 1;
            }
        }
        stats.elapsed_s = started.elapsed().as_secs_f64();
        if stats.elapsed_s >= seconds {
            return stats;
        }
    }
}

/// A loaded, warmed-up session and what getting there cost.
struct Ready {
    session: Session,
    firm: Firm,
    goals: Vec<Goal>,
    setup_s: f64,
    /// Warm-up ops whose answer was wrong.
    failed: u64,
}

/// Set-up as a user pays it: generate + schema + load + integrity check
/// + one warm-up cycle.
fn timed_setup(spec: &Spec, seed: u64) -> Result<Ready, String> {
    let started = Instant::now();
    let firm = firm_for(spec, seed);
    let mut session = build_session(spec, &firm)?;
    let built = started.elapsed().as_secs_f64();
    // Building the oracle's expected answers is harness work, not set-up.
    let goals = make_goals(&firm, seed);
    let warm = Instant::now();
    let failed = goals
        .iter()
        .filter(|g| !session_op(&mut session, g).ok)
        .count() as u64;
    let setup_s = built + warm.elapsed().as_secs_f64();
    Ok(Ready {
        session,
        firm,
        goals,
        setup_s,
        failed,
    })
}

/// Totals of one pass over the cycle.
struct Pass {
    failed: u64,
    pages: u64,
    exec_nanos: u64,
}

/// Every goal of the cycle once with the optimizer on or off. Off, the
/// answers must still equal the oracle's — and therefore the
/// optimizer-on answers.
fn cycle_pass(session: &mut Session, goals: &[Goal], optimize: bool) -> Pass {
    session.config_mut().optimize = optimize;
    let mut pass = Pass {
        failed: 0,
        pages: 0,
        exec_nanos: 0,
    };
    for goal in goals {
        let op = session_op(session, goal);
        pass.failed += u64::from(!op.ok);
        pass.pages += op.pages;
        pass.exec_nanos += op.exec_nanos;
    }
    session.config_mut().optimize = true;
    pass
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------

/// Entry point for both modes.
pub fn run_spec(spec: &Spec, traced: bool, cfg: &RunConfig) -> Result<Outcome, String> {
    if traced {
        run_traced(spec, cfg)
    } else {
        run(spec, cfg)
    }
}

fn run(spec: &Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut spent = 0.0;
    let mut warm_failed = 0;
    let Ready {
        mut session,
        firm,
        goals,
        ..
    } = loop {
        let ready = timed_setup(spec, cfg.seed)?;
        setups.push(ready.setup_s);
        spent += ready.setup_s;
        warm_failed += ready.failed;
        if cfg.enough_setups(setups.len(), spent) {
            break ready;
        }
    };

    let unoptimized = cycle_pass(&mut session, &goals, false);
    let stats = session_loop(&mut session, &goals, cfg.seconds, false);

    let pages_per_op = ratio(stats.pages as f64, stats.samples.len() as f64);
    let (values, windows) = end_to_end(&stats.samples, cfg.seconds, pages_per_op, &mut setups);
    Ok(Outcome {
        attempted: stats.attempted + (1 + setups.len() as u64) * goals.len() as u64,
        failed: stats.failed + unoptimized.failed + warm_failed,
        values,
        notes: vec![
            format!(
                "firm: {} employees, {} departments, pool {} pages",
                firm.employees.len(),
                firm.departments.len(),
                spec.pool_pages
            ),
            format!(
                "latency samples: {} ops over {:.2} s in {} windows, {} set-ups",
                stats.samples.len(),
                stats.elapsed_s,
                windows,
                setups.len()
            ),
        ],
    })
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

/// The same public calls `Coupler::query` makes, owned by the harness so
/// it can put a span around each: metaevaluate → simplify → to_sql_text →
/// `Database::execute`. The back end is wrapped in a `SharedDatabase`
/// only to read the engine-wide counter registry around the run.
struct Pipeline {
    engine: prolog::Engine,
    def: DatabaseDef,
    constraints: ConstraintSet,
    db: SharedDatabase,
}

impl Pipeline {
    fn build(spec: &Spec, firm: &Firm) -> Result<Pipeline, String> {
        let def = DatabaseDef::empdep();
        let constraints = ConstraintSet::empdep();
        let mut engine = prolog::Engine::new();
        engine.consult(VIEWS).map_err(|e| e.to_string())?;
        let mut db = rqs::Database::paged(spec.pool_pages).map_err(|e| e.to_string())?;
        for ddl in coupling::ddl_statements(&def, &constraints) {
            db.execute(&ddl).map_err(|e| e.to_string())?;
        }
        firm.load_into_rqs(&mut db).map_err(|e| e.to_string())?;
        db.validate_all().map_err(|e| e.to_string())?;
        Ok(Pipeline {
            engine,
            def,
            constraints,
            db: SharedDatabase::from_database(db),
        })
    }
}

/// Layer-by-layer account of one traced op.
#[derive(Default)]
struct OpTrace {
    /// Position of the goal in the cycle.
    goal: usize,
    metaeval: u64,
    optimizer: u64,
    sqlgen: u64,
    parse: u64,
    plan: u64,
    exec: u64,
    commit: u64,
    branches: u64,
    dbcl_rows: u64,
    rows_removed: u64,
    empty_proved: u64,
    sql_bytes: u64,
    statements: u64,
    page_reads: u64,
    buffer_hits: u64,
    rows_scanned: u64,
    result_rows: u64,
    joins: u64,
    ok: bool,
}

impl Pipeline {
    /// Replays one goal with a span around each layer call.
    fn traced_op(&self, goal: &Goal, optimize: bool, op: u64, tracer: &mut Tracer) -> OpTrace {
        let mut t = OpTrace::default();
        let op_start = tracer.now();
        let answers = self.traced_phases(goal, optimize, op, tracer, &mut t);
        let op_end = tracer.now();
        tracer.record(op, "op", "", op_start, op_end);
        t.ok = answers.is_some_and(|a| answer_enos(&a).as_ref() == Some(&goal.expected));
        t
    }

    fn traced_phases(
        &self,
        goal: &Goal,
        optimize: bool,
        op: u64,
        tracer: &mut Tracer,
        t: &mut OpTrace,
    ) -> Option<Vec<pfe_core::Answer>> {
        let start = tracer.now();
        let meta = MetaEvaluator::new(self.engine.kb(), &self.def);
        let outcome = meta.metaevaluate(&goal.text, "q").ok()?;
        let end = tracer.now();
        tracer.record(op, "metaeval", "op", start, end);
        t.metaeval = end - start;

        let mut answers = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for branch in outcome.branches {
            t.branches += 1;
            t.dbcl_rows += branch.query.rows.len() as u64;

            let query = if optimize {
                let start = tracer.now();
                let simplified =
                    Simplifier::new(&self.def, &self.constraints).simplify(branch.query);
                let end = tracer.now();
                tracer.record(op, "optimizer", "op", start, end);
                t.optimizer += end - start;
                match simplified {
                    SimplifyOutcome::Simplified(q, stats) => {
                        t.rows_removed += stats.rows_removed() as u64;
                        q
                    }
                    SimplifyOutcome::Empty(_) => {
                        t.empty_proved += 1;
                        continue;
                    }
                }
            } else {
                branch.query
            };

            let start = tracer.now();
            let opts = MappingOptions {
                first_var_index: 1,
                distinct: true,
            };
            let sql = sqlgen::mapping::to_sql_text(&query, &self.def, opts).ok()?;
            let end = tracer.now();
            tracer.record(op, "sqlgen", "op", start, end);
            t.sqlgen += end - start;
            t.sql_bytes += sql.len() as u64;

            let start = tracer.now();
            let (result, spans) = self
                .db
                .with_db(|db| {
                    let result = db.execute(&sql);
                    (result, db.last_statement_trace().spans.clone())
                })
                .ok()?;
            let end = tracer.now();
            tracer.record(op, "rqs.execute", "op", start, end);
            let result = result.ok()?;
            let mut children = Vec::with_capacity(spans.len());
            for span in &spans {
                let slot = match span.name {
                    "parse" => &mut t.parse,
                    "plan" => &mut t.plan,
                    "exec" => &mut t.exec,
                    "commit" => &mut t.commit,
                    _ => continue,
                };
                *slot += span.nanos;
                children.push((span.name, span.nanos));
            }
            tracer.record_durations(op, "rqs.execute", start, &children);
            t.statements += 1;
            t.page_reads += result.metrics.page_reads;
            t.buffer_hits += result.metrics.buffer_hits;
            t.rows_scanned += result.metrics.rows_scanned;
            t.result_rows += result.metrics.result_rows;
            t.joins += result.metrics.joins as u64;

            for a in coupling::answers_from_result(&query, &result).ok()? {
                if seen.insert(a.clone()) {
                    answers.push(a);
                }
            }
        }
        Some(answers)
    }
}

fn column(ops: &[OpTrace], f: impl Fn(&OpTrace) -> u64) -> Vec<u64> {
    ops.iter().map(f).collect()
}

fn sum(ops: &[OpTrace], f: impl Fn(&OpTrace) -> u64) -> f64 {
    ops.iter().map(f).sum::<u64>() as f64
}

fn run_traced(spec: &Spec, cfg: &RunConfig) -> Result<Outcome, String> {
    let Ready {
        mut session,
        firm,
        goals,
        failed: warm_failed,
        ..
    } = timed_setup(spec, cfg.seed)?;

    // Reference segment: the untraced entry point, same stream, same process.
    let reference = session_loop(&mut session, &goals, cfg.seconds * UNTRACED_SHARE, true);
    let untraced_throughput = ratio(reference.samples.len() as f64, reference.elapsed_s);

    // Optimizer benefit: the whole cycle with the optimizer on, then off.
    let on = cycle_pass(&mut session, &goals, true);
    let off = cycle_pass(&mut session, &goals, false);
    drop(session);

    // Traced segment.
    let pipeline = Pipeline::build(spec, &firm)?;
    let mut tracer = Tracer::new(Instant::now(), 0);
    // Warm the replay's own buffer pool. The op id is past the trace
    // file's cap, so these spans are not kept.
    for goal in &goals {
        pipeline.traced_op(goal, true, u64::MAX, &mut tracer);
    }
    let before = pipeline.db.metrics().map_err(|e| e.to_string())?;
    let hist_before = pipeline.db.histograms().map_err(|e| e.to_string())?;
    let mut ops: Vec<OpTrace> = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    let traced_seconds = cfg.seconds * (1.0 - UNTRACED_SHARE);
    let elapsed_s = loop {
        for (i, goal) in goals.iter().enumerate() {
            let mut t = pipeline.traced_op(goal, true, ops.len() as u64, &mut tracer);
            t.goal = i;
            if t.ok {
                ops.push(t);
            } else {
                failed += 1;
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= traced_seconds {
            break elapsed;
        }
    };
    let after = pipeline.db.metrics().map_err(|e| e.to_string())?;
    let hist_after = pipeline.db.histograms().map_err(|e| e.to_string())?;
    trace::write_jsonl(&cfg.trace_path(spec.name), &[tracer]).map_err(|e| e.to_string())?;

    let n = ops.len() as f64;
    let p_us = |f: fn(&OpTrace) -> u64, p: f64| percentile_us(&mut column(&ops, f), p);
    // Back-end phase medians are taken over the ops that sent SQL.
    let with_sql: Vec<&OpTrace> = ops.iter().filter(|o| o.statements > 0).collect();
    let sql_p50 = |f: fn(&OpTrace) -> u64| {
        let mut col: Vec<u64> = with_sql.iter().map(|o| f(o)).collect();
        percentile_us(&mut col, 50.0)
    };
    let optimizer_per_cycle = sum(&ops, |o| o.optimizer) / n * goals.len() as f64;

    // Attribution against the public entry point, goal by goal: the
    // median `Session::query` wall time of a goal (reference segment) =
    // its median traced phases + what no layer span covers.
    let mut session_wall = 0.0;
    let mut frontend = 0.0;
    let mut unattributed = Vec::with_capacity(goals.len());
    for (i, reference_walls) in reference.per_goal.iter().enumerate() {
        let of_goal = |f: fn(&OpTrace) -> u64| {
            let mut col: Vec<f64> = ops
                .iter()
                .filter(|o| o.goal == i)
                .map(|o| f(o) as f64)
                .collect();
            median(&mut col)
        };
        let wall = median(
            &mut reference_walls
                .iter()
                .map(|&n| n as f64)
                .collect::<Vec<_>>(),
        );
        let front = of_goal(|o| o.metaeval + o.optimizer + o.sqlgen);
        let back = of_goal(|o| o.parse + o.plan + o.exec + o.commit);
        session_wall += wall;
        frontend += front;
        unattributed.push((wall - front - back) / 1_000.0);
    }
    let mut client: Vec<u64> = reference.samples.iter().map(Sample::latency_ns).collect();

    let mut v = Values::new();
    v.insert("client.read_p50_us", percentile_us(&mut client, 50.0));
    v.insert("client.read_p95_us", percentile_us(&mut client, 95.0));
    v.insert("client.p99_us", percentile_us(&mut client, 99.0));
    v.insert("metaeval.time_us", p_us(|o| o.metaeval, 50.0));
    v.insert("metaeval.branches_per_goal", sum(&ops, |o| o.branches) / n);
    v.insert(
        "dbcl.rows_per_branch",
        ratio(sum(&ops, |o| o.dbcl_rows), sum(&ops, |o| o.branches)),
    );
    v.insert("optimizer.time_us", p_us(|o| o.optimizer, 50.0));
    v.insert(
        "optimizer.rows_removed_ratio",
        ratio(sum(&ops, |o| o.rows_removed), sum(&ops, |o| o.dbcl_rows)),
    );
    v.insert(
        "optimizer.empty_proved_ratio",
        ratio(sum(&ops, |o| o.empty_proved), sum(&ops, |o| o.branches)),
    );
    v.insert(
        "optimizer.pages_saved_ratio",
        1.0 - ratio(on.pages as f64, off.pages as f64),
    );
    v.insert(
        "optimizer.payback_ratio",
        ratio(
            off.exec_nanos as f64 - on.exec_nanos as f64,
            optimizer_per_cycle,
        ),
    );
    v.insert("sqlgen.time_us", p_us(|o| o.sqlgen, 50.0));
    v.insert(
        "sqlgen.sql_bytes",
        ratio(sum(&ops, |o| o.sql_bytes), sum(&ops, |o| o.statements)),
    );
    v.insert("coupling.frontend_share", ratio(frontend, session_wall));
    v.insert("coupling.unattributed_us", median(&mut unattributed));
    v.insert("rqs.parse_us", sql_p50(|o| o.parse));
    v.insert("rqs.plan_us", sql_p50(|o| o.plan));
    v.insert("rqs.exec_us", sql_p50(|o| o.exec));
    v.insert("rqs.commit_us", sql_p50(|o| o.commit));
    v.insert(
        "rqs.rows_scanned_per_row",
        ratio(sum(&ops, |o| o.rows_scanned), sum(&ops, |o| o.result_rows)),
    );
    v.insert(
        "rqs.joins_per_stmt",
        ratio(sum(&ops, |o| o.joins), sum(&ops, |o| o.statements)),
    );
    let counters = CounterDelta::between(&before, &after);
    crate::storage_layer::insert(&mut v, &counters, &hist_before, &hist_after, n);
    v.insert(
        "trace.overhead_ratio",
        ratio(ratio(n, elapsed_s), untraced_throughput),
    );

    Ok(Outcome {
        attempted: reference.attempted + 3 * goals.len() as u64 + ops.len() as u64 + failed,
        failed: reference.failed + warm_failed + on.failed + off.failed + failed,
        values: v,
        notes: vec![
            format!(
                "firm: {} employees, pool {} pages",
                firm.employees.len(),
                spec.pool_pages
            ),
            format!(
                "traced ops: {} over {elapsed_s:.2} s; untraced reference: {} ops over {:.2} s",
                ops.len(),
                reference.samples.len(),
                reference.elapsed_s
            ),
        ],
    })
}
