//! Regenerates every figure and worked example of the paper and prints
//! paper-claim vs. measured-result rows. EXPERIMENTS.md records a run of
//! this binary.
//!
//! Run with: `cargo run -p pfe-bench --bin experiments` (add `--release`
//! for representative timings).
//!
//! With `--json <path>` the storage/concurrency/DML sections (S1, S2,
//! S3) additionally write their headline numbers as a schema-stable
//! JSON document — the benchmark trajectory committed to the repo as
//! `BENCH_experiments.json` and schema-checked in CI (keys must match;
//! values are machine-dependent).

use coupling::multi::{analyze_batch, BatchDisposition};
use coupling::recursion::{
    eval_intermediate, eval_intermediate_mismatched, eval_naive, Bound, BoundSide, ClosureSpec,
};
use coupling::workload::FirmParams;
use dbcl::{ConstraintSet, DatabaseDef, DbclQuery};
use metaeval::{views, MetaEvaluator};
use optimizer::{Simplifier, SimplifyConfig, SimplifyOutcome};
use pfe_bench::{firm_session, firm_session_paged, firm_sweep, spy_session};
use pfe_core::Datum;
use sqlgen::mapping::{translate, MappingOptions};
use std::time::Instant;

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn paper(claim: &str) {
    println!("paper:    {claim}");
}

fn measured(text: &str) {
    println!("measured: {text}");
}

/// One JSON value of the benchmark trajectory (hand-rolled: the
/// workspace carries no serialization dependency).
enum JsonVal {
    U(u64),
    F(f64),
    S(String),
    Obj(JsonObj),
}

/// An insertion-ordered JSON object. Order is part of the committed
/// schema, so the file diffs cleanly run over run.
#[derive(Default)]
struct JsonObj(Vec<(&'static str, JsonVal)>);

impl JsonObj {
    fn u(mut self, key: &'static str, v: u64) -> Self {
        self.0.push((key, JsonVal::U(v)));
        self
    }

    fn f(mut self, key: &'static str, v: f64) -> Self {
        self.0.push((key, JsonVal::F(v)));
        self
    }

    fn s(mut self, key: &'static str, v: &str) -> Self {
        self.0.push((key, JsonVal::S(v.to_owned())));
        self
    }

    fn obj(mut self, key: &'static str, v: JsonObj) -> Self {
        self.0.push((key, JsonVal::Obj(v)));
        self
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        out.push_str("{\n");
        let pad = "  ".repeat(indent + 1);
        for (i, (key, val)) in self.0.iter().enumerate() {
            out.push_str(&pad);
            out.push('"');
            out.push_str(key);
            out.push_str("\": ");
            match val {
                JsonVal::U(v) => out.push_str(&v.to_string()),
                // Finite with a fixed number of decimals: always valid JSON.
                JsonVal::F(v) => {
                    out.push_str(&format!("{:.3}", if v.is_finite() { *v } else { 0.0 }))
                }
                JsonVal::S(v) => {
                    out.push('"');
                    for c in v.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                JsonVal::Obj(v) => v.render_into(out, indent + 1),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }

    fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

/// Per-statement wall-time samples for one benchmark section, rendered
/// as the section's `latency` object: sample count plus p50/p95/p99 in
/// microseconds (the keys are schema; the values, like every timing in
/// this file, are machine-dependent).
#[derive(Default)]
struct Samples(Vec<u64>);

impl Samples {
    fn push(&mut self, nanos: u64) {
        self.0.push(nanos);
    }

    /// Nearest-rank percentile over the recorded samples, nanoseconds.
    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// `(count, p50_us, p95_us, p99_us)`.
    fn pcts(&mut self) -> (usize, f64, f64, f64) {
        self.0.sort_unstable();
        (
            self.0.len(),
            Self::percentile(&self.0, 50.0) as f64 / 1000.0,
            Self::percentile(&self.0, 95.0) as f64 / 1000.0,
            Self::percentile(&self.0, 99.0) as f64 / 1000.0,
        )
    }

    /// Prints the distribution and renders the JSON `latency` object.
    fn finish(mut self) -> JsonObj {
        let (count, p50, p95, p99) = self.pcts();
        measured(&format!(
            "per-statement latency over {count} statements: \
             p50 {p50:.1} us, p95 {p95:.1} us, p99 {p99:.1} us"
        ));
        JsonObj::default()
            .u("count", count as u64)
            .f("p50_us", p50)
            .f("p95_us", p95)
            .f("p99_us", p99)
    }
}

/// The engine-wide counter snapshot as a JSON object, one key per
/// counter in registry order (the names are the schema).
/// The paged engine under a database built with `Database::paged`.
fn engine(db: &rqs::Database) -> &storage::StorageEngine {
    db.backend()
        .as_paged()
        .expect("the storage experiments run on the paged engine")
        .engine()
}

fn metrics_json(snap: storage::MetricsSnapshot) -> JsonObj {
    snap.counters()
        .into_iter()
        .fold(JsonObj::default(), |obj, (name, value)| {
            let mut obj = obj;
            obj.0.push((name, JsonVal::U(value)));
            obj
        })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a path argument");
                    std::process::exit(2);
                });
                json_path = Some(path.into());
            }
            other => {
                eprintln!("unknown argument: {other} (supported: --json <path>)");
                std::process::exit(2);
            }
        }
    }

    println!("Reproduction harness for:");
    println!("  Jarke, Clifford, Vassiliou — An Optimizing Prolog Front-End to a");
    println!("  Relational Query System (SIGMOD 1984)");

    f1_pipeline();
    f2_grammar();
    e3_3_dbcl();
    e4_1_partner();
    e5_1_direct_sql();
    e6_1_chase();
    e6_2_simplification();
    e6_bounds();
    e7_1_recursion();
    ea_appendix();
    x1_disjunction();
    x2_negation();
    x3_stepwise();
    x4_multi_query();
    a1_ablation();
    let s1 = s1_storage();
    let s2 = s2_concurrency();
    let s3 = s3_update();

    if let Some(path) = json_path {
        let doc = JsonObj::default()
            .s("paper", "conf_sigmod_JarkeCV84")
            .s("binary", "experiments")
            .obj("s1_storage", s1)
            .obj("s2_concurrency", s2)
            .obj("s3_update", s3)
            .render();
        std::fs::write(&path, doc).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("\nwrote benchmark trajectory to {}", path.display());
    }
}

/// F1 — Figure 1: the four-phase architecture, with per-phase latency.
fn f1_pipeline() {
    header(
        "F1",
        "Figure 1 — architecture of the PROLOG-SQL translation mechanism",
    );
    paper("metaevaluate -> DBCL -> local/global optimize -> translate -> SQL");
    let (mut s, firm) = firm_session(FirmParams {
        depth: 3,
        branching: 3,
        staff_per_dept: 5,
        seed: 1,
    });
    let goal = format!("same_manager(t_X, '{}')", firm.deepest_employee());

    let db = DatabaseDef::empdep();
    let cs = ConstraintSet::empdep();
    let t0 = Instant::now();
    let meta = MetaEvaluator::new(s.coupler().engine.kb(), &db);
    let out = meta
        .metaevaluate(&goal, "same_manager")
        .expect("metaevaluates");
    let t_meta = t0.elapsed();

    let t0 = Instant::now();
    let SimplifyOutcome::Simplified(opt, _) =
        Simplifier::new(&db, &cs).simplify(out.branches[0].query.clone())
    else {
        unreachable!("satisfiable")
    };
    let t_opt = t0.elapsed();

    let t0 = Instant::now();
    let sql = translate(&opt, &db, MappingOptions::default()).expect("translates");
    let t_sql = t0.elapsed();

    let t0 = Instant::now();
    let result = s
        .coupler_mut()
        .rqs
        .execute(&sql.to_sql())
        .expect("executes");
    let t_exec = t0.elapsed();

    measured(&format!(
        "phases on a {}-employee firm: metaevaluate {:?}, optimize {:?}, translate {:?}, execute {:?} ({} answers)",
        firm.employees.len(), t_meta, t_opt, t_sql, t_exec, result.rows.len()
    ));
}

/// F2 — Figure 2: the DBCL grammar (parse/print round trip).
fn f2_grammar() {
    header("F2", "Figure 2 — grammar for full DBCL");
    paper("DBCL is a variable-free subset of PROLOG with dbcl/4 metaterms");
    let fixtures = [DbclQuery::example_3_3(), DbclQuery::example_4_1()];
    let mut ok = 0;
    for q in &fixtures {
        if DbclQuery::parse(&q.to_string()).as_ref() == Ok(q) {
            ok += 1;
        }
    }
    let stmt = dbcl::DbclStatement::parse(&format!("not({}) ; specialist(a, b)", fixtures[0]))
        .expect("full DBCL parses");
    measured(&format!(
        "{ok}/{} conjunctive fixtures round-trip; full-DBCL statement with negation+disjunction parses: {}",
        fixtures.len(),
        matches!(stmt, dbcl::DbclStatement::Disjunction(_))
    ));
}

/// E3-3 — Example 3-3: DBCL representation of the works_dir_for query.
fn e3_3_dbcl() {
    header(
        "E3-3",
        "Example 3-3 — works_dir_for + salary restriction in DBCL",
    );
    paper("4 relreference rows, comparison [less, v_S, 40000]");
    let mut engine = prolog::Engine::new();
    engine.consult(views::WORKS_DIR_FOR).expect("view parses");
    let db = DatabaseDef::empdep();
    let meta = MetaEvaluator::new(engine.kb(), &db);
    let out = meta
        .metaevaluate(
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 40000)",
            "works_dir_for",
        )
        .expect("metaevaluates");
    let q = &out.branches[0].query;
    measured(&format!(
        "{} rows ({}), {} comparison(s): {}",
        q.rows.len(),
        q.rows
            .iter()
            .map(|r| r.relation.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        q.comparisons.len(),
        q.comparisons[0]
    ));
}

/// E4-1 — Example 4-1: the partner query splits internal/external.
fn e4_1_partner() {
    header(
        "E4-1",
        "Example 4-1 — partner(jones, X, driving) via coupling",
    );
    paper("same_manager resolved in DBMS, specialist in PROLOG; metaevaluate once (cut)");
    let mut s = spy_session();
    s.consult(views::SAME_MANAGER).expect("views parse");
    s.consult(
        "specialist(jones, guns). specialist(miller, driving). specialist(smiley, thinking).",
    )
    .expect("facts parse");
    let run = s
        .query(
            "same_manager(t_X, jones), specialist(t_X, driving)",
            "partner",
        )
        .expect("query runs");
    let again = s
        .query(
            "same_manager(t_X, jones), specialist(t_X, driving)",
            "partner",
        )
        .expect("query runs");
    measured(&format!(
        "answers: {:?}; database candidates {}, Prolog-filtered {}; second ask cache-hit: {}",
        run.answers
            .iter()
            .map(|a| a["X"].to_string())
            .collect::<Vec<_>>(),
        run.branches[0].raw_answers,
        run.branches[0].residual_filtered,
        again.branches[0].cache_hit
    ));
}

/// E5-1 — Example 5-1: direct SQL for same_manager(t_X, jones).
fn e5_1_direct_sql() {
    header(
        "E5-1",
        "Example 5-1 — direct translation of same_manager(t_X, jones)",
    );
    paper("SELECT v1.nam FROM empl v1, dept v2, empl v3, empl v4, dept v5, empl v6 (5 join terms)");
    let db = DatabaseDef::empdep();
    let sql =
        translate(&DbclQuery::example_4_1(), &db, MappingOptions::default()).expect("translates");
    measured(&format!(
        "{} FROM variables, {} join terms, {} restriction terms",
        sql.from.len(),
        sql.join_term_count(),
        sql.conds.len() - sql.join_term_count()
    ));
}

/// E6-1 — Example 6-1: FD chase on the works_dir_for query.
fn e6_1_chase() {
    header("E6-1", "Example 6-1 — chase merges the duplicate empl row");
    paper("v_Eno4 replaced by v_Eno1; first and last rows equated, one omitted");
    let db = DatabaseDef::empdep();
    let cs = ConstraintSet::empdep();
    let mut q = DbclQuery::example_3_3();
    let before = q.rows.len();
    match optimizer::chase::chase(&mut q, &db, &cs) {
        optimizer::chase::ChaseOutcome::Done(stats) => measured(&format!(
            "rows {} -> {}; merges: {}",
            before,
            q.rows.len(),
            stats
                .merges
                .iter()
                .map(|(f, t)| format!("{f}->{t}"))
                .collect::<Vec<_>>()
                .join(", ")
        )),
        optimizer::chase::ChaseOutcome::Contradiction(w) => {
            measured(&format!("contradiction: {w}"))
        }
    }
}

/// E6-2 — Example 6-2: the flagship simplification + execution sweep.
fn e6_2_simplification() {
    header(
        "E6-2",
        "Example 6-2 — same_manager simplification and execution",
    );
    paper("6 rows -> 2 rows; \"four out of five join operations have been avoided\"");
    let db = DatabaseDef::empdep();
    let cs = ConstraintSet::empdep();
    let direct = DbclQuery::example_4_1();
    let direct_sql = translate(&direct, &db, MappingOptions::default()).expect("translates");
    let SimplifyOutcome::Simplified(opt, stats) =
        Simplifier::new(&db, &cs).simplify(direct.clone())
    else {
        unreachable!("satisfiable")
    };
    let opt_sql = translate(&opt, &db, MappingOptions::default()).expect("translates");
    measured(&format!(
        "rows {} -> {}; join terms {} -> {} (chase removed {}, refint removed {})",
        direct.rows.len(),
        opt.rows.len(),
        direct_sql.join_term_count(),
        opt_sql.join_term_count(),
        stats.rows_removed_chase,
        stats.rows_removed_refint
    ));
    println!("          execution sweep on the paged backend (direct vs optimized),");
    println!("          8-page pool — pages_* counts pages touched (reads + hits), the paper's cost model:");
    println!(
        "          {:>6} {:>8} {:>8} {:>11} {:>11} {:>8} {:>8} {:>7}",
        "n", "joins_d", "joins_o", "scanned_d", "scanned_o", "pages_d", "pages_o", "agree"
    );
    for params in firm_sweep() {
        let (mut s, firm) = firm_session_paged(params, 8);
        s.config_mut().cache = false;
        let goal = format!("same_manager(t_X, '{}')", firm.deepest_employee());
        let optimized = s.query(&goal, "same_manager").expect("query runs");
        s.config_mut().optimize = false;
        let direct = s.query(&goal, "same_manager").expect("query runs");
        let (om, dm) = (optimized.total_metrics(), direct.total_metrics());
        println!(
            "          {:>6} {:>8} {:>8} {:>11} {:>11} {:>8} {:>8} {:>7}",
            firm.employees.len(),
            dm.joins,
            om.joins,
            dm.rows_scanned,
            om.rows_scanned,
            dm.page_reads + dm.buffer_hits,
            om.page_reads + om.buffer_hits,
            optimized.answers.len() == direct.answers.len()
        );
    }
}

/// S1 — the paged storage engine itself: buffer pool + B+-tree payoff.
fn s1_storage() -> JsonObj {
    header(
        "S1",
        "Paged storage engine — page I/O under an 8-page buffer pool",
    );
    paper("(infrastructure: the paper's cost model counts DBMS page accesses)");
    let mut db = rqs::Database::paged(8).expect("paged database");
    let mut lat = Samples::default();
    db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
        .expect("ddl runs");
    let n = 2000;
    let mut load_wal_appends = 0u64;
    let mut load_wal_bytes = 0u64;
    for chunk_start in (0..n).step_by(100) {
        let rows: Vec<String> = (chunk_start..chunk_start + 100)
            .map(|i| format!("({i}, 'e{i}', {}, {})", 10_000 + i, i % 25))
            .collect();
        let r = db
            .execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
            .expect("insert runs");
        lat.push(r.metrics.elapsed_nanos);
        load_wal_appends += r.metrics.wal_appends;
        load_wal_bytes += r.metrics.wal_bytes;
    }
    measured(&format!(
        "durability cost of the {n}-row load: {load_wal_appends} WAL frames, \
         {:.1} KiB logged ({:.0} bytes/row); queries append nothing",
        load_wal_bytes as f64 / 1024.0,
        load_wal_bytes as f64 / n as f64,
    ));
    let point = "SELECT v.sal FROM empl v WHERE v.nam = 'e1234'";
    let scan = db.execute(point).expect("query runs");
    db.execute("CREATE INDEX ON empl (nam)")
        .expect("index builds");
    let indexed = db.execute(point).expect("query runs");
    lat.push(scan.metrics.elapsed_nanos);
    lat.push(indexed.metrics.elapsed_nanos);
    assert_eq!(
        scan.rows, indexed.rows,
        "index path must not change answers"
    );
    let hit_rate = |m: &rqs::QueryMetrics| {
        let total = m.page_reads + m.buffer_hits;
        if total == 0 {
            0.0
        } else {
            m.buffer_hits as f64 / total as f64
        }
    };
    measured(&format!(
        "{n}-row table, 8-page pool; point query via full scan: {} page_reads \
         (hit rate {:.0}%); via B+-tree index: {} page_reads (hit rate {:.0}%)",
        scan.metrics.page_reads,
        100.0 * hit_rate(&scan.metrics),
        indexed.metrics.page_reads,
        100.0 * hit_rate(&indexed.metrics),
    ));
    measured(&format!(
        "index saves {} of {} page reads ({}x fewer); rows_scanned {} -> {}",
        scan.metrics.page_reads - indexed.metrics.page_reads,
        scan.metrics.page_reads,
        scan.metrics.page_reads / indexed.metrics.page_reads.max(1),
        scan.metrics.rows_scanned,
        indexed.metrics.rows_scanned,
    ));
    // Indexed point reads under write churn: a parked transaction
    // holds an uncommitted UPDATE on one row, so the table carries
    // version metadata and every index read beside it resolves its
    // postings through a read view. It must still be an index read —
    // the worst of these may cost a page more than the quiescent one
    // above (the writer's dirty page is pinned in the 8-page pool), not
    // the table.
    let writer = db.begin_session_txn().expect("transaction opens");
    db.resume_session_txn(writer).expect("transaction resumes");
    db.execute("UPDATE empl SET dno = dno + 1 WHERE nam = 'e7'")
        .expect("update runs");
    db.suspend_session_txn();
    let churn_reads = 200u64;
    let mut churn_worst = 0u64;
    for i in 0..churn_reads {
        let key = (i * 37 + 11) % n as u64;
        let r = db
            .execute(&format!("SELECT v.sal FROM empl v WHERE v.nam = 'e{key}'"))
            .expect("query runs");
        assert_eq!(r.rows, [[rqs::Datum::Int(10_000 + key as i64)]]);
        assert_eq!(r.metrics.rows_scanned, 1, "an index read, not a scan");
        churn_worst = churn_worst.max(r.metrics.page_reads);
        lat.push(r.metrics.elapsed_nanos);
    }
    let versioned = engine(&db).metrics().versioned_index_reads;
    assert_eq!(versioned, churn_reads, "every one resolved through a view");
    db.abort_session_txn(writer);
    measured(&format!(
        "{churn_reads} indexed point reads beside an uncommitted UPDATE: worst \
         {churn_worst} page_reads (quiescent: {}), {versioned} resolved through a view",
        indexed.metrics.page_reads,
    ));
    // Inequality restrictions ride the same tree through the ordered
    // cursor: a narrow BETWEEN touches the matching leaves, not the
    // whole heap.
    let range = "SELECT v.nam FROM empl v WHERE v.sal >= 11000 AND v.sal < 11040";
    let range_scan = {
        let mut unindexed = rqs::Database::paged(8).expect("paged database");
        unindexed
            .execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
            .expect("ddl runs");
        for chunk_start in (0..n).step_by(100) {
            let rows: Vec<String> = (chunk_start..chunk_start + 100)
                .map(|i| format!("({i}, 'e{i}', {}, {})", 10_000 + i, i % 25))
                .collect();
            unindexed
                .execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
                .expect("insert runs");
        }
        unindexed.execute(range).expect("query runs")
    };
    db.execute("CREATE INDEX ON empl (sal)")
        .expect("index builds");
    let range_indexed = db.execute(range).expect("query runs");
    lat.push(range_scan.metrics.elapsed_nanos);
    lat.push(range_indexed.metrics.elapsed_nanos);
    assert_eq!(range_scan.rows, range_indexed.rows, "same answers");
    measured(&format!(
        "40-row BETWEEN via full scan: {} page_reads, {} rows_scanned; via \
         B+-tree range cursor: {} page_reads, {} rows_scanned ({} page reads saved)",
        range_scan.metrics.page_reads,
        range_scan.metrics.rows_scanned,
        range_indexed.metrics.page_reads,
        range_indexed.metrics.rows_scanned,
        range_scan.metrics.page_reads - range_indexed.metrics.page_reads,
    ));
    JsonObj::default()
        .u("rows_loaded", n as u64)
        .u("pool_pages", 8)
        .u("load_wal_appends", load_wal_appends)
        .u("load_wal_bytes", load_wal_bytes)
        .u("point_fullscan_page_reads", scan.metrics.page_reads)
        .u("point_indexed_page_reads", indexed.metrics.page_reads)
        .u("churn_point_reads", churn_reads)
        .u("churn_point_indexed_page_reads", churn_worst)
        .u(
            "point_page_reads_saved",
            scan.metrics.page_reads - indexed.metrics.page_reads,
        )
        .u("range_fullscan_page_reads", range_scan.metrics.page_reads)
        .u("range_indexed_page_reads", range_indexed.metrics.page_reads)
        .u(
            "range_page_reads_saved",
            range_scan.metrics.page_reads - range_indexed.metrics.page_reads,
        )
        .obj("latency", lat.finish())
        .obj("engine_metrics", metrics_json(engine(&db).metrics()))
}

/// S2 — the shared server: N concurrent sessions on one database.
fn s2_concurrency() -> JsonObj {
    use server::SharedDatabase;
    use std::sync::atomic::{AtomicU64, Ordering};

    header(
        "S2",
        "Shared-database server — concurrent sessions under hierarchical 2PL",
    );
    paper("(infrastructure: the paper assumes a shared DBMS serving many users)");
    let threads = 4;
    let secs_budget = Instant::now();
    let shared = SharedDatabase::paged(128).expect("shared database");
    {
        let mut setup = shared.session();
        for t in 0..threads {
            setup
                .execute(&format!("CREATE TABLE load{t} (a INT, b TEXT)"))
                .expect("ddl runs");
        }
        setup
            .execute("CREATE TABLE hot (k INT, v INT)")
            .expect("ddl runs");
        setup
            .execute("INSERT INTO hot VALUES (0, 0)")
            .expect("insert runs");
    }
    let per_thread = 500;
    // Per-statement wall times across every phase, merged thread-local
    // batches; rendered as the section's latency percentiles.
    let latencies = std::sync::Mutex::new(Vec::new());
    let latencies = &latencies;
    // Phase 1: disjoint tables — sessions interleave without conflicts.
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = shared.clone();
            scope.spawn(move || {
                let mut s = shared.session();
                let mut local = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let r = s
                        .execute(&format!("INSERT INTO load{t} VALUES ({i}, 'x{i}')"))
                        .expect("insert runs");
                    local.push(r.metrics.elapsed_nanos);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let disjoint = t0.elapsed();
    // Phase 2: one hot row — every session increments the same row, so
    // writers serialize through its row lock and the losers (row locks
    // never block) retry. Run it twice: a hot spin (retry the moment
    // the Conflict lands), then with `server::Backoff`'s bounded
    // exponential delays + jitter.
    let spin_retries = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let shared = shared.clone();
            let spin_retries = &spin_retries;
            scope.spawn(move || {
                let mut s = shared.session();
                let mut local = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    loop {
                        match s.execute("UPDATE hot SET v = v + 1 WHERE k = 0") {
                            Ok(r) => {
                                local.push(r.metrics.elapsed_nanos);
                                break;
                            }
                            Err(e) if e.is_retryable() => {
                                spin_retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let hot_spin = t0.elapsed();
    let backoff_retries = AtomicU64::new(0);
    let backoff_sleep_nanos = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = shared.clone();
            let backoff_retries = &backoff_retries;
            let backoff_sleep_nanos = &backoff_sleep_nanos;
            scope.spawn(move || {
                let mut s = shared.session();
                let mut backoff = server::Backoff::new(t as u64);
                let mut local = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    let r = s
                        .execute_with_backoff(
                            "UPDATE hot SET v = v + 1 WHERE k = 0",
                            &mut backoff,
                            u64::MAX,
                        )
                        .expect("update runs");
                    local.push(r.metrics.elapsed_nanos);
                }
                latencies.lock().unwrap().extend(local);
                backoff_retries.fetch_add(backoff.total_retries(), Ordering::Relaxed);
                backoff_sleep_nanos
                    .fetch_add(backoff.total_sleep().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });
    let hot_backoff = t0.elapsed();
    let total_rows = (threads * per_thread) as u64;
    let mut check = shared.session();
    let hot = check
        .execute("SELECT h.v FROM hot h")
        .expect("query runs")
        .rows;
    assert_eq!(
        hot,
        vec![vec![Datum::Int((2 * threads * per_thread) as i64)]],
        "no increment lost under contention"
    );
    // Phase 3: row-granular locking — every session increments its own
    // row of one table inside explicit BEGIN/UPDATE/COMMIT
    // transactions, which hold their locks across the inter-statement
    // gaps. A short sleep between the UPDATE and the COMMIT models the
    // front-end working tuple-at-a-time between database calls (the
    // paper's coupling loop): under table locks that think time
    // serializes behind the held exclusive lock and wait-die rolls the
    // younger contenders back, while under row locks (IX on the table,
    // X per rid) disjoint-row writers overlap it freely and never
    // conflict at all. Rows are padded past half a page so each lives
    // on its own page: concurrent open transactions may not share dirty
    // pages (undo ownership is page-granular).
    let row_threads = 8usize;
    let row_txns = 50usize;
    let think = std::time::Duration::from_micros(500);
    {
        let mut setup = shared.session();
        setup
            .execute("CREATE TABLE acct (k INT, v INT, pad TEXT)")
            .expect("ddl runs");
        let pad = "p".repeat(2200);
        for k in 0..row_threads {
            setup
                .execute(&format!("INSERT INTO acct VALUES ({k}, 0, '{pad}')"))
                .expect("insert runs");
        }
    }
    let row_retries = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..row_threads {
            let shared = shared.clone();
            let row_retries = &row_retries;
            scope.spawn(move || {
                let mut s = shared.session();
                let mut backoff = server::Backoff::new(t as u64);
                let mut local = Vec::with_capacity(row_txns);
                let update = format!("UPDATE acct SET v = v + 1 WHERE k = {t}");
                for _ in 0..row_txns {
                    // A conflict anywhere rolls the whole transaction
                    // back, so the retry unit is the transaction, not
                    // the statement.
                    loop {
                        let outcome = (|| {
                            s.execute("BEGIN")?;
                            let r = s.execute(&update)?;
                            local.push(r.metrics.elapsed_nanos);
                            std::thread::sleep(think);
                            s.execute("COMMIT")
                        })();
                        match outcome {
                            Ok(_) => break,
                            Err(e) if e.is_retryable() => {
                                row_retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(backoff.next_delay());
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let row_time = t0.elapsed();
    let row_retries = row_retries.load(Ordering::Relaxed);
    assert_eq!(row_retries, 0, "disjoint-row writers must not conflict");
    let balances = check
        .execute("SELECT v.k, v.v FROM acct v")
        .expect("query runs");
    for row in &balances.rows {
        assert_eq!(
            row[1],
            Datum::Int(row_txns as i64),
            "every increment of {} must land exactly once",
            row[0]
        );
    }
    let row_rate = (row_threads * row_txns * 3) as f64 / row_time.as_secs_f64();
    measured(&format!(
        "{row_threads} sessions x {row_txns} disjoint-row BEGIN/UPDATE/COMMIT \
         transactions ({think:?} front-end think time before COMMIT): \
         {row_rate:.0} stmts/s, {row_retries} retries",
    ));
    measured(&format!(
        "{threads} sessions x {per_thread} autocommit statements: inserts into \
         disjoint tables {:.0} stmts/s aggregate ({:.0}/session); increments of \
         one hot row {:.0} stmts/s hot-spinning ({} retries) vs {:.0} stmts/s \
         with capped-exponential backoff + jitter ({} retries); all {} \
         increments landed ({:.2?} total)",
        total_rows as f64 / disjoint.as_secs_f64(),
        total_rows as f64 / disjoint.as_secs_f64() / threads as f64,
        total_rows as f64 / hot_spin.as_secs_f64(),
        spin_retries.load(Ordering::Relaxed),
        total_rows as f64 / hot_backoff.as_secs_f64(),
        backoff_retries.load(Ordering::Relaxed),
        2 * total_rows,
        secs_budget.elapsed(),
    ));
    // Phase 4: mixed readers vs writers on one table. Writers run
    // disjoint-row BEGIN/UPDATE/COMMIT transactions (think time before
    // COMMIT, as in phase 3); readers scan the whole table until the
    // writers finish. The scans are snapshot reads: they take no locks
    // at all and never wait, so read throughput is decoupled from
    // writer think time — asserted below as zero reader retries and
    // zero lock waits.
    let mix_writers = 4usize;
    let mix_readers = 4usize;
    let mix_txns = 40usize;
    {
        let mut setup = shared.session();
        setup
            .execute("CREATE TABLE mix (k INT, v INT, pad TEXT)")
            .expect("ddl runs");
        let pad = "m".repeat(2200);
        for k in 0..mix_writers {
            setup
                .execute(&format!("INSERT INTO mix VALUES ({k}, 0, '{pad}')"))
                .expect("insert runs");
        }
    }
    let (mix_time, mix_scans, mix_reader_retries, mix_waits) = {
        let waits_before = shared.metrics().expect("server metrics").lock_waits;
        let scans = AtomicU64::new(0);
        let reader_retries = AtomicU64::new(0);
        let writers_finished = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..mix_writers {
                let shared = shared.clone();
                let writers_finished = &writers_finished;
                scope.spawn(move || {
                    let mut s = shared.session();
                    let mut backoff = server::Backoff::new(t as u64);
                    let update = format!("UPDATE mix SET v = v + 1 WHERE k = {t}");
                    for _ in 0..mix_txns {
                        loop {
                            let outcome = (|| {
                                s.execute("BEGIN")?;
                                s.execute(&update)?;
                                std::thread::sleep(think);
                                s.execute("COMMIT")
                            })();
                            match outcome {
                                Ok(_) => break,
                                Err(e) if e.is_retryable() => {
                                    std::thread::sleep(backoff.next_delay());
                                }
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                    writers_finished.fetch_add(1, Ordering::Relaxed);
                });
            }
            for r in 0..mix_readers {
                let shared = shared.clone();
                let scans = &scans;
                let reader_retries = &reader_retries;
                let writers_finished = &writers_finished;
                scope.spawn(move || {
                    let mut s = shared.session();
                    let mut backoff = server::Backoff::new(1000 + r as u64);
                    // Scan until the writers finish, landing at least
                    // one scan.
                    loop {
                        let done = writers_finished.load(Ordering::Relaxed) >= mix_writers as u64;
                        match s.execute("SELECT v.k FROM mix v") {
                            Ok(r) => {
                                assert_eq!(r.rows.len(), mix_writers, "stable row set");
                                scans.fetch_add(1, Ordering::Relaxed);
                                if done {
                                    break;
                                }
                                // Readers pace like the writers' front
                                // end does; an unpaced scan loop would
                                // measure statement-latch hogging, not
                                // lock behavior.
                                std::thread::sleep(std::time::Duration::from_micros(100));
                            }
                            Err(e) if e.is_retryable() => {
                                reader_retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(backoff.next_delay());
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                });
            }
        });
        let elapsed = t0.elapsed();
        let waits_after = shared.metrics().expect("server metrics").lock_waits;
        (
            elapsed,
            scans.load(Ordering::Relaxed),
            reader_retries.load(Ordering::Relaxed),
            waits_after - waits_before,
        )
    };
    assert_eq!(
        mix_reader_retries, 0,
        "snapshot readers must never conflict"
    );
    assert_eq!(mix_waits, 0, "snapshot readers must never wait");
    let mix_scan_rate = mix_scans as f64 / mix_time.as_secs_f64();
    let mix_write_rate = (mix_writers * mix_txns * 3) as f64 / mix_time.as_secs_f64();
    measured(&format!(
        "{mix_readers} scanning sessions vs {mix_writers} x {mix_txns} disjoint-row \
         write transactions ({think:?} think time): {mix_scan_rate:.0} scans/s \
         (0 retries, 0 lock waits) beside {mix_write_rate:.0} write stmts/s",
    ));
    let mixed_readers_json = JsonObj::default()
        .u("readers", mix_readers as u64)
        .u("writers", mix_writers as u64)
        .u("writer_txns_per_thread", mix_txns as u64)
        .u("snapshot_scans", mix_scans)
        .f("snapshot_scans_per_sec", mix_scan_rate)
        .u("snapshot_reader_retries", mix_reader_retries)
        .u("snapshot_lock_waits", mix_waits)
        .f("snapshot_write_stmts_per_sec", mix_write_rate);
    // Phase 5: truly parallel reads over TCP — the statement-latch
    // headline. N clients each hammer `SELECT * FROM scan` over their
    // own connection for a fixed window; every statement is an
    // autocommit snapshot SELECT, so it runs on the statement latch's
    // *read* side, across the worker pool, with no lock-manager calls.
    // Under the retired whole-database statement mutex these scans
    // serialized and the aggregate rate was flat in N; now it scales
    // with cores (the acceptance floor is 3x at 8 sessions).
    let scan_rows = 512usize;
    {
        let mut setup = shared.session();
        setup
            .execute("CREATE TABLE scan (k INT, pad TEXT)")
            .expect("ddl runs");
        for chunk in (0..scan_rows).step_by(128) {
            let rows: Vec<String> = (chunk..(chunk + 128).min(scan_rows))
                .map(|i| format!("({i}, 'scan-pad-{i}')"))
                .collect();
            setup
                .execute(&format!("INSERT INTO scan VALUES {}", rows.join(", ")))
                .expect("insert runs");
        }
    }
    let net = server::net::Server::start(shared.clone(), "127.0.0.1:0").expect("tcp server starts");
    let scan_window = std::time::Duration::from_millis(250);
    // Aggregate scans/s across `sessions` concurrent TCP connections,
    // each counting only statements completed inside its own window.
    let run_scans = |sessions: usize| -> f64 {
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..sessions {
                let total = &total;
                let addr = net.addr();
                scope.spawn(move || {
                    let mut c = server::net::Client::connect(addr).expect("client connects");
                    let deadline = Instant::now() + scan_window;
                    let mut done = 0u64;
                    while Instant::now() < deadline {
                        // A predicate no index covers: every statement
                        // walks all rows (real scan work) but ships one
                        // row back, so the wire cost stays flat.
                        let r = c
                            .execute("SELECT v.pad FROM scan v WHERE v.k = 256")
                            .expect("scan runs")
                            .expect("scan succeeds");
                        assert_eq!(r.rows.len(), 1, "stable scan");
                        done += 1;
                        // Pace like the paper's front end: the coupling
                        // loop works tuple-at-a-time between database
                        // calls (as in phases 3 and 4). An unpaced loop
                        // measures one connection's wire turnaround, not
                        // how many sessions the read side can overlap.
                        std::thread::sleep(std::time::Duration::from_micros(250));
                    }
                    total.fetch_add(done, Ordering::Relaxed);
                });
            }
        });
        total.load(Ordering::Relaxed) as f64 / scan_window.as_secs_f64()
    };
    // One throwaway window warms the buffer pool and the worker pool.
    let _ = run_scans(1);
    let scans_1 = run_scans(1);
    let scans_2 = run_scans(2);
    let scans_4 = run_scans(4);
    let scans_8 = run_scans(8);
    net.stop();
    measured(&format!(
        "parallel snapshot scans of a {scan_rows}-row table over TCP \
         ({scan_window:?} window per level): 1 session {scans_1:.0} scans/s, \
         2 sessions {scans_2:.0} ({:.0}/session), 4 sessions {scans_4:.0} \
         ({:.0}/session), 8 sessions {scans_8:.0} ({:.0}/session) — \
         {:.1}x aggregate at 8",
        scans_2 / 2.0,
        scans_4 / 4.0,
        scans_8 / 8.0,
        scans_8 / scans_1,
    ));
    let parallel_scans_json = JsonObj::default()
        .u("rows", scan_rows as u64)
        .u("window_ms", scan_window.as_millis() as u64)
        .f("scans_per_sec_1", scans_1)
        .f("scans_per_sec_2", scans_2)
        .f("scans_per_sec_4", scans_4)
        .f("scans_per_sec_8", scans_8)
        .f("per_session_scans_per_sec_1", scans_1)
        .f("per_session_scans_per_sec_2", scans_2 / 2.0)
        .f("per_session_scans_per_sec_4", scans_4 / 4.0)
        .f("per_session_scans_per_sec_8", scans_8 / 8.0)
        .f("speedup_2x", scans_2 / scans_1)
        .f("speedup_4x", scans_4 / scans_1)
        .f("speedup_8x", scans_8 / scans_1);
    let lock_metrics = shared.metrics().expect("server metrics");
    let latency = Samples(std::mem::take(&mut *latencies.lock().unwrap())).finish();
    JsonObj::default()
        .u("threads", threads as u64)
        .u("inserts_per_thread", per_thread as u64)
        .f(
            "disjoint_stmts_per_sec",
            total_rows as f64 / disjoint.as_secs_f64(),
        )
        .f(
            "disjoint_stmts_per_sec_per_session",
            total_rows as f64 / disjoint.as_secs_f64() / threads as f64,
        )
        .f(
            "hot_spin_stmts_per_sec",
            total_rows as f64 / hot_spin.as_secs_f64(),
        )
        .f(
            "hot_spin_stmts_per_sec_per_session",
            total_rows as f64 / hot_spin.as_secs_f64() / threads as f64,
        )
        .u("hot_spin_retries", spin_retries.load(Ordering::Relaxed))
        .f(
            "hot_backoff_stmts_per_sec",
            total_rows as f64 / hot_backoff.as_secs_f64(),
        )
        .f(
            "hot_backoff_stmts_per_sec_per_session",
            total_rows as f64 / hot_backoff.as_secs_f64() / threads as f64,
        )
        .u(
            "hot_backoff_retries",
            backoff_retries.load(Ordering::Relaxed),
        )
        .u(
            "hot_backoff_sleep_nanos",
            backoff_sleep_nanos.load(Ordering::Relaxed),
        )
        .u("disjoint_rows_threads", row_threads as u64)
        .u("disjoint_rows_txns_per_thread", row_txns as u64)
        .f("disjoint_rows_rowlock_stmts_per_sec", row_rate)
        .f(
            "disjoint_rows_rowlock_stmts_per_sec_per_session",
            row_rate / row_threads as f64,
        )
        .u("disjoint_rows_rowlock_retries", row_retries)
        .u("lock_waits", lock_metrics.lock_waits)
        .u("lock_wait_die_aborts", lock_metrics.lock_wait_die_aborts)
        .u("row_lock_exclusive", lock_metrics.row_lock_exclusive)
        .u("row_lock_escalations", lock_metrics.row_lock_escalations)
        .u("snapshot_reads", lock_metrics.snapshot_reads)
        .obj("mixed_readers", mixed_readers_json)
        .obj("parallel_scans", parallel_scans_json)
        .obj("latency", latency)
}

/// S3 — predicated UPDATE/DELETE: access-path cost and throughput.
fn s3_update() -> JsonObj {
    header(
        "S3",
        "UPDATE / predicated DELETE — indexed vs full-scan predicates",
    );
    paper("(infrastructure: DML rides the same access paths as queries)");
    let n = 2000i64;
    let mut db = rqs::Database::paged(8).expect("paged database");
    let mut lat = Samples::default();
    db.execute("CREATE TABLE t (k INT, grp INT, pad TEXT)")
        .expect("ddl runs");
    for chunk_start in (0..n).step_by(100) {
        let rows: Vec<String> = (chunk_start..chunk_start + 100)
            .map(|i| format!("({i}, {}, 'p{i}')", i % 50))
            .collect();
        let r = db
            .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .expect("insert runs");
        lat.push(r.metrics.elapsed_nanos);
    }
    // One point update, before and after the index exists.
    let full = db
        .execute("UPDATE t SET pad = 'u1' WHERE k = 1234")
        .expect("update runs");
    db.execute("CREATE INDEX ON t (k)").expect("index builds");
    let indexed = db
        .execute("UPDATE t SET pad = 'u2' WHERE k = 1234")
        .expect("update runs");
    lat.push(full.metrics.elapsed_nanos);
    lat.push(indexed.metrics.elapsed_nanos);
    let touched = |m: &rqs::QueryMetrics| m.page_reads + m.buffer_hits;
    measured(&format!(
        "{n}-row table, 8-page pool; point UPDATE via full scan: {} pages \
         touched, {} WAL frames; via B+-tree: {} pages touched, {} WAL frames",
        touched(&full.metrics),
        full.metrics.wal_appends,
        touched(&indexed.metrics),
        indexed.metrics.wal_appends,
    ));
    // Ranged DELETE through the ordered cursor.
    let del = db
        .execute("DELETE FROM t WHERE k >= 500 AND k < 520")
        .expect("delete runs");
    lat.push(del.metrics.elapsed_nanos);
    measured(&format!(
        "20-row ranged DELETE via index_range: {} rows, {} pages touched, \
         {} WAL frames ({:.0} log bytes/row)",
        del.affected,
        touched(&del.metrics),
        del.metrics.wal_appends,
        del.metrics.wal_bytes as f64 / del.affected.max(1) as f64,
    ));
    // Whole-table rewrite with pool ≪ table: under the retired no-steal
    // protocol this statement failed with a pool-exhausted error; with
    // steal/undo logging its write set spills to disk and commits. The
    // WAL frame count shows the price: one forced undo image per steal
    // plus one redo image per dirtied page at commit.
    let before_pages = db.backend().stats();
    let t0 = Instant::now();
    let rewrite = db
        .execute("UPDATE t SET pad = 'rewritten-everywhere'")
        .expect("whole-table rewrite succeeds despite the 8-page pool");
    let rewrite_elapsed = t0.elapsed();
    lat.push(rewrite.metrics.elapsed_nanos);
    let after_pages = db.backend().stats();
    measured(&format!(
        "whole-table rewrite of {} rows under the 8-page pool (steal): {} pages \
         touched, {} page writes (stolen evictions + write-backs), {} WAL \
         frames / {:.0} KiB logged, {:.2?}",
        rewrite.affected,
        touched(&rewrite.metrics),
        after_pages.page_writes - before_pages.page_writes,
        rewrite.metrics.wal_appends,
        rewrite.metrics.wal_bytes as f64 / 1024.0,
        rewrite_elapsed,
    ));
    // Counter-increment throughput: the UPDATE the lost-update probe
    // runs, here single-sessioned to isolate statement cost.
    let mut counter = rqs::Database::paged(8).expect("paged database");
    counter.execute("CREATE TABLE c (v INT)").expect("ddl runs");
    counter.execute("INSERT INTO c VALUES (0)").expect("seed");
    let iters = 2000;
    let t0 = Instant::now();
    for _ in 0..iters {
        let r = counter
            .execute("UPDATE c SET v = v + 1")
            .expect("increment runs");
        lat.push(r.metrics.elapsed_nanos);
    }
    let elapsed = t0.elapsed();
    let v = counter
        .execute("SELECT x.v FROM c x")
        .expect("query runs")
        .rows[0][0]
        .to_string();
    measured(&format!(
        "{iters} autocommit `UPDATE c SET v = v + 1`: {:.0} updates/s, \
         final v = {v} ({:.2?} total)",
        iters as f64 / elapsed.as_secs_f64(),
        elapsed,
    ));
    let engine = engine(&db).metrics();
    JsonObj::default()
        .u("rows", n as u64)
        .u("point_update_fullscan_pages", touched(&full.metrics))
        .u("point_update_indexed_pages", touched(&indexed.metrics))
        .u("ranged_delete_rows", del.affected as u64)
        .u("ranged_delete_wal_appends", del.metrics.wal_appends)
        .u("rewrite_rows", rewrite.affected as u64)
        .u(
            "rewrite_page_writes",
            after_pages.page_writes - before_pages.page_writes,
        )
        .u("rewrite_steals", engine.steals)
        .u("rewrite_wal_appends", rewrite.metrics.wal_appends)
        .u("rewrite_wal_undo_images", engine.wal_undo_images)
        .f(
            "counter_updates_per_sec",
            iters as f64 / elapsed.as_secs_f64(),
        )
        .obj("latency", lat.finish())
}

/// E6-b — §6.1 value bounds and inequality simplification.
fn e6_bounds() {
    header("E6-b", "§6.1 — value bounds and the inequality graph");
    paper("less(S,200000) omitted (implied); less(S,2000) yields the empty relation;");
    paper("A>=B, B>=C, A!=C sharpens to A>C; A>=B>=C>=A becomes equalities");
    let mut s = spy_session();
    s.consult(views::WORKS_DIR_FOR).expect("view parses");
    let generous = s
        .query(
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 200000)",
            "q1",
        )
        .expect("query runs");
    let impossible = s
        .query(
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 2000)",
            "q2",
        )
        .expect("query runs");
    measured(&format!(
        "200000-case: comparisons removed {}, answers {}; 2000-case: empty without SQL: {}",
        generous.branches[0].simplify_stats.comparisons_removed,
        generous.answers.len(),
        impossible.branches[0].sql.is_none() && impossible.answers.is_empty()
    ));
    use dbcl::{CompOp, Comparison, Operand, Symbol};
    let sym = |n: &str| Operand::Sym(Symbol::var(n));
    let chain = [
        Comparison::new(CompOp::Geq, sym("A"), sym("B")),
        Comparison::new(CompOp::Geq, sym("B"), sym("C")),
        Comparison::new(CompOp::Neq, sym("A"), sym("C")),
    ];
    let r = optimizer::ineq::simplify_inequalities(&chain, &[], &Default::default());
    let cycle = [
        Comparison::new(CompOp::Geq, sym("A"), sym("B")),
        Comparison::new(CompOp::Geq, sym("B"), sym("C")),
        Comparison::new(CompOp::Geq, sym("C"), sym("A")),
    ];
    let r2 = optimizer::ineq::simplify_inequalities(&cycle, &[], &Default::default());
    measured(&format!(
        "sharpened {} comparison(s) -> {:?}; cycle produced {} merges and {} comparisons",
        r.sharpened,
        r.kept.iter().map(ToString::to_string).collect::<Vec<_>>(),
        r2.merges.len(),
        r2.kept.len()
    ));
}

/// E7-1 — Example 7-1: recursion strategies.
fn e7_1_recursion() {
    header(
        "E7-1",
        "Example 7-1 — recursive works_for: naive vs intermediate vs orientation",
    );
    paper("naive: each step adds one condition (3 relations per view copy);");
    paper("intermediate: same-shape query per step, union of results;");
    paper("wrong orientation: first intermediate = ALL employee names");
    println!(
        "          {:>6} {:>7} | {:>14} {:>14} | {:>14} {:>14}",
        "n", "chain", "naive_fromvars", "inter_fromvars", "naive_scanned", "inter_scanned"
    );
    for params in firm_sweep() {
        let (mut s, firm) = firm_session(params);
        let coupler = s.coupler_mut();
        let bound = Bound {
            side: BoundSide::High,
            value: Datum::text(firm.ceo()),
        };
        let naive =
            eval_naive(coupler, "works_for", &bound, firm.max_chain() + 1).expect("naive runs");
        let spec = ClosureSpec::from_view(coupler, "works_dir_for").expect("spec builds");
        let inter =
            eval_intermediate(coupler, &spec, &bound, "intermediate").expect("intermediate runs");
        assert_eq!(
            {
                let mut a: Vec<String> = naive.answers.iter().map(ToString::to_string).collect();
                a.sort();
                a
            },
            {
                let mut b: Vec<String> = inter.answers.iter().map(ToString::to_string).collect();
                b.sort();
                b
            },
            "strategies must agree"
        );
        println!(
            "          {:>6} {:>7} | {:>14} {:>14} | {:>14} {:>14}",
            firm.employees.len(),
            firm.max_chain(),
            naive.total_from_vars,
            inter.total_from_vars,
            naive.metrics.rows_scanned,
            inter.metrics.rows_scanned
        );
    }
    // Orientation experiment on a mid-size firm.
    let (mut s, firm) = firm_session(FirmParams {
        depth: 3,
        branching: 2,
        staff_per_dept: 2,
        seed: 3,
    });
    let coupler = s.coupler_mut();
    let spec = ClosureSpec::from_view(coupler, "works_dir_for").expect("spec builds");
    let low = Bound {
        side: BoundSide::Low,
        value: Datum::text(firm.deepest_employee()),
    };
    let good = eval_intermediate(coupler, &spec, &low, "intermediate").expect("runs");
    let bad = eval_intermediate_mismatched(coupler, &spec, &low, "intermediate").expect("runs");
    measured(&format!(
        "works_for({}, Superior) on n={}: bottom-up {} queries / {} intermediate tuples; \
         top-down {} queries over {} candidates / {} intermediate tuples",
        firm.deepest_employee(),
        firm.employees.len(),
        good.queries_issued,
        good.steps.iter().map(|st| st.frontier_size).sum::<usize>(),
        bad.queries_issued,
        bad.candidates_tried,
        bad.steps.iter().map(|st| st.frontier_size).sum::<usize>()
    ));
}

/// EA — the Appendix transcript.
fn ea_appendix() {
    header("EA", "Appendix — works_dir_for(t_nam, smiley) transcript");
    paper(
        "dbcall list -> dbcl/4 -> SELECT v12.nam FROM empl v12, dept v13, empl v14 -> syntax tree",
    );
    let mut s = spy_session();
    s.consult(views::WORKS_DIR_FOR).expect("view parses");
    let transcript = s
        .explain("works_dir_for(t_nam, smiley)", "works_dir_for")
        .expect("explains");
    let db = DatabaseDef::empdep();
    let mut engine = prolog::Engine::new();
    engine.consult(views::WORKS_DIR_FOR).expect("view parses");
    let meta = MetaEvaluator::new(engine.kb(), &db);
    let out = meta
        .metaevaluate("works_dir_for(t_nam, smiley)", "works_dir_for")
        .expect("metaevaluates");
    let sql = translate(
        &out.branches[0].query,
        &db,
        MappingOptions {
            first_var_index: 12,
            distinct: false,
        },
    )
    .expect("translates");
    measured(&format!(
        "pipeline stages rendered: {}; v12-numbered SQL: {}",
        transcript.contains("dbcl(") && transcript.contains("SELECT"),
        sql.to_sql().replace('\n', " ")
    ));
    measured(&format!("syntax tree: {}", sql.to_syntax_tree()));
}

/// X1 — disjunction via DNF + UNION.
fn x1_disjunction() {
    header("X1", "§7 — disjunction through disjunctive normal form");
    paper("convert to DNF, generate a query per conjunction (SDD-1 style)");
    let mut s = spy_session();
    s.consult(
        "target_group(X) :- empl(_, X, S, _), less(S, 28000).
         target_group(X) :- empl(_, X, _, D), dept(D, hq, _).",
    )
    .expect("views parse");
    let run = s
        .query("target_group(t_X)", "target_group")
        .expect("query runs");
    measured(&format!(
        "{} branches executed, union answers: {:?}",
        run.branches.len(),
        run.answers
            .iter()
            .map(|a| a["X"].to_string())
            .collect::<Vec<_>>()
    ));
}

/// X2 — negation via NOT IN.
fn x2_negation() {
    header("X2", "§7 — negation via NOT IN");
    paper("compute the positive result, then its complement (NOT IN subquery)");
    let mut s = spy_session();
    let managers = DbclQuery::parse(
        "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
              [m, t_M, *, *, *, *, *],
              [[empl, t_M, v_N, v_S, v_D, *, *],
               [dept, *, *, *, v_D2, v_F, t_M]], [])",
    )
    .expect("parses");
    let manages_jones = DbclQuery::parse(
        "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
              [mj, t_M, *, *, *, *, *],
              [[empl, v_E, jones, v_S, v_D, *, *],
               [dept, *, *, *, v_D, v_F, t_M]], [])",
    )
    .expect("parses");
    let sql = sqlgen::negation::translate_with_negation(
        &managers,
        &manages_jones,
        &DatabaseDef::empdep(),
        MappingOptions {
            first_var_index: 1,
            distinct: true,
        },
    )
    .expect("translates");
    let result = s
        .coupler_mut()
        .rqs
        .execute(&sql.to_sql())
        .expect("executes");
    measured(&format!(
        "managers not managing jones: {:?} (subqueries evaluated: {})",
        result
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>(),
        result.metrics.subqueries
    ));
}

/// X3 — embedded predicates via stepwise evaluation.
fn x3_stepwise() {
    header(
        "X3",
        "§7 — embedded Prolog predicates, right-to-left tuple substitution",
    );
    paper("issue the database query, evaluate the rest tuple-at-a-time in PROLOG");
    let mut s = spy_session();
    s.consult(views::WORKS_DIR_FOR).expect("view parses");
    s.consult("veteran(jones). veteran(leamas).")
        .expect("facts parse");
    let run = s
        .query("works_dir_for(t_X, smiley), veteran(t_X)", "q")
        .expect("query runs");
    measured(&format!(
        "database returned {}, Prolog kept {} ({:?})",
        run.branches[0].raw_answers,
        run.answers.len(),
        run.answers
            .iter()
            .map(|a| a["X"].to_string())
            .collect::<Vec<_>>()
    ));
}

/// X4 — multiple-query optimization.
fn x4_multi_query() {
    header(
        "X4",
        "§7 — multiple-query common subexpressions [Jarke 1984]",
    );
    paper("recognize common subexpressions across related database calls");
    let mut engine = prolog::Engine::new();
    engine.consult(views::SAME_MANAGER).expect("views parse");
    let db = DatabaseDef::empdep();
    let meta = MetaEvaluator::new(engine.kb(), &db);
    let q = |goal: &str| {
        meta.metaevaluate(goal, "q")
            .expect("metaevaluates")
            .branches
            .remove(0)
            .query
    };
    let batch = [
        q("same_manager(t_X, jones)"),
        q("same_manager(t_X, jones)"),
        q("same_manager(t_X, jones), empl(E, t_X, S, D), less(S, 30000)"),
        q("works_dir_for(t_X, smiley)"),
    ];
    let report = analyze_batch(&batch);
    let kinds: Vec<String> = report
        .dispositions
        .iter()
        .map(|d| match d {
            BatchDisposition::Execute => "execute".into(),
            BatchDisposition::DuplicateOf(i) => format!("dup-of-{i}"),
            BatchDisposition::ContainedIn(i) => format!("contained-in-{i}"),
        })
        .collect();
    measured(&format!(
        "batch of {}: {:?}; {} executed, {} reused; row overlaps: {:?}",
        batch.len(),
        kinds,
        report.executed(),
        report.reused(),
        report.overlaps
    ));
}

/// A1 — ablation: which §6 phase buys what.
fn a1_ablation() {
    header(
        "A1",
        "Ablation — §6 phases on/off (same_manager on the largest sweep firm)",
    );
    paper("(no direct paper claim; quantifies each simplification phase)");
    let params = *firm_sweep().last().expect("non-empty sweep");
    println!(
        "          {:>22} {:>6} {:>7} {:>12}",
        "config", "rows", "joins", "scanned"
    );
    let configs: [(&str, SimplifyConfig); 5] = [
        ("none (direct)", SimplifyConfig::none()),
        (
            "bounds+ineq",
            SimplifyConfig {
                use_chase: false,
                use_refint: false,
                use_minimize: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "+chase",
            SimplifyConfig {
                use_refint: false,
                use_minimize: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "+refint",
            SimplifyConfig {
                use_minimize: false,
                ..SimplifyConfig::default()
            },
        ),
        ("full (Algorithm 2)", SimplifyConfig::default()),
    ];
    for (name, config) in configs {
        let (mut s, firm) = firm_session(params);
        s.config_mut().cache = false;
        s.config_mut().simplify = config;
        s.config_mut().optimize = true;
        let goal = format!("same_manager(t_X, '{}')", firm.deepest_employee());
        let run = s.query(&goal, "same_manager").expect("query runs");
        let rows = run.branches[0]
            .dbcl_optimized
            .as_ref()
            .unwrap_or(&run.branches[0].dbcl_initial)
            .rows
            .len();
        let m = run.total_metrics();
        println!(
            "          {:>22} {:>6} {:>7} {:>12}",
            name, rows, m.joins, m.rows_scanned
        );
    }
}
