//! The committed benchmark trajectory: work counts of the paper's §6/§7
//! experiments and of the storage engine, printed to stdout as the JSON
//! document committed at the repo root as `BENCH_experiments.json`.
//!
//! Run with: `cargo run --release -p pfe-bench --bin experiments`.
//!
//! Every value is a count — joins, rows scanned, pages, WAL frames —
//! from single-threaded runs on fixed-size buffer pools, with no timing
//! and no thread schedule in it, so it repeats exactly on any machine.
//! CI regenerates the document and requires it to be byte-identical to
//! the committed one. The semantic gates (the optimizer never costs
//! more than the direct translation and never changes an answer, the
//! recursion strategies agree, an index read beside a writer stays an
//! index read) are assertions here, so a regenerated file cannot commit
//! a regression.

use coupling::recursion::{
    eval_intermediate, eval_intermediate_mismatched, eval_naive, Bound, BoundSide, ClosureSpec,
    RecursionRun,
};
use coupling::workload::{Firm, FirmParams};
use optimizer::SimplifyConfig;
use pfe_bench::{firm_session, firm_sweep};
use pfe_core::{Answer, Datum, Session};
use rqs::QueryMetrics;

/// Buffer-pool frames of every paged run: the engine's floor, so each
/// phase's working set spills and page counts measure access paths.
const POOL_PAGES: usize = 8;

/// One JSON value of the trajectory (hand-rolled: the workspace carries
/// no serialization dependency). Counts only — nothing here is a time.
enum JsonVal {
    U(u64),
    S(&'static str),
    Obj(JsonObj),
}

/// An insertion-ordered JSON object. Order is part of the committed
/// document, and the renderer writes one key per line, so a moved count
/// is a one-line diff.
#[derive(Default)]
struct JsonObj(Vec<(String, JsonVal)>);

impl JsonObj {
    fn u(mut self, key: impl Into<String>, v: u64) -> Self {
        self.0.push((key.into(), JsonVal::U(v)));
        self
    }

    fn s(mut self, key: &str, v: &'static str) -> Self {
        self.0.push((key.into(), JsonVal::S(v)));
        self
    }

    fn obj(mut self, key: impl Into<String>, v: JsonObj) -> Self {
        self.0.push((key.into(), JsonVal::Obj(v)));
        self
    }

    /// Keys and strings are identifiers written in this file, so they
    /// need no escaping.
    fn render_into(&self, out: &mut String, indent: usize) {
        out.push_str("{\n");
        let pad = "  ".repeat(indent + 1);
        for (i, (key, val)) in self.0.iter().enumerate() {
            out.push_str(&format!("{pad}\"{key}\": "));
            match val {
                JsonVal::U(v) => out.push_str(&v.to_string()),
                JsonVal::S(v) => out.push_str(&format!("\"{v}\"")),
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

/// The engine-wide counter snapshot, one key per counter in registry
/// order.
fn metrics_json(snap: storage::MetricsSnapshot) -> JsonObj {
    snap.counters()
        .into_iter()
        .fold(JsonObj::default(), |obj, (name, value)| obj.u(name, value))
}

/// Pages touched — reads plus buffer hits — the paper's cost model.
fn pages(m: &QueryMetrics) -> u64 {
    m.page_reads + m.buffer_hits
}

fn sorted<T: Ord + Clone>(answers: &[T]) -> Vec<T> {
    let mut answers = answers.to_vec();
    answers.sort();
    answers
}

/// Example 6-2's goal on a generated firm: everyone who shares a manager
/// with the deepest employee.
fn same_manager_goal(firm: &Firm) -> String {
    format!("same_manager(t_X, '{}')", firm.deepest_employee())
}

fn main() {
    let paper = JsonObj::default()
        .obj("e6_2_same_manager", e6_2_simplification())
        .obj("e7_1_recursion", e7_1_recursion())
        .obj("a1_ablation", a1_ablation());
    let doc = JsonObj::default()
        .s("source", "conf_sigmod_JarkeCV84")
        .s("binary", "experiments")
        .obj("paper", paper)
        .obj("s1_storage", s1_storage())
        .obj("s3_update", s3_update());
    print!("{}", doc.render());
}

/// E6-2 — Example 6-2 ("four out of five join operations have been
/// avoided") through the whole pipeline on the paged engine, direct
/// translation vs optimized, for every sweep firm.
fn e6_2_simplification() -> JsonObj {
    let mut out = JsonObj::default().u("pool_pages", POOL_PAGES as u64);
    for params in firm_sweep() {
        let (mut s, firm) = firm_session(Session::empdep_paged(POOL_PAGES), params);
        s.config_mut().cache = false;
        let goal = same_manager_goal(&firm);
        let optimized = s.query(&goal, "same_manager").expect("query runs");
        s.config_mut().optimize = false;
        let direct = s.query(&goal, "same_manager").expect("query runs");
        assert_eq!(
            sorted(&optimized.answers),
            sorted(&direct.answers),
            "the optimizer must not change answers"
        );
        let (om, dm) = (optimized.total_metrics(), direct.total_metrics());
        let n = firm.employees.len();
        assert!(
            om.joins < dm.joins,
            "n={n}: optimized joins {} not below direct {}",
            om.joins,
            dm.joins
        );
        assert!(
            pages(&om) <= pages(&dm),
            "n={n}: optimized touches {} pages, direct {}",
            pages(&om),
            pages(&dm)
        );
        out = out.obj(
            format!("employees_{n}"),
            JsonObj::default()
                .u("answers", direct.answers.len() as u64)
                .u("joins_direct", dm.joins as u64)
                .u("joins_optimized", om.joins as u64)
                .u("rows_scanned_direct", dm.rows_scanned)
                .u("rows_scanned_optimized", om.rows_scanned)
                .u("pages_direct", pages(&dm))
                .u("pages_optimized", pages(&om)),
        );
    }
    out
}

/// E7-1 — Example 7-1: the recursive `works_for` closure by naive
/// unfolding vs a stored intermediate relation, then the orientation
/// experiment (the mismatched direction "would generate as the first
/// intermediate relation all employee names").
fn e7_1_recursion() -> JsonObj {
    let mut out = JsonObj::default();
    for params in firm_sweep() {
        let (mut s, firm) = firm_session(Session::empdep(), params);
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
            sorted(&naive.answers),
            sorted(&inter.answers),
            "strategies must agree"
        );
        let n = firm.employees.len();
        assert!(
            inter.total_from_vars <= naive.total_from_vars,
            "n={n}: intermediate ships {} FROM variables, naive {}",
            inter.total_from_vars,
            naive.total_from_vars
        );
        out = out.obj(
            format!("employees_{n}"),
            JsonObj::default()
                .u("chain", firm.max_chain() as u64)
                .u("answers", inter.answers.len() as u64)
                .u("naive_from_vars", naive.total_from_vars as u64)
                .u("intermediate_from_vars", inter.total_from_vars as u64)
                .u("naive_rows_scanned", naive.metrics.rows_scanned)
                .u("intermediate_rows_scanned", inter.metrics.rows_scanned),
        );
    }
    let (mut s, firm) = firm_session(
        Session::empdep(),
        FirmParams {
            depth: 3,
            branching: 2,
            staff_per_dept: 2,
            seed: 3,
        },
    );
    let coupler = s.coupler_mut();
    let spec = ClosureSpec::from_view(coupler, "works_dir_for").expect("spec builds");
    let low = Bound {
        side: BoundSide::Low,
        value: Datum::text(firm.deepest_employee()),
    };
    let good = eval_intermediate(coupler, &spec, &low, "intermediate").expect("runs");
    let bad = eval_intermediate_mismatched(coupler, &spec, &low, "intermediate").expect("runs");
    assert_eq!(
        sorted(&good.answers),
        sorted(&bad.answers),
        "orientations must agree"
    );
    assert!(
        good.queries_issued < bad.queries_issued,
        "bottom-up issued {} queries, top-down {}",
        good.queries_issued,
        bad.queries_issued
    );
    let tuples = |run: &RecursionRun| run.steps.iter().map(|st| st.frontier_size as u64).sum();
    out.obj(
        "orientation",
        JsonObj::default()
            .u("employees", firm.employees.len() as u64)
            .u("bottom_up_queries", good.queries_issued as u64)
            .u("bottom_up_tuples", tuples(&good))
            .u("top_down_queries", bad.queries_issued as u64)
            .u("top_down_candidates", bad.candidates_tried as u64)
            .u("top_down_tuples", tuples(&bad)),
    )
}

/// A1 — ablation: which §6 phase buys what, on Example 6-2's goal over
/// the largest sweep firm, paged on 8 frames as in E6-2 so pages are
/// counted too. The paper makes no claim here; the counts set each
/// phase's saving against the work it does.
fn a1_ablation() -> JsonObj {
    let configs: [(&str, SimplifyConfig); 5] = [
        ("none", SimplifyConfig::none()),
        (
            "bounds_ineq",
            SimplifyConfig {
                use_chase: false,
                use_refint: false,
                use_minimize: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "plus_chase",
            SimplifyConfig {
                use_refint: false,
                use_minimize: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "plus_refint",
            SimplifyConfig {
                use_minimize: false,
                ..SimplifyConfig::default()
            },
        ),
        ("full", SimplifyConfig::default()),
    ];
    let params = *firm_sweep().last().expect("non-empty sweep");
    let (mut s, firm) = firm_session(Session::empdep_paged(POOL_PAGES), params);
    s.config_mut().cache = false;
    let goal = same_manager_goal(&firm);
    let mut out = JsonObj::default()
        .u("pool_pages", POOL_PAGES as u64)
        .u("employees", firm.employees.len() as u64);
    let mut first: Option<Vec<Answer>> = None;
    for (name, config) in configs {
        s.config_mut().simplify = config;
        let run = s.query(&goal, "same_manager").expect("query runs");
        let answers = sorted(&run.answers);
        assert_eq!(
            *first.get_or_insert_with(|| answers.clone()),
            answers,
            "{name}: simplification must not change answers"
        );
        let branch = &run.branches[0];
        let rows = branch
            .dbcl_optimized
            .as_ref()
            .unwrap_or(&branch.dbcl_initial)
            .rows
            .len();
        let m = run.total_metrics();
        out = out.obj(
            name,
            JsonObj::default()
                .u("rows", rows as u64)
                .u("joins", m.joins as u64)
                .u("rows_scanned", m.rows_scanned)
                .u("pages", pages(&m)),
        );
    }
    out
}

/// Loads `n` rows into `empl` in 100-row autocommit INSERTs and returns
/// the WAL frames and bytes the load appended.
fn load_empl(db: &mut rqs::Database, n: u64) -> (u64, u64) {
    db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")
        .expect("ddl runs");
    let (mut appends, mut bytes) = (0, 0);
    for chunk_start in (0..n).step_by(100) {
        let rows: Vec<String> = (chunk_start..chunk_start + 100)
            .map(|i| format!("({i}, 'e{i}', {}, {})", 10_000 + i, i % 25))
            .collect();
        let r = db
            .execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
            .expect("insert runs");
        appends += r.metrics.wal_appends;
        bytes += r.metrics.wal_bytes;
    }
    (appends, bytes)
}

/// S1 — the paged storage engine itself: page reads of a point and a
/// range restriction, full scan vs B+-tree, under an 8-page pool.
fn s1_storage() -> JsonObj {
    let n = 2000;
    let mut db = rqs::Database::paged(POOL_PAGES).expect("paged database");
    let (load_wal_appends, load_wal_bytes) = load_empl(&mut db, n);
    let point = "SELECT v.sal FROM empl v WHERE v.nam = 'e1234'";
    let scan = db.execute(point).expect("query runs");
    db.execute("CREATE INDEX ON empl (nam)")
        .expect("index builds");
    let indexed = db.execute(point).expect("query runs");
    assert_eq!(
        scan.rows, indexed.rows,
        "index path must not change answers"
    );
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
        let key = (i * 37 + 11) % n;
        let r = db
            .execute(&format!("SELECT v.sal FROM empl v WHERE v.nam = 'e{key}'"))
            .expect("query runs");
        assert_eq!(r.rows, [[rqs::Datum::Int(10_000 + key as i64)]]);
        assert_eq!(r.metrics.rows_scanned, 1, "an index read, not a scan");
        churn_worst = churn_worst.max(r.metrics.page_reads);
    }
    let versioned = db.engine().metrics().versioned_index_reads;
    assert_eq!(versioned, churn_reads, "every one resolved through a view");
    assert!(
        churn_worst <= indexed.metrics.page_reads + 1,
        "indexed point reads beside a writer cost {churn_worst} page reads, \
         {} on a quiescent table: the index read fell off the index",
        indexed.metrics.page_reads
    );
    db.abort_session_txn(writer);
    // Inequality restrictions ride the same tree through the ordered
    // cursor: a narrow BETWEEN touches the matching leaves, not the
    // whole heap.
    let range = "SELECT v.nam FROM empl v WHERE v.sal >= 11000 AND v.sal < 11040";
    let range_scan = {
        let mut unindexed = rqs::Database::paged(POOL_PAGES).expect("paged database");
        load_empl(&mut unindexed, n);
        unindexed.execute(range).expect("query runs")
    };
    db.execute("CREATE INDEX ON empl (sal)")
        .expect("index builds");
    let range_indexed = db.execute(range).expect("query runs");
    assert_eq!(range_scan.rows, range_indexed.rows, "same answers");
    let engine_metrics = metrics_json(db.engine().metrics());
    // A 50-row key range, read after the registry snapshot above so no
    // earlier figure moves: its page touches (faults plus hits) count
    // the heap fetches an index read makes per posting.
    let range50 = db
        .execute("SELECT v.nam FROM empl v WHERE v.sal >= 11500 AND v.sal < 11550")
        .expect("query runs");
    assert_eq!(range50.rows.len(), 50);
    assert_eq!(
        range50.metrics.rows_scanned, 50,
        "an index read, not a scan"
    );
    JsonObj::default()
        .u("rows_loaded", n)
        .u("pool_pages", POOL_PAGES as u64)
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
        .u("range50_rows", range50.rows.len() as u64)
        .u("range50_page_reads", range50.metrics.page_reads)
        .u("range50_pages_touched", pages(&range50.metrics))
        .obj("engine_metrics", engine_metrics)
}

/// S3 — predicated UPDATE/DELETE: access-path cost, and what a
/// whole-table rewrite under the 8-page pool pays for steal.
fn s3_update() -> JsonObj {
    let n = 2000i64;
    let mut db = rqs::Database::paged(POOL_PAGES).expect("paged database");
    db.execute("CREATE TABLE t (k INT, grp INT, pad TEXT)")
        .expect("ddl runs");
    for chunk_start in (0..n).step_by(100) {
        let rows: Vec<String> = (chunk_start..chunk_start + 100)
            .map(|i| format!("({i}, {}, 'p{i}')", i % 50))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .expect("insert runs");
    }
    // One point update, before and after the index exists.
    let full = db
        .execute("UPDATE t SET pad = 'u1' WHERE k = 1234")
        .expect("update runs");
    db.execute("CREATE INDEX ON t (k)").expect("index builds");
    let indexed = db
        .execute("UPDATE t SET pad = 'u2' WHERE k = 1234")
        .expect("update runs");
    // Ranged DELETE through the ordered cursor.
    let del = db
        .execute("DELETE FROM t WHERE k >= 500 AND k < 520")
        .expect("delete runs");
    // Whole-table rewrite with pool ≪ table: the write set spills to
    // disk through steal. One forced undo image per steal plus one redo
    // image per dirtied page at commit is the price.
    let before_writes = db.engine().metrics().page_writes;
    let rewrite = db
        .execute("UPDATE t SET pad = 'rewritten-everywhere'")
        .expect("whole-table rewrite succeeds despite the 8-page pool");
    let engine = db.engine().metrics();
    JsonObj::default()
        .u("rows", n as u64)
        .u("point_update_fullscan_pages", pages(&full.metrics))
        .u("point_update_indexed_pages", pages(&indexed.metrics))
        .u("ranged_delete_rows", del.affected as u64)
        .u("ranged_delete_wal_appends", del.metrics.wal_appends)
        .u("rewrite_rows", rewrite.affected as u64)
        .u("rewrite_page_writes", engine.page_writes - before_writes)
        .u("rewrite_steals", engine.steals)
        .u("rewrite_wal_appends", rewrite.metrics.wal_appends)
        .u("rewrite_wal_undo_images", engine.wal_undo_images)
}
