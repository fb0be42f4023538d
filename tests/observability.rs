//! Observability suite: the unified metrics registry, latency
//! histograms, per-statement trace spans, the slow-statement log,
//! EXPLAIN ANALYZE, and the server's STATS surface.
//!
//! Each database counts into one registry, so the counters are only
//! trustworthy if they agree with a witness that does not read it.
//! These tests are differential where possible:
//!
//! * a full scan's `fault_ins + buffer_hits` vs. the heap descriptor's
//!   page count, and the statement's `page_reads + buffer_hits` vs.
//!   that delta;
//! * the registry's `wal_bytes` vs. the WAL file's actual on-disk
//!   length after a scripted workload;
//! * after a crash, recovery's own counts (`recovery_redo_frames`, one
//!   `wal_checkpoints`) in the registry of the reopened database;
//! * the fsync histogram's sample count vs. the `wal_fsyncs` counter
//!   (the same events, counted at the same site, reduced two ways);
//! * a statement's trace spans vs. its own `elapsed_nanos` (the spans
//!   partition the statement), through `execute` and `query_select`
//!   alike;
//! * a server statement's `parse`/`plan`/`exec`/`commit` spans vs. its
//!   wall clock at the session, for successes and failures;
//! * `row_lock_conflicts` stays zero when concurrent sessions touch
//!   disjoint tables (nothing to conflict on);
//! * a write refused because its row was rewritten after the writer's
//!   `BEGIN` is one `row_lock_conflicts`, and so is a truncation beside
//!   a younger open writer of the table;
//! * `versioned_index_reads` stays zero through indexed reads of a
//!   quiescent table and moves beside an open writer, where `EXPLAIN
//!   ANALYZE` still reports an index read at the quiescent page cost;
//! * `EXPLAIN ANALYZE` actual page reads: indexed point lookup must
//!   beat the full scan on the same predicate (the paper's cost model,
//!   measured rather than estimated) — and under ANALYZE, UPDATE and
//!   predicated DELETE really execute and report the same actuals;
//! * a probe-join step's `rows_read` (its share of `rows_scanned`) vs.
//!   the rows its probes returned, counted by a filtered heap scan, and
//!   the per-step `rows_read`/`probes` vs. the statement's totals;
//! * a statement whose first step matches nothing: every later step
//!   reports `ran=Skipped`, and its page fetches equal the first step's
//!   alone.

use rqs::sql::{parse_statement, SelectStmt, Statement};
use rqs::{Database, Datum, RqsError, Trace};
use server::net::{Client, Server};
use server::{ServerError, SharedDatabase};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use storage::engine::wal_path;

static NEXT_DB: AtomicUsize = AtomicUsize::new(0);

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rqs-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{tag}-{}.rqs",
        NEXT_DB.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path(&path));
    path
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
}

/// Loads a table with enough rows to spill an 8-page pool.
fn load_rows(db: &mut Database, n: i64) {
    db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT)")
        .unwrap();
    for chunk_start in (0..n).step_by(100) {
        let rows: Vec<String> = (chunk_start..(chunk_start + 100).min(n))
            .map(|i| format!("({i}, 'e{i}', {})", 10_000 + i))
            .collect();
        db.execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
            .unwrap();
    }
}

#[test]
fn a_full_scan_fetches_each_heap_page_once() {
    let mut db = Database::paged(8).unwrap();
    load_rows(&mut db, 1000);
    let engine = db.engine();
    let heap_pages = engine.heap_pages("empl").unwrap() as u64;
    assert!(heap_pages > 8, "the table must spill the 8-frame pool");
    let before = engine.metrics();
    // Unrestricted and unindexed: one fetch per page of the chain.
    let r = db.execute("SELECT v.sal FROM empl v").unwrap();
    let after = db.engine().metrics();
    assert_eq!(r.rows.len(), 1000);
    let fetches = (after.fault_ins - before.fault_ins) + (after.buffer_hits - before.buffer_hits);
    assert!(
        after.fault_ins > before.fault_ins,
        "a spilling scan must fault"
    );
    assert_eq!(fetches, heap_pages, "one fetch per heap page");
    assert_eq!(
        r.metrics.page_reads + r.metrics.buffer_hits,
        fetches,
        "the statement account reads the same registry"
    );
    // A predicated UPDATE walks the chain once too: its mutation
    // rewrites the row its read found instead of walking it again.
    let r = db
        .execute("UPDATE empl SET sal = sal + 1 WHERE eno = 500")
        .unwrap();
    assert_eq!(r.affected, 1);
    let fetches = r.metrics.page_reads + r.metrics.buffer_hits;
    assert!(
        (heap_pages..2 * heap_pages).contains(&fetches),
        "an unindexed point UPDATE fetched {fetches} pages of a {heap_pages}-page heap"
    );
}

#[test]
fn wal_counters_match_the_file_on_disk() {
    let path = temp_db("walcount");
    {
        let mut db = Database::open_paged(&path, 16).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        db.execute("UPDATE t SET b = 'rewritten' WHERE a >= 40")
            .unwrap();
        db.execute("DELETE FROM t WHERE a < 5").unwrap();
        let snap = db.engine().metrics();
        assert!(snap.wal_appends > 0, "DML must log");
        assert!(snap.wal_fsyncs > 0, "commits must force the log");
        // Registry vs. the bytes actually on disk: every committed
        // statement forced the log, so the file length is exactly the
        // appended bytes plus the 8-byte magic/version file header
        // (recovery reset the log to just that header on open).
        let on_disk = std::fs::metadata(wal_path(&path)).unwrap().len();
        assert_eq!(snap.wal_bytes + 8, on_disk, "WAL file length");
    }
    cleanup(&path);
}

#[test]
fn recovery_counts_its_replay_and_its_checkpoint() {
    let path = temp_db("recovered");
    {
        let mut db = Database::open_paged(&path, 16).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        // Crash, not flush: the committed rows live only in the WAL.
        db.crash();
    }
    let db = Database::open_paged(&path, 16).unwrap();
    assert_eq!(db.query("SELECT v.a FROM t v").unwrap().rows.len(), 3);
    // Recovery ran with the database's registry attached: it counts the
    // images it replayed and the checkpoint it ends with.
    let snap = db.engine().metrics();
    assert!(snap.recovery_redo_frames > 0, "{snap:?}");
    assert_eq!(snap.wal_checkpoints, 1, "recovery ends in one checkpoint");
    drop(db);
    cleanup(&path);
}

#[test]
fn disjoint_table_sessions_never_wait_on_locks() {
    let shared = SharedDatabase::paged(64).unwrap();
    {
        let mut setup = shared.session();
        for t in 0..4 {
            setup
                .execute(&format!("CREATE TABLE t{t} (a INT)"))
                .unwrap();
        }
    }
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let shared = shared.clone();
            scope.spawn(move || {
                let mut s = shared.session();
                for i in 0..50 {
                    s.execute(&format!("INSERT INTO t{t} VALUES ({i})"))
                        .unwrap();
                    s.execute(&format!("SELECT v.a FROM t{t} v WHERE v.a = {i}"))
                        .unwrap();
                }
            });
        }
    });
    let snap = shared.metrics().unwrap();
    assert_eq!(snap.row_lock_conflicts, 0, "disjoint tables never conflict");
}

/// First-updater-wins refuses two kinds of row write, and
/// `row_lock_conflicts` counts both: a row pending under another open
/// transaction (`tests/concurrency.rs`), and this one — a row a commit
/// rewrote after the writer's `BEGIN` cut its snapshot.
#[test]
fn a_row_rewritten_after_begin_is_one_row_conflict() {
    let shared = SharedDatabase::paged(64).unwrap();
    {
        let mut setup = shared.session();
        setup.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        setup
            .execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            .unwrap();
    }
    let mut writer = shared.session();
    writer.execute("BEGIN").unwrap();
    // A later commit rewrites row 1 under the writer's snapshot.
    shared
        .session()
        .execute("UPDATE t SET v = 11 WHERE k = 1")
        .unwrap();
    let before = shared.metrics().unwrap();
    let err = writer
        .execute("UPDATE t SET v = 12 WHERE k = 1")
        .unwrap_err();
    assert!(err.is_retryable(), "{err}");
    let after = shared.metrics().unwrap();
    assert_eq!(after.row_lock_conflicts, before.row_lock_conflicts + 1);
    assert_eq!(
        shared
            .session()
            .execute("SELECT x.v FROM t x WHERE x.k = 1")
            .unwrap()
            .rows,
        vec![vec![Datum::Int(11)]]
    );
}

/// The snapshot-read observability invariant: every snapshot SELECT
/// opens exactly one read view (`snapshot_reads` bumps per statement).
/// The second half walks one version through its lifecycle: a reader's
/// open transaction forces an overwritten row's prior to be kept
/// (`versions_kept`), and closing the reader lets GC reclaim it
/// (`versions_gc`).
#[test]
fn snapshot_read_counters_track_views_and_version_lifecycle() {
    let shared = SharedDatabase::paged(64).unwrap();
    {
        let mut setup = shared.session();
        setup.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        setup
            .execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
    }
    let before = shared.metrics().unwrap();
    let mut reader = shared.session();
    for _ in 0..5 {
        assert_eq!(reader.execute("SELECT x.k FROM t x").unwrap().rows.len(), 3);
    }
    let mid = shared.metrics().unwrap();
    assert_eq!(
        mid.snapshot_reads,
        before.snapshot_reads + 5,
        "one read view per snapshot SELECT"
    );

    // Version lifecycle: pin a snapshot, overwrite a row under it.
    reader.execute("BEGIN").unwrap();
    assert_eq!(
        reader
            .execute("SELECT x.v FROM t x WHERE x.k = 1")
            .unwrap()
            .rows,
        vec![vec![Datum::Int(10)]]
    );
    let mut writer = shared.session();
    writer.execute("UPDATE t SET v = 11 WHERE k = 1").unwrap();
    let held = shared.metrics().unwrap();
    assert!(
        held.versions_kept > mid.versions_kept,
        "the overwritten row's prior version must be kept for the reader"
    );
    // The pinned snapshot still resolves to the prior version.
    assert_eq!(
        reader
            .execute("SELECT x.v FROM t x WHERE x.k = 1")
            .unwrap()
            .rows,
        vec![vec![Datum::Int(10)]]
    );
    reader.execute("COMMIT").unwrap();
    let after = shared.metrics().unwrap();
    assert!(
        after.versions_gc > mid.versions_gc,
        "closing the last snapshot that could see the prior must GC it"
    );
    // A fresh snapshot sees the overwrite.
    assert_eq!(
        reader
            .execute("SELECT x.v FROM t x WHERE x.k = 1")
            .unwrap()
            .rows,
        vec![vec![Datum::Int(11)]]
    );
}

/// `versioned_index_reads` separates the two ways an index read can
/// run — straight off the tree and heap, or resolved through a read
/// view because the table carries version metadata — so a test or bench
/// phase that means to exercise the second cannot pass on the first.
/// And the plan `EXPLAIN ANALYZE` prints beside an open writer is the
/// plan that ran: an index point read, one row scanned, the quiescent
/// page cost.
#[test]
fn versioned_index_reads_are_counted_and_cost_what_quiescent_ones_do() {
    let mut db = Database::paged(64).unwrap();
    load_rows(&mut db, 2000);
    db.execute("CREATE INDEX ON empl (eno)").unwrap();
    let shared = SharedDatabase::from_database(db);
    let mut reader = shared.session();
    let probe = "EXPLAIN ANALYZE SELECT v.sal FROM empl v WHERE v.eno = 1234";
    let fetches =
        |plan: &[Vec<Datum>]| actual_value(plan, "page_reads") + actual_value(plan, "buffer_hits");

    // Quiescent table: index reads, none of them versioned.
    let quiescent = reader.execute(probe).unwrap().rows;
    for eno in [0, 777, 1999] {
        let sql = format!("SELECT v.sal FROM empl v WHERE v.eno = {eno}");
        assert_eq!(reader.execute(&sql).unwrap().rows.len(), 1);
    }
    assert_eq!(shared.metrics().unwrap().versioned_index_reads, 0);

    // An open writer parks an uncommitted update on another row.
    let mut writer = shared.session();
    writer.execute("BEGIN").unwrap();
    writer
        .execute("UPDATE empl SET sal = 1 WHERE eno = 7")
        .unwrap();
    let churned = reader.execute(probe).unwrap().rows;
    let text: Vec<String> = churned.iter().map(|r| r[0].to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("via IndexEq col#0 = 1234")),
        "{text:?}"
    );
    assert_eq!(actual_value(&churned, "rows"), 1);
    assert_eq!(actual_value(&churned, "rows_scanned"), 1, "{text:?}");
    assert!(
        fetches(&churned) <= fetches(&quiescent) + 1,
        "beside a writer: {} fetches, quiescent: {}",
        fetches(&churned),
        fetches(&quiescent)
    );
    // The row under the pending write reads as its committed version.
    assert_eq!(
        reader
            .execute("SELECT v.sal FROM empl v WHERE v.eno = 7")
            .unwrap()
            .rows,
        vec![vec![Datum::Int(10_007)]]
    );
    assert!(shared.metrics().unwrap().versioned_index_reads >= 2);
    // STATS renders the counter.
    let stats = reader.execute("STATS").unwrap().rows;
    let row = stats
        .iter()
        .find(|r| r[0] == Datum::text("versioned_index_reads"))
        .expect("STATS lists versioned_index_reads");
    assert!(row[1].as_int().unwrap() >= 2);
    writer.execute("ROLLBACK").unwrap();
}

/// Pulls `key=value` integers out of an `Actual:` EXPLAIN ANALYZE line.
fn actual_value(plan: &[Vec<Datum>], key: &str) -> u64 {
    let needle = format!("{key}=");
    for row in plan {
        let Datum::Text(line) = &row[0] else { continue };
        if let Some(pos) = line.find(&needle) {
            let rest = &line[pos + needle.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            return digits.parse().unwrap();
        }
    }
    panic!("no `{key}=` token in plan: {plan:?}");
}

#[test]
fn explain_analyze_shows_index_beating_full_scan() {
    let mut db = Database::paged(8).unwrap();
    load_rows(&mut db, 1000);
    let probe = "EXPLAIN ANALYZE SELECT v.sal FROM empl v WHERE v.nam = 'e777'";
    let scan = db.execute(probe).unwrap();
    assert_eq!(scan.columns, ["plan"]);
    db.execute("CREATE INDEX ON empl (nam)").unwrap();
    let indexed = db.execute(probe).unwrap();
    assert_eq!(actual_value(&scan.rows, "rows"), 1);
    assert_eq!(actual_value(&indexed.rows, "rows"), 1);
    let scan_reads = actual_value(&scan.rows, "page_reads");
    let indexed_reads = actual_value(&indexed.rows, "page_reads");
    assert!(
        indexed_reads < scan_reads,
        "index must touch fewer pages: {indexed_reads} vs {scan_reads}"
    );
    assert!(
        actual_value(&indexed.rows, "rows_scanned") < actual_value(&scan.rows, "rows_scanned"),
        "index must scan fewer rows"
    );
}

/// The `key=value` tokens of every EXPLAIN ANALYZE step line, in plan
/// order (steps are the lines carrying `ran=`).
fn step_runs(plan: &[Vec<Datum>]) -> Vec<(String, u64, u64)> {
    let token = |line: &str, key: &str| -> String {
        let start = line.find(&format!(" {key}=")).unwrap() + key.len() + 2;
        line[start..].split(' ').next().unwrap().to_owned()
    };
    plan.iter()
        .filter_map(|row| match &row[0] {
            Datum::Text(line) if line.contains(" ran=") => Some((
                token(line, "ran"),
                token(line, "probes").parse().unwrap(),
                token(line, "rows_read").parse().unwrap(),
            )),
            _ => None,
        })
        .collect()
}

/// The probe join's accounting, checked against an independent count: a
/// step that joins through an index reports one probe per left row, and
/// its `rows_read` — its share of `rows_scanned` — is exactly the rows
/// those probes returned (counted here by a filtered heap scan), even
/// where its restrictions then discard some. Across steps, `rows_read`
/// and `probes` add up to the statement's `rows_scanned` and
/// `index_probes`.
#[test]
fn probe_step_rows_scanned_equal_the_rows_its_probes_returned() {
    let mut db = Database::paged(8).unwrap();
    db.execute("CREATE TABLE item (k INT, pad TEXT)").unwrap();
    db.execute("CREATE INDEX ON item (k)").unwrap();
    let pad = "p".repeat(60);
    let rows: Vec<String> = (0..1000)
        .map(|i| format!("({}, '{}')", i % 50, if i % 3 == 0 { "x" } else { &pad }))
        .collect();
    db.execute(&format!("INSERT INTO item VALUES {}", rows.join(", ")))
        .unwrap();
    // Left side: one page, two probes for the same key, one for a key
    // with no postings.
    db.execute("CREATE TABLE pick (k INT)").unwrap();
    db.execute("INSERT INTO pick VALUES (3), (7), (7), (99)")
        .unwrap();
    let sql = "SELECT i.pad FROM pick p, item i WHERE i.k = p.k AND i.pad <> 'x'";
    let plan = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().rows;
    let steps = step_runs(&plan);
    assert_eq!(steps.len(), 2, "{plan:?}");
    let (method, probes, rows_read) = steps[0].clone();
    assert_eq!(method, "IndexProbe", "{plan:?}");
    assert_eq!(probes, 4, "one probe per left row");
    let heap = db.engine().scan("item").unwrap();
    let returned: u64 = [3, 7, 7, 99]
        .iter()
        .map(|&k| heap.iter().filter(|row| row[0] == Datum::Int(k)).count() as u64)
        .sum();
    assert_eq!(rows_read, returned, "{plan:?}");
    let answers = db.execute(sql).unwrap().rows.len() as u64;
    assert!(answers < rows_read, "the restriction discards probed rows");
    assert_eq!(steps[1].0, "Scan");
    assert_eq!(
        steps.iter().map(|s| s.2).sum::<u64>(),
        actual_value(&plan, "rows_scanned")
    );
    assert_eq!(
        steps.iter().map(|s| s.1).sum::<u64>(),
        actual_value(&plan, "index_probes")
    );
}

/// Every join is inner, so once the rows before a step are empty the
/// rest of the pipeline reads nothing: each later step reports
/// `ran=Skipped probes=0 rows_read=0`, the statement fetches exactly the
/// pages its first step fetches alone, and the per-step `rows_read` and
/// `probes` still add up to the statement's `rows_scanned` and
/// `index_probes`.
#[test]
fn an_empty_first_step_skips_the_rest_of_the_pipeline() {
    let mut db = Database::paged(8).unwrap();
    load_rows(&mut db, 1000);
    db.execute("CREATE TABLE pick (k INT)").unwrap();
    db.execute("INSERT INTO pick VALUES (3), (7), (7), (12)")
        .unwrap();
    let sql = "SELECT w.nam FROM pick p, empl v, empl w
               WHERE p.k = 99 AND v.eno = p.k AND w.eno = v.sal";
    let plan = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().rows;
    // Step lines print the last step first.
    let steps = step_runs(&plan);
    assert_eq!(steps.len(), 3, "{plan:?}");
    assert_eq!(steps[2], ("Scan".to_owned(), 0, 4), "{plan:?}");
    for later in &steps[..2] {
        assert_eq!(later, &("Skipped".to_owned(), 0, 0), "{plan:?}");
    }
    let alone = db.execute("SELECT p.k FROM pick p WHERE p.k = 99").unwrap();
    let first_step_fetches = alone.metrics.page_reads + alone.metrics.buffer_hits;
    assert!(first_step_fetches > 0);
    assert_eq!(
        actual_value(&plan, "page_reads") + actual_value(&plan, "buffer_hits"),
        first_step_fetches,
        "{plan:?}"
    );
    assert_eq!(
        steps.iter().map(|s| s.2).sum::<u64>(),
        actual_value(&plan, "rows_scanned")
    );
    assert_eq!(
        steps.iter().map(|s| s.1).sum::<u64>(),
        actual_value(&plan, "index_probes")
    );
    let r = db.execute(sql).unwrap();
    assert!(r.rows.is_empty());
    assert_eq!(
        (r.metrics.scans, r.metrics.joins),
        (1, 0),
        "{:?}",
        r.metrics
    );
}

#[test]
fn explain_covers_update_and_delete() {
    for mut db in [Database::new(), Database::paged(8).unwrap()] {
        db.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        // Filler past every probed key spreads `t` over several pages:
        // on a table no larger than one probe the scan is the cheaper
        // access path and EXPLAIN rightly says so.
        let filler = 200;
        let pad = "f".repeat(100);
        let rows: Vec<String> = (0..filler)
            .map(|i| format!("({}, '{pad}')", 100 + i))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        let full = db.explain("UPDATE t SET pad = 'x' WHERE k = 1").unwrap();
        assert!(full.contains("Update t"), "{full}");
        assert!(full.contains("FullScan"), "{full}");
        db.execute("CREATE INDEX ON t (k)").unwrap();
        let eq = db.explain("UPDATE t SET pad = 'x' WHERE k = 1").unwrap();
        assert!(eq.contains("IndexEq col#0 = 1"), "{eq}");
        let range = db.explain("DELETE FROM t WHERE k >= 1 AND k < 2").unwrap();
        assert!(range.contains("Delete t"), "{range}");
        assert!(range.contains("IndexRange col#0"), "{range}");
        let truncate = db.explain("DELETE FROM t").unwrap();
        assert!(truncate.contains("Truncate"), "{truncate}");
        // The statement surface renders the same text as plan rows, and
        // EXPLAIN must not mutate anything.
        let r = db.execute("EXPLAIN DELETE FROM t WHERE k = 1").unwrap();
        assert_eq!(r.columns, ["plan"]);
        assert!(!r.rows.is_empty());
        assert_eq!(
            db.execute("SELECT v.k FROM t v").unwrap().rows.len(),
            filler + 2
        );
        // EXPLAIN ANALYZE executes DML for real, so the unpredicated
        // DELETE (a full truncate) stays refused; INSERT is rejected
        // outright at parse time.
        assert!(db.execute("EXPLAIN ANALYZE DELETE FROM t").is_err());
        assert!(db.execute("EXPLAIN INSERT INTO t VALUES (3, 'c')").is_err());
    }
}

#[test]
fn explain_analyze_executes_update_and_predicated_delete() {
    for mut db in [Database::new(), Database::paged(8).unwrap()] {
        db.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        // ANALYZE on an UPDATE renders the plan, then really executes:
        // the Actual line reports the mutated row count and the table
        // reflects the rewrite afterwards.
        let upd = db
            .execute("EXPLAIN ANALYZE UPDATE t SET pad = 'x' WHERE k >= 2")
            .unwrap();
        assert_eq!(upd.columns, ["plan"]);
        let text = upd
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Update t"), "{text}");
        assert_eq!(actual_value(&upd.rows, "rows"), 2, "{text}");
        let rewritten = db.execute("SELECT v.k FROM t v WHERE v.pad = 'x'").unwrap();
        assert_eq!(rewritten.rows.len(), 2, "ANALYZE must have mutated");
        // Same for a predicated DELETE; the actuals carry I/O counters
        // in the same `key=value` grammar the SELECT path uses.
        let del = db
            .execute("EXPLAIN ANALYZE DELETE FROM t WHERE k = 1")
            .unwrap();
        assert_eq!(actual_value(&del.rows, "rows"), 1);
        let _ = actual_value(&del.rows, "elapsed_us");
        let _ = actual_value(&del.rows, "page_reads");
        assert_eq!(db.execute("SELECT v.k FROM t v").unwrap().rows.len(), 2);
    }
}

#[test]
fn failed_statements_still_report_their_io() {
    let mut db = Database::paged(8).unwrap();
    db.execute("CREATE TABLE t (a INT, CHECK (a BETWEEN 0 AND 10))")
        .unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // The update scans the table, then fails the CHECK re-validation —
    // its page fetches must still be accounted.
    let err = db.execute("UPDATE t SET a = 99");
    assert!(err.is_err(), "CHECK must reject the rewrite");
    let m = db.last_statement_metrics();
    assert!(
        m.page_reads + m.buffer_hits > 0,
        "failed statement lost its I/O accounting: {m:?}"
    );
    assert!(m.elapsed_nanos > 0, "wall clock must be recorded");
    // A successful statement reports through both surfaces identically.
    let ok = db.execute("SELECT v.a FROM t v").unwrap();
    assert_eq!(&ok.metrics, db.last_statement_metrics());
    assert!(ok.metrics.elapsed_nanos >= ok.metrics.exec_nanos);
}

#[test]
fn stats_over_tcp_reports_nonzero_buffer_counters() {
    let Ok(server) = Server::start(SharedDatabase::paged(16).unwrap(), "127.0.0.1:0") else {
        eprintln!("skipping: cannot bind a TCP socket in this environment");
        return;
    };
    let mut c = Client::connect(server.addr()).unwrap();
    c.execute("CREATE TABLE t (a INT, b TEXT)")
        .unwrap()
        .unwrap();
    for i in 0..20 {
        c.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')"))
            .unwrap()
            .unwrap();
    }
    c.execute("SELECT v.b FROM t v WHERE v.a = 7")
        .unwrap()
        .unwrap();
    // The typed helper parses the two-column wire rows into a map.
    let stats = c.stats().unwrap();
    let value = |name: &str| -> u64 {
        *stats
            .get(name)
            .unwrap_or_else(|| panic!("no {name} row in STATS"))
    };
    // A fresh in-memory paged database allocates its pages rather than
    // faulting them in, but repeated catalog/heap access must hit
    // resident frames.
    assert!(value("buffer_hits") > 0, "workload must hit the pool");
    assert!(value("wal_appends") > 0, "inserts must have logged");
    // Session counters ride along: this connection has executed
    // 1 DDL + 20 inserts + 1 select + this STATS call.
    assert_eq!(value("session_statements"), 23);
    assert_eq!(value("session_txn_aborts"), 0);
    // Every engine counter the registry declares is on the wire, and
    // the two session counters are all that follow them.
    for name in storage::MetricsSnapshot::NAMES {
        value(name);
    }
    assert_eq!(stats.len(), storage::MetricsSnapshot::NAMES.len() + 2);
    assert_eq!(stats.len(), 26 + 2, "26 engine counters, 2 session rows");
    server.stop();
}

#[test]
fn fsync_histogram_count_matches_the_counter() {
    let path = temp_db("fsynchist");
    {
        let mut db = Database::open_paged(&path, 16).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..25 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        db.execute("UPDATE t SET a = 99 WHERE a < 5").unwrap();
        let snap = db.engine().metrics();
        let hist = db.engine().histograms();
        // Same events, two reductions: every fsync bumps the counter
        // and records one histogram sample, at the same call site.
        assert!(snap.wal_fsyncs > 0, "commits must force the log");
        assert_eq!(hist.wal_fsync.count(), snap.wal_fsyncs, "fsync count");
        assert!(
            hist.wal_fsync.total_nanos > 0,
            "file-backed fsyncs take measurable time"
        );
        assert!(hist.wal_fsync.max_nanos >= hist.wal_fsync.percentile(50.0));
        // Every committed mutating statement records one commit sample.
        assert!(hist.commit.count() > 0, "commits must be timed");
        assert!(
            hist.commit.total_nanos >= hist.wal_fsync.total_nanos,
            "a commit contains its fsync"
        );
    }
    cleanup(&path);
}

/// A bare `DELETE` truncates, writing every row of the table at once,
/// so it is refused — retryably, as one `row_lock_conflicts`, and
/// without waiting — while another transaction has a pending version in
/// the table, even when that writer is younger. Once the writer
/// commits, the retried transaction goes through.
#[test]
fn truncation_beside_a_younger_open_writer_is_refused_until_it_commits() {
    let shared = SharedDatabase::paged(64).unwrap();
    {
        let mut setup = shared.session();
        setup.execute("CREATE TABLE t (a INT)").unwrap();
        setup.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let mut older = shared.session();
    older.execute("BEGIN").unwrap();
    let mut younger = shared.session();
    younger.execute("BEGIN").unwrap();
    younger.execute("INSERT INTO t VALUES (2)").unwrap();
    let before = shared.metrics().unwrap();
    let err = older.execute("DELETE FROM t").unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert!(matches!(err, ServerError::RolledBack(_)), "{err}");
    let after = shared.metrics().unwrap();
    assert_eq!(after.row_lock_conflicts, before.row_lock_conflicts + 1);
    younger.execute("COMMIT").unwrap();
    older.execute("BEGIN").unwrap();
    assert_eq!(older.execute("DELETE FROM t").unwrap().affected, 2);
    older.execute("COMMIT").unwrap();
    let rows = shared
        .session()
        .execute("SELECT v.a FROM t v")
        .unwrap()
        .rows;
    assert!(rows.is_empty(), "{rows:?}");
}

#[test]
fn trace_spans_partition_statement_elapsed() {
    let mut db = Database::paged(8).unwrap();
    db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    let trace = db.last_statement_trace().clone();
    assert_eq!(
        trace.elapsed_nanos,
        db.last_statement_metrics().elapsed_nanos,
        "trace and metrics report the same wall clock"
    );
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert!(names.contains(&"parse"), "spans: {names:?}");
    assert!(names.contains(&"exec"), "spans: {names:?}");
    assert!(
        names.contains(&"commit"),
        "a paged INSERT commits: {names:?}"
    );
    // The spans partition the statement: they sum to at most the wall
    // clock, and the unattributed remainder is only probe overhead.
    let sum: u64 = trace.spans.iter().map(|s| s.nanos).sum();
    assert!(
        sum <= trace.elapsed_nanos,
        "{sum} > {}",
        trace.elapsed_nanos
    );
    assert!(
        trace.elapsed_nanos - sum < 1_000_000,
        "unattributed gap too large: {} of {}",
        trace.elapsed_nanos - sum,
        trace.elapsed_nanos
    );
    // The commit span carries the durability I/O: the WAL frames this
    // statement appended are attributed to commit, not execution.
    let commit = trace.spans.iter().find(|s| s.name == "commit").unwrap();
    assert!(commit.wal_appends > 0, "commit span owns the WAL traffic");
    // A read-only statement has no commit span at all.
    let query = "SELECT v.a FROM t v";
    db.execute(query).unwrap();
    let read = db.last_statement_trace();
    assert!(
        read.spans.iter().all(|s| s.name != "commit"),
        "reads must not report a commit span: {read:?}"
    );
    let names = |t: &Trace| t.spans.iter().map(|s| s.name).collect::<Vec<_>>();
    assert_eq!(names(read), ["parse", "plan", "exec"]);
    // The parallel read path accounts for the same SELECT the same way:
    // the same spans, partitioning its own wall clock, with the page
    // fetches its result reports carried by `exec`.
    let select = |sql: &str| -> (SelectStmt, u64) {
        let t0 = std::time::Instant::now();
        let Statement::Select(select) = parse_statement(sql).unwrap() else {
            panic!("{sql} is not a SELECT");
        };
        (select, t0.elapsed().as_nanos() as u64)
    };
    let (stmt, parse_nanos) = select(query);
    let (result, trace) = db.query_select(&stmt, parse_nanos);
    let m = result.unwrap().metrics;
    assert_eq!(names(&trace), names(read));
    assert_eq!(trace.elapsed_nanos, m.elapsed_nanos);
    let sum: u64 = trace.spans.iter().map(|s| s.nanos).sum();
    assert!(sum <= trace.elapsed_nanos, "{sum} > {trace:?}");
    let exec = trace.spans.iter().find(|s| s.name == "exec").unwrap();
    assert!(m.page_reads + m.buffer_hits > 0, "the scan fetches pages");
    assert_eq!(
        exec.page_reads + exec.buffer_hits,
        m.page_reads + m.buffer_hits,
        "{trace:?} vs {m:?}"
    );
    // A failing SELECT still returns its own trace.
    let (stmt, parse_nanos) = select("SELECT v.a FROM nosuch v");
    let (result, trace) = db.query_select(&stmt, parse_nanos);
    assert!(matches!(result, Err(RqsError::UnknownTable(_))));
    assert_eq!(names(&trace), ["parse", "exec"]);
}

/// The server parses a statement once, times that parse itself and
/// reports it as the `parse` span; the spans
/// of a statement never add up to more than its wall clock at the
/// session.
#[test]
fn server_trace_spans_fit_the_wall_clock_and_time_the_parse() {
    let shared = SharedDatabase::paged(16).unwrap();
    let mut s = shared.session();
    s.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    let traced = |s: &mut server::ServerSession, sql: &str| -> Vec<(String, u64)> {
        let t0 = std::time::Instant::now();
        let r = s.execute(&format!("TRACE {sql}")).unwrap();
        let wall = t0.elapsed().as_nanos() as u64;
        let spans: Vec<(String, u64)> = r
            .rows
            .iter()
            .map(|row| {
                (
                    row[0].as_text().unwrap().to_owned(),
                    row[1].as_int().unwrap() as u64,
                )
            })
            .collect();
        let sum: u64 = spans.iter().map(|(_, nanos)| nanos).sum();
        assert!(
            sum <= wall,
            "{sql}: spans sum {sum} > wall {wall}: {spans:?}"
        );
        let parse = spans.iter().find(|(name, _)| name == "parse").unwrap().1;
        assert!(parse > 0, "{sql}: the parse must be timed: {spans:?}");
        spans
    };
    let names = |spans: &[(String, u64)]| -> Vec<String> {
        spans.iter().map(|(name, _)| name.clone()).collect()
    };
    // The write path: the database's spans.
    let write = traced(&mut s, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
    assert_eq!(names(&write), ["parse", "exec", "commit"]);
    // The parallel read path assembles the same shape, minus commit.
    let read = traced(&mut s, "SELECT v.b FROM t v WHERE v.a = 2");
    assert_eq!(names(&read), ["parse", "plan", "exec"]);
    // Inside a transaction a SELECT takes the write path; still no
    // commit span (the session commits later).
    s.execute("BEGIN").unwrap();
    let in_txn = traced(&mut s, "SELECT v.b FROM t v WHERE v.a = 2");
    assert_eq!(names(&in_txn), ["parse", "plan", "exec"]);
    s.execute("COMMIT").unwrap();
}

/// A failed autocommit SELECT leaves *its own* trace behind — not the
/// previous statement's — and can reach the slow log, exactly like a
/// failed write does.
#[test]
fn failed_select_reports_its_own_trace_and_reaches_the_slow_log() {
    let shared = SharedDatabase::paged(16).unwrap();
    shared.set_slow_log(Duration::ZERO, 8);
    let mut s = shared.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(
        s.last_trace().iter().any(|sp| sp.name == "commit"),
        "the insert's trace carries a commit span"
    );
    let failing = "SELECT v.a FROM nosuch v";
    let err = s.execute(failing).unwrap_err();
    assert!(
        matches!(err, ServerError::Statement(RqsError::UnknownTable(_))),
        "{err}"
    );
    let names: Vec<&str> = s.last_trace().iter().map(|sp| sp.name).collect();
    assert_eq!(
        names,
        ["parse", "exec"],
        "the failed SELECT's own spans, not the insert's"
    );
    assert!(s.last_trace()[0].nanos > 0, "its parse was timed");
    let slow = shared.slow_entries();
    let last = slow.last().unwrap();
    assert_eq!(last.sql, failing, "failures reach the slow log too");
    assert_eq!(last.spans, s.last_trace());
    // TRACE of a failing SELECT reports the error, and the session's
    // trace is again the failed statement's.
    assert!(s.execute("TRACE SELECT v.zzz FROM t v").is_err());
    assert_eq!(s.last_trace().first().unwrap().name, "parse");
    assert!(s.last_trace().iter().all(|sp| sp.name != "commit"));
}

#[test]
fn slow_log_captures_statements_and_respects_capacity() {
    let shared = SharedDatabase::paged(16).unwrap();
    // Threshold zero: everything is slow; capacity 4 bounds the ring.
    shared.set_slow_log(Duration::ZERO, 4);
    let mut s = shared.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..6 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    s.execute("SELECT v.a FROM t v WHERE v.a = 3").unwrap();
    let entries = shared.slow_entries();
    assert_eq!(entries.len(), 4, "ring must evict down to capacity");
    // The newest entry is the SELECT; eviction dropped the oldest.
    let last = entries.last().unwrap();
    assert_eq!(last.sql, "SELECT v.a FROM t v WHERE v.a = 3");
    assert_eq!(last.session, s.id(), "entry names the issuing session");
    assert!(last.wall_nanos > 0);
    // Entries keep the full span breakdown.
    assert_eq!(last.spans.first().unwrap().name, "parse");
    assert!(last.spans.iter().any(|sp| sp.name == "exec"));
    // Raising the threshold stops capture without clearing history.
    shared.set_slow_log(Duration::from_secs(3600), 4);
    s.execute("SELECT v.a FROM t v").unwrap();
    let after = shared.slow_entries();
    assert_eq!(after.len(), 4);
    assert_eq!(after.last().unwrap().sql, last.sql, "no new captures");
}

#[test]
fn observability_verbs_work_over_tcp() {
    let shared = SharedDatabase::paged(8).unwrap();
    shared.set_slow_log(Duration::ZERO, 128);
    let Ok(server) = Server::start(shared, "127.0.0.1:0") else {
        eprintln!("skipping: cannot bind a TCP socket in this environment");
        return;
    };
    let mut c = Client::connect(server.addr()).unwrap();
    c.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT)")
        .unwrap()
        .unwrap();
    // Enough rows to spill the 8-frame pool so reads fault pages in.
    for chunk_start in (0..1000).step_by(100) {
        let rows: Vec<String> = (chunk_start..chunk_start + 100)
            .map(|i| format!("({i}, 'e{i}', {})", 10_000 + i))
            .collect();
        c.execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))
            .unwrap()
            .unwrap();
    }
    // TRACE runs the statement and returns its span breakdown.
    let trace = c
        .execute("TRACE SELECT v.sal FROM empl v WHERE v.nam = 'e500'")
        .unwrap()
        .unwrap();
    assert_eq!(
        trace.columns,
        ["span", "nanos", "page_reads", "buffer_hits", "wal_appends"]
    );
    let spans: Vec<&str> = trace.rows.iter().map(|r| r[0].as_str()).collect();
    assert!(spans.contains(&"'parse'"), "spans: {spans:?}");
    assert!(spans.contains(&"'exec'"), "spans: {spans:?}");
    for row in &trace.rows {
        let _: u64 = row[1].parse().expect("nanos must be an integer");
    }
    // A bare TRACE is a usage error, reported as a server ERR.
    assert!(c.execute("TRACE").unwrap().is_err());
    assert!(c.execute("TRACE   ").unwrap().is_err());
    // STATS HISTOGRAMS renders every histogram × stat pair.
    let hists = c.execute("STATS HISTOGRAMS").unwrap().unwrap();
    assert_eq!(hists.columns, ["histogram", "stat", "value"]);
    let value = |hist: &str, stat: &str| -> u64 {
        let (h, s) = (format!("'{hist}'"), format!("'{stat}'"));
        hists
            .rows
            .iter()
            .find(|r| r[0] == h && r[1] == s)
            .unwrap_or_else(|| panic!("no {hist}/{stat} row"))[2]
            .parse()
            .unwrap()
    };
    for hist in storage::HistogramsSnapshot::NAMES {
        for stat in storage::HistogramSnapshot::STAT_NAMES {
            value(hist, stat);
        }
    }
    assert_eq!(
        storage::HistogramsSnapshot::NAMES,
        ["wal_fsync", "commit", "fault_in"]
    );
    assert_eq!(
        hists.rows.len(),
        3 * storage::HistogramSnapshot::STAT_NAMES.len()
    );
    assert!(value("wal_fsync", "count") > 0, "inserts forced the log");
    assert!(value("commit", "count") > 0, "inserts committed");
    assert!(value("commit", "total_nanos") > 0, "commits take time");
    assert!(
        value("fault_in", "count") > 0,
        "the 8-frame pool must have faulted under 1000 rows"
    );
    // SLOW lists captured statements with their span breakdown.
    let slow = c.execute("SLOW").unwrap().unwrap();
    assert_eq!(slow.columns, ["session", "statement", "wall_us", "spans"]);
    assert!(
        slow.rows
            .iter()
            .any(|r| r[1].contains("SELECT v.sal FROM empl v")),
        "the traced SELECT must appear in SLOW: {:?}",
        slow.rows
    );
    for row in &slow.rows {
        assert!(row[3].contains("exec="), "spans column: {row:?}");
    }
    server.stop();
}
