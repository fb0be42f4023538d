//! Fault-injection crash-recovery suite for the paged storage engine.
//!
//! Every test here follows the same shape: run a workload against a
//! file-backed database, kill it at an adversarial moment (drop without
//! flushing, torn WAL tail, injected I/O failures, power-cut
//! mid-checkpoint), reopen, and assert the three recovery guarantees:
//!
//! 1. every committed statement is intact;
//! 2. every uncommitted/aborted statement left no trace;
//! 3. heap rows and B+-tree postings agree, and integrity constraints
//!    are still enforced without re-issuing DDL.
//!
//! The expected state is computed by replaying the committed prefix of
//! the same statements on a fresh `Database::new()` that never crashes:
//! the committed-state model.

use proptest::prelude::*;
use rqs::value::Tuple;
use rqs::{access, AccessPath, Database, Datum, TableConstraint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use storage::engine::wal_path;
use storage::Fault;

static NEXT_DB: AtomicUsize = AtomicUsize::new(0);

/// A fresh database file path (plus clean WAL) for one scenario.
fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rqs-crash-{}", std::process::id()));
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

/// Buffer-pool frames for the scenarios, `RQS_TEST_POOL_FRAMES`
/// overriding `default`. CI's pool-pressure step pins this to the
/// engine's 8-frame floor so whole-table statements must steal
/// (spill uncommitted pages with undo logging) at every crash point.
fn pool_frames(default: usize) -> usize {
    std::env::var("RQS_TEST_POOL_FRAMES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Multi-row INSERT statements filling `table` with `rows` padded rows
/// (~11 per 4 KiB page), so whole-table DML dirties far more pages
/// than a small pool holds.
fn wide_fill(table: &str, rows: usize, fill: &str) -> Vec<String> {
    (0..rows.div_ceil(40))
        .map(|chunk| {
            let vals: Vec<String> = (chunk * 40..((chunk + 1) * 40).min(rows))
                .map(|i| format!("({i}, '{}')", fill.repeat(350)))
                .collect();
            format!("INSERT INTO {table} VALUES {}", vals.join(", "))
        })
        .collect()
}

/// Sorted rows of every table, keyed by table name.
fn full_state(db: &Database) -> BTreeMap<String, Vec<Tuple>> {
    let mut out = BTreeMap::new();
    for name in db.engine().table_names() {
        let mut rows = db.engine().scan(name).unwrap();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        out.insert(name.to_owned(), rows);
    }
    out
}

/// Asserts that every index on `table` agrees exactly with the heap:
/// each stored row is found through the index, and the index returns
/// nothing extra.
fn assert_heap_index_agree(db: &Database, table: &str, cols: &[usize]) {
    if !db.engine().has_table(table) {
        return; // crashed before the table's DDL committed
    }
    let rows = db.engine().scan(table).unwrap();
    for &col in cols {
        if !db.engine().has_index(table, col) {
            continue;
        }
        let mut by_key: BTreeMap<String, usize> = BTreeMap::new();
        for row in &rows {
            *by_key.entry(format!("{:?}", row[col])).or_default() += 1;
        }
        for row in &rows {
            let mut hits: Vec<Tuple> = Vec::new();
            let key = AccessPath::KeyEq(col, row[col].clone());
            access::read(db.engine(), table, &key, &mut |_, hit| {
                hits.push(hit.clone());
                true
            })
            .unwrap();
            assert_eq!(
                hits.len(),
                by_key[&format!("{:?}", row[col])],
                "{table}.{col}: postings for {:?} disagree with the heap",
                row[col]
            );
            assert!(
                hits.iter().all(|h| h[col] == row[col]),
                "{table}.{col}: index returned a foreign key value"
            );
        }
    }
}

/// The scripted workload: DDL with constraints, an index, several
/// insert statements (single- and multi-row), a delete, and a
/// create/drop pair. Every statement succeeds when run in order.
fn scripted_workload() -> Vec<String> {
    let mut script = vec![
        "CREATE TABLE dept (dno INT, fct TEXT, PRIMARY KEY (dno))".to_string(),
        "CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT, \
         PRIMARY KEY (eno), \
         CHECK (sal BETWEEN 10000 AND 90000), \
         FOREIGN KEY (dno) REFERENCES dept (dno))"
            .to_string(),
        "INSERT INTO dept VALUES (1, 'hq'), (2, 'lab'), (3, 'field')".to_string(),
        "CREATE INDEX ON empl (nam)".to_string(),
        "CREATE INDEX ON empl (dno)".to_string(),
    ];
    for batch in 0..4 {
        let rows: Vec<String> = (0..25)
            .map(|i| {
                let eno = batch * 25 + i;
                format!("({eno}, 'e{eno}', {}, {})", 10_000 + eno, eno % 3 + 1)
            })
            .collect();
        script.push(format!("INSERT INTO empl VALUES {}", rows.join(", ")));
    }
    script.extend([
        // Predicated DML: in-place rewrites (indexed and not), a rewrite
        // of an indexed column, and range deletes — every crash point in
        // here must recover the exact committed prefix.
        "UPDATE empl SET sal = sal + 500 WHERE dno = 1".to_string(),
        "UPDATE empl SET nam = 'renamed', sal = 25000 WHERE eno = 10".to_string(),
        "UPDATE empl SET dno = 2 WHERE dno = 3".to_string(),
        "DELETE FROM empl WHERE eno >= 90 AND eno < 95".to_string(),
        "DELETE FROM empl WHERE nam = 'renamed'".to_string(),
        "CREATE TABLE scratch (x INT)".to_string(),
        "INSERT INTO scratch VALUES (1), (2), (3)".to_string(),
        "UPDATE scratch SET x = x + 10 WHERE x > 1".to_string(),
        "DELETE FROM scratch WHERE x = 12".to_string(),
        "DELETE FROM scratch".to_string(),
        "INSERT INTO scratch VALUES (9)".to_string(),
        "DROP TABLE scratch".to_string(),
        "INSERT INTO empl VALUES (100, 'late', 20000, 2)".to_string(),
    ]);
    // Steal territory: a table of ~11 padded pages, then whole-table
    // rewrites whose write sets exceed the 8-frame pool — every crash
    // point in here exercises steal, commit-time redo of stolen pages,
    // and recovery undo.
    script.push("CREATE TABLE wide (k INT, pad TEXT)".to_string());
    script.extend(wide_fill("wide", 120, "a"));
    script.push(format!("UPDATE wide SET pad = '{}'", "b".repeat(355)));
    script.push("DELETE FROM wide WHERE k >= 60".to_string());
    script.push(format!(
        "UPDATE wide SET pad = '{}' WHERE k < 60",
        "c".repeat(340)
    ));
    script
}

/// After reopening a database whose script prefix reached past the
/// `empl` DDL, the constraints must still bite without re-issuing DDL.
fn assert_constraints_still_enforced(db: &mut Database) {
    if !db.engine().has_table("empl") {
        return;
    }
    assert!(
        !db.engine().table("empl").unwrap().constraints.is_empty(),
        "constraints must be bootstrapped from the system catalog"
    );
    // CHECK violation.
    assert!(
        db.execute("INSERT INTO empl VALUES (9000, 'poor', 500, 1)")
            .is_err(),
        "salary bound must survive reopen"
    );
    // FK violation.
    assert!(
        db.execute("INSERT INTO empl VALUES (9001, 'lost', 20000, 99)")
            .is_err(),
        "foreign key must survive reopen"
    );
    if let Some(row) = db.engine().scan("empl").unwrap().first().cloned() {
        // Key violation against a row that actually exists.
        let Datum::Int(eno) = row[0] else {
            panic!("empl.eno is INT")
        };
        assert!(
            db.execute(&format!("INSERT INTO empl VALUES ({eno}, 'dup', 20000, 1)"))
                .is_err(),
            "primary key must survive reopen"
        );
    }
    // A valid insert still goes through (then gets removed so state
    // comparisons stay untouched — but callers compare *before* this).
}

/// Tentpole scenario: for every crash point in the scripted workload,
/// the reopened database equals the model's replay of exactly the
/// committed prefix, with heap/index agreement and live constraints.
#[test]
fn every_crash_point_recovers_the_committed_prefix() {
    let script = scripted_workload();
    let pool = pool_frames(8);
    for crash_at in 0..=script.len() {
        let path = temp_db("script");
        let mut db = Database::open_paged(&path, pool).unwrap();
        let mut model = Database::new();
        for stmt in &script[..crash_at] {
            let a = db.execute(stmt).expect("scripted statement succeeds");
            let b = model.execute(stmt).expect("model statement succeeds");
            assert_eq!(a.affected, b.affected, "affected rows diverged on {stmt}");
        }
        // Crash: buffered pages are lost, only the WAL survives.
        db.crash();
        let mut recovered = Database::open_paged(&path, pool).unwrap();
        assert_eq!(
            full_state(&recovered),
            full_state(&model),
            "state diverged after crash at statement {crash_at}"
        );
        assert_heap_index_agree(&recovered, "empl", &[1, 3]);
        assert_constraints_still_enforced(&mut recovered);
        cleanup(&path);
    }
}

/// A torn final frame (the crash hit mid-append, before the commit
/// record was durable) must roll back exactly the final statement.
#[test]
fn torn_final_frame_drops_only_the_last_transaction() {
    let path = temp_db("torn");
    let mut db = Database::open_paged(&path, 16).unwrap();
    db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.execute("CREATE INDEX ON t (a)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
            .unwrap();
    }
    db.crash();
    // Tear bytes off the end of the log: the final statement's Commit
    // frame (and part of its page image) never made it to disk.
    let wal = wal_path(&path);
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 40).unwrap();
    drop(file);

    let db = Database::open_paged(&path, 16).unwrap();
    let rows = db.engine().scan("t").unwrap();
    assert_eq!(rows.len(), 4, "exactly the torn statement must be gone");
    for i in 0..4i64 {
        assert!(rows.iter().any(|r| r[0] == Datum::Int(i)));
    }
    assert_heap_index_agree(&db, "t", &[0]);
    cleanup(&path);
}

/// Garbage appended after the last good frame (a torn write that got
/// as far as scribbling) is discarded without losing committed data.
#[test]
fn trailing_garbage_after_last_frame_is_ignored() {
    let path = temp_db("garbage");
    let mut db = Database::open_paged(&path, 16).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    db.crash();
    let wal = wal_path(&path);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xab; 100]);
    std::fs::write(&wal, &bytes).unwrap();

    let db = Database::open_paged(&path, 16).unwrap();
    assert_eq!(db.engine().scan("t").unwrap().len(), 5);
    cleanup(&path);
}

/// Regression (ROADMAP known issue): an I/O error between the heap
/// insert and its index maintenance must abort the whole statement —
/// no stranded rows, no dangling postings — and the session stays up.
#[test]
fn write_fault_mid_statement_strands_nothing() {
    let path = temp_db("fault");
    let fault = Fault::new();
    let mut db = Database::open_with_fault(&path, 8, fault.clone()).unwrap();
    db.execute("CREATE TABLE t (a INT, pad TEXT)").unwrap();
    db.execute("CREATE INDEX ON t (a)").unwrap();
    let pad = "p".repeat(300);
    let mut committed = 0i64;
    for _ in 0..120 {
        db.execute(&format!("INSERT INTO t VALUES ({committed}, '{pad}')"))
            .unwrap();
        committed += 1;
    }
    // March the injected failure through every durable-write offset a
    // statement can hit: heap-page eviction, B+-tree split allocation,
    // WAL append, WAL sync.
    let mut failures = 0;
    for budget in 0..40 {
        fault.fail_after_writes(budget);
        let attempt = db.execute(&format!("INSERT INTO t VALUES ({committed}, '{pad}')"));
        fault.heal();
        match attempt {
            Ok(_) => committed += 1,
            Err(_) => failures += 1,
        }
    }
    assert!(failures > 0, "fault injection never fired");
    let rows = db.engine().scan("t").unwrap();
    assert_eq!(rows.len(), committed as usize, "no stranded or lost rows");
    assert_heap_index_agree(&db, "t", &[0]);
    // Committed statements survive a crash on top of it all.
    db.crash();
    let db = Database::open_paged(&path, 8).unwrap();
    assert_eq!(db.engine().scan("t").unwrap().len(), committed as usize);
    assert_heap_index_agree(&db, "t", &[0]);
    cleanup(&path);
}

/// A power cut mid-checkpoint (some pages written back, log not yet
/// truncated) must not lose anything: the log replays over the
/// half-written file.
#[test]
fn power_cut_mid_checkpoint_recovers_everything() {
    let path = temp_db("ckpt");
    let fault = Fault::new();
    let mut db = Database::open_with_fault(&path, 16, fault.clone()).unwrap();
    db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
    db.execute("CREATE INDEX ON t (b)").unwrap();
    for i in 0..60 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    // Let a handful of page write-backs through, then cut the power.
    fault.fail_after_writes(3);
    assert!(db.checkpoint().is_err(), "checkpoint must hit the fault");
    db.crash();

    let db = Database::open_paged(&path, 16).unwrap();
    assert_eq!(db.engine().scan("t").unwrap().len(), 60);
    assert_heap_index_agree(&db, "t", &[1]);
    // A completed checkpoint afterwards leaves a self-contained file.
    db.checkpoint().unwrap();
    assert_eq!(std::fs::metadata(wal_path(&path)).unwrap().len(), 8);
    db.crash();
    let db = Database::open_paged(&path, 16).unwrap();
    assert_eq!(db.engine().scan("t").unwrap().len(), 60);
    cleanup(&path);
}

/// Satellite: constraints persisted in the system catalog are enforced
/// after a clean reopen — no DDL re-issued, both the flush path and the
/// crash path.
#[test]
fn constraints_survive_reopen_without_ddl() {
    for crash in [false, true] {
        let path = temp_db("constraints");
        {
            let mut db = Database::open_paged(&path, 16).unwrap();
            db.execute("CREATE TABLE dept (dno INT, fct TEXT, PRIMARY KEY (dno))")
                .unwrap();
            db.execute(
                "CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT, \
                 PRIMARY KEY (eno), \
                 CHECK (sal BETWEEN 10000 AND 90000), \
                 FOREIGN KEY (dno) REFERENCES dept (dno))",
            )
            .unwrap();
            db.execute("INSERT INTO dept VALUES (1, 'hq')").unwrap();
            db.execute("INSERT INTO empl VALUES (1, 'smiley', 50000, 1)")
                .unwrap();
            if crash {
                db.crash();
            } else {
                db.flush().unwrap();
            }
        }
        let mut db = Database::open_paged(&path, 16).unwrap();
        // One constraint of each kind, bootstrapped typed.
        assert_eq!(
            db.engine().table("empl").unwrap().constraints,
            [
                TableConstraint::Key {
                    columns: vec!["eno".into()]
                },
                TableConstraint::ValueBound {
                    column: "sal".into(),
                    lo: 10000,
                    hi: 90000
                },
                TableConstraint::ForeignKey {
                    columns: vec!["dno".into()],
                    parent_table: "dept".into(),
                    parent_columns: vec!["dno".into()]
                },
            ]
        );
        assert_constraints_still_enforced(&mut db);
        // And valid traffic still flows.
        db.execute("INSERT INTO empl VALUES (2, 'jones', 30000, 1)")
            .unwrap();
        assert_eq!(db.engine().scan("empl").unwrap().len(), 2, "crash={crash}");
        cleanup(&path);
    }
}

// ---------------------------------------------------------------------
// Steal: crashes between steal, commit, and recovery undo
// ---------------------------------------------------------------------

/// Tentpole acceptance: a transaction whose write set exceeds the
/// buffer pool steals pages (uncommitted bytes reach the database
/// file). A crash *before* COMMIT must recover the pre-transaction
/// state through the logged undo images; the same crash *after* COMMIT
/// must keep the whole rewrite (stolen pages were re-logged as redo at
/// commit).
#[test]
fn crash_between_steal_and_commit_rolls_stolen_pages_back() {
    for commit_first in [false, true] {
        let path = temp_db("steal");
        {
            let shared = server::SharedDatabase::open(&path, 8).unwrap();
            {
                let mut setup = shared.session();
                setup.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
                for stmt in wide_fill("t", 160, "o") {
                    setup.execute(&stmt).unwrap();
                }
            }
            let mut s = shared.session();
            s.execute("BEGIN").unwrap();
            let r = s
                .execute(&format!("UPDATE t SET pad = '{}'", "N".repeat(350)))
                .unwrap();
            assert_eq!(r.affected, 160, "~15 pages dirty under an 8-frame pool");
            if commit_first {
                s.execute("COMMIT").unwrap();
            }
            shared.crash().unwrap();
            drop(s);
        }
        let db = Database::open_paged(&path, 8).unwrap();
        let rows = db.engine().scan("t").unwrap();
        assert_eq!(rows.len(), 160, "commit_first={commit_first}");
        let want = if commit_first { 'N' } else { 'o' };
        assert!(
            rows.iter()
                .all(|r| r[1].as_text().unwrap().starts_with(want)),
            "commit_first={commit_first}: stolen writes must {} the crash",
            if commit_first {
                "survive"
            } else {
                "not survive"
            }
        );
        cleanup(&path);
    }
}

/// Crash mid-undo: the in-flight ROLLBACK of a stolen transaction hits
/// injected I/O failures while restoring pages, then the process dies.
/// The undo images are still in the log (checkpoints are refused while
/// a transaction is open), so recovery completes the rollback.
#[test]
fn crash_mid_rollback_of_stolen_transaction_recovers() {
    let path = temp_db("mid-undo");
    let fault = Fault::new();
    {
        let shared = server::SharedDatabase::from_database(
            Database::open_with_fault(&path, 8, fault.clone()).unwrap(),
        );
        {
            let mut setup = shared.session();
            setup.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
            for stmt in wide_fill("t", 160, "o") {
                setup.execute(&stmt).unwrap();
            }
        }
        let mut s = shared.session();
        s.execute("BEGIN").unwrap();
        s.execute(&format!("UPDATE t SET pad = '{}'", "Z".repeat(350)))
            .unwrap();
        // The rollback's page restores run against a dying disk: some
        // land, the rest fail (best-effort). Then the power goes out.
        fault.fail_after_writes(2);
        let _ = s.execute("ROLLBACK");
        fault.heal();
        shared.crash().unwrap();
        drop(s);
    }
    let db = Database::open_paged(&path, 8).unwrap();
    let rows = db.engine().scan("t").unwrap();
    assert_eq!(rows.len(), 160);
    assert!(
        rows.iter()
            .all(|r| r[1].as_text().unwrap().starts_with('o')),
        "recovery must finish the interrupted rollback"
    );
    cleanup(&path);
}

// ---------------------------------------------------------------------
// Interleaved multi-transaction logs
// ---------------------------------------------------------------------

/// Builds a WAL by hand with frames of several transactions interleaved
/// (as an external or future producer might write them), then asserts
/// the replay oracle: committed transactions replay in LSN order,
/// uncommitted and aborted ones are discarded — regardless of how their
/// frames interleave.
#[test]
fn interleaved_multi_txn_logs_replay_only_committed_transactions() {
    use storage::page::{Page, PageKind, PAGE_SIZE};
    use storage::wal::WalRecord;
    use storage::Wal;

    fn image(fill: u8) -> Box<[u8; PAGE_SIZE]> {
        let mut p = Page::zeroed();
        p.init(PageKind::Heap);
        p.push_record(&[fill; 8]).unwrap();
        Box::new(*p.as_bytes())
    }

    // Scenario matrix: (log script, expected replayed txn ids).
    // U(t, page, fill) = update; B/C/A = begin/commit/abort.
    type Script = Vec<WalRecord>;
    let scenarios: Vec<(Script, Vec<u64>, &str)> = vec![
        (
            // Two txns fully interleaved; only txn 2 commits.
            vec![
                WalRecord::Begin { txn: 1 },
                WalRecord::Begin { txn: 2 },
                WalRecord::Update {
                    txn: 1,
                    page: 0,
                    image: image(0x11),
                },
                WalRecord::Update {
                    txn: 2,
                    page: 1,
                    image: image(0x22),
                },
                WalRecord::Update {
                    txn: 1,
                    page: 2,
                    image: image(0x13),
                },
                WalRecord::Commit { txn: 2 },
            ],
            vec![2],
            "interleaved, one in-flight",
        ),
        (
            // Commit then a later txn aborts; a third commits after.
            vec![
                WalRecord::Begin { txn: 1 },
                WalRecord::Update {
                    txn: 1,
                    page: 0,
                    image: image(0x31),
                },
                WalRecord::Begin { txn: 2 },
                WalRecord::Commit { txn: 1 },
                WalRecord::Update {
                    txn: 2,
                    page: 1,
                    image: image(0x32),
                },
                WalRecord::Abort { txn: 2 },
                WalRecord::Begin { txn: 3 },
                WalRecord::Update {
                    txn: 3,
                    page: 1,
                    image: image(0x33),
                },
                WalRecord::Commit { txn: 3 },
            ],
            vec![1, 3],
            "commit, abort, commit",
        ),
        (
            // Same page written by an aborted and a committed txn: the
            // committed image must land, the aborted one must not.
            vec![
                WalRecord::Begin { txn: 1 },
                WalRecord::Begin { txn: 2 },
                WalRecord::Update {
                    txn: 1,
                    page: 0,
                    image: image(0x41),
                },
                WalRecord::Update {
                    txn: 2,
                    page: 0,
                    image: image(0x42),
                },
                WalRecord::Abort { txn: 1 },
                WalRecord::Commit { txn: 2 },
            ],
            vec![2],
            "aborted and committed touch the same page",
        ),
    ];

    for (script, expect_replayed, label) in scenarios {
        let mut wal = Wal::in_memory();
        for record in &script {
            wal.append(record).unwrap();
        }
        wal.sync().unwrap();
        let mut pager = storage::pager::Pager::in_memory();
        let report = wal.recover(&mut pager).unwrap();
        assert_eq!(
            report.txns_replayed,
            expect_replayed.len() as u64,
            "{label}: wrong replay count: {report:?}"
        );
        // Every committed update landed; page 0 of the third scenario
        // must hold the committed fill, not the aborted one.
        if label.starts_with("aborted and committed") {
            let mut out = Page::zeroed();
            pager.read(0, &mut out).unwrap();
            assert_eq!(out.record(0), [0x42; 8], "{label}");
        }
    }
}

/// End-to-end: sessions A and B interleave statements through the
/// shared server; A commits, B is still open at the crash. Recovery
/// keeps exactly A's rows — the engine-level version of the
/// hand-written log scenarios above.
#[test]
fn server_sessions_interleave_and_recover_committed_prefix() {
    let path = temp_db("sessions");
    {
        let shared = server::SharedDatabase::open(&path, 32).unwrap();
        {
            let mut setup = shared.session();
            setup.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
            setup.execute("CREATE INDEX ON t (a)").unwrap();
            setup.execute("CREATE TABLE u (k INT)").unwrap();
        }
        let mut a = shared.session();
        let mut b = shared.session();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        for i in 0..10 {
            a.execute(&format!("INSERT INTO t VALUES ({i}, 'a{i}')"))
                .unwrap();
            b.execute(&format!("INSERT INTO u VALUES ({i})")).unwrap();
        }
        a.execute("COMMIT").unwrap();
        shared.crash().unwrap();
        drop((a, b));
    }
    let db = Database::open_paged(&path, 32).unwrap();
    assert_eq!(db.engine().scan("t").unwrap().len(), 10, "A committed");
    assert_eq!(db.engine().scan("u").unwrap().len(), 0, "B in flight");
    assert_heap_index_agree(&db, "t", &[0]);
    cleanup(&path);
}

// ---------------------------------------------------------------------
// Property: random workloads, random crash points
// ---------------------------------------------------------------------

/// One generated statement, rendered against the fixed three-table
/// schema (r, s, and u with a primary key).
fn op_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => (0i64..30, 0i64..6, "[a-z]{1,6}").prop_map(|(a, b, c)| format!(
            "INSERT INTO r VALUES ({a}, {b}, '{c}')"
        )),
        3 => (0i64..6, "[a-z]{1,4}").prop_map(|(b, d)| format!(
            "INSERT INTO s VALUES ({b}, '{d}')"
        )),
        2 => (0i64..10).prop_map(|k| format!("INSERT INTO u VALUES ({k})")),
        1 => Just("CREATE INDEX ON r (b)".to_string()),
        1 => Just("CREATE INDEX ON s (b)".to_string()),
        1 => Just("DELETE FROM s".to_string()),
        1 => Just("DELETE FROM r".to_string()),
        // Predicated DML (indexed when the CREATE INDEX ops fired
        // earlier in the sequence, full-scan otherwise):
        2 => (0i64..6, 0i64..6).prop_map(|(b, b2)| format!(
            "UPDATE r SET b = {b2} WHERE b = {b}"
        )),
        2 => (0i64..30, "[a-z]{1,4}").prop_map(|(a, c)| format!(
            "UPDATE r SET c = '{c}', a = a + 1 WHERE a >= {a}"
        )),
        1 => (0i64..6, "[a-z]{1,4}").prop_map(|(b, d)| format!(
            "UPDATE s SET d = '{d}' WHERE b <= {b}"
        )),
        // Key rewrites on u may collide — the crashed run and the model
        // must then agree on the ConstraintViolation.
        1 => (0i64..10, 0i64..10).prop_map(|(k, k2)| format!(
            "UPDATE u SET k = {k2} WHERE k = {k}"
        )),
        2 => (0i64..30,).prop_map(|(a,)| format!("DELETE FROM r WHERE a > {a}")),
        1 => (0i64..6, 0i64..6).prop_map(|(b, b2)| format!(
            "DELETE FROM s WHERE b >= {b} AND b < {b2}"
        )),
        1 => (0i64..10,).prop_map(|(k,)| format!("DELETE FROM u WHERE k = {k}")),
        // The wide table: padded multi-row inserts grow it past a small
        // pool fast, and the whole-table rewrite then steals at every
        // random crash point.
        3 => (0i64..50, "[a-z]").prop_map(|(k, c)| {
            let rows: Vec<String> = (k..k + 15)
                .map(|i| format!("({i}, '{}')", c.repeat(700)))
                .collect();
            format!("INSERT INTO w VALUES {}", rows.join(", "))
        }),
        2 => "[a-z]".prop_map(|c| format!("UPDATE w SET pad = '{}'", c.repeat(690))),
        1 => (0i64..50,).prop_map(|(k,)| format!("DELETE FROM w WHERE k < {k}")),
        1 => Just("DELETE FROM w".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random statement sequences with a random crash point: the
    /// recovered database equals the committed prefix replayed on the
    /// model, statement for statement (errors included —
    /// e.g. duplicate-key inserts into `u` must fail on both).
    #[test]
    fn random_workloads_recover_committed_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..48),
        crash_at in 0usize..48,
    ) {
        let setup = [
            "CREATE TABLE r (a INT, b INT, c TEXT)",
            "CREATE TABLE s (b INT, d TEXT)",
            "CREATE TABLE u (k INT, PRIMARY KEY (k))",
            "CREATE TABLE w (k INT, pad TEXT)",
        ];
        let crash_at = crash_at.min(ops.len());
        let path = temp_db("prop");
        let mut db = Database::open_paged(&path, pool_frames(12)).unwrap();
        let mut model = Database::new();
        for stmt in setup.iter().map(|s| s.to_string()).chain(ops[..crash_at].iter().cloned()) {
            let a = db.execute(&stmt);
            let b = model.execute(&stmt);
            prop_assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "the crashed run and the model disagreed on {}: {:?} vs {:?}",
                stmt, a.err().map(|e| e.to_string()), b.err().map(|e| e.to_string())
            );
            if let (Ok(ra), Ok(rb)) = (a, b) {
                prop_assert_eq!(ra.affected, rb.affected, "affected diverged on {}", stmt);
            }
        }
        db.crash();
        let recovered = Database::open_paged(&path, pool_frames(12)).unwrap();
        prop_assert_eq!(full_state(&recovered), full_state(&model));
        assert_heap_index_agree(&recovered, "r", &[0, 1, 2]);
        assert_heap_index_agree(&recovered, "s", &[0, 1]);
        // The key constraint on u still bites after recovery.
        let mut recovered = recovered;
        if let Some(row) = recovered.engine().scan("u").unwrap().first().cloned() {
            let Datum::Int(k) = row[0] else { panic!("u.k is INT") };
            prop_assert!(
                recovered.execute(&format!("INSERT INTO u VALUES ({k})")).is_err(),
                "duplicate key must still be rejected after recovery"
            );
        }
        cleanup(&path);
    }
}
