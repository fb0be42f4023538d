//! Concurrency suite for the shared-database server.
//!
//! N session threads (`RQS_CONCURRENCY_THREADS`, default 4, min 2)
//! hammer one database through `server::SharedDatabase`:
//!
//! * disjoint and overlapping tables under autocommit;
//! * the isolation guarantees the one regime (snapshot reads,
//!   first-updater-wins on rows, constraint-probe reads) makes — no lost update for
//!   single-statement read-modify-write, no false constraint verdict,
//!   stable snapshots (through heap scans and index reads alike, each
//!   indexed answer checked against the same predicate forced through
//!   a filtered scan) — and the one the optimizer depends on: a foreign
//!   key never dangles, however parent deletes race child inserts;
//! * row-granular write conflicts themselves: disjoint-row writers of
//!   one table commit concurrently with zero conflicts (however many
//!   rows one of them writes), same-row writers collide retryably, and
//!   a collision in the middle of a multi-row statement leaves nothing
//!   of it behind;
//! * whole-table writes: a truncation or DDL beside an open writer is
//!   refused retryably and changes nothing, and a pending truncation
//!   refuses every other writer of its table until it ends;
//! * crash-during-concurrent-commit: two in-flight transactions,
//!   exactly the committed one survives recovery, with and without the
//!   fault-injecting pager from the PR 2 harness;
//! * the TCP protocol under concurrent clients.
//!
//! Every scenario ends with a consistency sweep: heap scans and index
//! lookups must agree, and on reopen the recovered state must match
//! what committed.

use rqs::value::Tuple;
use rqs::{access, AccessPath, Database, Datum};
use server::net::{Client, Server};
use server::{ServerError, SharedDatabase};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use storage::engine::wal_path;
use storage::Fault;

static NEXT_DB: AtomicUsize = AtomicUsize::new(0);

fn thread_count() -> usize {
    std::env::var("RQS_CONCURRENCY_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
        .max(2)
}

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rqs-conc-{}", std::process::id()));
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

/// A shared paged database with a pool large enough for N sessions'
/// write sets.
fn shared(pool_pages: usize) -> SharedDatabase {
    SharedDatabase::from_database(Database::paged(pool_pages).unwrap())
}

/// Retries a statement while it loses write-conflict races.
fn retry<T>(mut f: impl FnMut() -> Result<T, ServerError>) -> T {
    for _ in 0..10_000 {
        match f() {
            Ok(v) => return v,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_micros(500)),
            Err(e) => panic!("non-retryable error: {e}"),
        }
    }
    panic!("statement kept conflicting after 10k retries");
}

/// Heap and index agreement for one column (same oracle the crash
/// suite uses).
fn assert_heap_index_agree(db: &SharedDatabase, table: &str, col: usize) {
    db.with_db(|db| {
        let rows = db.engine().scan(table).unwrap();
        if !db.engine().has_index(table, col) {
            return;
        }
        for row in &rows {
            let mut hits = 0;
            let key = AccessPath::KeyEq(col, row[col].clone());
            access::read(db.engine(), table, &key, &mut |_, _| {
                hits += 1;
                true
            })
            .unwrap();
            let expect = rows.iter().filter(|r| r[col] == row[col]).count();
            assert_eq!(hits, expect, "{table}.{col} postings disagree");
        }
    })
    .unwrap();
}

#[test]
fn paged_backend_and_server_handles_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Database>();
    assert_send::<SharedDatabase>();
    assert_send::<server::ServerSession>();
}

#[test]
fn n_threads_on_disjoint_tables() {
    let db = shared(64);
    let n = thread_count();
    let rows_per_table = 120;
    std::thread::scope(|scope| {
        for t in 0..n {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                retry(|| s.execute(&format!("CREATE TABLE t{t} (a INT, b TEXT)")));
                for i in 0..rows_per_table {
                    retry(|| s.execute(&format!("INSERT INTO t{t} VALUES ({i}, 'v{i}')")));
                }
                let r = retry(|| s.execute(&format!("SELECT v.a FROM t{t} v")));
                assert_eq!(r.rows.len(), rows_per_table);
            });
        }
    });
    let mut check = db.session();
    for t in 0..n {
        let r = check.execute(&format!("SELECT v.a FROM t{t} v")).unwrap();
        assert_eq!(r.rows.len(), rows_per_table, "table t{t}");
    }
}

#[test]
fn n_threads_overlapping_one_table_with_index() {
    let db = shared(64);
    let n = thread_count();
    let per_thread = 100;
    {
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        s.execute("CREATE INDEX ON t (a)").unwrap();
    }
    std::thread::scope(|scope| {
        for t in 0..n {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for i in 0..per_thread {
                    let key = t * per_thread + i;
                    retry(|| s.execute(&format!("INSERT INTO t VALUES ({key}, 'w{t}')")));
                }
            });
        }
    });
    let mut s = db.session();
    let r = s.execute("SELECT v.a FROM t v").unwrap();
    assert_eq!(r.rows.len(), n * per_thread);
    let keys: BTreeSet<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(keys.len(), n * per_thread, "no row lost or duplicated");
    assert_heap_index_agree(&db, "t", 0);
}

/// The hot-row probe: all sessions increment one row, retrying through
/// [`retry`] as any client does. A holder transaction keeps that row
/// pending until first-updater-wins has turned away at least one attempt
/// per session, so the retry path is certain to run; no increment may be
/// lost, and `STATS` counts every attempt the session made.
#[test]
fn hot_row_retries_lose_no_increment() {
    let db = shared(64);
    db.session()
        .execute("CREATE TABLE hot (k INT, a INT)")
        .unwrap();
    db.session()
        .execute("INSERT INTO hot VALUES (0, 0)")
        .unwrap();
    let n = thread_count();
    let per_thread = 50u64;
    let before = db.metrics().unwrap();
    let mut holder = db.session();
    holder.execute("BEGIN").unwrap();
    holder
        .execute("UPDATE hot SET a = a + 1 WHERE k = 0")
        .unwrap();
    let total_retries = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n {
            let db = db.clone();
            let total_retries = &total_retries;
            scope.spawn(move || {
                let mut s = db.session();
                let mut attempts = 0u64;
                for _ in 0..per_thread {
                    retry(|| {
                        attempts += 1;
                        s.execute("UPDATE hot SET a = a + 1 WHERE k = 0")
                    });
                }
                // Each attempt was its own execute() call, and STATS
                // counts itself.
                let rows = s.execute("STATS").unwrap().rows;
                let statements = rows
                    .iter()
                    .find(|r| r[0] == Datum::text("session_statements"))
                    .expect("no session_statements row")[1]
                    .as_int()
                    .unwrap() as u64;
                assert_eq!(statements, attempts + 1);
                assert_eq!(s.session_stats().statements, attempts + 1);
                total_retries.fetch_add(attempts - per_thread, Ordering::Relaxed);
            });
        }
        // Release the row only once it has provably been contended.
        while db.metrics().unwrap().row_lock_conflicts < before.row_lock_conflicts + n as u64 {
            std::thread::yield_now();
        }
        holder.execute("COMMIT").unwrap();
    });
    let r = db.session().execute("SELECT v.a FROM hot v").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Datum::Int(1 + (n as u64 * per_thread) as i64)]],
        "no increment lost"
    );
    assert!(
        total_retries.load(Ordering::Relaxed) >= n as u64,
        "every row conflict was retried"
    );
}

/// The textbook lost-update probe, now phrased as the textbook
/// statement: every transaction runs `UPDATE counter SET v = v + 1`
/// under an explicit transaction. Serializable execution means the
/// final counter equals the number of committed increments exactly; a
/// lost update would leave it short.
///
/// MVCC weakens *reads*, never the write protocol. The UPDATE's
/// candidate scan and the engine's first-updater-wins check happen
/// under one statement-latch hold, so
/// read-modify-write in one statement stays exact even though SELECTs
/// do not lock. (Read-then-write across *statements* is not protected:
/// snapshot isolation admits write skew, and the server documents
/// single-statement read-modify-write as the remedy.)
#[test]
fn lost_update_probe_with_update_statement() {
    let db = shared(64);
    let n = thread_count();
    let per_thread = 8;
    db.session()
        .execute("CREATE TABLE counter (v INT)")
        .unwrap();
    db.session()
        .execute("INSERT INTO counter VALUES (0)")
        .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..n {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for _ in 0..per_thread {
                    retry(|| {
                        s.execute("BEGIN")?;
                        // An error here has already rolled the
                        // transaction back; retry restarts at BEGIN.
                        let r = s.execute("UPDATE counter SET v = v + 1")?;
                        assert_eq!(r.affected, 1);
                        s.execute("COMMIT")
                    });
                }
            });
        }
    });
    let r = db.session().execute("SELECT c.v FROM counter c").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Datum::Int((n * per_thread) as i64)]],
        "a lost update would leave the counter short"
    );
}

/// The guarantee the optimizer depends on (refint join elimination and
/// the FD chase assume it): a foreign key never dangles. Snapshot
/// isolation alone would not give it — T1 deletes a parent while T2
/// inserts its child, each on its own snapshot, is textbook write skew
/// — so DML runs its FK and restrict checks in probe mode, which reads
/// the latest committed state and conflicts retryably on the other
/// side's pending write to the probed key. Here pairs of sessions race exactly that, key
/// by key, under `BEGIN…COMMIT`: one deletes `dept k`, the other
/// inserts an `empl` row referencing `k`. Per key exactly one side may
/// win; whoever loses the *race* sees only retryable conflicts, and
/// whoever arrives after the winner committed gets the constraint
/// verdict. Afterwards every constraint holds over the stored data.
#[test]
fn foreign_key_never_dangles_under_racing_delete_and_insert() {
    let db = shared(64);
    let pairs = thread_count() / 2;
    let keys_per_pair = 12usize;
    {
        let mut setup = db.session();
        setup
            .execute("CREATE TABLE dept (dno INT, PRIMARY KEY (dno))")
            .unwrap();
        setup
            .execute(
                "CREATE TABLE empl (eno INT, dno INT, PRIMARY KEY (eno), \
                 FOREIGN KEY (dno) REFERENCES dept (dno))",
            )
            .unwrap();
        let rows: Vec<String> = (0..pairs * keys_per_pair)
            .map(|k| format!("({k})"))
            .collect();
        setup
            .execute(&format!("INSERT INTO dept VALUES {}", rows.join(", ")))
            .unwrap();
    }
    // Runs one transaction to its verdict: `true` = committed, `false`
    // = refused by the constraint (the other side already won).
    fn settle(s: &mut server::ServerSession, stmt: &str) -> bool {
        for _ in 0..10_000 {
            let outcome = (|| {
                s.execute("BEGIN")?;
                s.execute(stmt)?;
                s.execute("COMMIT")
            })();
            match outcome {
                Ok(_) => return true,
                Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_micros(200)),
                Err(ServerError::RolledBack(rqs::RqsError::ConstraintViolation(_))) => {
                    return false
                }
                Err(e) => panic!("a race loser must see a retryable error, got: {e}"),
            }
        }
        panic!("transaction kept conflicting after 10k retries");
    }
    std::thread::scope(|scope| {
        for pair in 0..pairs {
            let start = std::sync::Arc::new(std::sync::Barrier::new(2));
            for deleter in [true, false] {
                let (db, start) = (db.clone(), start.clone());
                scope.spawn(move || {
                    let mut s = db.session();
                    for i in 0..keys_per_pair {
                        let k = pair * keys_per_pair + i;
                        let stmt = if deleter {
                            format!("DELETE FROM dept WHERE dno = {k}")
                        } else {
                            format!("INSERT INTO empl VALUES ({k}, {k})")
                        };
                        start.wait();
                        settle(&mut s, &stmt);
                    }
                });
            }
        }
    });
    db.with_db(|db| db.validate_all())
        .unwrap()
        .expect("no dangling child may ever commit");
    let mut s = db.session();
    let keys = |sql: &str, s: &mut server::ServerSession| -> BTreeSet<i64> {
        let r = s.execute(sql).unwrap();
        r.rows.iter().map(|row| row[0].as_int().unwrap()).collect()
    };
    let parents = keys("SELECT d.dno FROM dept d", &mut s);
    let children = keys("SELECT e.dno FROM empl e", &mut s);
    for k in 0..(pairs * keys_per_pair) as i64 {
        assert!(
            parents.contains(&k) == children.contains(&k),
            "key {k}: exactly one of delete-parent / insert-child must win \
             (parent present: {}, child present: {})",
            parents.contains(&k),
            children.contains(&k)
        );
    }
}

/// The false-violation regression (the documented anomaly this PR
/// closes): a uniqueness probe must never convict against a row that
/// later rolls back. On the seed, session B's INSERT of a key that
/// session A had inserted *uncommitted* reported a non-retryable
/// duplicate-key violation; if A then rolled back, B had been refused
/// for a row that never existed. Under snapshot reads the probe runs in
/// constraint-probe mode: it sees A's pending stamp and surfaces a
/// *retryable* conflict instead of a verdict, and once A's insert is
/// gone the retry goes through.
#[test]
fn uniqueness_probe_never_convicts_against_a_row_that_rolls_back() {
    let db = shared(64);
    {
        let mut setup = db.session();
        setup
            .execute("CREATE TABLE reg (k INT, PRIMARY KEY (k))")
            .unwrap();
        setup.execute("INSERT INTO reg VALUES (1)").unwrap();
    }
    let mut a = db.session();
    let mut b = db.session();
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO reg VALUES (42)").unwrap();
    // B's probe cannot judge key 42 while A's insert is in flight:
    // retryable conflict, NOT a duplicate-key violation.
    let err = b.execute("INSERT INTO reg VALUES (42)").unwrap_err();
    assert!(
        err.is_retryable(),
        "probe against an uncommitted row must conflict retryably, got: {err}"
    );
    // A rolls back: key 42 never existed, so B's retry must succeed.
    a.execute("ROLLBACK").unwrap();
    retry(|| b.execute("INSERT INTO reg VALUES (42)"));
    let r = db.session().execute("SELECT v.k FROM reg v").unwrap();
    let keys: BTreeSet<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(keys, BTreeSet::from([1, 42]));
    // The probe still enforces uniqueness against *committed* rows:
    // a genuine duplicate stays a hard (non-retryable) violation.
    let err = b.execute("INSERT INTO reg VALUES (42)").unwrap_err();
    assert!(
        !err.is_retryable(),
        "committed duplicate must not retry: {err}"
    );
}

/// The stable-snapshot (torn-reader) probe: a reader's explicit
/// transaction pins one read view, so however many writers commit
/// under it, every SELECT it issues returns exactly the rows committed
/// when it began — not a moving count, not a torn prefix.
#[test]
fn long_reader_sees_one_stable_snapshot_while_writers_commit() {
    let db = shared(64);
    db.session()
        .execute("CREATE TABLE log (a INT, pad TEXT)")
        .unwrap();
    db.session().execute("CREATE INDEX ON log (a)").unwrap();
    db.session()
        .execute("INSERT INTO log VALUES (1, 'x'), (2, 'x'), (3, 'x')")
        .unwrap();
    // Filler rows (a = 0, below every probed key) spread the table over
    // several pages, so the point and range reads below are index reads
    // (a table no larger than one probe is scanned instead).
    let filler = 200;
    let pad = "f".repeat(100);
    let rows: Vec<String> = (0..filler).map(|_| format!("(0, '{pad}')")).collect();
    db.session()
        .execute(&format!("INSERT INTO log VALUES {}", rows.join(", ")))
        .unwrap();
    let before = db.metrics().unwrap();
    let mut reader = db.session();
    reader.execute("BEGIN").unwrap();
    // The same snapshot through the heap, an index point read and an
    // index range read: (all rows, rows with a = 1, rows with a >= 3).
    let counts = |reader: &mut server::ServerSession| {
        [
            "SELECT v.a FROM log v",
            "SELECT v.a FROM log v WHERE v.a = 1",
            "SELECT v.a FROM log v WHERE v.a >= 3",
        ]
        .map(|sql| reader.execute(sql).unwrap().rows.len())
    };
    assert_eq!(counts(&mut reader), [filler + 3, 1, 1]);
    let mut writer = db.session();
    for round in 0..5 {
        writer
            .execute(&format!("INSERT INTO log VALUES ({}, 'x')", 10 + round))
            .unwrap();
        writer.execute("UPDATE log SET a = a WHERE a = 1").unwrap();
        // Committed writes keep landing; the reader's view stays put.
        assert_eq!(
            counts(&mut reader),
            [filler + 3, 1, 1],
            "snapshot moved under an open transaction"
        );
    }
    let versioned = db.metrics().unwrap().versioned_index_reads;
    assert!(
        versioned >= before.versioned_index_reads + 10,
        "the indexed reads above went through the index, versioned"
    );
    reader.execute("COMMIT").unwrap();
    // A fresh statement gets a fresh snapshot: everything is visible.
    assert_eq!(counts(&mut reader), [filler + 8, 1, 6]);
}

/// `SELECT … WHERE <cond on k>` through the index on `k`, checked
/// against the same condition on the unindexed twin column (a filtered
/// heap scan by construction); returns the sorted `(k, v)` rows.
fn both_ways(s: &mut server::ServerSession, cond: &str) -> Vec<(i64, i64)> {
    let mut run = |col: &str| {
        let sql = format!(
            "SELECT a.k, a.v FROM acct a WHERE {}",
            cond.replace("$", &format!("a.{col}"))
        );
        let mut rows: Vec<(i64, i64)> = s
            .execute(&sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        rows.sort_unstable();
        rows
    };
    let (indexed, scanned) = (run("k"), run("twin"));
    assert_eq!(indexed, scanned, "index read vs filtered scan on `{cond}`");
    indexed
}

/// Every way a posting and the version a snapshot must see can
/// disagree, end to end: an old reader, the writers themselves and
/// fresh statements each ask indexed point and range questions while
/// inserts, re-keyings, deletes, relocations and a rollback land
/// around them. Each answer is checked against its expected rows and
/// against the same predicate forced through a filtered scan.
#[test]
fn indexed_reads_resolve_through_every_snapshot() {
    let db = shared(64);
    let mut setup = db.session();
    setup
        .execute("CREATE TABLE acct (k INT, twin INT, v INT, pad TEXT)")
        .unwrap();
    setup.execute("CREATE INDEX ON acct (k)").unwrap();
    // Pages packed tight enough that growing a pad relocates the row.
    let pad = "p".repeat(400);
    for k in 0..60 {
        setup
            .execute(&format!("INSERT INTO acct VALUES ({k}, {k}, 0, '{pad}')"))
            .unwrap();
    }
    let before = db.metrics().unwrap().versioned_index_reads;
    let mut old = db.session();
    old.execute("BEGIN").unwrap();
    assert_eq!(both_ways(&mut old, "$ = 10"), [(10, 0)]);

    // Committed after `old`'s snapshot: a non-key update, a re-keying
    // 20 -> 25 (a second row with that key), a delete, a relocation.
    let mut writer = db.session();
    writer
        .execute("UPDATE acct SET v = 1 WHERE k = 10")
        .unwrap();
    writer
        .execute("UPDATE acct SET k = 25, twin = 25, v = 2 WHERE k = 20")
        .unwrap();
    writer.execute("DELETE FROM acct WHERE k = 30").unwrap();
    let grown = "G".repeat(3000);
    writer
        .execute(&format!(
            "UPDATE acct SET pad = '{grown}', v = 3 WHERE k = 40"
        ))
        .unwrap();
    // Still in flight: another session's insert and update, skipped by
    // everyone else and seen by their owner.
    let mut pending = db.session();
    pending.execute("BEGIN").unwrap();
    pending
        .execute("INSERT INTO acct VALUES (100, 100, 7, 'x')")
        .unwrap();
    pending
        .execute("UPDATE acct SET v = 7 WHERE k = 11")
        .unwrap();
    assert_eq!(both_ways(&mut pending, "$ = 100"), [(100, 7)]);
    assert_eq!(both_ways(&mut pending, "$ = 11"), [(11, 7)]);
    let mut fresh = db.session();
    assert_eq!(both_ways(&mut fresh, "$ = 100"), []);
    assert_eq!(both_ways(&mut fresh, "$ = 11"), [(11, 0)]);
    assert_eq!(both_ways(&mut old, "$ >= 58"), [(58, 0), (59, 0)]);

    // The old snapshot still sees none of it…
    assert_eq!(both_ways(&mut old, "$ = 10"), [(10, 0)]);
    assert_eq!(both_ways(&mut old, "$ = 20"), [(20, 0)]);
    assert_eq!(both_ways(&mut old, "$ = 25"), [(25, 0)]);
    assert_eq!(both_ways(&mut old, "$ = 30"), [(30, 0)]);
    assert_eq!(both_ways(&mut old, "$ = 40"), [(40, 0)]);
    // …and a range straddling the re-keyed row yields it exactly once.
    assert_eq!(
        both_ways(&mut old, "$ >= 19 AND $ <= 26"),
        (19..=26).map(|k| (k, 0)).collect::<Vec<_>>()
    );
    assert_eq!(both_ways(&mut old, "$ >= 0").len(), 60);
    // A fresh snapshot sees all that committed.
    assert_eq!(both_ways(&mut fresh, "$ = 10"), [(10, 1)]);
    assert_eq!(both_ways(&mut fresh, "$ = 20"), []);
    assert_eq!(both_ways(&mut fresh, "$ = 25"), [(25, 0), (25, 2)]);
    assert_eq!(both_ways(&mut fresh, "$ = 30"), []);
    assert_eq!(both_ways(&mut fresh, "$ = 40"), [(40, 3)]);
    assert_eq!(
        both_ways(&mut fresh, "$ >= 19 AND $ <= 26"),
        [
            (19, 0),
            (21, 0),
            (22, 0),
            (23, 0),
            (24, 0),
            (25, 0),
            (25, 2),
            (26, 0)
        ]
    );
    assert_eq!(both_ways(&mut fresh, "$ >= 0").len(), 59);

    // Rollback: the pending insert and update leave no trace.
    pending.execute("ROLLBACK").unwrap();
    assert_eq!(both_ways(&mut fresh, "$ = 100"), []);
    assert_eq!(both_ways(&mut fresh, "$ = 11"), [(11, 0)]);
    assert_eq!(both_ways(&mut old, "$ = 11"), [(11, 0)]);
    old.execute("COMMIT").unwrap();
    assert!(
        db.metrics().unwrap().versioned_index_reads > before + 20,
        "the indexed halves above ran through the versioned index reader"
    );
    // Quiescent again: same answers off the bare tree.
    assert_eq!(both_ways(&mut old, "$ = 25"), [(25, 0), (25, 2)]);
    assert_heap_index_agree(&db, "acct", 0);
}

/// Constraint probes judge one key, so only writes that carry that key
/// can make them wait: with session A idle inside a transaction that
/// has updated row 1, B's insert of a fresh key goes straight through
/// (on the parent commit every insert into the table retried for as
/// long as A stayed open), while B's insert of key 1 — whose verdict
/// does hinge on A — conflicts retryably. And each statement beside
/// the open writer costs what it costs on a quiescent table: a tree
/// descent, not the table.
#[test]
fn constraint_probes_and_keyed_writes_stay_on_the_index_beside_a_writer() {
    let db = shared(64);
    let mut setup = db.session();
    setup
        .execute("CREATE TABLE t (k INT, v INT, pad TEXT, PRIMARY KEY (k))")
        .unwrap();
    setup.execute("CREATE INDEX ON t (k)").unwrap();
    let pad = "p".repeat(100);
    for chunk in 0..20 {
        let rows: Vec<String> = (chunk * 100..(chunk + 1) * 100)
            .map(|k| format!("({k}, 0, '{pad}')"))
            .collect();
        setup
            .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let fetches = |db: &SharedDatabase| {
        let m = db.metrics().unwrap();
        m.fault_ins + m.buffer_hits
    };
    let cost = |db: &SharedDatabase, s: &mut server::ServerSession, sql: &str| {
        let before = fetches(db);
        s.execute(sql).unwrap();
        fetches(db) - before
    };
    let mut a = db.session();
    let mut b = db.session();
    let table_pages = cost(&db, &mut b, "SELECT x.k FROM t x WHERE x.v = 1");
    // Quiescent costs: an insert (uniqueness probe included), a point
    // read, and the first keyed update of a transaction.
    let quiet_insert = cost(&db, &mut b, "INSERT INTO t VALUES (5000, 0, 'x')");
    let quiet_select = cost(&db, &mut b, "SELECT x.v FROM t x WHERE x.k = 1500");
    a.execute("BEGIN").unwrap();
    let first_update = cost(&db, &mut a, "UPDATE t SET v = v + 1 WHERE k = 1");
    // From here on `t` carries A's uncommitted version.
    let second_update = cost(&db, &mut a, "UPDATE t SET v = v + 1 WHERE k = 2");
    let busy_select = cost(&db, &mut b, "SELECT x.v FROM t x WHERE x.k = 1500");
    let busy_insert = cost(&db, &mut b, "INSERT INTO t VALUES (5001, 0, 'x')");
    for (what, busy, quiet) in [
        ("point SELECT", busy_select, quiet_select),
        (
            "keyed UPDATE in a writing transaction",
            second_update,
            first_update,
        ),
        ("INSERT with a uniqueness probe", busy_insert, quiet_insert),
    ] {
        assert!(
            busy <= quiet + 4 && busy * 4 < table_pages,
            "{what}: {busy} fetches beside a writer, {quiet} quiescent, \
             {table_pages} for a scan"
        );
    }
    // Key 1 is under A's pending write: no verdict, retry.
    let err = b.execute("INSERT INTO t VALUES (1, 9, 'x')").unwrap_err();
    assert!(err.is_retryable(), "got: {err}");
    a.execute("COMMIT").unwrap();
    // Now there is a verdict, and it is a hard one.
    let err = b.execute("INSERT INTO t VALUES (1, 9, 'x')").unwrap_err();
    assert!(!err.is_retryable(), "got: {err}");
    assert_heap_index_agree(&db, "t", 0);
}

/// Steal meets MVCC: one session's open transaction rewrites a table
/// far wider than the buffer pool, so its *uncommitted* pages are
/// stolen into the database file — while other sessions concurrently
/// read the same table. No reader may ever observe the uncommitted
/// rewrite: each rewritten row carries the writer's pending stamp, so
/// snapshot readers resolve it to its last committed version instead —
/// every concurrent SELECT now *succeeds* (no lock to die on) and
/// returns the original rows. After the writer aborts,
/// recovery-undo-grade rollback restores the heap for everyone.
#[test]
fn stolen_uncommitted_pages_are_never_read_by_other_sessions() {
    let db = shared(8); // tiny pool: the rewrite below must steal
    {
        let mut setup = db.session();
        setup.execute("CREATE TABLE t (k INT, pad TEXT)").unwrap();
        for chunk in 0..4 {
            let rows: Vec<String> = (chunk * 40..(chunk + 1) * 40)
                .map(|i| format!("({i}, '{}')", "o".repeat(350)))
                .collect();
            setup
                .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
        }
    }
    let mut writer = db.session();
    writer.execute("BEGIN").unwrap();
    let r = writer
        .execute(&format!("UPDATE t SET pad = '{}'", "S".repeat(350)))
        .unwrap();
    assert_eq!(r.affected, 160, "~15 dirty pages under an 8-frame pool");
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for _ in 0..40 {
                    // Lock-free snapshot reads: never an error, never a
                    // dirty row — the stolen uncommitted bytes resolve
                    // to their committed prior versions.
                    let r = s.execute("SELECT v.pad FROM t v").unwrap();
                    assert_eq!(r.rows.len(), 160);
                    assert!(
                        r.rows
                            .iter()
                            .all(|row| row[0].as_text().unwrap().starts_with('o')),
                        "dirty read of stolen uncommitted pages"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        // Hold the exclusive lock while the readers hammer, then abort:
        // the stolen pages roll back from their logged undo images.
        std::thread::sleep(Duration::from_millis(5));
        writer.execute("ROLLBACK").unwrap();
    });
    let r = db.session().execute("SELECT v.pad FROM t v").unwrap();
    assert_eq!(r.rows.len(), 160);
    assert!(r
        .rows
        .iter()
        .all(|row| row[0].as_text().unwrap().starts_with('o')));
}

/// The acceptance scenario: two in-flight transactions at the moment of
/// the crash; after recovery exactly the committed one survives.
#[test]
fn crash_with_two_inflight_transactions_keeps_exactly_the_committed_one() {
    let path = temp_db("two-inflight");
    {
        let db = SharedDatabase::open(&path, 32).unwrap();
        {
            let mut setup = db.session();
            setup.execute("CREATE TABLE ta (a INT)").unwrap();
            setup.execute("CREATE TABLE tb (b INT)").unwrap();
        }
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO ta VALUES (1)").unwrap();
        b.execute("BEGIN").unwrap();
        b.execute("INSERT INTO tb VALUES (2)").unwrap();
        b.execute("INSERT INTO tb VALUES (3)").unwrap();
        // B commits; A is still in flight when the power goes out.
        b.execute("COMMIT").unwrap();
        db.crash().unwrap();
        drop((a, b));
    }
    let recovered = Database::open_paged(&path, 32).unwrap();
    assert_eq!(
        recovered.engine().scan("ta").unwrap(),
        Vec::<Tuple>::new(),
        "uncommitted transaction must leave no trace"
    );
    let mut tb = recovered.engine().scan("tb").unwrap();
    tb.sort();
    assert_eq!(
        tb,
        vec![vec![Datum::Int(2)], vec![Datum::Int(3)]],
        "committed transaction must survive whole"
    );
    cleanup(&path);
}

/// Same shape under fault injection: one session's COMMIT hits an
/// injected sync failure (rolled back + physically rewound from the
/// log), the other committed cleanly before; recovery must keep
/// exactly the clean one — reusing the PR 2 fault-injecting pager.
#[test]
fn fault_injected_commit_failure_during_concurrent_sessions() {
    let path = temp_db("fault-commit");
    let fault = Fault::new();
    {
        let db = SharedDatabase::from_database(
            Database::open_with_fault(&path, 32, fault.clone()).unwrap(),
        );
        {
            let mut setup = db.session();
            setup.execute("CREATE TABLE ok (a INT)").unwrap();
            setup.execute("CREATE TABLE doomed (b INT)").unwrap();
        }
        let mut good = db.session();
        let mut bad = db.session();
        good.execute("BEGIN").unwrap();
        good.execute("INSERT INTO ok VALUES (1)").unwrap();
        bad.execute("BEGIN").unwrap();
        bad.execute("INSERT INTO doomed VALUES (9)").unwrap();
        good.execute("COMMIT").unwrap();
        // The doomed commit logs Begin + 1 image + Commit (3 appends)
        // and then fails its sync.
        fault.fail_after_writes(3);
        let err = bad.execute("COMMIT").unwrap_err();
        assert!(
            matches!(err, ServerError::RolledBack(_)),
            "failed commit must report rollback: {err}"
        );
        fault.heal();
        // The session keeps working after the failed transaction.
        let r = bad.execute("SELECT x.b FROM doomed x").unwrap();
        assert!(r.rows.is_empty());
        db.crash().unwrap();
    }
    let recovered = Database::open_paged(&path, 32).unwrap();
    assert_eq!(recovered.engine().scan("ok").unwrap().len(), 1);
    assert_eq!(
        recovered.engine().scan("doomed").unwrap(),
        Vec::<Tuple>::new(),
        "a failed commit must never resurrect"
    );
    cleanup(&path);
}

/// Mixed readers and writers on one table: readers never see a torn
/// row set (every SELECT returns a prefix of the committed inserts,
/// never a partially applied multi-row statement).
#[test]
fn readers_see_only_whole_statements() {
    let db = shared(64);
    let n = thread_count();
    db.session()
        .execute("CREATE TABLE t (a INT, b INT)")
        .unwrap();
    let writers = (n / 2).max(1);
    let readers = (n - writers).max(1);
    let batches = 40;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for i in 0..batches {
                    let base = (w * batches + i) * 3;
                    // Three rows per statement: all or nothing.
                    retry(|| {
                        s.execute(&format!(
                            "INSERT INTO t VALUES ({}, 0), ({}, 1), ({}, 2)",
                            base,
                            base + 1,
                            base + 2
                        ))
                    });
                }
            });
        }
        for _ in 0..readers {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for _ in 0..60 {
                    let r = retry(|| s.execute("SELECT v.a FROM t v"));
                    assert_eq!(
                        r.rows.len() % 3,
                        0,
                        "a partially applied statement became visible"
                    );
                }
            });
        }
    });
    let r = db.session().execute("SELECT v.a FROM t v").unwrap();
    assert_eq!(r.rows.len(), writers * batches * 3);
}

/// The tentpole scenario: two sessions increment *different* rows of
/// the same table inside overlapping explicit transactions, and both
/// commit — no retries. Under the old table-level
/// write locks the second `UPDATE` could not even start. The rows are
/// padded past half a page so each lives on its own page (concurrent
/// *open* transactions must not co-own a frame — the buffer pool's
/// ownership backstop is page-granular even though write conflicts
/// are row-granular).
#[test]
fn disjoint_row_writers_commit_concurrently_without_retries() {
    let db = shared(64);
    {
        let mut setup = db.session();
        setup
            .execute("CREATE TABLE acct (k INT, v INT, pad TEXT)")
            .unwrap();
        let pad = "p".repeat(2200);
        setup
            .execute(&format!(
                "INSERT INTO acct VALUES (1, 100, '{pad}'), (2, 200, '{pad}')"
            ))
            .unwrap();
    }
    let before = db.metrics().unwrap();
    let mut a = db.session();
    let mut b = db.session();
    // Every statement unwraps directly: any conflict fails the test.
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE acct SET v = v + 1 WHERE k = 1").unwrap();
    b.execute("BEGIN").unwrap();
    b.execute("UPDATE acct SET v = v + 1 WHERE k = 2").unwrap();
    // Both transactions hold a pending row version right now.
    a.execute("COMMIT").unwrap();
    b.execute("COMMIT").unwrap();
    let r = db.session().execute("SELECT x.k, x.v FROM acct x").unwrap();
    let mut rows: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
        .collect();
    rows.sort_unstable();
    assert_eq!(rows, vec![(1, 101), (2, 201)]);
    let after = db.metrics().unwrap();
    assert_eq!(
        after.row_lock_conflicts, before.row_lock_conflicts,
        "disjoint rows must never conflict"
    );
}

/// Same-row writers still collide: the second session's `UPDATE` of
/// the row the first one holds is refused retryably by
/// first-updater-wins — a row conflict, which never consults
/// transaction age — and succeeds once the holder commits.
#[test]
fn same_row_writers_conflict_first_updater_wins() {
    let db = shared(64);
    {
        let mut setup = db.session();
        setup
            .execute("CREATE TABLE acct (k INT, v INT, pad TEXT)")
            .unwrap();
        let pad = "p".repeat(2200);
        setup
            .execute(&format!(
                "INSERT INTO acct VALUES (1, 100, '{pad}'), (2, 200, '{pad}')"
            ))
            .unwrap();
    }
    let before = db.metrics().unwrap();
    let mut a = db.session();
    let mut b = db.session();
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE acct SET v = v + 1 WHERE k = 1").unwrap();
    b.execute("BEGIN").unwrap();
    let err = b
        .execute("UPDATE acct SET v = v + 10 WHERE k = 1")
        .unwrap_err();
    assert!(err.is_retryable(), "same-row conflict must retry: {err}");
    assert!(
        matches!(err, ServerError::RolledBack(_)),
        "the explicit transaction rolled back: {err}"
    );
    let after = db.metrics().unwrap();
    assert!(
        after.row_lock_conflicts > before.row_lock_conflicts,
        "the collision must be a row conflict, not a table one"
    );
    a.execute("COMMIT").unwrap();
    // The row is free now; the loser's retry goes through.
    retry(|| {
        b.execute("BEGIN")?;
        b.execute("UPDATE acct SET v = v + 10 WHERE k = 1")?;
        b.execute("COMMIT")
    });
    let r = db
        .session()
        .execute("SELECT x.v FROM acct x WHERE x.k = 1")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(111)]]);
}

/// `(k, page)` of every row of `table`, page taken from the row id.
fn row_pages(db: &SharedDatabase, table: &str) -> Vec<(i64, u64)> {
    db.with_db(|db| {
        let mut out = Vec::new();
        access::read(
            db.engine(),
            table,
            &AccessPath::FullScan,
            &mut |rid, row| {
                out.push((row[0].as_int().unwrap(), u64::from(rid.page)));
                true
            },
        )
        .unwrap();
        out
    })
    .unwrap()
}

/// However many rows an open transaction writes (65 here), a row it
/// did not write stays writable: write conflicts are per row, with
/// nothing that widens them to the table. The far row sits on a page
/// the wide UPDATE does not dirty, because the pool's ownership
/// backstop is per page.
#[test]
fn wide_update_leaves_a_disjoint_row_writable() {
    let db = shared(64);
    let n = 65;
    {
        let mut setup = db.session();
        setup
            .execute("CREATE TABLE t (k INT, v INT, pad TEXT)")
            .unwrap();
        let pad = "p".repeat(100);
        let rows: Vec<String> = (0..n).map(|i| format!("({i}, 0, '{pad}')")).collect();
        setup
            .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        // Too wide to share a page with any of the rows above.
        let far = "q".repeat(3950);
        setup
            .execute(&format!("INSERT INTO t VALUES (1000, 0, '{far}')"))
            .unwrap();
    }
    let pages = row_pages(&db, "t");
    let far_page = pages.iter().find(|&&(k, _)| k == 1000).unwrap().1;
    assert!(
        pages.iter().all(|&(k, page)| k == 1000 || page != far_page),
        "the far row must have a page of its own: {pages:?}"
    );
    let before = db.metrics().unwrap();
    let mut a = db.session();
    a.execute("BEGIN").unwrap();
    let r = a.execute("UPDATE t SET v = v + 1 WHERE k < 1000").unwrap();
    assert_eq!(r.affected, n);
    // A disjoint-row writer goes straight through: no retry.
    let mut b = db.session();
    let r = b.execute("UPDATE t SET v = v + 10 WHERE k = 1000").unwrap();
    assert_eq!(r.affected, 1);
    let after = db.metrics().unwrap();
    assert_eq!(after.row_lock_conflicts, before.row_lock_conflicts);
    a.execute("COMMIT").unwrap();
    let r = db.session().execute("SELECT x.k, x.v FROM t x").unwrap();
    for row in &r.rows {
        let expect = if row[0] == Datum::Int(1000) { 10 } else { 1 };
        assert_eq!(row[1], Datum::Int(expect), "{row:?}");
    }
    assert_eq!(r.rows.len(), n + 1);
}

/// `acct` with rows k = 1, 2, 3 (v = 100 k), each padded onto its own
/// page in heap order, and a session holding an open transaction that
/// has written row 2. A multi-row statement over every row writes row
/// 1 before it reaches row 2.
fn acct_with_middle_row_held(db: &SharedDatabase) -> server::ServerSession {
    let mut setup = db.session();
    setup
        .execute("CREATE TABLE acct (k INT, v INT, pad TEXT)")
        .unwrap();
    let pad = "p".repeat(2200);
    setup
        .execute(&format!(
            "INSERT INTO acct VALUES (1, 100, '{pad}'), (2, 200, '{pad}'), (3, 300, '{pad}')"
        ))
        .unwrap();
    let mut holder = db.session();
    holder.execute("BEGIN").unwrap();
    holder
        .execute("UPDATE acct SET v = v + 1 WHERE k = 2")
        .unwrap();
    holder
}

/// Committed `(k, v)` of `acct`, sorted by key.
fn acct_rows(db: &SharedDatabase) -> Vec<(i64, i64)> {
    let r = db.session().execute("SELECT x.k, x.v FROM acct x").unwrap();
    let mut rows: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
        .collect();
    rows.sort_unstable();
    rows
}

/// The multi-row statements of the mid-statement conflict tests, with
/// the committed rows each leaves once it goes through.
const MULTI_ROW: [(&str, &[(i64, i64)]); 2] = [
    (
        "UPDATE acct SET v = v + 10 WHERE k >= 1",
        &[(1, 110), (2, 211), (3, 310)],
    ),
    ("DELETE FROM acct WHERE k >= 1", &[]),
];

/// A write conflict surfaces per row, inside the engine, so a
/// multi-row autocommit statement can meet it after writing an earlier
/// row. The statement still fails as a whole: retryable, and every
/// matched row unchanged. Once the holder commits, the retry goes
/// through.
#[test]
fn mid_statement_conflict_in_autocommit_changes_no_row() {
    for (sql, done) in MULTI_ROW {
        let db = shared(64);
        let mut holder = acct_with_middle_row_held(&db);
        let before = db.metrics().unwrap();
        let mut s = db.session();
        let err = s.execute(sql).unwrap_err();
        assert!(err.is_retryable(), "{sql}: {err}");
        assert!(matches!(err, ServerError::Statement(_)), "{sql}: {err}");
        let after = db.metrics().unwrap();
        assert_eq!(
            after.versions_kept,
            before.versions_kept + 1,
            "{sql}: row 1 was written before row 2 refused"
        );
        assert_eq!(after.row_lock_conflicts, before.row_lock_conflicts + 1);
        assert_eq!(acct_rows(&db), vec![(1, 100), (2, 200), (3, 300)], "{sql}");
        holder.execute("COMMIT").unwrap();
        retry(|| s.execute(sql));
        assert_eq!(acct_rows(&db), done.to_vec(), "{sql}");
    }
}

/// The same conflict inside `BEGIN` rolls the whole transaction back —
/// the statement's earlier row and the transaction's earlier statement
/// alike — and says so with [`ServerError::RolledBack`]. After the
/// holder commits, the restarted transaction goes through.
#[test]
fn mid_statement_conflict_inside_begin_rolls_back_the_transaction() {
    for (sql, done) in MULTI_ROW {
        let db = shared(64);
        let mut holder = acct_with_middle_row_held(&db);
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO acct VALUES (4, 400, 'x')").unwrap();
        let before = db.metrics().unwrap();
        let err = s.execute(sql).unwrap_err();
        assert!(err.is_retryable(), "{sql}: {err}");
        assert!(matches!(err, ServerError::RolledBack(_)), "{sql}: {err}");
        assert_eq!(
            db.metrics().unwrap().versions_kept,
            before.versions_kept + 1,
            "{sql}: row 1 was written before row 2 refused"
        );
        assert!(
            s.execute("COMMIT").is_err(),
            "{sql}: no transaction may be left open"
        );
        assert_eq!(acct_rows(&db), vec![(1, 100), (2, 200), (3, 300)], "{sql}");
        holder.execute("COMMIT").unwrap();
        retry(|| {
            s.execute("BEGIN")?;
            s.execute("INSERT INTO acct VALUES (4, 400, 'x')")?;
            s.execute(sql)?;
            s.execute("COMMIT")
        });
        let mut expect = done.to_vec();
        if !expect.is_empty() {
            expect.push((4, 410));
        }
        assert_eq!(acct_rows(&db), expect, "{sql}");
    }
}

/// Whether `acct.v` is indexed, per the engine.
fn v_is_indexed(db: &SharedDatabase) -> bool {
    db.with_db(|db| db.engine().has_index("acct", 1)).unwrap()
}

/// Whole-table writes beside an open writer of the table: with a
/// pending `UPDATE`, `DELETE` or `INSERT` in another transaction, a
/// bare `DELETE` (truncation), `DROP TABLE` and `CREATE INDEX` are each
/// refused retryably, counted in `row_lock_conflicts`, and change
/// nothing. Once the writer commits, each goes through.
#[test]
fn whole_table_writes_beside_an_open_writer_are_refused_until_it_commits() {
    let pending: [(&str, &[(i64, i64)]); 3] = [
        (
            "UPDATE acct SET v = v + 1 WHERE k = 2",
            &[(1, 100), (2, 201), (3, 300)],
        ),
        ("DELETE FROM acct WHERE k = 2", &[(1, 100), (3, 300)]),
        (
            "INSERT INTO acct VALUES (4, 400)",
            &[(1, 100), (2, 200), (3, 300), (4, 400)],
        ),
    ];
    let whole_table = [
        "DELETE FROM acct",
        "DROP TABLE acct",
        "CREATE INDEX ON acct (v)",
    ];
    for (write, committed) in pending {
        let db = shared(64);
        {
            let mut setup = db.session();
            setup
                .execute("CREATE TABLE acct (k INT, v INT, PRIMARY KEY (k))")
                .unwrap();
            setup.execute("CREATE INDEX ON acct (k)").unwrap();
            setup
                .execute("INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300)")
                .unwrap();
        }
        let mut writer = db.session();
        writer.execute("BEGIN").unwrap();
        writer.execute(write).unwrap();
        let before = db.metrics().unwrap();
        let mut s = db.session();
        for sql in whole_table {
            let err = s.execute(sql).unwrap_err();
            assert!(err.is_retryable(), "{write} / {sql}: {err}");
            assert_eq!(acct_rows(&db), vec![(1, 100), (2, 200), (3, 300)], "{sql}");
        }
        let after = db.metrics().unwrap();
        assert_eq!(
            after.row_lock_conflicts,
            before.row_lock_conflicts + 3,
            "{write}"
        );
        assert!(
            !v_is_indexed(&db),
            "{write}: the refused index must not exist"
        );
        writer.execute("COMMIT").unwrap();
        assert_eq!(acct_rows(&db), committed.to_vec(), "{write}");
        assert_heap_index_agree(&db, "acct", 0);
        db.with_db(|db| db.validate_all()).unwrap().unwrap();

        s.execute("CREATE INDEX ON acct (v)").unwrap();
        assert!(v_is_indexed(&db), "{write}");
        assert_heap_index_agree(&db, "acct", 1);
        let r = s.execute("DELETE FROM acct").unwrap();
        assert_eq!(r.affected, committed.len(), "{write}");
        assert!(acct_rows(&db).is_empty(), "{write}");
        s.execute("DROP TABLE acct").unwrap();
        assert!(s.execute("SELECT x.k FROM acct x").is_err(), "{write}");
    }
}

/// A pending truncation stamps every row of its table, so another
/// session's `UPDATE` and `DELETE` of those rows are refused retryably
/// by first-updater-wins, and its `INSERT` by page ownership (the
/// emptied heap's head page belongs to the truncater). The truncation's
/// `ROLLBACK` then restores every row, heap and index alike.
#[test]
fn a_pending_truncation_refuses_other_writers_and_rolls_back_whole() {
    let db = shared(64);
    let pad = "p".repeat(100);
    let original: Vec<(i64, i64)> = (0..60).map(|k| (k, 10 * k)).collect();
    {
        let mut setup = db.session();
        setup
            .execute("CREATE TABLE acct (k INT, v INT, pad TEXT, PRIMARY KEY (k))")
            .unwrap();
        setup.execute("CREATE INDEX ON acct (k)").unwrap();
        let rows: Vec<String> = original
            .iter()
            .map(|(k, v)| format!("({k}, {v}, '{pad}')"))
            .collect();
        setup
            .execute(&format!("INSERT INTO acct VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let mut truncater = db.session();
    truncater.execute("BEGIN").unwrap();
    let r = truncater.execute("DELETE FROM acct").unwrap();
    assert_eq!(r.affected, original.len());
    let mut s = db.session();
    for sql in [
        format!("INSERT INTO acct VALUES (1000, 0, '{pad}')"),
        "UPDATE acct SET v = v + 1 WHERE k = 3".to_owned(),
        "DELETE FROM acct WHERE k = 4".to_owned(),
    ] {
        let err = s.execute(&sql).unwrap_err();
        assert!(err.is_retryable(), "{sql}: {err}");
        assert_eq!(acct_rows(&db), original, "{sql}");
    }
    truncater.execute("ROLLBACK").unwrap();
    assert_eq!(acct_rows(&db), original);
    assert_heap_index_agree(&db, "acct", 0);
    db.with_db(|db| db.validate_all()).unwrap().unwrap();
    // The table is writable again.
    s.execute(&format!("INSERT INTO acct VALUES (1000, 0, '{pad}')"))
        .unwrap();
    assert_heap_index_agree(&db, "acct", 0);
}

/// Rolling a truncation back restores the truncated table's own index
/// trees and nothing else: another table's index whose root moved while
/// the truncation was pending keeps its committed root. (A stale root
/// still answers reads through the leaf chain, so the divergence shows
/// only once a later insert lands under the stale root and the
/// database is reopened on the root the catalog persisted.)
#[test]
fn rolling_back_a_truncation_leaves_other_tables_indexes_alone() {
    let path = temp_db("truncate-roots");
    {
        let db = SharedDatabase::open(&path, 64).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        s.execute("CREATE TABLE u (k INT)").unwrap();
        s.execute("CREATE INDEX ON u (k)").unwrap();
        let mut truncater = db.session();
        truncater.execute("BEGIN").unwrap();
        truncater.execute("DELETE FROM t").unwrap();
        let splits_before = db.metrics().unwrap().btree_splits;
        for chunk in 0..10 {
            let rows: Vec<String> = (0..100).map(|i| format!("({})", chunk * 100 + i)).collect();
            s.execute(&format!("INSERT INTO u VALUES {}", rows.join(", ")))
                .unwrap();
        }
        assert!(
            db.metrics().unwrap().btree_splits > splits_before,
            "u's index must have split"
        );
        truncater.execute("ROLLBACK").unwrap();
        s.execute("INSERT INTO u VALUES (5000)").unwrap();
        assert_heap_index_agree(&db, "u", 0);
        assert_eq!(s.execute("SELECT x.a FROM t x").unwrap().rows.len(), 2);
    }
    let db = SharedDatabase::open(&path, 64).unwrap();
    assert_heap_index_agree(&db, "u", 0);
    drop(db);
    cleanup(&path);
}

/// N autocommit writers, each hammering its own row of one shared
/// table: with row-granular write conflicts nothing ever conflicts — no
/// row conflicts, no retries (every execute
/// unwraps). This is the "hot table, disjoint rows" workload the old
/// table-level write locks fully serialized with thousands of aborts
/// (`hot_row_retries_lose_no_increment` is the same-row counterpart).
#[test]
fn disjoint_row_autocommit_writers_never_conflict() {
    let db = shared(64);
    let n = thread_count();
    let per_thread = 25;
    {
        let mut setup = db.session();
        setup.execute("CREATE TABLE hot (k INT, v INT)").unwrap();
        let rows: Vec<String> = (0..n).map(|t| format!("({t}, 0)")).collect();
        setup
            .execute(&format!("INSERT INTO hot VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let before = db.metrics().unwrap();
    std::thread::scope(|scope| {
        for t in 0..n {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session();
                for _ in 0..per_thread {
                    // Autocommit statements commit inside the statement
                    // latch, so even same-page rows never trip the
                    // pool's ownership backstop — and disjoint rows
                    // never trip first-updater-wins. Direct unwrap.
                    let r = s
                        .execute(&format!("UPDATE hot SET v = v + 1 WHERE k = {t}"))
                        .unwrap();
                    assert_eq!(r.affected, 1);
                }
            });
        }
    });
    let r = db.session().execute("SELECT x.v FROM hot x").unwrap();
    assert_eq!(r.rows.len(), n);
    assert!(
        r.rows
            .iter()
            .all(|row| row[0].as_int().unwrap() == per_thread as i64),
        "every increment must have landed: {:?}",
        r.rows
    );
    let after = db.metrics().unwrap();
    assert_eq!(
        after.row_lock_conflicts, before.row_lock_conflicts,
        "disjoint-row writers must never conflict on a row"
    );
}

#[test]
fn tcp_clients_hammer_concurrently() {
    let db = shared(64);
    let Ok(server) = Server::start(db.clone(), "127.0.0.1:0") else {
        eprintln!("skipping: cannot bind a TCP socket in this environment");
        return;
    };
    let addr = server.addr();
    {
        let mut c = Client::connect(addr).unwrap();
        c.execute("CREATE TABLE t (a INT, b TEXT)")
            .unwrap()
            .unwrap();
    }
    let n = thread_count();
    let per_client = 50;
    std::thread::scope(|scope| {
        for t in 0..n {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..per_client {
                    let key = t * per_client + i;
                    loop {
                        match c
                            .execute(&format!("INSERT INTO t VALUES ({key}, 'c{t}')"))
                            .unwrap()
                        {
                            Ok(_) => break,
                            Err(msg) => {
                                assert!(msg.contains("conflict"), "unexpected server error: {msg}");
                                std::thread::sleep(Duration::from_micros(500));
                            }
                        }
                    }
                }
            });
        }
    });
    let mut c = Client::connect(addr).unwrap();
    let r = c.execute("SELECT v.a FROM t v").unwrap().unwrap();
    assert_eq!(r.rows.len(), n * per_client);
    server.stop();
}

/// Latch-crabbing probe at the storage layer: a writer splits leaves
/// (and the root) while readers descend the same tree. The server's
/// statement latch never lets SQL readers see a mid-split tree, so
/// this drives the B+-tree directly: readers open their own handle on
/// the last published root and must find every pre-existing key by
/// point lookup and by a full leaf-chain walk, no matter where the
/// writer is in a split.
#[test]
fn btree_readers_traverse_a_consistent_tree_mid_split() {
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use storage::btree::BPlusTree;
    use storage::heap::Rid;

    let pool = storage::BufferPool::new(
        storage::pager::Pager::in_memory(),
        64,
        storage::wal::Wal::in_memory(),
    );
    let mut tree = BPlusTree::create(&pool).unwrap();
    let rid = |k: i64| Rid {
        page: k as u32,
        slot: (k % 100) as u16,
    };
    let preloaded = 400i64;
    for k in 0..preloaded {
        tree.insert(&pool, &Datum::Int(k), rid(k)).unwrap();
    }
    let root = AtomicU32::new(tree.root);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (pool, root, done) = (&pool, &root, &done);
        scope.spawn(move || {
            // Writer: appends force steady leaf splits on the rightmost
            // edge, plus root splits as the tree deepens.
            let mut tree = tree;
            for k in preloaded..preloaded + 4000 {
                tree.insert(pool, &Datum::Int(k), rid(k)).unwrap();
                root.store(tree.root, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        for t in 0..2i64 {
            scope.spawn(move || {
                let mut rounds = 0u32;
                while !done.load(Ordering::Acquire) || rounds == 0 {
                    rounds += 1;
                    let snapshot = BPlusTree::open(root.load(Ordering::Acquire));
                    // Every pre-existing key must resolve by descent.
                    for k in (t..preloaded).step_by(29) {
                        let hits = snapshot.lookup(pool, &Datum::Int(k)).unwrap();
                        assert_eq!(hits, vec![rid(k)], "key {k} lost mid-split");
                    }
                    // And the leaf chain must be consistent end to end:
                    // a range walk over the pre-existing prefix sees
                    // each key exactly once.
                    let rids = snapshot
                        .range(
                            pool,
                            std::ops::Bound::Unbounded,
                            std::ops::Bound::Included(&Datum::Int(preloaded - 1)),
                        )
                        .unwrap();
                    assert_eq!(
                        rids.len(),
                        preloaded as usize,
                        "leaf-chain walk missed or duplicated keys mid-split"
                    );
                    let unique: BTreeSet<_> = rids.iter().copied().collect();
                    assert_eq!(unique.len(), rids.len(), "duplicate rids in chain walk");
                }
            });
        }
    });
}

/// The statement-latch headline, proven with timestamps instead of
/// throughput: one session runs a slow snapshot SELECT (a self-join)
/// while another completes quick snapshot SELECTs strictly inside the
/// slow statement's wall-clock window. Under the retired statement
/// mutex the quick reader queued behind the join and zero nested
/// completions were possible; on the latch's read side they overlap.
#[test]
fn two_snapshot_selects_overlap_in_time() {
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    let db = shared(64);
    {
        let mut s = db.session();
        s.execute("CREATE TABLE ovl (k INT, v INT)").unwrap();
        for chunk in 0..10i64 {
            let rows: Vec<String> = (0..100)
                .map(|i| {
                    let k = chunk * 100 + i;
                    format!("({k}, {})", k % 13)
                })
                .collect();
            s.execute(&format!("INSERT INTO ovl VALUES {}", rows.join(", ")))
                .unwrap();
        }
    }
    // Scheduling can always delay one thread; retry a few times and
    // require one clean demonstration of overlap.
    for attempt in 0..5 {
        let barrier = std::sync::Barrier::new(2);
        let t0 = Instant::now();
        let slow_done = AtomicBool::new(false);
        let (slow_window, nested) = std::thread::scope(|scope| {
            let (barrier, slow_done, db) = (&barrier, &slow_done, &db);
            let slow = scope.spawn(move || {
                let mut s = db.session();
                barrier.wait();
                let started = t0.elapsed();
                let r = s
                    .execute("SELECT a.k FROM ovl a, ovl b WHERE a.v = b.v")
                    .unwrap();
                let ended = t0.elapsed();
                slow_done.store(true, Ordering::Release);
                assert!(!r.rows.is_empty());
                (started, ended)
            });
            let fast = scope.spawn(move || {
                let mut s = db.session();
                barrier.wait();
                let mut windows = Vec::new();
                while !slow_done.load(Ordering::Acquire) {
                    let started = t0.elapsed();
                    let r = s.execute("SELECT a.v FROM ovl a WHERE a.k = 123").unwrap();
                    assert_eq!(r.rows.len(), 1);
                    windows.push((started, t0.elapsed()));
                }
                windows
            });
            (slow.join().unwrap(), fast.join().unwrap())
        });
        let strictly_inside = nested
            .iter()
            .filter(|(s, e)| *s > slow_window.0 && *e < slow_window.1)
            .count();
        if strictly_inside >= 1 {
            return; // overlap demonstrated with timestamps
        }
        eprintln!(
            "attempt {attempt}: slow window {slow_window:?}, \
             {} fast statements, none strictly inside — retrying",
            nested.len()
        );
    }
    panic!("snapshot SELECTs never overlapped: reads are serializing");
}
