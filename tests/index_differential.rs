//! Index equivalence: an index changes what a statement costs, never
//! what it answers. Every statement runs on two databases on the paged
//! engine, one with the workload's indexes and one without
//! (`CREATE INDEX` is withheld from it), so every index read the first
//! makes — point and range reads, probe joins, the candidate reads of
//! UPDATE and DELETE, versioned reads beside a parked writer — is
//! checked against a plain scan.
//!
//! Three layers of evidence:
//!
//! 1. a fixed corpus replaying the statement shapes of
//!    `tests/rqs_reference.rs` (restrictions with every comparison
//!    operator, equijoins, theta joins, DISTINCT, UNION, `[NOT] IN`
//!    subqueries, DELETE/reload, index creation mid-stream) executed on
//!    both databases with a buffer pool far smaller than the data
//!    (16 frames by default; `RQS_TEST_POOL_FRAMES` pins CI's
//!    pool-pressure run to the 8-frame floor, forcing steals on both) —
//!    comparing results statement by statement;
//! 2. randomly generated data + conjunctive queries over the same `r`/`s`
//!    schema, with and without indexes, comparing result multisets;
//! 3. the paper's own workload from `tests/paper_examples.rs` run through
//!    a complete Prolog-front-end session and compared with a plain
//!    Prolog engine holding the firm's tuples as facts (checking the
//!    session actually touched pages) — on the one-page spy firm, where
//!    every join step scans and hashes, and on a generated ~850-employee
//!    firm, where the planner joins through the key and foreign-key
//!    indexes (probe joins, also beside a parked writer).

use prolog_front_end::coupling::workload::{Department, Employee, Firm, FirmParams};
use prolog_front_end::pfe_core::{views, Session};
use proptest::test_runner::TestRng;
use rqs::{Database, QueryMetrics};

mod common;
use common::prolog_answers;

/// Buffer-pool frames of both databases: a comfortable 16 by default,
/// overridden by `RQS_TEST_POOL_FRAMES` — CI's pool-pressure step pins
/// the engine's 8-frame floor so every whole-table statement in the
/// corpus exercises the steal (undo-logging) eviction path.
fn pool_frames() -> usize {
    std::env::var("RQS_TEST_POOL_FRAMES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// A statement's outcome, rendered comparably: Ok(columns + sorted rows
/// + affected) or the error class.
type Outcome = Result<(Vec<String>, Vec<String>, usize), String>;

/// The two databases every statement runs on: `indexed` runs all of
/// them, `scanned` every one but `CREATE INDEX`, so it keeps no index
/// and reads every table by full scans.
struct Twins {
    indexed: Database,
    scanned: Database,
}

impl Twins {
    fn new() -> Twins {
        let db = || Database::paged(pool_frames()).expect("paged database");
        Twins {
            indexed: db(),
            scanned: db(),
        }
    }

    /// Runs `sql` on both databases (`CREATE INDEX` on `indexed` only)
    /// and asserts they agree, naming `context` if they do not.
    fn agree(&mut self, sql: &str, context: &str) {
        let indexed = outcome(&mut self.indexed, sql);
        if !sql.starts_with("CREATE INDEX") {
            let scanned = outcome(&mut self.scanned, sql);
            assert_eq!(
                indexed, scanned,
                "{context}indexed vs scanned diverged on: {sql}"
            );
        }
    }
}

/// Renders an execution outcome comparably: Ok(columns + sorted rows +
/// affected) or the error class.
fn outcome(db: &mut Database, sql: &str) -> Outcome {
    match db.execute(sql) {
        Ok(result) => {
            let mut rows: Vec<String> = result
                .rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            rows.sort();
            Ok((result.columns, rows, result.affected))
        }
        // Compare by error kind, not message.
        Err(e) => Err(format!("{e:?}").split('(').next().unwrap_or("?").to_owned()),
    }
}

#[test]
fn sql_corpus_agrees_with_and_without_indexes() {
    let mut corpus: Vec<String> = vec![
        "CREATE TABLE r (a INT, b INT, c TEXT)".into(),
        "CREATE TABLE s (b INT, d TEXT)".into(),
    ];
    // Enough rows that each table spans multiple pages and must
    // evict with its 8-frame pool.
    for i in 0..600i64 {
        corpus.push(format!(
            "INSERT INTO r VALUES ({}, {}, '{}')",
            i % 13,
            i % 7,
            ["x", "y", "z"][(i % 3) as usize]
        ));
    }
    for i in 0..200i64 {
        corpus.push(format!(
            "INSERT INTO s VALUES ({}, '{}')",
            i % 9,
            ["x", "y", "z"][(i % 3) as usize]
        ));
    }
    for op in ["=", "<>", "<", ">", "<=", ">="] {
        corpus.push(format!("SELECT v1.a, v1.c FROM r v1 WHERE v1.a {op} 4"));
        corpus.push(format!(
            "SELECT v1.a, v2.d FROM r v1, s v2 WHERE v1.b {op} v2.b AND v1.a = 3"
        ));
    }
    corpus.extend(
        [
            "SELECT v1.a FROM r v1",
            "SELECT DISTINCT v1.b FROM r v1",
            "SELECT v1.a, v2.b FROM r v1, s v2 WHERE v1.b = v2.b",
            "SELECT v1.a FROM r v1, s v2 WHERE v1.b = v2.b AND v2.d = 'y'",
            "SELECT v1.a FROM r v1 WHERE v1.a < 3 UNION SELECT v2.a FROM r v2 WHERE v2.b > 5",
            "SELECT v1.a FROM r v1 WHERE v1.b IN (SELECT v2.b FROM s v2 WHERE v2.d = 'x')",
            "SELECT v1.a FROM r v1 WHERE v1.b NOT IN (SELECT v2.b FROM s v2)",
            "SELECT v1.a FROM r v1 WHERE 1 = 2",
            "SELECT v1.a FROM r v1 WHERE v1.a = v1.b",
            "SELECT v9.a FROM r v1",   // unknown variable: same error class
            "SELECT v1.zzz FROM r v1", // unknown column
            "SELECT v1.a FROM nosuch v1", // unknown table
            // Index creation mid-stream: later point queries take the
            // B+-tree path on the indexed database.
            "CREATE INDEX ON r (a)",
            "SELECT v1.c FROM r v1 WHERE v1.a = 7",
            "SELECT v1.c FROM r v1 WHERE v1.a = 7 AND v1.b < 4",
            "DELETE FROM s",
            "SELECT v1.a FROM r v1 WHERE v1.b IN (SELECT v2.b FROM s v2)",
            "INSERT INTO s VALUES (1, 'x'), (2, 'y')",
            "SELECT v1.a FROM r v1, s v2 WHERE v1.b = v2.b",
            "DROP TABLE s",
            "SELECT v2.d FROM s v2",
        ]
        .map(String::from),
    );
    // A tuple larger than one 4 KiB page: both databases must reject it
    // with the same error class, with or without an index.
    corpus.push(format!(
        "INSERT INTO r VALUES (1, 2, '{}')",
        "w".repeat(5000)
    ));
    corpus.push("SELECT v1.a FROM r v1 WHERE v1.b = 2".into());

    let mut twins = Twins::new();
    for sql in &corpus {
        twins.agree(sql, "");
    }
}

/// Versioned index reads against scans. A parked transaction on the
/// indexed database pins the GC horizon, so every write after it leaves
/// version metadata on `acct` and every indexed read — the SELECTs'
/// and the UPDATE/DELETE candidate reads alike — resolves its postings
/// through a view instead of reading the bare tree. Two references:
///
/// * *latest state*: after each churn statement, indexed point and
///   range queries (and their forced-scan twins on the unindexed
///   `twin` column) must match the scanned database, which has no
///   index and no parked transaction keeping versions;
/// * *old snapshot*: the parked transaction re-asks the same questions
///   and must keep getting what the scanned database answered before
///   the churn began.
#[test]
fn versioned_index_reads_agree_with_the_oracle_in_both_snapshots() {
    let mut twins = Twins::new();
    let pad = "p".repeat(400);
    twins.agree("CREATE TABLE acct (k INT, twin INT, v INT, pad TEXT)", "");
    twins.agree("CREATE INDEX ON acct (k)", "");
    for k in 0..120 {
        twins.agree(
            &format!("INSERT INTO acct VALUES ({k}, {k}, 0, '{pad}')"),
            "",
        );
    }
    let probes: Vec<String> = ["k", "twin"]
        .iter()
        .flat_map(|col| {
            [10, 20, 21, 30, 31, 40, 50, 60, 1021, 5000]
                .map(|x| format!("SELECT a.k, a.v FROM acct a WHERE a.{col} = {x}"))
                .into_iter()
                .chain([
                    format!("SELECT a.k, a.v FROM acct a WHERE a.{col} >= 18 AND a.{col} <= 33"),
                    format!("SELECT a.k, a.v FROM acct a WHERE a.{col} > 45 AND a.{col} < 62"),
                    format!("SELECT a.k, a.v FROM acct a WHERE a.{col} >= 100"),
                    format!("SELECT a.k, a.v FROM acct a WHERE a.{col} < 3"),
                ])
        })
        .collect();
    let Twins { indexed, scanned } = &mut twins;
    let engine_reads = |db: &Database| db.engine().metrics().versioned_index_reads;
    let old: Vec<_> = probes.iter().map(|sql| outcome(scanned, sql)).collect();
    let pin = indexed.begin_session_txn().unwrap();
    assert_eq!(
        engine_reads(indexed),
        0,
        "nothing versioned before the churn"
    );

    let grown = "G".repeat(3000);
    let churn = [
        // Non-key update, by index point and by index range.
        "UPDATE acct SET v = v + 1 WHERE k = 10".to_owned(),
        "UPDATE acct SET v = v + 1 WHERE k >= 58 AND k < 61".to_owned(),
        // Re-keyings: onto an existing key, out of every probed range,
        // and a whole range at once.
        "UPDATE acct SET k = 21, twin = 21, v = 5 WHERE k = 20".to_owned(),
        "UPDATE acct SET k = k + 1000, twin = twin + 1000 WHERE k = 21".to_owned(),
        "UPDATE acct SET k = k + 200, twin = twin + 200 WHERE k >= 30 AND k <= 32".to_owned(),
        // Deletes, then a re-insert of a deleted key (slot reuse).
        "DELETE FROM acct WHERE k = 40".to_owned(),
        "DELETE FROM acct WHERE k >= 48 AND k < 52".to_owned(),
        "INSERT INTO acct VALUES (40, 40, 9, 'back')".to_owned(),
        // A row that outgrows its page and relocates.
        format!("UPDATE acct SET pad = '{grown}', v = 7 WHERE k = 60"),
        // The same row again, through its new rid.
        "UPDATE acct SET v = v + 1 WHERE k = 60".to_owned(),
    ];
    for stmt in &churn {
        assert_eq!(outcome(scanned, stmt), outcome(indexed, stmt), "on: {stmt}");
        for (sql, old) in probes.iter().zip(&old) {
            assert_eq!(
                outcome(scanned, sql),
                outcome(indexed, sql),
                "after {stmt}: {sql}"
            );
            indexed.resume_session_txn(pin).unwrap();
            let seen = outcome(indexed, sql);
            indexed.suspend_session_txn();
            assert_eq!(&seen, old, "old snapshot moved after {stmt}: {sql}");
        }
    }
    assert!(
        engine_reads(indexed) > probes.len() as u64,
        "the indexed probes went through the versioned reader"
    );
    indexed.commit_session_txn(pin).unwrap();
    for sql in &probes {
        assert_eq!(
            outcome(scanned, sql),
            outcome(indexed, sql),
            "quiescent: {sql}"
        );
    }
}

/// The headline corpus of this suite's DML arm: UPDATE and predicated
/// DELETE in every interesting shape — indexed and unindexed
/// predicates, arithmetic SET expressions, rewrites of the indexed
/// column itself, constraint violations (CHECK/key/FK/restrict, whose
/// error classes must agree), always-false predicates, and the legacy
/// truncation fast path — each followed by full-table SELECT probes so
/// any divergence in state (not just in the statement's own result)
/// fails the run.
#[test]
fn update_and_predicated_delete_corpus_agrees_with_and_without_indexes() {
    let mut corpus: Vec<String> = vec![
        "CREATE TABLE dept (dno INT, fct TEXT, PRIMARY KEY (dno))".into(),
        "CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT, \
         PRIMARY KEY (eno), \
         CHECK (sal BETWEEN 10000 AND 90000), \
         FOREIGN KEY (dno) REFERENCES dept (dno))"
            .into(),
        "INSERT INTO dept VALUES (1, 'hq'), (2, 'lab'), (3, 'field'), (4, 'spare')".into(),
    ];
    for i in 0..300i64 {
        corpus.push(format!(
            "INSERT INTO empl VALUES ({i}, 'e{i}', {}, {})",
            10_000 + i * 37 % 40_000,
            i % 3 + 1
        ));
    }
    corpus.push("CREATE INDEX ON empl (dno)".into());
    corpus.push("CREATE INDEX ON empl (sal)".into());
    let probes = [
        "SELECT v.eno, v.nam, v.sal, v.dno FROM empl v",
        "SELECT v.dno, v.fct FROM dept v",
        "SELECT v.eno FROM empl v WHERE v.dno = 2",
        "SELECT v.eno FROM empl v WHERE v.sal >= 20000 AND v.sal < 30000",
    ];
    let dml = [
        // Inverted and empty ranges on the indexed `sal`, read while
        // the table is large enough for an index path:
        // the index read yields nothing instead of panicking on the range.
        "SELECT v.eno FROM empl v WHERE v.sal > 30000 AND v.sal < 20000",
        "UPDATE empl SET sal = 25000 WHERE sal > 30000 AND sal < 20000",
        "DELETE FROM empl WHERE sal > 30000 AND sal < 20000",
        "SELECT v.eno FROM empl v WHERE v.sal >= 25000 AND v.sal < 25000",
        "UPDATE empl SET sal = 26000 WHERE sal >= 25000 AND sal < 25000",
        "DELETE FROM empl WHERE sal >= 25000 AND sal < 25000",
        // Indexed equality predicate; arithmetic SET.
        "UPDATE empl SET sal = sal + 100 WHERE dno = 1",
        // Indexed range predicate rewriting the ranged column itself.
        "UPDATE empl SET sal = 15000 WHERE sal < 12000",
        // Multi-assignment, unindexed predicate.
        "UPDATE empl SET nam = 'bulk', sal = 30000 WHERE nam = 'e7'",
        // FK-checked rewrite of the child column.
        "UPDATE empl SET dno = 2 WHERE dno = 3",
        // Whole-table update (no WHERE).
        "UPDATE empl SET sal = sal - 50",
        // Self-comparison predicate (column vs column of the same row).
        "UPDATE empl SET nam = 'loop' WHERE eno = dno",
        // CHECK violation: error classes must agree, state must not move.
        "UPDATE empl SET sal = 95000 WHERE eno = 10",
        "UPDATE empl SET sal = sal + 90000 WHERE dno = 2",
        // Key violation against a surviving row and between updated rows.
        "UPDATE empl SET eno = 11 WHERE eno = 12",
        "UPDATE empl SET eno = 999 WHERE dno = 1",
        // FK violation on the assigned column.
        "UPDATE empl SET dno = 99 WHERE eno = 20",
        // Restrict: rewriting/deleting a referenced parent key fails...
        "UPDATE dept SET dno = 9 WHERE dno = 1",
        "DELETE FROM dept WHERE dno = 1",
        // ...while unreferenced parent rows move/die freely.
        "UPDATE dept SET dno = 5 WHERE dno = 4",
        "DELETE FROM dept WHERE dno = 5",
        "UPDATE dept SET fct = 'renamed' WHERE dno = 1",
        // Predicated deletes: ranges, equality, no-match, always-false.
        "DELETE FROM empl WHERE sal > 45000",
        "DELETE FROM empl WHERE eno >= 100 AND eno < 110",
        "DELETE FROM empl WHERE nam = 'bulk'",
        "DELETE FROM empl WHERE eno = 123456",
        "DELETE FROM empl WHERE 1 = 2",
        "UPDATE empl SET sal = 20000 WHERE 2 < 1",
        // Legacy truncation is still DELETE without WHERE.
        "DELETE FROM empl",
        "SELECT v.eno FROM empl v",
    ];
    // Size limits: a value assigned to an indexed column may be far
    // longer than a B+-tree key (it is indexed under its prefix), but
    // a rewritten tuple must fit one 4 KiB page — past that both
    // databases reject with the same error class, state untouched.
    corpus.push("CREATE INDEX ON empl (nam)".into());
    corpus.push(format!(
        "UPDATE empl SET nam = '{}' WHERE eno = 30",
        "k".repeat(2000)
    ));
    corpus.push(format!(
        "UPDATE empl SET nam = '{}' WHERE eno = 30",
        "k".repeat(4500)
    ));
    for stmt in dml {
        corpus.push(stmt.into());
        corpus.extend(probes.iter().map(|p| p.to_string()));
    }
    // A table far wider than the 8-frame pool (~15 pages of padded
    // rows): the whole-table rewrite exercises the steal path on every
    // pool-pressure run.
    corpus.push("CREATE TABLE wide (k INT, pad TEXT)".into());
    for chunk in 0..4 {
        let rows: Vec<String> = (0..40)
            .map(|i| format!("({}, '{}')", chunk * 40 + i, "w".repeat(350)))
            .collect();
        corpus.push(format!("INSERT INTO wide VALUES {}", rows.join(", ")));
    }
    corpus.push(format!("UPDATE wide SET pad = '{}'", "W".repeat(360)));
    corpus.push("SELECT v.k, v.pad FROM wide v".into());
    corpus.push("DELETE FROM wide WHERE k >= 80".into());
    corpus.push(format!(
        "UPDATE wide SET pad = '{}' WHERE k < 80",
        "x".repeat(20)
    ));
    corpus.push("SELECT v.k, v.pad FROM wide v".into());
    // Bare DELETE (truncation) carries restrict semantics: a parent
    // that referencing children still point at refuses to truncate; the
    // child truncates freely, then the parent does.
    // (empl was truncated by the dml block above, so re-reference dept
    // first.)
    corpus.push("INSERT INTO dept VALUES (7, 'annex')".into());
    corpus.push("INSERT INTO empl VALUES (500, 'z', 20000, 7)".into());
    corpus.push("DELETE FROM dept".into());
    corpus.push("SELECT v.dno, v.fct FROM dept v".into());
    corpus.push("DELETE FROM empl".into());
    corpus.push("DELETE FROM dept".into());
    corpus.push("SELECT v.dno FROM dept v".into());
    corpus.push("SELECT v.eno FROM empl v".into());

    let mut twins = Twins::new();
    for sql in &corpus {
        twins.agree(sql, "");
    }
}

/// Generated DML mixed with inserts: every statement (and a full-state
/// probe after each DML) must agree with and without the indexes.
#[test]
fn generated_update_delete_statements_agree_with_and_without_indexes() {
    let mut rng = TestRng::deterministic("backend_differential_dml");
    let ops = ["=", "<>", "<", ">", "<=", ">="];
    let letters = ["x", "y", "z"];
    for case in 0..120 {
        let mut twins = Twins::new();
        let mut statements: Vec<String> = vec![
            "CREATE TABLE r (a INT, b INT, c TEXT)".into(),
            "CREATE TABLE s (b INT, d TEXT)".into(),
            "CREATE TABLE u (k INT, PRIMARY KEY (k))".into(),
        ];
        if rng.below(2) == 0 {
            statements.push("CREATE INDEX ON r (a)".into());
            statements.push("CREATE INDEX ON s (b)".into());
        }
        for _ in 0..rng.below(40) {
            statements.push(format!(
                "INSERT INTO r VALUES ({}, {}, '{}')",
                rng.below(6),
                rng.below(6),
                letters[rng.below(3) as usize]
            ));
        }
        for _ in 0..rng.below(15) {
            statements.push(format!(
                "INSERT INTO s VALUES ({}, '{}')",
                rng.below(6),
                letters[rng.below(3) as usize]
            ));
        }
        for _ in 0..rng.below(8) {
            statements.push(format!("INSERT INTO u VALUES ({})", rng.below(10)));
        }
        for _ in 0..rng.below(10) {
            let op = ops[rng.below(6) as usize];
            let dml = match rng.below(8) {
                0 => format!(
                    "UPDATE r SET a = {} WHERE b {op} {}",
                    rng.below(6),
                    rng.below(6)
                ),
                1 => format!(
                    "UPDATE r SET b = b + {} WHERE a = {}",
                    rng.below(4),
                    rng.below(6)
                ),
                2 => format!(
                    "UPDATE r SET c = '{}', b = {} WHERE c {op} '{}'",
                    letters[rng.below(3) as usize],
                    rng.below(6),
                    letters[rng.below(3) as usize]
                ),
                3 => format!(
                    "UPDATE s SET d = '{}' WHERE b >= {} AND b < {}",
                    letters[rng.below(3) as usize],
                    rng.below(4),
                    rng.below(8)
                ),
                // Key rewrites on u may collide: the error must agree too.
                4 => format!(
                    "UPDATE u SET k = {} WHERE k = {}",
                    rng.below(10),
                    rng.below(10)
                ),
                5 => format!("DELETE FROM r WHERE a {op} {}", rng.below(6)),
                6 => format!(
                    "DELETE FROM s WHERE d = '{}'",
                    letters[rng.below(3) as usize]
                ),
                _ => format!("DELETE FROM r WHERE a = b AND b {op} {}", rng.below(6)),
            };
            statements.push(dml);
            statements.push("SELECT v1.a, v1.b, v1.c FROM r v1".into());
            statements.push("SELECT v2.b, v2.d FROM s v2".into());
            statements.push("SELECT v3.k FROM u v3".into());
        }

        for sql in &statements {
            twins.agree(sql, &format!("case {case}: "));
        }
    }
}

#[test]
fn generated_queries_agree_with_and_without_indexes() {
    let mut rng = TestRng::deterministic("backend_differential");
    let ops = ["=", "<>", "<", ">", "<=", ">="];
    for case in 0..150 {
        let mut twins = Twins::new();
        let mut statements: Vec<String> = vec![
            "CREATE TABLE r (a INT, b INT, c TEXT)".into(),
            "CREATE TABLE s (b INT, d TEXT)".into(),
        ];
        if rng.below(2) == 0 {
            statements.push("CREATE INDEX ON r (b)".into());
            statements.push("CREATE INDEX ON s (b)".into());
        }
        for _ in 0..rng.below(40) {
            statements.push(format!(
                "INSERT INTO r VALUES ({}, {}, '{}')",
                rng.below(6),
                rng.below(6),
                ["x", "y", "z"][rng.below(3) as usize]
            ));
        }
        for _ in 0..rng.below(20) {
            statements.push(format!(
                "INSERT INTO s VALUES ({}, '{}')",
                rng.below(6),
                ["x", "y", "z"][rng.below(3) as usize]
            ));
        }
        let mut conds: Vec<String> = Vec::new();
        for _ in 0..rng.below(4) {
            conds.push(match rng.below(4) {
                0 => format!("(v1.a {} {})", ops[rng.below(6) as usize], rng.below(6)),
                1 => "(v1.b = v2.b)".into(),
                2 => format!("(v1.b {} v2.b)", ops[rng.below(6) as usize]),
                _ => format!("(v2.d = '{}')", ["x", "y", "z"][rng.below(3) as usize]),
            });
        }
        let where_clause = if conds.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conds.join(" AND "))
        };
        let distinct = if rng.below(2) == 0 { "DISTINCT " } else { "" };
        statements.push(format!(
            "SELECT {distinct}v1.a, v2.b FROM r v1, s v2{where_clause}"
        ));

        for sql in &statements {
            twins.agree(sql, &format!("case {case}: "));
        }
    }
}

/// The spy firm of `tests/paper_examples.rs`.
fn spy_firm() -> Firm {
    let employee = |eno, nam: &str, sal, dno, level| Employee {
        eno,
        nam: nam.to_owned(),
        sal,
        dno,
        level,
    };
    let department = |dno, fct: &str, mgr| Department {
        dno,
        fct: fct.to_owned(),
        mgr,
    };
    Firm {
        params: FirmParams::default(),
        employees: vec![
            employee(1, "control", 80_000, 10, 0),
            employee(2, "smiley", 60_000, 10, 1),
            employee(3, "jones", 30_000, 20, 2),
            employee(4, "miller", 25_000, 20, 2),
            employee(5, "leamas", 35_000, 20, 2),
        ],
        departments: vec![department(10, "hq", 1), department(20, "field", 2)],
    }
}

/// `same_manager` beside `works_for` (whose source defines
/// `works_dir_for`).
const SAME_MANAGER: &str =
    "same_manager(X, Y) :- works_dir_for(X, M), works_dir_for(Y, M), neq(X, Y).";

/// The same relations for the plain Prolog engine, its body goals
/// ordered for a top-down proof with the second argument bound, and its
/// `works_for` walking down from the boss. The head of each firm manages
/// their own department; without the `neq` that recursion would loop
/// there, and a self-step adds nothing to a closure.
const PROLOG_VIEWS: &str = "
    works_dir_for(X, Y) :- empl(M, Y, _, _), dept(D, _, M), empl(_, X, _, D).
    works_for(L, H) :- works_dir_for(L, H).
    works_for(L, H) :- works_dir_for(M, H), neq(M, H), works_for(L, M).
    same_manager(X, Y) :- works_dir_for(Y, M), works_dir_for(X, M), neq(X, Y).
";

/// A session on a `pool`-frame engine over `firm`, with the paper's
/// `works_for` and `same_manager` views.
fn firm_session(pool: usize, firm: &Firm) -> Session {
    let mut s = Session::empdep_paged(pool);
    s.consult(views::WORKS_FOR).expect("views parse");
    s.consult(SAME_MANAGER).expect("views parse");
    firm.load_into(s.coupler_mut())
        .expect("the firm is consistent");
    s.config_mut().cache = false;
    s
}

/// Runs every goal through the session's full pipeline and asserts its
/// answers are a plain Prolog engine's over the firm's tuples; returns
/// the session's summed work counters.
fn pipeline_agrees_with_prolog(s: &mut Session, firm: &Firm, goals: &[String]) -> QueryMetrics {
    let mut total = QueryMetrics::default();
    for goal in goals {
        let run = s.query(goal, "q").expect("the pipeline runs");
        let mut got: Vec<String> = run.answers.iter().map(|a| a["X"].to_string()).collect();
        got.sort();
        got.dedup();
        assert_eq!(
            got,
            prolog_answers(firm, PROLOG_VIEWS, goal, "X"),
            "goal: {goal}"
        );
        total.absorb(&run.total_metrics());
    }
    total
}

/// The five goal classes of the paper workload about employee `e`.
fn goal_classes(e: &str) -> Vec<String> {
    vec![
        format!("works_dir_for(t_X, {e})"),
        format!("same_manager(t_X, {e})"),
        format!("works_dir_for(t_X, {e}), empl(E, t_X, S, D), less(S, 40000)"),
        format!("works_dir_for(t_X, {e}), empl(E, t_X, S, D), less(S, 2000)"),
        format!("works_for(t_X, {e})"),
    ]
}

#[test]
fn paper_pipeline_agrees_with_and_without_indexes() {
    // The spy firm: one page per table, so every step scans and hashes.
    let spy = spy_firm();
    let mut paged = firm_session(8, &spy);
    let goals: Vec<String> = ["smiley", "jones", "control"]
        .iter()
        .flat_map(|e| goal_classes(e))
        .collect();
    let m = pipeline_agrees_with_prolog(&mut paged, &spy, &goals);
    assert!(
        m.page_reads + m.buffer_hits > 0,
        "the session reported no page activity across the whole workload"
    );
    assert_eq!(
        m.index_probes, 0,
        "one-page tables are scanned, never probed"
    );

    // A generated firm of ~850 employees: every goal class, about a
    // bottom-level manager, a top-level one and a staff member, with
    // both join methods in play.
    let firm = Firm::generate(FirmParams {
        depth: 4,
        branching: 3,
        staff_per_dept: 6,
        seed: 1,
    });
    let mut paged_firm = firm_session(pool_frames(), &firm);
    let name = |eno: i64| firm.employees[eno as usize - 1].nam.clone();
    let subjects = [
        name(firm.departments.last().expect("departments").mgr),
        name(firm.departments[1].mgr),
        firm.deepest_employee().to_owned(),
    ];
    let goals: Vec<String> = subjects.iter().flat_map(|e| goal_classes(e)).collect();
    let m = pipeline_agrees_with_prolog(&mut paged_firm, &firm, &goals);
    assert!(m.index_probes > 0, "no join step probed an index: {m:?}");
    assert!(m.page_reads + m.buffer_hits > 0);

    // The snapshot case: a probe join beside a parked, uncommitted
    // `UPDATE empl` that moves a department's staff elsewhere.
    probe_join_sees_its_snapshot(&firm, &mut paged_firm);

    // DML through the coupling layer, including the truncation
    // restrict rule: `dept.mgr` references `empl.eno` and `empl.dno`
    // references `dept.dno`, so the bare DELETE of either table is
    // refused while the other still points at it.
    for table in ["empl", "dept"] {
        let sql = format!("DELETE FROM {table}");
        assert!(
            paged.coupler_mut().rqs.execute(&sql).is_err(),
            "truncating referenced {table} must be refused"
        );
    }
    // Unreferenced rows still delete through a predicate (dept.mgr
    // points at empl 1 and 2 only).
    let deleted = paged
        .coupler_mut()
        .rqs
        .execute("DELETE FROM empl WHERE eno > 2")
        .unwrap();
    assert_eq!(deleted.affected, 3);
}

/// Sorted first-column answers of one SELECT, with its work counters.
fn column(db: &mut Database, sql: &str) -> (Vec<String>, QueryMetrics) {
    let r = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut rows: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    rows.sort();
    (rows, r.metrics)
}

/// `works_dir_for(t_X, boss)` as SQL, both ways: as the join the paged
/// planner runs through the `dept.mgr` and `empl.dno` indexes, and as
/// the same question with `empl` read by a filtered full scan (an `IN`
/// subquery filter, where the join probed `empl.dno`). Asserts they
/// agree and returns the answers with the join's counters.
fn both_ways(db: &mut Database, boss: &str) -> (Vec<String>, QueryMetrics) {
    let (joined, metrics) = column(
        db,
        &format!(
            "SELECT v1.nam FROM empl v1, dept v2, empl v3 \
             WHERE v3.nam = '{boss}' AND v1.dno = v2.dno AND v2.mgr = v3.eno"
        ),
    );
    let (scanned, _) = column(
        db,
        &format!(
            "SELECT v1.nam FROM empl v1 WHERE v1.dno IN \
             (SELECT v2.dno FROM dept v2, empl v3 WHERE v2.mgr = v3.eno AND v3.nam = '{boss}')"
        ),
    );
    assert_eq!(joined, scanned, "probe join vs filtered scan for {boss}");
    (joined, metrics)
}

/// A probe join reads through its statement's snapshot: beside a parked
/// transaction that has moved one department's staff (uncommitted), it
/// returns the pre-write answer — the engine's own quiescent one — while
/// the writer sees its own move, both ways.
fn probe_join_sees_its_snapshot(firm: &Firm, paged: &mut Session) {
    let dept = firm.departments.last().expect("departments");
    let boss = firm.employees[dept.mgr as usize - 1].nam.clone();
    let db = &mut paged.coupler_mut().rqs;
    let (quiet, m) = both_ways(db, &boss);
    assert!(!quiet.is_empty(), "{boss} manages staff");
    assert!(m.index_probes > 0, "the join must probe: {m:?}");

    let pin = db.begin_session_txn().unwrap();
    db.resume_session_txn(pin).unwrap();
    let moved = db
        .execute(&format!("UPDATE empl SET dno = 1 WHERE dno = {}", dept.dno))
        .unwrap();
    assert_eq!(moved.affected, quiet.len());
    assert_eq!(both_ways(db, &boss).0, Vec::<String>::new(), "own write");
    db.suspend_session_txn();

    let versioned = |db: &Database| db.engine().metrics().versioned_index_reads;
    let before = versioned(db);
    let (beside, m) = both_ways(db, &boss);
    assert_eq!(beside, quiet, "a probe join read the parked write");
    assert!(m.index_probes > 0, "still a probe join beside the writer");
    assert!(
        versioned(db) > before,
        "its probes resolved through the view"
    );

    db.abort_session_txn(pin);
    assert_eq!(both_ways(db, &boss).0, quiet);
}
