//! Two sessions sharing one database, each with an explicit
//! transaction — the `crates/server` subsystem in ~60 lines.
//!
//! Run with: `cargo run --example shared_server`

use server::{ServerError, SharedDatabase};

fn main() {
    // One database, any number of `Arc`-cloneable handles. In-memory
    // paged here; `SharedDatabase::open(path, pool_pages)` serves a
    // file-backed database with WAL recovery, and `server::net::Server`
    // puts the same sessions behind a TCP listener.
    let db = SharedDatabase::paged(64).expect("database opens");

    // Schema setup through an ordinary autocommit session.
    let mut setup = db.session();
    setup
        .execute("CREATE TABLE accounts (id INT, balance INT, PRIMARY KEY (id))")
        .expect("ddl runs");
    setup
        .execute("INSERT INTO accounts VALUES (1, 900), (2, 100)")
        .expect("seed rows");

    // Session A opens an explicit transaction and writes.
    let mut alice = db.session();
    alice.execute("BEGIN").expect("begin");
    alice
        .execute("INSERT INTO accounts VALUES (3, 250)")
        .expect("insert inside txn");

    // Session B runs concurrently. A SELECT takes no locks: it reads the
    // committed snapshot, so it neither waits for Alice nor sees her
    // uncommitted row — no dirty read ever.
    let mut bob = db.session();
    let before = bob
        .execute("SELECT a.id FROM accounts a")
        .expect("snapshot read");
    println!(
        "bob sees {} accounts while alice's txn is open",
        before.rows.len()
    );
    assert_eq!(
        before.rows.len(),
        2,
        "alice's row is invisible until COMMIT"
    );

    // DDL needs the schema lock exclusively, and Alice's open
    // transaction holds it shared. Bob is younger, so wait-die refuses
    // him at once with a retryable conflict instead of letting him wait.
    let err = bob
        .execute("CREATE TABLE audit (note TEXT)")
        .expect_err("DDL conflicts with an open writer");
    assert!(err.is_retryable(), "{err}");
    println!("bob: DDL refused while alice's txn is open ({err})");
    alice.execute("COMMIT").expect("commit");

    // After Alice commits, everyone sees her row and DDL goes through.
    bob.execute("CREATE TABLE audit (note TEXT)").expect("ddl");
    bob.execute("BEGIN").expect("begin");
    bob.execute("INSERT INTO audit VALUES ('checked the books')")
        .expect("insert");
    let r = bob
        .execute("SELECT a.id, a.balance FROM accounts a")
        .expect("query inside txn");
    println!("bob sees {} accounts after alice's commit", r.rows.len());
    bob.execute("ROLLBACK").expect("rollback");

    // The rolled-back audit row is gone; the committed account remains.
    let mut check = db.session();
    let audits = check
        .execute("SELECT x.note FROM audit x")
        .expect("query runs");
    let accounts = check
        .execute("SELECT a.id FROM accounts a")
        .expect("query runs");
    println!(
        "final state: {} accounts (expected 3), {} audit rows (expected 0)",
        accounts.rows.len(),
        audits.rows.len()
    );
    assert_eq!(accounts.rows.len(), 3);
    assert!(audits.rows.is_empty());

    // Misuse is caught, not absorbed.
    match check.execute("COMMIT") {
        Err(ServerError::Session(msg)) => println!("as expected: {msg}"),
        other => panic!("unexpected: {other:?}"),
    }
}
