//! The paged storage engine: page I/O as the cost model.
//!
//! The paper treats the DBMS as a black box whose payoff is ultimately
//! *pages touched*. This example runs the relational query system on the
//! paged backend — slotted 4 KiB heap pages behind an 8-frame buffer
//! pool with clock eviction, plus B+-tree secondary indexes — and shows:
//!
//! 1. a full scan faulting most of the table through the tiny pool;
//! 2. the same point query through a B+-tree index, an order of
//!    magnitude fewer page reads;
//! 3. a whole Prolog-front-end session on the paged DBMS, where the §6
//!    simplification shows up directly as saved page I/O;
//! 4. durability: the database persists to a file and a reopened engine
//!    bootstraps its catalog from the `system_tables` pages.
//!
//! Run with: `cargo run --example paged_storage`

use prolog_front_end::pfe_core::{views, Session};
use prolog_front_end::rqs::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1+2: scan vs B+-tree point lookup under an 8-page pool -------
    let mut db = Database::paged(8)?;
    db.execute("CREATE TABLE empl (eno INT, nam TEXT, sal INT, dno INT)")?;
    for chunk in 0..20 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let eno = chunk * 100 + i;
                format!("({eno}, 'e{eno}', {}, {})", 10_000 + eno, eno % 25)
            })
            .collect();
        db.execute(&format!("INSERT INTO empl VALUES {}", rows.join(", ")))?;
    }

    let point = "SELECT v.sal FROM empl v WHERE v.nam = 'e1234'";
    let scan = db.execute(point)?;
    println!(
        "full scan:    {} page reads, {} buffer hits, {} rows scanned",
        scan.metrics.page_reads, scan.metrics.buffer_hits, scan.metrics.rows_scanned
    );

    db.execute("CREATE INDEX ON empl (nam)")?;
    let indexed = db.execute(point)?;
    assert_eq!(scan.rows, indexed.rows);
    println!(
        "B+-tree path: {} page reads, {} buffer hits, {} rows scanned\n",
        indexed.metrics.page_reads, indexed.metrics.buffer_hits, indexed.metrics.rows_scanned
    );

    // --- 3: the front-end's simplification, measured in pages ---------
    let mut session = Session::empdep_paged(8);
    session.consult(views::SAME_MANAGER)?;
    session.load_empl(&[
        (1, "control", 80_000, 10),
        (2, "smiley", 60_000, 10),
        (3, "jones", 30_000, 20),
        (4, "miller", 25_000, 20),
        (5, "leamas", 35_000, 20),
    ])?;
    session.load_dept(&[(10, "hq", 1), (20, "field", 2)])?;
    session.check_integrity()?;

    let optimized = session.query("same_manager(t_X, jones)", "same_manager")?;
    session.config_mut().cache = false;
    session.config_mut().optimize = false;
    let direct = session.query("same_manager(t_X, jones)", "same_manager")?;
    let (om, dm) = (optimized.total_metrics(), direct.total_metrics());
    println!("same_manager(t_X, jones) on the paged DBMS:");
    println!(
        "  direct:    {} joins, {} pages touched",
        dm.joins,
        dm.page_reads + dm.buffer_hits
    );
    println!(
        "  optimized: {} joins, {} pages touched\n",
        om.joins,
        om.page_reads + om.buffer_hits
    );

    // --- 4: persistence through the system catalog --------------------
    let path = std::env::temp_dir().join("pfe_paged_storage_example.rqs");
    // Remove the database file *and* its write-ahead log: a stale WAL
    // beside a fresh file would replay the previous run's statements.
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(storage::engine::wal_path(&path));
    {
        let mut db = Database::open_paged(&path, 8)?;
        db.execute("CREATE TABLE dept (dno INT, fct TEXT, mgr INT)")?;
        db.execute("INSERT INTO dept VALUES (10, 'hq', 1), (20, 'field', 2)")?;
        // Enough further departments to span several pages: on a table
        // no larger than one index probe the planner scans instead.
        let annexes: Vec<String> = (100..400)
            .map(|dno| format!("({dno}, 'annex-{dno:->36}', 1)"))
            .collect();
        db.execute(&format!("INSERT INTO dept VALUES {}", annexes.join(", ")))?;
        db.execute("CREATE INDEX ON dept (dno)")?;
        db.flush()?;
    }
    let reopened = Database::open_paged(&path, 8)?;
    let r = reopened.query("SELECT v.fct FROM dept v WHERE v.dno = 20")?;
    println!(
        "reopened from {}: dept 20 is {} ({} rows scanned via the surviving index)",
        path.display(),
        r.rows[0][0],
        r.metrics.rows_scanned
    );
    std::fs::remove_file(&path)?;
    let _ = std::fs::remove_file(storage::engine::wal_path(&path));
    Ok(())
}
