//! Crash, recovery, steal and free-list scenarios.

use super::*;

#[test]
fn explicit_abort_rolls_back_rows_and_catalog() {
    let mut eng = engine_with_empl(16, 3);
    eng.create_index("empl", 0).unwrap();
    eng.begin().unwrap();
    eng.insert("empl", &empl_row(100, "doomed", 1, 1)).unwrap();
    eng.create_table("tmp", &cols(&[("x", ColType::Int)]))
        .unwrap();
    assert!(eng.has_table("tmp"));
    assert_eq!(eng.row_count("empl").unwrap(), 4);
    eng.abort();
    assert_eq!(eng.row_count("empl").unwrap(), 3);
    assert_eq!(eng.scan("empl").unwrap().len(), 3);
    assert!(!eng.has_table("tmp"));
    assert_eq!(
        eng.index_lookup("empl", 0, &Datum::Int(100)).unwrap(),
        Vec::<Tuple>::new(),
        "aborted posting must be gone"
    );
    // The engine keeps working after the abort.
    eng.insert("empl", &empl_row(4, "fine", 20_000, 1)).unwrap();
    assert_eq!(eng.row_count("empl").unwrap(), 4);
}

#[test]
fn committed_statements_survive_a_crash_without_flush() {
    let path = temp_db("crash");
    {
        let mut eng = StorageEngine::open(&path, 16).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int), ("b", ColType::Text)]))
            .unwrap();
        eng.create_index("t", 0).unwrap();
        for i in 0..50 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&format!("v{i}"))])
                .unwrap();
        }
        // Crash: no flush, buffer pool contents are lost.
        eng.simulate_crash();
    }
    let eng = StorageEngine::open(&path, 16).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 50);
    assert_eq!(eng.scan("t").unwrap().len(), 50);
    assert!(eng.has_index("t", 0));
    let hit = eng.index_lookup("t", 0, &Datum::Int(33)).unwrap();
    assert_eq!(hit, vec![vec![Datum::Int(33), Datum::text("v33")]]);
    cleanup(&path);
}

#[test]
fn pager_fault_mid_statement_leaves_no_stranded_row() {
    // Regression for the PR-1 known issue: an I/O error between the
    // heap insert and its index maintenance used to strand a row
    // without postings. Now the statement's transaction aborts.
    let path = temp_db("fault-strand");
    let fault = Fault::new();
    let mut eng = StorageEngine::open_with_fault(&path, 8, fault.clone()).unwrap();
    eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
        .unwrap();
    eng.create_index("t", 0).unwrap();
    let pad = "p".repeat(200);
    // Seed enough data that statements allocate pages and evict
    // under the 8-frame pool, so injected faults land at many
    // different points inside a statement.
    let mut committed = 0i64;
    for _ in 0..200 {
        eng.insert("t", &[Datum::Int(committed), Datum::text(&pad)])
            .unwrap();
        committed += 1;
    }
    // March the failure point forward one durable write at a time:
    // each failing budget aborts a statement at a different spot
    // (heap-page eviction, B+-tree split allocation, WAL append,
    // WAL sync) — including between the heap insert and its index
    // maintenance.
    let mut failures = 0;
    for budget in 0..40 {
        fault.fail_after_writes(budget);
        let attempt = eng.insert("t", &[Datum::Int(committed), Datum::text(&pad)]);
        fault.heal();
        match attempt {
            Ok(_) => committed += 1,
            Err(_) => failures += 1,
        }
    }
    assert!(failures > 0, "fault injection never fired");
    // No stranded rows: heap and index agree exactly.
    assert_eq!(eng.row_count("t").unwrap(), committed as usize);
    let rows = eng.scan("t").unwrap();
    assert_eq!(rows.len(), committed as usize);
    for i in 0..committed {
        let hits = eng.index_lookup("t", 0, &Datum::Int(i)).unwrap();
        assert_eq!(hits.len(), 1, "row {i} must have exactly one posting");
    }
    // And the failed key is fully absent.
    assert_eq!(
        eng.index_lookup("t", 0, &Datum::Int(committed)).unwrap(),
        Vec::<Tuple>::new()
    );
    // The engine stays usable.
    eng.insert("t", &[Datum::Int(committed), Datum::text("ok")])
        .unwrap();
    assert_eq!(eng.row_count("t").unwrap(), committed as usize + 1);
    cleanup(&path);
}

#[test]
fn failed_commit_sync_leaves_no_zombie_after_crash() {
    // A commit whose frames all hit the file but whose sync failed
    // is reported as an error and rolled back; after a crash the
    // statement must NOT resurrect from the fully-written Commit
    // frame (the abort rewinds it out of the log).
    let path = temp_db("zombie");
    let fault = Fault::new();
    {
        let mut eng = StorageEngine::open_with_fault(&path, 16, fault.clone()).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int)]))
            .unwrap();
        for i in 0..3 {
            eng.insert("t", &[Datum::Int(i)]).unwrap();
        }
        // A plain insert logs Begin + 1 page image + Commit (3
        // appends), then syncs: budget 3 lets every append through
        // and fails exactly the sync.
        fault.fail_after_writes(3);
        assert!(matches!(
            eng.insert("t", &[Datum::Int(99)]),
            Err(StorageError::Io(_))
        ));
        fault.heal();
        assert_eq!(eng.row_count("t").unwrap(), 3, "rolled back in memory");
        eng.simulate_crash();
    }
    let eng = StorageEngine::open(&path, 16).unwrap();
    let rows = eng.scan("t").unwrap();
    assert_eq!(rows.len(), 3, "failed statement must not resurrect");
    assert!(
        !rows.contains(&vec![Datum::Int(99)]),
        "zombie row replayed from an unsynced Commit frame"
    );
    cleanup(&path);
}

#[test]
fn constraints_persist_across_reopen() {
    let path = temp_db("constraints");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int)]))
            .unwrap();
        eng.set_constraints("t", &["key a".to_string(), "bound a 0 100".to_string()])
            .unwrap();
        eng.create_table("u", &cols(&[("b", ColType::Int)]))
            .unwrap();
        eng.set_constraints("u", &["key b".to_string()]).unwrap();
        eng.simulate_crash(); // even without a flush
    }
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert_eq!(
        eng.constraints("t").unwrap(),
        ["key a".to_string(), "bound a 0 100".to_string()]
    );
    assert_eq!(eng.constraints("u").unwrap(), ["key b".to_string()]);
    // Dropping a table drops its constraint rows too.
    let mut eng = eng;
    eng.drop_table("t").unwrap();
    eng.flush().unwrap();
    drop(eng);
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert!(eng.constraints("t").is_err());
    assert_eq!(eng.constraints("u").unwrap(), ["key b".to_string()]);
    cleanup(&path);
}

#[test]
fn checkpoint_truncates_wal_and_preserves_state() {
    let path = temp_db("checkpoint");
    {
        let mut eng = StorageEngine::open(&path, 16).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int)]))
            .unwrap();
        for i in 0..100 {
            eng.insert("t", &[Datum::Int(i)]).unwrap();
        }
        assert!(eng.pool_stats().wal_appends > 0);
        eng.checkpoint().unwrap();
        assert_eq!(
            std::fs::metadata(wal_path(&path)).unwrap().len(),
            8,
            "checkpoint must truncate the log to its header"
        );
        eng.simulate_crash();
    }
    // Nothing to replay, everything in the data file.
    let eng = StorageEngine::open(&path, 16).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 100);
    cleanup(&path);
}

#[test]
fn checkpoint_is_refused_during_a_transaction() {
    // Regression: a mid-transaction checkpoint used to truncate the
    // log under the transaction's rewind mark; a subsequently
    // failed commit then rewound to a pre-checkpoint offset,
    // resurrecting the failed statement on recovery.
    let path = temp_db("ckpt-txn");
    let mut eng = StorageEngine::open(&path, 16).unwrap();
    eng.create_table("t", &cols(&[("a", ColType::Int)]))
        .unwrap();
    eng.begin().unwrap();
    eng.insert("t", &[Datum::Int(1)]).unwrap();
    assert!(matches!(eng.checkpoint(), Err(StorageError::Internal(_))));
    eng.commit().unwrap();
    eng.checkpoint().unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 1);
    drop(eng);
    let eng = StorageEngine::open(&path, 16).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 1);
    cleanup(&path);
}

#[test]
fn truncate_reclaims_pages_and_the_free_list_survives_reopen() {
    let path = temp_db("freelist");
    {
        let mut eng = StorageEngine::open(&path, 16).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
            .unwrap();
        eng.create_index("t", 0).unwrap();
        let pad = "p".repeat(400);
        for i in 0..200 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
                .unwrap();
        }
        assert_eq!(eng.free_page_count().unwrap(), 0);
        eng.truncate("t").unwrap();
        let freed = eng.free_page_count().unwrap();
        assert!(freed > 10, "chain + old tree must be reclaimed: {freed}");
        // Refilling reuses the freed pages instead of growing the file.
        let pages_before = eng.pool.page_count();
        for i in 0..200 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
                .unwrap();
        }
        assert_eq!(
            eng.pool.page_count(),
            pages_before,
            "refill must reuse the free list"
        );
        eng.flush().unwrap();
    }
    // The list head lives in the meta page: it survives reopen.
    let mut eng = StorageEngine::open(&path, 16).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 200);
    eng.truncate("t").unwrap();
    let freed = eng.free_page_count().unwrap();
    assert!(freed > 10, "free list must work after reopen: {freed}");
    let pages_before = eng.pool.page_count();
    eng.create_table("u", &cols(&[("x", ColType::Int)]))
        .unwrap();
    eng.insert("u", &[Datum::Int(1)]).unwrap();
    assert_eq!(eng.pool.page_count(), pages_before);
    cleanup(&path);
}

#[test]
fn drop_table_reclaims_heap_and_index_pages() {
    let mut eng = StorageEngine::in_memory(16).unwrap();
    eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
        .unwrap();
    eng.create_index("t", 0).unwrap();
    let pad = "x".repeat(300);
    for i in 0..300 {
        eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
            .unwrap();
    }
    eng.drop_table("t").unwrap();
    let freed = eng.free_page_count().unwrap();
    assert!(freed > 20, "heap chain and tree must be reclaimed: {freed}");
    // A new table's growth consumes the reclaimed pages first.
    let pages_before = eng.pool.page_count();
    eng.create_table("u", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
        .unwrap();
    for i in 0..300 {
        eng.insert("u", &[Datum::Int(i), Datum::text(&pad)])
            .unwrap();
    }
    assert_eq!(eng.pool.page_count(), pages_before, "file must not grow");
}

#[test]
fn catalog_churn_reuses_system_heap_pages() {
    // Regression: rewrite_system_constraints truncates the
    // sys_constraints heap; once the spec list spans several pages,
    // every rewrite used to abandon the old tail chain for good.
    let mut eng = StorageEngine::in_memory(32).unwrap();
    eng.create_table("t", &cols(&[("a", ColType::Int)]))
        .unwrap();
    let specs: Vec<String> = (0..300)
        .map(|i| format!("bound column_{i:04} 0 {i}"))
        .collect();
    // Warm up: the first rewrites grow the heap and prime the free
    // list (reclamation lands after each commit).
    for _ in 0..3 {
        eng.set_constraints("t", &specs).unwrap();
    }
    let pages = eng.pool.page_count();
    for _ in 0..20 {
        eng.set_constraints("t", &specs).unwrap();
    }
    assert_eq!(
        eng.pool.page_count(),
        pages,
        "catalog rewrites must reuse their reclaimed chain pages"
    );
}

#[test]
fn aborted_allocations_are_recycled_not_leaked() {
    let mut eng = StorageEngine::in_memory(32).unwrap();
    eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
        .unwrap();
    let pad = "y".repeat(1500);
    eng.begin().unwrap();
    for i in 0..20 {
        eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
            .unwrap();
    }
    eng.abort();
    let pages_after_abort = eng.pool.page_count();
    // Re-running the same inserts reuses the aborted allocations.
    for i in 0..20 {
        eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
            .unwrap();
    }
    assert_eq!(
        eng.pool.page_count(),
        pages_after_abort,
        "aborted allocations must be recycled"
    );
    assert_eq!(eng.row_count("t").unwrap(), 20);
}

#[test]
fn suspended_transactions_interleave_with_per_txn_rollback() {
    let mut eng = StorageEngine::in_memory(32).unwrap();
    eng.create_table("ta", &cols(&[("a", ColType::Int)]))
        .unwrap();
    eng.create_table("tb", &cols(&[("b", ColType::Int)]))
        .unwrap();

    let txn_a = eng.begin().unwrap();
    eng.insert("ta", &[Datum::Int(1)]).unwrap();
    eng.suspend();

    let txn_b = eng.begin().unwrap();
    eng.insert("tb", &[Datum::Int(2)]).unwrap();
    assert_eq!(eng.open_txn_count(), 2);
    eng.commit_txn(txn_b).unwrap();

    // Abort A: only A's effects disappear.
    eng.resume(txn_a).unwrap();
    eng.insert("ta", &[Datum::Int(3)]).unwrap();
    eng.abort_txn(txn_a);
    assert_eq!(eng.row_count("ta").unwrap(), 0, "A rolled back");
    assert_eq!(eng.row_count("tb").unwrap(), 1, "B committed");
    assert_eq!(eng.open_txn_count(), 0);

    // Touch-based rollback also covers DDL: an aborted CREATE TABLE
    // disappears while concurrent state stays.
    let txn_c = eng.begin().unwrap();
    eng.create_table("tc", &cols(&[("c", ColType::Int)]))
        .unwrap();
    assert!(eng.has_table("tc"));
    eng.abort_txn(txn_c);
    assert!(!eng.has_table("tc"));
    assert!(eng.has_table("ta") && eng.has_table("tb"));
}

#[test]
fn committed_suspended_transactions_both_survive_a_crash() {
    let path = temp_db("two-inflight");
    {
        let mut eng = StorageEngine::open(&path, 32).unwrap();
        eng.create_table("ta", &cols(&[("a", ColType::Int)]))
            .unwrap();
        eng.create_table("tb", &cols(&[("b", ColType::Int)]))
            .unwrap();
        // Two in-flight transactions; exactly one commits before the
        // crash.
        let txn_a = eng.begin().unwrap();
        eng.insert("ta", &[Datum::Int(10)]).unwrap();
        eng.suspend();
        let txn_b = eng.begin().unwrap();
        eng.insert("tb", &[Datum::Int(20)]).unwrap();
        eng.commit_txn(txn_b).unwrap();
        eng.resume(txn_a).unwrap();
        // A stays open (uncommitted) at the crash.
        let _ = txn_a;
        eng.simulate_crash();
    }
    let eng = StorageEngine::open(&path, 32).unwrap();
    assert_eq!(eng.row_count("ta").unwrap(), 0, "open txn must vanish");
    assert_eq!(eng.row_count("tb").unwrap(), 1, "committed txn survives");
    cleanup(&path);
}

#[test]
fn whole_table_rewrite_wider_than_the_pool_succeeds_via_steal() {
    // The retired no-steal ceiling: a single statement's write set
    // used to be bounded by the pool. 2000 rows span ~50 pages; the
    // 8-frame pool must steal continuously and still commit.
    let mut eng = engine_with_empl(8, 2000);
    eng.create_index("empl", 3).unwrap();
    let updates: Vec<(Rid, Tuple)> = eng
        .scan_rids("empl")
        .unwrap()
        .into_iter()
        .map(|(rid, t)| {
            (
                rid,
                vec![t[0].clone(), t[1].clone(), t[2].clone(), Datum::Int(42)],
            )
        })
        .collect();
    assert_eq!(eng.update_rows("empl", &updates).unwrap(), 2000);
    assert_eq!(eng.row_count("empl").unwrap(), 2000);
    let rows = eng.scan("empl").unwrap();
    assert!(rows.iter().all(|t| t[3] == Datum::Int(42)));
    let hits = eng.index_lookup("empl", 3, &Datum::Int(42)).unwrap();
    assert_eq!(hits.len(), 2000, "postings must follow the rewrite");
}

#[test]
fn aborted_whole_table_rewrite_restores_stolen_pages() {
    let mut eng = engine_with_empl(8, 1000);
    let before = eng.scan("empl").unwrap();
    eng.begin().unwrap();
    let updates: Vec<(Rid, Tuple)> = eng
        .scan_rids("empl")
        .unwrap()
        .into_iter()
        .map(|(rid, t)| {
            (
                rid,
                vec![
                    t[0].clone(),
                    Datum::text("doomed"),
                    t[2].clone(),
                    Datum::Int(-1),
                ],
            )
        })
        .collect();
    eng.update_rows("empl", &updates).unwrap();
    eng.abort();
    assert_eq!(
        eng.scan("empl").unwrap(),
        before,
        "stolen uncommitted pages must roll back from the log"
    );
    // The engine keeps working after the large abort.
    eng.insert("empl", &empl_row(5000, "after", 20_000, 1))
        .unwrap();
    assert_eq!(eng.row_count("empl").unwrap(), 1001);
}

#[test]
fn crash_between_steal_and_commit_recovers_the_pre_statement_state() {
    let path = temp_db("steal-crash");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
            .unwrap();
        let pad = "p".repeat(400);
        for i in 0..500i64 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
                .unwrap();
        }
        // Open transaction rewrites every row: far more dirty pages
        // than the 8-frame pool, so stolen uncommitted content is in
        // the database file when the crash hits (before commit).
        eng.begin().unwrap();
        let updates: Vec<(Rid, Tuple)> = eng
            .scan_rids("t")
            .unwrap()
            .into_iter()
            .map(|(rid, t)| (rid, vec![t[0].clone(), Datum::text("UNCOMMITTED")]))
            .collect();
        eng.update_rows("t", &updates).unwrap();
        eng.simulate_crash();
    }
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 500);
    let rows = eng.scan("t").unwrap();
    assert!(
        rows.iter().all(|t| t[1] != Datum::text("UNCOMMITTED")),
        "recovery undo must purge stolen uncommitted writes"
    );
    cleanup(&path);
}

#[test]
fn index_built_after_aborted_stolen_inserts_survives_recovery() {
    // Regression: an aborted transaction's stolen fresh allocations
    // are recycled, but their UndoImages stay in the log until the
    // next checkpoint. The unlogged index bulk build must therefore
    // never adopt a recycled page — recovery would replay the undo
    // image straight over the built node.
    let path = temp_db("steal-recycle");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
            .unwrap();
        let pad = "s".repeat(400);
        for i in 0..100i64 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
                .unwrap();
        }
        eng.begin().unwrap();
        for i in 100..400i64 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
                .unwrap();
        }
        eng.abort();
        eng.create_index("t", 0).unwrap();
        eng.simulate_crash();
    }
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 100);
    for i in 0..100i64 {
        let hits = eng.index_lookup("t", 0, &Datum::Int(i)).unwrap();
        assert_eq!(hits.len(), 1, "key {i}: node clobbered by recovery undo");
    }
    cleanup(&path);
}

#[test]
fn crash_mid_recovery_undo_is_repeatable() {
    // Recovery itself dies partway through the undo phase (injected
    // write fault); a second recovery must still converge on the
    // committed state — undo images are absolute, so replay is
    // idempotent.
    let path = temp_db("mid-undo");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int), ("pad", ColType::Text)]))
            .unwrap();
        let pad = "q".repeat(400);
        for i in 0..300i64 {
            eng.insert("t", &[Datum::Int(i), Datum::text(&pad)])
                .unwrap();
        }
        eng.begin().unwrap();
        let updates: Vec<(Rid, Tuple)> = eng
            .scan_rids("t")
            .unwrap()
            .into_iter()
            .map(|(rid, t)| (rid, vec![t[0].clone(), Datum::text("LOSER")]))
            .collect();
        eng.update_rows("t", &updates).unwrap();
        eng.simulate_crash();
    }
    // First recovery attempt: the fault budget lets a few undo page
    // writes through, then cuts the power again.
    let fault = Fault::new();
    fault.fail_after_writes(5);
    assert!(
        StorageEngine::open_with_fault(&path, 8, fault.clone()).is_err(),
        "recovery must hit the injected fault"
    );
    fault.heal();
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 300);
    assert!(eng
        .scan("t")
        .unwrap()
        .iter()
        .all(|t| t[1] != Datum::text("LOSER")));
    cleanup(&path);
}

#[test]
fn wal_metrics_count_logging_cost() {
    let mut eng = engine_with_empl(16, 10);
    let stats = eng.pool_stats();
    // 10 single-row inserts + DDL: every one logged Begin/images/Commit.
    assert!(stats.wal_appends >= 30, "{stats:?}");
    assert!(
        stats.wal_bytes > 10 * crate::page::PAGE_SIZE as u64,
        "{stats:?}"
    );
    let before = eng.pool_stats().wal_appends;
    eng.insert("empl", &empl_row(50, "x", 20_000, 1)).unwrap();
    let after = eng.pool_stats().wal_appends;
    assert!(after >= before + 3, "insert must log begin+image+commit");
}
