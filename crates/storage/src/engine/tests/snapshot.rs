//! Index reads through a read view: every way a posting and the
//! version a snapshot must see can disagree, each checked against the
//! expected rows *and* against the same predicate run as a filtered
//! heap scan (the two walk different physical structures into one
//! resolver, so agreement is not a tautology).

use super::*;
use crate::buffer::TxnId;
use std::ops::RangeBounds;

const ENO: usize = 0;
const DNO: usize = 3;

/// 40 employees, `eno` = 0..40 (unique), `dno` = eno % 10, both indexed.
fn indexed_empl() -> StorageEngine {
    let mut eng = engine_with_empl(16, 40);
    eng.create_index("empl", ENO).unwrap();
    eng.create_index("empl", DNO).unwrap();
    eng
}

fn eq(key: &Datum) -> IndexProbe<'_> {
    IndexProbe::Eq(key)
}

fn between<'a>(lo: &'a Datum, hi: &'a Datum) -> IndexProbe<'a> {
    IndexProbe::Range(Bound::Included(lo), Bound::Included(hi))
}

/// The rows `probe` yields through the index on `col`, sorted — after
/// checking that a filtered scan agrees and that no rid repeats.
fn probe_rows(eng: &StorageEngine, col: usize, probe: IndexProbe<'_>) -> Vec<Tuple> {
    let hits = eng.index_read("empl", col, probe).unwrap();
    let mut rids: Vec<Rid> = hits.iter().map(|(rid, _)| *rid).collect();
    rids.sort_unstable();
    rids.dedup();
    assert_eq!(rids.len(), hits.len(), "a rid was emitted twice: {hits:?}");
    let mut via_index: Vec<Tuple> = hits.into_iter().map(|(_, t)| t).collect();
    via_index.sort();
    let mut via_scan: Vec<Tuple> = eng
        .scan("empl")
        .unwrap()
        .into_iter()
        .filter(|t| match probe {
            IndexProbe::Eq(key) => &t[col] == key,
            IndexProbe::Range(lo, hi) => (lo, hi).contains(&t[col]),
        })
        .collect();
    via_scan.sort();
    assert_eq!(via_index, via_scan, "index read and filtered scan disagree");
    via_index
}

fn rid_of(eng: &StorageEngine, eno: i64) -> Rid {
    let hits = eng.index_read("empl", ENO, eq(&Datum::Int(eno))).unwrap();
    assert_eq!(hits.len(), 1, "eno {eno}");
    hits[0].0
}

fn enos(rows: &[Tuple]) -> Vec<i64> {
    rows.iter().map(|t| t[ENO].as_int().unwrap()).collect()
}

/// Opens a reader transaction (its view is cut here) and parks it.
fn parked_reader(eng: &mut StorageEngine) -> TxnId {
    let reader = eng.begin().unwrap();
    eng.suspend();
    reader
}

#[test]
fn others_pending_insert_is_skipped_and_own_is_seen() {
    let mut eng = indexed_empl();
    let writer = eng.begin().unwrap();
    eng.insert("empl", &empl_row(100, "new", 1, 3)).unwrap();
    // The writer reads its own insert, by either index.
    assert_eq!(
        enos(&probe_rows(&eng, ENO, eq(&Datum::Int(100)))),
        vec![100]
    );
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(3)))),
        [3, 13, 23, 33, 100]
    );
    eng.suspend();
    // An autocommit reader beside it does not.
    eng.open_statement_snapshot();
    assert!(probe_rows(&eng, ENO, eq(&Datum::Int(100))).is_empty());
    let (lo, hi) = (Datum::Int(38), Datum::Int(200));
    assert_eq!(enos(&probe_rows(&eng, ENO, between(&lo, &hi))), [38, 39]);
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(3)))),
        [3, 13, 23, 33]
    );
    eng.close_statement_snapshot();
    eng.commit_txn(writer).unwrap();
    eng.open_statement_snapshot();
    assert_eq!(
        enos(&probe_rows(&eng, ENO, eq(&Datum::Int(100)))),
        vec![100]
    );
    eng.close_statement_snapshot();
}

#[test]
fn non_key_update_after_the_snapshot_substitutes_the_prior() {
    let mut eng = indexed_empl();
    let reader = parked_reader(&mut eng);
    let rid = rid_of(&eng, 5);
    eng.update_rows("empl", &[(rid, empl_row(5, "e5", 99_999, 5))])
        .unwrap();
    eng.resume(reader).unwrap();
    assert_eq!(
        probe_rows(&eng, ENO, eq(&Datum::Int(5))),
        vec![empl_row(5, "e5", 10_005, 5)]
    );
    eng.commit_txn(reader).unwrap();
    eng.open_statement_snapshot();
    assert_eq!(
        probe_rows(&eng, ENO, eq(&Datum::Int(5))),
        vec![empl_row(5, "e5", 99_999, 5)]
    );
    eng.close_statement_snapshot();
}

#[test]
fn rekeyed_row_is_found_under_the_key_each_snapshot_knows() {
    let mut eng = indexed_empl();
    let reader = parked_reader(&mut eng);
    // dno 4 -> 7 for employee 14, committed after the reader's cut.
    let rid = rid_of(&eng, 14);
    eng.update_rows("empl", &[(rid, empl_row(14, "e14", 10_014, 7))])
        .unwrap();
    // Old snapshot: still in department 4, not yet in 7 — although the
    // only posting left for the rid is filed under 7.
    eng.resume(reader).unwrap();
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(4)))),
        [4, 14, 24, 34]
    );
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(7)))),
        [7, 17, 27, 37]
    );
    // A range straddling both keys yields the row once, as it was.
    let (lo, hi) = (Datum::Int(4), Datum::Int(7));
    let rows = probe_rows(&eng, DNO, between(&lo, &hi));
    assert_eq!(rows.len(), 16);
    assert_eq!(
        rows.iter()
            .filter(|t| t[ENO] == Datum::Int(14))
            .collect::<Vec<_>>(),
        [&empl_row(14, "e14", 10_014, 4)]
    );
    eng.commit_txn(reader).unwrap();
    // New snapshot: the reverse.
    eng.open_statement_snapshot();
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(4)))),
        [4, 24, 34]
    );
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(7)))),
        [7, 14, 17, 27, 37]
    );
    assert_eq!(probe_rows(&eng, DNO, between(&lo, &hi)).len(), 16);
    eng.close_statement_snapshot();
}

#[test]
fn delete_after_the_snapshot_resurrects_through_the_prior() {
    let mut eng = indexed_empl();
    let reader = parked_reader(&mut eng);
    let rid = rid_of(&eng, 22);
    eng.delete_rows("empl", &[rid]).unwrap();
    eng.resume(reader).unwrap();
    assert_eq!(
        probe_rows(&eng, ENO, eq(&Datum::Int(22))),
        vec![empl_row(22, "e22", 10_022, 2)]
    );
    let (lo, hi) = (Datum::Int(20), Datum::Int(24));
    assert_eq!(
        enos(&probe_rows(&eng, ENO, between(&lo, &hi))),
        [20, 21, 22, 23, 24]
    );
    eng.commit_txn(reader).unwrap();
    eng.open_statement_snapshot();
    assert!(probe_rows(&eng, ENO, eq(&Datum::Int(22))).is_empty());
    assert_eq!(
        enos(&probe_rows(&eng, ENO, between(&lo, &hi))),
        [20, 21, 23, 24]
    );
    eng.close_statement_snapshot();
}

#[test]
fn relocated_row_is_emitted_once_under_its_old_rid() {
    let mut eng = StorageEngine::in_memory(16).unwrap();
    eng.create_table(
        "empl",
        &cols(&[("k", ColType::Int), ("pad", ColType::Text)]),
    )
    .unwrap();
    eng.create_index("empl", 0).unwrap();
    // Fill pages tightly so growth must relocate.
    for i in 0..40i64 {
        eng.insert("empl", &[Datum::Int(i), Datum::text(&"x".repeat(450))])
            .unwrap();
    }
    let reader = parked_reader(&mut eng);
    let old_rid = rid_of(&eng, 8);
    let writer = eng.begin().unwrap();
    eng.update_rows(
        "empl",
        &[(old_rid, vec![Datum::Int(8), Datum::text(&"G".repeat(2500))])],
    )
    .unwrap();
    let new_rid = rid_of(&eng, 8);
    assert_ne!(new_rid, old_rid, "the update was meant to relocate");
    eng.suspend();
    // While the move is pending and after it commits, the old snapshot
    // reads the old copy at the old rid, exactly once.
    let old_snapshot_holds = |eng: &mut StorageEngine| {
        eng.resume(reader).unwrap();
        let hits = eng.index_read("empl", 0, eq(&Datum::Int(8))).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, old_rid);
        assert_eq!(hits[0].1[1].as_text().unwrap().len(), 450);
        let (lo, hi) = (Datum::Int(0), Datum::Int(39));
        assert_eq!(probe_rows(eng, 0, between(&lo, &hi)).len(), 40);
        eng.suspend();
    };
    old_snapshot_holds(&mut eng);
    eng.commit_txn(writer).unwrap();
    old_snapshot_holds(&mut eng);
    eng.commit_txn(reader).unwrap();
    eng.open_statement_snapshot();
    let hits = eng.index_read("empl", 0, eq(&Datum::Int(8))).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, new_rid);
    assert_eq!(hits[0].1[1].as_text().unwrap().len(), 2500);
    eng.close_statement_snapshot();
}

#[test]
fn rollback_restores_what_every_probe_sees() {
    let mut eng = indexed_empl();
    let reader = parked_reader(&mut eng);
    let writer = eng.begin().unwrap();
    let (moved, doomed) = (rid_of(&eng, 14), rid_of(&eng, 24));
    eng.update_rows("empl", &[(moved, empl_row(14, "e14", 1, 7))])
        .unwrap();
    eng.delete_rows("empl", &[doomed]).unwrap();
    eng.insert("empl", &empl_row(100, "new", 1, 4)).unwrap();
    eng.abort_txn(writer);
    eng.resume(reader).unwrap();
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(4)))),
        [4, 14, 24, 34]
    );
    assert_eq!(
        enos(&probe_rows(&eng, DNO, eq(&Datum::Int(7)))),
        [7, 17, 27, 37]
    );
    assert!(probe_rows(&eng, ENO, eq(&Datum::Int(100))).is_empty());
    eng.commit_txn(reader).unwrap();
}

#[test]
fn versioned_point_read_costs_tree_height_not_table() {
    let mut eng = engine_with_empl(64, 2000);
    eng.create_index("empl", ENO).unwrap();
    let fetches = |eng: &StorageEngine, eno: i64| {
        let before = eng.pool_stats();
        let hits = eng.index_lookup("empl", ENO, &Datum::Int(eno)).unwrap();
        assert_eq!(hits.len(), 1);
        let after = eng.pool_stats();
        (after.page_reads + after.buffer_hits) - (before.page_reads + before.buffer_hits)
    };
    eng.open_statement_snapshot();
    let quiescent = fetches(&eng, 1234);
    eng.close_statement_snapshot();
    assert_eq!(eng.metrics().versioned_index_reads, 0);
    // A writer parks an uncommitted update on another row of the table.
    let writer = eng.begin().unwrap();
    let rid = eng
        .index_read("empl", ENO, eq(&Datum::Int(7)))
        .unwrap()
        .remove(0)
        .0;
    eng.update_rows("empl", &[(rid, empl_row(7, "e7", 1, 7))])
        .unwrap();
    eng.suspend();
    let reads_before = eng.metrics().versioned_index_reads;
    eng.open_statement_snapshot();
    let churned = fetches(&eng, 1234);
    // The row under the pending write resolves to its prior.
    assert_eq!(
        eng.index_lookup("empl", ENO, &Datum::Int(7)).unwrap(),
        vec![empl_row(7, "e7", 10_007, 7)]
    );
    eng.close_statement_snapshot();
    assert_eq!(churned, quiescent, "same postings, same fetches");
    assert_eq!(eng.metrics().versioned_index_reads, reads_before + 2);
    eng.abort_txn(writer);
}

#[test]
fn probe_reads_conflict_only_on_pending_rows_that_answer_them() {
    let mut eng = indexed_empl();
    let writer = eng.begin().unwrap();
    let rid = rid_of(&eng, 1);
    eng.update_rows("empl", &[(rid, empl_row(1, "e1", 1, 1))])
        .unwrap();
    eng.suspend();
    let prober = eng.begin().unwrap();
    eng.set_constraint_probe(true);
    // A fresh key and an untouched existing key get verdicts…
    assert!(eng
        .index_lookup("empl", ENO, &Datum::Int(500))
        .unwrap()
        .is_empty());
    assert_eq!(
        eng.index_lookup("empl", ENO, &Datum::Int(2)).unwrap().len(),
        1
    );
    assert!(!eng.contains("empl", &[ENO], &[Datum::Int(500)]).unwrap());
    // …the key under the pending write does not, by index or by scan.
    assert!(matches!(
        eng.index_lookup("empl", ENO, &Datum::Int(1)),
        Err(StorageError::Conflict(_))
    ));
    assert!(matches!(
        eng.contains("empl", &[ENO], &[Datum::Int(1)]),
        Err(StorageError::Conflict(_))
    ));
    // A whole-table probe depends on every row, so it still conflicts.
    assert!(matches!(eng.scan("empl"), Err(StorageError::Conflict(_))));
    eng.set_constraint_probe(false);
    eng.abort_txn(prober);
    eng.abort_txn(writer);
}
