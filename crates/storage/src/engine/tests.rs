//! Engine unit tests: data, catalog and DML paths here; crash,
//! recovery, steal and free-list scenarios in [`recovery`]; index reads
//! through a read view in [`snapshot`]; texts longer than an index key
//! in [`prefix_keys`].

mod prefix_keys;
mod recovery;
mod snapshot;

use super::*;
use crate::heap::Rid;
use crate::value::{Datum, Tuple};
use std::ops::Bound;

/// `(rid, tuple)` pairs of a whole table, for tests that address the
/// rows they then rewrite.
trait ScanRids {
    fn scan_rids(&self, name: &str) -> StorageResult<Vec<(Rid, Tuple)>>;
}

impl ScanRids for StorageEngine {
    fn scan_rids(&self, name: &str) -> StorageResult<Vec<(Rid, Tuple)>> {
        let mut out = Vec::new();
        self.visit(name, &mut |rid, tuple| {
            out.push((rid, tuple));
            true
        })?;
        Ok(out)
    }
}

fn cols(spec: &[(&str, ColType)]) -> Vec<(String, ColType)> {
    spec.iter().map(|(n, t)| (n.to_string(), *t)).collect()
}

fn empl_row(eno: i64, nam: &str, sal: i64, dno: i64) -> Tuple {
    vec![
        Datum::Int(eno),
        Datum::text(nam),
        Datum::Int(sal),
        Datum::Int(dno),
    ]
}

fn engine_with_empl(pool_pages: usize, rows: usize) -> StorageEngine {
    let mut eng = StorageEngine::in_memory(pool_pages).unwrap();
    eng.create_table(
        "empl",
        &cols(&[
            ("eno", ColType::Int),
            ("nam", ColType::Text),
            ("sal", ColType::Int),
            ("dno", ColType::Int),
        ]),
        &[],
    )
    .unwrap();
    for i in 0..rows as i64 {
        eng.insert("empl", &empl_row(i, &format!("e{i}"), 10_000 + i, i % 10))
            .unwrap();
    }
    eng
}

fn temp_db(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rqs-engine-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.pages");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path(&path));
    path
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
}

#[test]
fn create_insert_scan() {
    let eng = engine_with_empl(16, 5);
    assert!(eng.has_table("empl"));
    assert_eq!(eng.row_count("empl").unwrap(), 5);
    let rows = eng.scan("empl").unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[2], empl_row(2, "e2", 10_002, 2));
    assert!(eng.scan("nosuch").is_err());
}

#[test]
fn duplicate_table_rejected() {
    let mut eng = engine_with_empl(8, 0);
    assert!(matches!(
        eng.create_table("empl", &cols(&[("x", ColType::Int)]), &[]),
        Err(StorageError::DuplicateTable(_))
    ));
}

#[test]
fn index_lookup_matches_scan_filter() {
    let mut eng = engine_with_empl(16, 500);
    eng.create_index("empl", 3).unwrap();
    assert!(eng.has_index("empl", 3));
    assert!(!eng.has_index("empl", 0));
    let via_index = eng.index_lookup("empl", 3, &Datum::Int(7)).unwrap();
    let via_scan: Vec<Tuple> = eng
        .scan("empl")
        .unwrap()
        .into_iter()
        .filter(|t| t[3] == Datum::Int(7))
        .collect();
    assert_eq!(via_index.len(), via_scan.len());
    let a: std::collections::BTreeSet<String> =
        via_index.iter().map(|t| format!("{t:?}")).collect();
    let b: std::collections::BTreeSet<String> = via_scan.iter().map(|t| format!("{t:?}")).collect();
    assert_eq!(a, b);
    // An unindexed column is the caller's bug, not an empty answer.
    assert!(eng.index_lookup("empl", 0, &Datum::Int(1)).is_err());
}

#[test]
fn indexes_maintained_on_insert() {
    let mut eng = engine_with_empl(16, 0);
    eng.create_index("empl", 1).unwrap();
    for i in 0..300i64 {
        eng.insert("empl", &empl_row(i, &format!("n{}", i % 50), 20_000, 1))
            .unwrap();
    }
    let hits = eng.index_lookup("empl", 1, &Datum::text("n13")).unwrap();
    assert_eq!(hits.len(), 6);
    assert!(hits.iter().all(|t| t[1] == Datum::text("n13")));
}

#[test]
fn truncate_clears_rows_and_indexes() {
    let mut eng = engine_with_empl(16, 200);
    eng.create_index("empl", 3).unwrap();
    eng.truncate("empl").unwrap();
    assert_eq!(eng.row_count("empl").unwrap(), 0);
    assert!(eng.scan("empl").unwrap().is_empty());
    assert_eq!(
        eng.index_lookup("empl", 3, &Datum::Int(1)).unwrap(),
        Vec::<Tuple>::new()
    );
    eng.insert("empl", &empl_row(1, "back", 30_000, 1)).unwrap();
    assert_eq!(
        eng.index_lookup("empl", 3, &Datum::Int(1)).unwrap().len(),
        1
    );
}

#[test]
fn drop_table_removes_everything() {
    let mut eng = engine_with_empl(16, 10);
    eng.create_index("empl", 0).unwrap();
    eng.drop_table("empl").unwrap();
    assert!(!eng.has_table("empl"));
    assert!(eng.drop_table("empl").is_err());
    // Name is reusable with a different shape.
    eng.create_table("empl", &cols(&[("only", ColType::Text)]), &[])
        .unwrap();
    eng.insert("empl", &[Datum::text("x")]).unwrap();
    assert_eq!(eng.scan("empl").unwrap().len(), 1);
}

#[test]
fn works_under_8_page_pool_with_data_larger_than_pool() {
    let mut eng = engine_with_empl(8, 2000);
    eng.create_index("empl", 0).unwrap();
    assert_eq!(eng.scan("empl").unwrap().len(), 2000);
    for probe in [0i64, 555, 1999] {
        let hit = eng.index_lookup("empl", 0, &Datum::Int(probe)).unwrap();
        assert_eq!(hit.len(), 1, "eno {probe}");
    }
    let stats = eng.metrics();
    assert!(
        stats.fault_ins > 0,
        "pool smaller than data must miss: {stats:?}"
    );
    assert!(stats.buffer_hits > 0, "{stats:?}");
}

#[test]
fn point_lookup_reads_fewer_pages_than_full_scan() {
    let mut eng = engine_with_empl(8, 2000);
    eng.create_index("empl", 0).unwrap();
    let before = eng.metrics();
    let _ = eng.scan("empl").unwrap();
    let scan_reads = eng.metrics().fault_ins - before.fault_ins;
    let before = eng.metrics();
    let _ = eng.index_lookup("empl", 0, &Datum::Int(1234)).unwrap();
    let lookup_reads = eng.metrics().fault_ins - before.fault_ins;
    assert!(
        lookup_reads < scan_reads,
        "index lookup read {lookup_reads} pages, full scan {scan_reads}"
    );
}

#[test]
fn indexed_columns_take_any_value_the_heap_takes() {
    // A value past the B+-tree key cap is indexed under its cut prefix;
    // only a record past one page is refused, with or without an index,
    // and it leaves neither a heap row nor a posting behind.
    let mut eng = StorageEngine::in_memory(8).unwrap();
    eng.create_table("t", &cols(&[("a", ColType::Text)]), &[])
        .unwrap();
    eng.create_index("t", 0).unwrap();
    let long = |tail: &str| format!("{}{tail}", "x".repeat(crate::btree::MAX_KEY_LEN + 50));
    eng.insert("t", &[Datum::text(&long("1"))]).unwrap();
    eng.insert("t", &[Datum::text(&long("2"))]).unwrap();
    assert!(matches!(
        eng.insert("t", &[Datum::text(&"y".repeat(5000))]),
        Err(StorageError::RecordTooLarge(_))
    ));
    assert_eq!(eng.row_count("t").unwrap(), 2);
    assert_eq!(
        eng.index_lookup("t", 0, &Datum::text(&long("2"))).unwrap(),
        vec![vec![Datum::text(&long("2"))]],
        "the shared prefix's other row is re-checked away"
    );
    let all = eng
        .index_range("t", 0, Bound::Included(&Datum::text("x")), Bound::Unbounded)
        .unwrap();
    assert_eq!(all.len(), 2);
    assert_eq!(eng.scan("t").unwrap().len(), 2);
}

#[test]
fn corrupt_page_file_errors_instead_of_panicking() {
    let path = temp_db("corrupt");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int)]), &[])
            .unwrap();
        eng.insert("t", &[Datum::Int(1)]).unwrap();
        // Checkpoint so recovery has nothing to replay: the corrupt
        // page must be *read*, not papered over by a WAL image.
        eng.checkpoint().unwrap();
    }
    // Corrupt the first slot of page 0 (system_tables): an offset
    // past the page end would read out of bounds without validation.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[24] = 0xff;
    bytes[25] = 0xff;
    std::fs::write(&path, &bytes).unwrap();
    match StorageEngine::open(&path, 8) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected Corrupt error, got {:?}", other.map(|_| "engine")),
    }
    cleanup(&path);
}

#[test]
fn contains_probes_without_materializing() {
    let eng = engine_with_empl(8, 500);
    assert!(eng.contains("empl", &[0], &[Datum::Int(3)]).unwrap());
    assert!(eng
        .contains("empl", &[0, 3], &[Datum::Int(3), Datum::Int(3)])
        .unwrap());
    assert!(!eng.contains("empl", &[0], &[Datum::Int(9999)]).unwrap());
    let before = eng.metrics().fault_ins + eng.metrics().buffer_hits;
    // Early exit: probing the very first row touches one heap page.
    assert!(eng.contains("empl", &[0], &[Datum::Int(0)]).unwrap());
    let touched = eng.metrics().fault_ins + eng.metrics().buffer_hits - before;
    assert!(touched <= 2, "existence probe touched {touched} pages");
    assert!(eng.contains("nosuch", &[0], &[Datum::Int(0)]).is_err());
}

#[test]
fn arity_mismatches_error_instead_of_panicking() {
    let mut eng = engine_with_empl(8, 3);
    assert!(matches!(
        eng.insert("empl", &[Datum::Int(1)]),
        Err(StorageError::Internal(_))
    ));
    assert!(matches!(
        eng.create_index("empl", 9),
        Err(StorageError::Internal(_))
    ));
    // With an index present, a short tuple still errors cleanly.
    eng.create_index("empl", 3).unwrap();
    assert!(eng
        .insert("empl", &[Datum::Int(1), Datum::text("x")])
        .is_err());
    assert_eq!(eng.row_count("empl").unwrap(), 3);
}

#[test]
fn drop_without_flush_still_persists() {
    let path = temp_db("dropflush");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("t", &cols(&[("a", ColType::Int)]), &[])
            .unwrap();
        eng.insert("t", &[Datum::Int(42)]).unwrap();
        // No flush(): the Drop impl must write the dirty pages back.
    }
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert_eq!(eng.scan("t").unwrap(), vec![vec![Datum::Int(42)]]);
    cleanup(&path);
}

#[test]
fn reopen_bootstraps_catalog_from_system_pages() {
    let path = temp_db("reopen");
    {
        let mut eng = StorageEngine::open(&path, 16).unwrap();
        eng.create_table(
            "empl",
            &cols(&[
                ("eno", ColType::Int),
                ("nam", ColType::Text),
                ("sal", ColType::Int),
                ("dno", ColType::Int),
            ]),
            &[],
        )
        .unwrap();
        eng.create_table(
            "dept",
            &cols(&[("dno", ColType::Int), ("fct", ColType::Text)]),
            &[],
        )
        .unwrap();
        eng.create_index("empl", 1).unwrap();
        for i in 0..700i64 {
            eng.insert("empl", &empl_row(i, &format!("p{i}"), 10_000 + i, i % 4))
                .unwrap();
        }
        eng.insert("dept", &[Datum::Int(1), Datum::text("hq")])
            .unwrap();
        eng.flush().unwrap();
    }
    let eng = StorageEngine::open(&path, 16).unwrap();
    assert_eq!(eng.table_names().collect::<Vec<_>>(), vec!["dept", "empl"]);
    let empl = eng.table("empl").unwrap();
    assert_eq!(
        empl.columns,
        cols(&[
            ("eno", ColType::Int),
            ("nam", ColType::Text),
            ("sal", ColType::Int),
            ("dno", ColType::Int),
        ])
    );
    assert_eq!(eng.row_count("empl").unwrap(), 700);
    assert_eq!(eng.row_count("dept").unwrap(), 1);
    assert!(eng.has_index("empl", 1));
    let hit = eng.index_lookup("empl", 1, &Datum::text("p456")).unwrap();
    assert_eq!(hit, vec![empl_row(456, "p456", 10_456, 0)]);
    cleanup(&path);
}

#[test]
fn reopen_after_drop_does_not_resurrect() {
    let path = temp_db("drop");
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table("keep", &cols(&[("a", ColType::Int)]), &[])
            .unwrap();
        eng.create_table("gone", &cols(&[("b", ColType::Int)]), &[])
            .unwrap();
        eng.drop_table("gone").unwrap();
        eng.flush().unwrap();
    }
    let eng = StorageEngine::open(&path, 8).unwrap();
    assert!(eng.has_table("keep"));
    assert!(!eng.has_table("gone"));
    cleanup(&path);
}

#[test]
fn update_rows_rewrites_in_place_and_maintains_indexes() {
    let mut eng = engine_with_empl(16, 500);
    eng.create_index("empl", 1).unwrap();
    eng.create_index("empl", 3).unwrap();
    // Rewrite dept 7 → 99, names to a shared value.
    let targets: Vec<(Rid, Tuple)> = eng
        .scan_rids("empl")
        .unwrap()
        .into_iter()
        .filter(|(_, t)| t[3] == Datum::Int(7))
        .map(|(rid, t)| {
            (
                rid,
                vec![
                    t[0].clone(),
                    Datum::text("bulk"),
                    t[2].clone(),
                    Datum::Int(99),
                ],
            )
        })
        .collect();
    let n = targets.len();
    assert!(n > 0);
    assert_eq!(eng.update_rows("empl", &targets).unwrap(), n);
    assert_eq!(eng.row_count("empl").unwrap(), 500);
    assert_eq!(
        eng.index_lookup("empl", 3, &Datum::Int(7)).unwrap(),
        Vec::<Tuple>::new(),
        "old postings must be gone"
    );
    let hits = eng.index_lookup("empl", 3, &Datum::Int(99)).unwrap();
    assert_eq!(hits.len(), n);
    assert!(hits.iter().all(|t| t[1] == Datum::text("bulk")));
    let by_name = eng.index_lookup("empl", 1, &Datum::text("bulk")).unwrap();
    assert_eq!(by_name.len(), n);
    // Unchanged keys kept their postings.
    assert_eq!(
        eng.index_lookup("empl", 3, &Datum::Int(6)).unwrap().len(),
        50
    );
}

#[test]
fn update_rows_relocates_grown_records_and_reposts_rids() {
    let mut eng = StorageEngine::in_memory(16).unwrap();
    eng.create_table(
        "t",
        &cols(&[("k", ColType::Int), ("pad", ColType::Text)]),
        &[],
    )
    .unwrap();
    eng.create_index("t", 0).unwrap();
    // Fill pages tightly so growth must relocate.
    for i in 0..40i64 {
        eng.insert("t", &[Datum::Int(i), Datum::text(&"x".repeat(450))])
            .unwrap();
    }
    let grown: Vec<(Rid, Tuple)> = eng
        .scan_rids("t")
        .unwrap()
        .into_iter()
        .filter(|(_, t)| t[0].as_int().unwrap() % 4 == 0)
        .map(|(rid, t)| (rid, vec![t[0].clone(), Datum::text(&"G".repeat(2500))]))
        .collect();
    eng.update_rows("t", &grown).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 40);
    for i in 0..40i64 {
        let hits = eng.index_lookup("t", 0, &Datum::Int(i)).unwrap();
        assert_eq!(hits.len(), 1, "key {i}");
        let want = if i % 4 == 0 { 2500 } else { 450 };
        assert_eq!(hits[0][1].as_text().unwrap().len(), want, "key {i}");
    }
}

#[test]
fn delete_rows_tombstones_and_unposts() {
    let mut eng = engine_with_empl(16, 300);
    eng.create_index("empl", 0).unwrap();
    let doomed: Vec<Rid> = eng
        .scan_rids("empl")
        .unwrap()
        .into_iter()
        .filter(|(_, t)| t[0].as_int().unwrap() % 3 == 0)
        .map(|(rid, _)| rid)
        .collect();
    assert_eq!(eng.delete_rows("empl", &doomed).unwrap(), 100);
    assert_eq!(eng.row_count("empl").unwrap(), 200);
    assert_eq!(eng.scan("empl").unwrap().len(), 200);
    for i in 0..300i64 {
        let hits = eng.index_lookup("empl", 0, &Datum::Int(i)).unwrap();
        assert_eq!(hits.len(), usize::from(i % 3 != 0), "eno {i}");
    }
    // Inserts after a delete land normally.
    eng.insert("empl", &empl_row(300, "back", 20_000, 1))
        .unwrap();
    assert_eq!(eng.row_count("empl").unwrap(), 201);
}

#[test]
fn aborted_update_and_delete_roll_back_cleanly() {
    let mut eng = engine_with_empl(16, 50);
    eng.create_index("empl", 3).unwrap();
    let all = eng.scan_rids("empl").unwrap();
    eng.begin().unwrap();
    let upd: Vec<(Rid, Tuple)> = all
        .iter()
        .take(10)
        .map(|(rid, t)| {
            (
                *rid,
                vec![t[0].clone(), t[1].clone(), t[2].clone(), Datum::Int(77)],
            )
        })
        .collect();
    eng.update_rows("empl", &upd).unwrap();
    let doomed: Vec<Rid> = all.iter().skip(10).take(5).map(|(rid, _)| *rid).collect();
    eng.delete_rows("empl", &doomed).unwrap();
    assert_eq!(eng.row_count("empl").unwrap(), 45);
    eng.abort();
    assert_eq!(eng.row_count("empl").unwrap(), 50);
    assert_eq!(eng.scan("empl").unwrap().len(), 50);
    assert_eq!(
        eng.index_lookup("empl", 3, &Datum::Int(77)).unwrap(),
        Vec::<Tuple>::new(),
        "aborted postings must be gone"
    );
    for d in 0..10i64 {
        assert_eq!(
            eng.index_lookup("empl", 3, &Datum::Int(d)).unwrap().len(),
            5,
            "dept {d} postings must be restored"
        );
    }
}

/// The heap page count the planner weighs probes against follows the
/// chain: it grows with inserts and relocations, rolls back with the
/// descriptor on abort, resets on truncate, and is recounted on reopen.
#[test]
fn heap_pages_track_the_chain_through_abort_truncate_and_reopen() {
    let path = temp_db("heappages");
    let committed = {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        eng.create_table(
            "t",
            &cols(&[("k", ColType::Int), ("pad", ColType::Text)]),
            &[],
        )
        .unwrap();
        assert_eq!(eng.heap_pages("t").unwrap(), 1);
        let pad = "p".repeat(500);
        for k in 0..40 {
            eng.insert("t", &[Datum::Int(k), Datum::text(&pad)])
                .unwrap();
        }
        let committed = eng.heap_pages("t").unwrap();
        assert!(committed >= 5, "{committed} pages");
        eng.begin().unwrap();
        for k in 40..80 {
            eng.insert("t", &[Datum::Int(k), Datum::text(&pad)])
                .unwrap();
        }
        assert!(eng.heap_pages("t").unwrap() > committed);
        eng.abort();
        assert_eq!(eng.heap_pages("t").unwrap(), committed, "rolled back");
        eng.flush().unwrap();
        committed
    };
    {
        let mut eng = StorageEngine::open(&path, 8).unwrap();
        assert_eq!(
            eng.heap_pages("t").unwrap(),
            committed,
            "recounted on reopen"
        );
        eng.truncate("t").unwrap();
        assert_eq!(eng.heap_pages("t").unwrap(), 1);
    }
    cleanup(&path);
}

#[test]
fn updates_and_deletes_survive_crash_recovery() {
    let path = temp_db("dml");
    {
        let mut eng = StorageEngine::open(&path, 16).unwrap();
        eng.create_table(
            "t",
            &cols(&[("a", ColType::Int), ("b", ColType::Text)]),
            &[],
        )
        .unwrap();
        eng.create_index("t", 0).unwrap();
        for i in 0..60i64 {
            eng.insert("t", &[Datum::Int(i), Datum::text("v")]).unwrap();
        }
        let rids = eng.scan_rids("t").unwrap();
        let upd: Vec<(Rid, Tuple)> = rids
            .iter()
            .filter(|(_, t)| t[0].as_int().unwrap() < 20)
            .map(|(rid, t)| (*rid, vec![t[0].clone(), Datum::text("updated")]))
            .collect();
        eng.update_rows("t", &upd).unwrap();
        let doomed: Vec<Rid> = rids
            .iter()
            .filter(|(_, t)| t[0].as_int().unwrap() >= 50)
            .map(|(rid, _)| *rid)
            .collect();
        eng.delete_rows("t", &doomed).unwrap();
        eng.simulate_crash();
    }
    let eng = StorageEngine::open(&path, 16).unwrap();
    assert_eq!(eng.row_count("t").unwrap(), 50);
    let rows = eng.scan("t").unwrap();
    assert_eq!(
        rows.iter()
            .filter(|t| t[1] == Datum::text("updated"))
            .count(),
        20
    );
    for i in 0..60i64 {
        let hits = eng.index_lookup("t", 0, &Datum::Int(i)).unwrap();
        assert_eq!(hits.len(), usize::from(i < 50), "key {i} after recovery");
    }
    cleanup(&path);
}

// -----------------------------------------------------------------
// WAL / transaction tests
// -----------------------------------------------------------------

#[test]
fn index_range_matches_scan_filter() {
    let mut eng = engine_with_empl(16, 500);
    eng.create_index("empl", 2).unwrap();
    let via_range = eng
        .index_range(
            "empl",
            2,
            Bound::Included(&Datum::Int(10_100)),
            Bound::Excluded(&Datum::Int(10_120)),
        )
        .unwrap();
    let via_scan: Vec<Tuple> = eng
        .scan("empl")
        .unwrap()
        .into_iter()
        .filter(|t| t[2] >= Datum::Int(10_100) && t[2] < Datum::Int(10_120))
        .collect();
    assert_eq!(via_range.len(), via_scan.len());
    assert_eq!(via_range.len(), 20);
    assert!(eng
        .index_range("empl", 1, Bound::Unbounded, Bound::Unbounded)
        .is_err());
}
