//! Texts longer than a B+-tree key: an index stores their cut prefix,
//! and every point and range read through it must answer exactly what a
//! filtered full scan answers — on a fresh table, inside and after a
//! rolled-back transaction, and after a reopen.

use super::*;
use crate::btree::MAX_KEY_LEN;
use proptest::prelude::*;
use std::ops::RangeBounds;

/// Chars of 1 to 4 bytes, so a cut can land inside any of them.
const CHARS: [char; 4] = ['a', 'é', '€', '𝄞'];

/// Bytes of text a key holds whole (the key's tag and length aside).
const KEY_TEXT: usize = MAX_KEY_LEN - 5;

/// A text of at least `len` bytes drawn from [`CHARS`] by `seed`.
fn text(mut seed: u64, len: usize) -> String {
    let mut s = String::new();
    while s.len() < len {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        s.push(CHARS[(seed >> 33) as usize % CHARS.len()]);
    }
    s
}

/// One generated value: the shared prefix cut back by `back` bytes (on
/// a char boundary), then a tail of about `tail` bytes.
fn value(shared: &str, (back, tail, seed): (usize, usize, u64)) -> String {
    let head = &shared[..shared.floor_char_boundary(shared.len() - back)];
    format!("{head}{}", text(seed, tail))
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// The bound of kind `kind` (included, excluded, unbounded) on `key`.
fn bound(kind: usize, key: &Datum) -> Bound<&Datum> {
    match kind % 3 {
        0 => Bound::Included(key),
        1 => Bound::Excluded(key),
        _ => Bound::Unbounded,
    }
}

/// Every `Eq` probe and a spread of ranges over `probes` (every pair of
/// bound kinds among them), each against the same question asked of a
/// full scan.
fn agrees_with_scan(
    eng: &StorageEngine,
    probes: &[Datum],
    phase: &str,
) -> Result<(), TestCaseError> {
    let rows = eng.scan("t").unwrap();
    let scan = |keep: &dyn Fn(&Datum) -> bool| {
        sorted(rows.iter().filter(|t| keep(&t[0])).cloned().collect())
    };
    for key in probes {
        let got = sorted(eng.index_lookup("t", 0, key).unwrap());
        let want = scan(&|v| v == key);
        prop_assert_eq!(got.len(), want.len(), "{}: = {:?}", phase, key);
        prop_assert_eq!(got, want, "{}: = {:?}", phase, key);
    }
    for (i, lo) in probes.iter().enumerate() {
        let hi = &probes[(i * 7 + 3) % probes.len()];
        let (lower, upper) = (bound(i, lo), bound(i / 3, hi));
        let got = sorted(eng.index_range("t", 0, lower, upper).unwrap());
        let want = scan(&|v| (lower, upper).contains(v));
        prop_assert_eq!(
            got.len(),
            want.len(),
            "{}: {:?} .. {:?}",
            phase,
            lower,
            upper
        );
        prop_assert_eq!(got, want, "{}: {:?} .. {:?}", phase, lower, upper);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cut_prefix_keys_answer_like_a_filtered_scan(
        shared_len in (KEY_TEXT - 10)..(KEY_TEXT + 8),
        seed in 0u64..1_000_000,
        shapes in proptest::collection::vec((0usize..8, 0usize..10, 0u64..6), 6..20),
        churn in proptest::collection::vec((0usize..8, 0usize..10, 0u64..6), 1..6),
    ) {
        let shared = text(seed, shared_len);
        let values: Vec<String> = shapes.iter().map(|&s| value(&shared, s)).collect();
        let added: Vec<String> = churn.iter().map(|&s| value(&shared, s)).collect();
        // Probes: every stored and every added value, plus bounds cut
        // short, a bound past every value and one below them all.
        let mut probes: Vec<Datum> = values
            .iter()
            .chain(&added)
            .map(|v| Datum::text(v))
            .collect();
        probes.push(Datum::text(&shared[..shared.floor_char_boundary(KEY_TEXT - 3)]));
        probes.push(Datum::text(&format!("{shared}{}", '\u{10FFFF}')));
        probes.push(Datum::text("a"));

        let path = temp_db("prefix-keys");
        {
            let mut eng = StorageEngine::open(&path, 16).unwrap();
            eng.create_table("t", &cols(&[("k", ColType::Text), ("n", ColType::Int)]))
                .unwrap();
            eng.create_index("t", 0).unwrap();
            for (n, v) in values.iter().enumerate() {
                eng.insert("t", &[Datum::text(v), Datum::Int(n as i64)]).unwrap();
            }
            agrees_with_scan(&eng, &probes, "loaded")?;
            let committed = sorted(eng.scan("t").unwrap());

            // Inside a transaction that adds, deletes and re-keys rows,
            // then after its rollback.
            eng.begin().unwrap();
            for v in &added {
                eng.insert("t", &[Datum::text(v), Datum::Int(-1)]).unwrap();
            }
            let rows = eng.scan_rids("t").unwrap();
            let doomed: Vec<Rid> = rows.iter().step_by(3).map(|(rid, _)| *rid).collect();
            let rekeyed: Vec<(Rid, Tuple)> = rows
                .iter()
                .skip(1)
                .step_by(3)
                .map(|(rid, t)| (*rid, vec![Datum::text(&added[0]), t[1].clone()]))
                .collect();
            eng.delete_rows("t", &doomed).unwrap();
            eng.update_rows("t", &rekeyed).unwrap();
            agrees_with_scan(&eng, &probes, "inside a transaction")?;
            eng.abort();
            prop_assert_eq!(sorted(eng.scan("t").unwrap()), committed);
            agrees_with_scan(&eng, &probes, "rolled back")?;
        }
        let eng = StorageEngine::open(&path, 16).unwrap();
        agrees_with_scan(&eng, &probes, "reopened")?;
        drop(eng);
        cleanup(&path);
    }
}
