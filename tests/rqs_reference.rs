//! Property test: the RQS planner/executor against a brute-force
//! reference evaluator.
//!
//! The planner chooses join orders, pushes restrictions into scans and
//! switches between hash and nested-loop joins; none of that may change
//! the result. The reference here evaluates the same SELECT by enumerating
//! the full cross product and filtering — obviously correct, obviously
//! slow — over randomly generated tables and conjunctive queries, on the
//! paged engine. Single-table UPDATE and DELETE are held to a plain
//! `Vec<Vec<Datum>>` model of the table the same way, with and without
//! indexes on the predicated columns: the engine-independent reference
//! for DML.

use proptest::prelude::*;
use rqs::{Database, Datum};

#[derive(Debug, Clone)]
struct TestData {
    r_rows: Vec<(i64, i64, String)>,
    s_rows: Vec<(i64, String)>,
}

fn datum_int(i: i64) -> Datum {
    Datum::Int(i)
}

/// Buffer-pool frames of the engine under test: 16 by default, pinned
/// by `RQS_TEST_POOL_FRAMES` (CI's pool-pressure step sets the 8-frame
/// floor) — the rule `tests/backend_differential.rs` uses.
fn pool_frames() -> usize {
    std::env::var("RQS_TEST_POOL_FRAMES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn load(data: &TestData) -> Database {
    let mut db = Database::paged(pool_frames()).expect("paged database");
    db.execute("CREATE TABLE r (a INT, b INT, c TEXT)").unwrap();
    db.execute("CREATE TABLE s (b INT, d TEXT)").unwrap();
    for (a, b, c) in &data.r_rows {
        db.execute(&format!("INSERT INTO r VALUES ({a}, {b}, '{c}')"))
            .unwrap();
    }
    for (b, d) in &data.s_rows {
        db.execute(&format!("INSERT INTO s VALUES ({b}, '{d}')"))
            .unwrap();
    }
    db
}

/// One conjunct of the generated WHERE clause, in both executable and
/// reference form.
#[derive(Debug, Clone)]
enum Cond {
    /// r.a OP k
    RestrictA(&'static str, i64),
    /// r.b = s.b (the equijoin)
    Join,
    /// r.b OP s.b (inequality join)
    ThetaJoin(&'static str),
    /// s.d = 'tk'
    RestrictD(String),
}

impl Cond {
    fn sql(&self) -> String {
        match self {
            Cond::RestrictA(op, k) => format!("(v1.a {op} {k})"),
            Cond::Join => "(v1.b = v2.b)".to_owned(),
            Cond::ThetaJoin(op) => format!("(v1.b {op} v2.b)"),
            Cond::RestrictD(d) => format!("(v2.d = '{d}')"),
        }
    }

    fn eval(&self, r: &(i64, i64, String), s: &(i64, String)) -> bool {
        match self {
            Cond::RestrictA(op, k) => cmp(op, r.0, *k),
            Cond::Join => r.1 == s.0,
            Cond::ThetaJoin(op) => cmp(op, r.1, s.0),
            Cond::RestrictD(d) => &s.1 == d,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = &'static str> + Clone {
    prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just(">"),
        Just("<="),
        Just(">=")
    ]
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    let ops = op_strategy();
    prop_oneof![
        (ops.clone(), 0i64..6).prop_map(|(op, k)| Cond::RestrictA(op, k)),
        Just(Cond::Join),
        ops.prop_map(Cond::ThetaJoin),
        "[xyz]".prop_map(Cond::RestrictD),
    ]
}

fn data_strategy() -> impl Strategy<Value = TestData> {
    let r_row = (0i64..6, 0i64..6, "[xyz]");
    let s_row = (0i64..6, "[xyz]");
    (
        proptest::collection::vec(r_row, 0..12),
        proptest::collection::vec(s_row, 0..8),
    )
        .prop_map(|(r_rows, s_rows)| TestData { r_rows, s_rows })
}

fn cmp(op: &str, x: i64, y: i64) -> bool {
    match op {
        "=" => x == y,
        "<>" => x != y,
        "<" => x < y,
        ">" => x > y,
        "<=" => x <= y,
        ">=" => x >= y,
        _ => unreachable!("generator emits known ops"),
    }
}

/// `col OP k` on column `col` (0 = `a`, 1 = `b`) of the DML table.
#[derive(Debug, Clone)]
struct Pred(usize, &'static str, i64);

/// One single-table DML statement on `t (a INT, b INT, pad TEXT)`.
#[derive(Debug, Clone)]
enum Dml {
    /// `UPDATE t SET a = k WHERE …`
    SetA(i64, Vec<Pred>),
    /// `UPDATE t SET b = b + k WHERE …` (`b - |k|` for a negative `k`)
    AddB(i64, Vec<Pred>),
    /// `DELETE FROM t WHERE …`
    Delete(Vec<Pred>),
}

const DML_COLS: [&str; 2] = ["a", "b"];

impl Dml {
    fn sql(&self) -> String {
        let filter = |preds: &[Pred]| {
            let conds: Vec<String> = preds
                .iter()
                .map(|Pred(col, op, k)| format!("{} {op} {k}", DML_COLS[*col]))
                .collect();
            format!("WHERE {}", conds.join(" AND "))
        };
        match self {
            Dml::SetA(k, preds) => format!("UPDATE t SET a = {k} {}", filter(preds)),
            Dml::AddB(k, preds) if *k < 0 => {
                format!("UPDATE t SET b = b - {} {}", -k, filter(preds))
            }
            Dml::AddB(k, preds) => format!("UPDATE t SET b = b + {k} {}", filter(preds)),
            Dml::Delete(preds) => format!("DELETE FROM t {}", filter(preds)),
        }
    }

    /// Applies the statement to the model, returning the rows affected.
    fn apply(&self, model: &mut Vec<Vec<Datum>>) -> usize {
        match self {
            Dml::SetA(k, preds) => update(model, preds, 0, |_| *k),
            Dml::AddB(k, preds) => update(model, preds, 1, |b| b + k),
            Dml::Delete(preds) => {
                let before = model.len();
                model.retain(|row| !satisfies(row, preds));
                before - model.len()
            }
        }
    }
}

fn int(d: &Datum) -> i64 {
    d.as_int().expect("int column")
}

fn satisfies(row: &[Datum], preds: &[Pred]) -> bool {
    preds
        .iter()
        .all(|Pred(col, op, k)| cmp(op, int(&row[*col]), *k))
}

/// Rewrites `col` of every model row satisfying `preds` with `f` of its
/// old value, returning how many rows that was.
fn update(model: &mut [Vec<Datum>], preds: &[Pred], col: usize, f: impl Fn(i64) -> i64) -> usize {
    let mut affected = 0;
    for row in model.iter_mut().filter(|row| satisfies(row, preds)) {
        row[col] = datum_int(f(int(&row[col])));
        affected += 1;
    }
    affected
}

fn preds_strategy() -> impl Strategy<Value = Vec<Pred>> {
    let pred = (0usize..2, op_strategy(), 0i64..6).prop_map(|(col, op, k)| Pred(col, op, k));
    proptest::collection::vec(pred, 1..3)
}

fn dml_strategy() -> impl Strategy<Value = Dml> {
    prop_oneof![
        (0i64..6, preds_strategy()).prop_map(|(k, p)| Dml::SetA(k, p)),
        (-2i64..3, preds_strategy()).prop_map(|(k, p)| Dml::AddB(k, p)),
        preds_strategy().prop_map(Dml::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planner + executor ≡ cross-product-and-filter, including DISTINCT.
    #[test]
    fn executor_matches_reference(
        data in data_strategy(),
        conds in proptest::collection::vec(cond_strategy(), 0..4),
        distinct in proptest::bool::ANY,
    ) {
        let mut db = load(&data);
        let where_clause = if conds.is_empty() {
            String::new()
        } else {
            format!(
                " WHERE {}",
                conds.iter().map(Cond::sql).collect::<Vec<_>>().join(" AND ")
            )
        };
        let sql = format!(
            "SELECT {}v1.a, v2.b FROM r v1, s v2{where_clause}",
            if distinct { "DISTINCT " } else { "" }
        );
        let got = db.execute(&sql).unwrap();

        // Reference: enumerate the cross product.
        let mut expected: Vec<Vec<Datum>> = Vec::new();
        for r in &data.r_rows {
            for s in &data.s_rows {
                if conds.iter().all(|c| c.eval(r, s)) {
                    expected.push(vec![datum_int(r.0), datum_int(s.0)]);
                }
            }
        }
        if distinct {
            let mut seen = std::collections::HashSet::new();
            expected.retain(|row| seen.insert(row.clone()));
        }
        // Row multisets must agree (order is planner-dependent).
        let mut got_rows = got.rows.clone();
        let mut expected_rows = expected;
        got_rows.sort();
        expected_rows.sort();
        prop_assert_eq!(got_rows, expected_rows, "query: {}", sql);
    }

    /// UNION of two generated queries ≡ set union of their references.
    #[test]
    fn union_matches_reference(
        data in data_strategy(),
        k1 in 0i64..6,
        k2 in 0i64..6,
    ) {
        let mut db = load(&data);
        let sql = format!(
            "SELECT v1.a, v1.b FROM r v1 WHERE v1.a < {k1}
             UNION SELECT v2.a, v2.b FROM r v2 WHERE v2.b > {k2}"
        );
        let got = db.execute(&sql).unwrap();
        let mut expected: Vec<Vec<Datum>> = Vec::new();
        for r in &data.r_rows {
            if r.0 < k1 || r.1 > k2 {
                expected.push(vec![datum_int(r.0), datum_int(r.1)]);
            }
        }
        let mut seen = std::collections::HashSet::new();
        expected.retain(|row| seen.insert(row.clone()));
        let mut got_rows = got.rows.clone();
        got_rows.sort();
        expected.sort();
        prop_assert_eq!(got_rows, expected, "query: {}", sql);
    }

    /// NOT IN subqueries ≡ reference set complement.
    #[test]
    fn not_in_matches_reference(
        data in data_strategy(),
        negated in proptest::bool::ANY,
    ) {
        let mut db = load(&data);
        let not = if negated { "NOT " } else { "" };
        let sql = format!(
            "SELECT v1.a FROM r v1 WHERE v1.b {not}IN (SELECT v2.b FROM s v2)"
        );
        let got = db.execute(&sql).unwrap();
        let s_set: std::collections::HashSet<i64> =
            data.s_rows.iter().map(|(b, _)| *b).collect();
        let mut expected: Vec<Vec<Datum>> = data
            .r_rows
            .iter()
            .filter(|r| s_set.contains(&r.1) != negated)
            .map(|r| vec![datum_int(r.0)])
            .collect();
        let mut got_rows = got.rows.clone();
        got_rows.sort();
        expected.sort();
        prop_assert_eq!(got_rows, expected, "query: {}", sql);
    }

    /// UPDATE and DELETE ≡ the same statements applied to a plain
    /// `Vec<Vec<Datum>>` model, statement by statement: the rows each
    /// one affected and the whole table after it. The padded rows span
    /// several pages, so a predicate on an indexed column is read
    /// through the index.
    #[test]
    fn update_delete_match_reference(
        rows in proptest::collection::vec((0i64..6, 0i64..6), 20..60),
        index_a in proptest::bool::ANY,
        index_b in proptest::bool::ANY,
        statements in proptest::collection::vec(dml_strategy(), 1..8),
    ) {
        let pad = "p".repeat(300);
        let mut db = Database::paged(pool_frames()).expect("paged database");
        db.execute("CREATE TABLE t (a INT, b INT, pad TEXT)").unwrap();
        let mut model: Vec<Vec<Datum>> = Vec::new();
        for (a, b) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({a}, {b}, '{pad}')")).unwrap();
            model.push(vec![datum_int(*a), datum_int(*b), Datum::text(&pad)]);
        }
        for (col, on) in [("a", index_a), ("b", index_b)] {
            if on {
                db.execute(&format!("CREATE INDEX ON t ({col})")).unwrap();
            }
        }
        for dml in &statements {
            let sql = dml.sql();
            let got = db.execute(&sql).unwrap();
            prop_assert_eq!(got.affected, dml.apply(&mut model), "affected by {}", sql);
            let mut table = db.execute("SELECT v.a, v.b, v.pad FROM t v").unwrap().rows;
            table.sort();
            let mut expected = model.clone();
            expected.sort();
            prop_assert_eq!(table, expected, "table after {}", sql);
        }
    }
}
