//! Property test: the RQS planner/executor against a brute-force
//! reference evaluator.
//!
//! The planner chooses join orders, pushes restrictions into scans and
//! switches between hash and nested-loop joins; none of that may change
//! the result. The reference here evaluates the same SELECT by enumerating
//! the full cross product and filtering — obviously correct, obviously
//! slow — over randomly generated tables and conjunctive queries, on the
//! paged engine.

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
        match self {
            Cond::RestrictA(op, k) => cmp(op, r.0, *k),
            Cond::Join => r.1 == s.0,
            Cond::ThetaJoin(op) => cmp(op, r.1, s.0),
            Cond::RestrictD(d) => &s.1 == d,
        }
    }
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    let ops = prop_oneof![
        Just("="),
        Just("<>"),
        Just("<"),
        Just(">"),
        Just("<="),
        Just(">=")
    ];
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
}
