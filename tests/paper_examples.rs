//! End-to-end reproduction of every worked example in the paper.
//!
//! Each test is named after its example number; together they are the
//! "tables" of this 1984 paper, whose evaluation is qualitative.

use prolog_front_end::coupling::Coupler;
use prolog_front_end::dbcl::{ConstraintSet, DatabaseDef, DbclQuery};
use prolog_front_end::metaeval::{views, MetaEvaluator};
use prolog_front_end::optimizer::{Simplifier, SimplifyOutcome};
use prolog_front_end::pfe_core::{Datum, Session};
use prolog_front_end::sqlgen::mapping::{translate, MappingOptions};

fn little_firm_session() -> Session {
    let mut s = Session::empdep();
    s.load_empl(&[
        (1, "control", 80_000, 10),
        (2, "smiley", 60_000, 10),
        (3, "jones", 30_000, 20),
        (4, "miller", 25_000, 20),
        (5, "leamas", 35_000, 20),
    ])
    .unwrap();
    s.load_dept(&[(10, "hq", 1), (20, "field", 2)]).unwrap();
    s.check_integrity().unwrap();
    s
}

/// Example 3-1/3-2: the empdep schema and constraint base.
#[test]
fn example_3_1_schema_and_3_2_constraints() {
    let db = DatabaseDef::empdep();
    let schema: Vec<String> = db.schema_list().iter().map(ToString::to_string).collect();
    assert_eq!(schema, ["empdep", "eno", "nam", "sal", "dno", "fct", "mgr"]);
    let cs = ConstraintSet::empdep();
    cs.validate(&db).unwrap();
    assert_eq!(cs.bounds.len(), 1);
    assert_eq!(cs.fds.len(), 4);
    assert_eq!(cs.refints.len(), 2);
}

/// Example 3-3: "who works directly for Smiley for less than 40000?"
/// metaevaluates into the 4-row tableau with the `less` comparison.
#[test]
fn example_3_3_dbcl_representation() {
    let mut engine = prolog::Engine::new();
    engine.consult(views::WORKS_DIR_FOR).unwrap();
    let db = DatabaseDef::empdep();
    let meta = MetaEvaluator::new(engine.kb(), &db);
    let out = meta
        .metaevaluate(
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 40000)",
            "works_dir_for",
        )
        .unwrap();
    let q = &out.branches[0].query;
    q.validate(&db).unwrap();
    assert_eq!(q.rows.len(), 4);
    let relations: Vec<&str> = q.rows.iter().map(|r| r.relation.as_str()).collect();
    assert_eq!(relations, ["empl", "dept", "empl", "empl"]);
    assert_eq!(q.comparisons.len(), 1);
    assert_eq!(q.comparisons[0].op, prolog_front_end::dbcl::CompOp::Less);
}

/// Example 4-1: the partner query resolves partly in the database, partly
/// in Prolog, and metaevaluate is effectively evaluated once (cached).
#[test]
fn example_4_1_partner_flow() {
    let mut s = little_firm_session();
    s.consult(views::SAME_MANAGER).unwrap();
    s.consult(
        "specialist(jones, guns). specialist(miller, driving). specialist(smiley, thinking).",
    )
    .unwrap();
    let run = s
        .query(
            "same_manager(t_X, jones), specialist(t_X, driving)",
            "partner",
        )
        .unwrap();
    assert_eq!(run.answers.len(), 1);
    assert_eq!(run.answers[0]["X"], Datum::text("miller"));
    // Second ask: served from the internal cache, no SQL.
    let again = s
        .query(
            "same_manager(t_X, jones), specialist(t_X, driving)",
            "partner",
        )
        .unwrap();
    assert!(again.branches[0].cache_hit);
}

/// Example 5-1: direct translation of same_manager(t_X, jones) — six FROM
/// variables, the five join terms and both restrictions of the paper.
#[test]
fn example_5_1_direct_sql() {
    let db = DatabaseDef::empdep();
    let sql = translate(&DbclQuery::example_4_1(), &db, MappingOptions::default()).unwrap();
    let text = sql.to_sql();
    assert_eq!(sql.from.len(), 6);
    assert_eq!(sql.join_term_count(), 5);
    for cond in [
        "(v1.dno = v2.dno)",
        "(v2.mgr = v3.eno)",
        "(v4.dno = v5.dno)",
        "(v5.mgr = v6.eno)",
        "(v4.nam = 'jones')",
        "(v3.nam = v6.nam)",
        "(v1.nam <> 'jones')",
    ] {
        assert!(text.contains(cond), "missing {cond} in:\n{text}");
    }
}

/// Example 6-1: the chase equates v_Eno4 with v_Eno1 and removes a row
/// from the Example 3-3 query, renaming the comparison consistently.
#[test]
fn example_6_1_chase() {
    let db = DatabaseDef::empdep();
    let cs = ConstraintSet::empdep();
    let mut q = DbclQuery::example_3_3();
    match prolog_front_end::optimizer::chase::chase(&mut q, &db, &cs) {
        prolog_front_end::optimizer::chase::ChaseOutcome::Done(stats) => {
            assert_eq!(stats.rows_removed, 1);
            assert_eq!(q.rows.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Comparison now addresses v_Sal1 (the surviving row's salary).
    assert_eq!(
        q.comparisons[0].lhs,
        prolog_front_end::dbcl::Operand::Sym(prolog_front_end::dbcl::Symbol::var("Sal1"))
    );
}

/// Example 6-2: the full Algorithm-2 run — 6 rows → 2 rows, 5 joins → 1,
/// and the final SQL matches the paper's.
#[test]
fn example_6_2_full_simplification() {
    let db = DatabaseDef::empdep();
    let cs = ConstraintSet::empdep();
    let outcome = Simplifier::new(&db, &cs).simplify(DbclQuery::example_4_1());
    let SimplifyOutcome::Simplified(q, stats) = outcome else {
        panic!("empty")
    };
    assert_eq!(q.rows.len(), 2);
    assert_eq!(stats.rows_removed(), 4);
    let sql = translate(&q, &db, MappingOptions::default()).unwrap();
    assert_eq!(sql.join_term_count(), 1);
    let text = sql.to_sql();
    assert!(text.contains("FROM empl v1, empl v2"), "{text}");
    assert!(text.contains("(v1.dno = v2.dno)"), "{text}");
    assert!(text.contains("(v2.nam = 'jones')"), "{text}");
    assert!(text.contains("(v1.nam <> 'jones')"), "{text}");
}

/// Example 6-2 semantics: "who works for the same manager as jones" ≡
/// "who works in the same department as jones" — on actual data, with and
/// without optimization.
#[test]
fn example_6_2_answers_agree_on_data() {
    let mut s = little_firm_session();
    s.consult(views::SAME_MANAGER).unwrap();
    s.config_mut().cache = false;
    let optimized = s.query("same_manager(t_X, jones)", "same_manager").unwrap();
    s.config_mut().optimize = false;
    let direct = s.query("same_manager(t_X, jones)", "same_manager").unwrap();
    let names = |run: &prolog_front_end::pfe_core::QueryRun| {
        let mut v: Vec<String> = run
            .answers
            .iter()
            .map(|a| a["X"].as_text().unwrap().to_owned())
            .collect();
        v.sort();
        v
    };
    assert_eq!(names(&optimized), ["leamas", "miller"]);
    assert_eq!(names(&optimized), names(&direct));
    // The optimizer saved 4 of 5 joins.
    assert_eq!(direct.total_metrics().joins, 5);
    assert_eq!(optimized.total_metrics().joins, 1);
    // A default session runs on the paged engine the server and the
    // benchmark run on, so its goals read pages.
    let io = optimized.total_metrics();
    assert!(io.page_reads + io.buffer_hits > 0, "{io:?}");
}

/// Example 7-1: naive sequence shapes — step k addresses 3(k+1) relations
/// before optimization; the per-step queries grow while the stored-
/// intermediate strategy's stay constant.
#[test]
fn example_7_1_query_growth() {
    let mut c = Coupler::empdep();
    c.consult(views::WORKS_FOR).unwrap();
    for (eno, nam, sal, dno) in [
        (1, "e1", 80_000, 1),
        (2, "e2", 60_000, 1),
        (3, "e3", 30_000, 2),
    ] {
        c.load_tuple(
            "empl",
            &[
                Datum::Int(eno),
                Datum::text(nam),
                Datum::Int(sal),
                Datum::Int(dno),
            ],
        )
        .unwrap();
    }
    for (dno, fct, mgr) in [(1, "hq", 1), (2, "field", 2)] {
        c.load_tuple(
            "dept",
            &[Datum::Int(dno), Datum::text(fct), Datum::Int(mgr)],
        )
        .unwrap();
    }
    c.check_integrity().unwrap();
    // Disable optimization to observe the raw naive growth of the paper.
    c.config.optimize = false;
    c.config.cache = false;
    c.config.unfold.max_recursion_depth = 3;
    let run = c.query("works_for(t_People, 'e1')", "works_for").unwrap();
    let sizes: Vec<usize> = run
        .branches
        .iter()
        .map(|b| b.dbcl_initial.rows.len())
        .collect();
    assert_eq!(sizes, [3, 6, 9]);
    assert!(run.recursive);
    assert!(run.truncated);
    let mut people: Vec<String> = run
        .answers
        .iter()
        .map(|a| a["People"].as_text().unwrap().to_owned())
        .collect();
    people.sort();
    assert_eq!(people, ["e1", "e2", "e3"]);
}

/// §6.1: the two value-bound scenarios from the running text.
#[test]
fn section_6_1_value_bounds() {
    let mut s = little_firm_session();
    s.consult(views::WORKS_DIR_FOR).unwrap();
    // 200000: redundant, dropped; query still runs and answers.
    let generous = s
        .query(
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 200000)",
            "q1",
        )
        .unwrap();
    assert!(generous.branches[0].simplify_stats.comparisons_removed >= 1);
    assert_eq!(generous.answers.len(), 3);
    let sql = generous.branches[0].sql.as_ref().unwrap();
    assert!(!sql.contains("200000"), "bound survived: {sql}");
    // 2000: contradiction, provably empty, no SQL.
    let impossible = s
        .query(
            "works_dir_for(t_X, smiley), empl(E, t_X, S, D), less(S, 2000)",
            "q2",
        )
        .unwrap();
    assert!(impossible.answers.is_empty());
    assert!(impossible.branches[0].sql.is_none());
}
