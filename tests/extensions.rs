//! The §7 extensions, end to end: disjunction (X1), negation (X2),
//! embedded predicates (X3) and answer reuse across queries (X4).

use prolog_front_end::coupling::Coupler;
use prolog_front_end::dbcl::{DatabaseDef, DbclQuery, DbclStatement};
use prolog_front_end::metaeval::views;
use prolog_front_end::pfe_core::{Datum, Session};
use prolog_front_end::sqlgen::dnf::generate_dnf_union_sql;
use prolog_front_end::sqlgen::mapping::MappingOptions;
use prolog_front_end::sqlgen::negation::translate_with_negation;

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

/// X1 — disjunction through DNF: one query per branch, results unioned.
#[test]
fn x1_disjunction_dnf_union() {
    let mut s = little_firm_session();
    let cheap = DbclQuery::parse(
        "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
              [v, *, t_X, *, *, *, *],
              [[empl, v_E, t_X, v_S, v_D, *, *]],
              [[less, v_S, 28000]])",
    )
    .unwrap();
    let hq = DbclQuery::parse(
        "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
              [v, *, t_X, *, *, *, *],
              [[empl, v_E, t_X, v_S, v_D, *, *],
               [dept, *, *, *, v_D, hq, v_M]],
              [])",
    )
    .unwrap();
    let stmt =
        DbclStatement::Disjunction(vec![DbclStatement::Query(cheap), DbclStatement::Query(hq)]);
    let union_sql = generate_dnf_union_sql(
        &stmt,
        &DatabaseDef::empdep(),
        MappingOptions {
            first_var_index: 1,
            distinct: true,
        },
    )
    .unwrap();
    let result = s.coupler_mut().rqs.execute(&union_sql).unwrap();
    let mut names: Vec<String> = result.rows.iter().map(|r| r[0].to_string()).collect();
    names.sort();
    // miller (cheap) ∪ {control, smiley} (hq).
    assert_eq!(names, ["'control'", "'miller'", "'smiley'"]);
}

/// X1 through the Prolog route: a two-clause view is a disjunction.
#[test]
fn x1_disjunctive_view_through_pipeline() {
    let mut s = little_firm_session();
    s.consult(
        "target_group(X) :- empl(_, X, S, _), less(S, 28000).
         target_group(X) :- empl(_, X, _, D), dept(D, hq, _).",
    )
    .unwrap();
    let run = s.query("target_group(t_X)", "target_group").unwrap();
    let mut names: Vec<String> = run.answers.iter().map(|a| a["X"].to_string()).collect();
    names.sort();
    assert_eq!(names, ["'control'", "'miller'", "'smiley'"]);
    assert_eq!(run.branches.len(), 2);
}

/// X2 — negation via NOT IN: §7's manager example. "Should the query
/// not(manager(jones, M)) return all managers who do not manage Jones?"
/// — the interpretation the paper resolves with NOT IN.
#[test]
fn x2_negation_not_in() {
    let mut s = little_firm_session();
    // Managers (by employee number) that manage some department…
    let managers = DbclQuery::parse(
        "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
              [m, t_M, *, *, *, *, *],
              [[empl, t_M, v_N, v_S, v_D, *, *],
               [dept, *, *, *, v_D2, v_F, t_M]],
              [])",
    )
    .unwrap();
    // …minus those managing Jones' department.
    let manages_jones = DbclQuery::parse(
        "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
              [mj, t_M, *, *, *, *, *],
              [[empl, v_E, jones, v_S, v_D, *, *],
               [dept, *, *, *, v_D, v_F, t_M]],
              [])",
    )
    .unwrap();
    let sql = translate_with_negation(
        &managers,
        &manages_jones,
        &DatabaseDef::empdep(),
        MappingOptions {
            first_var_index: 1,
            distinct: true,
        },
    )
    .unwrap();
    let result = s.coupler_mut().rqs.execute(&sql.to_sql()).unwrap();
    // control (eno 1) manages hq but not jones; smiley (eno 2) manages jones.
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0][0], Datum::Int(1));
}

/// X3 — embedded general predicates: evaluated stepwise inside Prolog
/// after the database answers arrive, including arithmetic the DBMS never
/// sees.
#[test]
fn x3_stepwise_embedded_predicates() {
    let mut s = little_firm_session();
    s.consult(views::WORKS_DIR_FOR).unwrap();
    s.consult("short_name(N) :- name_length(N, L), L < 6. name_length(jones, 5). name_length(miller, 6). name_length(leamas, 6).")
        .unwrap();
    let run = s
        .query("works_dir_for(t_X, smiley), short_name(t_X)", "q")
        .unwrap();
    assert_eq!(run.answers.len(), 1);
    assert_eq!(run.answers[0]["X"], Datum::text("jones"));
    assert_eq!(run.branches[0].raw_answers, 3);
    assert_eq!(run.branches[0].residual_filtered, 2);
}

/// X4 — multiple-query optimization, the duplicate case: two syntactic
/// variants of one goal (the view name is presentation only) share one
/// canonical cache entry, so the second is answered without any SQL.
#[test]
fn x4_batch_reuse() {
    let mut s = little_firm_session();
    s.consult(views::SAME_MANAGER).unwrap();
    let first = s.query("same_manager(t_X, jones)", "a").unwrap();
    let second = s.query("same_manager(t_X, jones)", "b").unwrap();
    assert!(!first.branches[0].cache_hit);
    assert!(first.branches[0].sql.is_some());
    assert!(second.branches[0].cache_hit);
    assert!(second.branches[0].sql.is_none(), "no SQL for a duplicate");
    assert_eq!(second.total_metrics().rows_scanned, 0);
    assert_eq!(first.answers, second.answers);
    assert_eq!(first.answers.len(), 2, "miller and leamas");
    assert_eq!(s.coupler().cache().len(), 1);
}

/// X4 at the coupler level: repeated queries hit the internal cache — the
/// degenerate but most common common-subexpression case.
#[test]
fn x4_cache_counts() {
    let mut c = Coupler::empdep();
    c.consult(views::WORKS_DIR_FOR).unwrap();
    for (eno, nam, sal, dno) in [(1, "e1", 80_000, 1), (2, "e2", 60_000, 1)] {
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
    c.load_tuple("dept", &[Datum::Int(1), Datum::text("hq"), Datum::Int(1)])
        .unwrap();
    c.check_integrity().unwrap();
    c.query("works_dir_for(t_X, 'e1')", "q").unwrap();
    c.query("works_dir_for(t_X, 'e1')", "q").unwrap();
    c.query("works_dir_for(t_X, 'e1')", "q").unwrap();
    assert_eq!(c.cache().hits(), 2);
    assert_eq!(c.cache().misses(), 1);
}
