//! The §7 extensions, end to end: disjunction (X1), negation (X2),
//! embedded predicates (X3) and answer reuse across queries (X4).

use prolog_front_end::coupling::Coupler;
use prolog_front_end::metaeval::views;
use prolog_front_end::pfe_core::{Datum, QueryRun, Session};

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

fn sorted(run: &QueryRun, var: &str) -> Vec<String> {
    let mut names: Vec<String> = run.answers.iter().map(|a| a[var].to_string()).collect();
    names.sort();
    names
}

/// X1 — disjunction in disjunctive normal form: an inline `;` goal is one
/// conjunctive branch per disjunct, each its own SQL query, and the
/// answers are unioned.
#[test]
fn x1_disjunction_dnf_union() {
    let mut s = little_firm_session();
    let run = s
        .query(
            "(empl(_, t_X, S, _), less(S, 28000) ; empl(_, t_X, _, D), dept(D, hq, _))",
            "v",
        )
        .unwrap();
    assert_eq!(run.branches.len(), 2);
    assert!(run.branches.iter().all(|b| b.sql.is_some()));
    // miller (cheap) ∪ {control, smiley} (hq).
    assert_eq!(sorted(&run, "X"), ["'control'", "'miller'", "'smiley'"]);
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
    assert_eq!(sorted(&run, "X"), ["'control'", "'miller'", "'smiley'"]);
    assert_eq!(run.branches.len(), 2);
}

/// X2 — negation via NOT IN: §7's manager example. "Should the query
/// not(manager(jones, M)) return all managers who do not manage Jones?"
/// — the interpretation the paper resolves with NOT IN.
#[test]
fn x2_negation_not_in() {
    let mut s = little_firm_session();
    let run = s
        .query(
            "dept(_, _, t_M), \\+ (empl(E, jones, _, D), dept(D, _, t_M))",
            "q",
        )
        .unwrap();
    let sql = run.branches[0].sql.as_deref().unwrap();
    assert!(sql.contains("NOT IN"), "{sql}");
    // control (eno 1) manages hq but not jones; smiley (eno 2) manages jones.
    assert_eq!(run.answers.len(), 1);
    assert_eq!(run.answers[0]["M"], Datum::Int(1));
    // The same through §7's own view, unfolded inside the negation.
    s.consult(views::MANAGER).unwrap();
    let run = s
        .query(
            "dept(_, _, t_M), \\+ (empl(E, jones, _, _), manager(E, t_M))",
            "q",
        )
        .unwrap();
    assert_eq!(run.answers.len(), 1);
    assert_eq!(run.answers[0]["M"], Datum::Int(1));
}

/// X2 in a view: `\+ manages(E)` is a `NOT IN` on the employee number,
/// not a residual goal proved by failure over an internal database that
/// holds no `dept` facts (which answered all five employees).
#[test]
fn x2_negated_view_excludes_managers() {
    let mut s = little_firm_session();
    s.consult(
        "manages(M) :- dept(_, _, M).
         nonmanager(N) :- empl(E, N, _, _), \\+ manages(E).",
    )
    .unwrap();
    let run = s.query("nonmanager(t_N)", "nonmanager").unwrap();
    assert_eq!(sorted(&run, "N"), ["'jones'", "'leamas'", "'miller'"]);
    let sql = run.branches[0].sql.as_deref().unwrap();
    assert!(
        sql.contains("v1.eno NOT IN (SELECT v2.mgr FROM dept v2)"),
        "{sql}"
    );
}

/// X2's limit: a `\+` with no `NOT IN` form is an error.
#[test]
fn x2_untranslatable_negation_is_an_error() {
    let mut s = little_firm_session();
    // Two variables shared with the positive side.
    let err = s.query("empl(E, t_N, S, D), \\+ dept(D, _, E)", "q");
    assert!(err.is_err());
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
