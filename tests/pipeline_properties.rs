//! Property-based tests over the whole pipeline.
//!
//! The central invariant of the paper's §6 optimizer is *equivalence*: a
//! simplified query returns exactly the same answers as the direct
//! translation on every database satisfying the integrity constraints.
//! The workload generator produces only such databases, so we check the
//! invariant end-to-end on random hierarchies and random queries.

use prolog_front_end::coupling::recursion::{
    eval_intermediate, eval_naive, Bound, BoundSide, ClosureSpec,
};
use prolog_front_end::coupling::workload::{Firm, FirmParams};
use prolog_front_end::dbcl::{CompOp, Comparison, DbclQuery, Operand, Symbol, Value};
use prolog_front_end::optimizer::ineq::simplify_inequalities;
use prolog_front_end::pfe_core::{views, QueryRun, Session};
use proptest::prelude::*;

mod common;
use common::prolog_answers;

fn firm_session(params: FirmParams) -> (Session, Firm) {
    let mut s = Session::empdep();
    s.consult(views::SAME_MANAGER).unwrap();
    s.consult(
        "works_for(L, H) :- works_dir_for(L, H).
         works_for(L, H) :- works_dir_for(L, M), works_for(M, H).",
    )
    .unwrap();
    let firm = Firm::generate(params);
    firm.load_into(s.coupler_mut()).unwrap();
    (s, firm)
}

fn sorted_answers(run: &QueryRun, var: &str) -> Vec<String> {
    let mut v: Vec<String> = run.answers.iter().map(|a| a[var].to_string()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Optimized and direct translations agree on every constraint-
    /// satisfying database, for view + comparison queries and for a
    /// negated goal, whose answers a plain Prolog engine holding the
    /// firm's tuples as facts also gives.
    #[test]
    fn optimizer_preserves_answers(
        seed in 0u64..1000,
        depth in 1usize..3,
        branching in 1usize..3,
        staff in 0usize..3,
        person in 0usize..64,
        threshold in 9_000i64..95_000,
        view_choice in 0usize..4,
    ) {
        let (mut s, firm) = firm_session(FirmParams {
            depth, branching, staff_per_dept: staff, seed,
        });
        let who = &firm.employees[person % firm.employees.len()].nam;
        let goal = match view_choice {
            0 => format!("works_dir_for(t_X, '{who}')"),
            1 => format!("same_manager(t_X, '{who}')"),
            2 => format!(
                "works_dir_for(t_X, '{who}'), empl(E, t_X, S, D), less(S, {threshold})"
            ),
            // Employees whose manager earns at least the threshold: the
            // link M is no target, and refint would drop its dept row.
            _ => format!(
                "empl(_, t_X, _, D), dept(D, _, M), \\+ (empl(M, _, S2, _), less(S2, {threshold}))"
            ),
        };
        s.config_mut().cache = false;
        let optimized = s.query(&goal, "q").unwrap();
        s.config_mut().optimize = false;
        let direct = s.query(&goal, "q").unwrap();
        prop_assert_eq!(sorted_answers(&optimized, "X"), sorted_answers(&direct, "X"));
        if view_choice == 3 {
            prop_assert_eq!(sorted_answers(&optimized, "X"), prolog_answers(&firm, "", &goal, "X"));
        }
        // The optimizer never does *more* DBMS work.
        prop_assert!(
            optimized.total_metrics().joins <= direct.total_metrics().joins
        );
    }

    /// Naive and stored-intermediate recursion agree in both directions.
    #[test]
    fn recursion_strategies_agree(
        seed in 0u64..500,
        depth in 1usize..3,
        branching in 1usize..3,
        person in 0usize..64,
        downward in proptest::bool::ANY,
    ) {
        let (mut s, firm) = firm_session(FirmParams {
            depth, branching, staff_per_dept: 1, seed,
        });
        let who = firm.employees[person % firm.employees.len()].nam.clone();
        let bound = Bound {
            side: if downward { BoundSide::High } else { BoundSide::Low },
            value: prolog_front_end::pfe_core::Datum::text(&who),
        };
        let coupler = s.coupler_mut();
        let spec = ClosureSpec::from_view(coupler, "works_dir_for").unwrap();
        let naive = eval_naive(coupler, "works_for", &bound, firm.max_chain() + 2).unwrap();
        let inter = eval_intermediate(coupler, &spec, &bound, "intermediate").unwrap();
        let mut a: Vec<String> = naive.answers.iter().map(ToString::to_string).collect();
        let mut b: Vec<String> = inter.answers.iter().map(ToString::to_string).collect();
        a.sort(); a.dedup();
        b.sort(); b.dedup();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// DBCL parse/print round trip on generated queries (Figure 2's grammar).
// ---------------------------------------------------------------------------

fn entry_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("*".to_owned()),
        "[a-e]".prop_map(|s| format!("t_{s}")),
        "[a-h][0-9]?".prop_map(|s| format!("v_{s}")),
        "[a-z]{2,5}".prop_map(|s| s),
        (0i64..100_000).prop_map(|i| i.to_string()),
    ]
}

fn row_strategy() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("empl"), Just("dept")],
        proptest::collection::vec(entry_strategy(), 6),
    )
        .prop_map(|(rel, entries)| {
            // Align entries to the relation's applicable columns.
            let applicable: &[usize] = if rel == "empl" {
                &[0, 1, 2, 3]
            } else {
                &[3, 4, 5]
            };
            let cells: Vec<String> = (0..6)
                .map(|i| {
                    if applicable.contains(&i) {
                        let e = &entries[i];
                        if e == "*" {
                            "v_x9".to_owned()
                        } else {
                            e.clone()
                        }
                    } else {
                        "*".to_owned()
                    }
                })
                .collect();
            format!("[{rel}, {}]", cells.join(", "))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(print(q)) == q for generated conjunctive DBCL statements.
    #[test]
    fn dbcl_round_trip(rows in proptest::collection::vec(row_strategy(), 1..5)) {
        let src = format!(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [view, *, t_a, *, *, *, *],
                  [{}],
                  [])",
            rows.join(", ")
        );
        let Ok(q) = DbclQuery::parse(&src) else {
            // Some generated strings are not valid queries; fine.
            return Ok(());
        };
        let reparsed = DbclQuery::parse(&q.to_string()).unwrap();
        prop_assert_eq!(q, reparsed);
    }
}

// ---------------------------------------------------------------------------
// Inequality-graph soundness against brute force.
// ---------------------------------------------------------------------------

const VAR_NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn comparison_strategy() -> impl Strategy<Value = Comparison> {
    let operand = prop_oneof![
        (0usize..4).prop_map(|i| Operand::Sym(Symbol::var(VAR_NAMES[i]))),
        (0i64..5).prop_map(|v| Operand::Const(Value::Int(v))),
    ];
    (0usize..6, operand.clone(), operand).prop_map(|(op, lhs, rhs)| {
        let op = [
            CompOp::Less,
            CompOp::Greater,
            CompOp::Leq,
            CompOp::Geq,
            CompOp::Eq,
            CompOp::Neq,
        ][op];
        Comparison::new(op, lhs, rhs)
    })
}

fn eval_operand(op: &Operand, assignment: &[i64; 4]) -> i64 {
    match op {
        Operand::Const(Value::Int(i)) => *i,
        Operand::Sym(s) => {
            let idx = VAR_NAMES
                .iter()
                .position(|n| Symbol::var(n) == *s)
                .expect("known var");
            assignment[idx]
        }
        Operand::Const(Value::Sym(_)) => unreachable!("generator emits ints only"),
    }
}

fn satisfies(comps: &[Comparison], assignment: &[i64; 4]) -> bool {
    comps.iter().all(|c| {
        c.op.eval_int(
            eval_operand(&c.lhs, assignment),
            eval_operand(&c.rhs, assignment),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The §6.1 graph procedure is equivalence-preserving: for every
    /// assignment over a finite domain, the original comparison set and
    /// (simplified set + implied equalities) have the same truth value;
    /// a reported contradiction means no assignment satisfies the input.
    #[test]
    fn inequality_simplification_sound(
        comps in proptest::collection::vec(comparison_strategy(), 0..6)
    ) {
        let result = simplify_inequalities(&comps, &[], &std::collections::HashMap::new());
        // Enumerate all assignments over 0..5 for the four variables.
        let mut any_satisfying = false;
        for a in 0..5i64 {
            for b in 0..5i64 {
                for c in 0..5i64 {
                    for d in 0..5i64 {
                        let assignment = [a, b, c, d];
                        let original = satisfies(&comps, &assignment);
                        any_satisfying |= original;
                        if result.contradiction.is_some() {
                            prop_assert!(!original,
                                "contradiction claimed but {assignment:?} satisfies");
                            continue;
                        }
                        let merges_hold = result.merges.iter().all(|(from, to)| {
                            eval_operand(&Operand::Sym(*from), &assignment)
                                == eval_operand(to, &assignment)
                        });
                        let transformed = merges_hold && satisfies(&result.kept, &assignment);
                        prop_assert_eq!(original, transformed,
                            "assignment {:?}: original {} vs simplified {} (kept {:?}, merges {:?})",
                            assignment, original, transformed, result.kept, result.merges);
                    }
                }
            }
        }
        // No false contradictions on satisfiable input was checked above;
        // conversely a contradiction-free result must keep satisfiability
        // decidable by the DBMS, which the equivalence already guarantees.
        let _ = any_satisfying;
    }
}
