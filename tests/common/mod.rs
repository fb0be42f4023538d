//! Helpers shared by the integration test files (`mod common;`).

use prolog_front_end::coupling::workload::Firm;
use prolog_front_end::prolog::Engine;

/// The engine-independent reference for a goal: a plain Prolog engine
/// solves `goal` (its `t_` targets as ordinary variables) over `program`
/// and the firm's tuples consulted as facts. Returns the distinct
/// bindings of `var`, quoted as the coupler prints them, sorted.
pub fn prolog_answers(firm: &Firm, program: &str, goal: &str, var: &str) -> Vec<String> {
    let mut facts = String::new();
    for e in &firm.employees {
        facts.push_str(&format!(
            "empl({}, '{}', {}, {}).\n",
            e.eno, e.nam, e.sal, e.dno
        ));
    }
    for d in &firm.departments {
        facts.push_str(&format!("dept({}, '{}', {}).\n", d.dno, d.fct, d.mgr));
    }
    let mut engine = Engine::new();
    engine.consult(&facts).unwrap();
    engine.consult(program).unwrap();
    let query = format!("{}.", goal.replace(&format!("t_{var}"), var));
    let mut v: Vec<String> = engine
        .query_all(&query)
        .unwrap()
        .iter()
        .map(|sol| format!("'{}'", sol.get(var).unwrap()))
        .collect();
    v.sort();
    v.dedup();
    v
}
