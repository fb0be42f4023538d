//! Variable-free renaming: raw unfolded branches → DBCL queries.
//!
//! §3's convention: "Constants are translated into themselves.
//! Universally quantified variables of the original goal clause are
//! preceded by a `t_` … Other variables are preceded by a `v_` and a
//! number is appended to them to distinguish between different variables
//! addressing the same attribute."
//!
//! Variables are named after the attribute of their first occurrence:
//! the first `eno` variable becomes `v_eno1`, the next distinct one
//! `v_eno2`, and so on.

use crate::unfold::{comparison_op, RawBranch};
use crate::{MetaBranch, MetaError, Result};
use dbcl::{DatabaseDef, DbclQuery, Entry, Operand, Row, Symbol, Value};
use prolog::{Term, VarId};
use std::collections::HashMap;

struct Namer {
    map: HashMap<VarId, Symbol>,
    counters: HashMap<String, usize>,
}

impl Namer {
    fn new() -> Self {
        Namer {
            map: HashMap::new(),
            counters: HashMap::new(),
        }
    }

    fn assign(&mut self, var: VarId, attr: &str) -> Symbol {
        if let Some(sym) = self.map.get(&var) {
            return *sym;
        }
        let n = self.counters.entry(attr.to_owned()).or_insert(0);
        *n += 1;
        let sym = Symbol::var(&format!("{attr}{n}"));
        self.map.insert(var, sym);
        sym
    }

    fn lookup(&self, var: VarId) -> Option<Symbol> {
        self.map.get(&var).copied()
    }
}

fn const_of(term: &Term) -> Option<Value> {
    match term {
        Term::Int(i) => Some(Value::Int(*i)),
        Term::Atom(a) => Some(Value::Sym(*a)),
        _ => None,
    }
}

/// What to do when two target variables address the same attribute column.
///
/// The universal-relation targetlist of §3 has one slot per column, so
/// `works_for(t_low, t_high)` — where both targets are employee names —
/// is not representable. The general pipeline reports this; the recursion
/// machinery keeps the first target in the list (both symbols still occur
/// in the relation references, so SQL generation can select either).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TargetConflict {
    Error,
    FirstWins,
}

/// Converts one raw branch into a typed DBCL query plus residue.
pub fn branch_to_dbcl(branch: &RawBranch, db: &DatabaseDef, view_name: &str) -> Result<MetaBranch> {
    branch_to_dbcl_with(branch, db, view_name, TargetConflict::Error)
}

/// [`branch_to_dbcl`] with explicit target-conflict handling.
pub fn branch_to_dbcl_with(
    branch: &RawBranch,
    db: &DatabaseDef,
    view_name: &str,
    conflict: TargetConflict,
) -> Result<MetaBranch> {
    let mut namer = Namer::new();
    // Targets claim their variables first, keeping the `t_` names.
    for (name, term) in &branch.targets {
        match term {
            Term::Var(v) => {
                namer.map.entry(*v).or_insert_with(|| Symbol::target(name));
            }
            // A target bound to a constant would need literal SELECT items;
            // SQL-84 (and rule 2) has no home for it.
            other => {
                return Err(MetaError(format!(
                    "target variable t_{name} was bound to {other} during unfolding"
                )))
            }
        }
    }

    let mut query = DbclQuery::new(db, view_name);

    // Rows from collected dbcalls.
    for call in &branch.dbcalls {
        let Term::Struct(rel, args) = call else {
            return Err(MetaError(format!("malformed database call: {call}")));
        };
        let rel_def = db
            .relation(*rel)
            .ok_or_else(|| MetaError(format!("unknown relation {rel}")))?;
        if args.len() != rel_def.arity() {
            return Err(MetaError(format!(
                "{rel} expects {} arguments, got {}",
                rel_def.arity(),
                args.len()
            )));
        }
        let cols = db.relation_columns(*rel)?;
        let mut row = Row::blank(db, *rel)?;
        for (pos, arg) in args.iter().enumerate() {
            let attr = rel_def.attrs[pos];
            let entry = match arg {
                Term::Var(v) => Entry::Sym(namer.assign(*v, attr.as_str())),
                _ => Entry::Const(const_of(arg).ok_or_else(|| {
                    MetaError(format!("database call argument is not atomic: {arg}"))
                })?),
            };
            row.entries[cols[pos]] = entry;
        }
        query.rows.push(row);
    }

    // Target list entries at the column of each target's first occurrence.
    for (name, term) in &branch.targets {
        let Term::Var(v) = term else {
            unreachable!("checked above")
        };
        let sym = namer.lookup(*v).expect("target pre-assigned");
        let (_, col) = query.first_row_occurrence(sym).ok_or_else(|| {
            MetaError(format!("target t_{name} never reaches a database relation"))
        })?;
        match &query.target[col] {
            Entry::Sym(existing) if *existing != sym => match conflict {
                TargetConflict::Error => {
                    return Err(MetaError(format!(
                        "targets t_{name} and {existing} both address column {}; \
                         the DBCL targetlist has one slot per attribute",
                        query.attributes[col]
                    )))
                }
                TargetConflict::FirstWins => {}
            },
            _ => query.target[col] = Entry::Sym(sym),
        }
    }

    // Comparisons. A comparison whose variable never touches a database
    // relation constrains internal computation only — it joins the residue
    // (evaluated stepwise in Prolog, §7) instead of Relcomparisons.
    let mut internal_comparisons: Vec<Term> = Vec::new();
    for comp in &branch.comparisons {
        let Term::Struct(f, args) = comp else {
            return Err(MetaError(format!("malformed comparison: {comp}")));
        };
        let op = comparison_op(f.as_str())
            .ok_or_else(|| MetaError(format!("unknown comparison {f}")))?;
        let operand = |t: &Term| -> Result<Option<Operand>> {
            match t {
                Term::Var(v) => Ok(namer.lookup(*v).map(Operand::Sym)),
                _ => const_of(t)
                    .map(|c| Some(Operand::Const(c)))
                    .ok_or_else(|| MetaError(format!("comparison operand is not atomic: {t}"))),
            }
        };
        match (operand(&args[0])?, operand(&args[1])?) {
            (Some(lhs), Some(rhs)) => {
                query.comparisons.push(dbcl::Comparison::new(op, lhs, rhs));
            }
            _ => internal_comparisons.push(comp.clone()),
        }
    }

    // Each branch of a negated goal is a query of its own, whose target
    // `t_link` stands for the link named here.
    let mut negated = Vec::with_capacity(branch.negated.len());
    for (link, neg) in &branch.negated {
        let inner = branch_to_dbcl_with(neg, db, view_name, conflict)?;
        if let Some(goal) = inner.residual.first() {
            return Err(MetaError(format!("no negated database goal binds {goal}")));
        }
        negated.push((namer.lookup(*link).expect("link in a row"), inner.query));
    }

    // Residual goals in variable-free spelling (database-independent
    // comparisons join them).
    let mut res_counter = 0usize;
    let residual = branch
        .residual
        .iter()
        .chain(&internal_comparisons)
        .map(|g| freeze_term(g, &mut namer, &mut res_counter))
        .collect();

    Ok(MetaBranch {
        query,
        negated,
        residual,
        recursion_level: branch.recursion_level,
    })
}

/// Rewrites variables in a residual goal into their variable-free
/// spelling (`t_X`, `v_eno1`, or a fresh `v_res<i>` for residual-only
/// variables).
fn freeze_term(term: &Term, namer: &mut Namer, res_counter: &mut usize) -> Term {
    match term {
        Term::Var(v) => {
            let sym = namer.lookup(*v).unwrap_or_else(|| {
                *res_counter += 1;
                let sym = Symbol::var(&format!("res{res_counter}"));
                namer.map.insert(*v, sym);
                sym
            });
            Term::atom(&sym.to_string())
        }
        Term::Struct(f, args) => Term::Struct(
            *f,
            args.iter()
                .map(|a| freeze_term(a, namer, res_counter))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::{unfold, UnfoldLimits};
    use prolog::Engine;

    fn first_branch(views: &str, goal: &str) -> MetaBranch {
        let mut engine = Engine::new();
        engine.consult(views).unwrap();
        let db = DatabaseDef::empdep();
        let term = prolog::parse_term(goal).unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(engine.kb(), &db, &goals, UnfoldLimits::default()).unwrap();
        branch_to_dbcl(&out.branches[0], &db, "test_view").unwrap()
    }

    #[test]
    fn attribute_based_naming() {
        let b = first_branch("", "empl(E, t_X, S, D)");
        let q = &b.query;
        assert_eq!(q.rows[0].entries[0], Entry::var("eno1"));
        assert_eq!(q.rows[0].entries[1], Entry::target("X"));
        assert_eq!(q.rows[0].entries[2], Entry::var("sal1"));
        assert_eq!(q.rows[0].entries[3], Entry::var("dno1"));
    }

    #[test]
    fn repeated_attr_vars_numbered() {
        let b = first_branch("", "empl(E1, t_X, S1, D), empl(E2, jones, S2, D)");
        let q = &b.query;
        assert_eq!(q.rows[0].entries[0], Entry::var("eno1"));
        assert_eq!(q.rows[1].entries[0], Entry::var("eno2"));
        // Shared D keeps one name in both rows (the equijoin).
        assert_eq!(q.rows[0].entries[3], q.rows[1].entries[3]);
    }

    #[test]
    fn same_column_targets_conflict() {
        // Both targets are employee names: not representable in the §3
        // targetlist — an error by default, first-wins on request.
        let mut engine = Engine::new();
        engine.consult("").unwrap();
        let db = DatabaseDef::empdep();
        let term = prolog::parse_term("empl(E1, t_X, S1, D), empl(E2, t_Y, S2, D)").unwrap();
        let goals = prolog::parser::flatten_conjunction(&term);
        let out = unfold(engine.kb(), &db, &goals, UnfoldLimits::default()).unwrap();
        assert!(branch_to_dbcl(&out.branches[0], &db, "v").is_err());
        let b = branch_to_dbcl_with(&out.branches[0], &db, "v", TargetConflict::FirstWins).unwrap();
        assert_eq!(b.query.target[1], Entry::target("X"));
        // t_Y still anchors its row even though the targetlist dropped it.
        assert_eq!(b.query.rows[1].entries[1], Entry::target("Y"));
    }

    #[test]
    fn cross_column_variable_named_by_first_occurrence() {
        let b = first_branch("", "dept(D, F, M), empl(M, t_X, S, D2)");
        let q = &b.query;
        // M first occurs at dept.mgr → named v_mgr1, reused at empl.eno.
        assert_eq!(q.rows[0].entries[5], Entry::var("mgr1"));
        assert_eq!(q.rows[1].entries[0], Entry::var("mgr1"));
    }

    #[test]
    fn constants_pass_through() {
        let b = first_branch("", "empl(1, smiley, S, D)");
        let q = &b.query;
        assert_eq!(q.rows[0].entries[0], Entry::int(1));
        assert_eq!(q.rows[0].entries[1], Entry::sym_const("smiley"));
    }

    #[test]
    fn comparisons_renamed_consistently() {
        let b = first_branch("", "empl(E, t_X, S, D), less(S, 40000)");
        let q = &b.query;
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].lhs, Operand::Sym(Symbol::var("sal1")));
        assert_eq!(q.comparisons[0].rhs, Operand::Const(Value::Int(40000)));
    }

    #[test]
    fn operator_spelled_comparisons() {
        let b = first_branch("", "empl(E, t_X, S, D), S < 40000");
        assert_eq!(b.query.comparisons[0].op, dbcl::CompOp::Less);
    }

    #[test]
    fn residual_goals_frozen() {
        let b = first_branch("", "empl(E, t_X, S, D), specialist(t_X, Skill)");
        assert_eq!(b.residual.len(), 1);
        let text = b.residual[0].to_string();
        assert!(text.starts_with("specialist(t_X, "), "{text}");
        assert!(text.contains("v_res1"), "{text}");
    }

    #[test]
    fn generated_queries_validate() {
        let b = first_branch(crate::views::SAME_MANAGER, "same_manager(t_X, jones)");
        b.query.validate(&DatabaseDef::empdep()).unwrap();
    }
}
