//! §6.2 functional-dependency chase with duplicate-row removal.
//!
//! "Our implementation employs a version of the fast chase algorithm
//! proposed by Downey et al. \[1980\], adapted to the problem of query
//! simplification rather than lossless join tests. In particular, our
//! version does not only detect equivalence classes of tableau entries but
//! actively removes duplicate rows."
//!
//! The Relreferences section is partitioned by relation name; within each
//! partition, two rows agreeing (up to the current equivalence classes) on
//! an FD's left-hand side force their right-hand sides together.
//! A forced union of two distinct constants is a contradiction — the query
//! result is empty. Symbol identity is global, so renaming is automatically
//! consistent across columns (the paper's `mgr` vs `eno` caveat).

use crate::uf::UnionFind;
use dbcl::{ConstraintSet, DatabaseDef, DbclQuery, Entry, Operand, Symbol, Value};
use std::collections::HashMap;

/// What the chase did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// Chase completed; carries the statistics.
    Done(ChaseStats),
    /// Two distinct constants were forced equal.
    Contradiction(String),
}

/// Chase statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Symbol merges applied to the query.
    pub merges: Vec<(Symbol, Operand)>,
    /// Number of duplicate rows removed.
    pub rows_removed: usize,
}

/// Key for union-find: the current value of a tableau cell.
type Cell = Operand;

fn cell_of(entry: &Entry) -> Option<Cell> {
    match entry {
        Entry::Sym(s) => Some(Operand::Sym(*s)),
        Entry::Const(v) => Some(Operand::Const(*v)),
        Entry::Star => None,
    }
}

/// First-occurrence rank of every symbol, row-major; used to pick stable
/// class representatives (the paper keeps `v_Eno1` over `v_Eno4`).
pub fn occurrence_order(query: &DbclQuery) -> HashMap<Symbol, usize> {
    let mut order = HashMap::new();
    let mut rank = 0usize;
    for entry in query
        .target
        .iter()
        .chain(query.rows.iter().flat_map(|r| &r.entries))
    {
        if let Entry::Sym(s) = entry {
            order.entry(*s).or_insert_with(|| {
                rank += 1;
                rank
            });
        }
    }
    order
}

fn rep_priority(op: &Operand, order: &HashMap<Symbol, usize>) -> (u8, usize) {
    match op {
        Operand::Const(_) => (0, 0),
        Operand::Sym(s @ Symbol::Target(_)) => (1, order.get(s).copied().unwrap_or(usize::MAX)),
        Operand::Sym(s @ Symbol::Var(_)) => (2, order.get(s).copied().unwrap_or(usize::MAX)),
    }
}

/// Runs the chase to fixpoint, applying merges and removing duplicate rows
/// in `query`. Returns the merges performed (already applied).
pub fn chase(query: &mut DbclQuery, db: &DatabaseDef, constraints: &ConstraintSet) -> ChaseOutcome {
    let order = occurrence_order(query);
    let mut uf: UnionFind<Cell> = UnionFind::new();
    for row in &query.rows {
        for entry in &row.entries {
            if let Some(cell) = cell_of(entry) {
                uf.add(cell);
            }
        }
    }

    // Congruence loop: apply every FD to every row pair of its relation
    // until no class changes.
    loop {
        let mut changed = false;
        for fd in &constraints.fds {
            let Ok(rel_cols) = db.relation_columns(fd.rel) else {
                continue;
            };
            let attr_col = |attr: prolog::Atom| -> Option<usize> {
                let rel = db.relation(fd.rel)?;
                let pos = rel.position(attr)?;
                Some(rel_cols[pos])
            };
            let lhs_cols: Option<Vec<usize>> = fd.lhs.iter().map(|a| attr_col(*a)).collect();
            let rhs_cols: Option<Vec<usize>> = fd.rhs.iter().map(|a| attr_col(*a)).collect();
            let (Some(lhs_cols), Some(rhs_cols)) = (lhs_cols, rhs_cols) else {
                continue;
            };
            let members: Vec<usize> = query
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.relation == fd.rel)
                .map(|(i, _)| i)
                .collect();
            for (ai, &a) in members.iter().enumerate() {
                for &b in &members[ai + 1..] {
                    let agree = lhs_cols.iter().all(|&col| {
                        match (
                            cell_of(&query.rows[a].entries[col]),
                            cell_of(&query.rows[b].entries[col]),
                        ) {
                            (Some(x), Some(y)) => uf.same(x, y),
                            _ => false,
                        }
                    });
                    if !agree {
                        continue;
                    }
                    for &col in &rhs_cols {
                        if let (Some(x), Some(y)) = (
                            cell_of(&query.rows[a].entries[col]),
                            cell_of(&query.rows[b].entries[col]),
                        ) {
                            if uf.union(x, y) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Extract substitutions; contradictions are classes with two constants.
    let mut merges: Vec<(Symbol, Operand)> = Vec::new();
    for class in uf.classes() {
        let mut consts: Vec<Value> = class
            .iter()
            .filter_map(|o| match o {
                Operand::Const(v) => Some(*v),
                Operand::Sym(_) => None,
            })
            .collect();
        consts.dedup();
        if consts.len() > 1 {
            return ChaseOutcome::Contradiction(format!(
                "functional dependencies force {} = {}",
                consts[0], consts[1]
            ));
        }
        let rep = *class
            .iter()
            .min_by_key(|o| rep_priority(o, &order))
            .expect("non-empty class");
        for member in class {
            if member != rep {
                if let Operand::Sym(s) = member {
                    merges.push((s, rep));
                }
            }
        }
    }
    // Deterministic application order (uf.classes() iterates a HashMap).
    merges.sort_by_key(|(s, _)| order.get(s).copied().unwrap_or(usize::MAX));
    for (from, to) in &merges {
        query.substitute(*from, to);
    }

    // Duplicate-row removal (the paper's "A AND A <==> A").
    let mut rows_removed = 0usize;
    let mut seen: Vec<(prolog::Atom, Vec<Entry>)> = Vec::new();
    query.rows.retain(|row| {
        let key = (row.relation, row.entries.clone());
        if seen.contains(&key) {
            rows_removed += 1;
            false
        } else {
            seen.push(key);
            true
        }
    });

    ChaseOutcome::Done(ChaseStats {
        merges,
        rows_removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcl::DbclQuery;

    fn run(query: &mut DbclQuery) -> ChaseStats {
        let db = DatabaseDef::empdep();
        let cs = ConstraintSet::empdep();
        match chase(query, &db, &cs) {
            ChaseOutcome::Done(stats) => stats,
            ChaseOutcome::Contradiction(w) => panic!("unexpected contradiction: {w}"),
        }
    }

    /// Example 6-1: in the works_dir_for query, funcdep(empl,[nam],[eno])
    /// equates v_Eno4 with v_Eno1, and funcdep(empl,[eno],[nam,sal,dno])
    /// then merges rows 1 and 4.
    #[test]
    fn example_6_1_rows_merge() {
        let mut q = DbclQuery::example_3_3();
        assert_eq!(q.rows.len(), 4);
        let stats = run(&mut q);
        assert_eq!(q.rows.len(), 3, "one empl row removed:\n{q}");
        // v_Eno4 renamed to v_Eno1.
        assert!(stats
            .merges
            .iter()
            .any(|(from, to)| *from == Symbol::var("Eno4")
                && *to == Operand::Sym(Symbol::var("Eno1"))));
        assert_eq!(stats.rows_removed, 1);
        // The comparison section was renamed consistently: v_S became v_Sal1.
        assert_eq!(q.comparisons[0].lhs, Operand::Sym(Symbol::var("Sal1")));
    }

    /// Example 6-2 (step 4): the six same_manager rows chase down to four.
    #[test]
    fn example_6_2_chase_phase() {
        let mut q = DbclQuery::example_4_1();
        assert_eq!(q.rows.len(), 6);
        let stats = run(&mut q);
        assert_eq!(q.rows.len(), 4, "rows 5 and 6 removed:\n{q}");
        assert_eq!(stats.rows_removed, 2);
        // The two works_dir_for branches now share the dept row: the
        // remaining empl row for jones has dno = v_D1.
        let jones_row = q
            .rows
            .iter()
            .find(|r| r.entries[1] == Entry::sym_const("jones"))
            .expect("jones row");
        assert_eq!(jones_row.entries[3], Entry::var("D1"));
    }

    #[test]
    fn chase_is_idempotent() {
        let mut q = DbclQuery::example_4_1();
        run(&mut q);
        let snapshot = q.clone();
        let stats = run(&mut q);
        assert_eq!(q, snapshot);
        assert!(stats.merges.is_empty());
        assert_eq!(stats.rows_removed, 0);
    }

    #[test]
    fn constants_win_representative_choice() {
        // Two empl rows with same eno: one has a constant name.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E, t_X, v_S1, v_D1, *, *],
                   [empl, v_E, smiley, v_S2, v_D2, *, *]],
                  [])",
        )
        .unwrap();
        let db = DatabaseDef::empdep();
        let cs = ConstraintSet::empdep();
        match chase(&mut q, &db, &cs) {
            ChaseOutcome::Done(_) => {}
            other => panic!("{other:?}"),
        }
        // t_X was forced equal to the constant smiley; rows merged.
        assert_eq!(q.rows.len(), 1);
        assert_eq!(q.target[1], Entry::sym_const("smiley"));
    }

    #[test]
    fn conflicting_constants_contradict() {
        // Same employee number, two different constant names.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E, jones, v_S1, v_D1, *, *],
                   [empl, v_E, smiley, v_S2, t_X, *, *]],
                  [])",
        )
        .unwrap();
        let db = DatabaseDef::empdep();
        let cs = ConstraintSet::empdep();
        assert!(matches!(
            chase(&mut q, &db, &cs),
            ChaseOutcome::Contradiction(_)
        ));
    }

    #[test]
    fn no_fds_means_no_change() {
        let mut q = DbclQuery::example_4_1();
        let db = DatabaseDef::empdep();
        let empty = ConstraintSet::new();
        match chase(&mut q, &db, &empty) {
            ChaseOutcome::Done(stats) => {
                assert!(stats.merges.is_empty());
                assert_eq!(stats.rows_removed, 0);
                assert_eq!(q.rows.len(), 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cross_relation_rows_not_confused() {
        // dept FDs must not fire on empl rows sharing column values.
        let mut q = DbclQuery::parse(
            "dbcl([empdep, eno, nam, sal, dno, fct, mgr],
                  [q, *, t_X, *, *, *, *],
                  [[empl, v_E1, t_X, v_S1, v_D, *, *],
                   [empl, v_E2, t_Y, v_S2, v_D, *, *]],
                  [])",
        )
        .unwrap();
        // Anchor t_Y so validation would pass; same dno does not merge
        // anything because dno is not an FD LHS within empl.
        q.target[0] = Entry::target("Y");
        q.rows[1].entries[0] = Entry::target("Y");
        let stats = run(&mut q);
        assert!(stats.merges.is_empty());
        assert_eq!(q.rows.len(), 2);
    }
}
