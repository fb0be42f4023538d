//! Shared fixtures for the `experiments` binary.

use coupling::workload::{Firm, FirmParams};
use pfe_core::{views, Session};

/// `s` over a generated hierarchy with all views consulted: a default
/// [`Session::empdep`], or one with a small pool
/// ([`Session::empdep_paged`]) so that page counts show eviction.
pub fn firm_session(mut s: Session, params: FirmParams) -> (Session, Firm) {
    s.consult(views::SAME_MANAGER).expect("views parse");
    s.consult(
        "works_for(L, H) :- works_dir_for(L, H).
         works_for(L, H) :- works_dir_for(L, M), works_for(M, H).",
    )
    .expect("views parse");
    let firm = Firm::generate(params);
    firm.load_into(s.coupler_mut())
        .expect("generated data is consistent");
    (s, firm)
}

/// Standard sweep sizes (employee-count scale points).
pub fn firm_sweep() -> Vec<FirmParams> {
    vec![
        FirmParams {
            depth: 2,
            branching: 2,
            staff_per_dept: 2,
            seed: 1,
        },
        FirmParams {
            depth: 3,
            branching: 2,
            staff_per_dept: 4,
            seed: 1,
        },
        FirmParams {
            depth: 3,
            branching: 3,
            staff_per_dept: 5,
            seed: 1,
        },
        FirmParams {
            depth: 4,
            branching: 3,
            staff_per_dept: 6,
            seed: 1,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (mut s, firm) = firm_session(Session::empdep(), FirmParams::default());
        assert!(firm.employees.len() > 10);
        let goal = format!("works_dir_for(t_X, '{}')", firm.ceo());
        assert!(!s.query(&goal, "q").unwrap().answers.is_empty());
    }

    #[test]
    fn sweep_is_increasing() {
        let sizes: Vec<usize> = firm_sweep()
            .into_iter()
            .map(|p| Firm::generate(p).employees.len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }
}
