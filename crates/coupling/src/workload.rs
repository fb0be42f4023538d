//! Synthetic `empdep` workload generator.
//!
//! The paper evaluates on a corporate employees/departments database but
//! reports no data; this generator builds management hierarchies with
//! controllable depth, branching and department size, which is what the
//! paper experiments of the `experiments` binary (`BENCH_experiments.json`)
//! sweep over.
//!
//! Shape: the CEO (`e1`) belongs to the root department, which the CEO
//! manages (one benign `works_dir_for(e1, e1)` self-loop — unavoidable
//! under total referential integrity, and useful for exercising
//! cycle-safety). Each manager's department contains the managers of its
//! child departments plus a fixed number of staff.

use crate::{Coupler, Result};
use rqs::Datum;

/// Minimal deterministic SplitMix64 generator. The workload only needs
/// reproducible salary noise, not cryptographic quality, and the build
/// environment has no registry access for the `rand` crate.
struct SalaryRng {
    state: u64,
}

impl SalaryRng {
    fn seed_from_u64(seed: u64) -> SalaryRng {
        SalaryRng {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from an inclusive integer range.
    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// Hierarchy parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FirmParams {
    /// Management levels below the CEO.
    pub depth: usize,
    /// Child departments per manager.
    pub branching: usize,
    /// Non-manager employees per department.
    pub staff_per_dept: usize,
    /// RNG seed (salaries only; the structure is deterministic).
    pub seed: u64,
}

impl Default for FirmParams {
    fn default() -> Self {
        FirmParams {
            depth: 3,
            branching: 2,
            staff_per_dept: 3,
            seed: 42,
        }
    }
}

/// One `empl` tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Employee {
    pub eno: i64,
    pub nam: String,
    pub sal: i64,
    pub dno: i64,
    /// Distance from the CEO (0 for the CEO).
    pub level: usize,
}

/// One `dept` tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Department {
    pub dno: i64,
    pub fct: String,
    pub mgr: i64,
}

/// A generated firm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firm {
    pub params: FirmParams,
    pub employees: Vec<Employee>,
    pub departments: Vec<Department>,
}

impl Firm {
    /// Generates the hierarchy.
    pub fn generate(params: FirmParams) -> Firm {
        let mut rng = SalaryRng::seed_from_u64(params.seed);
        let mut firm = Firm {
            params,
            employees: Vec::new(),
            departments: Vec::new(),
        };
        let ceo = firm.new_employee(&mut rng, 1, 0); // dno patched below: root dept is 1
        let root = firm.new_department(ceo);
        debug_assert_eq!(root, 1);
        firm.populate(&mut rng, root, 1);
        firm
    }

    fn new_employee(&mut self, rng: &mut SalaryRng, dno: i64, level: usize) -> i64 {
        let eno = self.employees.len() as i64 + 1;
        self.employees.push(Employee {
            eno,
            nam: format!("e{eno}"),
            sal: rng.in_range(10_000, 90_000),
            dno,
            level,
        });
        eno
    }

    fn new_department(&mut self, mgr: i64) -> i64 {
        let dno = self.departments.len() as i64 + 1;
        self.departments.push(Department {
            dno,
            fct: format!("f{dno}"),
            mgr,
        });
        dno
    }

    fn populate(&mut self, rng: &mut SalaryRng, dept: i64, level: usize) {
        for _ in 0..self.params.staff_per_dept {
            self.new_employee(rng, dept, level);
        }
        if level > self.params.depth {
            return;
        }
        for _ in 0..self.params.branching {
            let manager = self.new_employee(rng, dept, level);
            let child = self.new_department(manager);
            self.populate(rng, child, level + 1);
        }
    }

    /// The CEO's name (`e1`).
    pub fn ceo(&self) -> &str {
        &self.employees[0].nam
    }

    /// A maximally deep employee (longest chain to the CEO).
    pub fn deepest_employee(&self) -> &str {
        let deepest = self
            .employees
            .iter()
            .max_by_key(|e| e.level)
            .expect("firm has employees");
        &deepest.nam
    }

    /// Length of the management chain from [`Firm::deepest_employee`] to
    /// the CEO.
    pub fn max_chain(&self) -> usize {
        self.employees.iter().map(|e| e.level).max().unwrap_or(0)
    }

    /// Loads the firm into a coupler's external database and re-validates
    /// integrity.
    pub fn load_into(&self, coupler: &mut Coupler) -> Result<()> {
        for e in &self.employees {
            coupler.load_tuple(
                "empl",
                &[
                    Datum::Int(e.eno),
                    Datum::text(&e.nam),
                    Datum::Int(e.sal),
                    Datum::Int(e.dno),
                ],
            )?;
        }
        for d in &self.departments {
            coupler.load_tuple(
                "dept",
                &[Datum::Int(d.dno), Datum::text(&d.fct), Datum::Int(d.mgr)],
            )?;
        }
        coupler.check_integrity()
    }

    /// Loads the firm straight into a bare RQS database whose `empl`/`dept`
    /// tables already exist (for DBMS-only benchmarks).
    pub fn load_into_rqs(&self, db: &mut rqs::Database) -> Result<()> {
        for e in &self.employees {
            db.insert_unchecked(
                "empl",
                vec![
                    Datum::Int(e.eno),
                    Datum::text(&e.nam),
                    Datum::Int(e.sal),
                    Datum::Int(e.dno),
                ],
            )?;
        }
        for d in &self.departments {
            db.insert_unchecked(
                "dept",
                vec![Datum::Int(d.dno), Datum::text(&d.fct), Datum::Int(d.mgr)],
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_structure() {
        let a = Firm::generate(FirmParams::default());
        let b = Firm::generate(FirmParams::default());
        assert_eq!(a, b);
        let c = Firm::generate(FirmParams {
            seed: 7,
            ..FirmParams::default()
        });
        // Same structure, different salaries.
        assert_eq!(a.employees.len(), c.employees.len());
        assert!(a
            .employees
            .iter()
            .zip(&c.employees)
            .any(|(x, y)| x.sal != y.sal));
    }

    #[test]
    fn counts_match_parameters() {
        let p = FirmParams {
            depth: 2,
            branching: 2,
            staff_per_dept: 1,
            seed: 1,
        };
        let firm = Firm::generate(p);
        // Departments: root + 2 + 4 = 7; managers: 1 + 2 + 4 = 7 employees
        // are managers; staff: 1 per dept = 7.
        assert_eq!(firm.departments.len(), 7);
        assert_eq!(firm.employees.len(), 14);
        assert_eq!(firm.max_chain(), 3);
    }

    #[test]
    fn referential_integrity_by_construction() {
        let firm = Firm::generate(FirmParams::default());
        let mut coupler = Coupler::empdep();
        firm.load_into(&mut coupler).unwrap();
    }

    #[test]
    fn salaries_respect_bounds() {
        let firm = Firm::generate(FirmParams {
            seed: 99,
            ..FirmParams::default()
        });
        assert!(firm
            .employees
            .iter()
            .all(|e| (10_000..=90_000).contains(&e.sal)));
    }

    #[test]
    fn ceo_and_deepest() {
        let firm = Firm::generate(FirmParams {
            depth: 2,
            branching: 1,
            staff_per_dept: 1,
            seed: 1,
        });
        assert_eq!(firm.ceo(), "e1");
        let deepest = firm.deepest_employee();
        let e = firm.employees.iter().find(|e| e.nam == deepest).unwrap();
        assert_eq!(e.level, firm.max_chain());
    }
}
