//! LP solution records and re-verification.
//!
//! The simplex tableau can drift under floating point, so no LP answer is
//! trusted unchecked: `verify` re-checks a solution against the original
//! constraints (LP (2) asserts it in debug builds), and every enforcement
//! entry point in `ndg-sne` re-checks its subsidies with an exact
//! equilibrium gate before answering.

use crate::problem::LinearProgram;

/// Outcome of an LP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints are unsatisfiable.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Solution of a linear program.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Status of the solve.
    pub status: LpStatus,
    /// Variable values (empty unless `Optimal`).
    pub x: Vec<f64>,
    /// Objective value (`NaN` if infeasible, `−∞` if unbounded).
    pub objective: f64,
}

impl LpSolution {
    /// Whether this is an optimal solution satisfying all constraints of
    /// `lp` within `tol`.
    pub fn verify(&self, lp: &LinearProgram, tol: f64) -> bool {
        self.status == LpStatus::Optimal
            && self.x.len() == lp.num_vars()
            && lp.max_violation(&self.x) <= tol
            && (lp.objective_at(&self.x) - self.objective).abs() <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinearProgram;

    #[test]
    fn verify_accepts_good_rejects_bad() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0).unwrap();
        lp.add_ge(vec![(x, 1.0)], 2.0).unwrap();
        let good = LpSolution {
            status: LpStatus::Optimal,
            x: vec![2.0],
            objective: 2.0,
        };
        assert!(good.verify(&lp, 1e-9));
        let infeasible_point = LpSolution {
            status: LpStatus::Optimal,
            x: vec![1.0],
            objective: 1.0,
        };
        assert!(!infeasible_point.verify(&lp, 1e-9));
        let wrong_obj = LpSolution {
            status: LpStatus::Optimal,
            x: vec![2.0],
            objective: 5.0,
        };
        assert!(!wrong_obj.verify(&lp, 1e-9));
        let not_optimal = LpSolution {
            status: LpStatus::Infeasible,
            x: vec![],
            objective: f64::NAN,
        };
        assert!(!not_optimal.verify(&lp, 1e-9));
    }
}
