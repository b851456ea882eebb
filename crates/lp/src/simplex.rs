//! Two-phase primal simplex on a dense tableau with sparse-row pivots.
//!
//! Scope: the subsidy LPs have at most a few thousand rows/columns, so a
//! dense tableau with Dantzig pricing (Bland's rule fallback for
//! anti-cycling) is both simple and ample. The paper invokes the ellipsoid
//! method purely as a polynomiality certificate: its LPs have the same
//! optima under any exact LP oracle, so the simplex substitutes for it
//! without changing an answer.
//!
//! Model handled: minimize `cᵀx`, rows `≤ / ≥ / =`, box bounds
//! `lo ≤ x ≤ hi`. Bounds are normalized by shifting to `y = x − lo ≥ 0`;
//! finite upper bounds become explicit rows. The tableau is filled
//! straight from the sparse rows.
//!
//! The tableau is stored densely, but a pivot touches only nonzeros: the
//! column scan before the ratio test collects the rows with a nonzero in
//! the entering column, the pivot row is scaled on its nonzeros only, and
//! elimination updates those columns on the collected rows and the two
//! cost rows. The subsidy LPs are very sparse (an LP (2) row has at most
//! three structural nonzeros), so a pivot costs about `|row| × |column|`
//! updates instead of the whole tableau.
//!
//! A skipped cell would have been `t[r][c] −= factor · 0`, which leaves
//! every nonzero exactly as it is and can at most flip the sign of a zero.
//! Pricing, the ratio test and extraction compare and divide only in ways
//! that cannot see the sign of a zero, so the pivot sequence, the solution
//! and the objective are bit-for-bit those of a full dense update.

use crate::problem::{LinearProgram, LpError, RowOp};
use crate::solution::{LpSolution, LpStatus};

/// Pivot tolerance.
const PIVOT_EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_EPS: f64 = 1e-9;
/// Phase-I feasibility tolerance.
const FEAS_EPS: f64 = 1e-7;
/// Iterations of Dantzig pricing before switching to Bland's rule.
const DANTZIG_LIMIT_FACTOR: usize = 20;
/// Elimination factors at most this large are flushed to zero.
const DROP_EPS: f64 = 1e-14;

/// A normalized row: (sparse coefficients, op, rhs, sign).
type NormRow<'a> = (&'a [(usize, f64)], RowOp, f64, f64);

/// Solve `lp` with the two-phase simplex.
pub fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    solve_counting_pivots(lp).map(|(sol, _)| sol)
}

/// [`solve`], also returning the number of pivots it made.
pub(crate) fn solve_counting_pivots(lp: &LinearProgram) -> Result<(LpSolution, usize), LpError> {
    let n_struct = lp.num_vars();
    if n_struct == 0 {
        let sol = LpSolution {
            status: LpStatus::Optimal,
            x: Vec::new(),
            objective: 0.0,
        };
        return Ok((sol, 0));
    }

    // Normalized rows over shifted variables y = x − lo, rhs made ≥ 0 by
    // negating the row (sign −1).
    let lo = lp.lower_bounds();
    let hi = lp.upper_bounds();
    let bound_coeffs: Vec<[(usize, f64); 1]> = (0..n_struct)
        .filter(|&j| hi[j].is_finite())
        .map(|j| [(j, 1.0)])
        .collect();
    let mut norm_rows: Vec<NormRow> = Vec::new();
    for row in lp.rows() {
        let mut shift = 0.0;
        for &(j, a) in &row.coeffs {
            shift += a * lo[j];
        }
        norm_rows.push((&row.coeffs, row.op, row.rhs - shift, 1.0));
    }
    for coeffs in &bound_coeffs {
        let j = coeffs[0].0;
        norm_rows.push((coeffs, RowOp::Le, hi[j] - lo[j], 1.0));
    }
    for (_, op, rhs, sign) in norm_rows.iter_mut() {
        if *rhs < 0.0 {
            *sign = -1.0;
            *rhs = -*rhs;
            *op = match *op {
                RowOp::Le => RowOp::Ge,
                RowOp::Ge => RowOp::Le,
                RowOp::Eq => RowOp::Eq,
            };
        }
    }

    let m = norm_rows.len();
    // Column layout: [structural | slack/surplus | artificial].
    let n_slack = norm_rows
        .iter()
        .filter(|(_, op, _, _)| *op != RowOp::Eq)
        .count();
    // Artificials: for ≥ and = rows. For ≤ rows the slack is the initial basis.
    let n_art = norm_rows
        .iter()
        .filter(|(_, op, _, _)| *op != RowOp::Le)
        .count();
    // Artificials are the trailing columns: column j is artificial iff
    // j ≥ n_real.
    let n_real = n_struct + n_slack;
    let n_total = n_real + n_art;
    let width = n_total + 1; // + rhs column

    let mut tab = Tableau {
        t: vec![0.0f64; (m + 2) * width],
        width,
        m,
        basis: vec![usize::MAX; m],
        col_rows: Vec::with_capacity(m),
        row_nz: Vec::with_capacity(width),
        pivots: 0,
    };
    let t = &mut tab.t;
    let idx = |r: usize, c: usize| r * width + c;

    let mut next_slack = n_struct;
    let mut next_art = n_real;
    for (r, &(coeffs, op, rhs, sign)) in norm_rows.iter().enumerate() {
        // Repeated indices accumulate in row order; a negated row adds
        // the negated coefficients, which rounds exactly as negating the
        // accumulated sum.
        for &(j, a) in coeffs {
            t[idx(r, j)] += sign * a;
        }
        t[idx(r, n_total)] = rhs;
        match op {
            RowOp::Le => {
                t[idx(r, next_slack)] = 1.0;
                tab.basis[r] = next_slack;
                next_slack += 1;
            }
            RowOp::Ge => {
                t[idx(r, next_slack)] = -1.0;
                next_slack += 1;
                t[idx(r, next_art)] = 1.0;
                tab.basis[r] = next_art;
                next_art += 1;
            }
            RowOp::Eq => {
                t[idx(r, next_art)] = 1.0;
                tab.basis[r] = next_art;
                next_art += 1;
            }
        }
    }

    // Phase-II cost row: original objective on shifted variables
    // (the constant cᵀ·lo is added back at extraction).
    for (j, &c) in lp.objective().iter().enumerate() {
        t[idx(m, j)] = c;
    }
    // Phase-I cost row: sum of artificials, then eliminate basic artificials.
    for j in n_real..n_total {
        t[idx(m + 1, j)] = 1.0;
    }
    for r in 0..m {
        if tab.basis[r] >= n_real {
            for c in 0..width {
                t[idx(m + 1, c)] -= t[idx(r, c)];
            }
        }
    }

    let max_iters = 200 * (m + n_total) + 2000;
    let dantzig_limit = DANTZIG_LIMIT_FACTOR * (m + n_total) + 200;

    // ---- Phase I ----
    if n_art > 0 {
        tab.run_phase(m + 1, n_total, max_iters, dantzig_limit)?;
        let phase1_obj = -tab.t[idx(m + 1, n_total)];
        if phase1_obj > FEAS_EPS {
            let sol = LpSolution {
                status: LpStatus::Infeasible,
                x: Vec::new(),
                objective: f64::NAN,
            };
            return Ok((sol, tab.pivots));
        }
        // Drive remaining artificials out of the basis where possible.
        // If no pivot exists the row is redundant; the artificial stays
        // basic at value ~0, which is harmless.
        for r in 0..m {
            if tab.basis[r] >= n_real {
                let row = &tab.t[idx(r, 0)..idx(r, n_real)];
                if let Some(j) = row.iter().position(|a| a.abs() > PIVOT_EPS) {
                    tab.collect_column(j);
                    tab.pivot(r, j);
                }
            }
        }
    }

    // ---- Phase II ----
    let unbounded = tab.run_phase(m, n_real, max_iters, dantzig_limit)?;
    if unbounded {
        let sol = LpSolution {
            status: LpStatus::Unbounded,
            x: Vec::new(),
            objective: f64::NEG_INFINITY,
        };
        return Ok((sol, tab.pivots));
    }

    // Extract shifted solution, then unshift.
    let mut y = vec![0.0f64; n_total];
    for r in 0..m {
        y[tab.basis[r]] = tab.t[idx(r, n_total)];
    }
    let x: Vec<f64> = (0..n_struct).map(|j| lo[j] + y[j].max(0.0)).collect();
    let objective = lp.objective_at(&x);
    let sol = LpSolution {
        status: LpStatus::Optimal,
        x,
        objective,
    };
    Ok((sol, tab.pivots))
}

/// A dense `(m + 2) × width` tableau: rows `0..m` are constraints, row `m`
/// the phase-II cost row, row `m + 1` the phase-I cost row; the last
/// column holds the right-hand sides.
struct Tableau {
    t: Vec<f64>,
    width: usize,
    m: usize,
    basis: Vec<usize>,
    /// Constraint rows with a nonzero in the column about to enter.
    col_rows: Vec<usize>,
    /// `(column, value)` of the scaled pivot row's nonzeros, the pivot
    /// column excluded.
    row_nz: Vec<(usize, f64)>,
    pivots: usize,
}

impl Tableau {
    /// Run simplex iterations minimizing the cost row `cost_r`, pricing
    /// columns `0..limit`. Returns `Ok(true)` if unbounded, `Ok(false)` at
    /// optimality.
    fn run_phase(
        &mut self,
        cost_r: usize,
        limit: usize,
        max_iters: usize,
        dantzig_limit: usize,
    ) -> Result<bool, LpError> {
        let width = self.width;
        let rhs = width - 1;
        for iter in 0..max_iters {
            // Entering column.
            let bland = iter >= dantzig_limit;
            let mut enter: Option<usize> = None;
            let mut best = -COST_EPS;
            let costs = &self.t[cost_r * width..cost_r * width + limit];
            for (j, &rc) in costs.iter().enumerate() {
                if rc < best {
                    enter = Some(j);
                    if bland {
                        break; // Bland: first improving index
                    }
                    best = rc;
                }
            }
            let Some(enter) = enter else {
                return Ok(false); // optimal
            };
            // Ratio test, over the rows with a nonzero in the column.
            self.collect_column(enter);
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for &r in &self.col_rows {
                let a = self.t[r * width + enter];
                if a > PIVOT_EPS {
                    let ratio = self.t[r * width + rhs] / a;
                    let better = ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(leave) = leave else {
                return Ok(true); // unbounded in this phase
            };
            self.pivot(leave, enter);
        }
        Err(LpError::IterationLimit)
    }

    /// Record in `col_rows` the constraint rows with a nonzero in `col`.
    fn collect_column(&mut self, col: usize) {
        let width = self.width;
        // Branch-free compaction (every row is written, only nonzeros
        // advance): the nonzeros are few and scattered, so a branch per
        // row would mispredict on most of them.
        self.col_rows.resize(self.m, 0);
        let mut len = 0;
        for r in 0..self.m {
            self.col_rows[len] = r;
            len += usize::from(self.t[r * width + col] != 0.0);
        }
        self.col_rows.truncate(len);
    }

    /// Pivot on `(row, col)`: normalize the pivot row and eliminate the
    /// column from the rows [`collect_column`](Self::collect_column)
    /// recorded for `col` and from both cost rows. Every other row
    /// already holds a zero in `col`.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let t = &mut self.t;
        let piv = t[row * width + col];
        debug_assert!(piv.abs() > PIVOT_EPS, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        self.row_nz.clear();
        for (c, a) in t[row * width..(row + 1) * width].iter_mut().enumerate() {
            if *a != 0.0 {
                *a *= inv;
                if c != col {
                    self.row_nz.push((c, *a));
                }
            }
        }
        t[row * width + col] = 1.0;
        let others = self.col_rows.iter().copied().filter(|&r| r != row);
        for r in others.chain([self.m, self.m + 1]) {
            let base = r * width;
            let factor = t[base + col];
            if factor.abs() <= DROP_EPS {
                t[base + col] = 0.0;
                continue;
            }
            for &(c, a) in &self.row_nz {
                t[base + c] -= factor * a;
            }
            t[base + col] = 0.0;
        }
        self.basis[row] = col;
        self.pivots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinearProgram;

    fn assert_optimal(lp: &LinearProgram, want_obj: f64, tol: f64) -> Vec<f64> {
        let sol = solve(lp).expect("solver ran");
        assert_eq!(sol.status, LpStatus::Optimal, "expected optimal");
        assert!(
            (sol.objective - want_obj).abs() <= tol,
            "objective {} != {want_obj}",
            sol.objective
        );
        assert!(
            lp.max_violation(&sol.x) <= 1e-6,
            "solution violates constraints by {}",
            lp.max_violation(&sol.x)
        );
        sol.x
    }

    #[test]
    fn trivially_bounded_by_box() {
        // minimize x, x ∈ [3, 10] → 3.
        let mut lp = LinearProgram::new();
        lp.add_var(1.0, 3.0, 10.0).unwrap();
        assert_optimal(&lp, 3.0, 1e-9);
    }

    #[test]
    fn maximize_via_negation() {
        // maximize x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6 → min −x − y.
        // Optimum at intersection: x = 8/5, y = 6/5, obj = 14/5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        lp.add_le(vec![(x, 1.0), (y, 2.0)], 4.0).unwrap();
        lp.add_le(vec![(x, 3.0), (y, 1.0)], 6.0).unwrap();
        let sol = assert_optimal(&lp, -14.0 / 5.0, 1e-8);
        assert!((sol[0] - 1.6).abs() < 1e-7);
        assert!((sol[1] - 1.2).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + y = 2, x − y = 0 → x = y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var(1.0, 0.0, f64::INFINITY).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, -1.0)], 0.0).unwrap();
        let sol = assert_optimal(&lp, 2.0, 1e-8);
        assert!((sol[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 1.0).unwrap();
        lp.add_ge(vec![(x, 1.0)], 2.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // minimize −x, x ≥ 0 unbounded below.
        let mut lp = LinearProgram::new();
        lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // minimize x, x ∈ [−5, 5], x ≥ −2 → −2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, -5.0, 5.0).unwrap();
        lp.add_ge(vec![(x, 1.0)], -2.0).unwrap();
        assert_optimal(&lp, -2.0, 1e-8);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Klee-Minty-ish degenerate LP; just must terminate correctly.
        let mut lp = LinearProgram::new();
        let v: Vec<usize> = (0..3)
            .map(|_| lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap())
            .collect();
        lp.add_le(vec![(v[0], 1.0)], 1.0).unwrap();
        lp.add_le(vec![(v[0], 4.0), (v[1], 1.0)], 8.0).unwrap();
        lp.add_le(vec![(v[0], 8.0), (v[1], 4.0), (v[2], 1.0)], 16.0)
            .unwrap();
        // Degenerate extra rows.
        lp.add_le(vec![(v[0], 1.0)], 1.0).unwrap();
        lp.add_le(vec![(v[1], 1.0)], 4.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimum is x = (0, 0, 16): objective −16.
        assert!((sol.objective - (-16.0)).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn empty_lp() {
        let lp = LinearProgram::new();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 twice; minimize x → x = 0, y = 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var(0.0, 0.0, f64::INFINITY).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0).unwrap();
        assert_optimal(&lp, 0.0, 1e-8);
    }

    /// Brute-force reference: for 2-variable LPs, the optimum lies at an
    /// intersection of two active constraints (or bounds). Compare.
    #[test]
    fn randomized_two_var_against_vertex_enumeration() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for _case in 0..200 {
            let mut lp = LinearProgram::new();
            let c0 = rng.random_range(-3.0..3.0);
            let c1 = rng.random_range(-3.0..3.0);
            let hi0 = rng.random_range(1.0..5.0);
            let hi1 = rng.random_range(1.0..5.0);
            let x = lp.add_var(c0, 0.0, hi0).unwrap();
            let y = lp.add_var(c1, 0.0, hi1).unwrap();
            // Lines a·x + b·y ≤ r with r ≥ 0 so the origin stays feasible
            // and the LP is always bounded by the box.
            let mut lines = vec![
                (1.0, 0.0, hi0),
                (0.0, 1.0, hi1),
                (-1.0, 0.0, 0.0),
                (0.0, -1.0, 0.0),
            ];
            for _ in 0..3 {
                let a = rng.random_range(-2.0..2.0);
                let b = rng.random_range(-2.0..2.0);
                let r = rng.random_range(0.0..4.0);
                lp.add_le(vec![(x, a), (y, b)], r).unwrap();
                lines.push((a, b, r));
            }
            // Vertex enumeration.
            let feasible =
                |px: f64, py: f64| lines.iter().all(|&(a, b, r)| a * px + b * py <= r + 1e-7);
            let mut best = f64::INFINITY;
            for i in 0..lines.len() {
                for j in (i + 1)..lines.len() {
                    let (a1, b1, r1) = lines[i];
                    let (a2, b2, r2) = lines[j];
                    let det = a1 * b2 - a2 * b1;
                    if det.abs() < 1e-9 {
                        continue;
                    }
                    let px = (r1 * b2 - r2 * b1) / det;
                    let py = (a1 * r2 - a2 * r1) / det;
                    if feasible(px, py) {
                        best = best.min(c0 * px + c1 * py);
                    }
                }
            }
            let sol = solve(&lp).unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!(
                (sol.objective - best).abs() < 1e-5,
                "simplex {} vs vertices {best}",
                sol.objective
            );
        }
    }
}
