//! Oracle test for the sparse-pivot simplex kernel: the dense kernel it
//! replaced, kept verbatim as a reference, must make the same pivots and
//! return the same bits on every LP.

#![cfg(test)]

use crate::problem::{LinearProgram, Row, RowOp};
use crate::simplex::solve_counting_pivots;
use crate::solution::LpStatus;
use rand::prelude::*;

/// The full-tableau kernel, unchanged except for the pivot counter.
mod reference {
    use crate::problem::{LinearProgram, LpError, RowOp};
    use crate::solution::{LpSolution, LpStatus};
    use std::cell::Cell;

    const PIVOT_EPS: f64 = 1e-9;
    const COST_EPS: f64 = 1e-9;
    const FEAS_EPS: f64 = 1e-7;
    const DANTZIG_LIMIT_FACTOR: usize = 20;

    thread_local! {
        static PIVOTS: Cell<usize> = const { Cell::new(0) };
    }

    /// [`solve`] and the number of pivots it made.
    pub fn solve_counting_pivots(lp: &LinearProgram) -> (Result<LpSolution, LpError>, usize) {
        PIVOTS.set(0);
        let sol = solve(lp);
        (sol, PIVOTS.get())
    }

    /// Solve `lp` with the two-phase simplex.
    pub fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
        let n_struct = lp.num_vars();
        if n_struct == 0 {
            return Ok(LpSolution {
                status: LpStatus::Optimal,
                x: Vec::new(),
                objective: 0.0,
            });
        }

        // Normalized rows over shifted variables y = x − lo:
        //   (dense coeffs, op, rhs), rhs made ≥ 0 by row negation.
        let lo = lp.lower_bounds();
        let hi = lp.upper_bounds();
        let mut norm_rows: Vec<(Vec<f64>, RowOp, f64)> = Vec::new();
        for row in lp.rows() {
            let mut dense = vec![0.0; n_struct];
            let mut shift = 0.0;
            for &(j, a) in &row.coeffs {
                dense[j] += a;
                shift += a * lo[j];
            }
            norm_rows.push((dense, row.op, row.rhs - shift));
        }
        for j in 0..n_struct {
            if hi[j].is_finite() {
                let mut dense = vec![0.0; n_struct];
                dense[j] = 1.0;
                norm_rows.push((dense, RowOp::Le, hi[j] - lo[j]));
            }
        }
        for (dense, op, rhs) in norm_rows.iter_mut() {
            if *rhs < 0.0 {
                for a in dense.iter_mut() {
                    *a = -*a;
                }
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
            .filter(|(_, op, _)| *op != RowOp::Eq)
            .count();
        // Artificials: for ≥ and = rows. For ≤ rows the slack is the initial basis.
        let n_art = norm_rows
            .iter()
            .filter(|(_, op, _)| *op != RowOp::Le)
            .count();
        let n_total = n_struct + n_slack + n_art;
        let width = n_total + 1; // + rhs column

        // Tableau rows 0..m are constraints; row m is the phase-II cost row;
        // row m+1 is the phase-I cost row.
        let mut t = vec![0.0f64; (m + 2) * width];
        let idx = |r: usize, c: usize| r * width + c;
        let mut basis = vec![usize::MAX; m];
        let mut is_artificial = vec![false; n_total];

        let mut next_slack = n_struct;
        let mut next_art = n_struct + n_slack;
        for (r, (dense, op, rhs)) in norm_rows.iter().enumerate() {
            for (j, &a) in dense.iter().enumerate() {
                t[idx(r, j)] = a;
            }
            t[idx(r, n_total)] = *rhs;
            match op {
                RowOp::Le => {
                    t[idx(r, next_slack)] = 1.0;
                    basis[r] = next_slack;
                    next_slack += 1;
                }
                RowOp::Ge => {
                    t[idx(r, next_slack)] = -1.0;
                    next_slack += 1;
                    t[idx(r, next_art)] = 1.0;
                    is_artificial[next_art] = true;
                    basis[r] = next_art;
                    next_art += 1;
                }
                RowOp::Eq => {
                    t[idx(r, next_art)] = 1.0;
                    is_artificial[next_art] = true;
                    basis[r] = next_art;
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
        for j in 0..n_total {
            if is_artificial[j] {
                t[idx(m + 1, j)] = 1.0;
            }
        }
        for r in 0..m {
            if is_artificial[basis[r]] {
                for c in 0..width {
                    t[idx(m + 1, c)] -= t[idx(r, c)];
                }
            }
        }

        let max_iters = 200 * (m + n_total) + 2000;
        let dantzig_limit = DANTZIG_LIMIT_FACTOR * (m + n_total) + 200;

        // ---- Phase I ----
        if n_art > 0 {
            run_phase(
                &mut t,
                &mut basis,
                m,
                n_total,
                width,
                m + 1,
                &|_j| true,
                max_iters,
                dantzig_limit,
            )?;
            let phase1_obj = -t[idx(m + 1, n_total)];
            if phase1_obj > FEAS_EPS {
                return Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    x: Vec::new(),
                    objective: f64::NAN,
                });
            }
            // Drive remaining artificials out of the basis where possible.
            for r in 0..m {
                if is_artificial[basis[r]] {
                    let mut pivoted = false;
                    for j in 0..n_total {
                        if !is_artificial[j] && t[idx(r, j)].abs() > PIVOT_EPS {
                            pivot(&mut t, &mut basis, m, width, r, j);
                            pivoted = true;
                            break;
                        }
                    }
                    // If no pivot exists the row is redundant; the artificial
                    // stays basic at value ~0, which is harmless.
                    let _ = pivoted;
                }
            }
        }

        // ---- Phase II ----
        let allowed = |j: usize| !is_artificial[j];
        let unbounded = run_phase(
            &mut t,
            &mut basis,
            m,
            n_total,
            width,
            m,
            &allowed,
            max_iters,
            dantzig_limit,
        )?;
        if unbounded {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                x: Vec::new(),
                objective: f64::NEG_INFINITY,
            });
        }

        // Extract shifted solution, then unshift.
        let mut y = vec![0.0f64; n_total];
        for r in 0..m {
            y[basis[r]] = t[idx(r, n_total)];
        }
        let x: Vec<f64> = (0..n_struct).map(|j| lo[j] + y[j].max(0.0)).collect();
        let objective = lp.objective_at(&x);
        Ok(LpSolution {
            status: LpStatus::Optimal,
            x,
            objective,
        })
    }

    /// Run simplex iterations minimizing the cost row `cost_r`. Returns
    /// `Ok(true)` if unbounded, `Ok(false)` at optimality.
    #[allow(clippy::too_many_arguments)]
    fn run_phase(
        t: &mut [f64],
        basis: &mut [usize],
        m: usize,
        n_total: usize,
        width: usize,
        cost_r: usize,
        allowed: &dyn Fn(usize) -> bool,
        max_iters: usize,
        dantzig_limit: usize,
    ) -> Result<bool, LpError> {
        let idx = |r: usize, c: usize| r * width + c;
        for iter in 0..max_iters {
            // Entering column.
            let bland = iter >= dantzig_limit;
            let mut enter: Option<usize> = None;
            let mut best = -COST_EPS;
            for j in 0..n_total {
                if !allowed(j) {
                    continue;
                }
                let rc = t[idx(cost_r, j)];
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
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = t[idx(r, enter)];
                if a > PIVOT_EPS {
                    let ratio = t[idx(r, n_total)] / a;
                    let better = ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_some_and(|l| basis[r] < basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(leave) = leave else {
                return Ok(true); // unbounded in this phase
            };
            pivot(t, basis, m, width, leave, enter);
        }
        Err(LpError::IterationLimit)
    }

    /// Pivot on `(row, col)`: normalize the pivot row and eliminate the column
    /// from all other rows (including both cost rows).
    fn pivot(t: &mut [f64], basis: &mut [usize], m: usize, width: usize, row: usize, col: usize) {
        PIVOTS.set(PIVOTS.get() + 1);
        let idx = |r: usize, c: usize| r * width + c;
        let piv = t[idx(row, col)];
        debug_assert!(piv.abs() > PIVOT_EPS, "pivot element too small: {piv}");
        let inv = 1.0 / piv;
        for c in 0..width {
            t[idx(row, c)] *= inv;
        }
        t[idx(row, col)] = 1.0;
        for r in 0..m + 2 {
            if r == row {
                continue;
            }
            let factor = t[idx(r, col)];
            if factor.abs() <= 1e-14 {
                t[idx(r, col)] = 0.0;
                continue;
            }
            for c in 0..width {
                t[idx(r, c)] -= factor * t[idx(row, c)];
            }
            t[idx(r, col)] = 0.0;
        }
        basis[row] = col;
    }
}

/// Chvátal's cycling example (Linear Programming, 1983, §3) followed by
/// an independent block: variables `z ≤ cap` with objective `c`, tied by
/// one `Σ z ≤ cap` row. Dantzig pricing with smallest-index tie-breaking
/// cycles on the first block, so the kernel only finishes through the
/// Bland fallback. Every row is `≤` with a nonnegative right-hand side,
/// so the fallback starts after `20·(2m + n) + 200` iterations.
fn chvatal_cycling_lp(extra: &[(f64, f64)]) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let x: Vec<usize> = [-10.0, 57.0, 9.0, 24.0]
        .into_iter()
        .map(|c| lp.add_var(c, 0.0, f64::INFINITY).unwrap())
        .collect();
    let rows = [
        ([0.5, -5.5, -2.5, 9.0], 0.0),
        ([0.5, -1.5, -0.5, 1.0], 0.0),
        ([1.0, 0.0, 0.0, 0.0], 1.0),
    ];
    for (a, rhs) in rows {
        lp.add_le(x.iter().copied().zip(a).collect(), rhs).unwrap();
    }
    let z: Vec<usize> = extra
        .iter()
        .map(|&(c, cap)| {
            let z = lp.add_var(c, 0.0, f64::INFINITY).unwrap();
            lp.add_le(vec![(z, 1.0)], cap).unwrap();
            z
        })
        .collect();
    if !z.is_empty() {
        let cap: f64 = extra.iter().map(|&(_, cap)| cap).sum();
        lp.add_le(z.iter().map(|&z| (z, 1.0)).collect(), 0.75 * cap)
            .unwrap();
    }
    lp
}

/// A coefficient: a small integer (exact arithmetic, ties) or a float.
fn coeff(rng: &mut StdRng) -> f64 {
    if rng.random_bool(0.5) {
        [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0][rng.random_range(0..6usize)]
    } else {
        rng.random_range(-3.0..3.0)
    }
}

/// Rows of every sense, right-hand sides of both signs (some exactly 0),
/// repeated column indices, finite and infinite upper bounds, nonzero
/// lower bounds. Most rows hold at a random point of the box, so feasible,
/// infeasible and unbounded draws all occur.
fn mixed_lp(rng: &mut StdRng) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let n = rng.random_range(1..=8usize);
    let mut point = Vec::with_capacity(n);
    for _ in 0..n {
        let c = coeff(rng);
        let lo = match rng.random_range(0..3u32) {
            0 => 0.0,
            1 => rng.random_range(-4..=4) as f64,
            _ => rng.random_range(-4.0..4.0),
        };
        let hi = if rng.random_bool(0.5) {
            lo + rng.random_range(0.0..6.0)
        } else {
            f64::INFINITY
        };
        lp.add_var(c, lo, hi).unwrap();
        point.push(lo + rng.random_range(0.0..(hi - lo).min(3.0)).max(0.0));
    }
    for _ in 0..rng.random_range(0..=10usize) {
        // Indices drawn with replacement: repeats accumulate.
        let mut coeffs: Vec<(usize, f64)> = (0..rng.random_range(1..=4usize))
            .map(|_| (rng.random_range(0..n), coeff(rng)))
            .collect();
        if rng.random_bool(0.1) {
            let (j, a) = coeffs[0];
            coeffs.push((j, -a)); // cancels exactly
        }
        let op = [RowOp::Le, RowOp::Ge, RowOp::Eq][rng.random_range(0..3usize)];
        let at_point: f64 = coeffs.iter().map(|&(j, a)| a * point[j]).sum();
        let rhs = match rng.random_range(0..5u32) {
            0 => 0.0,
            1 => rng.random_range(-5..=5) as f64,
            _ => match op {
                RowOp::Le => at_point + rng.random_range(0.0..2.0),
                RowOp::Ge => at_point - rng.random_range(0.0..2.0),
                RowOp::Eq => at_point,
            },
        };
        lp.add_row(Row { coeffs, op, rhs }).unwrap();
    }
    lp
}

/// Small integer coefficients and mostly-zero right-hand sides: many
/// degenerate pivots and exact ratio ties.
fn degenerate_lp(rng: &mut StdRng) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let n = rng.random_range(2..=7usize);
    for _ in 0..n {
        let c = rng.random_range(-3..=2) as f64;
        let hi = if rng.random_bool(0.3) {
            rng.random_range(1..=3) as f64
        } else {
            f64::INFINITY
        };
        lp.add_var(c, 0.0, hi).unwrap();
    }
    for _ in 0..rng.random_range(2..=9usize) {
        let mut coeffs = Vec::new();
        for j in 0..n {
            if rng.random_bool(0.6) {
                coeffs.push((j, rng.random_range(-2..=2) as f64));
            }
        }
        let op = if rng.random_bool(0.8) {
            RowOp::Le
        } else {
            RowOp::Ge
        };
        let rhs = if rng.random_bool(0.7) {
            0.0
        } else {
            rng.random_range(1..=4) as f64
        };
        lp.add_row(Row::new(coeffs, op, rhs)).unwrap();
    }
    lp
}

/// The shape of LP (2): subsidy variables `b ∈ [0, w]` at cost 1,
/// potentials `π ≥ 0` at cost 0, triangle rows `π_v − π_u + b/den ≤
/// w/den` with at most 3 nonzeros, and `≥` enforcement rows.
fn lp2_shaped(rng: &mut StdRng) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let b: Vec<usize> = (0..rng.random_range(1..=4usize))
        .map(|_| lp.add_var(1.0, 0.0, rng.random_range(0.5..3.0)).unwrap())
        .collect();
    let pi: Vec<usize> = (0..rng.random_range(2..=6usize))
        .map(|_| lp.add_var(0.0, 0.0, f64::INFINITY).unwrap())
        .collect();
    for _ in 0..rng.random_range(3..=15usize) {
        let den = rng.random_range(1..=4) as f64;
        let v = rng.random_range(0..pi.len());
        let mut coeffs = vec![(pi[v], 1.0)];
        let u = rng.random_range(0..pi.len());
        if u != v && rng.random_bool(0.7) {
            coeffs.push((pi[u], -1.0));
        }
        if rng.random_bool(0.6) {
            coeffs.push((b[rng.random_range(0..b.len())], 1.0 / den));
        }
        lp.add_le(coeffs, rng.random_range(0.5..3.0) / den).unwrap();
    }
    for _ in 0..rng.random_range(1..=3usize) {
        let mut coeffs = vec![(pi[rng.random_range(0..pi.len())], 1.0)];
        let mut rhs = 0.0;
        for _ in 0..rng.random_range(1..=3usize) {
            let n_a = rng.random_range(1..=3) as f64;
            rhs += rng.random_range(0.0..1.5) / n_a;
            coeffs.push((b[rng.random_range(0..b.len())], 1.0 / n_a));
        }
        lp.add_ge(coeffs, rhs).unwrap();
    }
    lp
}

/// Solve with both kernels and demand the same status, pivot count and
/// bits. Returns the status and pivot count.
fn assert_same_as_reference(lp: &LinearProgram, case: &str) -> Option<(LpStatus, usize)> {
    let (want, want_pivots) = reference::solve_counting_pivots(lp);
    match (want, solve_counting_pivots(lp)) {
        (Ok(want), Ok((got, pivots))) => {
            assert_eq!(got.status, want.status, "{case}: status");
            assert_eq!(pivots, want_pivots, "{case}: pivot count");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.x), bits(&want.x), "{case}: x");
            assert_eq!(
                got.objective.to_bits(),
                want.objective.to_bits(),
                "{case}: objective {} vs {}",
                got.objective,
                want.objective
            );
            Some((got.status, pivots))
        }
        (Err(want), Err(got)) => {
            assert_eq!(got, want, "{case}: error");
            None
        }
        (want, got) => panic!("{case}: reference {want:?}, sparse {got:?}"),
    }
}

#[test]
fn sparse_pivots_match_the_dense_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut statuses = [0usize; 3];
    for case in 0..600 {
        let lp = match case % 4 {
            0 | 1 => mixed_lp(&mut rng),
            2 => degenerate_lp(&mut rng),
            _ => lp2_shaped(&mut rng),
        };
        if let Some((status, _)) = assert_same_as_reference(&lp, &format!("case {case}")) {
            statuses[status as usize] += 1;
        }
    }
    // The draw covers every outcome.
    assert!(statuses.iter().all(|&k| k >= 20), "{statuses:?}");
}

#[test]
fn cycling_lps_reach_the_bland_fallback_identically() {
    let mut rng = StdRng::seed_from_u64(1983);
    for case in 0..20 {
        let extra: Vec<(f64, f64)> = (0..rng.random_range(0..=4usize))
            .map(|_| (rng.random_range(-3.0..3.0), rng.random_range(0.0..3.0)))
            .collect();
        let lp = chvatal_cycling_lp(&extra);
        let (status, pivots) = assert_same_as_reference(&lp, &format!("cycling case {case}"))
            .expect("the kernel finishes");
        assert_eq!(status, LpStatus::Optimal);
        let m = lp.num_rows();
        let dantzig_limit = 20 * (2 * m + lp.num_vars()) + 200;
        assert!(pivots > dantzig_limit, "case {case}: {pivots} pivots");
    }
}
