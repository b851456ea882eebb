//! LP model builder: minimize `cᵀx` subject to linear rows and box bounds.
//!
//! The three subsidy LPs of the paper — the exponential LP (1), the
//! polynomial reformulation LP (2) and the broadcast LP (3) — are all built
//! through this interface. Rows are stored sparsely; the solver copies them
//! into a dense tableau.

use std::fmt;

/// Row sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOp {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

/// A single linear constraint with sparse coefficients.
#[derive(Clone, Debug)]
pub struct Row {
    /// `(variable index, coefficient)` pairs; duplicate indices are summed.
    pub coeffs: Vec<(usize, f64)>,
    /// Sense of the row.
    pub op: RowOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl Row {
    /// Build a row, dropping zero coefficients.
    pub fn new(coeffs: Vec<(usize, f64)>, op: RowOp, rhs: f64) -> Self {
        let coeffs = coeffs.into_iter().filter(|&(_, a)| a != 0.0).collect();
        Row { coeffs, op, rhs }
    }

    /// Evaluate the left-hand side at `x`.
    pub fn lhs_at(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(j, a)| a * x[j]).sum()
    }

    /// Signed violation at `x` (positive = violated), in the row's natural
    /// units.
    pub fn violation_at(&self, x: &[f64]) -> f64 {
        let lhs = self.lhs_at(x);
        match self.op {
            RowOp::Le => lhs - self.rhs,
            RowOp::Ge => self.rhs - lhs,
            RowOp::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// Errors raised while building or solving an LP.
#[derive(Clone, Debug, PartialEq)]
pub enum LpError {
    /// Variable index out of range in a row.
    VarOutOfRange { var: usize, num_vars: usize },
    /// A bound pair with `lo > hi`, or non-finite lower bound.
    BadBounds { var: usize, lo: f64, hi: f64 },
    /// Non-finite coefficient or rhs.
    NotFinite,
    /// The simplex iteration limit was exceeded (numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::VarOutOfRange { var, num_vars } => {
                write!(f, "variable {var} out of range ({num_vars} vars)")
            }
            LpError::BadBounds { var, lo, hi } => {
                write!(f, "variable {var} has bad bounds [{lo}, {hi}]")
            }
            LpError::NotFinite => write!(f, "non-finite coefficient or rhs"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// A linear program: minimize `cᵀx` s.t. rows, `lo ≤ x ≤ hi`
/// (`hi` may be `f64::INFINITY`).
#[derive(Clone, Debug, Default)]
pub struct LinearProgram {
    obj: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    rows: Vec<Row>,
}

impl LinearProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with objective coefficient `obj` and bounds
    /// `[lo, hi]`; returns its index.
    pub fn add_var(&mut self, obj: f64, lo: f64, hi: f64) -> Result<usize, LpError> {
        if !obj.is_finite() || !lo.is_finite() || hi.is_nan() {
            return Err(LpError::NotFinite);
        }
        if lo > hi {
            return Err(LpError::BadBounds {
                var: self.obj.len(),
                lo,
                hi,
            });
        }
        self.obj.push(obj);
        self.lo.push(lo);
        self.hi.push(hi);
        Ok(self.obj.len() - 1)
    }

    /// Add a constraint row.
    pub fn add_row(&mut self, row: Row) -> Result<usize, LpError> {
        if !row.rhs.is_finite() {
            return Err(LpError::NotFinite);
        }
        for &(j, a) in &row.coeffs {
            if j >= self.obj.len() {
                return Err(LpError::VarOutOfRange {
                    var: j,
                    num_vars: self.obj.len(),
                });
            }
            if !a.is_finite() {
                return Err(LpError::NotFinite);
            }
        }
        self.rows.push(row);
        Ok(self.rows.len() - 1)
    }

    /// Convenience: add `Σ coeffs ≤ rhs`.
    pub fn add_le(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) -> Result<usize, LpError> {
        self.add_row(Row::new(coeffs, RowOp::Le, rhs))
    }

    /// Convenience: add `Σ coeffs ≥ rhs`.
    pub fn add_ge(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) -> Result<usize, LpError> {
        self.add_row(Row::new(coeffs, RowOp::Ge, rhs))
    }

    /// Convenience: add `Σ coeffs = rhs`.
    pub fn add_eq(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) -> Result<usize, LpError> {
        self.add_row(Row::new(coeffs, RowOp::Eq, rhs))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.obj
    }

    /// Lower bounds.
    pub fn lower_bounds(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds (may contain `f64::INFINITY`).
    pub fn upper_bounds(&self) -> &[f64] {
        &self.hi
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Objective value at `x`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Maximum violation of any row or bound at `x` (0 means feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut v: f64 = 0.0;
        for row in &self.rows {
            v = v.max(row.violation_at(x));
        }
        for (j, &xj) in x.iter().enumerate().take(self.num_vars()) {
            v = v.max(self.lo[j] - xj);
            if self.hi[j].is_finite() {
                v = v.max(xj - self.hi[j]);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_eval() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 10.0).unwrap();
        let y = lp.add_var(2.0, 0.0, f64::INFINITY).unwrap();
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 5.0).unwrap();
        lp.add_ge(vec![(x, 1.0)], 1.0).unwrap();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_rows(), 2);
        assert_eq!(lp.objective_at(&[1.0, 2.0]), 5.0);
        assert_eq!(lp.rows()[0].lhs_at(&[1.0, 2.0]), 3.0);
    }

    #[test]
    fn violation_signs() {
        let row_le = Row::new(vec![(0, 1.0)], RowOp::Le, 2.0);
        assert!(row_le.violation_at(&[3.0]) > 0.0);
        assert!(row_le.violation_at(&[1.0]) < 0.0);
        let row_ge = Row::new(vec![(0, 1.0)], RowOp::Ge, 2.0);
        assert!(row_ge.violation_at(&[1.0]) > 0.0);
        let row_eq = Row::new(vec![(0, 1.0)], RowOp::Eq, 2.0);
        assert!(row_eq.violation_at(&[1.0]) > 0.0);
        assert_eq!(row_eq.violation_at(&[2.0]), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        let mut lp = LinearProgram::new();
        assert!(lp.add_var(1.0, 2.0, 1.0).is_err());
        assert!(lp.add_var(f64::NAN, 0.0, 1.0).is_err());
        lp.add_var(1.0, 0.0, 1.0).unwrap();
        assert!(lp.add_le(vec![(5, 1.0)], 0.0).is_err());
        assert!(lp.add_le(vec![(0, f64::NAN)], 0.0).is_err());
        assert!(lp.add_le(vec![(0, 1.0)], f64::INFINITY).is_err());
    }

    #[test]
    fn max_violation_includes_bounds() {
        let mut lp = LinearProgram::new();
        lp.add_var(0.0, 1.0, 2.0).unwrap();
        assert!(lp.max_violation(&[0.0]) >= 1.0);
        assert!(lp.max_violation(&[3.0]) >= 1.0);
        assert_eq!(lp.max_violation(&[1.5]), 0.0);
    }

    #[test]
    fn zero_coeffs_dropped() {
        let row = Row::new(vec![(0, 0.0), (1, 2.0)], RowOp::Le, 1.0);
        assert_eq!(row.coeffs.len(), 1);
    }
}
