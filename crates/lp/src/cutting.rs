//! Generic cutting-plane driver.
//!
//! Implements the loop of the paper's Theorem 1: LP (1) has exponentially
//! many constraints, but given a *separation oracle* — for subsidies it is a
//! per-player shortest-path computation on the modified-weight graph `H_i` —
//! the LP can be solved by repeatedly solving a relaxation and adding the
//! violated rows the oracle returns.
//!
//! The oracle has one shape, [`BatchSeparationOracle`]: its
//! independently-separable items (one per player) are fanned out across
//! [`ndg_exec`] worker threads by [`solve_with_batched_cuts`], each worker
//! carrying its own scratch (e.g. a Dijkstra workspace). Rows are gathered
//! **in item order**, so for any thread count the relaxation sees exactly
//! the rows the sequential loop would add — cut generation is
//! reproducible bit for bit. The executor and a cooperative [`Budget`]
//! are arguments of the one loop.

use crate::problem::{LinearProgram, LpError, Row};
use crate::simplex;
use crate::solution::{LpSolution, LpStatus};
use ndg_exec::{Budget, Executor};

/// Profiling counters (no-ops until `ndg_obs::install`): cutting-plane
/// relaxation rounds solved and oracle rows added, flushed once per
/// driver call from the exact [`CutStats`] the caller receives.
static LP_CUT_ROUNDS: ndg_obs::Counter = ndg_obs::Counter::new("lp_cut_rounds_total");
static LP_CUTS_ADDED: ndg_obs::Counter = ndg_obs::Counter::new("lp_cuts_added_total");
static LP_CUT_SOLVES: ndg_obs::Counter = ndg_obs::Counter::new("lp_cut_solves_total");

impl CutStats {
    /// Flush this run's totals into the global profiling counters and
    /// the flight recorder (one `lp` sub-event per cutting-plane solve,
    /// linked to the request's trace id).
    fn publish(&self) {
        if ndg_obs::events::recording() {
            ndg_obs::events::emit(
                "lp",
                vec![
                    ("cuts", self.cuts_added.to_string()),
                    ("rounds", self.rounds.to_string()),
                ],
            );
        }
        if !ndg_obs::installed() {
            return;
        }
        LP_CUT_SOLVES.inc();
        LP_CUT_ROUNDS.add(self.rounds as u64);
        LP_CUTS_ADDED.add(self.cuts_added as u64);
    }
}

/// A separation oracle over independently-separable items (players): each
/// item yields at most one violated row per round, and items do not
/// interact within a round — which is what lets
/// [`solve_with_batched_cuts`] evaluate them in parallel.
pub trait BatchSeparationOracle: Sync {
    /// Per-worker scratch state (Dijkstra workspace, path buffers, …).
    type Scratch: Send;

    /// Number of separable items (players).
    fn batch_size(&self) -> usize;

    /// Decode the relaxation point `x` once per round, before any
    /// [`separate_item`](Self::separate_item) call of that round.
    fn prepare(&mut self, x: &[f64]);

    /// Fresh (or pool-checked-out) scratch for one worker.
    fn make_scratch(&self) -> Self::Scratch;

    /// The most violated row of item `k` at the prepared point, or `None`
    /// if item `k`'s constraints are satisfied. Must not depend on any
    /// other item's evaluation.
    fn separate_item(&self, k: usize, scratch: &mut Self::Scratch) -> Option<Row>;
}

/// Solve `lp` (treated as an initial relaxation; it is mutated by adding
/// cuts) against `oracle`, up to `max_rounds` relaxations. Every round,
/// all items are separated concurrently on `ex` and the violated rows are
/// added in item order; with `Executor::sequential()` (or
/// `NDG_THREADS=1`) this is exactly the sequential per-player loop.
///
/// `budget` is checked once per relaxation round (the natural chunk
/// boundary — a round is one simplex solve plus one batched separation
/// sweep) and the loop aborts with [`CutError::Cancelled`] when it
/// expires. With `Budget::unlimited()` the relaxation sequence is
/// untouched.
pub fn solve_with_batched_cuts<O: BatchSeparationOracle>(
    lp: &mut LinearProgram,
    oracle: &mut O,
    max_rounds: usize,
    ex: &Executor,
    budget: &Budget,
) -> Result<(LpSolution, CutStats), CutError> {
    let items: Vec<usize> = (0..oracle.batch_size()).collect();
    let mut stats = CutStats::default();
    for _ in 0..max_rounds {
        if budget.expired() {
            return Err(CutError::Cancelled);
        }
        stats.rounds += 1;
        let sol = simplex::solve(lp)?;
        if sol.status != LpStatus::Optimal {
            return Err(CutError::BadRelaxation(sol.status));
        }
        oracle.prepare(&sol.x);
        let oracle_ref: &O = oracle;
        let cuts: Vec<Row> = ex
            .par_map_with(
                &items,
                || oracle_ref.make_scratch(),
                |scratch, &k| oracle_ref.separate_item(k, scratch),
            )
            .into_iter()
            .flatten()
            .collect();
        if cuts.is_empty() {
            stats.publish();
            return Ok((sol, stats));
        }
        for cut in cuts {
            lp.add_row(cut)?;
            stats.cuts_added += 1;
        }
    }
    Err(CutError::RoundLimit(max_rounds))
}

/// Statistics of a cutting-plane run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CutStats {
    /// Relaxations solved.
    pub rounds: usize,
    /// Total rows added by the oracle.
    pub cuts_added: usize,
}

/// Errors of the cutting-plane loop.
#[derive(Clone, Debug, PartialEq)]
pub enum CutError {
    /// The underlying LP solver failed.
    Lp(LpError),
    /// A relaxation was infeasible or unbounded (status attached).
    BadRelaxation(LpStatus),
    /// The round limit was exhausted before the oracle was satisfied.
    RoundLimit(usize),
    /// The caller's [`Budget`] expired (deadline or cancellation).
    Cancelled,
}

impl std::fmt::Display for CutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutError::Lp(e) => write!(f, "lp error: {e}"),
            CutError::BadRelaxation(s) => write!(f, "relaxation not optimal: {s:?}"),
            CutError::RoundLimit(r) => write!(f, "cutting-plane round limit {r} exceeded"),
            CutError::Cancelled => write!(f, "cutting-plane loop cancelled by budget"),
        }
    }
}

impl std::error::Error for CutError {}

impl From<LpError> for CutError {
    fn from(e: LpError) -> Self {
        CutError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Row, RowOp};

    /// Separation over the exponentially many constraints
    /// `Σ_{i∈S} x_i ≥ |S|` for all nonempty S ⊆ {0,1,2}, one item per
    /// subset mask; equivalent to `x_i ≥ 1` each, so minimizing Σx gives 3.
    struct SubsetOracle {
        x: Vec<f64>,
    }

    impl BatchSeparationOracle for SubsetOracle {
        type Scratch = ();

        fn batch_size(&self) -> usize {
            7 // masks 1..8
        }

        fn prepare(&mut self, x: &[f64]) {
            self.x = x.to_vec();
        }

        fn make_scratch(&self) -> Self::Scratch {}

        fn separate_item(&self, k: usize, _scratch: &mut ()) -> Option<Row> {
            let mask = (k + 1) as u32;
            let members: Vec<usize> = (0..3).filter(|i| mask >> i & 1 == 1).collect();
            let lhs: f64 = members.iter().map(|&i| self.x[i]).sum();
            if lhs < members.len() as f64 - 1e-7 {
                Some(Row::new(
                    members.iter().map(|&i| (i, 1.0)).collect(),
                    RowOp::Ge,
                    members.len() as f64,
                ))
            } else {
                None
            }
        }
    }

    /// A one-item oracle that ignores the point and returns `cut(round)`,
    /// counting rounds from 1.
    struct ScriptedOracle<F> {
        round: usize,
        cut: F,
    }

    impl<F: Fn(usize) -> Option<Row> + Sync> BatchSeparationOracle for ScriptedOracle<F> {
        type Scratch = ();

        fn batch_size(&self) -> usize {
            1
        }

        fn prepare(&mut self, _x: &[f64]) {
            self.round += 1;
        }

        fn make_scratch(&self) -> Self::Scratch {}

        fn separate_item(&self, _k: usize, _scratch: &mut ()) -> Option<Row> {
            (self.cut)(self.round)
        }
    }

    fn subset_lp() -> LinearProgram {
        let mut lp = LinearProgram::new();
        for _ in 0..3 {
            lp.add_var(1.0, 0.0, 10.0).unwrap();
        }
        lp
    }

    fn solve_sequential<O: BatchSeparationOracle>(
        lp: &mut LinearProgram,
        oracle: &mut O,
        max_rounds: usize,
    ) -> Result<(LpSolution, CutStats), CutError> {
        let ex = Executor::sequential();
        solve_with_batched_cuts(lp, oracle, max_rounds, &ex, &Budget::unlimited())
    }

    #[test]
    fn cutting_plane_reaches_full_lp_optimum() {
        let mut lp = subset_lp();
        let mut oracle = SubsetOracle { x: Vec::new() };
        let (sol, stats) = solve_sequential(&mut lp, &mut oracle, 50).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-7);
        assert!(stats.rounds >= 2);
        assert!(stats.cuts_added >= 3);
    }

    #[test]
    fn immediate_feasibility_one_round() {
        let mut lp = LinearProgram::new();
        lp.add_var(1.0, 2.0, 5.0).unwrap();
        let mut oracle = ScriptedOracle {
            round: 0,
            cut: |_| None,
        };
        let (sol, stats) = solve_sequential(&mut lp, &mut oracle, 5).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.cuts_added, 0);
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn batched_cuts_match_sequential_for_every_thread_count() {
        let mut reference: Option<(Vec<f64>, usize, usize)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut lp = subset_lp();
            let mut oracle = SubsetOracle { x: Vec::new() };
            let ex = Executor::new(threads);
            let (sol, stats) =
                solve_with_batched_cuts(&mut lp, &mut oracle, 50, &ex, &Budget::unlimited())
                    .unwrap();
            assert!((sol.objective - 3.0).abs() < 1e-7);
            match &reference {
                None => reference = Some((sol.x.clone(), stats.rounds, stats.cuts_added)),
                Some((x, rounds, cuts)) => {
                    // Bit-identical point and identical loop shape.
                    assert_eq!(sol.x, *x, "threads={threads}");
                    assert_eq!(stats.rounds, *rounds);
                    assert_eq!(stats.cuts_added, *cuts);
                }
            }
        }
    }

    #[test]
    fn expired_budget_cancels_before_first_round() {
        let mut lp = subset_lp();
        let mut oracle = SubsetOracle { x: Vec::new() };
        let ex = Executor::sequential();
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let err = solve_with_batched_cuts(&mut lp, &mut oracle, 50, &ex, &budget).unwrap_err();
        assert_eq!(err, CutError::Cancelled);
    }

    #[test]
    fn unexpired_deadline_matches_unlimited_budget() {
        let solve = |budget: &Budget| {
            let mut lp = subset_lp();
            let mut oracle = SubsetOracle { x: Vec::new() };
            let ex = Executor::sequential();
            solve_with_batched_cuts(&mut lp, &mut oracle, 50, &ex, budget).unwrap()
        };
        let (a, sa) = solve(&Budget::unlimited());
        let (b, sb) = solve(&Budget::with_deadline(std::time::Duration::from_secs(3600)));
        assert_eq!(a.x, b.x);
        assert_eq!(sa.rounds, sb.rounds);
        assert_eq!(sa.cuts_added, sb.cuts_added);
    }

    #[test]
    fn round_limit_reported() {
        let mut lp = LinearProgram::new();
        lp.add_var(1.0, 0.0, 10.0).unwrap();
        // Never satisfied: a fresh valid cut every round, tightening
        // x ≥ k/1000, so the relaxation stays feasible and rounds go on.
        let mut oracle = ScriptedOracle {
            round: 0,
            cut: |k| Some(Row::new(vec![(0, 1.0)], RowOp::Ge, k as f64 / 1000.0)),
        };
        let err = solve_sequential(&mut lp, &mut oracle, 4).unwrap_err();
        assert_eq!(err, CutError::RoundLimit(4));
    }

    #[test]
    fn infeasible_cut_surfaces_as_bad_relaxation() {
        let mut lp = LinearProgram::new();
        lp.add_var(1.0, 0.0, 1.0).unwrap();
        // x ≥ 5 is impossible with hi = 1.
        let mut oracle = ScriptedOracle {
            round: 0,
            cut: |k| (k == 1).then(|| Row::new(vec![(0, 1.0)], RowOp::Ge, 5.0)),
        };
        let err = solve_sequential(&mut lp, &mut oracle, 5).unwrap_err();
        assert_eq!(err, CutError::BadRelaxation(LpStatus::Infeasible));
    }
}
