//! `ndg-sne` — Stable Network Enforcement (Sections 3–4 of the paper).
//!
//! Given a network design game and a target state `T`, compute subsidies of
//! minimum cost that enforce `T` as a Nash equilibrium of the extension:
//!
//! * [`lp_broadcast`] — LP (3): the O(|E|)-constraint broadcast LP
//!   certified correct by Lemma 2.
//! * [`lp_general`] — LP (1): the exponential LP solved by cutting planes
//!   with the shortest-path separation oracle (Theorem 1). It holds the
//!   crate's one cutting-plane engine, written for player demands; LP (1)
//!   runs it at unit demands and [`lp_weighted`] at the client's.
//! * [`lp_poly`] — LP (2): the polynomial-size `π`-variable reformulation.
//! * [`theorem6`] — the constructive algorithm of Theorem 6: weight-layer
//!   decomposition + virtual-cost subsidy packing, with certified cost
//!   `≤ wgt(T)/e`.
//! * [`lower_bound`] — the Theorem 11 cycle family showing `1/e` is tight.
//!
//! Extensions beyond the paper's core results (its Section 6 program):
//!
//! * [`combinatorial`] — an LP-free exact SNE algorithm for the cycle
//!   family (partial answer to the first open problem);
//! * [`lp_weighted`] — enforcement for weighted players via the Theorem 1
//!   constraint-generation route, on the same engine as LP (1).

pub mod combinatorial;
pub mod lower_bound;
pub mod lp_broadcast;
pub mod lp_general;
pub mod lp_poly;
pub mod lp_weighted;
pub mod theorem6;

use ndg_core::{NetworkDesignGame, SubsidyAssignment};
use ndg_graph::EdgeId;
use std::fmt;

/// A subsidy assignment enforcing the target, with its cost.
#[derive(Clone, Debug)]
pub struct SneSolution {
    /// The enforcing subsidies.
    pub subsidies: SubsidyAssignment,
    /// `Σ_a b_a` (cached).
    pub cost: f64,
}

impl SneSolution {
    /// Wrap an assignment, caching its cost.
    pub fn new(subsidies: SubsidyAssignment) -> Self {
        let cost = subsidies.cost();
        SneSolution { subsidies, cost }
    }
}

/// Errors across the SNE solvers.
#[derive(Clone, Debug)]
pub enum SneError {
    /// The game must be a broadcast game for this solver.
    NotBroadcast,
    /// The target edge set is not a spanning tree.
    NotASpanningTree,
    /// Target-state construction failed.
    State(ndg_core::StateError),
    /// LP machinery failed.
    Lp(ndg_lp::LpError),
    /// Cutting-plane loop failed.
    Cut(String),
    /// The LP reported infeasible/unbounded — impossible for SNE (full
    /// subsidies always enforce), so it indicates a numerical breakdown.
    BadLpStatus(ndg_lp::LpStatus),
    /// The computed assignment failed the final equilibrium re-check.
    VerificationFailed,
    /// The caller's [`ndg_exec::Budget`] expired before the solve finished.
    Cancelled,
}

impl fmt::Display for SneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SneError::NotBroadcast => write!(f, "solver requires a broadcast game"),
            SneError::NotASpanningTree => write!(f, "target is not a spanning tree"),
            SneError::State(e) => write!(f, "state error: {e}"),
            SneError::Lp(e) => write!(f, "lp error: {e}"),
            SneError::Cut(e) => write!(f, "cutting-plane error: {e}"),
            SneError::BadLpStatus(s) => write!(f, "unexpected LP status {s:?}"),
            SneError::VerificationFailed => {
                write!(f, "computed subsidies fail the equilibrium re-check")
            }
            SneError::Cancelled => write!(f, "solve cancelled by budget"),
        }
    }
}

impl std::error::Error for SneError {}

impl From<ndg_lp::LpError> for SneError {
    fn from(e: ndg_lp::LpError) -> Self {
        SneError::Lp(e)
    }
}

impl From<ndg_core::StateError> for SneError {
    fn from(e: ndg_core::StateError) -> Self {
        SneError::State(e)
    }
}

/// A uniform interface over the SNE solvers so experiments can sweep them.
pub trait SneSolver {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Compute subsidies enforcing the spanning tree `tree` in `game`.
    fn solve(&self, game: &NetworkDesignGame, tree: &[EdgeId]) -> Result<SneSolution, SneError>;
}

/// LP (3) solver (broadcast games).
pub struct BroadcastLpSolver;

impl SneSolver for BroadcastLpSolver {
    fn name(&self) -> &'static str {
        "lp3-broadcast"
    }
    fn solve(&self, game: &NetworkDesignGame, tree: &[EdgeId]) -> Result<SneSolution, SneError> {
        lp_broadcast::enforce_tree_lp(game, tree)
    }
}

/// LP (1) cutting-plane solver (general games; here applied to trees).
pub struct CuttingPlaneSolver;

impl SneSolver for CuttingPlaneSolver {
    fn name(&self) -> &'static str {
        "lp1-cutting"
    }
    fn solve(&self, game: &NetworkDesignGame, tree: &[EdgeId]) -> Result<SneSolution, SneError> {
        let (state, _) = ndg_core::State::from_tree(game, tree)?;
        let ex = ndg_exec::Executor::from_env();
        lp_general::enforce_state_cutting_budgeted(
            game,
            &state,
            &ex,
            &ndg_exec::Budget::unlimited(),
        )
        .map(|(sol, _)| sol)
    }
}

/// LP (2) polynomial-size solver.
pub struct PolyLpSolver;

impl SneSolver for PolyLpSolver {
    fn name(&self) -> &'static str {
        "lp2-poly"
    }
    fn solve(&self, game: &NetworkDesignGame, tree: &[EdgeId]) -> Result<SneSolution, SneError> {
        let (state, _) = ndg_core::State::from_tree(game, tree)?;
        lp_poly::enforce_state_poly(game, &state)
    }
}

/// Theorem 6 constructive solver (broadcast games, MST targets).
pub struct Theorem6Solver;

impl SneSolver for Theorem6Solver {
    fn name(&self) -> &'static str {
        "theorem6"
    }
    fn solve(&self, game: &NetworkDesignGame, tree: &[EdgeId]) -> Result<SneSolution, SneError> {
        theorem6::enforce(game, tree)
    }
}

/// Verify that `subsidies` enforce the tree as an equilibrium, returning a
/// [`SneSolution`] only on success (used as a final gate by every solver).
pub fn certified(
    game: &NetworkDesignGame,
    tree: &[EdgeId],
    subsidies: SubsidyAssignment,
) -> Result<SneSolution, SneError> {
    let root = game.root().ok_or(SneError::NotBroadcast)?;
    let rt = ndg_graph::RootedTree::new(game.graph(), tree, root)
        .map_err(|_| SneError::NotASpanningTree)?;
    if ndg_core::is_tree_equilibrium(game, &rt, &subsidies) {
        Ok(SneSolution::new(subsidies))
    } else {
        Err(SneError::VerificationFailed)
    }
}
