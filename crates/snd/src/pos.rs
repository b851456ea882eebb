//! Price-of-stability pipelines (Sections 1–3 context, experiment E7).
//!
//! * exact PoS of small broadcast games by spanning-tree enumeration;
//! * the Anshelevich et al. upper-bound procedure: best-response descent
//!   started from the social optimum reaches an equilibrium whose cost is
//!   bounded through the potential (`≤ H_n · OPT`);
//! * PoS as a function of the subsidy budget: with budget
//!   `β · wgt(MST)`, how cheap can an enforceable design get? By
//!   Theorem 6 the curve hits 1 no later than `β = 1/e`.

use crate::SndError;
use ndg_core::{
    dynamics_from_tree, price_of_stability, MoveOrder, NetworkDesignGame, SubsidyAssignment,
};
use ndg_exec::Budget;
use ndg_graph::{harmonic, kruskal, mst_weight};

/// Exact PoS over spanning-tree states of the unsubsidized game, under a
/// cooperative [`Budget`] checked at the enumerator's chunk boundaries.
/// Expiry surfaces as `SndError::Enum(EnumError::Cancelled)`.
///
/// The sweep is orbit-pruned by the game's automorphism group
/// ([`crate::orbits::broadcast_edge_group`]): on symmetric instances the
/// Lemma-2 scan runs once per tree *orbit*, on asymmetric instances the
/// trivial group degrades it to the plain sweep. The result is
/// bit-identical either way.
pub fn exact_pos_budgeted(
    game: &NetworkDesignGame,
    cap: usize,
    budget: &Budget,
) -> Result<f64, SndError> {
    let b0 = SubsidyAssignment::zero(game.graph());
    let group = crate::orbits::broadcast_edge_group(game, &b0);
    price_of_stability(game, &b0, cap, &group, budget)?.ok_or(SndError::NoDesign)
}

/// The best-response-from-OPT upper bound: descend the potential from the
/// MST; the reached equilibrium's weight over OPT is an upper bound on the
/// PoS, and the potential argument guarantees it is ≤ `H_n`.
/// Returns `(ratio, h_n)`.
pub fn br_from_opt_bound(game: &NetworkDesignGame) -> Result<(f64, f64), SndError> {
    let g = game.graph();
    let mst = kruskal(g).map_err(|_| SndError::NoDesign)?;
    let opt = g.weight_of(&mst);
    let b0 = SubsidyAssignment::zero(g);
    let res = dynamics_from_tree(game, &mst, &b0, MoveOrder::RoundRobin, 100_000)
        .map_err(|e| SndError::Sne(e.to_string()))?;
    let ratio = res.state.weight(g) / opt;
    Ok((ratio, harmonic(game.num_players() as u64)))
}

/// PoS under a subsidy budget `β · wgt(MST)`: the minimum weight of a tree
/// enforceable within the budget, over `wgt(MST)` (exact, by enumeration).
pub fn pos_with_budget_fraction(
    game: &NetworkDesignGame,
    beta: f64,
    cap: usize,
) -> Result<f64, SndError> {
    let opt = mst_weight(game.graph()).map_err(|_| SndError::NoDesign)?;
    let design = crate::exhaustive::min_weight_within_budget(game, beta * opt, cap)?;
    Ok(design.weight / opt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_graph::{generators, NodeId};
    use std::f64::consts::E;

    fn broadcast(g: ndg_graph::Graph) -> NetworkDesignGame {
        NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
    }

    #[test]
    fn pos_bounds_hold_on_random_games() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(501);
        for _ in 0..10 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = broadcast(g);
            let pos = exact_pos_budgeted(&game, 100_000, &Budget::unlimited()).unwrap();
            let (br_ratio, h_n) = br_from_opt_bound(&game).unwrap();
            assert!(pos >= 1.0 - 1e-9);
            assert!(pos <= br_ratio + 1e-9, "PoS {pos} > BR bound {br_ratio}");
            assert!(br_ratio <= h_n + 1e-9, "BR ratio {br_ratio} > H_n {h_n}");
        }
    }

    #[test]
    fn budget_one_over_e_pins_pos_to_one() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(503);
        for _ in 0..6 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = broadcast(g);
            let ratio = pos_with_budget_fraction(&game, 1.0 / E, 100_000).unwrap();
            assert!((ratio - 1.0).abs() < 1e-9, "β = 1/e must give PoS 1");
        }
    }

    #[test]
    fn pos_budget_curve_is_monotone() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(509);
        let g = generators::random_connected(6, 0.5, &mut rng, 0.3..3.0);
        let game = broadcast(g);
        let mut prev = f64::INFINITY;
        for step in 0..=6 {
            let beta = step as f64 / (6.0 * E);
            let ratio = pos_with_budget_fraction(&game, beta, 100_000).unwrap();
            assert!(ratio <= prev + 1e-9, "PoS must not rise with budget");
            prev = ratio;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }
}
