//! Exact SND on small instances: enumerate every spanning tree, price each
//! with LP (3), and expose the budget→weight Pareto frontier.
//!
//! This is the ground truth the heuristics and the E7 budget sweep are
//! compared against. Trees are priced on the environment-default
//! `ndg-exec` executor (order preserved, `NDG_THREADS` override
//! honoured) — one LP (3) solve per tree per worker.

use crate::{SndDesign, SndError};
use ndg_core::{spanning_trees, NetworkDesignGame};
use ndg_exec::Executor;
use ndg_graph::EdgeId;

/// One priced spanning tree.
#[derive(Clone, Debug)]
pub struct PricedTree {
    /// Sorted edge ids.
    pub edges: Vec<EdgeId>,
    /// `wgt(T)`.
    pub weight: f64,
    /// Minimum enforcement cost (LP (3) optimum).
    pub min_subsidy: f64,
}

/// Price every spanning tree of the broadcast game's graph.
pub fn price_all_trees(game: &NetworkDesignGame, cap: usize) -> Result<Vec<PricedTree>, SndError> {
    if !game.is_broadcast() {
        return Err(SndError::NotBroadcast);
    }
    let g = game.graph();
    let trees = spanning_trees(g, cap)?;
    // Every tree is priced before the first error (in input order) wins.
    let mut priced: Vec<PricedTree> = Executor::from_env()
        .par_map_vec(trees, |edges| {
            let weight = g.weight_of(&edges);
            let min_subsidy = ndg_sne::lp_broadcast::enforce_tree_lp(game, &edges)
                .map(|s| s.cost)
                .map_err(|e| SndError::Sne(e.to_string()))?;
            Ok(PricedTree {
                edges,
                weight,
                min_subsidy,
            })
        })
        .into_iter()
        .collect::<Result<_, SndError>>()?;
    priced.sort_by(|a, b| {
        a.weight
            .total_cmp(&b.weight)
            .then_with(|| a.min_subsidy.total_cmp(&b.min_subsidy))
    });
    Ok(priced)
}

/// One point of the budget→weight trade-off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParetoPoint {
    /// Budget threshold at which `weight` becomes achievable.
    pub budget: f64,
    /// The minimum achievable social cost with that budget.
    pub weight: f64,
}

/// The Pareto frontier of (budget, achievable weight): scanning trees in
/// weight order, each tree contributes a point if it needs strictly less
/// budget than every lighter tree.
pub fn pareto_frontier(game: &NetworkDesignGame, cap: usize) -> Result<Vec<ParetoPoint>, SndError> {
    let priced = price_all_trees(game, cap)?;
    let mut frontier: Vec<ParetoPoint> = Vec::new();
    let mut best_budget = f64::INFINITY;
    // `priced` is sorted by weight ascending: record strictly decreasing
    // budgets.
    for t in &priced {
        if t.min_subsidy < best_budget - 1e-12 {
            best_budget = t.min_subsidy;
            frontier.push(ParetoPoint {
                budget: t.min_subsidy,
                weight: t.weight,
            });
        }
    }
    Ok(frontier)
}

/// Exact optimum of the SND optimization problem: the minimum weight of a
/// tree enforceable within `budget`, with the witness design.
pub fn min_weight_within_budget(
    game: &NetworkDesignGame,
    budget: f64,
    cap: usize,
) -> Result<SndDesign, SndError> {
    let priced = price_all_trees(game, cap)?;
    let affordable = priced
        .into_iter()
        .find(|t| t.min_subsidy <= budget + 1e-9)
        .ok_or(SndError::NoDesign)?;
    // Re-solve to recover the actual subsidy vector.
    let sol = ndg_sne::lp_broadcast::enforce_tree_lp(game, &affordable.edges)
        .map_err(|e| SndError::Sne(e.to_string()))?;
    Ok(SndDesign {
        tree: affordable.edges,
        weight: affordable.weight,
        subsidy_cost: sol.cost,
        subsidies: sol.subsidies,
    })
}

/// Exact optimum of the *integral* SND problem (the paper's all-or-nothing
/// variant): the minimum weight of a tree enforceable with all-or-nothing
/// subsidies within `budget`. Prices every spanning tree with the exact
/// AoN branch-and-bound.
pub fn min_weight_within_budget_aon(
    game: &NetworkDesignGame,
    budget: f64,
    cap: usize,
    node_limit: usize,
) -> Result<SndDesign, SndError> {
    if !game.is_broadcast() {
        return Err(SndError::NotBroadcast);
    }
    let g = game.graph();
    let mut trees = spanning_trees(g, cap)?;
    trees.sort_by(|a, b| g.weight_of(a).total_cmp(&g.weight_of(b)));
    for tree in trees {
        let sol = ndg_aon::exact::min_aon_subsidy(game, &tree, node_limit)
            .map_err(|e| SndError::Sne(e.to_string()))?;
        if sol.cost <= budget + 1e-9 {
            let subsidies = ndg_core::SubsidyAssignment::all_or_nothing(g, &sol.edges);
            return Ok(SndDesign {
                weight: g.weight_of(&tree),
                tree,
                subsidy_cost: sol.cost,
                subsidies,
            });
        }
    }
    Err(SndError::NoDesign)
}

/// The paper's decision problem: is there a design of weight ≤ `k`
/// enforceable with subsidies of cost ≤ `budget`?
pub fn snd_decision(
    game: &NetworkDesignGame,
    budget: f64,
    k: f64,
    cap: usize,
) -> Result<bool, SndError> {
    let priced = price_all_trees(game, cap)?;
    Ok(priced
        .iter()
        .any(|t| t.weight <= k + 1e-9 && t.min_subsidy <= budget + 1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_graph::{generators, mst_weight, NodeId};

    fn broadcast(g: ndg_graph::Graph) -> NetworkDesignGame {
        NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
    }

    #[test]
    fn frontier_is_monotone() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(301);
        for _ in 0..8 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = broadcast(g);
            let frontier = pareto_frontier(&game, 100_000).unwrap();
            assert!(!frontier.is_empty());
            // Budgets strictly decrease... frontier built ascending by
            // weight with strictly decreasing budgets.
            for w in frontier.windows(2) {
                assert!(w[1].budget < w[0].budget);
                assert!(w[1].weight >= w[0].weight - 1e-12);
            }
            // The first point is the lightest tree (the MST) with its LP
            // price; with budget = that price the MST weight is achievable.
            let mst_w = mst_weight(game.graph()).unwrap();
            assert!((frontier[0].weight - mst_w).abs() < 1e-9);
        }
    }

    #[test]
    fn infinite_budget_gives_mst() {
        let g = generators::cycle_graph(6, 1.0);
        let game = broadcast(g);
        let design = min_weight_within_budget(&game, f64::INFINITY, 1000).unwrap();
        let mst_w = mst_weight(game.graph()).unwrap();
        assert!((design.weight - mst_w).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_gives_best_equilibrium() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(307);
        for _ in 0..6 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = broadcast(g);
            let design = min_weight_within_budget(&game, 0.0, 100_000).unwrap();
            // Must match the enumerator's best equilibrium tree.
            let b0 = ndg_core::SubsidyAssignment::zero(game.graph());
            let trivial = ndg_core::EdgeGroup::trivial(game.graph().edge_count());
            let unlimited = ndg_exec::Budget::unlimited();
            let best = ndg_core::best_equilibrium_tree(&game, &b0, 100_000, &trivial, &unlimited)
                .unwrap()
                .expect("unsubsidized equilibrium always exists");
            assert!(
                (design.weight - best.weight).abs() < 1e-6,
                "budget-0 design {} vs best equilibrium {}",
                design.weight,
                best.weight
            );
            assert!(design.subsidy_cost < 1e-6);
        }
    }

    #[test]
    fn decision_consistent_with_optimum() {
        let g = generators::cycle_graph(5, 1.0);
        let game = broadcast(g);
        let mst_w = mst_weight(game.graph()).unwrap();
        let design = min_weight_within_budget(&game, 0.5, 1000).unwrap();
        assert!(snd_decision(&game, 0.5, design.weight, 1000).unwrap());
        assert!(
            !snd_decision(&game, 0.5, design.weight - 0.1, 1000).unwrap()
                || design.weight - 0.1 >= mst_w
        );
    }

    #[test]
    fn integral_snd_dominates_fractional_and_matches_at_extremes() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(313);
        for _ in 0..5 {
            let n = rng.random_range(3..6usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = broadcast(g);
            let mst_w = mst_weight(game.graph()).unwrap();
            // Infinite budget: both reach the MST weight.
            let frac = min_weight_within_budget(&game, f64::INFINITY, 100_000).unwrap();
            let aon =
                min_weight_within_budget_aon(&game, f64::INFINITY, 100_000, 1_000_000).unwrap();
            assert!((frac.weight - mst_w).abs() < 1e-9);
            assert!((aon.weight - mst_w).abs() < 1e-9);
            // Budget 0: identical (no subsidies at all in either model).
            let frac0 = min_weight_within_budget(&game, 0.0, 100_000).unwrap();
            let aon0 = min_weight_within_budget_aon(&game, 0.0, 100_000, 1_000_000).unwrap();
            assert!((frac0.weight - aon0.weight).abs() < 1e-6);
            // Any intermediate budget: the integral design is never lighter
            // than the fractional one (AoN subsidies are a subset).
            let budget = mst_w * 0.15;
            let f = min_weight_within_budget(&game, budget, 100_000).unwrap();
            let a = min_weight_within_budget_aon(&game, budget, 100_000, 1_000_000).unwrap();
            assert!(a.weight >= f.weight - 1e-9);
            assert!(a.subsidies.is_all_or_nothing(game.graph()));
        }
    }

    #[test]
    fn budget_larger_than_wgt_over_e_always_unlocks_mst() {
        // Theorem 6's guarantee seen through the exhaustive solver.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(311);
        for _ in 0..6 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = broadcast(g);
            let mst_w = mst_weight(game.graph()).unwrap();
            let design =
                min_weight_within_budget(&game, mst_w / std::f64::consts::E, 100_000).unwrap();
            assert!(
                (design.weight - mst_w).abs() < 1e-9,
                "budget wgt/e must buy the MST"
            );
        }
    }
}
