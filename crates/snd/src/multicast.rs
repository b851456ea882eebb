//! Exact SND for multicast games (Section 6's "more general instances").
//!
//! A multicast player set only establishes the edges its paths actually
//! use, so a design is a *forest* spanning root ∪ terminals. Every forest
//! state is induced by some spanning tree (the tree paths of any extension
//! coincide with the forest paths), so scanning spanning trees and pricing
//! the induced state with the general LP (2) is exact on small instances.
//! The social cost is the weight of the *established* edges, not the whole
//! tree.

use crate::SndError;
use ndg_core::{spanning_trees, NetworkDesignGame, State, SubsidyAssignment};
use ndg_exec::Executor;
use ndg_graph::EdgeId;

/// A priced multicast design.
#[derive(Clone, Debug)]
pub struct MulticastDesign {
    /// The established edges (a forest connecting terminals to the root).
    pub established: Vec<EdgeId>,
    /// Social cost = weight of the established edges.
    pub weight: f64,
    /// Minimum enforcement cost (LP (2)).
    pub min_subsidy: f64,
    /// A witness subsidy assignment.
    pub subsidies: SubsidyAssignment,
}

/// The cheapest multicast design enforceable within `budget`, by
/// exhaustive spanning-tree scan + LP (2) pricing. Exact but exponential —
/// small instances only.
pub fn min_weight_within_budget_multicast(
    game: &NetworkDesignGame,
    budget: f64,
    cap: usize,
) -> Result<MulticastDesign, SndError> {
    let g = game.graph();
    let trees = spanning_trees(g, cap)?;
    // Price the distinct induced states (many trees induce the same
    // forest; dedup on the established edge set).
    let mut candidates: Vec<(Vec<EdgeId>, f64)> = Executor::from_env().par_map_vec(trees, |tree| {
        let (state, _) = State::from_tree(game, &tree).expect("valid tree");
        let established = state.established_edges();
        let weight = state.weight(g);
        (established, weight)
    });
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    candidates.dedup_by(|a, b| a.0 == b.0);

    for (established, weight) in candidates {
        // Rebuild a state for this forest: extend to a spanning tree by
        // taking any spanning tree containing the forest.
        let state = state_for_forest(game, &established)?;
        match ndg_sne::lp_poly::enforce_state_poly(game, &state) {
            Ok(sol) if sol.cost <= budget + 1e-9 => {
                return Ok(MulticastDesign {
                    established,
                    weight,
                    min_subsidy: sol.cost,
                    subsidies: sol.subsidies,
                });
            }
            Ok(_) => continue,
            Err(e) => return Err(SndError::Sne(e.to_string())),
        }
    }
    Err(SndError::NoDesign)
}

/// The state whose established set is exactly `forest` (players take
/// forest paths).
fn state_for_forest(game: &NetworkDesignGame, forest: &[EdgeId]) -> Result<State, SndError> {
    let g = game.graph();
    // Greedily extend the forest to a spanning tree.
    let mut uf = ndg_graph::UnionFind::new(g.node_count());
    let mut tree: Vec<EdgeId> = forest.to_vec();
    for &e in forest {
        let (u, v) = g.endpoints(e);
        uf.union(u.index(), v.index());
    }
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            tree.push(e);
        }
    }
    let (state, _) = State::from_tree(game, &tree).map_err(|e| SndError::Sne(e.to_string()))?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_core::multicast::{exact_steiner_tree, multicast};
    use ndg_graph::{generators, NodeId};

    #[test]
    fn generous_budget_reaches_the_steiner_optimum() {
        // Grid 2×3, root 0, terminals {2, 5}: Steiner optimum 3.
        let g = generators::grid_graph(2, 3, 1.0);
        let game = multicast(g.clone(), NodeId(0), &[NodeId(2), NodeId(5)]).unwrap();
        let (_, steiner_w) = exact_steiner_tree(&g, NodeId(0), &[NodeId(2), NodeId(5)]).unwrap();
        let design = min_weight_within_budget_multicast(&game, f64::INFINITY, 1_000_000).unwrap();
        assert!(
            (design.weight - steiner_w).abs() < 1e-9,
            "design {} vs Steiner {steiner_w}",
            design.weight
        );
    }

    #[test]
    fn zero_budget_design_is_certified_and_no_lighter_than_optimum() {
        let g = generators::cycle_graph(6, 1.0);
        let game = multicast(g.clone(), NodeId(0), &[NodeId(2), NodeId(4)]).unwrap();
        let design = min_weight_within_budget_multicast(&game, 0.0, 1_000_000).unwrap();
        assert!(design.min_subsidy < 1e-9);
        let (_, opt) = exact_steiner_tree(&g, NodeId(0), &[NodeId(2), NodeId(4)]).unwrap();
        assert!(design.weight >= opt - 1e-9);
        // The witness state certifies.
        let state = super::state_for_forest(&game, &design.established).unwrap();
        assert!(ndg_core::is_equilibrium(&game, &state, &design.subsidies));
    }

    #[test]
    fn budget_curve_monotone_for_multicast() {
        let g = generators::grid_graph(2, 3, 1.0);
        let game = multicast(g, NodeId(0), &[NodeId(2), NodeId(4)]).unwrap();
        let mut prev = f64::INFINITY;
        for step in 0..4 {
            let budget = step as f64 * 0.4;
            let design = min_weight_within_budget_multicast(&game, budget, 1_000_000).unwrap();
            assert!(design.weight <= prev + 1e-9);
            prev = design.weight;
        }
    }
}
