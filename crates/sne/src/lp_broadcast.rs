//! LP (3): the simple broadcast-game enforcement LP.
//!
//! Variables: one subsidy `b_a ∈ [0, w_a]` per tree edge (subsidies off the
//! tree can only make deviations cheaper, so they are fixed at 0). One
//! constraint per ordered non-tree adjacency `(u, v)` with `u ≠ r`:
//!
//! ```text
//!   Σ_{a∈T_u} (w_a−b_a)/n_a(T)  ≤  w_(u,v) + Σ_{a∈T_v} (w_a−b_a)/(n_a(T)+1−n_a^u(T))
//! ```
//!
//! Lemma 2 proves feasibility of this LP is *equivalent* to `T` being an
//! equilibrium of the extension, so its optimum is the exact minimum
//! subsidy cost. The solution is re-verified with the independent Lemma 2
//! checker before being returned.

use crate::{SneError, SneSolution};
use ndg_core::{NetworkDesignGame, SubsidyAssignment};
use ndg_exec::Executor;
use ndg_graph::{EdgeId, NodeId, RootedTree};
use ndg_lp::{LinearProgram, LpStatus};
use std::collections::HashMap;

/// Solve LP (3) for the broadcast game and spanning tree `tree`; returns the
/// minimum-cost enforcing subsidies.
///
/// Constraint rows are built **sequentially** here: `snd`'s exhaustive
/// pricer calls this once per spanning tree from inside an
/// already-parallel sweep, where nested fan-out would only add spawn
/// overhead. For a large *single* instance, call
/// [`enforce_tree_lp_with`] with an explicit executor to parallelize the
/// row construction.
pub fn enforce_tree_lp(game: &NetworkDesignGame, tree: &[EdgeId]) -> Result<SneSolution, SneError> {
    enforce_tree_lp_with(game, tree, &Executor::sequential())
}

/// [`enforce_tree_lp`] with an explicit executor: the per-adjacency
/// constraint rows (one Lemma 2 constraint per ordered non-tree adjacency)
/// are built in parallel and added in adjacency order, so the LP — and its
/// optimum — is identical for every thread count.
pub fn enforce_tree_lp_with(
    game: &NetworkDesignGame,
    tree: &[EdgeId],
    ex: &Executor,
) -> Result<SneSolution, SneError> {
    let root = game.root().ok_or(SneError::NotBroadcast)?;
    let g = game.graph();
    let rt = RootedTree::new(g, tree, root).map_err(|_| SneError::NotASpanningTree)?;

    // One LP variable per tree edge.
    let mut lp = LinearProgram::new();
    let mut var_of: HashMap<EdgeId, usize> = HashMap::new();
    for &e in rt.edges() {
        let v = lp.add_var(1.0, 0.0, g.weight(e))?;
        var_of.insert(e, v);
    }

    let in_tree = rt.edge_membership(g);
    let adjacencies: Vec<(NodeId, NodeId, f64)> = g
        .edges()
        .filter(|(e, _)| !in_tree[e.index()])
        .flat_map(|(e, edge)| [(edge.u, edge.v, g.weight(e)), (edge.v, edge.u, g.weight(e))])
        .filter(|&(u, _, _)| u != root)
        .collect();
    let rows = ex.par_map(&adjacencies, |&(u, v, w_uv)| {
        deviation_row(&var_of, g, &rt, u, v, w_uv)
    });
    for (coeffs, rhs) in rows {
        lp.add_le(coeffs, rhs)?;
    }

    let sol = ndg_lp::solve(&lp)?;
    if sol.status != LpStatus::Optimal {
        return Err(SneError::BadLpStatus(sol.status));
    }
    debug_assert!(sol.verify(&lp, 1e-6), "LP solution fails re-verification");

    let mut b = SubsidyAssignment::zero(g);
    for (&e, &var) in &var_of {
        b.set(g, e, sol.x[var]);
    }
    crate::certified(game, tree, b)
}

/// The constraint row for player `u` deviating via a non-tree edge of
/// weight `w_uv` to node `v`:
/// `Σ_{T_u} (w−b)/n ≤ w_uv + Σ_{T_v} (w−b)/den` rearranged to
/// `−Σ_{T_u} b/n + Σ_{T_v} b/den ≤ w_uv + Σ_{T_v} w/den − Σ_{T_u} w/n`.
/// Shared edges above `lca(u, v)` cancel exactly (denominator `n_a` on
/// both sides), which the coefficient accumulation handles automatically.
fn deviation_row(
    var_of: &HashMap<EdgeId, usize>,
    g: &ndg_graph::Graph,
    rt: &RootedTree,
    u: NodeId,
    v: NodeId,
    w_uv: f64,
) -> (Vec<(usize, f64)>, f64) {
    let mut coeff: HashMap<usize, f64> = HashMap::new();
    let mut rhs = w_uv;
    // Left side: u's root path with denominators n_a = subtree(child).
    for (child, a) in rt.climb(u) {
        let n_a = rt.subtree_size(child) as f64;
        *coeff.entry(var_of[&a]).or_insert(0.0) -= 1.0 / n_a;
        rhs -= g.weight(a) / n_a;
    }
    // Right side: v's root path; below the lca the deviator joins
    // (denominator n_a + 1), above it she already uses the edge
    // (denominator n_a — cancels with the left side).
    let l = rt.lca(u, v);
    for (child, a) in rt.climb(v) {
        let den = if rt.depth(child) > rt.depth(l) {
            rt.subtree_size(child) as f64 + 1.0
        } else {
            rt.subtree_size(child) as f64
        };
        *coeff.entry(var_of[&a]).or_insert(0.0) += 1.0 / den;
        rhs += g.weight(a) / den;
    }
    let mut coeffs: Vec<(usize, f64)> = coeff
        .into_iter()
        .filter(|&(_, c)| c.abs() > 1e-14)
        .collect();
    // Deterministic row layout regardless of HashMap iteration order.
    coeffs.sort_by_key(|&(var, _)| var);
    (coeffs, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_core::{is_tree_equilibrium, NetworkDesignGame};
    use ndg_graph::{generators, kruskal};

    #[test]
    fn already_stable_tree_needs_zero_subsidies() {
        // Star graphs: the unique spanning tree is trivially stable.
        let g = generators::star_graph(6, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = game.graph().edge_ids().collect();
        let sol = enforce_tree_lp(&game, &tree).unwrap();
        assert!(sol.cost < 1e-9);
    }

    #[test]
    fn triangle_star_tree_zero_path_tree_positive() {
        let g = generators::cycle_graph(3, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        // Stable star tree {e0, e2}.
        let sol = enforce_tree_lp(&game, &[EdgeId(0), EdgeId(2)]).unwrap();
        assert!(sol.cost < 1e-9);
        // Unstable path tree {e0, e1}: node 2 pays 1.5, deviation costs 1.
        // Cheapest fix: 0.5 of subsidy (e.g. all on e1).
        let sol2 = enforce_tree_lp(&game, &[EdgeId(0), EdgeId(1)]).unwrap();
        assert!(
            (sol2.cost - 0.5).abs() < 1e-6,
            "expected 0.5, got {}",
            sol2.cost
        );
    }

    #[test]
    fn theorem_11_cycle_optimum_is_packing() {
        // Unit cycle C_{n+1}: the minimum subsidy is achieved by packing on
        // the far edges; for n = 4 the optimum is 1 − ... verify against a
        // brute-force grid search for small n.
        let n = 4usize;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
        let sol = enforce_tree_lp(&game, &tree).unwrap();
        // Brute force over a subsidy grid (step 0.02) on the 4 tree edges
        // would be 51^4 ≈ 6.8M — instead verify optimality by (a) validity
        // and (b) matching the cutting-plane solver (independent method).
        let (state, _) = ndg_core::State::from_tree(&game, &tree).unwrap();
        let (cut_sol, _) = crate::lp_general::enforce_state_cutting_budgeted(
            &game,
            &state,
            &ndg_exec::Executor::from_env(),
            &ndg_exec::Budget::unlimited(),
        )
        .unwrap();
        assert!(
            (sol.cost - cut_sol.cost).abs() < 1e-5,
            "lp3 {} vs lp1 {}",
            sol.cost,
            cut_sol.cost
        );
    }

    #[test]
    fn parallel_row_construction_is_thread_count_invariant() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..8 {
            let n = rng.random_range(3..12usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..4.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let seq =
                enforce_tree_lp_with(&game, &tree, &ndg_exec::Executor::sequential()).unwrap();
            for threads in [4usize, 8] {
                let par =
                    enforce_tree_lp_with(&game, &tree, &ndg_exec::Executor::new(threads)).unwrap();
                assert_eq!(
                    par.subsidies.as_slice(),
                    seq.subsidies.as_slice(),
                    "threads={threads}: subsidies diverged"
                );
            }
        }
    }

    #[test]
    fn solution_is_always_a_certified_equilibrium() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..15 {
            let n = rng.random_range(3..12usize);
            let g = generators::random_connected(n, 0.4, &mut rng, 0.3..4.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let sol = enforce_tree_lp(&game, &tree).unwrap();
            let rt = RootedTree::new(game.graph(), &tree, NodeId(0)).unwrap();
            assert!(is_tree_equilibrium(&game, &rt, &sol.subsidies));
            // Never more than full tree weight.
            assert!(sol.cost <= game.graph().weight_of(&tree) + 1e-6);
        }
    }

    #[test]
    fn rejects_non_broadcast_and_non_tree() {
        let g = generators::cycle_graph(4, 1.0);
        let game = NetworkDesignGame::new(
            g.clone(),
            vec![ndg_core::Player {
                source: NodeId(1),
                terminal: NodeId(3),
            }],
        )
        .unwrap();
        assert!(matches!(
            enforce_tree_lp(&game, &[EdgeId(0)]),
            Err(SneError::NotBroadcast)
        ));
        let bgame = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        assert!(matches!(
            enforce_tree_lp(&bgame, &[EdgeId(0)]),
            Err(SneError::NotASpanningTree)
        ));
    }

    #[test]
    fn mst_enforcement_never_exceeds_tree_weight_over_e_much() {
        // Theorem 6 says wgt(T)/e always suffices; the LP optimum must be
        // ≤ that bound (it is the exact minimum).
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let n = rng.random_range(3..10usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let sol = enforce_tree_lp(&game, &tree).unwrap();
            let bound = game.graph().weight_of(&tree) / std::f64::consts::E;
            assert!(
                sol.cost <= bound + 1e-6,
                "LP cost {} exceeds wgt/e = {bound}",
                sol.cost
            );
        }
    }
}
