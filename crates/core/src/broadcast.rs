//! Broadcast-game fast path: Lemma 2 equilibrium checking.
//!
//! For a broadcast game and a spanning tree `T`, Lemma 2 reduces the
//! (a-priori exponential) equilibrium condition to one constraint per
//! *ordered* non-tree adjacency `(u, v)`:
//!
//! ```text
//!   Σ_{a∈T_u} (w_a−b_a)/n_a(T)  ≤  w_(u,v) − b_(u,v)
//!                                  + Σ_{a∈T_v} (w_a−b_a)/(n_a(T)+1−n_a^u(T))
//! ```
//!
//! With root-path cost prefixes and LCA decomposition each constraint is
//! evaluated in O(depth). The denominators come from subtree sizes:
//! `n_a(T) = |subtree below a|` for every tree edge.

use crate::game::NetworkDesignGame;
use crate::subsidy::SubsidyAssignment;
use ndg_graph::{EdgeId, NodeId, RootedTree};

/// A violated Lemma 2 constraint: player `node` profits by routing through
/// the non-tree edge `via` to `to` and then along `T_to`.
#[derive(Clone, Debug)]
pub struct Lemma2Violation {
    /// The deviating player's node `u`.
    pub node: NodeId,
    /// The non-tree edge `(u, v)` she switches onto.
    pub via: EdgeId,
    /// The entry node `v`.
    pub to: NodeId,
    /// Her current cost `cost_u(T; b)`.
    pub lhs: f64,
    /// The deviation cost (right-hand side of the constraint).
    pub rhs: f64,
}

/// The minimal rooted-tree interface the Lemma 2 arithmetic reads.
///
/// Implemented by [`RootedTree`] (from-scratch views, as built by
/// [`crate::batch::BatchCertifier`]) and by the maintained view inside
/// [`crate::recert::IncrementalCertifier`]. Routing both through the same
/// generic [`deviation_rhs_on`] guarantees the two certification paths
/// evaluate bit-identical floating-point expressions — the property the
/// `recert` tests pin down to the bit.
pub trait TreeView {
    /// The root node.
    fn root(&self) -> NodeId;
    /// Parent of `v` with the connecting edge; `None` for the root.
    fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)>;
    /// `n_a(T)` for the edge `a` from `v` to its parent: the number of
    /// nodes in the subtree rooted at `v`, including `v`.
    fn subtree_size(&self, v: NodeId) -> u32;
    /// Lowest common ancestor of `u` and `v`.
    fn lca(&self, u: NodeId, v: NodeId) -> NodeId;
}

impl TreeView for RootedTree {
    fn root(&self) -> NodeId {
        RootedTree::root(self)
    }
    fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        RootedTree::parent(self, v)
    }
    fn subtree_size(&self, v: NodeId) -> u32 {
        RootedTree::subtree_size(self, v)
    }
    fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        RootedTree::lca(self, u, v)
    }
}

/// `cost_v(T; b)` for every node `v`: the cost of the root path with fair
/// shares `(w_a − b_a)/n_a(T)` (0 at the root).
pub fn root_path_costs(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
) -> Vec<f64> {
    let g = game.graph();
    let mut cost = vec![0.0f64; g.node_count()];
    for &v in rt.preorder() {
        if let Some((p, e)) = rt.parent(v) {
            cost[v.index()] = cost[p.index()] + b.residual(g, e) / rt.subtree_size(v) as f64;
        }
    }
    cost
}

/// Right-hand side of the Lemma 2 constraint for player `u` deviating via
/// the non-tree edge `e = (u, v)`: `w_e − b_e` plus the cost of `T_v` with
/// `+1` denominators strictly below `lca(u, v)`.
pub fn deviation_rhs(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
    costs: &[f64],
    u: NodeId,
    v: NodeId,
    e: EdgeId,
) -> f64 {
    deviation_rhs_on(game, rt, b, costs, u, v, e)
}

/// [`deviation_rhs`] over any [`TreeView`]. Each accumulation step is the
/// same float expression in the same order regardless of the view, so a
/// maintained tree and a from-scratch [`RootedTree`] of the same state
/// produce bit-identical right-hand sides.
pub fn deviation_rhs_on<T: TreeView + ?Sized>(
    game: &NetworkDesignGame,
    t: &T,
    b: &SubsidyAssignment,
    costs: &[f64],
    u: NodeId,
    v: NodeId,
    e: EdgeId,
) -> f64 {
    let g = game.graph();
    let l = t.lca(u, v);
    let mut rhs = b.residual(g, e) + costs[l.index()];
    let mut cur = v;
    while cur != l {
        let (p, pe) = t.parent(cur).expect("cur is below the lca");
        rhs += b.residual(g, pe) / (t.subtree_size(cur) + 1) as f64;
        cur = p;
    }
    rhs
}

/// Find a violated Lemma 2 constraint, or `None` if the tree is an
/// equilibrium of the extension with `b`. Deterministic: scans non-tree
/// edges in id order, orientation `(u, v)` before `(v, u)`.
pub fn lemma2_violation(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
) -> Option<Lemma2Violation> {
    lemma2_violation_eps(game, rt, b, crate::num::EPS)
}

/// [`lemma2_violation`] with an explicit tolerance: a constraint counts as
/// violated only when `lhs > rhs + eps`.
///
/// The Theorem 12 gadgets (built in `ndg-reductions`) have deviation
/// margins as small as `3/(n₁(n₁−3)) ≈ 1e-10` — far below the default
/// [`crate::num::EPS`] — so their verification passes a tighter tolerance.
pub fn lemma2_violation_eps(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
    eps: f64,
) -> Option<Lemma2Violation> {
    // Sequential by default: the per-tree enumeration drivers call this on
    // tiny instances where fan-out overhead would dominate; batch callers
    // ([`crate::batch`]) pass an explicit executor instead.
    lemma2_violation_eps_with(game, rt, b, eps, &ndg_exec::Executor::sequential())
}

/// [`lemma2_violation_eps`] with an explicit [`ndg_exec::Executor`]: the
/// non-tree edges are swept in parallel chunks and the winner is the
/// **lowest-edge-id** violation, so the result is identical to the
/// sequential scan for every thread count.
pub fn lemma2_violation_eps_with(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
    eps: f64,
    ex: &ndg_exec::Executor,
) -> Option<Lemma2Violation> {
    debug_assert!(game.is_broadcast(), "Lemma 2 applies to broadcast games");
    let g = game.graph();
    let root = rt.root();
    let costs = root_path_costs(game, rt, b);
    let in_tree = rt.edge_membership(g);
    let check = |e: EdgeId, eu: NodeId, ev: NodeId| -> Option<Lemma2Violation> {
        for (u, v) in [(eu, ev), (ev, eu)] {
            if u == root {
                continue; // the root is not a player
            }
            let lhs = costs[u.index()];
            let rhs = deviation_rhs(game, rt, b, &costs, u, v, e);
            if lhs > rhs + eps {
                return Some(Lemma2Violation {
                    node: u,
                    via: e,
                    to: v,
                    lhs,
                    rhs,
                });
            }
        }
        None
    };
    if ex.threads() == 1 {
        // Exact-sequential mode: no candidate materialization at all.
        for (e, edge) in g.edges() {
            if in_tree[e.index()] {
                continue;
            }
            if let Some(v) = check(e, edge.u, edge.v) {
                return Some(v);
            }
        }
        return None;
    }
    let candidates: Vec<(EdgeId, NodeId, NodeId)> = g
        .edges()
        .filter(|(e, _)| !in_tree[e.index()])
        .map(|(e, edge)| (e, edge.u, edge.v))
        .collect();
    ex.par_find_first(&candidates, |_, &(e, eu, ev)| check(e, eu, ev))
}

/// Whether the spanning tree is an equilibrium (Lemma 2 condition).
pub fn is_tree_equilibrium(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
) -> bool {
    lemma2_violation(game, rt, b).is_none()
}

/// [`is_tree_equilibrium`] with an explicit tolerance.
pub fn is_tree_equilibrium_eps(
    game: &NetworkDesignGame,
    rt: &RootedTree,
    b: &SubsidyAssignment,
    eps: f64,
) -> bool {
    lemma2_violation_eps(game, rt, b, eps).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium;
    use crate::state::State;
    use ndg_graph::{generators, kruskal};

    #[test]
    fn root_path_costs_on_a_path() {
        let g = generators::path_graph(4, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = game.graph().edge_ids().collect();
        let (_, rt) = State::from_tree(&game, &tree).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let costs = root_path_costs(&game, &rt, &b);
        assert!((costs[0] - 0.0).abs() < 1e-12);
        assert!((costs[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((costs[2] - (1.0 / 3.0 + 0.5)).abs() < 1e-12);
        assert!((costs[3] - (1.0 / 3.0 + 0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn cycle_violation_matches_theorem_11_threshold() {
        // Unit cycle with root: the far player deviates iff H_n > 1,
        // i.e. for all n ≥ 2 (H_2 = 1.5), but not n = 1.
        for n in 2..9usize {
            let g = generators::cycle_graph(n + 1, 1.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
            let (_, rt) = State::from_tree(&game, &tree).unwrap();
            let b = SubsidyAssignment::zero(game.graph());
            let viol = lemma2_violation(&game, &rt, &b);
            assert!(viol.is_some(), "n={n} should violate");
            let viol = viol.unwrap();
            assert_eq!(viol.node, NodeId(n as u32));
            assert!((viol.rhs - 1.0).abs() < 1e-9);
            assert!((viol.lhs - ndg_graph::harmonic(n as u64)).abs() < 1e-9);
        }
    }

    #[test]
    fn lemma2_agrees_with_exact_checker_randomized() {
        // The heart of Lemma 2: the O(|E|)-constraint check must agree with
        // the exact per-player best-response check on random instances and
        // random subsidies.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2024);
        let mut eq_count = 0;
        let mut neq_count = 0;
        for _ in 0..60 {
            let n = rng.random_range(3..10usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let (state, rt) = State::from_tree(&game, &tree).unwrap();
            // Random subsidies on tree edges.
            let mut b = SubsidyAssignment::zero(game.graph());
            for &e in &tree {
                if rng.random_bool(0.5) {
                    let w = game.graph().weight(e);
                    b.set(game.graph(), e, rng.random_range(0.0..=w));
                }
            }
            let fast = is_tree_equilibrium(&game, &rt, &b);
            let slow = equilibrium::is_equilibrium(&game, &state, &b);
            assert_eq!(fast, slow, "Lemma 2 disagrees with exact check");
            if fast {
                eq_count += 1;
            } else {
                neq_count += 1;
            }
        }
        // The sample must exercise both outcomes to be meaningful.
        assert!(
            eq_count > 0 && neq_count > 0,
            "eq={eq_count}, neq={neq_count}"
        );
    }

    #[test]
    fn subsidies_on_witness_path_fix_violation() {
        let n = 5;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
        let (_, rt) = State::from_tree(&game, &tree).unwrap();
        // Fully subsidize the whole tree: always an equilibrium.
        let b = SubsidyAssignment::all_or_nothing(game.graph(), &tree);
        assert!(is_tree_equilibrium(&game, &rt, &b));
    }

    #[test]
    fn star_is_equilibrium() {
        let g = generators::star_graph(7, 1.5);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = game.graph().edge_ids().collect();
        let (_, rt) = State::from_tree(&game, &tree).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        // No non-tree edges at all ⇒ vacuously an equilibrium.
        assert!(is_tree_equilibrium(&game, &rt, &b));
    }
}
