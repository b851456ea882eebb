//! Enforcement for *weighted* players (Section 6; Chen–Roughgarden \[14\]).
//!
//! With demands `dᵢ` and proportional sharing, Lemma 2's single-hop
//! constraint set does not obviously survive (its exchange argument uses
//! unit demands), so enforcement runs through the always-sound Theorem 1
//! route: constraint generation with the weighted best-response oracle.
//! The player constraints stay linear in `b` — dividing by `dᵢ`,
//!
//! ```text
//!   Σ_{a∈Tᵢ} (w_a−b_a)/D_a(T)  ≤  Σ_{a∈T'ᵢ} (w_a−b_a)/D'_a ,
//!   D'_a = D_a(T) + dᵢ·(1 − n_a^i(T)).
//! ```

use crate::{SneError, SneSolution};
use ndg_core::weighted::{weighted_player_cost, Demands};
use ndg_core::{NetworkDesignGame, State, SubsidyAssignment};
use ndg_exec::{Budget, Executor};
use ndg_graph::paths::{PooledWorkspace, WorkspacePool};
use ndg_graph::EdgeId;
use ndg_lp::{
    solve_with_batched_cuts, BatchSeparationOracle, CutError, CutStats, LinearProgram, Row, RowOp,
};
use std::collections::HashMap;

const ORACLE_TOL: f64 = 1e-7;
const MAX_ROUNDS: usize = 500;

/// The weighted best-response oracle as a batch of per-player items (same
/// parallel shape as `lp_general`: one pooled Dijkstra workspace per
/// worker, rows gathered in player order).
struct WeightedSeparator<'a> {
    game: &'a NetworkDesignGame,
    state: &'a State,
    demands: &'a Demands,
    var_list: &'a [EdgeId],
    var_of: &'a HashMap<EdgeId, usize>,
    pool: &'a WorkspacePool,
    b: SubsidyAssignment,
}

impl<'a> BatchSeparationOracle for WeightedSeparator<'a> {
    type Scratch = (PooledWorkspace<'a>, Vec<EdgeId>);

    fn batch_size(&self) -> usize {
        self.game.num_players()
    }

    fn prepare(&mut self, x: &[f64]) {
        let g = self.game.graph();
        for (k, &e) in self.var_list.iter().enumerate() {
            self.b.set(g, e, x[k]);
        }
    }

    fn make_scratch(&self) -> Self::Scratch {
        (self.pool.acquire(), Vec::new())
    }

    fn separate_item(&self, i: usize, (ws, path): &mut Self::Scratch) -> Option<Row> {
        let g = self.game.graph();
        let player = self.game.players()[i];
        let (state, demands, b) = (self.state, self.demands, &self.b);
        let d_i = demands.of(i);
        let current = weighted_player_cost(self.game, state, demands, b, i);
        ws.run(g, player.source, Some(player.terminal), |e| {
            let load = demands.load(state, e) + if state.uses(i, e) { 0.0 } else { d_i };
            b.residual(g, e) * d_i / load
        });
        if ws.dist(player.terminal) < current - ORACLE_TOL {
            let reached = ws.path_into(g, player.terminal, path);
            debug_assert!(reached, "terminal reachable by game validation");
            Some(constraint(self.game, state, demands, self.var_of, i, path))
        } else {
            None
        }
    }
}

/// Minimum-cost subsidies enforcing `state` in the weighted extension.
/// Separation runs on `ex` and the result is independent of its thread
/// count. `budget` is checked at cutting-plane round boundaries; expiry
/// surfaces as [`SneError::Cancelled`].
pub fn enforce_state_weighted_budgeted(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    ex: &Executor,
    budget: &Budget,
) -> Result<(SneSolution, CutStats), SneError> {
    let g = game.graph();
    let established = state.established_edges();
    let mut lp = LinearProgram::new();
    let mut var_of: HashMap<EdgeId, usize> = HashMap::new();
    for &e in &established {
        let v = lp.add_var(1.0, 0.0, g.weight(e))?;
        var_of.insert(e, v);
    }
    let var_list = established.clone();

    let pool = WorkspacePool::new(g.node_count());
    let mut oracle = WeightedSeparator {
        game,
        state,
        demands,
        var_list: &var_list,
        var_of: &var_of,
        pool: &pool,
        b: SubsidyAssignment::zero(g),
    };
    let (sol, stats) = solve_with_batched_cuts(&mut lp, &mut oracle, MAX_ROUNDS, ex, budget)
        .map_err(|e| match e {
            CutError::Cancelled => SneError::Cancelled,
            other => SneError::Cut(other.to_string()),
        })?;
    let mut b = SubsidyAssignment::zero(g);
    for (k, &e) in var_list.iter().enumerate() {
        b.set(g, e, sol.x[k]);
    }
    if !ndg_core::weighted_is_equilibrium(game, state, demands, &b) {
        return Err(SneError::VerificationFailed);
    }
    Ok((SneSolution::new(b), stats))
}

fn constraint(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    var_of: &HashMap<EdgeId, usize>,
    i: usize,
    path: &[EdgeId],
) -> Row {
    let g = game.graph();
    let d_i = demands.of(i);
    let mut coeff: HashMap<usize, f64> = HashMap::new();
    let mut rhs = 0.0;
    for &a in state.path(i) {
        let load = demands.load(state, a);
        rhs -= g.weight(a) / load;
        if let Some(&v) = var_of.get(&a) {
            *coeff.entry(v).or_insert(0.0) -= 1.0 / load;
        }
    }
    for &a in path {
        let load = demands.load(state, a) + if state.uses(i, a) { 0.0 } else { d_i };
        rhs += g.weight(a) / load;
        if let Some(&v) = var_of.get(&a) {
            *coeff.entry(v).or_insert(0.0) += 1.0 / load;
        }
    }
    let mut coeffs: Vec<(usize, f64)> = coeff
        .into_iter()
        .filter(|&(_, c)| c.abs() > 1e-14)
        .collect();
    // Deterministic row layout regardless of HashMap iteration order.
    coeffs.sort_by_key(|&(v, _)| v);
    Row::new(coeffs, RowOp::Le, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_graph::{generators, kruskal, NodeId};

    fn solve(game: &NetworkDesignGame, state: &State, d: &Demands) -> (SneSolution, CutStats) {
        let ex = Executor::from_env();
        enforce_state_weighted_budgeted(game, state, d, &ex, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn uniform_demands_match_unweighted_lp() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(711);
        for _ in 0..8 {
            let n = rng.random_range(3..8usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let d = Demands::uniform(&game);
            let (weighted, _) = solve(&game, &state, &d);
            let unweighted = crate::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
            assert!(
                (weighted.cost - unweighted.cost).abs() < 1e-5,
                "weighted {} vs unweighted {}",
                weighted.cost,
                unweighted.cost
            );
        }
    }

    #[test]
    fn skewed_demands_change_the_price() {
        // The heavy-player four-cycle from core::weighted: unweighted the
        // tree needs subsidies, weighted (d₁ huge) it is free.
        let mut g = ndg_graph::Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), 1.2).unwrap();
        let _e2 = g.add_edge(NodeId(2), NodeId(3), 0.9).unwrap();
        let e3 = g.add_edge(NodeId(3), NodeId(0), 1.0).unwrap();
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let (state, _) = State::from_tree(&game, &[e0, e1, e3]).unwrap();

        let uniform = Demands::uniform(&game);
        let (u_sol, _) = solve(&game, &state, &uniform);
        assert!(u_sol.cost > 0.1, "unweighted tree needs real subsidies");

        let skewed = Demands::new(&game, vec![1000.0, 1.0, 1.0]).unwrap();
        let (s_sol, stats) = solve(&game, &state, &skewed);
        assert!(s_sol.cost < 1e-9, "heavy demand stabilizes for free");
        assert_eq!(stats.cuts_added, 0);
    }

    #[test]
    fn certifies_on_random_demands() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(713);
        for _ in 0..6 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let d = Demands::new(
                &game,
                (0..game.num_players())
                    .map(|_| rng.random_range(0.2..5.0))
                    .collect(),
            )
            .unwrap();
            let (sol, _) = solve(&game, &state, &d);
            assert!(ndg_core::weighted_is_equilibrium(
                &game,
                &state,
                &d,
                &sol.subsidies
            ));
        }
    }
}
