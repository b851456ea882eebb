//! LP (1): the exponential enforcement LP, solved by cutting planes with
//! the paper's shortest-path separation oracle (Theorem 1).
//!
//! For each player `i` and *every* alternative path `T'ᵢ ∈ 𝒯ᵢ` there is a
//! constraint `costᵢ(T; b) ≤ costᵢ(T₋ᵢ, T'ᵢ; b)`. The oracle finds the most
//! violated one by a Dijkstra run on the graph `Hᵢ` with weights
//! `w'_a = (w_a − b_a)/(n_a(T) + 1 − n_a^i(T))`, which works for arbitrary
//! (not just broadcast) network design games.
//!
//! Separation is *batched*: the per-player Dijkstras of one round are
//! independent, so they run concurrently through
//! [`ndg_lp::solve_with_batched_cuts`] with one pooled
//! [`DijkstraWorkspace`](ndg_graph::DijkstraWorkspace) per worker thread.
//! Rows are gathered in player order and each row's coefficients are
//! sorted by variable, so the relaxation sequence — and therefore the
//! returned subsidy vector — is bit-identical for every thread count.

use crate::{SneError, SneSolution};
use ndg_core::{NetworkDesignGame, State, SubsidyAssignment};
use ndg_exec::{Budget, Executor};
use ndg_graph::paths::{PooledWorkspace, WorkspacePool};
use ndg_graph::EdgeId;
use ndg_lp::{
    solve_with_batched_cuts, BatchSeparationOracle, CutError, CutStats, LinearProgram, Row, RowOp,
};
use std::collections::HashMap;

/// Oracle violation tolerance: constraints violated by less than this are
/// considered satisfied (keeps the loop finite under f64 noise).
const ORACLE_TOL: f64 = 1e-7;
/// Cap on cutting-plane rounds.
const MAX_ROUNDS: usize = 500;

/// The Theorem 1 shortest-path oracle as a batch of per-player items.
struct ShortestPathSeparator<'a> {
    game: &'a NetworkDesignGame,
    state: &'a State,
    var_list: &'a [EdgeId],
    var_of: &'a HashMap<EdgeId, usize>,
    pool: &'a WorkspacePool,
    /// The subsidies decoded from the current relaxation point.
    b: SubsidyAssignment,
}

impl<'a> BatchSeparationOracle for ShortestPathSeparator<'a> {
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
        let (state, b) = (self.state, &self.b);
        let current = ndg_core::player_cost(self.game, state, b, i);
        ws.run(g, player.source, Some(player.terminal), |e| {
            let den = state.usage(e) + 1 - u32::from(state.uses(i, e));
            b.residual(g, e) / den as f64
        });
        if ws.dist(player.terminal) < current - ORACLE_TOL {
            let reached = ws.path_into(g, player.terminal, path);
            debug_assert!(reached, "terminal reachable by game validation");
            Some(constraint_for_path(self.game, state, self.var_of, i, path))
        } else {
            None
        }
    }
}

/// Solve the optimization version of SNE for an arbitrary game and target
/// state by constraint generation. Returns the solution and loop stats.
/// Separation runs on `ex` and the result is independent of its thread
/// count. `budget` is checked at every cutting-plane round boundary and
/// expiry surfaces as [`SneError::Cancelled`]; with an unlimited budget the
/// relaxation sequence (and thus the subsidy vector) is unchanged.
pub fn enforce_state_cutting_budgeted(
    game: &NetworkDesignGame,
    state: &State,
    ex: &Executor,
    budget: &Budget,
) -> Result<(SneSolution, CutStats), SneError> {
    let g = game.graph();
    // Variables: subsidies on established edges only (off-support subsidies
    // can only cheapen deviations).
    let established = state.established_edges();
    let mut lp = LinearProgram::new();
    let mut var_of: HashMap<EdgeId, usize> = HashMap::new();
    for &e in &established {
        let v = lp.add_var(1.0, 0.0, g.weight(e))?;
        var_of.insert(e, v);
    }
    let var_list: Vec<EdgeId> = established.clone();

    let pool = WorkspacePool::new(g.node_count());
    let mut oracle = ShortestPathSeparator {
        game,
        state,
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
    // Final gate: exact equilibrium re-check.
    if !ndg_core::is_equilibrium(game, state, &b) {
        return Err(SneError::VerificationFailed);
    }
    Ok((SneSolution::new(b), stats))
}

/// Build the LP row `costᵢ(T; b) ≤ costᵢ(T₋ᵢ, path; b)` rearranged over the
/// subsidy variables:
/// `−Σ_{a∈Tᵢ} b_a/n_a + Σ_{a∈path} b_a/den_a ≤
///  Σ_{a∈path} w_a/den_a − Σ_{a∈Tᵢ} w_a/n_a`.
/// Edges outside the variable support contribute constants only
/// (their `b_a = 0`).
fn constraint_for_path(
    game: &NetworkDesignGame,
    state: &State,
    var_of: &HashMap<EdgeId, usize>,
    i: usize,
    path: &[EdgeId],
) -> Row {
    let g = game.graph();
    let mut coeff: HashMap<usize, f64> = HashMap::new();
    let mut rhs = 0.0;
    for &a in state.path(i) {
        let n_a = state.usage(a) as f64;
        rhs -= g.weight(a) / n_a;
        if let Some(&v) = var_of.get(&a) {
            *coeff.entry(v).or_insert(0.0) -= 1.0 / n_a;
        }
    }
    for &a in path {
        let den = (state.usage(a) + 1 - u32::from(state.uses(i, a))) as f64;
        rhs += g.weight(a) / den;
        if let Some(&v) = var_of.get(&a) {
            *coeff.entry(v).or_insert(0.0) += 1.0 / den;
        }
    }
    let mut coeffs: Vec<(usize, f64)> = coeff
        .into_iter()
        .filter(|&(_, c)| c.abs() > 1e-14)
        .collect();
    // Sorted coefficients make the row independent of HashMap iteration
    // order — part of the bit-reproducibility guarantee across runs and
    // thread counts.
    coeffs.sort_by_key(|&(v, _)| v);
    Row::new(coeffs, RowOp::Le, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_core::Player;
    use ndg_graph::{generators, kruskal, NodeId};

    fn solve(game: &NetworkDesignGame, state: &State) -> (SneSolution, CutStats) {
        let ex = Executor::from_env();
        enforce_state_cutting_budgeted(game, state, &ex, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn agrees_with_lp3_on_broadcast_instances() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..12 {
            let n = rng.random_range(3..9usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = ndg_core::NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let lp3 = crate::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let (lp1, stats) = solve(&game, &state);
            assert!(
                (lp3.cost - lp1.cost).abs() < 1e-5,
                "lp3 {} vs lp1 {} (rounds {})",
                lp3.cost,
                lp1.cost,
                stats.rounds
            );
        }
    }

    #[test]
    fn works_on_general_two_player_game() {
        // 2×3 grid, two crossing players sharing the middle column.
        let g = generators::grid_graph(2, 3, 1.0);
        let game = ndg_core::NetworkDesignGame::new(
            g,
            vec![
                Player {
                    source: NodeId(0),
                    terminal: NodeId(5),
                },
                Player {
                    source: NodeId(3),
                    terminal: NodeId(2),
                },
            ],
        )
        .unwrap();
        let tree = kruskal(game.graph()).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let (sol, _) = solve(&game, &state);
        assert!(ndg_core::is_equilibrium(&game, &state, &sol.subsidies));
        assert!(sol.cost >= 0.0);
    }

    #[test]
    fn subsidy_vectors_identical_across_thread_counts() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..6 {
            let n = rng.random_range(4..10usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = ndg_core::NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let mut reference: Option<(Vec<f64>, usize, usize)> = None;
            for threads in [1usize, 4, 8] {
                let ex = ndg_exec::Executor::new(threads);
                let (sol, stats) =
                    enforce_state_cutting_budgeted(&game, &state, &ex, &Budget::unlimited())
                        .unwrap();
                let x = sol.subsidies.as_slice().to_vec();
                match &reference {
                    None => reference = Some((x, stats.rounds, stats.cuts_added)),
                    Some((want, rounds, cuts)) => {
                        assert_eq!(&x, want, "threads={threads}: subsidies diverged");
                        assert_eq!(stats.rounds, *rounds);
                        assert_eq!(stats.cuts_added, *cuts);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rounds_when_already_stable() {
        let g = generators::star_graph(5, 2.0);
        let game = ndg_core::NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = game.graph().edge_ids().collect();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let (sol, stats) = solve(&game, &state);
        assert!(sol.cost < 1e-9);
        assert_eq!(stats.cuts_added, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn cycle_instance_exact_value_small() {
        // Triangle path-tree: minimum subsidy 0.5 (matches LP(3) test).
        let g = generators::cycle_graph(3, 1.0);
        let game = ndg_core::NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let (state, _) = State::from_tree(&game, &[EdgeId(0), EdgeId(1)]).unwrap();
        let (sol, _) = solve(&game, &state);
        assert!((sol.cost - 0.5).abs() < 1e-6, "got {}", sol.cost);
    }
}
