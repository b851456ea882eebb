//! LP (1): the exponential enforcement LP, solved by cutting planes with
//! the paper's shortest-path separation oracle (Theorem 1).
//!
//! For each player `i` and *every* alternative path `T'ᵢ ∈ 𝒯ᵢ` there is a
//! constraint `costᵢ(T; b) ≤ costᵢ(T₋ᵢ, T'ᵢ; b)`. The oracle finds the most
//! violated one by a Dijkstra run on the graph `Hᵢ` with weights
//! `w'_a = (w_a − b_a)/(n_a(T) + 1 − n_a^i(T))`, which works for arbitrary
//! (not just broadcast) network design games.
//!
//! This module holds the workspace's one Theorem 1 engine, written for
//! players with demands `dᵢ` under proportional sharing (Section 6): the
//! oracle weighs edge `a` for player `i` as
//! `(w_a − b_a)·dᵢ / (D_a(T) + dᵢ·(1 − n_a^i(T)))`, where `D_a(T)` is the
//! total demand on `a`. LP (1) runs it at unit demands, where `D_a(T)` is
//! the exact integer `n_a(T)` and `x·1.0 = x`, so every weight and row is
//! LP (1)'s to the bit; [`crate::lp_weighted`] runs it at the client's
//! demands. Each entry point keeps its own exact equilibrium gate.
//!
//! Separation is *batched*: the per-player Dijkstras of one round are
//! independent, so they run concurrently through
//! [`ndg_lp::solve_with_batched_cuts`] with one pooled
//! [`DijkstraWorkspace`](ndg_graph::DijkstraWorkspace) per worker thread.
//! Rows are gathered in player order and each row's coefficients are
//! sorted by variable, so the relaxation sequence — and therefore the
//! returned subsidy vector — is bit-identical for every thread count.

use crate::{SneError, SneSolution};
use ndg_core::weighted::Demands;
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
    demands: &'a Demands,
    /// `D_a(T)` by edge index, summed once in player order.
    loads: Vec<f64>,
    var_list: &'a [EdgeId],
    var_of: HashMap<EdgeId, usize>,
    pool: &'a WorkspacePool,
    /// The subsidies decoded from the current relaxation point.
    b: SubsidyAssignment,
}

impl ShortestPathSeparator<'_> {
    /// The load on `a` once player `i` routes over it:
    /// `D_a(T) + dᵢ·(1 − n_a^i(T))`.
    fn deviation_load(&self, i: usize, a: EdgeId) -> f64 {
        let own = if self.state.uses(i, a) {
            0.0
        } else {
            self.demands.of(i)
        };
        self.loads[a.index()] + own
    }

    /// Build the LP row `costᵢ(T; b) ≤ costᵢ(T₋ᵢ, path; b)`, divided by
    /// `dᵢ` and rearranged over the subsidy variables:
    /// `−Σ_{a∈Tᵢ} b_a/D_a + Σ_{a∈path} b_a/D'_a ≤
    ///  Σ_{a∈path} w_a/D'_a − Σ_{a∈Tᵢ} w_a/D_a`,
    /// with `D'_a` the [`deviation_load`](Self::deviation_load). Edges
    /// outside the variable support contribute constants only (their
    /// `b_a = 0`).
    fn constraint_for_path(&self, i: usize, path: &[EdgeId]) -> Row {
        let g = self.game.graph();
        let mut coeff: HashMap<usize, f64> = HashMap::new();
        let mut rhs = 0.0;
        for &a in self.state.path(i) {
            let load = self.loads[a.index()];
            rhs -= g.weight(a) / load;
            if let Some(&v) = self.var_of.get(&a) {
                *coeff.entry(v).or_insert(0.0) -= 1.0 / load;
            }
        }
        for &a in path {
            let load = self.deviation_load(i, a);
            rhs += g.weight(a) / load;
            if let Some(&v) = self.var_of.get(&a) {
                *coeff.entry(v).or_insert(0.0) += 1.0 / load;
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
        let (b, d_i) = (&self.b, self.demands.of(i));
        let current: f64 = (self.state.path(i).iter())
            .map(|&e| b.residual(g, e) * d_i / self.loads[e.index()])
            .sum();
        ws.run(g, player.source, Some(player.terminal), |e| {
            b.residual(g, e) * d_i / self.deviation_load(i, e)
        });
        if ws.dist(player.terminal) < current - ORACLE_TOL {
            let reached = ws.path_into(g, player.terminal, path);
            debug_assert!(reached, "terminal reachable by game validation");
            Some(self.constraint_for_path(i, path))
        } else {
            None
        }
    }
}

/// The Theorem 1 engine: minimum-cost subsidies on the established edges
/// of `state` such that the oracle finds no deviation of any player, under
/// `demands`, cheaper by more than [`ORACLE_TOL`]. Separation runs on `ex`
/// and the result is independent of its thread count. `budget` is checked
/// at every cutting-plane round boundary and expiry surfaces as
/// [`SneError::Cancelled`]. Callers re-check the answer with their exact
/// equilibrium gate.
pub(crate) fn cutting_plane_subsidies(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    ex: &Executor,
    budget: &Budget,
) -> Result<(SubsidyAssignment, CutStats), SneError> {
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
    let loads = demands.loads(state);
    let pool = WorkspacePool::new(g.node_count());
    let mut oracle = ShortestPathSeparator {
        game,
        state,
        demands,
        loads,
        var_list: &established,
        var_of,
        pool: &pool,
        b: SubsidyAssignment::zero(g),
    };
    let (sol, stats) = solve_with_batched_cuts(&mut lp, &mut oracle, MAX_ROUNDS, ex, budget)
        .map_err(|e| match e {
            CutError::Cancelled => SneError::Cancelled,
            other => SneError::Cut(other.to_string()),
        })?;
    // Decode the optimum as every round decoded its relaxation point.
    oracle.prepare(&sol.x);
    Ok((oracle.b, stats))
}

/// Solve the optimization version of SNE for an arbitrary game and target
/// state by constraint generation: the Theorem 1 engine at unit demands.
/// Returns the solution and loop stats. Separation runs on `ex` and the
/// result is independent of its thread count. `budget` is checked at every
/// cutting-plane round boundary and expiry surfaces as
/// [`SneError::Cancelled`]; with an unlimited budget the relaxation
/// sequence (and thus the subsidy vector) is unchanged.
pub fn enforce_state_cutting_budgeted(
    game: &NetworkDesignGame,
    state: &State,
    ex: &Executor,
    budget: &Budget,
) -> Result<(SneSolution, CutStats), SneError> {
    let (b, stats) = cutting_plane_subsidies(game, state, &Demands::uniform(game), ex, budget)?;
    // Final gate: exact equilibrium re-check.
    if !ndg_core::is_equilibrium(game, state, &b) {
        return Err(SneError::VerificationFailed);
    }
    Ok((SneSolution::new(b), stats))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ndg_core::Player;
    use ndg_graph::{generators, kruskal, NodeId};

    fn solve(game: &NetworkDesignGame, state: &State) -> (SneSolution, CutStats) {
        let ex = Executor::from_env();
        enforce_state_cutting_budgeted(game, state, &ex, &Budget::unlimited()).unwrap()
    }

    /// The four bit-pinned instances on 12-node random graphs: a broadcast
    /// game at its MST and at a shuffled (non-minimum) spanning tree, and
    /// an 8-player general game at a shuffled spanning tree and at its MST.
    pub(crate) fn pin_instances() -> Vec<(&'static str, NetworkDesignGame, State)> {
        use rand::prelude::*;
        let instances = [
            ("broadcast_mst", true, false, 22),
            ("broadcast_random_tree", true, true, 1104),
            ("general_random_tree", false, true, 2012),
            ("general_mst", false, false, 7),
        ];
        instances
            .into_iter()
            .map(|(name, broadcast, shuffled, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = generators::random_connected(12, 0.35, &mut rng, 0.3..3.0);
                let game = if broadcast {
                    NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
                } else {
                    let players = (0..8)
                        .map(|_| {
                            let source = rng.random_range(0..12u32);
                            let terminal = (source + rng.random_range(1..12u32)) % 12;
                            Player {
                                source: NodeId(source),
                                terminal: NodeId(terminal),
                            }
                        })
                        .collect();
                    NetworkDesignGame::new(g, players).unwrap()
                };
                let g = game.graph();
                let tree = if shuffled {
                    let mut order: Vec<EdgeId> = g.edge_ids().collect();
                    order.shuffle(&mut rng);
                    let mut uf = ndg_graph::UnionFind::new(g.node_count());
                    order
                        .into_iter()
                        .filter(|&e| {
                            let (u, v) = g.endpoints(e);
                            uf.union(u.index(), v.index())
                        })
                        .collect()
                } else {
                    kruskal(g).unwrap()
                };
                let (state, _) = State::from_tree(&game, &tree).unwrap();
                (name, game, state)
            })
            .collect()
    }

    /// One bit pin: instance name, cost bits, rounds, cuts, and
    /// `(index, bits)` of every subsidy whose bits are not those of
    /// `+0.0` (with the vector's length, the whole vector).
    pub(crate) type Pin = (&'static str, u64, usize, usize, &'static [(usize, u64)]);

    /// Assert that `solve(k, game, state, ex)` reproduces the pin of
    /// [`pin_instances`]`()[k]` to the bit, at threads 1 and 3.
    pub(crate) fn assert_pins(
        pins: &[Pin; 4],
        solve: impl Fn(usize, &NetworkDesignGame, &State, &Executor) -> (SneSolution, CutStats),
    ) {
        for (k, ((name, game, state), &(want_name, cost, rounds, cuts, b))) in
            pin_instances().iter().zip(pins).enumerate()
        {
            assert_eq!(*name, want_name);
            for threads in [1, 3] {
                let (sol, stats) = solve(k, game, state, &Executor::new(threads));
                assert_eq!(sol.cost.to_bits(), cost, "{name}: cost {}", sol.cost);
                assert_eq!((stats.rounds, stats.cuts_added), (rounds, cuts), "{name}");
                let got: Vec<(usize, u64)> = (sol.subsidies.as_slice().iter().enumerate())
                    .filter(|(_, x)| x.to_bits() != 0)
                    .map(|(e, x)| (e, x.to_bits()))
                    .collect();
                assert_eq!(got, b, "{name}: subsidies");
            }
        }
    }

    /// Bit-exact LP (1) answers: any change to the oracle's weights, the
    /// rows it builds or the cutting-plane sequence moves these bits.
    #[test]
    fn golden_bits_are_pinned() {
        const PINS: [Pin; 4] = [
            (
                "broadcast_mst",
                0x3fdc54c0e38caace,
                2,
                3,
                &[
                    (2, 0x3fcb971052e206e1),
                    (26, 0x3fca245c40f48d80),
                    (30, 0x3f9770a99a1609e0),
                ],
            ),
            (
                "broadcast_random_tree",
                0x401138395bf72094,
                3,
                4,
                &[
                    (2, 0x3feb5de2730920b1),
                    (6, 0x3fed1d445c479de2),
                    (8, 0x3fa09508e07a34c0),
                    (10, 0x3ff2aacc94563090),
                    (19, 0x3ff573dd2cda20d1),
                ],
            ),
            (
                "general_random_tree",
                0x40141187955c13f0,
                3,
                6,
                &[
                    (0, 0x3ff20e0e1d3d85b0),
                    (2, 0x3ff4f5eb418021e4),
                    (8, 0x3f69b64796160600),
                    (13, 0x3f9a38bfff035840),
                    (16, 0x3ffb17947a8a611f),
                    (19, 0x3fd2889907df7552),
                    (25, 0x3fe225582cd2a2ac),
                ],
            ),
            (
                "general_mst",
                0x3ff112844a73dc14,
                2,
                2,
                &[
                    (5, 0x3fe8754297622d42),
                    (7, 0x3f8ed59d73bfcc30),
                    (8, 0x3fd268df0f6d176c),
                ],
            ),
        ];
        assert_pins(&PINS, |_, game, state, ex| {
            enforce_state_cutting_budgeted(game, state, ex, &Budget::unlimited()).unwrap()
        });
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
