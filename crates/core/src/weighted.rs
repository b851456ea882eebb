//! Weighted players (Section 6; Chen–Roughgarden \[14\]).
//!
//! Each player `i` has a demand `dᵢ > 0` and pays a *proportional* share
//! of each edge she uses: `cost_i(T; b) = Σ_{a∈Tᵢ} (w_a − b_a)·dᵢ/D_a(T)`
//! where `D_a(T)` is the total demand on `a`. Unweighted games are the
//! `dᵢ ≡ 1` special case. Unlike the unweighted game, proportional-share
//! weighted games need not admit an exact potential, so this module
//! provides only what remains sound: Nash verification, which compares
//! each player's exact cost with her best response (Dijkstra on
//! proportional deviation weights) over loads summed once per call.
//! Enforcement stays an LP — see `ndg-sne::lp_weighted`.

use crate::game::NetworkDesignGame;
use crate::num::strictly_lt;
use crate::state::State;
use crate::subsidy::SubsidyAssignment;
use ndg_graph::paths::dijkstra_with;
use ndg_graph::EdgeId;

/// A weighted view over a game: per-player demands.
#[derive(Clone, Debug)]
pub struct Demands {
    d: Vec<f64>,
}

impl Demands {
    /// Validate demands: one per player, each positive and finite.
    pub fn new(game: &NetworkDesignGame, d: Vec<f64>) -> Option<Self> {
        if d.len() != game.num_players()
            || d.iter().any(|&x| x <= 0.0 || x.is_nan() || !x.is_finite())
        {
            return None;
        }
        Some(Demands { d })
    }

    /// Uniform demands (the unweighted game).
    pub fn uniform(game: &NetworkDesignGame) -> Self {
        Demands {
            d: vec![1.0; game.num_players()],
        }
    }

    /// Demand of player `i`.
    #[inline]
    pub fn of(&self, i: usize) -> f64 {
        self.d[i]
    }

    /// Total demand `D_a(T)` on every edge in `state`, indexed by edge id
    /// and summed in player order.
    pub fn loads(&self, state: &State) -> Vec<f64> {
        let mut loads = vec![0.0; state.edge_count()];
        for i in 0..state.num_players() {
            for &e in state.path(i) {
                loads[e.index()] += self.d[i];
            }
        }
        loads
    }
}

/// `cost_i(T; b)` under proportional sharing; `loads` is
/// [`Demands::loads`] of `state`.
fn weighted_player_cost(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    loads: &[f64],
    b: &SubsidyAssignment,
    i: usize,
) -> f64 {
    let g = game.graph();
    state
        .path(i)
        .iter()
        .map(|&e| b.residual(g, e) * demands.of(i) / loads[e.index()])
        .sum()
}

/// The weight of edge `e` for player `i`'s deviation: its residual share
/// once the load becomes `D_a(T) + dᵢ·(1 − n_a^i(T))`.
fn deviation_weight(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    loads: &[f64],
    b: &SubsidyAssignment,
    i: usize,
    e: EdgeId,
) -> f64 {
    let d_i = demands.of(i);
    let load = loads[e.index()] + if state.uses(i, e) { 0.0 } else { d_i };
    b.residual(game.graph(), e) * d_i / load
}

/// Cost of player `i`'s best response under proportional sharing, summed
/// along the best path.
fn weighted_best_response(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    loads: &[f64],
    b: &SubsidyAssignment,
    i: usize,
) -> f64 {
    let g = game.graph();
    let player = game.players()[i];
    let weight = |e| deviation_weight(game, state, demands, loads, b, i, e);
    let path = dijkstra_with(g, player.source, weight)
        .path_to(g, player.terminal)
        .expect("game validation guarantees a connecting path");
    path.iter().map(|&e| weight(e)).sum()
}

/// Whether `state` is a Nash equilibrium of the weighted extension.
pub fn weighted_is_equilibrium(
    game: &NetworkDesignGame,
    state: &State,
    demands: &Demands,
    b: &SubsidyAssignment,
) -> bool {
    let loads = demands.loads(state);
    (0..game.num_players()).all(|i| {
        let current = weighted_player_cost(game, state, demands, &loads, b, i);
        let best = weighted_best_response(game, state, demands, &loads, b, i);
        !strictly_lt(best, current)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::player_cost;
    use crate::equilibrium;
    use crate::game::NetworkDesignGame;
    use ndg_graph::{generators, kruskal, NodeId};

    #[test]
    fn demands_validation() {
        let g = generators::cycle_graph(4, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        assert!(Demands::new(&game, vec![1.0, 2.0, 3.0]).is_some());
        assert!(Demands::new(&game, vec![1.0, 2.0]).is_none());
        assert!(Demands::new(&game, vec![1.0, 0.0, 3.0]).is_none());
        assert!(Demands::new(&game, vec![1.0, -2.0, 3.0]).is_none());
        assert!(Demands::new(&game, vec![1.0, f64::NAN, 3.0]).is_none());
    }

    #[test]
    fn uniform_demands_reduce_to_unweighted() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(404);
        for _ in 0..10 {
            let n = rng.random_range(3..9usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let d = Demands::uniform(&game);
            let loads = d.loads(&state);
            let b = SubsidyAssignment::zero(game.graph());
            for i in 0..game.num_players() {
                let wc = weighted_player_cost(&game, &state, &d, &loads, &b, i);
                let uc = player_cost(&game, &state, &b, i);
                assert!((wc - uc).abs() < 1e-9, "player {i}: {wc} vs {uc}");
            }
            assert_eq!(
                weighted_is_equilibrium(&game, &state, &d, &b),
                equilibrium::is_equilibrium(&game, &state, &b)
            );
        }
    }

    #[test]
    fn costs_sum_to_social_cost_under_any_demands() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(405);
        let g = generators::random_connected(7, 0.5, &mut rng, 0.3..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree = kruskal(game.graph()).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let d = Demands::new(
            &game,
            (0..game.num_players())
                .map(|_| rng.random_range(0.1..5.0))
                .collect(),
        )
        .unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let loads = d.loads(&state);
        let total: f64 = (0..game.num_players())
            .map(|i| weighted_player_cost(&game, &state, &d, &loads, &b, i))
            .sum();
        assert!((total - state.weight(game.graph())).abs() < 1e-9);
    }

    #[test]
    fn heavy_player_changes_the_equilibrium() {
        // Four-cycle, root 0, tree {(0,1), (1,2), (3,0)}. Unweighted,
        // node 2 pays 1.2 + 1/2 on her path but only 0.9 + 1/2 on the
        // detour 2-3-0 ⇒ she deviates. Give node 1 a huge demand: node 2's
        // share of (0,1) collapses to ~0 (1.201 total), below the detour's
        // 1.4 ⇒ the same tree becomes a weighted equilibrium.
        let mut g = ndg_graph::Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), 1.2).unwrap();
        let _e2 = g.add_edge(NodeId(2), NodeId(3), 0.9).unwrap();
        let e3 = g.add_edge(NodeId(3), NodeId(0), 1.0).unwrap();
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree = vec![e0, e1, e3];
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let unweighted = Demands::uniform(&game);
        assert!(!weighted_is_equilibrium(&game, &state, &unweighted, &b));
        let skewed = Demands::new(&game, vec![1000.0, 1.0, 1.0]).unwrap();
        assert!(weighted_is_equilibrium(&game, &state, &skewed, &b));
    }

    #[test]
    fn weighted_best_response_optimal_against_dfs() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(406);
        let g = generators::random_connected(6, 0.6, &mut rng, 0.2..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree = kruskal(game.graph()).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let d = Demands::new(
            &game,
            (0..game.num_players())
                .map(|_| rng.random_range(0.5..4.0))
                .collect(),
        )
        .unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let loads = d.loads(&state);
        for i in 0..game.num_players() {
            let br = weighted_best_response(&game, &state, &d, &loads, &b, i);
            // DFS over all simple paths.
            let cost = |path: &[EdgeId]| -> f64 {
                (path.iter())
                    .map(|&e| deviation_weight(&game, &state, &d, &loads, &b, i, e))
                    .sum()
            };
            let p = game.players()[i];
            let brute = brute_best(game.graph(), p.source, p.terminal, &cost);
            assert!((br - brute).abs() < 1e-9, "player {i}: {br} vs {brute}");
        }
    }

    /// The cheapest simple `source → target` path under `cost`, by DFS.
    fn brute_best(
        g: &ndg_graph::Graph,
        source: NodeId,
        target: NodeId,
        cost: &dyn Fn(&[EdgeId]) -> f64,
    ) -> f64 {
        let mut best = f64::INFINITY;
        let mut visited = vec![false; g.node_count()];
        dfs(
            g,
            source,
            target,
            cost,
            &mut visited,
            &mut Vec::new(),
            &mut best,
        );
        return best;

        fn dfs(
            g: &ndg_graph::Graph,
            cur: NodeId,
            target: NodeId,
            cost: &dyn Fn(&[EdgeId]) -> f64,
            visited: &mut Vec<bool>,
            path: &mut Vec<EdgeId>,
            best: &mut f64,
        ) {
            if cur == target {
                *best = best.min(cost(path));
                return;
            }
            visited[cur.index()] = true;
            for &(nb, e) in g.neighbors(cur) {
                if !visited[nb.index()] {
                    path.push(e);
                    dfs(g, nb, target, cost, visited, path, best);
                    path.pop();
                }
            }
            visited[cur.index()] = false;
        }
    }

    /// Seeded general (non-broadcast) games at a random spanning-tree
    /// state, each under random partial subsidies: on some instances no
    /// edge is subsidized, on others every edge fully.
    fn general_cases(seed: u64) -> Vec<(NetworkDesignGame, State, SubsidyAssignment)> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..60)
            .map(|case| {
                let n = rng.random_range(4..10usize);
                let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
                let players: Vec<_> = (0..rng.random_range(2..7))
                    .map(|_| {
                        let s = rng.random_range(0..n as u32);
                        let t = (s + rng.random_range(1..n as u32)) % n as u32;
                        crate::game::Player {
                            source: NodeId(s),
                            terminal: NodeId(t),
                        }
                    })
                    .collect();
                let mut order: Vec<EdgeId> = g.edge_ids().collect();
                order.shuffle(&mut rng);
                let mut uf = ndg_graph::UnionFind::new(n);
                let tree: Vec<EdgeId> = (order.into_iter())
                    .filter(|&e| {
                        let (u, v) = g.endpoints(e);
                        uf.union(u.index(), v.index())
                    })
                    .collect();
                let share = [0.0, 0.3, 0.7, 1.0][case % 4];
                let mut b = SubsidyAssignment::zero(&g);
                for e in g.edge_ids() {
                    if rng.random_bool(share) {
                        let w = g.weight(e);
                        let v = if share == 1.0 {
                            w
                        } else {
                            rng.random_range(0.0..=w)
                        };
                        b.set(&g, e, v);
                    }
                }
                let game = NetworkDesignGame::new(g, players).unwrap();
                let (state, _) = State::from_tree(&game, &tree).unwrap();
                (game, state, b)
            })
            .collect()
    }

    #[test]
    fn uniform_gate_matches_is_equilibrium_on_general_games() {
        let mut verdicts = [0usize; 2];
        for (game, state, b) in general_cases(407) {
            let d = Demands::uniform(&game);
            let exact = equilibrium::is_equilibrium(&game, &state, &b);
            assert_eq!(weighted_is_equilibrium(&game, &state, &d, &b), exact);
            verdicts[usize::from(exact)] += 1;
        }
        assert!(
            verdicts.iter().all(|&k| k >= 5),
            "both verdicts must occur: {verdicts:?}"
        );
    }

    #[test]
    fn loads_equal_a_player_order_sum_per_edge() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(408);
        for (game, state, _) in general_cases(407) {
            let k = game.num_players();
            let random = (0..k).map(|_| rng.random_range(0.2..5.0)).collect();
            for d in [
                Demands::uniform(&game),
                Demands::new(&game, random).unwrap(),
            ] {
                let loads = d.loads(&state);
                assert_eq!(loads.len(), game.graph().edge_count());
                for e in game.graph().edge_ids() {
                    let mut sum = 0.0;
                    for i in 0..k {
                        if state.uses(i, e) {
                            sum += d.of(i);
                        }
                    }
                    assert_eq!(loads[e.index()].to_bits(), sum.to_bits(), "edge {e:?}");
                }
            }
        }
    }
}
