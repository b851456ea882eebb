//! LP (2): the polynomial-size reformulation of the enforcement LP.
//!
//! Instead of one constraint per alternative path, LP (2) embeds the
//! separation oracle as shortest-path potentials: for every player `i` and
//! node `v`, a variable `πᵢ(v)` lower-bounds the `Hᵢ`-shortest distance from
//! `sᵢ` to `v` via the triangle inequalities
//! `πᵢ(v) ≤ πᵢ(u) + (w_(u,v) − b_(u,v))/denᵢ(u,v)` over all adjacencies,
//! and the enforcement condition becomes `πᵢ(tᵢ) ≥ costᵢ(T; b)`.
//! Θ(n|V|) variables, Θ(n|E|) constraints — solvable in one simplex call.

use crate::{SneError, SneSolution};
use ndg_core::{NetworkDesignGame, State, SubsidyAssignment};
use ndg_graph::EdgeId;
use ndg_lp::{LinearProgram, LpStatus};
use std::collections::HashMap;

/// Solve LP (2) for an arbitrary game and target state.
pub fn enforce_state_poly(
    game: &NetworkDesignGame,
    state: &State,
) -> Result<SneSolution, SneError> {
    let g = game.graph();
    let n_nodes = g.node_count();
    let players = game.players();

    let mut lp = LinearProgram::new();
    // Subsidy variables on established edges.
    let established = state.established_edges();
    let mut var_of: HashMap<EdgeId, usize> = HashMap::new();
    for &e in &established {
        let v = lp.add_var(1.0, 0.0, g.weight(e))?;
        var_of.insert(e, v);
    }
    // π variables: πᵢ(v) ≥ 0 for v ≠ sᵢ; πᵢ(sᵢ) is fixed to 0 (no
    // variable). Objective coefficient 0.
    let mut pi: Vec<Vec<Option<usize>>> = Vec::with_capacity(players.len());
    for p in players {
        let mut row = Vec::with_capacity(n_nodes);
        for v in g.nodes() {
            if v == p.source {
                row.push(None);
            } else {
                row.push(Some(lp.add_var(0.0, 0.0, f64::INFINITY)?));
            }
        }
        pi.push(row);
    }

    // Triangle inequalities: for every player i and every directed
    // adjacency u → v through edge e:
    //   πᵢ(v) − πᵢ(u) + b_e/denᵢ(e) ≤ w_e/denᵢ(e).
    for (i, _) in players.iter().enumerate() {
        for (e, edge) in g.edges() {
            let den = (state.usage(e) + 1 - u32::from(state.uses(i, e))) as f64;
            for (u, v) in [(edge.u, edge.v), (edge.v, edge.u)] {
                let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(3);
                if let Some(vv) = pi[i][v.index()] {
                    coeffs.push((vv, 1.0));
                } else {
                    continue; // πᵢ(sᵢ) ≤ … is vacuous (it is 0 and all rhs ≥ 0)
                }
                if let Some(vu) = pi[i][u.index()] {
                    coeffs.push((vu, -1.0));
                }
                if let Some(&vb) = var_of.get(&e) {
                    coeffs.push((vb, 1.0 / den));
                }
                lp.add_le(coeffs, edge.w / den)?;
            }
        }
    }

    // Enforcement rows: πᵢ(tᵢ) + Σ_{a∈Tᵢ} b_a/n_a ≥ Σ_{a∈Tᵢ} w_a/n_a.
    for (i, p) in players.iter().enumerate() {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        let mut rhs = 0.0;
        let vt = pi[i][p.terminal.index()].expect("terminal != source by game validation");
        coeffs.push((vt, 1.0));
        for &a in state.path(i) {
            let n_a = state.usage(a) as f64;
            rhs += g.weight(a) / n_a;
            if let Some(&vb) = var_of.get(&a) {
                coeffs.push((vb, 1.0 / n_a));
            }
        }
        lp.add_ge(coeffs, rhs)?;
    }

    let sol = ndg_lp::solve(&lp)?;
    if sol.status != LpStatus::Optimal {
        return Err(SneError::BadLpStatus(sol.status));
    }
    let mut b = SubsidyAssignment::zero(g);
    for (&e, &var) in &var_of {
        b.set(g, e, sol.x[var]);
    }
    if !ndg_core::is_equilibrium(game, state, &b) {
        return Err(SneError::VerificationFailed);
    }
    Ok(SneSolution::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_core::Player;
    use ndg_graph::{generators, kruskal, NodeId};

    #[test]
    fn matches_lp3_and_lp1_on_broadcast() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..8 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
            let game = ndg_core::NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let lp3 = crate::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let lp2 = enforce_state_poly(&game, &state).unwrap();
            let (lp1, _) = crate::lp_general::enforce_state_cutting_budgeted(
                &game,
                &state,
                &ndg_exec::Executor::from_env(),
                &ndg_exec::Budget::unlimited(),
            )
            .unwrap();
            assert!(
                (lp3.cost - lp2.cost).abs() < 1e-5,
                "lp3 {} vs lp2 {}",
                lp3.cost,
                lp2.cost
            );
            assert!(
                (lp1.cost - lp2.cost).abs() < 1e-5,
                "lp1 {} vs lp2 {}",
                lp1.cost,
                lp2.cost
            );
        }
    }

    #[test]
    fn triangle_exact_value() {
        let g = generators::cycle_graph(3, 1.0);
        let game = ndg_core::NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let (state, _) = State::from_tree(&game, &[EdgeId(0), EdgeId(1)]).unwrap();
        let sol = enforce_state_poly(&game, &state).unwrap();
        assert!((sol.cost - 0.5).abs() < 1e-6, "got {}", sol.cost);
    }

    #[test]
    fn general_game_supported() {
        let g = generators::grid_graph(2, 2, 1.0);
        let game = ndg_core::NetworkDesignGame::new(
            g,
            vec![
                Player {
                    source: NodeId(0),
                    terminal: NodeId(3),
                },
                Player {
                    source: NodeId(1),
                    terminal: NodeId(2),
                },
            ],
        )
        .unwrap();
        let tree = kruskal(game.graph()).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let sol = enforce_state_poly(&game, &state).unwrap();
        assert!(ndg_core::is_equilibrium(&game, &state, &sol.subsidies));
    }

    /// The four golden instances: two Theorem-11 cycles, a random
    /// broadcast game at a shuffled (non-minimum) spanning tree, and the
    /// 2×2 grid general game.
    fn golden_instances() -> Vec<(&'static str, NetworkDesignGame, State)> {
        use rand::prelude::*;
        let mut out = Vec::new();
        for (name, n) in [("cycle6", 6), ("cycle10", 10)] {
            let (game, tree) = crate::lower_bound::cycle_instance(n);
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            out.push((name, game, state));
        }
        let mut rng = StdRng::seed_from_u64(2012);
        let g = generators::random_connected(12, 0.3, &mut rng, 0.5..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let mut order: Vec<EdgeId> = game.graph().edge_ids().collect();
        order.shuffle(&mut rng);
        let mut uf = ndg_graph::UnionFind::new(game.graph().node_count());
        let tree: Vec<EdgeId> = order
            .into_iter()
            .filter(|&e| {
                let (u, v) = game.graph().endpoints(e);
                uf.union(u.index(), v.index())
            })
            .collect();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        out.push(("random12", game, state));
        let grid = NetworkDesignGame::new(
            generators::grid_graph(2, 2, 1.0),
            vec![
                Player {
                    source: NodeId(0),
                    terminal: NodeId(3),
                },
                Player {
                    source: NodeId(1),
                    terminal: NodeId(2),
                },
            ],
        )
        .unwrap();
        let tree = kruskal(grid.graph()).unwrap();
        let (state, _) = State::from_tree(&grid, &tree).unwrap();
        out.push(("grid2x2", grid, state));
        out
    }

    /// Bit-exact answers of the simplex kernel on LP (2): any change to
    /// the pivot arithmetic or the pivot sequence moves these bits.
    #[test]
    fn golden_bits_are_pinned() {
        let golden: [(&str, u64, &[u64]); 4] = [
            (
                "cycle6",
                0x3ffe666666666663,
                &[0, 0, 0, 0, 0x3fecccccccccccc9, 0x3feffffffffffffd, 0],
            ),
            (
                "cycle10",
                0x400b0f70f70f70f5,
                &[
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0x3fd87b87b87b87b7,
                    0x3feffffffffffffe,
                    0x3ff0000000000000,
                    0x3feffffffffffffd,
                    0,
                ],
            ),
            (
                "random12",
                0x4008dc78a8e75b83,
                &[
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0x3ff1bedccee0c9df,
                    0,
                    0x3fe66e02d0da5f75,
                    0,
                    0,
                    0,
                    0x3f956bdaf70b6c40,
                    0,
                    0x3ff46d63aea48fbb,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                ],
            ),
            ("grid2x2", 0, &[0, 0, 0, 0]),
        ];
        for ((name, game, state), (want_name, cost, b)) in
            golden_instances().into_iter().zip(golden)
        {
            assert_eq!(name, want_name);
            let sol = enforce_state_poly(&game, &state).unwrap();
            assert_eq!(sol.cost.to_bits(), cost, "{name}: cost {}", sol.cost);
            let got: Vec<u64> = sol
                .subsidies
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, b, "{name}: subsidies");
        }
    }
}
