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
//!
//! LP (1) and this LP share one engine, the demand-weighted Theorem 1
//! loop in [`crate::lp_general`]: LP (1) is its unit-demand case, and this
//! module runs it at the client's demands behind the weighted Nash gate.

use crate::{SneError, SneSolution};
use ndg_core::weighted::Demands;
use ndg_core::{NetworkDesignGame, State};
use ndg_exec::{Budget, Executor};
use ndg_lp::CutStats;

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
    let (b, stats) = crate::lp_general::cutting_plane_subsidies(game, state, demands, ex, budget)?;
    if !ndg_core::weighted_is_equilibrium(game, state, demands, &b) {
        return Err(SneError::VerificationFailed);
    }
    Ok((SneSolution::new(b), stats))
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

    /// Bit-exact weighted-LP answers on the LP (1) pin instances, each
    /// under seeded random demands in `[0.2, 5)`.
    #[test]
    fn golden_bits_are_pinned() {
        use crate::lp_general::tests::{assert_pins, pin_instances, Pin};
        use rand::prelude::*;
        const PINS: [Pin; 4] = [
            (
                "broadcast_mst",
                0x3fe2a6863924a558,
                2,
                2,
                &[(2, 0x3fd4de2b928dbce3), (26, 0x3fd06ee0dfbb8dce)],
            ),
            (
                "broadcast_random_tree",
                0x4011d67aeb0810a2,
                3,
                6,
                &[
                    (2, 0x3fed22f86eb2dac9),
                    (6, 0x3feb9a4f7688b3d0),
                    (10, 0x3ff38cd4b1c3195c),
                    (14, 0x3fd1587668eb3a9a),
                    (19, 0x3ff318556d84933a),
                ],
            ),
            (
                "general_random_tree",
                0x400ed0aefadc182b,
                4,
                7,
                &[
                    (0, 0x3feaf4bc4f0c4178),
                    (2, 0x3fdf5a27bcf56128),
                    (8, 0x3fe6dc31c1297f29),
                    (16, 0x3ff3ed1349dae844),
                    (25, 0x3fe1ea93690a1ef0),
                ],
            ),
            (
                "general_mst",
                0x3ff4cf1a384c4ea9,
                2,
                3,
                &[
                    (5, 0x3fe8754297622d42),
                    (7, 0x3f6016aec75ea0f1),
                    (8, 0x3fd45ab53298a7ce),
                    (17, 0x3fcbae02448af622),
                ],
            ),
        ];
        let demands: Vec<Demands> = (pin_instances().iter().enumerate())
            .map(|(k, (_, game, _))| {
                let mut rng = StdRng::seed_from_u64(20 + k as u64);
                let d = (0..game.num_players())
                    .map(|_| rng.random_range(0.2..5.0))
                    .collect();
                Demands::new(game, d).unwrap()
            })
            .collect();
        assert_pins(&PINS, |k, game, state, ex| {
            enforce_state_weighted_budgeted(game, state, &demands[k], ex, &Budget::unlimited())
                .unwrap()
        });
    }
}
