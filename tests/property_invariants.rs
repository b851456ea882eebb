//! Property-based cross-crate invariants (proptest).
//!
//! Random broadcast games are generated from proptest-driven seeds; on
//! each, the core identities of the paper must hold:
//!
//! 1. `Σᵢ costᵢ(T; b) = Σ_{a established} (w_a − b_a)` (Section 2);
//! 2. Lemma 2's O(|E|) check ⟺ the exact best-response check;
//! 3. Theorem 6 always certifies with cost ≤ `wgt(T)/e`, and the LP (3)
//!    optimum never exceeds it;
//! 4. Rosenthal's Φ is an exact potential for unilateral deviations and
//!    satisfies the `C ≤ Φ ≤ H_n·C` sandwich;
//! 5. the minimum all-or-nothing cost is sandwiched between the
//!    fractional optimum and `wgt(T)`.

use proptest::prelude::*;
use rand::prelude::*;
use subsidy_games::core::{
    self, is_equilibrium, is_tree_equilibrium, NetworkDesignGame, State, SubsidyAssignment,
};
use subsidy_games::graph::{generators, kruskal, NodeId, RootedTree};

fn game_from_seed(
    n: usize,
    extra_p: f64,
    seed: u64,
) -> (NetworkDesignGame, Vec<subsidy_games::graph::EdgeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_connected(n, extra_p, &mut rng, 0.0..4.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
    let tree = kruskal(game.graph()).unwrap();
    (game, tree)
}

fn random_subsidies(
    game: &NetworkDesignGame,
    tree: &[subsidy_games::graph::EdgeId],
    seed: u64,
) -> SubsidyAssignment {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let mut b = SubsidyAssignment::zero(game.graph());
    for &e in tree {
        if rng.random_bool(0.5) {
            let w = game.graph().weight(e);
            b.set(game.graph(), e, rng.random_range(0.0..=w.max(1e-12)));
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn costs_sum_to_social_cost(n in 3usize..10, seed in 0u64..1_000_000) {
        let (game, tree) = game_from_seed(n, 0.4, seed);
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let b = random_subsidies(&game, &tree, seed);
        let total: f64 = (0..game.num_players())
            .map(|i| core::player_cost(&game, &state, &b, i))
            .sum();
        let social = core::social_cost_subsidized(&game, &state, &b);
        prop_assert!((total - social).abs() < 1e-9);
    }

    #[test]
    fn lemma2_equals_exact_check(n in 3usize..9, seed in 0u64..1_000_000) {
        let (game, tree) = game_from_seed(n, 0.5, seed);
        let (state, rt) = State::from_tree(&game, &tree).unwrap();
        let b = random_subsidies(&game, &tree, seed);
        prop_assert_eq!(
            is_tree_equilibrium(&game, &rt, &b),
            is_equilibrium(&game, &state, &b)
        );
    }

    #[test]
    fn theorem6_always_certifies_within_budget(n in 3usize..14, seed in 0u64..1_000_000) {
        let (game, tree) = game_from_seed(n, 0.4, seed);
        let sol = subsidy_games::sne::theorem6::enforce(&game, &tree).unwrap();
        let bound = game.graph().weight_of(&tree) / std::f64::consts::E;
        prop_assert!(sol.cost <= bound + 1e-7);
        let rt = RootedTree::new(game.graph(), &tree, NodeId(0)).unwrap();
        prop_assert!(is_tree_equilibrium(&game, &rt, &sol.subsidies));
        let lp = subsidy_games::sne::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
        prop_assert!(lp.cost <= sol.cost + 1e-6);
    }

    #[test]
    fn potential_is_exact_and_sandwiched(n in 3usize..9, seed in 0u64..1_000_000) {
        let (game, tree) = game_from_seed(n, 0.4, seed);
        let (mut state, _) = State::from_tree(&game, &tree).unwrap();
        let b = random_subsidies(&game, &tree, seed);
        let (c, phi, hn_c) = core::potential_sandwich(&game, &state, &b);
        prop_assert!(c <= phi + 1e-9 && phi <= hn_c + 1e-9);
        // Exactness under one best-response move.
        let i = (seed as usize) % game.num_players();
        let before_cost = core::player_cost(&game, &state, &b, i);
        let before_phi = core::rosenthal_potential(&game, &state, &b);
        let (path, new_cost) = core::best_response(&game, &state, &b, i);
        state.replace_path(i, path);
        let after_phi = core::rosenthal_potential(&game, &state, &b);
        prop_assert!(((after_phi - before_phi) - (new_cost - before_cost)).abs() < 1e-9);
    }

    #[test]
    fn aon_sandwiched_between_fractional_and_full(n in 3usize..7, seed in 0u64..1_000_000) {
        let (game, tree) = game_from_seed(n, 0.5, seed);
        let frac = subsidy_games::sne::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
        let aon = subsidy_games::aon::exact::min_aon_subsidy(&game, &tree, 10_000_000).unwrap();
        prop_assert!(aon.cost >= frac.cost - 1e-7);
        prop_assert!(aon.cost <= game.graph().weight_of(&tree) + 1e-9);
        // And the AoN witness certifies.
        let b = SubsidyAssignment::all_or_nothing(game.graph(), &aon.edges);
        let rt = RootedTree::new(game.graph(), &tree, NodeId(0)).unwrap();
        prop_assert!(is_tree_equilibrium(&game, &rt, &b));
    }

    #[test]
    fn dynamics_always_converge_to_equilibrium(n in 3usize..8, seed in 0u64..1_000_000) {
        let (game, tree) = game_from_seed(n, 0.5, seed);
        let b = SubsidyAssignment::zero(game.graph());
        let res = core::dynamics_from_tree(
            &game, &tree, &b, core::MoveOrder::RoundRobin, 100_000,
        ).unwrap();
        prop_assert!(res.converged);
        prop_assert!(is_equilibrium(&game, &res.state, &b));
        for w in res.potential_trace.windows(2) {
            prop_assert!(w[1] < w[0] + 1e-9);
        }
    }

    /// The incremental engine's O(Δ)-per-move potential and cost
    /// maintenance must agree with the from-scratch
    /// `rosenthal_potential`/`player_cost` to 1e-9 after *every* move,
    /// across random games, random subsidies, and all three move orders.
    #[test]
    fn incremental_maintenance_matches_from_scratch(
        n in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (game, tree) = game_from_seed(n, 0.5, seed);
        let b = random_subsidies(&game, &tree, seed);
        for order in [
            core::MoveOrder::RoundRobin,
            core::MoveOrder::RandomOrder(seed),
            core::MoveOrder::MaxGain,
        ] {
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let mut engine = core::IncrementalDynamics::new(&game, state, &b);
            let mut order_rng = match order {
                core::MoveOrder::RandomOrder(s) => Some(StdRng::seed_from_u64(s)),
                _ => None,
            };
            let np = game.num_players();
            let mut players: Vec<usize> = (0..np).collect();
            let mut guard = 0usize;
            loop {
                guard += 1;
                prop_assert!(guard < 100_000, "dynamics did not converge");
                let mut moved_this_round = false;
                let check = |engine: &core::IncrementalDynamics| {
                    let full = core::rosenthal_potential(&game, engine.state(), &b);
                    assert!(
                        (engine.potential() - full).abs() < 1e-9,
                        "{order:?}: Φ {} vs from-scratch {}",
                        engine.potential(),
                        full
                    );
                    for j in 0..np {
                        let fresh = core::player_cost(&game, engine.state(), &b, j);
                        assert!(
                            (engine.cached_cost(j) - fresh).abs() < 1e-9,
                            "{order:?}: cost[{j}] {} vs from-scratch {fresh}",
                            engine.cached_cost(j)
                        );
                    }
                };
                match order {
                    core::MoveOrder::MaxGain => {
                        for _ in 0..np {
                            match engine.best_improving_move() {
                                Some(_) => {
                                    moved_this_round = true;
                                    check(&engine);
                                }
                                None => break,
                            }
                        }
                    }
                    _ => {
                        if let Some(rng) = order_rng.as_mut() {
                            players.shuffle(rng);
                        }
                        for &i in &players {
                            if engine.try_improve(i).is_some() {
                                moved_this_round = true;
                                check(&engine);
                            }
                        }
                    }
                }
                if !moved_this_round {
                    break;
                }
            }
            prop_assert!(is_equilibrium(&game, engine.state(), &b));
        }
    }

    /// The engine-backed public driver reproduces the naive
    /// recompute-per-move reference: same moves, same final state, and a
    /// potential trace equal up to float tolerance.
    #[test]
    fn incremental_driver_matches_naive_reference(
        n in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (game, tree) = game_from_seed(n, 0.5, seed);
        let b = random_subsidies(&game, &tree, seed);
        for order in [
            core::MoveOrder::RoundRobin,
            core::MoveOrder::RandomOrder(seed),
            core::MoveOrder::MaxGain,
        ] {
            let (s1, _) = State::from_tree(&game, &tree).unwrap();
            let (s2, _) = State::from_tree(&game, &tree).unwrap();
            let unlimited = subsidy_games::exec::Budget::unlimited();
            let fast =
                core::best_response_dynamics_budgeted(&game, s1, &b, order, 100_000, &unlimited)
                    .unwrap();
            let naive = core::best_response_dynamics_naive(&game, s2, &b, order, 100_000);
            prop_assert!(fast.converged && naive.converged);
            prop_assert_eq!(fast.moves, naive.moves, "move count diverged under {:?}", order);
            for i in 0..game.num_players() {
                prop_assert_eq!(
                    fast.state.path(i),
                    naive.state.path(i),
                    "final path of player {} diverged under {:?}",
                    i,
                    order
                );
            }
            prop_assert_eq!(fast.potential_trace.len(), naive.potential_trace.len());
            for (a, c) in fast.potential_trace.iter().zip(&naive.potential_trace) {
                prop_assert!((a - c).abs() < 1e-9, "trace diverged under {:?}", order);
            }
        }
    }
}
