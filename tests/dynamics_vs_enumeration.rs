//! Cross-crate integration: best-response dynamics, exhaustive
//! enumeration and the SND pipelines tell one consistent story.

use rand::prelude::*;
use subsidy_games::core::{
    dynamics_from_tree, equilibrium_trees, EdgeGroup, MoveOrder, NetworkDesignGame,
    SubsidyAssignment,
};
use subsidy_games::exec::Budget;
use subsidy_games::graph::{generators, kruskal, mst_weight, NodeId};
use subsidy_games::snd;

#[test]
fn dynamics_equilibria_appear_in_enumeration() {
    let mut rng = StdRng::seed_from_u64(71);
    for _ in 0..6 {
        let n = rng.random_range(4..7usize);
        let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let mst = kruskal(game.graph()).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let res = dynamics_from_tree(&game, &mst, &b, MoveOrder::RoundRobin, 10_000).unwrap();
        assert!(res.converged);
        let established = res.state.established_edges();
        if game.graph().is_spanning_tree(&established) {
            let eqs = equilibrium_trees(&game, &b, 1_000_000).unwrap();
            assert!(eqs.iter().any(|t| t.edges == established));
        }
    }
}

#[test]
fn snd_budget_zero_matches_enumeration_and_heuristic() {
    let mut rng = StdRng::seed_from_u64(73);
    for _ in 0..4 {
        let n = rng.random_range(4..7usize);
        let g = generators::random_connected(n, 0.5, &mut rng, 0.3..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        // Exhaustive SND at budget 0 = best unsubsidized equilibrium tree.
        let exact = snd::exhaustive::min_weight_within_budget(&game, 0.0, 1_000_000).unwrap();
        let b0 = SubsidyAssignment::zero(game.graph());
        let trivial = EdgeGroup::trivial(game.graph().edge_count());
        let best = subsidy_games::core::best_equilibrium_tree(
            &game,
            &b0,
            1_000_000,
            &trivial,
            &Budget::unlimited(),
        )
        .unwrap()
        .unwrap();
        assert!((exact.weight - best.weight).abs() < 1e-6);
        // Heuristic never undercuts the exhaustive optimum.
        let heur = snd::heuristic::design_with_budget(&game, 0.0).unwrap();
        assert!(heur.weight >= exact.weight - 1e-6);
        // Generous budget: both give the MST.
        let opt = mst_weight(game.graph()).unwrap();
        let generous = snd::heuristic::design_with_budget(&game, opt).unwrap();
        assert!((generous.weight - opt).abs() < 1e-9);
    }
}

#[test]
fn pos_pipeline_bounds() {
    let mut rng = StdRng::seed_from_u64(79);
    let g = generators::random_connected(6, 0.5, &mut rng, 0.3..3.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
    let pos = snd::pos::exact_pos_budgeted(&game, 1_000_000, &Budget::unlimited()).unwrap();
    let (br, hn) = snd::pos::br_from_opt_bound(&game).unwrap();
    assert!((1.0..=br + 1e-9).contains(&pos));
    assert!(br <= hn + 1e-9);
    let at_budget =
        snd::pos::pos_with_budget_fraction(&game, 1.0 / std::f64::consts::E, 1_000_000).unwrap();
    assert!((at_budget - 1.0).abs() < 1e-9);
}
