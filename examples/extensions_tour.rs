//! A tour of the Section 6 extensions implemented beyond the paper's core
//! results: multicast games, weighted players, approximate equilibria,
//! coalitional stability, and the combinatorial cycle solver.
//!
//! Run with: `cargo run --release --example extensions_tour`

use subsidy_games::core::{
    self, multicast::multicast, weighted::Demands, NetworkDesignGame, State, SubsidyAssignment,
};
use subsidy_games::exec::{Budget, Executor};
use subsidy_games::graph::{generators, harmonic, EdgeId, NodeId};
use subsidy_games::{snd, sne};

fn main() {
    // --- Multicast SND ---
    println!("— multicast: Steiner-optimal stable designs —");
    let g = generators::grid_graph(2, 3, 1.0);
    let game = multicast(g.clone(), NodeId(0), &[NodeId(2), NodeId(5)]).unwrap();
    let (_, steiner) =
        core::multicast::exact_steiner_tree(&g, NodeId(0), &[NodeId(2), NodeId(5)]).unwrap();
    let design =
        snd::multicast::min_weight_within_budget_multicast(&game, f64::INFINITY, 1_000_000)
            .unwrap();
    println!(
        "  grid 2x3, terminals {{2, 5}}: Steiner optimum {steiner}, best stable design \
         weight {:.3} at subsidy {:.3}",
        design.weight, design.min_subsidy
    );

    // --- Weighted players ---
    println!("\n— weighted players: demand changes the price of stability —");
    let mut g = subsidy_games::graph::Graph::new(4);
    let e0 = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
    let e1 = g.add_edge(NodeId(1), NodeId(2), 1.2).unwrap();
    let _ = g.add_edge(NodeId(2), NodeId(3), 0.9).unwrap();
    let e3 = g.add_edge(NodeId(3), NodeId(0), 1.0).unwrap();
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
    let (state, _) = State::from_tree(&game, &[e0, e1, e3]).unwrap();
    for (label, demands) in [
        ("uniform demands", Demands::uniform(&game)),
        (
            "node 1 demand ×1000",
            Demands::new(&game, vec![1000.0, 1.0, 1.0]).unwrap(),
        ),
    ] {
        let (sol, _) = sne::lp_weighted::enforce_state_weighted_budgeted(
            &game,
            &state,
            &demands,
            &Executor::from_env(),
            &Budget::unlimited(),
        )
        .unwrap();
        println!("  {label}: minimum enforcing subsidy {:.4}", sol.cost);
    }

    // --- Approximate equilibria ---
    println!("\n— approximate equilibria: the stability threshold α* —");
    let n = 8;
    let g = generators::cycle_graph(n + 1, 1.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
    let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
    let (state, _) = State::from_tree(&game, &tree).unwrap();
    let b0 = SubsidyAssignment::zero(game.graph());
    println!(
        "  Theorem 11 cycle (n = {n}): α* = {:.4} (= H_n = {:.4}); the MST is an \
         H_n-approximate equilibrium for free",
        core::stability_threshold(&game, &state, &b0),
        harmonic(n as u64),
    );
    let t6 = sne::theorem6::enforce(&game, &tree).unwrap();
    println!(
        "  with Theorem 6 subsidies ({:.3}): α* = {:.4}",
        t6.cost,
        core::stability_threshold(&game, &state, &t6.subsidies),
    );

    // --- Coalitions ---
    println!("\n— coalitions: Nash but not strong —");
    let mut g = subsidy_games::graph::Graph::new(5);
    let e_direct = g.add_edge(NodeId(2), NodeId(0), 2.5).unwrap();
    let _ = g.add_edge(NodeId(2), NodeId(1), 1.0).unwrap();
    let _ = g.add_edge(NodeId(1), NodeId(0), 1.0).unwrap();
    let e32 = g.add_edge(NodeId(3), NodeId(2), 0.0).unwrap();
    let e42 = g.add_edge(NodeId(4), NodeId(2), 0.0).unwrap();
    let game = NetworkDesignGame::new(
        g,
        vec![
            core::Player {
                source: NodeId(3),
                terminal: NodeId(0),
            },
            core::Player {
                source: NodeId(4),
                terminal: NodeId(0),
            },
        ],
    )
    .unwrap();
    let state = State::new(&game, vec![vec![e32, e_direct], vec![e42, e_direct]]).unwrap();
    let b = SubsidyAssignment::zero(game.graph());
    println!(
        "  two players on an expensive shared edge: Nash = {}, 2-strong = {}",
        core::is_equilibrium(&game, &state, &b),
        core::is_strong_equilibrium(&game, &state, &b, 2),
    );
    if let Some(dev) = core::find_coalition_deviation(&game, &state, &b, 2) {
        println!(
            "  the pair {:?} jointly reroutes: costs {:?} → both strictly better",
            dev.members, dev.costs
        );
    }

    // --- Combinatorial cycle solver ---
    println!("\n— open problem: LP-free exact SNE on cycles —");
    let (game, tree) = sne::lower_bound::cycle_instance(32);
    let comb = sne::combinatorial::enforce_cycle(&game, &tree).unwrap();
    let lp = sne::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
    println!(
        "  n = 32 cycle: greedy packing {:.5} = LP optimum {:.5} (no LP required)",
        comb.cost, lp.cost
    );
}
