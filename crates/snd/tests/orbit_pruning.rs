//! Satellite property suite for the orbit-pruned enumeration: the sweep
//! under the game's automorphism group must be **bit-identical** to the
//! sweep under the trivial group — same PoS, PoA, and best-tree bits at
//! every thread count — and the orbit sizes reported to the fold must sum
//! to the Kirchhoff spanning-tree count.
//!
//! Everything lives in one `#[test]`: the thread-count axis is driven
//! through the `NDG_THREADS` environment variable, and cargo runs tests
//! within a binary concurrently — a second test mutating the same
//! process-global env var would race.

use ndg_core::{
    best_equilibrium_tree, count_spanning_trees, for_each_spanning_tree_orbits,
    price_of_anarchy_trees, price_of_stability, EdgeGroup, NetworkDesignGame, SubsidyAssignment,
};
use ndg_exec::Budget;
use ndg_graph::{generators, NodeId};
use ndg_snd::orbits::broadcast_edge_group;
use ndg_snd::pos::exact_pos_budgeted;
use rand::prelude::*;
use std::ops::ControlFlow;

const CAP: usize = 100_000;

fn broadcast(g: ndg_graph::Graph) -> NetworkDesignGame {
    NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
}

/// Symmetric families plus asymmetric random instances (whose groups are
/// typically trivial — the fast path must stay bit-identical too).
fn instances() -> Vec<ndg_graph::Graph> {
    let mut rng = StdRng::seed_from_u64(1501);
    let mut gs = vec![
        generators::cycle_graph(8, 1.0),
        generators::cycle_graph(12, 1.0),
        generators::hypercube_graph(3, 1.0),
        generators::torus_graph(3, 3, 1.0),
    ];
    for _ in 0..4 {
        let n = rng.random_range(4..8usize);
        gs.push(generators::random_connected(n, 0.5, &mut rng, 0.3..3.0));
    }
    gs
}

#[test]
fn orbit_pruning_is_bit_identical_and_counts_every_tree() {
    for threads in ["1", "8"] {
        std::env::set_var("NDG_THREADS", threads);
        for (i, g) in instances().into_iter().enumerate() {
            let game = broadcast(g);
            let b0 = SubsidyAssignment::zero(game.graph());
            let group = broadcast_edge_group(&game, &b0);
            let trivial = EdgeGroup::trivial(game.graph().edge_count());
            let unlimited = Budget::unlimited();

            // Orbit sizes partition the tree set: Σ |orbit| = Kirchhoff.
            let mut covered: u64 = 0;
            let mut reps: u64 = 0;
            for_each_spanning_tree_orbits(game.graph(), &group, |_, size| {
                covered += size;
                reps += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
            let kirchhoff = count_spanning_trees(game.graph()).round() as u64;
            assert_eq!(
                covered, kirchhoff,
                "instance {i} threads {threads}: orbit sizes must sum to the tree count"
            );
            assert!(reps <= covered);

            // PoS bits.
            let plain = price_of_stability(&game, &b0, CAP, &trivial, &unlimited)
                .unwrap()
                .unwrap();
            let orbit = exact_pos_budgeted(&game, CAP, &unlimited).unwrap();
            assert_eq!(
                plain.to_bits(),
                orbit.to_bits(),
                "instance {i} threads {threads}: PoS diverged ({plain} vs {orbit})"
            );

            // PoA bits.
            let plain = price_of_anarchy_trees(&game, &b0, CAP, &trivial, &unlimited)
                .unwrap()
                .unwrap();
            let orbit = price_of_anarchy_trees(&game, &b0, CAP, &group, &unlimited)
                .unwrap()
                .unwrap();
            assert_eq!(
                plain.to_bits(),
                orbit.to_bits(),
                "instance {i} threads {threads}: PoA diverged ({plain} vs {orbit})"
            );

            // Best equilibrium tree: same edges, same weight bits.
            let plain = best_equilibrium_tree(&game, &b0, CAP, &trivial, &unlimited)
                .unwrap()
                .unwrap();
            let orbit = best_equilibrium_tree(&game, &b0, CAP, &group, &unlimited)
                .unwrap()
                .unwrap();
            assert_eq!(
                plain.edges, orbit.edges,
                "instance {i} threads {threads}: best tree diverged"
            );
            assert_eq!(plain.weight.to_bits(), orbit.weight.to_bits());
        }
    }
    std::env::remove_var("NDG_THREADS");
}
