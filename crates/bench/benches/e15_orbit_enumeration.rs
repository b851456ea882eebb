//! E15 bench: orbit-pruned exact PoS against the unpruned spanning-tree
//! sweep on symmetric families, plus an asymmetric control for the
//! trivial-group fast path. The bit-identity and pruning-power gates run
//! once outside the timed region (so `-- --test` smoke-checks them in
//! CI); `exp_e15` pins the measured numbers into `BENCH_dynamics.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndg_bench::unpruned_pos;
use ndg_core::{
    count_spanning_trees, for_each_spanning_tree_orbits, NetworkDesignGame, SubsidyAssignment,
};
use ndg_exec::Budget;
use ndg_graph::{generators, NodeId};
use ndg_snd::orbits::broadcast_edge_group;
use ndg_snd::pos::exact_pos_budgeted;
use rand::prelude::*;
use std::hint::black_box;
use std::ops::ControlFlow;

const CAP: usize = 200_000;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_orbit_enumeration");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0xE15);
    let families: Vec<(&'static str, ndg_graph::Graph)> = vec![
        ("C_12", generators::cycle_graph(12, 1.0)),
        ("Q3", generators::hypercube_graph(3, 1.0)),
        ("torus_3x3", generators::torus_graph(3, 3, 1.0)),
        (
            "random_9",
            generators::random_connected(9, 0.3, &mut rng, 0.3..3.0),
        ),
    ];
    for (id, g) in families {
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected");

        // Gates, outside the timed region: bit-identity on every family,
        // >=4x fewer Lemma-2 scans where the root stabilizer is large.
        let plain = unpruned_pos(&game, CAP);
        let orbit = exact_pos_budgeted(&game, CAP, &Budget::unlimited()).expect("has PoS");
        assert_eq!(plain.to_bits(), orbit.to_bits(), "{id}: orbit PoS diverged");
        if matches!(id, "Q3" | "torus_3x3") {
            let b0 = SubsidyAssignment::zero(game.graph());
            let grp = broadcast_edge_group(&game, &b0);
            let mut reps: u64 = 0;
            for_each_spanning_tree_orbits(game.graph(), &grp, |_, _| {
                reps += 1;
                ControlFlow::Continue(())
            })
            .expect("under cap");
            let trees = count_spanning_trees(game.graph()).round() as u64;
            assert!(
                trees as f64 / reps as f64 >= 4.0,
                "{id}: expected >=4x pruning, got {trees}/{reps}"
            );
        }

        group.bench_with_input(BenchmarkId::new("unpruned_pos", id), &id, |bench, _| {
            bench.iter(|| unpruned_pos(black_box(&game), CAP))
        });
        group.bench_with_input(BenchmarkId::new("orbit_pos", id), &id, |bench, _| {
            bench.iter(|| exact_pos_budgeted(black_box(&game), CAP, &Budget::unlimited()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
