//! E13 bench: working-round dynamics — the regime the incremental
//! Lemma-2 certifier (`ndg_core::recert`) was built for.
//!
//! E10 starts round-robin from the MST with zero subsidies, which
//! converges in a handful of rounds; this bench starts from a *random*
//! spanning tree with partial subsidies, so the dynamics spend most of
//! their time in working rounds (interleaved moves and declines) rather
//! than in the final certification round. Both the round-robin and the
//! shuffled (random-order) drivers are measured against the naive
//! recompute-per-move reference on identical workloads.
//! `BENCH_dynamics.json` at the repo root pins the measured baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndg_bench::{partial_subsidies, random_broadcast, random_tree};
use ndg_core::{best_response_dynamics_budgeted, best_response_dynamics_naive, MoveOrder, State};
use ndg_exec::Budget;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_working_rounds");
    group.sample_size(10);
    for n in [64usize, 128] {
        let (game, _mst) = random_broadcast(n, 0.4, 13_000 + n as u64);
        let tree = random_tree(game.graph(), 13_100 + n as u64);
        let b = partial_subsidies(game.graph(), 13_200 + n as u64);
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        for order in [MoveOrder::RoundRobin, MoveOrder::RandomOrder(13)] {
            let tag = match order {
                MoveOrder::RoundRobin => "round_robin",
                MoveOrder::RandomOrder(_) => "random_order",
                MoveOrder::MaxGain => unreachable!(),
            };
            group.bench_with_input(
                BenchmarkId::new(format!("incremental_{tag}"), n),
                &n,
                |bench, _| {
                    bench.iter(|| {
                        best_response_dynamics_budgeted(
                            black_box(&game),
                            black_box(state.clone()),
                            black_box(&b),
                            order,
                            100_000,
                            &Budget::unlimited(),
                        )
                        .unwrap()
                        .moves
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("naive_{tag}"), n),
                &n,
                |bench, _| {
                    bench.iter(|| {
                        best_response_dynamics_naive(
                            black_box(&game),
                            black_box(state.clone()),
                            black_box(&b),
                            order,
                            100_000,
                        )
                        .moves
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
