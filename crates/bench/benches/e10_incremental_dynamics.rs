//! E10 bench: incremental best-response dynamics vs the naive
//! recompute-per-move reference.
//!
//! Same workloads for both drivers (random connected broadcast games,
//! dynamics started from the MST, zero subsidies): the naive driver runs
//! one Dijkstra per player per scan and recomputes the full O(m) Rosenthal
//! potential after every move, the incremental driver maintains Φ and all
//! player costs in O(Δ) per move and only re-solves bound-suspect players.
//! `BENCH_dynamics.json` at the repo root pins the measured baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndg_bench::random_broadcast;
use ndg_core::SubsidyAssignment;
use ndg_core::{best_response_dynamics_budgeted, best_response_dynamics_naive, MoveOrder, State};
use ndg_exec::Budget;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_incremental_dynamics");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let (game, tree) = random_broadcast(n, 0.4, 10_000 + n as u64);
        let b0 = SubsidyAssignment::zero(game.graph());
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        for order in [MoveOrder::RoundRobin, MoveOrder::MaxGain] {
            let tag = match order {
                MoveOrder::RoundRobin => "round_robin",
                MoveOrder::MaxGain => "max_gain",
                MoveOrder::RandomOrder(_) => unreachable!(),
            };
            group.bench_with_input(
                BenchmarkId::new(format!("incremental_{tag}"), n),
                &n,
                |bench, _| {
                    bench.iter(|| {
                        best_response_dynamics_budgeted(
                            black_box(&game),
                            black_box(state.clone()),
                            black_box(&b0),
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
                            black_box(&b0),
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
