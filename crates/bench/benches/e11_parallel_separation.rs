//! E11 bench: batched cutting-plane separation at threads ∈ {1, 4, 8}.
//!
//! Same workload as `exp_e11`: an n=64 general game whose target state is
//! induced by a *random* (deliberately non-minimum) spanning tree — far
//! from equilibrium, so the loop runs many separation rounds — priced by
//! LP (1) with the batched shortest-path separation oracle. One
//! benchmark id per thread count so `BENCH_separation.json` can pin the
//! scaling curve; the subsidy vector is asserted bit-identical to the
//! sequential run inside every iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndg_bench::{random_general, random_tree};
use ndg_core::State;
use ndg_exec::{Budget, Executor};
use ndg_sne::lp_general::enforce_state_cutting_budgeted;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_parallel_separation");
    group.sample_size(10);
    let (game, _mst) = random_general(64, 0.25, 48, 11_065);
    let tree = random_tree(game.graph(), 11_065 ^ 0xE11);
    let (state, _) = State::from_tree(&game, &tree).unwrap();
    let (seq_sol, _) = enforce_state_cutting_budgeted(
        &game,
        &state,
        &Executor::sequential(),
        &Budget::unlimited(),
    )
    .unwrap();
    let want = seq_sol.subsidies.as_slice().to_vec();
    for threads in [1usize, 4, 8] {
        let ex = Executor::new(threads);
        group.bench_with_input(
            BenchmarkId::new("cutting_plane", threads),
            &threads,
            |bench, _| {
                bench.iter(|| {
                    let (sol, stats) = enforce_state_cutting_budgeted(
                        black_box(&game),
                        black_box(&state),
                        &ex,
                        &Budget::unlimited(),
                    )
                    .unwrap();
                    assert_eq!(sol.subsidies.as_slice(), &want[..]);
                    stats.cuts_added
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
