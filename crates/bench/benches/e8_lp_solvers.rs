//! E8 bench: the three LP formulations on the same instance.

use criterion::{criterion_group, criterion_main, Criterion};
use ndg_bench::random_broadcast;
use ndg_core::State;
use ndg_exec::{Budget, Executor};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_lp_solvers");
    group.sample_size(10);
    let (game, tree) = random_broadcast(9, 0.5, 502);
    let (state, _) = State::from_tree(&game, &tree).unwrap();
    group.bench_function("lp1_cutting", |b| {
        b.iter(|| {
            ndg_sne::lp_general::enforce_state_cutting_budgeted(
                black_box(&game),
                black_box(&state),
                &Executor::from_env(),
                &Budget::unlimited(),
            )
            .unwrap()
            .0
            .cost
        })
    });
    group.bench_function("lp2_poly", |b| {
        b.iter(|| {
            ndg_sne::lp_poly::enforce_state_poly(black_box(&game), black_box(&state))
                .unwrap()
                .cost
        })
    });
    group.bench_function("lp3_broadcast", |b| {
        b.iter(|| {
            ndg_sne::lp_broadcast::enforce_tree_lp(black_box(&game), black_box(&tree))
                .unwrap()
                .cost
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
