//! E7 bench: exact price-of-stability by spanning-tree enumeration and the
//! budgeted variant.

use criterion::{criterion_group, criterion_main, Criterion};
use ndg_bench::random_broadcast;
use ndg_exec::Budget;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_pos");
    group.sample_size(10);
    let (game, _) = random_broadcast(7, 0.5, 1001);
    group.bench_function("exact_pos_n7", |b| {
        b.iter(|| {
            ndg_snd::pos::exact_pos_budgeted(black_box(&game), 1_000_000, &Budget::unlimited())
                .unwrap()
        })
    });
    group.bench_function("pos_with_budget_n7", |b| {
        b.iter(|| ndg_snd::pos::pos_with_budget_fraction(black_box(&game), 0.2, 1_000_000).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
