//! E11 — parallel LP separation: cutting-plane wall time vs thread count.
//!
//! Deterministic companion of `benches/e11_parallel_separation.rs`: the
//! same n=64 general games are priced with the batched cutting-plane
//! solver at threads ∈ {1, 4, 8}. The subsidy vectors must be
//! **bit-identical** across thread counts (batched rows are gathered in
//! player order with sorted coefficients), and the wall clock per thread
//! count is printed. `BENCH_separation.json` at the repo root pins the
//! measured baseline; note that a single-core container will show no
//! speedup — the determinism assertions are the portable part.

use ndg_bench::{header, random_general, random_tree, row};
use ndg_core::State;
use ndg_exec::{Budget, Executor};
use ndg_sne::lp_general::enforce_state_cutting_budgeted;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 4, 8];

fn main() {
    let widths = [5, 9, 8, 7, 7, 11, 9];
    println!("E11: batched LP separation (n=64 general games, random-tree state)");
    println!(
        "{}",
        header(
            &["n", "players", "threads", "rounds", "cuts", "wall-ms", "speedup"],
            &widths
        )
    );
    for (players, seed) in [(24usize, 11_064u64), (48, 11_065), (63, 11_066)] {
        let (game, _mst) = random_general(64, 0.25, players, seed);
        // A random (non-minimum) spanning tree: its induced state needs
        // real subsidies, so the cutting-plane loop runs many rounds.
        let tree = random_tree(game.graph(), seed ^ 0xE11);
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let mut reference: Option<(Vec<f64>, f64)> = None;
        for t in THREADS {
            let ex = Executor::new(t);
            // Median of 3 runs to tame scheduler noise.
            let mut times = Vec::new();
            let mut last = None;
            for _ in 0..3 {
                let t0 = Instant::now();
                let out = enforce_state_cutting_budgeted(&game, &state, &ex, &Budget::unlimited())
                    .unwrap();
                times.push(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(out);
            }
            times.sort_by(f64::total_cmp);
            let wall_ms = times[1];
            let (sol, stats) = last.unwrap();
            let x = sol.subsidies.as_slice().to_vec();
            let speedup = match &reference {
                None => {
                    reference = Some((x, wall_ms));
                    1.0
                }
                Some((want, base_ms)) => {
                    assert_eq!(
                        &x, want,
                        "threads={t}: subsidy vector diverged from threads=1"
                    );
                    base_ms / wall_ms
                }
            };
            println!(
                "{}",
                row(
                    &[
                        "64".to_string(),
                        players.to_string(),
                        t.to_string(),
                        stats.rounds.to_string(),
                        stats.cuts_added.to_string(),
                        format!("{wall_ms:.2}"),
                        format!("{speedup:.2}x"),
                    ],
                    &widths
                )
            );
        }
    }
    println!("OK: subsidy vectors bit-identical across thread counts");
}
