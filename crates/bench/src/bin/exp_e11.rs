//! E11 — parallel LP separation: cutting-plane wall time vs thread count.
//!
//! n=64 general games at a random spanning-tree state are priced with
//! the batched cutting-plane solver at threads ∈ {1, 4, 8}. The subsidy vectors must be
//! **bit-identical** across thread counts (batched rows are gathered in
//! player order with sorted coefficients), and the wall clock per thread
//! count is printed. `BENCH_separation.json` at the repo root pins the
//! measured baseline; note that a single-core container will show no
//! speedup — the determinism assertions are the portable part.
//!
//! Every run checks its rows against that pin: the deterministic `rounds`
//! and `cuts` of each `cutting_plane_p{players}/threads={t}` row must
//! match (exit 1 otherwise), while `wall_ms` only warns outside a 4x band.
//! The file is read, never rewritten. Run it from the repository root:
//!
//! ```sh
//! cargo run --release -p ndg-bench --bin exp_e11
//! ```

use ndg_bench::{header, random_general, random_tree, row};
use ndg_core::State;
use ndg_exec::{Budget, Executor};
use ndg_sne::lp_general::enforce_state_cutting_budgeted;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 4, 8];
const PINS: &str = "BENCH_separation.json";
/// Wall-clock drift beyond this factor either way prints a warning.
const WARN_BAND: f64 = 4.0;

/// The pinned `key` of the `PINS` row `id` (NaN when the row or key is
/// missing).
fn pinned(pins: &str, id: &str, key: &str) -> f64 {
    pins.lines()
        .find(|l| l.contains(&format!("\"id\": \"{id}\"")))
        .and_then(|l| {
            let i = l.find(&format!("\"{key}\": "))?;
            l[i + key.len() + 4..]
                .split([',', '}'])
                .next()?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(f64::NAN)
}

fn main() {
    let pins = std::fs::read_to_string(PINS).unwrap_or_else(|e| {
        eprintln!("exp_e11: cannot read {PINS}: {e}");
        std::process::exit(1);
    });
    let mut mismatches = 0;
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
            let id = format!("cutting_plane_p{players}/threads={t}");
            let (rounds, cuts) = (pinned(&pins, &id, "rounds"), pinned(&pins, &id, "cuts"));
            if (rounds, cuts) != (stats.rounds as f64, stats.cuts_added as f64) {
                eprintln!(
                    "exp_e11: {id}: rounds/cuts {}/{} != pinned {rounds}/{cuts} in {PINS}",
                    stats.rounds, stats.cuts_added
                );
                mismatches += 1;
            }
            let pin_ms = pinned(&pins, &id, "wall_ms");
            if !(pin_ms / WARN_BAND..=pin_ms * WARN_BAND).contains(&wall_ms) {
                println!(
                    "WARN: {id} wall_ms {wall_ms:.2} vs pinned {pin_ms:.2} — outside the \
                     {WARN_BAND}x band; wall-clock drift is warn-only"
                );
            }
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
    if mismatches > 0 {
        eprintln!("exp_e11: {mismatches} row(s) differ from {PINS}");
        std::process::exit(1);
    }
    println!("OK: rounds and cuts match {PINS}");
}
