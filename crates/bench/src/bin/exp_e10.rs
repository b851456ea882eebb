//! E10 — incremental vs naive best-response dynamics.
//!
//! Both drivers run the same workloads (random connected broadcast games,
//! dynamics started from the MST, zero subsidies): the naive driver runs
//! one Dijkstra per player per scan and recomputes the full O(m)
//! Rosenthal potential after every move, the incremental driver maintains
//! Φ and all player costs in O(Δ) per move and only re-solves
//! bound-suspect players. Their move counts, final social costs and
//! potential traces must agree (the incremental engine is a performance
//! change, not a semantic one).
//!
//! Each driver runs 5 times per instance and the table shows the median
//! wall clock. The run ends by printing the E10 rows of
//! `BENCH_dynamics.json` under their pinned ids (`median_ns`); the file
//! is never rewritten, so re-pin by pasting the rows.

use ndg_bench::{header, random_broadcast, row};
use ndg_core::{
    best_response_dynamics_budgeted, best_response_dynamics_naive, MoveOrder, State,
    SubsidyAssignment,
};
use ndg_exec::Budget;
use std::time::Instant;

/// Timed runs per driver and instance.
const RUNS: usize = 5;

/// Run `f` [`RUNS`] times: its last result and the median wall clock in ns.
fn median_ns<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(RUNS);
    let mut out = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        out = Some(f());
        times.push(t0.elapsed().as_nanos() as f64);
    }
    times.sort_by(f64::total_cmp);
    (out.expect("RUNS > 0"), times[RUNS / 2])
}

fn main() {
    let widths = [5, 12, 7, 7, 11, 11, 8];
    println!(
        "E10: incremental vs naive dynamics (from the MST, zero subsidies; median of {RUNS} runs)"
    );
    println!(
        "{}",
        header(
            &["n", "order", "moves", "rounds", "naive-ms", "incr-ms", "speedup"],
            &widths
        )
    );
    let unlimited = Budget::unlimited();
    let mut pins = Vec::new();
    for n in [32usize, 64, 128] {
        let (game, tree) = random_broadcast(n, 0.4, 10_000 + n as u64);
        let b = SubsidyAssignment::zero(game.graph());
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        for (name, tag, order) in [
            ("round-robin", "round_robin", MoveOrder::RoundRobin),
            ("max-gain", "max_gain", MoveOrder::MaxGain),
        ] {
            let (fast, t_incr) = median_ns(|| {
                best_response_dynamics_budgeted(
                    &game,
                    state.clone(),
                    &b,
                    order,
                    100_000,
                    &unlimited,
                )
                .unwrap()
            });
            let (naive, t_naive) = median_ns(|| {
                best_response_dynamics_naive(&game, state.clone(), &b, order, 100_000)
            });
            assert!(naive.converged && fast.converged);
            assert_eq!(naive.moves, fast.moves, "move counts diverged");
            assert_eq!(
                naive.potential_trace.len(),
                fast.potential_trace.len(),
                "trace lengths diverged"
            );
            for (a, c) in naive.potential_trace.iter().zip(&fast.potential_trace) {
                assert!((a - c).abs() < 1e-9, "potential traces diverged");
            }
            let w_naive = naive.state.weight(game.graph());
            let w_fast = fast.state.weight(game.graph());
            assert!((w_naive - w_fast).abs() < 1e-9, "final costs diverged");
            println!(
                "{}",
                row(
                    &[
                        n.to_string(),
                        name.to_string(),
                        fast.moves.to_string(),
                        fast.rounds.to_string(),
                        format!("{:.2}", t_naive / 1e6),
                        format!("{:.2}", t_incr / 1e6),
                        format!("{:.1}x", t_naive / t_incr),
                    ],
                    &widths
                )
            );
            pins.push((format!("incremental_{tag}/{n}"), t_incr));
            pins.push((format!("naive_{tag}/{n}"), t_naive));
        }
    }
    println!("OK: both drivers agree on every instance");
    println!("BENCH_dynamics.json rows (median of {RUNS} runs):");
    for (id, ns) in pins {
        println!("    {{ \"id\": \"{id}\", \"median_ns\": {ns:.0} }}");
    }
}
