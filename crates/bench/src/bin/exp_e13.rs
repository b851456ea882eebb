//! E13 — working-round dynamics: incremental Lemma-2 maintenance vs the
//! naive recompute-per-move reference.
//!
//! E10 starts round-robin from the MST with zero subsidies, which
//! converges in a handful of rounds; here dynamics start from a *random*
//! spanning tree with partial subsidies, so they spend most of their time
//! in working rounds (interleaved moves and declines) rather than in the
//! final certification round. The incremental and naive drivers must
//! agree on every decision (move counts, potential traces, final social
//! cost), and the certifier's own counters show how the maintained view
//! absorbed the move stream (elementary O(Δ) updates vs invalidations vs
//! lazy margin evaluations).
//!
//! Each driver runs 5 times per instance and the table shows the median
//! wall clock. The run ends by printing the E13 rows of
//! `BENCH_dynamics.json` under their pinned ids (`median_ns`); the file
//! is never rewritten, so re-pin by pasting the rows.

use ndg_bench::{header, partial_subsidies, random_broadcast, random_tree, row};
use ndg_core::{
    best_response_dynamics_budgeted, best_response_dynamics_naive, IncrementalDynamics, MoveOrder,
    State,
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
    let widths = [5, 13, 7, 7, 11, 11, 8];
    println!(
        "E13: working-round dynamics (random spanning tree, partial subsidies; median of {RUNS} runs)"
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
    for n in [64usize, 128] {
        let (game, _mst) = random_broadcast(n, 0.4, 13_000 + n as u64);
        let tree = random_tree(game.graph(), 13_100 + n as u64);
        let b = partial_subsidies(game.graph(), 13_200 + n as u64);
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        for (name, tag, order) in [
            ("round-robin", "round_robin", MoveOrder::RoundRobin),
            ("random-order", "random_order", MoveOrder::RandomOrder(13)),
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
            pins.push((format!("e13/incremental_{tag}/{n}"), t_incr));
            pins.push((format!("e13/naive_{tag}/{n}"), t_naive));
        }
        // Certifier behaviour on the round-robin stream: how many moves
        // the maintained view absorbed in O(Δ) vs how often it had to be
        // re-adopted, and how much lazy margin work the queries cost.
        let mut engine = IncrementalDynamics::new(&game, state.clone(), &b);
        loop {
            let mut improved = false;
            for i in 0..game.num_players() {
                if engine.maintained_equilibrium() == Some(true) {
                    break;
                }
                if engine.try_improve(i).is_some() {
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        let s = engine.certifier_stats();
        println!(
            "  n={n}: certifier absorbed {} elementary moves, {} invalidations, \
             {} adoptions, {} lazy margin evaluations",
            s.elementary_updates, s.invalidations, s.adoptions, s.margin_recomputes
        );
    }
    println!("OK: both drivers agree on every instance");
    println!("BENCH_dynamics.json rows (median of {RUNS} runs):");
    for (id, ns) in pins {
        println!("    {{ \"id\": \"{id}\", \"median_ns\": {ns:.0} }}");
    }
}
