//! E10 — incremental vs naive best-response dynamics.
//!
//! Deterministic companion of `benches/e10_incremental_dynamics.rs`: both
//! drivers run the same workloads; their move counts, final social costs
//! and potential traces must agree (the incremental engine is a
//! performance change, not a semantic one), and the wall-clock ratio is
//! printed per instance.

use ndg_bench::{header, random_broadcast, row};
use ndg_core::{
    best_response_dynamics_budgeted, best_response_dynamics_naive, MoveOrder, State,
    SubsidyAssignment,
};
use ndg_exec::Budget;
use std::time::Instant;

fn main() {
    let widths = [5, 12, 7, 7, 11, 11, 8];
    println!("E10: incremental vs naive dynamics (from the MST, zero subsidies)");
    println!(
        "{}",
        header(
            &["n", "order", "moves", "rounds", "naive-ms", "incr-ms", "speedup"],
            &widths
        )
    );
    let unlimited = Budget::unlimited();
    for n in [32usize, 64, 128] {
        let (game, tree) = random_broadcast(n, 0.4, 10_000 + n as u64);
        let b = SubsidyAssignment::zero(game.graph());
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        for (name, order) in [
            ("round-robin", MoveOrder::RoundRobin),
            ("max-gain", MoveOrder::MaxGain),
        ] {
            let t0 = Instant::now();
            let naive = best_response_dynamics_naive(&game, state.clone(), &b, order, 100_000);
            let t_naive = t0.elapsed();
            let t0 = Instant::now();
            let fast = best_response_dynamics_budgeted(
                &game,
                state.clone(),
                &b,
                order,
                100_000,
                &unlimited,
            )
            .unwrap();
            let t_incr = t0.elapsed();
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
                        format!("{:.2}", t_naive.as_secs_f64() * 1e3),
                        format!("{:.2}", t_incr.as_secs_f64() * 1e3),
                        format!("{:.1}x", t_naive.as_secs_f64() / t_incr.as_secs_f64()),
                    ],
                    &widths
                )
            );
        }
    }
    println!("OK: both drivers agree on every instance");
}
