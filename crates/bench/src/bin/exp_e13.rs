//! E13 — working-round dynamics: incremental Lemma-2 maintenance vs the
//! naive recompute-per-move reference.
//!
//! Deterministic companion of `benches/e13_working_rounds.rs`: dynamics
//! start from a *random* spanning tree with partial subsidies (many
//! working rounds, unlike E10's near-converged MST start), the
//! incremental and naive drivers must agree on every decision (move
//! counts, potential traces, final social cost), and the certifier's own
//! counters show how the maintained view absorbed the move stream
//! (elementary O(Δ) updates vs invalidations vs lazy margin
//! evaluations).

use ndg_bench::{header, partial_subsidies, random_broadcast, random_tree, row};
use ndg_core::{
    best_response_dynamics_budgeted, best_response_dynamics_naive, IncrementalDynamics, MoveOrder,
    State,
};
use ndg_exec::Budget;
use std::time::Instant;

fn main() {
    let widths = [5, 13, 7, 7, 11, 11, 8];
    println!("E13: working-round dynamics (random spanning tree, partial subsidies)");
    println!(
        "{}",
        header(
            &["n", "order", "moves", "rounds", "naive-ms", "incr-ms", "speedup"],
            &widths
        )
    );
    let unlimited = Budget::unlimited();
    for n in [64usize, 128] {
        let (game, _mst) = random_broadcast(n, 0.4, 13_000 + n as u64);
        let tree = random_tree(game.graph(), 13_100 + n as u64);
        let b = partial_subsidies(game.graph(), 13_200 + n as u64);
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        for (name, order) in [
            ("round-robin", MoveOrder::RoundRobin),
            ("random-order", MoveOrder::RandomOrder(13)),
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
}
