//! E8 — The three LP formulations (Theorem 1, LPs (1)–(3)).
//!
//! On random broadcast games, solves the same SNE instance with the
//! cutting-plane LP (1), the polynomial LP (2) and the broadcast LP (3);
//! reports optima (must agree to 1e-5), wall time, and the cut counts of
//! the constraint-generation loop.

use ndg_bench::{header, random_broadcast, row};
use ndg_core::State;
use ndg_exec::{Budget, Executor};
use std::time::Instant;

fn main() {
    let widths = [4, 9, 9, 9, 9, 9, 9, 6];
    println!("E8: LP (1) vs LP (2) vs LP (3) — value agreement and timing");
    println!(
        "{}",
        header(
            &["n", "lp1", "lp2", "lp3", "t1(ms)", "t2(ms)", "t3(ms)", "cuts"],
            &widths
        )
    );
    let mut cases = Vec::new();
    for (i, n) in [5usize, 7, 9].iter().enumerate() {
        cases.push(random_broadcast(*n, 0.5, 500 + i as u64));
    }
    // Cycle instances guarantee nonzero optima (Theorem 11).
    for n in [6usize, 10] {
        cases.push(ndg_sne::lower_bound::cycle_instance(n));
    }
    for (game, tree) in &cases {
        let n = game.num_players();
        let (state, _) = State::from_tree(game, tree).unwrap();

        let t = Instant::now();
        let (lp1, stats) = ndg_sne::lp_general::enforce_state_cutting_budgeted(
            game,
            &state,
            &Executor::from_env(),
            &Budget::unlimited(),
        )
        .unwrap();
        let t1 = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let lp2 = ndg_sne::lp_poly::enforce_state_poly(game, &state).unwrap();
        let t2 = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let lp3 = ndg_sne::lp_broadcast::enforce_tree_lp(game, tree).unwrap();
        let t3 = t.elapsed().as_secs_f64() * 1e3;

        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    format!("{:.5}", lp1.cost),
                    format!("{:.5}", lp2.cost),
                    format!("{:.5}", lp3.cost),
                    format!("{t1:.2}"),
                    format!("{t2:.2}"),
                    format!("{t3:.2}"),
                    stats.cuts_added.to_string(),
                ],
                &widths
            )
        );
        assert!((lp1.cost - lp3.cost).abs() < 1e-5);
        assert!((lp2.cost - lp3.cost).abs() < 1e-5);
    }
    println!("\nall three formulations agree; LP (3) is the cheapest by far");
}
