//! E7 — Price of stability and the subsidy budget (Sections 1–3 context).
//!
//! Part 1: exact PoS distribution on small random broadcast games
//! (spanning-tree enumeration) against the best-response-from-OPT bound
//! and `H_n`. Part 2: PoS as a function of the subsidy budget
//! `β · wgt(MST)` — the curve is monotone and reaches 1 no later than
//! `β = 1/e` (Theorem 6).

use ndg_bench::{header, random_broadcast, row};
use ndg_exec::Budget;
use std::f64::consts::E;

fn main() {
    let widths = [6, 4, 9, 9, 9];
    println!("E7a: exact PoS vs the best-response-from-OPT bound and H_n");
    println!(
        "{}",
        header(&["seed", "n", "PoS", "BR-bound", "H_n"], &widths)
    );
    let mut max_pos: f64 = 1.0;
    for seed in 0..10u64 {
        let n = 5 + (seed as usize % 3);
        let (game, _) = random_broadcast(n, 0.5, 1000 + seed);
        let pos = ndg_snd::pos::exact_pos_budgeted(&game, 1_000_000, &Budget::unlimited())
            .expect("small instance");
        let (br, hn) = ndg_snd::pos::br_from_opt_bound(&game).expect("dynamics converge");
        println!(
            "{}",
            row(
                &[
                    seed.to_string(),
                    game.num_players().to_string(),
                    format!("{pos:.4}"),
                    format!("{br:.4}"),
                    format!("{hn:.4}"),
                ],
                &widths
            )
        );
        assert!(pos <= br + 1e-9 && br <= hn + 1e-9);
        max_pos = max_pos.max(pos);
    }
    println!(
        "observed max PoS {max_pos:.4} (paper: broadcast lower bound 1.818, upper O(log log n))"
    );

    println!("\nE7b: PoS under subsidy budget β·wgt(MST), averaged over 6 games (n = 6)");
    let widths = [8, 10];
    println!("{}", header(&["beta", "avg PoS"], &widths));
    let betas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 1.0 / E];
    let games: Vec<_> = (0..6u64)
        .map(|s| random_broadcast(6, 0.5, 2000 + s).0)
        .collect();
    let mut prev = f64::INFINITY;
    for &beta in &betas {
        let mut total = 0.0;
        for game in &games {
            total += ndg_snd::pos::pos_with_budget_fraction(game, beta, 1_000_000)
                .expect("small instance");
        }
        let avg = total / games.len() as f64;
        println!(
            "{}",
            row(&[format!("{beta:.4}"), format!("{avg:.4}")], &widths)
        );
        assert!(avg <= prev + 1e-9, "PoS must not rise with budget");
        prev = avg;
    }
    assert!((prev - 1.0).abs() < 1e-9, "β = 1/e must reach PoS 1");
    println!(
        "curve is monotone and hits 1.0000 at β = 1/e ≈ {:.4}",
        1.0 / E
    );
}
