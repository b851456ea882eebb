//! Exact price of stability on small broadcast games, and how subsidies
//! close the gap.
//!
//! Enumerates all spanning trees of random small instances to compute the
//! exact PoS, compares it with the best-response-from-OPT potential bound
//! and `H_n` (Anshelevich et al.), then shows the PoS-vs-budget curve
//! hitting 1 at budget `wgt(MST)/e` (Theorem 6).
//!
//! Run with: `cargo run --release --example price_of_stability`

use rand::prelude::*;
use subsidy_games::core::NetworkDesignGame;
use subsidy_games::exec::Budget;
use subsidy_games::graph::{generators, harmonic, NodeId};
use subsidy_games::snd::pos;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    println!("{:>5} {:>9} {:>10} {:>8}", "n", "PoS", "BR-bound", "H_n");
    let mut worst: f64 = 1.0;
    let mut worst_game: Option<NetworkDesignGame> = None;
    for _ in 0..12 {
        let n = rng.random_range(5..8usize);
        let g = generators::random_connected(n, 0.6, &mut rng, 0.2..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected");
        let pos_val = pos::exact_pos_budgeted(&game, 2_000_000, &Budget::unlimited())
            .expect("small instance");
        let (br, _) = pos::br_from_opt_bound(&game).expect("dynamics converge");
        let hn = harmonic(game.num_players() as u64);
        println!(
            "{:>5} {:>9.4} {:>10.4} {:>8.4}",
            game.num_players(),
            pos_val,
            br,
            hn
        );
        assert!(pos_val <= br + 1e-9 && br <= hn + 1e-9);
        if pos_val > worst {
            worst = pos_val;
            worst_game = Some(game);
        }
    }
    println!(
        "\nworst observed PoS {worst:.4} (paper: broadcast games have PoS \
         ≥ 1.818 in the worst case, ≤ O(log log n))"
    );

    if let Some(game) = worst_game {
        println!("\nsubsidies close the gap on the worst instance:");
        println!("{:>10} {:>10}", "budget β", "PoS(β)");
        for step in 0..=5 {
            let beta = step as f64 / (5.0 * std::f64::consts::E);
            let r = pos::pos_with_budget_fraction(&game, beta, 2_000_000).expect("small");
            println!("{beta:>10.4} {r:>10.4}");
        }
        println!("β = 1/e always suffices for PoS = 1 (Theorems 1 + 6)");
    }
}
