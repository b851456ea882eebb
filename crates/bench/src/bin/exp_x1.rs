//! X1 — Extensions (the paper's Section 6 program).
//!
//! Quantitative sweep over the implemented extensions:
//! (a) fractional vs integral SND optimum across budgets;
//! (b) weighted enforcement price as one player's demand grows;
//! (c) stability threshold α* of the Theorem 11 cycle vs subsidy budget.

use ndg_bench::{header, random_broadcast, row};
use ndg_core::{weighted::Demands, State, SubsidyAssignment};
use ndg_exec::{Budget, Executor};
use ndg_graph::{mst_weight, EdgeId};
use std::f64::consts::E;

fn main() {
    // --- (a) fractional vs integral SND ---
    println!("X1a: fractional vs all-or-nothing SND optimum (n = 6, avg of 4 games)");
    let widths = [8, 12, 12];
    println!("{}", header(&["beta", "frac wgt", "aon wgt"], &widths));
    let games: Vec<_> = (0..4u64)
        .map(|s| random_broadcast(6, 0.5, 7000 + s).0)
        .collect();
    for step in 0..=4 {
        let mut frac_total = 0.0;
        let mut aon_total = 0.0;
        for game in &games {
            let opt = mst_weight(game.graph()).unwrap();
            let budget = opt * step as f64 / (4.0 * E);
            frac_total += ndg_snd::exhaustive::min_weight_within_budget(game, budget, 100_000)
                .unwrap()
                .weight;
            aon_total +=
                ndg_snd::exhaustive::min_weight_within_budget_aon(game, budget, 100_000, 5_000_000)
                    .unwrap()
                    .weight;
        }
        let k = games.len() as f64;
        println!(
            "{}",
            row(
                &[
                    format!("{:.4}", step as f64 / (4.0 * E)),
                    format!("{:.4}", frac_total / k),
                    format!("{:.4}", aon_total / k),
                ],
                &widths
            )
        );
        assert!(aon_total >= frac_total - 1e-6, "integral never lighter");
    }

    // --- (b) weighted enforcement price ---
    println!("\nX1b: enforcement price of the heavy-player four-cycle vs demand d₁");
    let widths = [10, 12];
    println!("{}", header(&["d1", "min subsidy"], &widths));
    let mut g = ndg_graph::Graph::new(4);
    let e0 = g
        .add_edge(ndg_graph::NodeId(0), ndg_graph::NodeId(1), 1.0)
        .unwrap();
    let e1 = g
        .add_edge(ndg_graph::NodeId(1), ndg_graph::NodeId(2), 1.2)
        .unwrap();
    let _ = g
        .add_edge(ndg_graph::NodeId(2), ndg_graph::NodeId(3), 0.9)
        .unwrap();
    let e3 = g
        .add_edge(ndg_graph::NodeId(3), ndg_graph::NodeId(0), 1.0)
        .unwrap();
    let game = ndg_core::NetworkDesignGame::broadcast(g, ndg_graph::NodeId(0)).unwrap();
    let (state, _) = State::from_tree(&game, &[e0, e1, e3]).unwrap();
    let mut prev = f64::INFINITY;
    for d1 in [1.0, 2.0, 4.0, 8.0, 100.0] {
        let d = Demands::new(&game, vec![d1, 1.0, 1.0]).unwrap();
        let (sol, _) = ndg_sne::lp_weighted::enforce_state_weighted_budgeted(
            &game,
            &state,
            &d,
            &Executor::from_env(),
            &Budget::unlimited(),
        )
        .unwrap();
        println!(
            "{}",
            row(&[format!("{d1:.0}"), format!("{:.5}", sol.cost)], &widths)
        );
        assert!(sol.cost <= prev + 1e-9, "price falls as d₁ grows here");
        prev = sol.cost;
    }

    // --- (c) α* vs budget ---
    println!("\nX1c: stability threshold α* of the n = 10 cycle vs subsidized far edges");
    let widths = [10, 10];
    println!("{}", header(&["edges", "alpha*"], &widths));
    let n = 10;
    let (game, tree) = ndg_sne::lower_bound::cycle_instance(n);
    let (state, _) = State::from_tree(&game, &tree).unwrap();
    for k in [0usize, 2, 4, 6, 8, 10] {
        let subsidized: Vec<EdgeId> = (0..k).map(|i| EdgeId((n - 1 - i) as u32)).collect();
        let b = SubsidyAssignment::all_or_nothing(game.graph(), &subsidized);
        let alpha = ndg_core::stability_threshold(&game, &state, &b);
        println!("{}", row(&[k.to_string(), format!("{alpha:.4}")], &widths));
    }
    println!("\nα* falls from H_n to 1 as the least-crowded edges are bought out");
}
