//! E15 — orbit-pruned exact enumeration: how much of the spanning-tree
//! sweep the automorphism group removes, at what overhead, under the
//! bit-identity contract.
//!
//! For each family the exact PoS is computed twice: through the unpruned
//! streaming sweep (one Lemma-2 scan per spanning tree) and through the
//! orbit-pruned sweep (one scan per tree *orbit* under the root-fixing
//! automorphism group reported by `ndg-canon`, including the group
//! discovery itself). Gates, asserted here and smoke-run in CI:
//!
//! 1. **Bit-identity**: both paths return the same PoS bits on every
//!    family — symmetric and asymmetric alike.
//! 2. **Pruning power**: on the 3-cube (root stabilizer of order 6) and
//!    the 3×3 torus (order 8) the orbit sweep scans ≥4× fewer trees.
//! 3. **Trivial-group fast path**: on an asymmetric random instance the
//!    orbit driver stays within 10% (+2 ms timer slack) of the unpruned
//!    sweep — group discovery degrades to a cheap trivial-group probe.
//!    The two arms are timed alternately, best of 5 each, so host noise
//!    lands on both.
//!
//! Results are spliced into `BENCH_dynamics.json` under `"e15_orbit"`
//! (preserving the pinned e10/e13 body). 1-core container: the per-tree
//! scan counts and bit-identity are the portable part; wall clocks scale
//! with the reduction only once the Lemma-2 scans dominate.

use ndg_bench::{header, row, unpruned_pos};
use ndg_core::{
    count_spanning_trees, for_each_spanning_tree_orbits, NetworkDesignGame, SubsidyAssignment,
};
use ndg_exec::Budget;
use ndg_graph::{generators, NodeId};
use ndg_snd::orbits::broadcast_edge_group;
use ndg_snd::pos::exact_pos_budgeted;
use rand::prelude::*;
use std::io::Write as _;
use std::ops::ControlFlow;
use std::time::Instant;

const CAP: usize = 200_000;

fn broadcast(g: ndg_graph::Graph) -> NetworkDesignGame {
    NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected family")
}

/// Timed runs per arm.
const RUNS: usize = 5;

/// Best-of-[`RUNS`] wall clocks in milliseconds of two arms, timed
/// alternately run by run (a, b, a, b, …) so a burst of host noise lands
/// on both arms rather than on one. Returns each arm's value and time.
fn time_pair_ms(
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> ((f64, f64), (f64, f64)) {
    let mut arms = [(0.0, f64::INFINITY); 2];
    for _ in 0..RUNS {
        for (arm, f) in arms
            .iter_mut()
            .zip([&mut a as &mut dyn FnMut() -> f64, &mut b])
        {
            let t0 = Instant::now();
            arm.0 = f();
            arm.1 = arm.1.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    (arms[0], arms[1])
}

struct FamilyResult {
    id: &'static str,
    trees: u64,
    reps: u64,
    group_order: usize,
    unpruned_ms: f64,
    orbit_ms: f64,
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0xE15);
    let families: Vec<(&'static str, ndg_graph::Graph)> = vec![
        ("C_12", generators::cycle_graph(12, 1.0)),
        ("Q3", generators::hypercube_graph(3, 1.0)),
        ("grid_4x4", generators::grid_graph(4, 4, 1.0)),
        ("torus_3x3", generators::torus_graph(3, 3, 1.0)),
        (
            "random_9",
            generators::random_connected(9, 0.3, &mut rng, 0.3..3.0),
        ),
    ];
    println!("E15: orbit-pruned exact PoS vs the unpruned sweep (cap {CAP})");
    let widths = [10, 9, 9, 6, 7, 12, 12, 8];
    println!(
        "{}",
        header(
            &[
                "family",
                "trees",
                "orbits",
                "group",
                "prune",
                "unpruned-ms",
                "orbit-ms",
                "speedup"
            ],
            &widths
        )
    );

    let mut results: Vec<FamilyResult> = Vec::new();
    for (id, g) in families {
        let game = broadcast(g);
        let b0 = SubsidyAssignment::zero(game.graph());
        let group = broadcast_edge_group(&game, &b0);
        let trees = count_spanning_trees(game.graph()).round() as u64;
        let mut reps: u64 = 0;
        let mut covered: u64 = 0;
        for_each_spanning_tree_orbits(game.graph(), &group, |_, size| {
            reps += 1;
            covered += size;
            ControlFlow::Continue(())
        })
        .expect("under cap");
        assert_eq!(
            covered, trees,
            "{id}: orbit sizes must sum to the tree count"
        );

        let ((plain, unpruned_ms), (orbit, orbit_ms)) = time_pair_ms(
            || unpruned_pos(&game, CAP),
            || exact_pos_budgeted(&game, CAP, &Budget::unlimited()).expect("has PoS"),
        );
        assert_eq!(
            plain.to_bits(),
            orbit.to_bits(),
            "{id}: orbit PoS diverged ({plain} vs {orbit})"
        );

        println!(
            "{}",
            row(
                &[
                    id.to_string(),
                    trees.to_string(),
                    reps.to_string(),
                    group.order().to_string(),
                    format!("{:.1}x", trees as f64 / reps as f64),
                    format!("{unpruned_ms:.2}"),
                    format!("{orbit_ms:.2}"),
                    format!("{:.2}x", unpruned_ms / orbit_ms),
                ],
                &widths
            )
        );
        results.push(FamilyResult {
            id,
            trees,
            reps,
            group_order: group.order(),
            unpruned_ms,
            orbit_ms,
        });
    }

    // Acceptance gates.
    for r in &results {
        let prune = r.trees as f64 / r.reps as f64;
        match r.id {
            "Q3" | "torus_3x3" => assert!(
                prune >= 4.0,
                "gate: {} must scan >=4x fewer trees, got {prune:.2}x",
                r.id
            ),
            "random_9" => assert!(
                r.orbit_ms <= r.unpruned_ms * 1.10 + 2.0,
                "gate: trivial-group fast path overhead too high \
                 ({:.2} ms vs {:.2} ms unpruned)",
                r.orbit_ms,
                r.unpruned_ms
            ),
            _ => {}
        }
    }
    println!(
        "OK: PoS bit-identical on every family; >=4x fewer Lemma-2 scans on Q3 and \
         torus_3x3; trivial-group overhead within 10% on random_9"
    );

    // Splice the e15 section into BENCH_dynamics.json; the pinned e10/e13
    // rows stay as they are.
    let section = {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(
            "    \"note\": \"Orbit-pruned exact PoS vs the unpruned spanning-tree sweep: \
             one Lemma-2 scan per tree orbit under the root-fixing automorphism group \
             (ndg-canon generators, EdgeGroup closure), bit-identical results asserted on \
             every family. trees/orbits are exact scan counts; wall clocks are best-of-5, \
             the two arms timed alternately, on a 1-core container and include group \
             discovery in orbit_ms.\",\n",
        );
        s.push_str("    \"families\": [\n");
        for (i, r) in results.iter().enumerate() {
            s.push_str(&format!(
                "      {{ \"id\": \"{}\", \"trees\": {}, \"orbit_reps\": {}, \
                 \"group_order\": {}, \"scan_reduction\": {:.2}, \"unpruned_ms\": {:.2}, \
                 \"orbit_ms\": {:.2}, \"speedup\": {:.2} }}{}\n",
                r.id,
                r.trees,
                r.reps,
                r.group_order,
                r.trees as f64 / r.reps as f64,
                r.unpruned_ms,
                r.orbit_ms,
                r.unpruned_ms / r.orbit_ms,
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }");
        s
    };
    let path = "BENCH_dynamics.json";
    let old = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let merged = ndg_bench::splice_bench_section(&old, "e15_orbit", &section);
    match std::fs::File::create(path).and_then(|mut f| f.write_all(merged.as_bytes())) {
        Ok(()) => println!("wrote {path} (e15_orbit section)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
