//! `ndg-bench` — shared workload builders for the experiment harness.
//!
//! Each paper artifact `EN` (and the ablations `AN`) is measured from two
//! sides, and both pull their instances from here so that timings and
//! printed tables describe the same workloads:
//!
//! * the Criterion bench `benches/eN_*.rs` times it (E1–E15, A1; `--test`
//!   runs each body once as a smoke check);
//! * the experiment binary `src/bin/exp_eN.rs` is deterministic: it prints
//!   the artifact's table, asserts its invariants and exits nonzero on a
//!   violation. Binaries that pin a `BENCH_*.json` section hard-check its
//!   deterministic fields and only warn on wall-clock drift.
//!
//! [`chaos`] is the seeded fault-injection harness for `ndg-serve`: its
//! unit tests are the survival gates, and `exp_e12` runs it as its
//! chaos pass. It lives here, not in `ndg-serve`, so the serving binary
//! carries no test harness.

pub mod chaos;

use ndg_core::NetworkDesignGame;
use ndg_graph::{generators, kruskal, EdgeId, NodeId};
use rand::prelude::*;

/// A deterministic random broadcast game with its MST.
pub fn random_broadcast(n: usize, extra_p: f64, seed: u64) -> (NetworkDesignGame, Vec<EdgeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_connected(n, extra_p, &mut rng, 0.2..4.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected");
    let tree = kruskal(game.graph()).expect("connected");
    (game, tree)
}

/// A deterministic random *general* (non-broadcast) game: a random
/// connected graph with `players` distinct random source→terminal pairs,
/// plus its MST. The E11 separation bench prices the MST-induced state
/// with the cutting-plane solver.
pub fn random_general(
    n: usize,
    extra_p: f64,
    players: usize,
    seed: u64,
) -> (NetworkDesignGame, Vec<EdgeId>) {
    assert!(
        players <= n * (n - 1),
        "more distinct ordered pairs requested than exist"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_connected(n, extra_p, &mut rng, 0.2..4.0);
    let mut pairs = Vec::with_capacity(players);
    let mut seen = std::collections::HashSet::new();
    while pairs.len() < players {
        let s = NodeId(rng.random_range(0..n as u32));
        let t = NodeId(rng.random_range(0..n as u32));
        if s != t && seen.insert((s, t)) {
            pairs.push(ndg_core::Player {
                source: s,
                terminal: t,
            });
        }
    }
    let tree = kruskal(&g).expect("connected");
    let game = NetworkDesignGame::new(g, pairs).expect("players validated");
    (game, tree)
}

/// A uniformly-ish random spanning tree (Kruskal under a shuffled edge
/// order): target states induced by it are usually far from equilibrium,
/// which is what makes the E11 cutting-plane loop run many separation
/// rounds.
pub fn random_tree(g: &ndg_graph::Graph, seed: u64) -> Vec<EdgeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.shuffle(&mut rng);
    let mut uf = ndg_graph::UnionFind::new(g.node_count());
    let mut tree = Vec::with_capacity(g.node_count().saturating_sub(1));
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            tree.push(e);
        }
    }
    tree.sort();
    tree
}

/// A grid broadcast game (root = corner 0) with its MST.
pub fn grid_broadcast(rows: usize, cols: usize) -> (NetworkDesignGame, Vec<EdgeId>) {
    let g = generators::grid_graph(rows, cols, 1.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected");
    let tree = kruskal(game.graph()).expect("connected");
    (game, tree)
}

/// An Erdős–Rényi broadcast game (retry until connected) with its MST.
pub fn er_broadcast(n: usize, p: f64, seed: u64) -> (NetworkDesignGame, Vec<EdgeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let g = generators::erdos_renyi(n, p, &mut rng, 0.2..4.0);
        if g.is_connected() {
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected");
            let tree = kruskal(game.graph()).expect("connected");
            return (game, tree);
        }
    }
}

/// Pretty-print a table row with fixed column widths.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Header + separator lines for a table.
pub fn header(names: &[&str], widths: &[usize]) -> String {
    let head = row(
        &names.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  ");
    format!("{head}\n{sep}")
}

/// Split a pinned `BENCH_*.json` text into (object body without the
/// closing brace or any trailing `"key"` section, the raw section text
/// if one is present). The layout invariant shared by every splicing
/// experiment binary: the primary writer rewrites the body and
/// re-attaches the section, the section's own writer keeps the body and
/// replaces the section.
pub fn split_bench_section(text: &str, key: &str) -> (String, Option<String>) {
    let trimmed = text.trim_end();
    let body = trimmed
        .strip_suffix('}')
        .unwrap_or(trimmed)
        .trim_end()
        .to_string();
    let marker = format!(",\n  \"{key}\"");
    match body.find(&marker) {
        Some(i) => {
            // Skip the leading ",\n  " so the section starts at its key.
            let section = body[i..].trim_start_matches(",\n").trim().to_string();
            (body[..i].to_string(), Some(section))
        }
        None => {
            // Fail loudly rather than silently dropping a section the
            // splitter could not isolate (formatting drift would
            // otherwise make the next primary-writer run delete pinned
            // section numbers).
            assert!(
                !body.contains(&format!("\"{key}\"")),
                "pinned bench file contains a {key} section in an \
                 unexpected layout; refusing to guess — re-run its \
                 experiment binary after fixing the file"
            );
            (body, None)
        }
    }
}

/// Inverse of [`split_bench_section`]: reassemble the pinned file from a
/// body and an optional `"key": { … }` section.
pub fn join_bench_section(body: &str, section: Option<&str>) -> String {
    match section {
        Some(section) => format!("{},\n  {section}\n}}\n", body.trim_end()),
        None => format!("{}\n}}\n", body.trim_end()),
    }
}

/// [`split_bench_section`] for `BENCH_serve.json`'s `"e14_canon"`
/// section (`exp_e12` rewrites the body, `exp_e14` the section).
pub fn split_bench_serve(text: &str) -> (String, Option<String>) {
    split_bench_section(text, "e14_canon")
}

/// Inverse of [`split_bench_serve`].
pub fn join_bench_serve(body: &str, e14: Option<&str>) -> String {
    join_bench_section(body, e14)
}

/// Deterministic partial subsidies: roughly 30% of edges carry a uniform
/// subsidy in `[0, w_e]`. The E13 working-round workloads use these so
/// the incremental certifier is exercised with non-trivial residuals.
pub fn partial_subsidies(g: &ndg_graph::Graph, seed: u64) -> ndg_core::SubsidyAssignment {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ndg_core::SubsidyAssignment::zero(g);
    for e in g.edge_ids() {
        if rng.random_bool(0.3) {
            let w = g.weight(e);
            b.set(g, e, rng.random_range(0.0..=w));
        }
    }
    b
}

/// The exact PoS of the unsubsidized game through the unpruned sweep (the
/// trivial edge group): the reference E15 holds the orbit-pruned PoS to.
pub fn unpruned_pos(game: &NetworkDesignGame, cap: usize) -> f64 {
    let g = game.graph();
    let b0 = ndg_core::SubsidyAssignment::zero(g);
    let trivial = ndg_core::EdgeGroup::trivial(g.edge_count());
    ndg_core::price_of_stability(game, &b0, cap, &trivial, &ndg_exec::Budget::unlimited())
        .expect("under cap")
        .expect("has PoS")
}

#[cfg(test)]
mod tests {
    use super::{join_bench_serve, split_bench_serve};

    #[test]
    fn bench_serve_split_join_round_trips() {
        let body = "{\n  \"group\": \"e12\",\n  \"benchmarks\": [\n    { \"id\": \"x\" }\n  ]";
        let section = "\"e14_canon\": {\n    \"cold_hit_rate\": 0.9\n  }";
        let with = join_bench_serve(body, Some(section));
        let (b2, s2) = split_bench_serve(&with);
        assert_eq!(b2, body);
        assert_eq!(s2.as_deref(), Some(section));
        // Without a section, join/split are inverse too.
        let bare = join_bench_serve(body, None);
        let (b3, s3) = split_bench_serve(&bare);
        assert_eq!(b3, body);
        assert_eq!(s3, None);
        // Replacing the section via split+join leaves the body alone.
        let replaced = join_bench_serve(&b2, Some("\"e14_canon\": {\n    \"v\": 2\n  }"));
        let (b4, s4) = split_bench_serve(&replaced);
        assert_eq!(b4, body);
        assert!(s4.unwrap().contains("\"v\": 2"));
    }
}
