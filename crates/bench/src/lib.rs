//! `ndg-bench` — shared workload builders for the experiment harness.
//!
//! Each paper artifact `EN` (and the ablations `AN`) has one experiment
//! binary, `src/bin/exp_eN.rs`, that pulls its instances from here. It
//! prints the artifact's table, asserts its invariants and exits nonzero
//! on a violation, so a clean run is a pass (CI runs them as its
//! experiment gates). Timings are medians or bests of repeated runs and
//! are printed, not gated, except the relative wall-clock gates that
//! `exp_e12` and `exp_e15` document. Binaries that pin a `BENCH_*.json`
//! section either check its deterministic fields against the pin or
//! rewrite only their own sections through [`splice_bench_section`];
//! `exp_e10` and `exp_e13` print the `BENCH_dynamics.json` rows they
//! generate and leave the file alone.
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
/// plus its MST. E11 prices a random spanning-tree state of such games
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

/// Put the top-level entry `"key": value` into the pinned `BENCH_*.json`
/// object `text`: replace the entry named `key` if there is one, else
/// append it after the last entry. Every byte outside that entry is
/// kept, so the experiment binaries sharing a file each rewrite only
/// their own sections. `text` must be a JSON object; `"{\n}\n"` starts a
/// fresh file.
pub fn splice_bench_section(text: &str, key: &str, value: &str) -> String {
    let entry = format!("\"{key}\": {value}");
    if let Some(span) = entry_span(text, key) {
        return format!("{}{entry}{}", &text[..span.start], &text[span.end..]);
    }
    let close = text
        .rfind('}')
        .expect("a pinned bench file is a JSON object");
    let head = text[..close].trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    format!("{head}{sep}\n  {entry}\n{}", &text[close..])
}

/// The value of the top-level entry `"key": value` of the JSON object
/// `text`, as written (an object, array, string or number), if it has
/// one. Nest calls to read a field of a section: the `p50_us` of
/// `"latency"` is `bench_entry(bench_entry(text, "latency")?, "p50_us")`.
pub fn bench_entry<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let span = entry_span(text, key)?;
    let entry = &text[span.start + key.len() + 2..span.end];
    Some(entry.trim_start().strip_prefix(':')?.trim())
}

/// The byte span of the top-level entry `"key": value` of the JSON object
/// `text`, if it has one.
fn entry_span(text: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    let mut start = None;
    for (i, c) in text.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                if depth == 1 && start.is_none() {
                    start = Some(i);
                }
            }
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        if (c == ',' && depth == 1) || (c == '}' && depth == 0) {
            if let Some(s) = start.take() {
                if text[s + 1..].split('"').next() == Some(key) {
                    return Some(s..text[..i].trim_end().len());
                }
            }
        }
    }
    None
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
    use super::{bench_entry, splice_bench_section};

    const BODY: &str = "{\n  \"group\": \"e12\",\n  \"benchmarks\": [\n    { \"id\": \"x\" }\n  ]";

    #[test]
    fn bench_serve_split_join_round_trips() {
        let file = format!("{BODY}\n}}\n");
        let section = "{\n    \"cold_hit_rate\": 0.9\n  }";
        let with = splice_bench_section(&file, "e14_canon", section);
        assert_eq!(with, format!("{BODY},\n  \"e14_canon\": {section}\n}}\n"));
        // Splicing the same section again is the identity.
        assert_eq!(splice_bench_section(&with, "e14_canon", section), with);
        // Replacing the section leaves the body alone.
        let replaced = splice_bench_section(&with, "e14_canon", "{\n    \"v\": 2\n  }");
        assert_eq!(
            replaced,
            format!("{BODY},\n  \"e14_canon\": {{\n    \"v\": 2\n  }}\n}}\n")
        );
        // A missing file starts as an empty object.
        assert_eq!(
            splice_bench_section("{\n}\n", "e14_canon", section),
            format!("{{\n  \"e14_canon\": {section}\n}}\n")
        );
    }

    #[test]
    fn replacing_one_section_keeps_the_sections_after_it() {
        let e14 =
            "\"e14_canon\": {\n    \"note\": \"a, {quoted\\\" } note\",\n    \"rows\": [1, 2]\n  }";
        let e16 = "\"e16_sessions\": {\n    \"families\": [{ \"id\": \"c\" }]\n  }";
        let file = format!("{BODY},\n  {e14},\n  {e16}\n}}\n");
        let new_e14 = "{ \"v\": 2 }";
        assert_eq!(
            splice_bench_section(&file, "e14_canon", new_e14),
            format!("{BODY},\n  \"e14_canon\": {new_e14},\n  {e16}\n}}\n")
        );
        assert_eq!(
            splice_bench_section(&file, "e16_sessions", "[]"),
            format!("{BODY},\n  {e14},\n  \"e16_sessions\": []\n}}\n")
        );
        // The body's writer replaces its own keys and keeps both sections.
        let group = splice_bench_section(&file, "group", "\"e12b\"");
        assert_eq!(group, file.replacen("\"e12\"", "\"e12b\"", 1));
        // A key that only occurs nested is not a top-level entry.
        let rows = splice_bench_section(&file, "rows", "0");
        assert_eq!(
            rows,
            format!("{BODY},\n  {e14},\n  {e16},\n  \"rows\": 0\n}}\n")
        );
    }

    #[test]
    fn entries_are_read_inside_their_own_section() {
        // `exp_e14` ran first: its section, with its own `cache_hit_rate`
        // rows, precedes e12's entries.
        let file = "{\n  \"e14_canon\": {\n    \"benchmarks\": [\n      \
                    { \"id\": \"w\", \"cache_hit_rate\": 0.979, \"p50_us\": 1.5 }\n    ]\n  },\n  \
                    \"latency\": { \"p50_us\": 22.5, \"p99_us\": 740.4, \"cache_hit_rate\": 0.755 },\n  \
                    \"e12_chaos\": { \"fault_rate\": 0.15, \"survived\": true }\n}\n";
        let field = |section: &str, key: &str| bench_entry(bench_entry(file, section)?, key);
        assert_eq!(field("latency", "cache_hit_rate"), Some("0.755"));
        assert_eq!(field("latency", "p50_us"), Some("22.5"));
        assert_eq!(field("latency", "p99_us"), Some("740.4"));
        assert_eq!(field("e12_chaos", "survived"), Some("true"));
        // Nested-only and absent keys are not entries.
        assert_eq!(bench_entry(file, "cache_hit_rate"), None);
        assert_eq!(field("obs_overhead", "warm_replay_ms_on"), None);
        assert_eq!(field("e12_chaos", "wall_ms"), None);
    }
}
