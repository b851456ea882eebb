//! Property-based tests over the graph substrate (proptest).
//!
//! These complement the seeded randomized tests in the individual modules
//! with shrinking-enabled generators: proptest drives sizes/seeds and will
//! minimize any counterexample it finds.

#![cfg(test)]

use crate::generators;
use crate::graph::{Graph, GraphError, NodeId};
use crate::mst::kruskal;
use crate::tree::RootedTree;
use proptest::prelude::*;
use rand::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LCA by binary lifting equals the naive parent-walk answer.
    #[test]
    fn lca_matches_naive(n in 2usize..40, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, 0.3, &mut rng, 0.5..2.0);
        let tree = kruskal(&g).unwrap();
        let rt = RootedTree::new(&g, &tree, NodeId(0)).unwrap();
        for _ in 0..12 {
            let u = NodeId(rng.random_range(0..n as u32));
            let v = NodeId(rng.random_range(0..n as u32));
            let fast = rt.lca(u, v);
            // Naive: climb both to equal depth, then together.
            let (mut a, mut b) = (u, v);
            while rt.depth(a) > rt.depth(b) {
                a = rt.parent(a).unwrap().0;
            }
            while rt.depth(b) > rt.depth(a) {
                b = rt.parent(b).unwrap().0;
            }
            while a != b {
                a = rt.parent(a).unwrap().0;
                b = rt.parent(b).unwrap().0;
            }
            prop_assert_eq!(fast, a);
        }
    }

    /// `ancestor(v, k)` equals k sequential parent steps (root-saturating).
    #[test]
    fn ancestor_matches_walk(n in 2usize..30, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, 0.2, &mut rng, 0.5..2.0);
        let tree = kruskal(&g).unwrap();
        let rt = RootedTree::new(&g, &tree, NodeId(0)).unwrap();
        let v = NodeId(rng.random_range(0..n as u32));
        for steps in 0..(rt.depth(v) + 3) {
            let fast = rt.ancestor(v, steps);
            let mut cur = v;
            for _ in 0..steps {
                cur = rt.parent(cur).map(|(p, _)| p).unwrap_or(rt.root());
            }
            prop_assert_eq!(fast, cur, "steps {}", steps);
        }
    }

    /// Kruskal equals the brute-force minimum over all spanning subsets.
    #[test]
    fn mst_is_minimum(n in 2usize..7, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, 0.5, &mut rng, 0.1..4.0);
        let m = g.edge_count();
        prop_assume!(m <= 16);
        let opt = g.weight_of(&kruskal(&g).unwrap());
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != n - 1 {
                continue;
            }
            let subset: Vec<_> = (0..m)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| crate::graph::EdgeId(i as u32))
                .collect();
            if g.is_spanning_tree(&subset) {
                best = best.min(g.weight_of(&subset));
            }
        }
        prop_assert!((opt - best).abs() < 1e-9);
    }

    /// Dijkstra distances satisfy the triangle property over every edge
    /// and match Floyd–Warshall.
    #[test]
    fn dijkstra_consistency(n in 2usize..20, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, 0.4, &mut rng, 0.0..3.0);
        let fw = crate::paths::floyd_warshall(&g);
        let src = NodeId(rng.random_range(0..n as u32));
        let sp = crate::paths::dijkstra(&g, src);
        for v in g.nodes() {
            prop_assert!((sp.dist[v.index()] - fw[src.index()][v.index()]).abs() < 1e-9);
        }
        for (_, e) in g.edges() {
            let du = sp.dist[e.u.index()];
            let dv = sp.dist[e.v.index()];
            prop_assert!(dv <= du + e.w + 1e-9);
            prop_assert!(du <= dv + e.w + 1e-9);
        }
    }

    /// `Graph::from_edges` equals the `add_edge` loop on random edge lists:
    /// the same edges and per-node neighbour order, or the same error at
    /// the first bad edge. `fault` breaks one random edge (0 leaves the
    /// list valid) with an out-of-range node, a self-loop, a NaN or a
    /// negative weight, and in half the cases the last edge with another
    /// fault, so the error must come from the first.
    #[test]
    fn from_edges_matches_the_add_edge_loop(
        n in 2usize..12,
        m in 1usize..40,
        fault in 0u32..5,
        seed in 0u64..1_000_000
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(NodeId, NodeId, f64)> = (0..m)
            .map(|_| {
                let u = rng.random_range(0..n as u32);
                let v = (u + rng.random_range(1..n as u32)) % n as u32;
                (NodeId(u), NodeId(v), rng.random_range(0.0..4.0))
            })
            .collect();
        let break_edge = |e: &mut (NodeId, NodeId, f64), fault: u32| match fault {
            1 => e.1 = NodeId(n as u32 + 2),
            2 => e.1 = e.0,
            3 => e.2 = f64::NAN,
            4 => e.2 = -1.5,
            _ => {}
        };
        let k = rng.random_range(0..m);
        break_edge(&mut edges[k], fault);
        if fault > 0 && k + 1 < m && rng.random_bool(0.5) {
            break_edge(&mut edges[m - 1], 1 + fault % 4);
        }
        let mut looped = Graph::new(n);
        let looped = edges
            .iter()
            .try_for_each(|&(u, v, w)| looped.add_edge(u, v, w).map(|_| ()))
            .map(|()| looped);
        match (Graph::from_edges(n, edges.iter().copied()), looped) {
            (Ok(g), Ok(h)) => {
                prop_assert_eq!(g.node_count(), h.node_count());
                let bits = |g: &Graph| -> Vec<(u32, u32, u64)> {
                    g.edges().map(|(_, e)| (e.u.0, e.v.0, e.w.to_bits())).collect()
                };
                prop_assert_eq!(bits(&g), bits(&h));
                for x in g.nodes() {
                    prop_assert_eq!(g.neighbors(x), h.neighbors(x));
                }
            }
            // `{:?}` compares a NaN weight's error too.
            (Err(a), Err(b)) => {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            (a, b) => {
                prop_assert!(false, "from_edges {:?} vs add_edge loop {:?}", a.err(), b.err());
            }
        }
    }

    /// `Graph::set_weight` equals `from_edges` of the patched edge list,
    /// neighbour lists included; a NaN, infinite or negative weight is
    /// `BadWeight` and leaves the graph unchanged.
    #[test]
    fn set_weight_equals_from_edges_of_the_patched_list(
        n in 2usize..12,
        seed in 0u64..1_000_000,
        bad in 0usize..5
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::random_connected(n, 0.4, &mut rng, 0.0..4.0);
        let bits = |g: &Graph| -> Vec<(u32, u32, u64)> {
            g.edges().map(|(_, e)| (e.u.0, e.v.0, e.w.to_bits())).collect()
        };
        let mut list: Vec<(NodeId, NodeId, f64)> = g.edges().map(|(_, e)| (e.u, e.v, e.w)).collect();
        for _ in 0..6 {
            let e = rng.random_range(0..list.len());
            let w = rng.random_range(0.0..4.0);
            g.set_weight(crate::graph::EdgeId(e as u32), w).unwrap();
            list[e].2 = w;
            let want = Graph::from_edges(n, list.iter().copied()).unwrap();
            prop_assert_eq!(bits(&g), bits(&want));
            for x in g.nodes() {
                prop_assert_eq!(g.neighbors(x), want.neighbors(x));
            }
        }
        let w = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.5, -f64::MIN_POSITIVE][bad];
        let before = bits(&g);
        let e = crate::graph::EdgeId(rng.random_range(0..list.len()) as u32);
        let err = g.set_weight(e, w).unwrap_err();
        // `{:?}` compares a NaN weight's error too.
        prop_assert_eq!(format!("{err:?}"), format!("{:?}", GraphError::BadWeight(w)));
        prop_assert_eq!(bits(&g), before);
    }

    /// Harmonic differences telescope: H_c − H_a = (H_b − H_a) + (H_c − H_b).
    #[test]
    fn harmonic_telescopes(a in 0u64..500, d1 in 0u64..300, d2 in 0u64..300) {
        let b = a + d1;
        let c = b + d2;
        let lhs = crate::harmonic::harmonic_diff(a, c);
        let rhs = crate::harmonic::harmonic_diff(a, b) + crate::harmonic::harmonic_diff(b, c);
        prop_assert!((lhs - rhs).abs() < 1e-12);
    }

    /// Subtree sizes over any root sum correctly: Σ_v subtree(v) = Σ_v (depth(v) + 1).
    #[test]
    fn subtree_depth_identity(n in 2usize..25, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, 0.3, &mut rng, 0.5..2.0);
        let tree = kruskal(&g).unwrap();
        let root = NodeId(rng.random_range(0..n as u32));
        let rt = RootedTree::new(&g, &tree, root).unwrap();
        let sum_subtrees: u64 = g.nodes().map(|v| rt.subtree_size(v) as u64).sum();
        let sum_depths: u64 = g.nodes().map(|v| rt.depth(v) as u64 + 1).sum();
        prop_assert_eq!(sum_subtrees, sum_depths);
    }
}
