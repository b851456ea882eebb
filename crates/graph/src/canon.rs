//! Partition refinement and BFS codes: the graph-side substrate of
//! instance canonicalization (`ndg-canon`).
//!
//! The canonical-labeling pipeline needs two label-invariant primitives on
//! weighted (multi)graphs:
//!
//! * [`refine_partition`] — iterative colour refinement (1-dimensional
//!   Weisfeiler–Leman over *keyed arcs*): starting from seed colours, each
//!   round recolours every node by the sorted multiset of
//!   `(arc key, neighbour colour)` pairs on its out-arcs, until the
//!   partition stops splitting. Arc keys carry edge-weight bits and role
//!   tags (plain edge vs. player source/terminal arc), so the very first
//!   round already separates nodes by (degree, incident-weight multiset,
//!   demand membership) — the seeding the canonicalizer specifies.
//! * [`bfs_code`] — a cheap invariant summarizing a node's view of the
//!   graph: the sorted multiset of `(BFS distance from the node, refined
//!   colour)` pairs. Refinement-equivalent root candidates are tie-broken
//!   by this code before the canonicalizer falls back to branching
//!   individualization.
//!
//! Both functions are pure structure: their outputs commute with any
//! relabeling of the node ids (apply a permutation to the input and the
//! outputs are the correspondingly permuted/identical values), which is
//! exactly the property `ndg-canon` builds its cache-key soundness on.

/// One directed, keyed arc `from → to`. Undirected edges contribute two
/// arcs (one per direction) with the same key; asymmetric relations (a
/// player's source vs. terminal) use distinct keys per direction.
pub type Arc = (u32, u32, u128);

/// A stable colouring of `0..n` produced by [`refine_partition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refinement {
    /// `colors[v]` ∈ `0..num_colors`, dense, ordered by signature rank (so
    /// equal colours ⇔ refinement could not distinguish the nodes).
    pub colors: Vec<u32>,
    /// Number of distinct colours.
    pub num_colors: usize,
}

impl Refinement {
    /// Whether every node has a unique colour (the partition is discrete).
    pub fn is_discrete(&self) -> bool {
        self.num_colors == self.colors.len()
    }
}

/// Per-node out-arc index: `(key, to)` pairs grouped by `from`.
fn arc_index(n: usize, arcs: &[Arc]) -> Vec<Vec<(u128, u32)>> {
    let mut out: Vec<Vec<(u128, u32)>> = vec![Vec::new(); n];
    for &(from, to, key) in arcs {
        out[from as usize].push((key, to));
    }
    out
}

/// Iterative colour refinement from `seed` colours (any `u32` values;
/// equal seeds = same initial class). Runs until the partition is stable
/// or `max_rounds` rounds have been applied — stopping early only
/// coarsens the result, never breaks invariance, because the round count
/// at which a structure stabilizes is itself label-invariant.
///
/// `work` is a caller-shared **work budget**: every round costs
/// `n + arcs.len()` units, debited from `work`. Returns `None` (budget
/// exhausted mid-refinement) once `work` goes negative — the caller must
/// then fall back wholesale, which is label-invariant because the work a
/// structure consumes is a function of the structure, never of its
/// labels. This is what keeps canonical-labeling searches (many
/// refinement passes per request, on an attacker-supplied wire instance)
/// bounded to a predictable total cost. A budget of `i64::MAX` never trips
/// in practice.
pub fn refine_partition(
    n: usize,
    arcs: &[Arc],
    seed: &[u32],
    max_rounds: usize,
    work: &mut i64,
) -> Option<Refinement> {
    assert_eq!(seed.len(), n, "one seed colour per node");
    let adj = arc_index(n, arcs);
    // Condense the seed into dense signature-ordered colours.
    let mut colors = condense(seed);
    let mut num_colors = count_colors(&colors);
    for _ in 0..max_rounds {
        if num_colors == n {
            break;
        }
        *work -= (n + arcs.len()) as i64;
        if *work < 0 {
            return None;
        }
        // Signature: old colour first (so new colours refine old ones),
        // then the sorted multiset of (key, neighbour colour) pairs.
        let sigs: Vec<(u32, Vec<(u128, u32)>)> = (0..n)
            .map(|v| {
                let mut nb: Vec<(u128, u32)> = adj[v]
                    .iter()
                    .map(|&(key, to)| (key, colors[to as usize]))
                    .collect();
                nb.sort_unstable();
                (colors[v], nb)
            })
            .collect();
        let next = condense(&sigs);
        let next_count = count_colors(&next);
        if next_count == num_colors {
            break;
        }
        colors = next;
        num_colors = next_count;
    }
    Some(Refinement { colors, num_colors })
}

/// Dense ranks ordered by signature: nodes (or any objects) with equal
/// signatures share a rank, and ranks follow the signature order — the
/// condensation step of colour refinement, also reused for attachment
/// classes in `ndg-canon`.
pub fn condense<S: Ord>(sigs: &[S]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..sigs.len()).collect();
    order.sort_by(|&a, &b| sigs[a].cmp(&sigs[b]));
    let mut colors = vec![0u32; sigs.len()];
    let mut color = 0u32;
    for (i, &v) in order.iter().enumerate() {
        if i > 0 && sigs[v] != sigs[order[i - 1]] {
            color += 1;
        }
        colors[v] = color;
    }
    colors
}

fn count_colors(colors: &[u32]) -> usize {
    match colors.iter().max() {
        None => 0,
        Some(&m) => m as usize + 1,
    }
}

/// The BFS code of `root`: the sorted multiset of
/// `(distance from root, colour)` pairs over all nodes, with unreachable
/// nodes at distance `u32::MAX`. Distances run over the arc graph
/// (undirected edges contribute both directions). This is a label-
/// invariant per-node summary: isomorphic graphs assign corresponding
/// roots identical codes.
pub fn bfs_code(n: usize, arcs: &[Arc], colors: &[u32], root: u32) -> Vec<u64> {
    assert_eq!(colors.len(), n);
    let adj = arc_index(n, arcs);
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for &(_, to) in &adj[u as usize] {
            if dist[to as usize] == u32::MAX {
                dist[to as usize] = dist[u as usize] + 1;
                queue.push_back(to);
            }
        }
    }
    let mut code: Vec<u64> = (0..n)
        .map(|v| (u64::from(dist[v]) << 32) | u64::from(colors[v]))
        .collect();
    code.sort_unstable();
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refine(n: usize, arcs: &[Arc], seed: &[u32], max_rounds: usize) -> Refinement {
        let mut work = i64::MAX;
        refine_partition(n, arcs, seed, max_rounds, &mut work).expect("no work bound")
    }

    /// Arcs of an undirected unit-weight cycle on `n` nodes.
    fn cycle_arcs(n: u32) -> Vec<Arc> {
        let w = 1.0f64.to_bits() as u128;
        (0..n)
            .flat_map(|i| {
                let j = (i + 1) % n;
                [(i, j, w), (j, i, w)]
            })
            .collect()
    }

    #[test]
    fn uniform_cycle_does_not_refine() {
        let arcs = cycle_arcs(6);
        let r = refine(6, &arcs, &[0; 6], 64);
        assert_eq!(r.num_colors, 1, "a vertex-transitive graph stays one class");
    }

    #[test]
    fn seeding_one_node_splits_a_cycle_into_distance_classes() {
        let arcs = cycle_arcs(6);
        let mut seed = [0u32; 6];
        seed[0] = 1;
        let r = refine(6, &arcs, &seed, 64);
        // Distance classes from node 0: {0}, {1,5}, {2,4}, {3}.
        assert_eq!(r.num_colors, 4);
        assert_eq!(r.colors[1], r.colors[5]);
        assert_eq!(r.colors[2], r.colors[4]);
        assert_ne!(r.colors[0], r.colors[3]);
    }

    #[test]
    fn distinct_weights_discretize_a_path() {
        // Path 0-1-2-3 with pairwise distinct weights: refinement must
        // separate every node.
        let mut arcs = Vec::new();
        for (i, w) in [(0u32, 1.0f64), (1, 2.0), (2, 3.5)] {
            let key = w.to_bits() as u128;
            arcs.push((i, i + 1, key));
            arcs.push((i + 1, i, key));
        }
        let r = refine(4, &arcs, &[0; 4], 64);
        assert!(r.is_discrete(), "{:?}", r);
    }

    #[test]
    fn refinement_commutes_with_relabeling() {
        // Weighted graph, relabeled by a fixed permutation: colour classes
        // must correspond.
        let arcs: Vec<Arc> = vec![
            (0, 1, 10),
            (1, 0, 10),
            (1, 2, 20),
            (2, 1, 20),
            (2, 3, 10),
            (3, 2, 10),
            (0, 3, 30),
            (3, 0, 30),
        ];
        let perm = [2u32, 0, 3, 1]; // old → new
        let parcs: Vec<Arc> = arcs
            .iter()
            .map(|&(u, v, k)| (perm[u as usize], perm[v as usize], k))
            .collect();
        let a = refine(4, &arcs, &[0; 4], 64);
        let b = refine(4, &parcs, &[0; 4], 64);
        for (v, &image) in perm.iter().enumerate() {
            assert_eq!(a.colors[v], b.colors[image as usize], "node {v}");
        }
    }

    #[test]
    fn bfs_code_is_invariant_under_relabeling() {
        let arcs = cycle_arcs(5);
        let mut seed = [0u32; 5];
        seed[2] = 1;
        let r = refine(5, &arcs, &seed, 64);
        // Relabel by rotation: node v → v+1 (mod 5).
        let perm = [1u32, 2, 3, 4, 0];
        let parcs: Vec<Arc> = arcs
            .iter()
            .map(|&(u, v, k)| (perm[u as usize], perm[v as usize], k))
            .collect();
        let mut pseed = [0u32; 5];
        pseed[perm[2] as usize] = 1;
        let pr = refine(5, &parcs, &pseed, 64);
        for v in 0..5u32 {
            assert_eq!(
                bfs_code(5, &arcs, &r.colors, v),
                bfs_code(5, &parcs, &pr.colors, perm[v as usize]),
                "code of node {v} must match its relabeled image"
            );
        }
    }

    #[test]
    fn directed_role_keys_distinguish_asymmetric_endpoints() {
        // One "player arc" pair with asymmetric keys: source and terminal
        // end up in different classes even though degrees match.
        let arcs: Vec<Arc> = vec![(0, 1, 1 << 64), (1, 0, 2 << 64)];
        let r = refine(2, &arcs, &[0; 2], 8);
        assert_eq!(r.num_colors, 2);
    }
}
