//! Exhaustive enumeration for small games: all spanning trees, all
//! equilibrium trees, exact price of stability / anarchy.
//!
//! In a broadcast game every equilibrium of interest is a spanning tree
//! (an equilibrium containing a cycle only arises from zero-weight cycles,
//! and then an equally-weighted equilibrium tree exists — Section 2), so
//! exact PoS on small instances reduces to scanning spanning trees.
//!
//! The enumerator is a *streaming visitor* over a rollback union-find:
//! each tree is handed to the caller as it is produced (O(n) live state,
//! no per-branch clones). One sweep driver, [`fold_equilibrium_trees`],
//! tests trees in bounded parallel chunks instead of materializing
//! `Vec<Vec<EdgeId>>` first, so peak memory does not scale with the
//! number of spanning trees. It takes an [`EdgeGroup`] and an
//! [`ndg_exec::Budget`] as arguments: `EdgeGroup::trivial(m)` sweeps every
//! tree, a nontrivial group sweeps one representative per tree orbit, and
//! `Budget::unlimited()` never cancels. Kirchhoff's matrix-tree
//! determinant predicts the count so the cap can reject hopeless instances
//! before enumerating a single tree.

use crate::broadcast::is_tree_equilibrium;
use crate::game::NetworkDesignGame;
use crate::subsidy::SubsidyAssignment;
use ndg_graph::{EdgeId, Graph, NodeId, RollbackUnionFind, RootedTree};
use std::fmt;
use std::ops::ControlFlow;

/// Profiling counters (no-ops until `ndg_obs::install`): trees the
/// rollback-UF stream enumerated, orbit representatives handed to the
/// visitor, and trees *covered* (sum of visited orbit sizes) — the
/// covered/visited ratio is the orbit-pruning win, observable live.
static ENUM_TREES_VISITED: ndg_obs::Counter = ndg_obs::Counter::new("enum_trees_visited_total");
static ENUM_ORBIT_REPS: ndg_obs::Counter = ndg_obs::Counter::new("enum_orbit_reps_total");
static ENUM_ORBIT_COVERED: ndg_obs::Counter = ndg_obs::Counter::new("enum_orbit_covered_total");

/// Errors from the enumeration pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum EnumError {
    /// More spanning trees than the cap. Reports how far the sweep got so
    /// callers never mistake a truncation for exhaustion.
    CapExceeded {
        /// The caller's tree cap.
        cap: usize,
        /// Trees actually covered before stopping (orbit-weighted for the
        /// pruned sweep); `0` when the Kirchhoff precheck rejected the
        /// instance without enumerating at all.
        visited: u64,
        /// Kirchhoff matrix-tree estimate of the total spanning-tree count.
        estimate: f64,
    },
    /// The graph has no spanning tree.
    Disconnected,
    /// The caller's [`ndg_exec::Budget`] expired mid-enumeration.
    Cancelled,
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::CapExceeded {
                cap,
                visited,
                estimate,
            } => write!(
                f,
                "more than {cap} spanning trees (covered {visited} before stopping; \
                 Kirchhoff estimate ≈ {estimate:.0})"
            ),
            EnumError::Disconnected => write!(f, "graph is disconnected"),
            EnumError::Cancelled => write!(f, "enumeration cancelled by budget"),
        }
    }
}

impl std::error::Error for EnumError {}

/// Number of spanning trees by Kirchhoff's matrix-tree theorem
/// (determinant of a Laplacian minor; exact up to `f64` rounding).
pub fn count_spanning_trees(g: &Graph) -> f64 {
    let n = g.node_count();
    if n <= 1 {
        return 1.0;
    }
    // Laplacian over multigraph edge counts.
    let mut lap = vec![vec![0.0f64; n]; n];
    for (_, e) in g.edges() {
        let (u, v) = (e.u.index(), e.v.index());
        lap[u][u] += 1.0;
        lap[v][v] += 1.0;
        lap[u][v] -= 1.0;
        lap[v][u] -= 1.0;
    }
    // Delete last row/column, then Gaussian elimination with partial pivot.
    let m = n - 1;
    let mut a: Vec<Vec<f64>> = (0..m).map(|i| lap[i][..m].to_vec()).collect();
    let mut det = 1.0f64;
    for col in 0..m {
        let pivot_row = (col..m)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("nonempty range");
        if a[pivot_row][col].abs() < 1e-12 {
            return 0.0;
        }
        if pivot_row != col {
            a.swap(pivot_row, col);
            det = -det;
        }
        det *= a[col][col];
        let inv = 1.0 / a[col][col];
        for row in (col + 1)..m {
            let factor = a[row][col] * inv;
            if factor == 0.0 {
                continue;
            }
            let (upper, lower) = a.split_at_mut(row);
            let pivot_row = &upper[col][col..];
            for (val, &p) in lower[0][col..].iter_mut().zip(pivot_row) {
                *val -= factor * p;
            }
        }
    }
    det.round().max(0.0)
}

/// Visit every spanning tree of `g` exactly once, in include/exclude
/// lexicographic edge order, without materializing any of them: `visit`
/// receives each tree as a borrowed edge slice valid for that call only.
/// Return [`ControlFlow::Break`] from the visitor to stop early.
///
/// Live state is O(n + m) — one rollback union-find and the current
/// prefix — regardless of how many trees the graph has.
pub fn for_each_spanning_tree<F>(g: &Graph, mut visit: F) -> Result<(), EnumError>
where
    F: FnMut(&[EdgeId]) -> ControlFlow<()>,
{
    let n = g.node_count();
    if !g.is_connected() {
        return Err(EnumError::Disconnected);
    }
    if n <= 1 {
        let _ = visit(&[]);
        return Ok(());
    }
    let m = g.edge_count();
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(n - 1);
    let mut uf = RollbackUnionFind::new(n);
    let _ = rec(g, 0, &mut uf, &mut chosen, &mut visit, n, m);
    return Ok(());

    fn rec<F>(
        g: &Graph,
        idx: usize,
        uf: &mut RollbackUnionFind,
        chosen: &mut Vec<EdgeId>,
        visit: &mut F,
        n: usize,
        m: usize,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[EdgeId]) -> ControlFlow<()>,
    {
        if chosen.len() == n - 1 {
            return visit(chosen);
        }
        if idx == m || chosen.len() + (m - idx) < n - 1 {
            return ControlFlow::Continue(());
        }
        let e = EdgeId(idx as u32);
        let (u, v) = g.endpoints(e);
        // Branch 1: include e (unless it closes a cycle).
        let mark = uf.mark();
        if uf.union(u.index(), v.index()) {
            chosen.push(e);
            let flow = rec(g, idx + 1, uf, chosen, visit, n, m);
            chosen.pop();
            uf.rollback_to(mark);
            flow?;
        }
        // Branch 2: exclude e — only if the rest can still connect
        // (probed on the same union-find, then rolled back).
        let mark = uf.mark();
        let mut components = uf.set_count();
        for later in (idx + 1)..m {
            let (a, b) = g.endpoints(EdgeId(later as u32));
            if uf.union(a.index(), b.index()) {
                components -= 1;
                if components == 1 {
                    break;
                }
            }
        }
        uf.rollback_to(mark);
        if components == 1 {
            return rec(g, idx + 1, uf, chosen, visit, n, m);
        }
        ControlFlow::Continue(())
    }
}

/// Kirchhoff precheck: reject instances whose determinant proves the tree
/// count exceeds `cap`. Conservative: a generous margin absorbs the
/// determinant's float rounding, so `Ok` never means "within cap" — it
/// means "enumerate and count exactly". The returned error carries
/// `visited: 0` (nothing was enumerated) and the determinant estimate.
fn cap_precheck(g: &Graph, cap: usize) -> Result<(), EnumError> {
    if !g.is_connected() {
        return Ok(());
    }
    let det = count_spanning_trees(g);
    if !det.is_nan() && det > cap as f64 * 1.1 + 16.0 {
        return Err(EnumError::CapExceeded {
            cap,
            visited: 0,
            estimate: det,
        });
    }
    Ok(())
}

/// [`EnumError::CapExceeded`] for a sweep that stopped after covering
/// `visited` trees mid-enumeration (the Kirchhoff estimate is recomputed;
/// this is an error path, never hot).
fn cap_tripped(g: &Graph, cap: usize, visited: u64) -> EnumError {
    EnumError::CapExceeded {
        cap,
        visited,
        estimate: count_spanning_trees(g),
    }
}

/// Enumerate all spanning trees (as sorted edge-id vectors), up to `cap`.
///
/// Prefer [`for_each_spanning_tree`] where the trees can be consumed as a
/// stream: this wrapper materializes O(#trees · n) memory by definition.
pub fn spanning_trees(g: &Graph, cap: usize) -> Result<Vec<Vec<EdgeId>>, EnumError> {
    cap_precheck(g, cap)?;
    let mut out: Vec<Vec<EdgeId>> = Vec::new();
    let mut capped = false;
    for_each_spanning_tree(g, |tree| {
        if out.len() >= cap {
            capped = true;
            return ControlFlow::Break(());
        }
        out.push(tree.to_vec());
        ControlFlow::Continue(())
    })?;
    if capped {
        return Err(cap_tripped(g, cap, out.len() as u64));
    }
    Ok(out)
}

/// An equilibrium spanning tree with its weight.
#[derive(Clone, Debug)]
pub struct EquilibriumTree {
    /// Sorted edge ids of the tree.
    pub edges: Vec<EdgeId>,
    /// `wgt(T)`.
    pub weight: f64,
}

/// Trees per streaming batch: bounds peak memory at O(`CHUNK` · n) while
/// giving the parallel equilibrium scan enough work per dispatch.
const CHUNK: usize = 1024;

/// Stream one representative per spanning-tree orbit under `group`
/// through the Lemma 2 equilibrium check in parallel chunks, folding each
/// equilibrium representative into `acc` together with its orbit size.
/// Peak memory is O(`CHUNK` · n + |acc|), never O(#trees · n).
///
/// This is the one sweep driver: `EdgeGroup::trivial(m)` makes it the
/// plain sweep over every tree (each with orbit size 1), and a nontrivial
/// group skips automorphic copies so the Lemma 2 scan runs once per orbit.
/// The cap counts *covered* trees (sum of visited orbit sizes), so it
/// trips exactly when the plain sweep would. `budget` is checked once per
/// streamed chunk (every `CHUNK` representatives, the boundary at which
/// the parallel scan dispatches) and once before the final partial chunk;
/// expiry aborts with [`EnumError::Cancelled`].
pub fn fold_equilibrium_trees<T, F>(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    cap: usize,
    group: &EdgeGroup,
    mut acc: T,
    mut fold: F,
    budget: &ndg_exec::Budget,
) -> Result<T, EnumError>
where
    F: FnMut(T, EquilibriumTree, u64) -> T,
    T: Send,
{
    let g = game.graph();
    cap_precheck(g, cap)?;
    if budget.expired() {
        return Err(EnumError::Cancelled);
    }
    let root = game.root().unwrap_or(NodeId(0));
    let mut chunk: Vec<Vec<EdgeId>> = Vec::with_capacity(CHUNK);
    let mut sizes: Vec<u64> = Vec::with_capacity(CHUNK);
    let mut covered = 0u64;
    let mut capped = false;
    let mut cancelled = false;
    let mut acc_slot = Some(acc);
    let drain = |chunk: &mut Vec<Vec<EdgeId>>,
                 sizes: &mut Vec<u64>,
                 acc_slot: &mut Option<T>,
                 fold: &mut F| {
        let mut a = acc_slot.take().expect("accumulator is always restored");
        for (verdict, &size) in scan_chunk_verdicts(game, b, root, chunk)
            .into_iter()
            .zip(sizes.iter())
        {
            if let Some(eq) = verdict {
                a = fold(a, eq, size);
            }
        }
        *acc_slot = Some(a);
        chunk.clear();
        sizes.clear();
    };
    for_each_spanning_tree_orbits(g, group, |tree, size| {
        if covered >= cap as u64 {
            capped = true;
            return ControlFlow::Break(());
        }
        covered += size;
        chunk.push(tree.to_vec());
        sizes.push(size);
        if chunk.len() == CHUNK {
            if budget.expired() {
                cancelled = true;
                return ControlFlow::Break(());
            }
            drain(&mut chunk, &mut sizes, &mut acc_slot, &mut fold);
        }
        ControlFlow::Continue(())
    })?;
    if cancelled {
        return Err(EnumError::Cancelled);
    }
    if capped || covered > cap as u64 {
        return Err(cap_tripped(g, cap, covered));
    }
    if budget.expired() {
        return Err(EnumError::Cancelled);
    }
    drain(&mut chunk, &mut sizes, &mut acc_slot, &mut fold);
    acc = acc_slot.take().expect("accumulator is always restored");
    Ok(acc)
}

/// Lemma-2-check one chunk of trees on the shared executor, preserving the
/// chunk's order: slot `i` is `Some` iff tree `i` is an equilibrium.
fn scan_chunk_verdicts(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    root: NodeId,
    chunk: &[Vec<EdgeId>],
) -> Vec<Option<EquilibriumTree>> {
    let g = game.graph();
    let check = |edges: &Vec<EdgeId>| -> Option<EquilibriumTree> {
        let rt = RootedTree::new(g, edges, root).ok()?;
        if is_tree_equilibrium(game, &rt, b) {
            Some(EquilibriumTree {
                edges: edges.clone(),
                weight: g.weight_of(edges),
            })
        } else {
            None
        }
    };
    // Small chunks (the final partial one, or tiny instances) stay on the
    // caller's stack; full chunks fan out in enumeration order.
    let ex = if chunk.len() < 128 {
        ndg_exec::Executor::sequential()
    } else {
        ndg_exec::Executor::from_env()
    };
    ex.par_map(chunk, check)
}

/// All spanning trees of the broadcast game's graph that are equilibria of
/// the extension with `b` (Lemma 2 check per tree, parallel over streamed
/// chunks), sorted by weight then edge ids.
pub fn equilibrium_trees(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    cap: usize,
) -> Result<Vec<EquilibriumTree>, EnumError> {
    let mut found = fold_equilibrium_trees(
        game,
        b,
        cap,
        &EdgeGroup::trivial(game.graph().edge_count()),
        Vec::new(),
        |mut acc, eq, _size| {
            acc.push(eq);
            acc
        },
        &ndg_exec::Budget::unlimited(),
    )?;
    found.sort_by(|a, b| {
        a.weight
            .total_cmp(&b.weight)
            .then_with(|| a.edges.cmp(&b.edges))
    });
    Ok(found)
}

/// `(a.weight, a.edges) < (b.weight, b.edges)` — the enumeration's
/// canonical tree order.
fn tree_lt(a: &EquilibriumTree, b: &EquilibriumTree) -> bool {
    a.weight
        .total_cmp(&b.weight)
        .then_with(|| a.edges.cmp(&b.edges))
        .is_lt()
}

/// The minimum-weight equilibrium tree, if any (ties broken by edge ids).
/// Streams: O(n) live state per worker instead of collecting every
/// equilibrium first. The witness is the same input tree for every `group`.
pub fn best_equilibrium_tree(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    cap: usize,
    group: &EdgeGroup,
    budget: &ndg_exec::Budget,
) -> Result<Option<EquilibriumTree>, EnumError> {
    extreme_equilibrium_tree(game, b, cap, group, budget, true)
}

/// Exact price of stability of a broadcast game over spanning-tree states:
/// `min_{equilibrium T} wgt(T) / wgt(MST)`. `Ok(None)` if no equilibrium
/// tree exists (possible in principle only under subsidy-modified games;
/// the unsubsidized game always has one by potential descent). The result
/// is bit-identical for every `group` that is a subgroup of the subsidized
/// game's automorphisms.
pub fn price_of_stability(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    cap: usize,
    group: &EdgeGroup,
    budget: &ndg_exec::Budget,
) -> Result<Option<f64>, EnumError> {
    let opt = ndg_graph::mst_weight(game.graph()).map_err(|_| EnumError::Disconnected)?;
    let best = extreme_equilibrium_tree(game, b, cap, group, budget, true)?;
    Ok(best.map(|t| t.weight / opt))
}

/// Exact price of anarchy over spanning-tree states:
/// `max_{equilibrium T} wgt(T) / wgt(MST)`. Streams like
/// [`best_equilibrium_tree`], through the orbit-**max** member per
/// equilibrium orbit.
pub fn price_of_anarchy_trees(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    cap: usize,
    group: &EdgeGroup,
    budget: &ndg_exec::Budget,
) -> Result<Option<f64>, EnumError> {
    let opt = ndg_graph::mst_weight(game.graph()).map_err(|_| EnumError::Disconnected)?;
    let worst = extreme_equilibrium_tree(game, b, cap, group, budget, false)?;
    Ok(worst.map(|t| t.weight / opt))
}

/// Elements kept in an [`EdgeGroup`] closure before falling back to the
/// trivial group. Per-tree pruning work is O(|G| · n log n), so a runaway
/// closure would cost more than the Lemma-2 scans it saves.
const GROUP_CAP: usize = 1024;

/// A permutation group acting on edge ids, materialized as its full element
/// set (identity first). Built from automorphism generators — e.g.
/// `ndg_canon::AutGenerators::edge` — and consumed by the orbit-pruned
/// enumeration to skip automorphic copies of spanning trees.
///
/// Budget discipline mirrors `ndg-canon`'s literal fallback: malformed
/// generators or a closure larger than `GROUP_CAP` yield the **trivial
/// group**, under which pruning degrades to the exact unpruned sweep.
/// Any subgroup of the true automorphism group is sound here: orbits of a
/// subgroup partition the trees just the same, merely coarser pruning.
#[derive(Clone, Debug)]
pub struct EdgeGroup {
    /// Edges the permutations act on.
    num_edges: usize,
    /// Every group element; `elems[0]` is the identity.
    elems: Vec<Vec<u32>>,
}

impl EdgeGroup {
    /// The trivial group on `num_edges` edges (no pruning).
    pub fn trivial(num_edges: usize) -> Self {
        EdgeGroup {
            num_edges,
            elems: vec![(0..num_edges as u32).collect()],
        }
    }

    /// Close `gens` under composition into the full element set. Returns
    /// the trivial group when `gens` is empty, any generator is not a
    /// permutation of `0..num_edges`, or the closure exceeds `GROUP_CAP`.
    pub fn from_generators(num_edges: usize, gens: &[Vec<u32>]) -> Self {
        let valid: Vec<&Vec<u32>> = gens
            .iter()
            .filter(|p| p.len() == num_edges && is_permutation(p))
            .collect();
        if valid.len() != gens.len() || valid.is_empty() {
            return EdgeGroup::trivial(num_edges);
        }
        let identity: Vec<u32> = (0..num_edges as u32).collect();
        let mut seen: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
        seen.insert(identity.clone());
        let mut elems = vec![identity];
        let mut frontier = 0usize;
        while frontier < elems.len() {
            let cur = elems[frontier].clone();
            frontier += 1;
            for gen in &valid {
                // (gen ∘ cur): apply cur first, then gen.
                let next: Vec<u32> = cur.iter().map(|&e| gen[e as usize]).collect();
                if seen.insert(next.clone()) {
                    if elems.len() >= GROUP_CAP {
                        return EdgeGroup::trivial(num_edges);
                    }
                    elems.push(next);
                }
            }
        }
        EdgeGroup { num_edges, elems }
    }

    /// Number of edges the group acts on.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Group order (≥ 1).
    pub fn order(&self) -> usize {
        self.elems.len()
    }

    /// Whether this is the trivial group (pruning disabled).
    pub fn is_trivial(&self) -> bool {
        self.elems.len() == 1
    }

    /// Every element, identity first.
    pub fn elements(&self) -> impl Iterator<Item = &[u32]> {
        self.elems.iter().map(|p| p.as_slice())
    }

    /// If the sorted edge set `tree` is the lexicographic minimum of its
    /// orbit under this group, return the orbit size (`|G| / |Stab(T)|`,
    /// exact by Lagrange); otherwise `None`. `scratch` avoids a per-call
    /// allocation.
    pub fn orbit_rank(&self, tree: &[EdgeId], scratch: &mut Vec<EdgeId>) -> Option<u64> {
        let mut stabilizer = 1u64; // the identity
        for sigma in &self.elems[1..] {
            scratch.clear();
            scratch.extend(tree.iter().map(|e| EdgeId(sigma[e.index()])));
            scratch.sort_unstable();
            match scratch.as_slice().cmp(tree) {
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Equal => stabilizer += 1,
                std::cmp::Ordering::Greater => {}
            }
        }
        Some(self.elems.len() as u64 / stabilizer)
    }
}

fn is_permutation(p: &[u32]) -> bool {
    let mut hit = vec![false; p.len()];
    p.iter()
        .all(|&x| (x as usize) < hit.len() && !std::mem::replace(&mut hit[x as usize], true))
}

/// Visit exactly one representative — the lexicographically minimal sorted
/// edge set — of every spanning-tree orbit under `group`, passing the orbit
/// size alongside. With the trivial group this is exactly
/// [`for_each_spanning_tree`] with orbit size 1; a group whose edge count
/// does not match `g` is treated as trivial (sound, never wrong).
///
/// All trees are still *enumerated* (the rollback-UF stream is unchanged);
/// what the orbit layer saves is every downstream per-tree cost — the
/// Lemma-2 equilibrium scan dominates, and that now runs once per orbit.
pub fn for_each_spanning_tree_orbits<F>(
    g: &Graph,
    group: &EdgeGroup,
    mut visit: F,
) -> Result<(), EnumError>
where
    F: FnMut(&[EdgeId], u64) -> ControlFlow<()>,
{
    let trivial = group.is_trivial() || group.num_edges() != g.edge_count();
    let mut scratch: Vec<EdgeId> = Vec::with_capacity(g.node_count());
    let (mut enumerated, mut reps, mut covered) = (0u64, 0u64, 0u64);
    let out = for_each_spanning_tree(g, |tree| {
        enumerated += 1;
        let rank = if trivial {
            Some(1)
        } else {
            group.orbit_rank(tree, &mut scratch)
        };
        match rank {
            Some(size) => {
                reps += 1;
                covered += size;
                visit(tree, size)
            }
            None => ControlFlow::Continue(()),
        }
    });
    ENUM_TREES_VISITED.add(enumerated);
    ENUM_ORBIT_REPS.add(reps);
    ENUM_ORBIT_COVERED.add(covered);
    if ndg_obs::events::recording() {
        ndg_obs::events::emit(
            "enum",
            vec![
                ("covered", covered.to_string()),
                ("reps", reps.to_string()),
                ("trees", enumerated.to_string()),
            ],
        );
    }
    out
}

/// The orbit member minimizing `(weight, edges)` — the same total order the
/// plain sweep minimizes over. Evaluates `weight_of` on **every distinct
/// member** rather than assuming the representative's weight: edge weights
/// are summed in sorted-edge-id order, so automorphic trees can differ in
/// the last ulp, and bit-identity with the plain sweep demands comparing
/// the actual members.
pub fn orbit_min_member(g: &Graph, group: &EdgeGroup, rep: &EquilibriumTree) -> EquilibriumTree {
    orbit_extreme_member(g, group, rep, true)
}

/// The orbit member maximizing `(weight, edges)`; see [`orbit_min_member`].
pub fn orbit_max_member(g: &Graph, group: &EdgeGroup, rep: &EquilibriumTree) -> EquilibriumTree {
    orbit_extreme_member(g, group, rep, false)
}

fn orbit_extreme_member(
    g: &Graph,
    group: &EdgeGroup,
    rep: &EquilibriumTree,
    want_min: bool,
) -> EquilibriumTree {
    // The sweep treats these groups as trivial: the orbit is `rep` alone.
    if group.is_trivial() || group.num_edges() != g.edge_count() {
        return rep.clone();
    }
    let mut seen: std::collections::HashSet<Vec<EdgeId>> = std::collections::HashSet::new();
    let mut best: Option<EquilibriumTree> = None;
    for sigma in group.elements() {
        let mut edges: Vec<EdgeId> = rep.edges.iter().map(|e| EdgeId(sigma[e.index()])).collect();
        edges.sort_unstable();
        if !seen.insert(edges.clone()) {
            continue;
        }
        let cand = EquilibriumTree {
            weight: g.weight_of(&edges),
            edges,
        };
        best = match best {
            Some(cur) => {
                let keep_cur = if want_min {
                    !tree_lt(&cand, &cur)
                } else {
                    !tree_lt(&cur, &cand)
                };
                Some(if keep_cur { cur } else { cand })
            }
            None => Some(cand),
        };
    }
    best.expect("orbit contains at least the representative")
}

/// The `(weight, edges)`-minimal (`want_min`) or -maximal equilibrium tree:
/// one Lemma-2 check per orbit plus an orbit-member weight scan per
/// *equilibrium* orbit, bit-identical to the plain sweep's extreme.
fn extreme_equilibrium_tree(
    game: &NetworkDesignGame,
    b: &SubsidyAssignment,
    cap: usize,
    group: &EdgeGroup,
    budget: &ndg_exec::Budget,
    want_min: bool,
) -> Result<Option<EquilibriumTree>, EnumError> {
    let g = game.graph();
    fold_equilibrium_trees(
        game,
        b,
        cap,
        group,
        None,
        |best: Option<EquilibriumTree>, eq, _size| {
            let cand = orbit_extreme_member(g, group, &eq, want_min);
            let keep_cur = |cur: &EquilibriumTree| {
                if want_min {
                    tree_lt(cur, &cand)
                } else {
                    tree_lt(&cand, cur)
                }
            };
            match best {
                Some(cur) if keep_cur(&cur) => Some(cur),
                _ => Some(cand),
            }
        },
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_exec::Budget;
    use ndg_graph::generators;

    fn trivial(game: &NetworkDesignGame) -> EdgeGroup {
        EdgeGroup::trivial(game.graph().edge_count())
    }

    #[test]
    fn counts_match_known_formulas() {
        // Cycle C_n has n spanning trees.
        for n in 3..8usize {
            let g = generators::cycle_graph(n, 1.0);
            assert_eq!(count_spanning_trees(&g) as usize, n);
            assert_eq!(spanning_trees(&g, 100).unwrap().len(), n);
        }
        // K_n has n^(n−2) spanning trees (Cayley).
        for n in 3..6usize {
            let g = generators::complete_graph(n, 1.0);
            let want = (n as f64).powi(n as i32 - 2) as usize;
            assert_eq!(count_spanning_trees(&g) as usize, want);
            assert_eq!(spanning_trees(&g, 1000).unwrap().len(), want);
        }
        // Trees have exactly one spanning tree.
        let t = generators::path_graph(6, 1.0);
        assert_eq!(count_spanning_trees(&t), 1.0);
        assert_eq!(spanning_trees(&t, 10).unwrap().len(), 1);
    }

    #[test]
    fn enumerated_trees_are_all_distinct_spanning_trees() {
        let g = generators::complete_graph(5, 1.0);
        let trees = spanning_trees(&g, 1000).unwrap();
        let mut seen = std::collections::HashSet::new();
        for t in &trees {
            assert!(g.is_spanning_tree(t));
            assert!(seen.insert(t.clone()), "duplicate tree");
        }
    }

    #[test]
    fn visitor_streams_the_same_trees_as_the_materializer() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.6, &mut rng, 0.2..3.0);
            let collected = spanning_trees(&g, 1_000_000).unwrap();
            let mut streamed: Vec<Vec<EdgeId>> = Vec::new();
            for_each_spanning_tree(&g, |t| {
                streamed.push(t.to_vec());
                std::ops::ControlFlow::Continue(())
            })
            .unwrap();
            assert_eq!(collected, streamed, "stream order or content diverged");
        }
    }

    #[test]
    fn visitor_early_break_stops_enumeration() {
        let g = generators::complete_graph(6, 1.0); // 1296 trees
        let mut seen = 0usize;
        for_each_spanning_tree(&g, |_| {
            seen += 1;
            if seen == 10 {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    #[test]
    fn fold_streaming_matches_collected_equilibria() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..8 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let b = SubsidyAssignment::zero(game.graph());
            let eqs = equilibrium_trees(&game, &b, 1_000_000).unwrap();
            let group = trivial(&game);
            let best = best_equilibrium_tree(&game, &b, 1_000_000, &group, &Budget::unlimited())
                .unwrap()
                .unwrap();
            assert_eq!(best.edges, eqs[0].edges);
            assert!((best.weight - eqs[0].weight).abs() < 1e-12);
            let count = fold_equilibrium_trees(
                &game,
                &b,
                1_000_000,
                &group,
                0usize,
                |acc, _, _| acc + 1,
                &Budget::unlimited(),
            )
            .unwrap();
            assert_eq!(count, eqs.len());
        }
    }

    #[test]
    fn expired_budget_cancels_enumeration() {
        let g = generators::complete_graph(5, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let err = price_of_stability(&game, &b, 100_000, &trivial(&game), &budget).unwrap_err();
        assert_eq!(err, EnumError::Cancelled);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_enumeration() {
        let g = generators::complete_graph(5, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let eqs = equilibrium_trees(&game, &b, 100_000).unwrap();
        let opt = ndg_graph::mst_weight(game.graph()).unwrap();
        let budgeted =
            price_of_stability(&game, &b, 100_000, &trivial(&game), &Budget::unlimited()).unwrap();
        assert_eq!(
            Some((eqs[0].weight / opt).to_bits()),
            budgeted.map(f64::to_bits)
        );
    }

    #[test]
    fn cap_is_enforced_and_reports_coverage() {
        // 6^4 = 1296 trees, cap 100: Kirchhoff rejects before enumerating,
        // so the error reports 0 visited and an estimate near 1296.
        let g = generators::complete_graph(6, 1.0);
        match spanning_trees(&g, 100).unwrap_err() {
            EnumError::CapExceeded {
                cap,
                visited,
                estimate,
            } => {
                assert_eq!(cap, 100);
                assert_eq!(visited, 0, "precheck must reject without enumerating");
                assert!((estimate - 1296.0).abs() < 1.0, "estimate {estimate}");
            }
            other => panic!("expected CapExceeded, got {other:?}"),
        }
        // K_5 has 125 trees; cap 120 is within the precheck margin
        // (120·1.1+16 = 148), so enumeration runs and stops at the cap.
        let g = generators::complete_graph(5, 1.0);
        match spanning_trees(&g, 120).unwrap_err() {
            EnumError::CapExceeded {
                cap,
                visited,
                estimate,
            } => {
                assert_eq!(cap, 120);
                assert_eq!(visited, 120, "must report how far the sweep got");
                assert!((estimate - 125.0).abs() < 1.0, "estimate {estimate}");
            }
            other => panic!("expected CapExceeded, got {other:?}"),
        }
    }

    /// The reflection of C_n rooted anywhere, as an edge permutation: edge i
    /// joins (i, i+1 mod n) in `cycle_graph`, and v ↦ −v maps edge i to
    /// edge n−1−i.
    fn cycle_reflection(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| n as u32 - 1 - i).collect()
    }

    #[test]
    fn edge_group_closure_and_fallbacks() {
        let refl = cycle_reflection(6);
        let group = EdgeGroup::from_generators(6, std::slice::from_ref(&refl));
        assert_eq!(group.order(), 2, "an involution generates Z/2");
        assert!(!group.is_trivial());
        // Malformed generators (wrong length, non-bijection) → trivial.
        assert!(EdgeGroup::from_generators(6, &[vec![0, 1, 2]]).is_trivial());
        assert!(EdgeGroup::from_generators(3, &[vec![0, 0, 1]]).is_trivial());
        assert!(EdgeGroup::from_generators(6, &[]).is_trivial());
        // Identity-only generators are accepted but collapse to trivial.
        assert!(EdgeGroup::from_generators(3, &[vec![0, 1, 2]]).is_trivial());
    }

    #[test]
    fn orbit_sizes_sum_to_tree_count() {
        // C_6 under its rooted reflection: 6 trees in orbits {2,2,2} or
        // {1,1,2,2} depending on parity — either way sizes sum to 6 and
        // every visited representative is lex-minimal in its orbit.
        let g = generators::cycle_graph(6, 1.0);
        let group = EdgeGroup::from_generators(6, &[cycle_reflection(6)]);
        let mut covered = 0u64;
        let mut reps = 0usize;
        for_each_spanning_tree_orbits(&g, &group, |tree, size| {
            assert!(g.is_spanning_tree(tree));
            covered += size;
            reps += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(covered, 6, "orbit sizes must sum to the Kirchhoff count");
        assert!(reps < 6, "pruning must visit fewer representatives");

        // Trivial group: identical stream to the unpruned visitor.
        let trivial = EdgeGroup::trivial(6);
        let mut plain: Vec<Vec<EdgeId>> = Vec::new();
        for_each_spanning_tree(&g, |t| {
            plain.push(t.to_vec());
            ControlFlow::Continue(())
        })
        .unwrap();
        let mut orbit: Vec<Vec<EdgeId>> = Vec::new();
        for_each_spanning_tree_orbits(&g, &trivial, |t, size| {
            assert_eq!(size, 1);
            orbit.push(t.to_vec());
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(plain, orbit);
    }

    #[test]
    fn orbit_drivers_match_unpruned_bit_for_bit() {
        let n = 8;
        let g = generators::cycle_graph(n, 1.0);
        let group = EdgeGroup::from_generators(n, &[cycle_reflection(n)]);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let plain = trivial(&game);
        let unlimited = Budget::unlimited();
        let pos = price_of_stability(&game, &b, 100_000, &plain, &unlimited).unwrap();
        let pos_o = price_of_stability(&game, &b, 100_000, &group, &unlimited).unwrap();
        assert_eq!(
            pos.map(f64::to_bits),
            pos_o.map(f64::to_bits),
            "PoS must be bit-identical"
        );
        let poa = price_of_anarchy_trees(&game, &b, 100_000, &plain, &unlimited).unwrap();
        let poa_o = price_of_anarchy_trees(&game, &b, 100_000, &group, &unlimited).unwrap();
        assert_eq!(poa.map(f64::to_bits), poa_o.map(f64::to_bits));
        let best = best_equilibrium_tree(&game, &b, 100_000, &plain, &unlimited).unwrap();
        let best_o = best_equilibrium_tree(&game, &b, 100_000, &group, &unlimited).unwrap();
        match (best, best_o) {
            (Some(a), Some(o)) => {
                assert_eq!(a.edges, o.edges, "witness must map to the same input tree");
                assert_eq!(a.weight.to_bits(), o.weight.to_bits());
            }
            (a, o) => panic!("presence diverged: {a:?} vs {o:?}"),
        }
        // Weighted count: orbit sizes reweight the fold to the full total.
        let count = |group: &EdgeGroup| {
            fold_equilibrium_trees(&game, &b, 100_000, group, 0u64, |c, _, s| c + s, &unlimited)
                .unwrap()
        };
        assert_eq!(count(&plain), count(&group));
    }

    #[test]
    fn orbit_cap_trips_exactly_when_unpruned_trips() {
        // C_8 has 8 trees. cap 5 < 8 must trip for both sweeps; the orbit
        // error reports orbit-weighted coverage.
        let n = 8;
        let g = generators::cycle_graph(n, 1.0);
        let group = EdgeGroup::from_generators(n, &[cycle_reflection(n)]);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let count = |cap: usize, group: &EdgeGroup| {
            let unlimited = Budget::unlimited();
            fold_equilibrium_trees(&game, &b, cap, group, 0u64, |c, _, s| c + s, &unlimited)
        };
        for g in [&trivial(&game), &group] {
            assert!(matches!(
                count(5, g),
                Err(EnumError::CapExceeded { cap: 5, .. })
            ));
            // cap 8 == tree count: neither trips.
            assert!(count(8, g).is_ok());
        }
    }

    /// The edge permutation a root-fixing node permutation `pi` induces on
    /// `g`, asserted to preserve adjacency and weights bit for bit.
    fn induced_edge_perm(g: &Graph, pi: &[u32]) -> Vec<u32> {
        assert_eq!(pi[0], 0, "automorphisms of a broadcast game fix the root");
        g.edges()
            .map(|(_, e)| {
                let image = g
                    .find_edge(NodeId(pi[e.u.index()]), NodeId(pi[e.v.index()]))
                    .expect("pi preserves adjacency");
                assert_eq!(
                    g.weight(image).to_bits(),
                    e.w.to_bits(),
                    "pi preserves weights"
                );
                image.0
            })
            .collect()
    }

    /// `K_n` with random short-decimal weights, symmetric under the
    /// involution `pi`.
    fn symmetric_complete(n: usize, pi: &[u32], rng: &mut rand::rngs::StdRng) -> Graph {
        use rand::prelude::*;
        let mut w = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if w[i][j] == 0.0 {
                    // Short decimals: sums are not associative in f64, so
                    // automorphic trees can differ in the last ulp.
                    let x = [0.1, 0.2, 0.3, 0.7, 1.1, 2.9][rng.random_range(0..6usize)];
                    let (a, b) = (pi[i] as usize, pi[j] as usize);
                    for (u, v) in [(i, j), (a, b)] {
                        w[u][v] = x;
                        w[v][u] = x;
                    }
                }
            }
        }
        generators::complete_graph_with(n, |i, j| w[i][j])
    }

    /// Random subsidies, invariant under the edge permutation `sigma`
    /// (an involution), zero on about a third of the edges.
    fn symmetric_subsidies(
        g: &Graph,
        sigma: &[u32],
        rng: &mut rand::rngs::StdRng,
    ) -> SubsidyAssignment {
        use rand::prelude::*;
        let mut b = SubsidyAssignment::zero(g);
        for e in g.edge_ids() {
            let image = EdgeId(sigma[e.index()]);
            if image < e {
                continue;
            }
            let x = if rng.random_bool(0.35) {
                0.0
            } else {
                rng.random_range(0.0..0.5) * g.weight(e)
            };
            b.set(g, e, x);
            b.set(g, image, x);
        }
        b
    }

    /// The independent reference: materialize every spanning tree and keep
    /// those passing a sequential Lemma 2 check, in enumeration order.
    fn brute_equilibria(
        game: &NetworkDesignGame,
        b: &SubsidyAssignment,
        cap: usize,
    ) -> Result<Vec<EquilibriumTree>, EnumError> {
        let g = game.graph();
        let root = game.root().unwrap();
        Ok(spanning_trees(g, cap)?
            .into_iter()
            .filter(|t| is_tree_equilibrium(game, &RootedTree::new(g, t, root).unwrap(), b))
            .map(|edges| EquilibriumTree {
                weight: g.weight_of(&edges),
                edges,
            })
            .collect())
    }

    /// The `tree_lt`-minimal (`want_min`) or -maximal tree of `eqs`.
    fn brute_extreme(eqs: &[EquilibriumTree], want_min: bool) -> Option<&EquilibriumTree> {
        eqs.iter().reduce(|cur, t| {
            let better = if want_min {
                tree_lt(t, cur)
            } else {
                tree_lt(cur, t)
            };
            if better {
                t
            } else {
                cur
            }
        })
    }

    #[test]
    fn sweep_matches_brute_force_reference() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(1801);
        // (game, subsidies, automorphism generator as a node permutation).
        let mut cases: Vec<(NetworkDesignGame, SubsidyAssignment, Option<Vec<u32>>)> = Vec::new();
        let broadcast = |g: Graph| NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        // Unit weights: every tree ties on weight, so edge ids decide.
        let reflect7: Vec<u32> = (0..7u32).map(|v| (7 - v) % 7).collect();
        let swap_bits: Vec<u32> = (0..8u32)
            .map(|v| (v & !3) | ((v & 1) << 1) | ((v >> 1) & 1))
            .collect();
        let transpose: Vec<u32> = (0..9u32).map(|v| (v % 3) * 3 + v / 3).collect();
        let swap12: Vec<u32> = vec![0, 2, 1, 3, 4];
        for (g, pi) in [
            (generators::cycle_graph(7, 1.0), reflect7),
            (generators::hypercube_graph(3, 1.0), swap_bits),
            (generators::grid_graph(3, 3, 1.0), transpose),
            (generators::complete_graph(5, 1.0), swap12),
        ] {
            let sigma = induced_edge_perm(&g, &pi);
            let b = symmetric_subsidies(&g, &sigma, &mut rng);
            cases.push((
                broadcast(g.clone()),
                SubsidyAssignment::zero(&g),
                Some(pi.clone()),
            ));
            cases.push((broadcast(g), b, Some(pi)));
        }
        // Random weights, symmetric under a root-fixing involution; K_6
        // has 1296 trees, so full chunks drain before the cap trips. Orbit
        // members' weights can differ in the last ulp here, which the
        // orbit extremes must see.
        for (n, pi) in [
            (5, vec![0, 2, 1, 4, 3]),
            (5, vec![0, 2, 1, 3, 4]),
            (6, vec![0, 2, 1, 4, 3, 5]),
        ] {
            let g = symmetric_complete(n, &pi, &mut rng);
            let sigma = induced_edge_perm(&g, &pi);
            let b = symmetric_subsidies(&g, &sigma, &mut rng);
            cases.push((broadcast(g), b, Some(pi)));
        }
        // Random graphs with random subsidies: the trivial group only.
        for _ in 0..6 {
            let n = rng.random_range(4..8usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
            let sigma: Vec<u32> = (0..g.edge_count() as u32).collect();
            let b = symmetric_subsidies(&g, &sigma, &mut rng);
            cases.push((broadcast(g), b, None));
        }

        let unlimited = Budget::unlimited();
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for (case, (game, b, pi)) in cases.iter().enumerate() {
            let g = game.graph();
            let m = g.edge_count();
            let opt = ndg_graph::mst_weight(g).unwrap();
            let count = spanning_trees(g, 1_000_000).unwrap().len();
            let mut groups = vec![EdgeGroup::trivial(m)];
            if let Some(pi) = pi {
                let group = EdgeGroup::from_generators(m, &[induced_edge_perm(g, pi)]);
                assert!(
                    !group.is_trivial(),
                    "case {case}: expected a nontrivial group"
                );
                groups.push(group);
            }
            for group in &groups {
                for cap in [3, count - 1, count, 1_000_000] {
                    let ctx = format!("case {case}, |G| = {}, cap {cap}", group.order());
                    let brute = brute_equilibria(game, b, cap);
                    let folded = fold_equilibrium_trees(
                        game,
                        b,
                        cap,
                        group,
                        Vec::new(),
                        |mut acc, eq, size| {
                            acc.push((eq, size));
                            acc
                        },
                        &unlimited,
                    );
                    let pos = price_of_stability(game, b, cap, group, &unlimited);
                    let poa = price_of_anarchy_trees(game, b, cap, group, &unlimited);
                    let best = best_equilibrium_tree(game, b, cap, group, &unlimited);
                    let eqs = match brute {
                        Err(err) => {
                            assert!(
                                matches!(err, EnumError::CapExceeded { cap: c, .. } if c == cap),
                                "{ctx}: {err:?}"
                            );
                            // The plain sweep reports the same coverage;
                            // an orbit sweep may overshoot by an orbit.
                            for got in [
                                folded.map(|_| ()).unwrap_err(),
                                pos.unwrap_err(),
                                poa.unwrap_err(),
                                best.unwrap_err(),
                            ] {
                                if group.is_trivial() {
                                    assert_eq!(got, err, "{ctx}");
                                } else {
                                    assert!(
                                        matches!(got, EnumError::CapExceeded { cap: c, .. } if c == cap),
                                        "{ctx}: {got:?}"
                                    );
                                }
                            }
                            continue;
                        }
                        Ok(eqs) => eqs,
                    };
                    // Fold list: the plain sweep folds every equilibrium in
                    // enumeration order; an orbit sweep folds one
                    // representative per orbit, and the orbits it covers
                    // are exactly the equilibria.
                    let folded = folded.unwrap();
                    let key = |t: &EquilibriumTree| (t.edges.clone(), t.weight.to_bits());
                    if group.is_trivial() {
                        let got: Vec<_> = folded.iter().map(|(t, s)| (key(t), *s)).collect();
                        let want: Vec<_> = eqs.iter().map(|t| (key(t), 1u64)).collect();
                        assert_eq!(got, want, "{ctx}: fold list");
                    } else {
                        let mut covered: Vec<(Vec<EdgeId>, u64)> = Vec::new();
                        for (rep, size) in &folded {
                            let mut orbit: Vec<Vec<EdgeId>> = group
                                .elements()
                                .map(|sigma| {
                                    let mut t: Vec<EdgeId> = rep
                                        .edges
                                        .iter()
                                        .map(|e| EdgeId(sigma[e.index()]))
                                        .collect();
                                    t.sort_unstable();
                                    t
                                })
                                .collect();
                            orbit.sort();
                            orbit.dedup();
                            assert_eq!(orbit[0], rep.edges, "{ctx}: rep is lex-minimal");
                            assert_eq!(orbit.len() as u64, *size, "{ctx}: orbit size");
                            covered.extend(orbit.into_iter().map(|t| {
                                let w = g.weight_of(&t).to_bits();
                                (t, w)
                            }));
                        }
                        covered.sort();
                        let mut want: Vec<_> = eqs.iter().map(key).collect();
                        want.sort();
                        assert_eq!(covered, want, "{ctx}: orbits cover the equilibria");
                    }
                    let ratio = |t: &EquilibriumTree| (t.weight / opt).to_bits();
                    let min = brute_extreme(&eqs, true);
                    assert_eq!(pos.unwrap().map(f64::to_bits), min.map(ratio), "{ctx}: PoS");
                    assert_eq!(
                        poa.unwrap().map(f64::to_bits),
                        brute_extreme(&eqs, false).map(ratio),
                        "{ctx}: PoA"
                    );
                    assert_eq!(best.unwrap().map(|t| key(&t)), min.map(key), "{ctx}: best");
                }
                // An expired budget cancels every driver.
                let ctx = format!("case {case}, |G| = {}", group.order());
                let none = |acc: (), _: EquilibriumTree, _: u64| acc;
                assert_eq!(
                    fold_equilibrium_trees(game, b, 1_000_000, group, (), none, &expired),
                    Err(EnumError::Cancelled),
                    "{ctx}"
                );
                for got in [
                    price_of_stability(game, b, 1_000_000, group, &expired).map(|_| ()),
                    price_of_anarchy_trees(game, b, 1_000_000, group, &expired).map(|_| ()),
                    best_equilibrium_tree(game, b, 1_000_000, group, &expired).map(|_| ()),
                ] {
                    assert_eq!(got, Err(EnumError::Cancelled), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn disconnected_reported() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert_eq!(spanning_trees(&g, 10).unwrap_err(), EnumError::Disconnected);
    }

    #[test]
    fn pos_of_uniform_cycle() {
        // Unit cycle C_{n+1}, root 0: MST = any path, weight n. The paths
        // are all non-equilibria for n ≥ 2 except... no: each tree is the
        // cycle minus one edge. By symmetry all have weight n; a tree is an
        // equilibrium iff no player deviates; for the unit cycle the far
        // player always deviates (H_n > 1 for n ≥ 2). But dropping an edge
        // NOT incident to the root splits players across both sides —
        // those trees are equilibria when each side's cost stays ≤ 1…
        // Exact enumeration settles it; we assert PoS = 1 because all
        // spanning trees have identical weight n.
        let n = 5;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let eqs = equilibrium_trees(&game, &b, 100).unwrap();
        assert!(
            !eqs.is_empty(),
            "potential descent guarantees an equilibrium"
        );
        let pos = price_of_stability(&game, &b, 100, &trivial(&game), &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert!((pos - 1.0).abs() < 1e-9, "all trees weigh n; PoS must be 1");
    }

    #[test]
    fn unsubsidized_game_always_has_equilibrium_tree() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let b = SubsidyAssignment::zero(game.graph());
            let eqs = equilibrium_trees(&game, &b, 100_000).unwrap();
            assert!(!eqs.is_empty());
            let (group, unlimited) = (trivial(&game), Budget::unlimited());
            let pos = price_of_stability(&game, &b, 100_000, &group, &unlimited)
                .unwrap()
                .unwrap();
            let poa = price_of_anarchy_trees(&game, &b, 100_000, &group, &unlimited)
                .unwrap()
                .unwrap();
            assert!(pos >= 1.0 - 1e-9);
            assert!(poa >= pos - 1e-12);
        }
    }

    #[test]
    fn dynamics_equilibrium_is_among_enumerated() {
        // Cross-validation: best-response dynamics lands on a tree that the
        // enumerator also classifies as an equilibrium (when it is a tree).
        use crate::dynamics::{dynamics_from_tree, MoveOrder};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..8 {
            let n = rng.random_range(3..7usize);
            let g = generators::random_connected(n, 0.4, &mut rng, 0.3..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let mst = ndg_graph::kruskal(game.graph()).unwrap();
            let b = SubsidyAssignment::zero(game.graph());
            let res = dynamics_from_tree(&game, &mst, &b, MoveOrder::RoundRobin, 1000).unwrap();
            assert!(res.converged);
            let established = res.state.established_edges();
            if game.graph().is_spanning_tree(&established) {
                let eqs = equilibrium_trees(&game, &b, 100_000).unwrap();
                assert!(
                    eqs.iter().any(|t| t.edges == established),
                    "dynamics equilibrium missing from enumeration"
                );
            }
        }
    }
}
