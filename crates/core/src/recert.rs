//! Incremental Lemma-2 maintenance across working rounds: O(Δ)
//! re-certification for round-robin dynamics.
//!
//! The batched sweep in [`crate::batch`] certifies *one* tree-induced
//! state in `O(m · depth)`, but a working round of round-robin dynamics
//! mutates the state after every mover, so the sweep used to pay off only
//! in the final (certifying) round — every earlier "is anything left to
//! do?" question fell back to per-player corridor probes, and those
//! probes dominated the round-robin wall clock (ROADMAP, PR 2
//! measurement).
//!
//! This module maintains the tree-induced view *across* moves instead of
//! re-deriving it. The observation is that almost every improving move in
//! broadcast dynamics is an **elementary swap** at the level of the
//! established edge set: the mover is a leaf of the current tree, her old
//! path's only sole-user edge is her parent edge, and her best response
//! rides one new edge onto established tree paths. Such a move changes
//! the spanning tree by exactly one edge exchange, so the certifier
//! updates in `O(Δ)`:
//!
//! * **subtree sizes** change by ±1 exactly on the two root paths of the
//!   detach/attach points (they cancel above the LCA);
//! * **root-path costs** change only below the topmost edges whose fair
//!   share changed — the affected subtrees hanging off the LCA — and are
//!   *recomputed* (not delta-adjusted) top-down with the same per-node
//!   expression as [`crate::broadcast::root_path_costs`], which keeps
//!   every maintained cost bit-identical to a from-scratch rebuild;
//! * **Lemma-2 verdicts** carry over for every player whose constraint
//!   inputs did not change. Staleness is tracked by version stamps: a
//!   move stamps only the `O(Δ)` nodes whose cost/position/constraint
//!   set changed, and a stored verdict is *fresh* iff it postdates the
//!   stamps of its owner and of her non-tree neighbors (the affected
//!   region is downward-closed, so LCA-and-climb dependencies reduce to
//!   endpoint membership). Stale margins are re-evaluated lazily, in
//!   `O(deg · depth)` per player, when next consulted.
//!
//! A non-elementary move (a non-leaf mover strands her subtree on the old
//! edge, so the established set stops being a tree) simply invalidates
//! the view; [`crate::incremental::IncrementalDynamics`] re-adopts the
//! live state at most once per move once the established edges form a
//! spanning tree again. Re-adoption stamps every player stale rather than
//! sweeping eagerly, so its cost is spread over the next queries.
//!
//! **What the margins soundly certify.** Lemma 2 is a *global*
//! equilibrium condition: "no ordered non-tree adjacency constraint is
//! violated" ⇔ "no player can strictly improve". It is **not** a
//! per-player condition — a player with clean incident margins can still
//! improve through a route that enters the tree via *another* node's
//! non-tree adjacency (multi-pivot or descend-first deviations), so
//! skipping an individual player's probe on her own margins would change
//! dynamics decisions. The engine therefore consumes the maintained view
//! only through the global answers: [`IncrementalCertifier::equilibrium`]
//! ("is anything left to do at all?", the answer that turns every
//! post-convergence turn into an O(1) decline) and
//! [`IncrementalCertifier::certify`] (the full witness, replacing the
//! from-scratch final sweep).
//!
//! **Exactness.** All maintained quantities are bit-identical to what the
//! scratch path ([`crate::batch::BatchCertifier`] over a fresh
//! [`ndg_graph::RootedTree`]) computes for the same state: costs by the
//! recompute-don't-adjust rule above, right-hand sides because both paths
//! share [`crate::broadcast::deviation_rhs_on`], and the global witness
//! because [`IncrementalCertifier::certify`] resolves ties by the sweep's
//! (edge id, orientation) order. The property tests at the bottom assert
//! witness equality *to the bit* after random move sequences. The
//! per-constraint-vs-per-best-response tolerance caveat documented in
//! [`crate::batch`] applies unchanged.

use crate::batch::BatchCertification;
use crate::broadcast::{deviation_rhs_on, Lemma2Violation, TreeView};
use crate::game::NetworkDesignGame;
use crate::state::State;
use crate::subsidy::SubsidyAssignment;
use ndg_graph::{EdgeId, NodeId};

/// Profiling counters (no-ops until `ndg_obs::install`): per-player
/// margin queries answered from a still-fresh stored verdict vs forced
/// to recompute from the maintained view.
static RECERT_FRESH_VERDICTS: ndg_obs::Counter = ndg_obs::Counter::new("recert_fresh_total");
static RECERT_STALE_VERDICTS: ndg_obs::Counter = ndg_obs::Counter::new("recert_stale_total");

/// A stored per-player margin evaluation (validity tracked separately by
/// version stamps).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    /// No incident Lemma-2 constraint was violated.
    Ok,
    /// The lowest-edge-id violated constraint with this node as deviator.
    Violated {
        via: EdgeId,
        to: NodeId,
        lhs: f64,
        rhs: f64,
    },
}

/// Counters describing how the maintained view earned its keep (exposed
/// through [`crate::incremental::IncrementalDynamics::certifier_stats`]
/// and printed by `exp_e13`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertifierStats {
    /// Full adoptions of a live state (each stamps all players stale).
    pub adoptions: u64,
    /// Moves absorbed as O(Δ) elementary swaps.
    pub elementary_updates: u64,
    /// Moves that invalidated the view (non-elementary).
    pub invalidations: u64,
    /// Lazy per-player margin evaluations.
    pub margin_recomputes: u64,
}

/// Persistent rooted-tree state + per-player Lemma-2 margins, maintained
/// in O(Δ) under elementary strategy swaps.
#[derive(Debug)]
pub struct IncrementalCertifier {
    valid: bool,
    root: NodeId,
    /// Monotonic state version: bumped by every adoption and every
    /// absorbed move (never reset, so stamps survive re-adoption).
    version: u64,
    /// `parent[v]` = (parent node, connecting edge); `None` for the root.
    parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Depth (edge count to root).
    depth: Vec<u32>,
    /// `subtree[v]` = nodes in the subtree below `v` (incl. `v`) —
    /// exactly the usage count of `v`'s parent edge on tree-induced
    /// states.
    subtree: Vec<u32>,
    /// Children lists (order immaterial; used for affected-subtree DFS).
    children: Vec<Vec<NodeId>>,
    /// `cost[v]` = `cost_v(T; b)`, bit-identical to
    /// [`crate::broadcast::root_path_costs`] on the same tree.
    cost: Vec<f64>,
    /// Per-edge tree membership.
    in_tree: Vec<bool>,
    /// Last stored margin evaluation per node (root slot unused).
    verdict: Vec<Verdict>,
    /// Version at which `verdict[v]` was evaluated (0 = never).
    verdict_v: Vec<u64>,
    /// Version at which `v`'s cost/position/constraint set last changed.
    touched: Vec<u64>,
    /// Nodes whose margin recently evaluated to `Violated` (ring of the
    /// last few). A post-move boolean query rechecks these first: the
    /// players that went stale but are still violated settle the query in
    /// one or two margin evaluations instead of a scan.
    recent_violators: Vec<NodeId>,
    /// DFS scratch for affected-subtree recomputation.
    dfs: Vec<NodeId>,
    stats: CertifierStats,
}

impl TreeView for IncrementalCertifier {
    fn root(&self) -> NodeId {
        self.root
    }
    fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[v.index()]
    }
    fn subtree_size(&self, v: NodeId) -> u32 {
        self.subtree[v.index()]
    }
    fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut a, mut b) = (u, v);
        while self.depth[a.index()] > self.depth[b.index()] {
            a = self.parent[a.index()].expect("deeper node has a parent").0;
        }
        while self.depth[b.index()] > self.depth[a.index()] {
            b = self.parent[b.index()].expect("deeper node has a parent").0;
        }
        while a != b {
            a = self.parent[a.index()].expect("distinct nodes below root").0;
            b = self.parent[b.index()].expect("distinct nodes below root").0;
        }
        a
    }
}

impl Default for IncrementalCertifier {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalCertifier {
    /// An empty, invalid certifier (adopt a state to activate it).
    pub fn new() -> Self {
        IncrementalCertifier {
            valid: false,
            root: NodeId(0),
            version: 0,
            parent: Vec::new(),
            depth: Vec::new(),
            subtree: Vec::new(),
            children: Vec::new(),
            cost: Vec::new(),
            in_tree: Vec::new(),
            verdict: Vec::new(),
            verdict_v: Vec::new(),
            touched: Vec::new(),
            recent_violators: Vec::new(),
            dfs: Vec::new(),
            stats: CertifierStats::default(),
        }
    }

    /// Whether the maintained view currently matches a live tree-induced
    /// state.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Counters since construction.
    #[inline]
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// Drop the maintained view (the next certification needs
    /// [`adopt`](Self::adopt)).
    pub fn invalidate(&mut self) {
        if self.valid {
            self.valid = false;
            self.stats.invalidations += 1;
            if ndg_obs::events::recording() {
                ndg_obs::events::emit("recert", vec![("op", "invalidate".to_string())]);
            }
        }
    }

    /// Adopt `state` as the maintained view if it is tree-induced (its
    /// established edges form a spanning tree — for a broadcast game that
    /// pins every player to her unique tree path). All players start
    /// stale: margins are evaluated lazily on first query, so adoption
    /// costs `O(n + m)` and the sweep-equivalent work is spread over the
    /// queries that actually happen. Returns the resulting validity.
    pub fn adopt(
        &mut self,
        game: &NetworkDesignGame,
        state: &State,
        b: &SubsidyAssignment,
    ) -> bool {
        self.valid = false;
        if !game.is_broadcast() {
            return false;
        }
        let Some(root) = game.root() else {
            return false;
        };
        let g = game.graph();
        let n = g.node_count();
        let mut established = 0usize;
        for e in g.edge_ids() {
            if state.usage(e) > 0 {
                established += 1;
                if established >= n {
                    return false; // more edges than any spanning tree has
                }
            }
        }
        if established + 1 != n {
            return false;
        }
        self.root = root;
        self.version += 1;
        self.parent.clear();
        self.parent.resize(n, None);
        self.depth.clear();
        self.depth.resize(n, 0);
        self.subtree.clear();
        self.subtree.resize(n, 1);
        self.in_tree.clear();
        self.in_tree.resize(g.edge_count(), false);
        self.verdict.clear();
        self.verdict.resize(n, Verdict::Ok);
        self.verdict_v.clear();
        self.verdict_v.resize(n, 0); // 0 < version: everyone stale
        self.touched.clear();
        self.touched.resize(n, self.version);
        self.recent_violators.clear();
        self.cost.clear();
        self.cost.resize(n, 0.0);
        if self.children.len() < n {
            self.children.resize(n, Vec::new());
        }
        for kids in &mut self.children {
            kids.clear();
        }
        // DFS from the root over established edges; n−1 established edges
        // reaching all n nodes ⇔ spanning tree (no union-find needed).
        let mut order = Vec::with_capacity(n);
        self.dfs.clear();
        self.dfs.push(root);
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        while let Some(u) = self.dfs.pop() {
            order.push(u);
            for &(v, e) in g.neighbors(u) {
                if state.usage(e) > 0 && !seen[v.index()] {
                    seen[v.index()] = true;
                    self.parent[v.index()] = Some((u, e));
                    self.depth[v.index()] = self.depth[u.index()] + 1;
                    self.in_tree[e.index()] = true;
                    self.children[u.index()].push(v);
                    self.dfs.push(v);
                }
            }
        }
        if order.len() != n {
            return false; // established edges do not span (some cycle)
        }
        // Subtree sizes in reverse preorder, then costs in preorder —
        // the same per-node expression as `root_path_costs`.
        for &v in order.iter().rev() {
            if let Some((p, _)) = self.parent[v.index()] {
                self.subtree[p.index()] += self.subtree[v.index()];
            }
        }
        for &v in &order {
            if let Some((p, e)) = self.parent[v.index()] {
                self.cost[v.index()] =
                    self.cost[p.index()] + b.residual(g, e) / self.subtree[v.index()] as f64;
            }
        }
        self.stats.adoptions += 1;
        self.valid = true;
        if ndg_obs::events::recording() {
            ndg_obs::events::emit("recert", vec![("op", "adopt".to_string())]);
        }
        true
    }

    /// Absorb one applied strategy change. `dropped`/`added` are the
    /// edges that left/entered the *established* set (usage `1 → 0` and
    /// `0 → 1`), as tracked by the engine's own O(Δ) bookkeeping. An
    /// elementary swap (leaf mover exchanging her parent edge for one new
    /// edge) is applied in O(Δ); anything else invalidates the view.
    pub fn on_move(
        &mut self,
        game: &NetworkDesignGame,
        state: &State,
        b: &SubsidyAssignment,
        mover: NodeId,
        dropped: &[EdgeId],
        added: &[EdgeId],
    ) {
        if !self.valid {
            return;
        }
        let g = game.graph();
        let elementary = dropped.len() == 1
            && added.len() == 1
            && self.subtree[mover.index()] == 1
            && self.parent[mover.index()].map(|(_, e)| e) == Some(dropped[0])
            && {
                let (x, y) = g.endpoints(added[0]);
                x == mover || y == mover
            };
        if !elementary {
            self.invalidate();
            return;
        }
        let e_old = dropped[0];
        let e_new = added[0];
        let (x, y) = g.endpoints(e_new);
        let new_parent = if x == mover { y } else { x };
        let old_parent = self.parent[mover.index()]
            .expect("leaf mover has a parent")
            .0;
        self.version += 1;
        self.stats.elementary_updates += 1;

        // 1. Subtree/usage deltas: −1 along old_parent→root, +1 along
        //    new_parent→root (they cancel above the LCA). Walked before
        //    the splice, but the splice only re-parents the leaf mover,
        //    which lies on neither walk.
        let mut cur = old_parent;
        loop {
            self.subtree[cur.index()] -= 1;
            match self.parent[cur.index()] {
                Some((p, _)) => cur = p,
                None => break,
            }
        }
        let mut cur = new_parent;
        loop {
            self.subtree[cur.index()] += 1;
            match self.parent[cur.index()] {
                Some((p, _)) => cur = p,
                None => break,
            }
        }

        // 2. Splice the leaf under its new parent.
        self.in_tree[e_old.index()] = false;
        self.in_tree[e_new.index()] = true;
        let kids = &mut self.children[old_parent.index()];
        let pos = kids
            .iter()
            .position(|&c| c == mover)
            .expect("children lists track parents");
        kids.swap_remove(pos);
        self.children[new_parent.index()].push(mover);
        self.parent[mover.index()] = Some((new_parent, e_new));
        self.depth[mover.index()] = self.depth[new_parent.index()] + 1;

        // 3. Fair shares changed exactly on the parent edges of the ±1
        //    nodes (and on the swapped pair), so root-path costs change
        //    exactly in the subtrees hanging below the LCA on each side.
        //    Recompute those top-down, stamping the region as touched —
        //    verdict staleness is resolved lazily at query time.
        let l = self.lca(old_parent, new_parent);
        if let Some(top) = self.side_top(old_parent, l) {
            self.recompute_region(g, b, top);
        }
        match self.side_top(new_parent, l) {
            // The mover rides inside the new-parent side's region.
            Some(top) => self.recompute_region(g, b, top),
            // Re-attached directly under the LCA: only her own cost
            // (via the brand-new parent edge) changes on this side.
            None => self.recompute_region(g, b, mover),
        }

        // 4. The constraint *sets* of the swapped edges' endpoints
        //    changed (e_old gained a Lemma-2 constraint, e_new lost one)
        //    even when an endpoint sits at the LCA outside the region.
        self.touched[mover.index()] = self.version;
        self.touched[old_parent.index()] = self.version;
        self.touched[new_parent.index()] = self.version;

        debug_assert!(
            g.edge_ids().all(|e| {
                !self.in_tree[e.index()] || {
                    let (a, bb) = g.endpoints(e);
                    let child = if self.parent[a.index()].map(|(_, pe)| pe) == Some(e) {
                        a
                    } else {
                        bb
                    };
                    state.usage(e) == self.subtree[child.index()]
                }
            }),
            "maintained subtree sizes drifted from live usage counts"
        );
    }

    /// The child-of-`l` ancestor of `from` (the top of that side's
    /// affected subtree), or `None` when `from == l`.
    fn side_top(&self, from: NodeId, l: NodeId) -> Option<NodeId> {
        if from == l {
            return None;
        }
        let mut cur = from;
        loop {
            let (p, _) = self.parent[cur.index()].expect("l is an ancestor");
            if p == l {
                return Some(cur);
            }
            cur = p;
        }
    }

    /// Recompute `cost` for the whole subtree below `top` (top-down, the
    /// `root_path_costs` expression) and stamp the region touched. The
    /// region is downward-closed, which is what lets verdict freshness
    /// reduce to "my stamp and my non-tree neighbors' stamps predate my
    /// evaluation".
    fn recompute_region(&mut self, g: &ndg_graph::Graph, b: &SubsidyAssignment, top: NodeId) {
        self.dfs.clear();
        self.dfs.push(top);
        while let Some(u) = self.dfs.pop() {
            let (p, pe) = self.parent[u.index()].expect("region tops hang below the lca");
            self.cost[u.index()] =
                self.cost[p.index()] + b.residual(g, pe) / self.subtree[u.index()] as f64;
            self.touched[u.index()] = self.version;
            for ci in 0..self.children[u.index()].len() {
                let c = self.children[u.index()][ci];
                self.dfs.push(c);
            }
        }
    }

    /// Whether `v`'s stored verdict is still current: evaluated no
    /// earlier than the last touch of `v` itself and of every non-tree
    /// neighbor (all other constraint inputs — LCA costs, climb subtree
    /// sizes — are covered by those stamps because the touched region is
    /// downward-closed).
    fn is_fresh(&self, g: &ndg_graph::Graph, v: NodeId) -> bool {
        let vv = self.verdict_v[v.index()];
        if vv < self.touched[v.index()] {
            return false;
        }
        g.neighbors(v)
            .iter()
            .all(|&(w, e)| self.in_tree[e.index()] || vv >= self.touched[w.index()])
    }

    /// Ensure `v`'s margin is freshly evaluated.
    fn ensure_margin(&mut self, game: &NetworkDesignGame, b: &SubsidyAssignment, v: NodeId) {
        if self.is_fresh(game.graph(), v) {
            RECERT_FRESH_VERDICTS.inc();
        } else {
            RECERT_STALE_VERDICTS.inc();
            self.recompute_margin(game, b, v);
        }
    }

    /// Evaluate `u`'s Lemma-2 margin from the maintained view: scan her
    /// incident non-tree edges in edge-id order (adjacency lists are
    /// built in insertion order, which *is* edge-id order) and record the
    /// first violated constraint, exactly like the batch sweep's
    /// per-edge check.
    fn recompute_margin(&mut self, game: &NetworkDesignGame, b: &SubsidyAssignment, u: NodeId) {
        debug_assert!(u != self.root, "the root is not a player");
        self.stats.margin_recomputes += 1;
        let g = game.graph();
        let lhs = self.cost[u.index()];
        let mut found = Verdict::Ok;
        for &(w, e) in g.neighbors(u) {
            if self.in_tree[e.index()] {
                continue;
            }
            // Exact O(1) prefilter: every rhs term is non-negative, so
            // `rhs ≥ residual(e)` — when even that floor clears the lhs,
            // the constraint cannot be violated and the LCA/climb work is
            // skipped. (Exact, so recorded witnesses are unaffected.)
            if lhs <= b.residual(g, e) + crate::num::EPS {
                continue;
            }
            let rhs = deviation_rhs_on(game, self, b, &self.cost, u, w, e);
            if lhs > rhs + crate::num::EPS {
                found = Verdict::Violated {
                    via: e,
                    to: w,
                    lhs,
                    rhs,
                };
                break;
            }
        }
        if matches!(found, Verdict::Violated { .. }) && !self.recent_violators.contains(&u) {
            if self.recent_violators.len() >= 8 {
                self.recent_violators.remove(0);
            }
            self.recent_violators.push(u);
        }
        self.verdict[u.index()] = found;
        self.verdict_v[u.index()] = self.version;
    }

    /// Boolean equilibrium query for the maintained view: `None` when the
    /// view is invalid, `Some(false)` as soon as one violated constraint
    /// is found, `Some(true)` after every margin is confirmed clean.
    /// Recently-violated players are rechecked first — mid-dynamics they
    /// usually settle the query after one or two margin evaluations, so
    /// the only query that pays sweep-equivalent work is the final,
    /// certifying one.
    pub fn equilibrium(&mut self, game: &NetworkDesignGame, b: &SubsidyAssignment) -> Option<bool> {
        if !self.valid {
            return None;
        }
        for ri in (0..self.recent_violators.len()).rev() {
            let v = self.recent_violators[ri];
            self.ensure_margin(game, b, v);
            if matches!(self.verdict[v.index()], Verdict::Violated { .. }) {
                return Some(false);
            }
            self.recent_violators.swap_remove(ri);
        }
        let g = game.graph();
        for v in g.nodes() {
            if v == self.root {
                continue;
            }
            self.ensure_margin(game, b, v);
            if matches!(self.verdict[v.index()], Verdict::Violated { .. }) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Full certification from the maintained view (`NotApplicable` when
    /// invalid — this method never adopts; the engine controls adoption).
    /// The returned witness is bit-identical to the scratch sweep's
    /// ([`crate::batch::BatchCertifier`]): the lowest-edge-id violation,
    /// orientation `(u, v)` before `(v, u)`.
    pub fn certify(
        &mut self,
        game: &NetworkDesignGame,
        b: &SubsidyAssignment,
    ) -> BatchCertification {
        if !self.valid {
            return BatchCertification::NotApplicable;
        }
        let g = game.graph();
        let mut best: Option<(u32, u8, Lemma2Violation)> = None;
        for v in g.nodes() {
            if v == self.root {
                continue;
            }
            self.ensure_margin(game, b, v);
            if let Verdict::Violated { via, to, lhs, rhs } = self.verdict[v.index()] {
                let orientation = u8::from(g.endpoints(via).0 != v);
                let key = (via.0, orientation);
                if best.as_ref().is_none_or(|(bv, bo, _)| key < (*bv, *bo)) {
                    best = Some((
                        via.0,
                        orientation,
                        Lemma2Violation {
                            node: v,
                            via,
                            to,
                            lhs,
                            rhs,
                        },
                    ));
                }
            }
        }
        match best {
            Some((_, _, v)) => BatchCertification::Violation(v),
            None => BatchCertification::Equilibrium,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchCertifier;
    use crate::equilibrium::find_deviation;
    use crate::incremental::IncrementalDynamics;
    use ndg_graph::{generators, NodeId};
    use rand::prelude::*;

    fn random_tree(g: &ndg_graph::Graph, rng: &mut StdRng) -> Vec<EdgeId> {
        let mut order: Vec<EdgeId> = g.edge_ids().collect();
        order.shuffle(rng);
        let mut uf = ndg_graph::UnionFind::new(g.node_count());
        let mut tree = Vec::with_capacity(g.node_count() - 1);
        for e in order {
            let (u, v) = g.endpoints(e);
            if uf.union(u.index(), v.index()) {
                tree.push(e);
            }
        }
        tree.sort();
        tree
    }

    fn random_subsidies(g: &ndg_graph::Graph, rng: &mut StdRng) -> SubsidyAssignment {
        let mut b = SubsidyAssignment::zero(g);
        for e in g.edge_ids() {
            match rng.random_range(0..4u32) {
                0 => {}
                1 => b.set(g, e, g.weight(e)),
                _ => {
                    let w = g.weight(e);
                    b.set(g, e, rng.random_range(0.0..=w));
                }
            }
        }
        b
    }

    /// Assert the maintained certification and a from-scratch sweep (at
    /// the given executor) agree to the bit on the engine's live state.
    fn assert_matches_scratch(
        engine: &mut IncrementalDynamics,
        game: &NetworkDesignGame,
        b: &SubsidyAssignment,
        ex: ndg_exec::Executor,
    ) {
        let mut scratch = BatchCertifier::with_executor(ex);
        let state = engine.state().clone();
        let reference = scratch.certify(game, &state, b);
        let maintained = engine.batch_certify();
        match (&maintained, &reference) {
            (BatchCertification::Equilibrium, BatchCertification::Equilibrium) => {
                assert!(
                    find_deviation(game, &state, b).is_none(),
                    "certified equilibrium but find_deviation improves"
                );
            }
            (BatchCertification::Violation(m), BatchCertification::Violation(s)) => {
                assert_eq!(m.node, s.node, "witness player diverged");
                assert_eq!(m.via, s.via, "witness edge diverged");
                assert_eq!(m.to, s.to, "witness entry node diverged");
                assert_eq!(m.lhs.to_bits(), s.lhs.to_bits(), "lhs bits diverged");
                assert_eq!(m.rhs.to_bits(), s.rhs.to_bits(), "rhs bits diverged");
                assert!(
                    find_deviation(game, &state, b).is_some(),
                    "certified violation but find_deviation finds none"
                );
            }
            (BatchCertification::NotApplicable, BatchCertification::NotApplicable) => {}
            (m, s) => panic!("maintained {m:?} vs scratch {s:?}"),
        }
    }

    #[test]
    fn maintained_view_matches_scratch_over_random_move_sequences() {
        // The tentpole property test: drive 1–64 random engine moves on
        // random broadcast trees with random subsidies and assert, after
        // every applied move, that the maintained certification is
        // bit-identical to a from-scratch BatchCertifier sweep (and
        // consistent with find_deviation). Elementary swaps exercise the
        // O(Δ) path; non-leaf movers exercise invalidation + re-adoption.
        let mut rng = StdRng::seed_from_u64(1300);
        for case in 0..40 {
            let n = rng.random_range(4..12usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.0..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = random_tree(game.graph(), &mut rng);
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let b = random_subsidies(game.graph(), &mut rng);
            let mut engine = IncrementalDynamics::new(&game, state, &b);
            let budget = rng.random_range(1..=64usize);
            let ex = if case % 2 == 0 {
                ndg_exec::Executor::sequential()
            } else {
                ndg_exec::Executor::new(8)
            };
            assert_matches_scratch(&mut engine, &game, &b, ex);
            for _ in 0..budget {
                let i = rng.random_range(0..game.num_players());
                if engine.try_improve(i).is_some() {
                    assert_matches_scratch(&mut engine, &game, &b, ex);
                }
            }
        }
    }

    #[test]
    fn maintained_equilibrium_matches_find_deviation_after_moves() {
        // The engine-facing global certificate: whenever the maintained
        // view is live, its equilibrium answer must agree with the exact
        // per-player checker after every move attempt (Lemma 2 is a
        // global condition — this, not per-player margin skipping, is the
        // sound way to consume the margins; a single player's clean
        // margins do not certify that she cannot improve).
        let mut rng = StdRng::seed_from_u64(1301);
        for _ in 0..30 {
            let n = rng.random_range(4..10usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = random_tree(game.graph(), &mut rng);
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let b = random_subsidies(game.graph(), &mut rng);
            let mut engine = IncrementalDynamics::new(&game, state, &b);
            for _ in 0..rng.random_range(1..=24usize) {
                let i = rng.random_range(0..game.num_players());
                engine.try_improve(i);
                if let Some(eq) = engine.maintained_equilibrium() {
                    assert_eq!(
                        eq,
                        find_deviation(&game, engine.state(), &b).is_none(),
                        "maintained equilibrium answer diverged from find_deviation"
                    );
                }
            }
        }
    }
}
