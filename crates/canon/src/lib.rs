//! `ndg-canon` — instance canonicalization for isomorphism-aware caching
//! and scenario dedup.
//!
//! Two clients that generate game instances independently almost never
//! agree on node numbering: a serving cache keyed on literal bytes treats
//! every relabeling of the same game as fresh work. This crate computes a
//! **canonical relabeling** of a full instance — graph + edge weights +
//! player demand sets (broadcast / general / weighted) — so that every
//! member of an isomorphism class maps to one representative:
//!
//! 1. **Partition refinement** ([`ndg_graph::refine_partition`]) over
//!    keyed arcs: graph edges carry their weight bits, player pairs carry
//!    role-tagged demand bits, and the broadcast root is seeded into its
//!    own class. The first round therefore separates nodes by (degree,
//!    sorted incident-weight multiset, demand membership), and iteration
//!    propagates those distinctions.
//! 2. **Deterministic individualization**: while the partition is not
//!    discrete, the smallest remaining colour class is split. *Twin*
//!    cells (members with byte-identical keyed neighbourhoods — isolated
//!    nodes, identical pendant leaves, interchangeable parallel
//!    structure) are split in one shot, since any ordering of a twin
//!    orbit is realized by an automorphism; other cells branch over every
//!    member.
//! 3. **Canonical BFS-code tiebreak** ([`ndg_graph::bfs_code`]): at the
//!    first branching level the refinement-equivalent root candidates are
//!    pruned to the group with the minimal BFS code, an isomorphism-
//!    invariant filter that usually collapses the branch factor before
//!    the exhaustive search runs.
//! 4. Among the surviving discrete labelings, the one whose relabeled
//!    instance serialization ([`leaf code`](Instance)) is lexicographically
//!    minimal wins.
//!
//! [`canonicalize`] returns the canonical [`Instance`] together with a
//! [`Relabeling`] — the permutation triple (nodes, edges, players) plus
//! `apply`/`unapply` mappings for every payload shape the serving codec
//! knows: edge sets, per-edge vectors (subsidies), per-player vectors
//! (costs, demands), state paths, and single node / player / edge ids
//! (violation witnesses). [`ndg_core::State::permuted`] and
//! [`ndg_core::SubsidyAssignment::permuted`] carry the same mappings onto
//! the in-memory solver types, bit-exactly.
//!
//! # Invariance, budgets, and the fallback
//!
//! Every step of the search is a function of instance *structure*, never
//! of labels: seeds, refinement, twin detection, BFS codes and leaf codes
//! all commute with node relabeling, and budget trips fire identically on
//! isomorphic inputs. Consequently `canonicalize(π·G)` and
//! `canonicalize(G)` produce byte-identical canonical instances whenever
//! they produce one at all. When an instance is too large
//! ([`CANON_MAX_NODES`] / [`CANON_MAX_EDGES`]), too symmetric for the
//! leaf budget, or too expensive for the total work budget (refinement
//! rounds × structure size — the bound that keeps adversarial symmetric
//! wire instances at low-millisecond cost), [`canonicalize`] returns
//! `None` and callers fall back to literal keying — correctness is never
//! at stake, only the isomorphism hit rate.
//!
//! Costs are label-invariant but witness *choices* (argmin trees,
//! violator order) need not be, so equivalence of the canonical pipeline
//! is property-tested end to end (serve's `canon_equivariance` suite)
//! rather than assumed.

use ndg_core::{NetworkDesignGame, State, StateError, SubsidyAssignment, SubsidyError};
use ndg_graph::{bfs_code, condense, EdgeId, Graph, Refinement};

/// Largest node count canonicalized; bigger instances fall back to
/// literal keying.
pub const CANON_MAX_NODES: usize = 4096;
/// Largest edge count canonicalized.
pub const CANON_MAX_EDGES: usize = 16384;
/// Maximum discrete labelings (search leaves) examined before declaring
/// the instance too symmetric and falling back.
pub const CANON_LEAF_BUDGET: usize = 48;
/// Total work units (refinement rounds, BFS codes and leaf
/// serializations, each costing `nodes + arcs`) one canonicalization may
/// spend before falling back — this, not the leaf count, is what bounds
/// wall-clock on large symmetric instances to low milliseconds.
const CANON_WORK_BUDGET: i64 = 2_000_000;
/// Refinement rounds per call (stopping early only coarsens, invariantly).
const REFINE_ROUNDS: usize = 64;

/// Arc-key layout: `tag (bits 120..) | attachment class (bits 64..120) |
/// weight-or-demand bits (bits 0..64)`. Tags: plain graph edge, player
/// source→terminal, player terminal→source.
const TAG_EDGE: u128 = 0;
const TAG_PLAYER_SRC: u128 = 1 << 120;
const TAG_PLAYER_DST: u128 = 2 << 120;
const CLASS_SHIFT: u32 = 64;

/// A neutral, codec-agnostic game instance: the common shape behind
/// broadcast (`root = Some`, players implied as one per non-root node),
/// general (`players` explicit) and weighted (`demands` attached) games.
#[derive(Clone, Debug, PartialEq)]
pub struct Instance {
    /// Node count; node ids are `0..n`.
    pub n: usize,
    /// Edge list in edge-id order: `(u, v, w)`.
    pub edges: Vec<(u32, u32, f64)>,
    /// Broadcast root. `Some` ⇒ `players`/`demands` are empty/ignored and
    /// the implied players are the non-root nodes in ascending order.
    pub root: Option<u32>,
    /// Explicit `(source, terminal)` pairs (general / weighted games).
    pub players: Vec<(u32, u32)>,
    /// One positive demand per player (weighted games).
    pub demands: Option<Vec<f64>>,
}

impl Instance {
    /// The neutral instance of an in-memory game (broadcast or general),
    /// with optional per-player demands. This is the bridge the
    /// enumeration/reduction orbit machinery uses to ask canon questions
    /// about solver-side games without going through the wire codec.
    pub fn of_game(game: &NetworkDesignGame, demands: Option<Vec<f64>>) -> Instance {
        let g = game.graph();
        Instance {
            n: g.node_count(),
            edges: g.edges().map(|(_, e)| (e.u.0, e.v.0, e.w)).collect(),
            root: game.root().map(|r| r.0),
            players: if game.root().is_some() {
                Vec::new()
            } else {
                game.players()
                    .iter()
                    .map(|p| (p.source.0, p.terminal.0))
                    .collect()
            },
            demands,
        }
    }

    /// Number of players (implied for broadcast).
    pub fn num_players(&self) -> usize {
        if self.root.is_some() {
            self.n.saturating_sub(1)
        } else {
            self.players.len()
        }
    }

    /// Structural sanity required before canonicalizing: endpoints in
    /// range and demand vector sized to the players. (Game-level
    /// validity — connectivity, self-loops, positivity — is *not*
    /// checked: invalid instances canonicalize fine and fail in the
    /// solver with the canonical-space diagnostics.)
    fn mappable(&self) -> bool {
        let n = self.n as u32;
        if self.n == 0 || self.n > CANON_MAX_NODES || self.edges.len() > CANON_MAX_EDGES {
            return false;
        }
        if !self.edges.iter().all(|&(u, v, _)| u < n && v < n) {
            return false;
        }
        if let Some(r) = self.root {
            return r < n;
        }
        if !self.players.iter().all(|&(s, t)| s < n && t < n) {
            return false;
        }
        match &self.demands {
            Some(d) => d.len() == self.players.len(),
            None => true,
        }
    }

    /// The keyed arc list refinement runs on: two arcs per undirected
    /// edge (key = weight bits | the edge's attachment class), two
    /// role-tagged arcs per player pair (key = role tag | demand bits |
    /// the player's attachment class). Decorating the keys with
    /// attachment classes makes refinement — and therefore twin
    /// detection — aware of attachments, so symmetric instances whose
    /// *attachments* break the symmetry still split correctly.
    fn arcs(&self, decor: &AttachmentClasses) -> Vec<(u32, u32, u128)> {
        let mut arcs = Vec::with_capacity(2 * (self.edges.len() + self.players.len()));
        for (e, &(u, v, w)) in self.edges.iter().enumerate() {
            let class = u128::from(decor.edge_class[e]) << CLASS_SHIFT;
            let key = TAG_EDGE | class | u128::from(w.to_bits());
            arcs.push((u, v, key));
            arcs.push((v, u, key));
        }
        for (i, &(s, t)) in self.players.iter().enumerate() {
            let dbits = match &self.demands {
                Some(d) => u128::from(d[i].to_bits()),
                None => 0,
            };
            let class = u128::from(decor.player_class[i]) << CLASS_SHIFT;
            arcs.push((s, t, TAG_PLAYER_SRC | class | dbits));
            arcs.push((t, s, TAG_PLAYER_DST | class | dbits));
        }
        arcs
    }

    /// Initial colours: the broadcast root is its own class (players are
    /// implied by it) and each broadcast node carries its implied
    /// player's attachment class; everything else starts uniform — round
    /// one of refinement then splits by (degree, weight multiset, demand
    /// membership) via the arc keys.
    fn seed(&self, decor: &AttachmentClasses) -> Vec<u32> {
        match self.root {
            Some(r) => {
                let mut seed = vec![0u32; self.n];
                let mut player = 0usize;
                for (v, colour) in seed.iter_mut().enumerate() {
                    if v as u32 == r {
                        continue;
                    }
                    *colour = 1 + decor.player_class[player];
                    player += 1;
                }
                // The root stays colour 0 and can never collide with a
                // player class (those start at 1).
                seed
            }
            None => vec![0u32; self.n],
        }
    }
}

/// Request attachments that ride along with an instance and must be
/// carried through the same relabeling: edge *sets* (target trees), per-
/// edge *vectors* (subsidies), and per-player *path lists* (explicit
/// states). Canonicalization keys on the decorated pair — both in the
/// refinement (attachment classes enter the arc keys, keeping twin
/// detection sound) and in the final leaf tie-break (among automorphic
/// labelings of the bare instance, the one minimizing the *mapped
/// attachments* wins) — so isomorphic requests, not merely isomorphic
/// instances, canonicalize to byte-identical forms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attachments {
    /// Edge-id sets (e.g. `tree=`), each a subset of the instance edges.
    pub edge_sets: Vec<Vec<EdgeId>>,
    /// Per-edge float vectors (e.g. `b=`), each of length `edges.len()`.
    pub edge_vectors: Vec<Vec<f64>>,
    /// Per-player path lists (e.g. `state=`), each holding one edge
    /// sequence per player.
    pub path_lists: Vec<Vec<Vec<EdgeId>>>,
}

impl Attachments {
    /// Dimensional sanity against the instance.
    fn mappable(&self, inst: &Instance) -> bool {
        let m = inst.edges.len();
        let players = inst.num_players();
        self.edge_sets
            .iter()
            .chain(self.path_lists.iter().flatten())
            .all(|ids| ids.iter().all(|e| e.index() < m))
            && self.edge_vectors.iter().all(|v| v.len() == m)
            && self.path_lists.iter().all(|l| l.len() == players)
    }
}

/// Dense attachment classes per edge and per player: label-invariant
/// summaries of how the attachments touch each object, condensed into
/// small ids that fit the arc-key class field.
struct AttachmentClasses {
    edge_class: Vec<u32>,
    player_class: Vec<u32>,
}

fn attachment_classes(inst: &Instance, att: &Attachments) -> AttachmentClasses {
    let m = inst.edges.len();
    let players = inst.num_players();
    // Per edge: membership bit per set, value bits per vector, usage
    // count per path list.
    let mut edge_tuples: Vec<Vec<u64>> = vec![Vec::new(); m];
    for set in &att.edge_sets {
        let mut member = vec![0u64; m];
        for e in set {
            member[e.index()] = 1;
        }
        for (e, t) in edge_tuples.iter_mut().enumerate() {
            t.push(member[e]);
        }
    }
    for vector in &att.edge_vectors {
        for (e, t) in edge_tuples.iter_mut().enumerate() {
            t.push(vector[e].to_bits());
        }
    }
    for list in &att.path_lists {
        let mut usage = vec![0u64; m];
        for path in list {
            for e in path {
                usage[e.index()] += 1;
            }
        }
        for (e, t) in edge_tuples.iter_mut().enumerate() {
            t.push(usage[e]);
        }
    }
    let edge_class = condense(&edge_tuples);
    // Per player: each of her paths as the sequence of edge classes and
    // weight bits along it (order preserved — paths are sequences).
    let mut player_tuples: Vec<Vec<u64>> = vec![Vec::new(); players];
    for list in &att.path_lists {
        for (i, path) in list.iter().enumerate() {
            player_tuples[i].push(path.len() as u64);
            for e in path {
                player_tuples[i].push(u64::from(edge_class[e.index()]));
                player_tuples[i].push(inst.edges[e.index()].2.to_bits());
            }
        }
    }
    AttachmentClasses {
        edge_class,
        player_class: condense(&player_tuples),
    }
}

/// The permutation triple of a relabeling (old → new for nodes, edge ids
/// and player indices), with `apply`/`unapply` mappings for every payload
/// shape the codec knows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeling {
    node: Vec<u32>,
    node_inv: Vec<u32>,
    edge: Vec<u32>,
    edge_inv: Vec<u32>,
    player: Vec<u32>,
    player_inv: Vec<u32>,
}

fn invert(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    inv
}

impl Relabeling {
    fn new(node: Vec<u32>, edge: Vec<u32>, player: Vec<u32>) -> Relabeling {
        Relabeling {
            node_inv: invert(&node),
            edge_inv: invert(&edge),
            player_inv: invert(&player),
            node,
            edge,
            player,
        }
    }

    /// The identity relabeling for the given dimensions.
    pub fn identity(nodes: usize, edges: usize, players: usize) -> Relabeling {
        Relabeling::new(
            (0..nodes as u32).collect(),
            (0..edges as u32).collect(),
            (0..players as u32).collect(),
        )
    }

    /// Whether all three permutations are the identity.
    pub fn is_identity(&self) -> bool {
        let id = |p: &[u32]| p.iter().enumerate().all(|(i, &x)| i as u32 == x);
        id(&self.node) && id(&self.edge) && id(&self.player)
    }

    /// The inverse relabeling (swap apply and unapply).
    pub fn inverse(&self) -> Relabeling {
        Relabeling {
            node: self.node_inv.clone(),
            node_inv: self.node.clone(),
            edge: self.edge_inv.clone(),
            edge_inv: self.edge.clone(),
            player: self.player_inv.clone(),
            player_inv: self.player.clone(),
        }
    }

    /// Old node id → new node id.
    pub fn apply_node(&self, v: u32) -> u32 {
        self.node[v as usize]
    }

    /// New node id → old node id.
    pub fn unapply_node(&self, v: u32) -> u32 {
        self.node_inv[v as usize]
    }

    /// Old edge id → new edge id.
    pub fn apply_edge(&self, e: EdgeId) -> EdgeId {
        EdgeId(self.edge[e.index()])
    }

    /// New edge id → old edge id.
    pub fn unapply_edge(&self, e: EdgeId) -> EdgeId {
        EdgeId(self.edge_inv[e.index()])
    }

    /// Old player index → new player index.
    pub fn apply_player(&self, i: usize) -> usize {
        self.player[i] as usize
    }

    /// New player index → old player index.
    pub fn unapply_player(&self, i: usize) -> usize {
        self.player_inv[i] as usize
    }

    /// Number of nodes the relabeling covers.
    pub fn node_count(&self) -> usize {
        self.node.len()
    }

    /// Number of edges the relabeling covers.
    pub fn edge_count(&self) -> usize {
        self.edge.len()
    }

    /// Number of players the relabeling covers.
    pub fn player_count(&self) -> usize {
        self.player.len()
    }

    /// The old→new edge permutation as `EdgeId`s (the shape
    /// [`State::permuted`] / [`SubsidyAssignment::permuted`] take).
    pub fn edge_map(&self) -> Vec<EdgeId> {
        self.edge.iter().map(|&e| EdgeId(e)).collect()
    }

    /// The old→new player permutation as indices.
    pub fn player_map(&self) -> Vec<usize> {
        self.player.iter().map(|&p| p as usize).collect()
    }

    /// Map an edge *set* into the new labels (sorted ascending — sets are
    /// presented canonically).
    pub fn apply_edge_set(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = edges.iter().map(|&e| self.apply_edge(e)).collect();
        out.sort();
        out
    }

    /// Map an edge set back to the old labels (sorted ascending).
    pub fn unapply_edge_set(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = edges.iter().map(|&e| self.unapply_edge(e)).collect();
        out.sort();
        out
    }

    /// Map an edge *sequence* (a path) into the new labels, order
    /// preserved.
    pub fn apply_edge_seq(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        edges.iter().map(|&e| self.apply_edge(e)).collect()
    }

    /// Map an edge sequence back, order preserved.
    pub fn unapply_edge_seq(&self, edges: &[EdgeId]) -> Vec<EdgeId> {
        edges.iter().map(|&e| self.unapply_edge(e)).collect()
    }

    /// Reindex a per-edge vector (subsidies, per-edge stats): slot
    /// `apply_edge(e)` of the result holds `xs[e]`. Values are moved, not
    /// recomputed — bit-exact.
    pub fn apply_edge_values<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        let mut out: Vec<Option<T>> = vec![None; xs.len()];
        for (old, x) in xs.iter().enumerate() {
            out[self.edge[old] as usize] = Some(x.clone());
        }
        out.into_iter().map(|x| x.expect("permutation")).collect()
    }

    /// Inverse of [`apply_edge_values`](Self::apply_edge_values).
    pub fn unapply_edge_values<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        let mut out: Vec<Option<T>> = vec![None; xs.len()];
        for (new, x) in xs.iter().enumerate() {
            out[self.edge_inv[new] as usize] = Some(x.clone());
        }
        out.into_iter().map(|x| x.expect("permutation")).collect()
    }

    /// Reindex a per-player vector (demands, cost arrays).
    pub fn apply_player_values<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        let mut out: Vec<Option<T>> = vec![None; xs.len()];
        for (old, x) in xs.iter().enumerate() {
            out[self.player[old] as usize] = Some(x.clone());
        }
        out.into_iter().map(|x| x.expect("permutation")).collect()
    }

    /// Inverse of [`apply_player_values`](Self::apply_player_values).
    pub fn unapply_player_values<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        let mut out: Vec<Option<T>> = vec![None; xs.len()];
        for (new, x) in xs.iter().enumerate() {
            out[self.player_inv[new] as usize] = Some(x.clone());
        }
        out.into_iter().map(|x| x.expect("permutation")).collect()
    }

    /// Map per-player strategy paths: player reorder plus per-path edge
    /// sequence mapping.
    pub fn apply_paths(&self, paths: &[Vec<EdgeId>]) -> Vec<Vec<EdgeId>> {
        self.apply_player_values(
            &paths
                .iter()
                .map(|p| self.apply_edge_seq(p))
                .collect::<Vec<_>>(),
        )
    }

    /// Inverse of [`apply_paths`](Self::apply_paths).
    pub fn unapply_paths(&self, paths: &[Vec<EdgeId>]) -> Vec<Vec<EdgeId>> {
        self.unapply_player_values(
            &paths
                .iter()
                .map(|p| self.unapply_edge_seq(p))
                .collect::<Vec<_>>(),
        )
    }

    /// Map an in-memory [`State`] onto the relabeled game (validated).
    pub fn apply_state(&self, target: &NetworkDesignGame, s: &State) -> Result<State, StateError> {
        s.permuted(target, &self.player_map(), &self.edge_map())
    }

    /// Map a [`SubsidyAssignment`] onto the relabeled graph (validated).
    pub fn apply_subsidies(
        &self,
        target: &Graph,
        b: &SubsidyAssignment,
    ) -> Result<SubsidyAssignment, SubsidyError> {
        b.permuted(target, &self.edge_map())
    }
}

/// Apply an explicit relabeling: `node_map[old] = new`;
/// `edge_order[k]` / `player_order[k]` give the old edge id / player
/// index presented `k`-th in the result. For broadcast instances the
/// player permutation is implied by the node map (players are the
/// non-root nodes in ascending id order) and `player_order` is ignored.
/// With `normalize`, each relabeled edge is presented `(min, max)` — the
/// canonical endpoint order.
fn apply_relabeling(
    inst: &Instance,
    node_map: &[u32],
    edge_order: &[u32],
    player_order: &[u32],
    normalize: bool,
) -> (Instance, Relabeling) {
    assert_eq!(node_map.len(), inst.n);
    assert_eq!(edge_order.len(), inst.edges.len());
    let mut edges = Vec::with_capacity(inst.edges.len());
    let mut edge_perm = vec![0u32; inst.edges.len()];
    for (k, &old) in edge_order.iter().enumerate() {
        let (u, v, w) = inst.edges[old as usize];
        let (mut a, mut b) = (node_map[u as usize], node_map[v as usize]);
        if normalize && a > b {
            std::mem::swap(&mut a, &mut b);
        }
        edges.push((a, b, w));
        edge_perm[old as usize] = k as u32;
    }
    let (root, players, demands, player_perm) = match inst.root {
        Some(r) => {
            let new_root = node_map[r as usize];
            // Broadcast player i sits at the i-th non-root old node; its
            // new index is its new node id's rank among non-root ids.
            let mut perm = Vec::with_capacity(inst.n.saturating_sub(1));
            for v in 0..inst.n as u32 {
                if v == r {
                    continue;
                }
                let x = node_map[v as usize];
                perm.push(if x > new_root { x - 1 } else { x });
            }
            (Some(new_root), Vec::new(), None, perm)
        }
        None => {
            assert_eq!(player_order.len(), inst.players.len());
            let mut players = Vec::with_capacity(inst.players.len());
            let mut demands = inst.demands.as_ref().map(|_| Vec::new());
            let mut perm = vec![0u32; inst.players.len()];
            for (k, &old) in player_order.iter().enumerate() {
                let (s, t) = inst.players[old as usize];
                players.push((node_map[s as usize], node_map[t as usize]));
                if let (Some(out), Some(d)) = (demands.as_mut(), inst.demands.as_ref()) {
                    out.push(d[old as usize]);
                }
                perm[old as usize] = k as u32;
            }
            (None, players, demands, perm)
        }
    };
    let relabeled = Instance {
        n: inst.n,
        edges,
        root,
        players,
        demands,
    };
    (
        relabeled,
        Relabeling::new(node_map.to_vec(), edge_perm, player_perm),
    )
}

/// Relabel an instance by an arbitrary node permutation and presentation
/// orders (`edge_order[k]` = old edge id listed `k`-th, likewise
/// `player_order`; ignored for broadcast). Used to *generate* isomorphic
/// duplicates (workloads, property tests); endpoints keep their mapped
/// insertion order, so the result looks like an independent client wrote
/// it. Panics on dimension mismatch — callers own the perms.
pub fn relabel(
    inst: &Instance,
    node_map: &[u32],
    edge_order: &[u32],
    player_order: &[u32],
) -> (Instance, Relabeling) {
    apply_relabeling(inst, node_map, edge_order, player_order, false)
}

/// [`canonicalize_with`] for a bare instance (no attachments).
pub fn canonicalize(inst: &Instance) -> Option<(Instance, Relabeling)> {
    canonicalize_with(inst, &Attachments::default())
}

/// Compute the canonical form of the decorated pair `(inst, att)`: the
/// canonical instance plus the relabeling that carries `inst` onto it,
/// chosen so that the attachments mapped through the relabeling are
/// byte-identical across isomorphic requests (the attachments break
/// automorphism ties). Returns `None` when the pair is not mappable
/// (endpoints out of range, mis-sized vectors), too large, or too
/// symmetric for the search budgets — the caller then keys literally,
/// losing only isomorphism hits.
///
/// One caveat is accepted by design: records that are *fully* identical
/// — parallel edges with equal endpoints and weight bits, or duplicate
/// player pairs with equal demands — are interchangeable in the
/// canonical form, and attachments that distinguish between them may map
/// differently across isomorphs (a missed share, never a wrong answer).
pub fn canonicalize_with(inst: &Instance, att: &Attachments) -> Option<(Instance, Relabeling)> {
    canonicalize_inner(inst, att, false).map(|(canon, map, _)| (canon, map))
}

/// [`canonicalize_with`], additionally reporting the **automorphism
/// generators** of the decorated pair discovered along the search:
/// transpositions of twin-orbit members plus the label permutations
/// between equal-leaf-code labelings, every candidate *verified* against
/// the decorated instance before it is returned (soundness never depends
/// on the discovery heuristics). The generator set may be a proper
/// subset of a full generating set — consumers (orbit pruning, gadget
/// dedup) remain exact under any subgroup, only less effective. Falls
/// back exactly like [`canonicalize_with`] (`None` on unmappable /
/// over-budget input); callers then use the trivial group.
pub fn canonicalize_with_autos(
    inst: &Instance,
    att: &Attachments,
) -> Option<(Instance, Relabeling, AutGenerators)> {
    canonicalize_inner(inst, att, true)
}

/// Verified automorphism generators of a bare instance; empty on any
/// fallback (the "trivial group" mirror of the literal-keying fallback).
pub fn automorphisms(inst: &Instance) -> AutGenerators {
    automorphisms_with(inst, &Attachments::default())
}

/// Verified automorphism generators of a decorated pair; empty on any
/// fallback.
pub fn automorphisms_with(inst: &Instance, att: &Attachments) -> AutGenerators {
    canonicalize_with_autos(inst, att)
        .map(|(_, _, gens)| gens)
        .unwrap_or_default()
}

fn canonicalize_inner(
    inst: &Instance,
    att: &Attachments,
    collect: bool,
) -> Option<(Instance, Relabeling, AutGenerators)> {
    if !inst.mappable() || !att.mappable(inst) {
        return None;
    }
    let decor = attachment_classes(inst, att);
    let arcs = inst.arcs(&decor);
    let mut search = Search {
        inst,
        att,
        arcs: &arcs,
        arc_sigs: arc_signatures(inst.n, &arcs),
        leaves: 0,
        work: CANON_WORK_BUDGET,
        aborted: false,
        best: None,
        collect,
        candidates: Vec::new(),
    };
    let seed = inst.seed(&decor);
    let base = search.refine(&seed)?;
    search.run(base, 0);
    if search.aborted {
        return None;
    }
    let candidates = std::mem::take(&mut search.candidates);
    let (_, labels) = search.best?;
    let gens = if collect {
        verify_candidates(inst, &decor, candidates)
    } else {
        AutGenerators::default()
    };
    // Canonical presentation orders under the winning labels: edges by
    // (endpoints, weight bits), players by (endpoints, demand bits);
    // original index last so fully identical records (interchangeable by
    // construction) stay deterministic per input.
    let mut edge_order: Vec<u32> = (0..inst.edges.len() as u32).collect();
    edge_order.sort_by_key(|&e| {
        let (u, v, w) = inst.edges[e as usize];
        let (a, b) = minmax(labels[u as usize], labels[v as usize]);
        (a, b, w.to_bits(), e)
    });
    let mut player_order: Vec<u32> = (0..inst.players.len() as u32).collect();
    player_order.sort_by_key(|&i| {
        let (s, t) = inst.players[i as usize];
        let d = inst.demands.as_ref().map_or(0, |d| d[i as usize].to_bits());
        (labels[s as usize], labels[t as usize], d, i)
    });
    let (canon, map) = apply_relabeling(inst, &labels, &edge_order, &player_order, true);
    Some((canon, map, gens))
}

/// Verified automorphism generators of a decorated instance, as parallel
/// lists of node / edge / player permutations (`perm[old] = old'`, all in
/// the *input* label space). Produced by [`canonicalize_with_autos`] /
/// [`automorphisms_with`]; an empty set is the trivial group (either the
/// instance is rigid or the search fell back).
///
/// Guarantees, per generator `i`: `node[i]` is a graph automorphism that
/// fixes the broadcast root, maps every edge onto an edge with identical
/// weight *bits* and identical attachment class (so edge-set and
/// edge-vector attachments are preserved exactly), and maps every player
/// onto a player with identical demand bits and attachment class.
/// `edge[i]` / `player[i]` are the induced permutations. Records that are
/// fully identical (parallel edges with equal endpoints and weight bits)
/// are interchangeable, matching the canonicalization caveat.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AutGenerators {
    /// Node maps (`old node id → old node id`).
    pub node: Vec<Vec<u32>>,
    /// Induced edge permutations (`old edge id → old edge id`).
    pub edge: Vec<Vec<u32>>,
    /// Induced player permutations (`old player index → old player index`).
    pub player: Vec<Vec<u32>>,
}

impl AutGenerators {
    /// Whether the group is (known to be) trivial.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// Number of generators.
    pub fn len(&self) -> usize {
        self.node.len()
    }
}

/// Cap on collected automorphism candidates per search: a wide twin
/// orbit (hundreds of interchangeable leaves) does not need hundreds of
/// transposition generators to be *useful* — any subgroup keeps the
/// consumers exact — and the cap keeps collection cost negligible next
/// to the search itself.
const MAX_AUT_CANDIDATES: usize = 64;

/// Filter candidate node maps down to verified automorphisms with their
/// induced edge/player permutations. Deduplicates; drops the identity.
fn verify_candidates(
    inst: &Instance,
    decor: &AttachmentClasses,
    candidates: Vec<Vec<u32>>,
) -> AutGenerators {
    let mut gens = AutGenerators::default();
    let mut seen: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    for node_map in candidates {
        if node_map.iter().enumerate().all(|(v, &x)| v as u32 == x) {
            continue;
        }
        if !seen.insert(node_map.clone()) {
            continue;
        }
        if let Some((edge, player)) = induced_maps(inst, decor, &node_map) {
            gens.node.push(node_map);
            gens.edge.push(edge);
            gens.player.push(player);
        }
    }
    gens
}

/// Check that `node_map` is an automorphism of the decorated instance
/// and compute the induced edge and player permutations. Identical
/// records (equal endpoints, weight bits and attachment class) are
/// matched in id order — interchangeable by the canonicalization caveat.
fn induced_maps(
    inst: &Instance,
    decor: &AttachmentClasses,
    node_map: &[u32],
) -> Option<(Vec<u32>, Vec<u32>)> {
    use std::collections::HashMap;
    let n = inst.n as u32;
    if node_map.len() != inst.n || !node_map.iter().all(|&x| x < n) {
        return None;
    }
    // Must be a bijection.
    let mut hit = vec![false; inst.n];
    for &x in node_map {
        if std::mem::replace(&mut hit[x as usize], true) {
            return None;
        }
    }
    // Edge bijection: bucket original edges by (endpoints, weight bits,
    // attachment class); each source edge consumes one image edge from
    // the bucket of its mapped key, smallest ids first.
    let mut buckets: HashMap<(u32, u32, u64, u32), Vec<u32>> = HashMap::new();
    for (e, &(u, v, w)) in inst.edges.iter().enumerate() {
        let (a, b) = minmax(u, v);
        buckets
            .entry((a, b, w.to_bits(), decor.edge_class[e]))
            .or_default()
            .push(e as u32);
    }
    // Consume from the front so images come out in ascending id order.
    let mut next: HashMap<(u32, u32, u64, u32), usize> = HashMap::new();
    let mut edge_perm = vec![0u32; inst.edges.len()];
    for (e, &(u, v, w)) in inst.edges.iter().enumerate() {
        let (a, b) = minmax(node_map[u as usize], node_map[v as usize]);
        let key = (a, b, w.to_bits(), decor.edge_class[e]);
        let ids = buckets.get(&key)?;
        let cursor = next.entry(key).or_insert(0);
        let img = *ids.get(*cursor)?;
        *cursor += 1;
        edge_perm[e] = img;
    }
    // Player bijection.
    let player_perm = match inst.root {
        Some(r) => {
            if node_map[r as usize] != r {
                return None;
            }
            // Broadcast: implied by the node map (player i sits at the
            // i-th non-root node), exactly as in `apply_relabeling`.
            let mut perm = Vec::with_capacity(inst.n.saturating_sub(1));
            for v in 0..n {
                if v == r {
                    continue;
                }
                let x = node_map[v as usize];
                perm.push(if x > r { x - 1 } else { x });
            }
            // Attachment classes must survive the reindexing.
            if !perm
                .iter()
                .enumerate()
                .all(|(i, &j)| decor.player_class[i] == decor.player_class[j as usize])
            {
                return None;
            }
            perm
        }
        None => {
            let mut buckets: HashMap<(u32, u32, u64, u32), Vec<u32>> = HashMap::new();
            for (i, &(s, t)) in inst.players.iter().enumerate() {
                let d = inst.demands.as_ref().map_or(0, |d| d[i].to_bits());
                buckets
                    .entry((s, t, d, decor.player_class[i]))
                    .or_default()
                    .push(i as u32);
            }
            let mut next: HashMap<(u32, u32, u64, u32), usize> = HashMap::new();
            let mut perm = vec![0u32; inst.players.len()];
            for (i, &(s, t)) in inst.players.iter().enumerate() {
                let d = inst.demands.as_ref().map_or(0, |d| d[i].to_bits());
                let key = (
                    node_map[s as usize],
                    node_map[t as usize],
                    d,
                    decor.player_class[i],
                );
                let ids = buckets.get(&key)?;
                let cursor = next.entry(key).or_insert(0);
                let img = *ids.get(*cursor)?;
                *cursor += 1;
                perm[i] = img;
            }
            perm
        }
    };
    Some((edge_perm, player_perm))
}

/// Orbit partition of the edge set under the generated group, by the
/// Schreier orbit algorithm (breadth-first closure of each edge id under
/// the generators): `orbits[e]` is the smallest edge id in `e`'s orbit.
/// Generators that are not permutations of `0..num_edges` are ignored.
pub fn edge_orbits(num_edges: usize, edge_gens: &[Vec<u32>]) -> Vec<u32> {
    let gens: Vec<&Vec<u32>> = edge_gens
        .iter()
        .filter(|g| g.len() == num_edges && g.iter().all(|&x| (x as usize) < num_edges))
        .collect();
    let mut orbit: Vec<u32> = (0..num_edges as u32).collect();
    let mut seen = vec![false; num_edges];
    let mut stack = Vec::new();
    for start in 0..num_edges {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        stack.push(start);
        while let Some(e) = stack.pop() {
            orbit[e] = start as u32;
            for g in &gens {
                let img = g[e] as usize;
                if !std::mem::replace(&mut seen[img], true) {
                    stack.push(img);
                }
            }
        }
    }
    orbit
}

fn minmax(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Per-node sorted `(key, to)` out-arc multiset — the twin-detection
/// signature.
fn arc_signatures(n: usize, arcs: &[(u32, u32, u128)]) -> Vec<Vec<(u128, u32)>> {
    let mut sigs: Vec<Vec<(u128, u32)>> = vec![Vec::new(); n];
    for &(from, to, key) in arcs {
        sigs[from as usize].push((key, to));
    }
    for s in &mut sigs {
        s.sort_unstable();
    }
    sigs
}

struct Search<'a> {
    inst: &'a Instance,
    att: &'a Attachments,
    arcs: &'a [(u32, u32, u128)],
    arc_sigs: Vec<Vec<(u128, u32)>>,
    leaves: usize,
    /// Remaining work units (refinement rounds × structure size, BFS
    /// codes, leaf serializations all debit it). Work consumption is a
    /// function of structure, so the budget trips identically on
    /// isomorphic inputs.
    work: i64,
    aborted: bool,
    /// Minimal `(leaf code, labels)` seen so far.
    best: Option<(Vec<u64>, Vec<u32>)>,
    /// Whether to record automorphism candidates (twin transpositions,
    /// equal-leaf-code label permutations). Collection never touches the
    /// work budget, so canonical results are identical either way.
    collect: bool,
    /// Unverified candidate node maps, capped at [`MAX_AUT_CANDIDATES`].
    candidates: Vec<Vec<u32>>,
}

impl Search<'_> {
    /// One budgeted refinement pass; a `None` (budget exhausted) marks
    /// the whole search aborted.
    fn refine(&mut self, seed: &[u32]) -> Option<Refinement> {
        let refined = ndg_graph::refine_partition(
            self.inst.n,
            self.arcs,
            seed,
            REFINE_ROUNDS,
            &mut self.work,
        );
        if refined.is_none() {
            self.aborted = true;
        }
        refined
    }

    /// Debit one flat-cost operation (BFS code, leaf serialization).
    fn charge(&mut self) -> bool {
        self.work -= (self.inst.n + self.arcs.len()) as i64;
        if self.work < 0 {
            self.aborted = true;
        }
        !self.aborted
    }

    /// Explore all discrete labelings reachable from `colors` (loops over
    /// forced steps, recurses only at genuine branches, so stack depth is
    /// bounded by the leaf budget).
    fn run(&mut self, mut colors: Refinement, mut depth: usize) {
        loop {
            if self.aborted {
                return;
            }
            if colors.is_discrete() {
                self.leaves += 1;
                if self.leaves > CANON_LEAF_BUDGET || !self.charge() {
                    self.aborted = true;
                    return;
                }
                let code = leaf_code(self.inst, self.att, &colors.colors);
                if self.collect {
                    if let Some((best_code, best_labels)) = &self.best {
                        if code == *best_code && self.candidates.len() < MAX_AUT_CANDIDATES {
                            // Two labelings with byte-identical codes
                            // present the same relabeled instance:
                            // σ = best⁻¹ ∘ labels is an automorphism
                            // candidate (verified later).
                            let best_inv = invert(best_labels);
                            let sigma: Vec<u32> = colors
                                .colors
                                .iter()
                                .map(|&c| best_inv[c as usize])
                                .collect();
                            self.candidates.push(sigma);
                        }
                    }
                }
                if self.best.as_ref().is_none_or(|(b, _)| code < *b) {
                    self.best = Some((code, colors.colors));
                }
                return;
            }
            let cell = self.target_cell(&colors);
            if self.is_twin_cell(&cell) {
                if self.collect {
                    // Twin-cell members are pairwise interchangeable:
                    // each transposition with the cell head is an
                    // automorphism candidate, and together they generate
                    // the full symmetric group on the orbit.
                    for &other in &cell[1..] {
                        if self.candidates.len() >= MAX_AUT_CANDIDATES {
                            break;
                        }
                        let mut sigma: Vec<u32> = (0..self.inst.n as u32).collect();
                        sigma.swap(cell[0] as usize, other as usize);
                        self.candidates.push(sigma);
                    }
                }
                // Any ordering of a twin orbit is an automorphism image
                // of any other: individualize the whole cell at once, in
                // original-id order, without branching. The *code* is
                // unaffected by the choice; only the (per-input
                // deterministic) relabeling depends on it.
                let mut next = colors.colors;
                for (k, &v) in cell.iter().enumerate() {
                    next[v as usize] = (colors.num_colors + k) as u32;
                }
                colors = match self.refine(&next) {
                    Some(refined) => refined,
                    None => return,
                };
                depth += 1;
                continue;
            }
            // Branch: individualize each member in turn. At the first
            // branching level — the refinement-equivalent root candidates
            // — prune to the minimal-BFS-code group first.
            let mut branches: Vec<(Refinement, Vec<u64>)> = Vec::with_capacity(cell.len());
            for &v in &cell {
                let mut next = colors.colors.clone();
                next[v as usize] = colors.num_colors as u32;
                // Every branch expansion is individually budgeted: a
                // wide symmetric cell cannot multiply refinement cost
                // past the work budget.
                let Some(refined) = self.refine(&next) else {
                    return;
                };
                let code = if depth == 0 {
                    if !self.charge() {
                        return;
                    }
                    bfs_code(self.inst.n, self.arcs, &refined.colors, v)
                } else {
                    Vec::new()
                };
                branches.push((refined, code));
            }
            if depth == 0 {
                let min = branches
                    .iter()
                    .map(|(_, c)| c.clone())
                    .min()
                    .expect("non-empty cell");
                branches.retain(|(_, c)| *c == min);
            }
            for (refined, _) in branches {
                self.run(refined, depth + 1);
            }
            return;
        }
    }

    /// The smallest-colour non-singleton cell, members ascending.
    fn target_cell(&self, colors: &Refinement) -> Vec<u32> {
        let mut count = vec![0u32; colors.num_colors];
        for &c in &colors.colors {
            count[c as usize] += 1;
        }
        let target = (0..colors.num_colors as u32)
            .find(|&c| count[c as usize] > 1)
            .expect("non-discrete partition has a multi-member cell");
        (0..self.inst.n as u32)
            .filter(|&v| colors.colors[v as usize] == target)
            .collect()
    }

    /// Whether every member of `cell` has the identical keyed out-arc
    /// multiset (then the full symmetric group on the cell consists of
    /// automorphisms).
    fn is_twin_cell(&self, cell: &[u32]) -> bool {
        let first = &self.arc_sigs[cell[0] as usize];
        cell[1..]
            .iter()
            .all(|&v| &self.arc_sigs[v as usize] == first)
    }
}

/// The comparison key of a discrete labeling: the relabeled instance
/// serialized into `u64`s (dimensions, root, sorted edge triples, sorted
/// player/demand records), followed by the relabeled *attachments* —
/// edge records instead of edge ids, so the code contains no original
/// ids and isomorphic labelings of isomorphic decorated instances
/// produce identical codes. The instance section comes first, so the
/// minimal leaf always presents the canonical instance; the attachment
/// section only breaks automorphism ties.
fn leaf_code(inst: &Instance, att: &Attachments, labels: &[u32]) -> Vec<u64> {
    let mut code = instance_code(inst, labels);
    let record = |e: &EdgeId| {
        let (u, v, w) = inst.edges[e.index()];
        let (a, b) = minmax(labels[u as usize], labels[v as usize]);
        ((u64::from(a) << 32) | u64::from(b), w.to_bits())
    };
    for set in &att.edge_sets {
        let mut records: Vec<(u64, u64)> = set.iter().map(record).collect();
        records.sort_unstable();
        code.push(records.len() as u64);
        for (endpoints, w) in records {
            code.push(endpoints);
            code.push(w);
        }
    }
    for vector in &att.edge_vectors {
        let mut records: Vec<(u64, u64, u64)> = vector
            .iter()
            .enumerate()
            .map(|(e, x)| {
                let (endpoints, w) = record(&EdgeId(e as u32));
                (endpoints, w, x.to_bits())
            })
            .collect();
        records.sort_unstable();
        for (endpoints, w, x) in records {
            code.push(endpoints);
            code.push(w);
            code.push(x);
        }
    }
    for list in &att.path_lists {
        // One entry per player: her (relabeled) identity, then her path
        // as an ordered record sequence; sorted by the whole entry.
        let mut entries: Vec<Vec<u64>> = list
            .iter()
            .enumerate()
            .map(|(i, path)| {
                let mut entry = player_key(inst, labels, i);
                entry.push(path.len() as u64);
                for e in path {
                    let (endpoints, w) = record(e);
                    entry.push(endpoints);
                    entry.push(w);
                }
                entry
            })
            .collect();
        entries.sort_unstable();
        for entry in entries {
            code.push(entry.len() as u64);
            code.extend(entry);
        }
    }
    code
}

/// The label-space identity of player `i` (broadcast: her source node's
/// new id; general/weighted: endpoints and demand bits).
fn player_key(inst: &Instance, labels: &[u32], i: usize) -> Vec<u64> {
    match inst.root {
        Some(r) => {
            // Player i sits at the i-th non-root node.
            let mut v = i as u32;
            if v >= r {
                v += 1;
            }
            vec![u64::from(labels[v as usize])]
        }
        None => {
            let (s, t) = inst.players[i];
            let d = inst.demands.as_ref().map_or(0, |d| d[i].to_bits());
            vec![
                (u64::from(labels[s as usize]) << 32) | u64::from(labels[t as usize]),
                d,
            ]
        }
    }
}

/// The instance section of the leaf code.
fn instance_code(inst: &Instance, labels: &[u32]) -> Vec<u64> {
    let mut code = Vec::with_capacity(4 + 2 * inst.edges.len() + 2 * inst.players.len());
    code.push(inst.n as u64);
    code.push(match inst.root {
        Some(r) => u64::from(labels[r as usize]) + 1,
        None => 0,
    });
    code.push(inst.edges.len() as u64);
    let mut edges: Vec<(u32, u32, u64)> = inst
        .edges
        .iter()
        .map(|&(u, v, w)| {
            let (a, b) = minmax(labels[u as usize], labels[v as usize]);
            (a, b, w.to_bits())
        })
        .collect();
    edges.sort_unstable();
    for (a, b, w) in edges {
        code.push((u64::from(a) << 32) | u64::from(b));
        code.push(w);
    }
    code.push(inst.players.len() as u64);
    let mut players: Vec<(u32, u32, u64)> = inst
        .players
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| {
            let d = inst.demands.as_ref().map_or(0, |d| d[i].to_bits());
            (labels[s as usize], labels[t as usize], d)
        })
        .collect();
    players.sort_unstable();
    for (s, t, d) in players {
        code.push((u64::from(s) << 32) | u64::from(t));
        code.push(d);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_core::{player_cost, NetworkDesignGame, Player, State, SubsidyAssignment};
    use ndg_graph::{generators, kruskal, NodeId};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn instance_of(game: &NetworkDesignGame, demands: Option<Vec<f64>>) -> Instance {
        let g = game.graph();
        Instance {
            n: g.node_count(),
            edges: g.edges().map(|(_, e)| (e.u.0, e.v.0, e.w)).collect(),
            root: game.root().map(|r| r.0),
            players: if game.root().is_some() {
                Vec::new()
            } else {
                game.players()
                    .iter()
                    .map(|p| (p.source.0, p.terminal.0))
                    .collect()
            },
            demands,
        }
    }

    fn random_perm(len: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut p: Vec<u32> = (0..len as u32).collect();
        p.shuffle(rng);
        p
    }

    fn random_relabel(inst: &Instance, rng: &mut StdRng) -> (Instance, Relabeling) {
        let node = random_perm(inst.n, rng);
        let edges = random_perm(inst.edges.len(), rng);
        let players = random_perm(inst.players.len(), rng);
        let (mut out, map) = relabel(inst, &node, &edges, &players);
        // Random endpoint presentation (does not touch edge identity).
        for e in &mut out.edges {
            if rng.random_bool(0.5) {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        (out, map)
    }

    fn random_broadcast(rng: &mut StdRng) -> Instance {
        let game = match rng.random_range(0..4u32) {
            0 => {
                let g = generators::random_connected(rng.random_range(4..12), 0.4, rng, 0.2..4.0);
                NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
            }
            1 => {
                let g = generators::cycle_graph(rng.random_range(4..10), 1.0);
                NetworkDesignGame::broadcast(g, NodeId(rng.random_range(0..4))).unwrap()
            }
            2 => {
                let g = generators::grid_graph(2, rng.random_range(2..5), 1.0);
                NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
            }
            _ => {
                let g =
                    generators::preferential_attachment(rng.random_range(5..12), 2, rng, 0.3..3.0);
                NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
            }
        };
        instance_of(&game, None)
    }

    fn random_general(rng: &mut StdRng, weighted: bool) -> Instance {
        let n = rng.random_range(4..10);
        let g = generators::random_connected(n, 0.4, rng, 0.2..4.0);
        let mut players = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while players.len() < (n / 2).max(1) {
            let s = rng.random_range(0..n as u32);
            let t = rng.random_range(0..n as u32);
            if s != t && seen.insert((s, t)) {
                players.push(Player {
                    source: NodeId(s),
                    terminal: NodeId(t),
                });
            }
        }
        let k = players.len();
        let game = NetworkDesignGame::new(g, players).unwrap();
        let demands = weighted.then(|| {
            (0..k)
                .map(|_| rng.random_range(1.0..3.0))
                .collect::<Vec<_>>()
        });
        instance_of(&game, demands)
    }

    #[test]
    fn canonical_form_is_invariant_under_relabeling() {
        let mut rng = StdRng::seed_from_u64(0xCA01);
        for round in 0..60 {
            let inst = match round % 3 {
                0 => random_broadcast(&mut rng),
                1 => random_general(&mut rng, false),
                _ => random_general(&mut rng, true),
            };
            let (canon, _) = canonicalize(&inst).expect("small instances stay in budget");
            for _ in 0..3 {
                let (relabeled, _) = random_relabel(&inst, &mut rng);
                let (canon2, _) = canonicalize(&relabeled).expect("budget");
                assert_eq!(
                    canon, canon2,
                    "round {round}: canonical forms of isomorphic instances must coincide\n\
                     base:      {inst:?}\nrelabeled: {relabeled:?}"
                );
            }
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(0xCA02);
        for round in 0..40 {
            let inst = match round % 3 {
                0 => random_broadcast(&mut rng),
                1 => random_general(&mut rng, false),
                _ => random_general(&mut rng, true),
            };
            let (canon, _) = canonicalize(&inst).expect("budget");
            let (canon2, _) = canonicalize(&canon).expect("budget");
            assert_eq!(canon, canon2, "canon(canon(G)) == canon(G): {inst:?}");
        }
    }

    #[test]
    fn relabeling_round_trips_every_payload_shape() {
        let mut rng = StdRng::seed_from_u64(0xCA03);
        for _ in 0..30 {
            let inst = random_general(&mut rng, true);
            let (_, map) = canonicalize(&inst).expect("budget");
            let m = inst.edges.len();
            let k = inst.players.len();
            let edge_set: Vec<EdgeId> = (0..m as u32)
                .filter(|_| rng.random_bool(0.5))
                .map(EdgeId)
                .collect();
            assert_eq!(
                map.unapply_edge_set(&map.apply_edge_set(&edge_set)),
                edge_set
            );
            let b: Vec<f64> = (0..m).map(|_| rng.random_range(0.0..2.0)).collect();
            assert_eq!(map.unapply_edge_values(&map.apply_edge_values(&b)), b);
            let costs: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..9.0)).collect();
            assert_eq!(
                map.unapply_player_values(&map.apply_player_values(&costs)),
                costs
            );
            let paths: Vec<Vec<EdgeId>> = (0..k)
                .map(|_| {
                    (0..rng.random_range(0..4))
                        .map(|_| EdgeId(rng.random_range(0..m as u32)))
                        .collect()
                })
                .collect();
            assert_eq!(map.unapply_paths(&map.apply_paths(&paths)), paths);
            assert_eq!(map.inverse().inverse(), map);
        }
    }

    /// Costs are label-invariant *bit for bit* when states and subsidies
    /// are carried through the same relabeling: the per-edge floats move
    /// untouched and each path keeps its summation order.
    #[test]
    fn core_state_and_subsidies_map_with_bit_identical_costs() {
        let mut rng = StdRng::seed_from_u64(0xCA04);
        for _ in 0..25 {
            let n = rng.random_range(4..11);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..4.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let inst = instance_of(&game, None);
            let tree = kruskal(game.graph()).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let mut b = SubsidyAssignment::zero(game.graph());
            for e in game.graph().edge_ids() {
                if rng.random_bool(0.4) {
                    let w = game.graph().weight(e);
                    b.set(game.graph(), e, w * rng.random_range(0.0..1.0));
                }
            }
            let (canon, map) = canonicalize(&inst).expect("budget");
            // Rebuild the canonical game.
            let mut cg = ndg_graph::Graph::new(canon.n);
            for &(u, v, w) in &canon.edges {
                cg.add_edge(NodeId(u), NodeId(v), w).unwrap();
            }
            let cgame = NetworkDesignGame::broadcast(cg, NodeId(canon.root.unwrap())).unwrap();
            let cstate = map.apply_state(&cgame, &state).expect("state maps");
            let cb = map.apply_subsidies(cgame.graph(), &b).expect("b maps");
            for i in 0..game.num_players() {
                let lit = player_cost(&game, &state, &b, i);
                let canon_cost = player_cost(&cgame, &cstate, &cb, map.apply_player(i));
                assert_eq!(
                    lit.to_bits(),
                    canon_cost.to_bits(),
                    "player {i}: cost must move bit-exactly through the relabeling"
                );
            }
        }
    }

    #[test]
    fn symmetric_twin_heavy_instances_stay_in_budget() {
        // A star with 40 identical leaves: one twin cell, no branching.
        let mut g = ndg_graph::Graph::new(41);
        for v in 1..41u32 {
            g.add_edge(NodeId(0), NodeId(v), 1.0).unwrap();
        }
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let inst = instance_of(&game, None);
        let (canon, _) = canonicalize(&inst).expect("twin cells must not branch");
        assert_eq!(canon.edges.len(), 40);
        // And the unit cycle (dihedral symmetry, 2-cells): in budget too.
        let game =
            NetworkDesignGame::broadcast(generators::cycle_graph(24, 1.0), NodeId(3)).unwrap();
        assert!(canonicalize(&instance_of(&game, None)).is_some());
    }

    #[test]
    fn unmappable_and_oversized_instances_fall_back() {
        // Endpoint out of range.
        let bad = Instance {
            n: 2,
            edges: vec![(0, 7, 1.0)],
            root: Some(0),
            players: Vec::new(),
            demands: None,
        };
        assert!(canonicalize(&bad).is_none());
        // Demand length mismatch.
        let bad = Instance {
            n: 3,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
            root: None,
            players: vec![(0, 2)],
            demands: Some(vec![1.0, 2.0]),
        };
        assert!(canonicalize(&bad).is_none());
        // Too many nodes.
        let big = Instance {
            n: CANON_MAX_NODES + 1,
            edges: Vec::new(),
            root: None,
            players: Vec::new(),
            demands: None,
        };
        assert!(canonicalize(&big).is_none());
    }

    #[test]
    fn huge_symmetric_instances_trip_the_work_budget_fast() {
        // A wire-legal 4096-node unit cycle: refinement alone needs
        // ~n/2 rounds of O(n) work to spread the root's colour, so the
        // work budget must abort it (in milliseconds, not seconds — this
        // sits on the serving path for attacker-supplied instances).
        let n = CANON_MAX_NODES;
        let game =
            NetworkDesignGame::broadcast(generators::cycle_graph(n, 1.0), NodeId(0)).unwrap();
        let inst = instance_of(&game, None);
        let t0 = std::time::Instant::now();
        assert!(canonicalize(&inst).is_none(), "must fall back to literal");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "fallback must be cheap, took {:?}",
            t0.elapsed()
        );
        // The automorphism path mirrors the fallback: trivial group.
        assert!(automorphisms(&inst).is_empty());
    }

    /// Every returned generator must be a genuine automorphism: a node
    /// bijection fixing the root whose induced edge map preserves
    /// endpoint structure and weight bits exactly.
    fn assert_sound_generators(inst: &Instance, gens: &AutGenerators) {
        for (g, (node, edge)) in gens.node.iter().zip(&gens.edge).enumerate() {
            let mut hit = vec![false; inst.n];
            for &x in node {
                assert!(!std::mem::replace(&mut hit[x as usize], true), "gen {g}");
            }
            if let Some(r) = inst.root {
                assert_eq!(node[r as usize], r, "gen {g} must fix the root");
            }
            let mut ehit = vec![false; inst.edges.len()];
            for (e, &img) in edge.iter().enumerate() {
                assert!(
                    !std::mem::replace(&mut ehit[img as usize], true),
                    "gen {g}: edge map not a bijection"
                );
                let (u, v, w) = inst.edges[e];
                let (a, b, _) = inst.edges[img as usize];
                let (x, y) = (node[u as usize], node[v as usize]);
                assert_eq!(
                    (x.min(y), x.max(y)),
                    (a.min(b), a.max(b)),
                    "gen {g}: edge {e} endpoints must map onto its image"
                );
                assert_eq!(
                    w.to_bits(),
                    inst.edges[img as usize].2.to_bits(),
                    "gen {g}: weight bits must be preserved"
                );
            }
        }
    }

    #[test]
    fn rooted_cycle_automorphisms_are_the_reflection() {
        // C_12 rooted at 0: Aut = {id, v ↦ −v mod 12}. The discovered
        // generators must be sound, non-empty, and their edge orbits
        // must pair each path edge with its mirror (6 orbits of 2).
        let game =
            NetworkDesignGame::broadcast(generators::cycle_graph(12, 1.0), NodeId(0)).unwrap();
        let inst = instance_of(&game, None);
        let gens = automorphisms(&inst);
        assert!(!gens.is_empty(), "the reflection must be discovered");
        assert_sound_generators(&inst, &gens);
        let orbits = edge_orbits(inst.edges.len(), &gens.edge);
        let mut sizes = std::collections::HashMap::new();
        for &o in &orbits {
            *sizes.entry(o).or_insert(0usize) += 1;
        }
        assert_eq!(sizes.len(), 6, "12 edges in 6 mirror pairs: {orbits:?}");
        assert!(sizes.values().all(|&s| s == 2), "{orbits:?}");
    }

    #[test]
    fn rooted_hypercube_automorphisms_fuse_root_edges() {
        // Q3 rooted at 0: vertex stabilizer ≅ S_3 permutes the three
        // root-incident edges transitively.
        let game =
            NetworkDesignGame::broadcast(generators::hypercube_graph(3, 1.0), NodeId(0)).unwrap();
        let inst = instance_of(&game, None);
        let gens = automorphisms(&inst);
        assert!(!gens.is_empty());
        assert_sound_generators(&inst, &gens);
        let orbits = edge_orbits(inst.edges.len(), &gens.edge);
        let root_edges: Vec<usize> = inst
            .edges
            .iter()
            .enumerate()
            .filter(|(_, &(u, v, _))| u == 0 || v == 0)
            .map(|(e, _)| e)
            .collect();
        assert_eq!(root_edges.len(), 3);
        assert!(
            root_edges
                .iter()
                .all(|&e| orbits[e] == orbits[root_edges[0]]),
            "root-incident edges must share an orbit: {orbits:?}"
        );
    }

    #[test]
    fn random_instance_generators_are_sound_and_attachment_aware() {
        let mut rng = StdRng::seed_from_u64(0xCA05);
        for round in 0..30 {
            let inst = match round % 3 {
                0 => random_broadcast(&mut rng),
                1 => random_general(&mut rng, false),
                _ => random_general(&mut rng, true),
            };
            let gens = automorphisms(&inst);
            assert_sound_generators(&inst, &gens);
        }
        // Attachments must break symmetry: subsidizing one spoke of a
        // uniform star kills the automorphisms that move it.
        let game = NetworkDesignGame::broadcast(generators::star_graph(6, 1.0), NodeId(0)).unwrap();
        let inst = instance_of(&game, None);
        let bare = automorphisms(&inst);
        assert!(!bare.is_empty(), "uniform star leaves are twins");
        let mut b = vec![0.0; inst.edges.len()];
        b[2] = 0.5;
        let att = Attachments {
            edge_vectors: vec![b],
            ..Attachments::default()
        };
        let decorated = automorphisms_with(&inst, &att);
        assert_sound_generators(&inst, &decorated);
        for edge in &decorated.edge {
            assert_eq!(edge[2], 2, "no generator may move the subsidized spoke");
        }
    }

    #[test]
    fn twin_heavy_instances_report_generators_within_the_cap() {
        // 40 identical leaves: candidates are capped but the returned
        // subgroup is still sound and non-trivial.
        let game =
            NetworkDesignGame::broadcast(generators::star_graph(41, 1.0), NodeId(0)).unwrap();
        let inst = instance_of(&game, None);
        let gens = automorphisms(&inst);
        assert!(!gens.is_empty());
        assert!(gens.len() <= 64, "candidate cap respected");
        assert_sound_generators(&inst, &gens);
        // All leaf edges collapse into one orbit under the subgroup or
        // several — either way every orbit member count sums to 40.
        let orbits = edge_orbits(inst.edges.len(), &gens.edge);
        assert_eq!(orbits.len(), 40);
    }
}
