//! Incremental best-response engine: O(Δ)-per-move potential and cost
//! maintenance plus bound-filtered best responses.
//!
//! The game admits Rosenthal's exact potential
//! `Φ(T; b) = Σ_a (w_a − b_a) H_{n_a(T)}`, so a move by player `i` changes
//! `Φ` only on the edges whose usage count changed: an edge leaving `i`'s
//! path (usage `k → k−1`) contributes `−(w−b)/k`, an edge joining it
//! (usage `k → k+1`) contributes `+(w−b)/(k+1)`. The same usage deltas
//! drive the co-users' cost shares. This engine maintains Φ, every
//! player's current cost, and per-edge user lists under those deltas —
//! `O(|old path| + |new path| + Σ_{a changed} n_a)` per move instead of the
//! naive full `O(m)` potential recompute — and cross-checks against the
//! from-scratch [`rosenthal_potential`] behind `debug_assert`s.
//!
//! Best responses go through three layers:
//!
//! 1. the maintained Lemma-2 view ([`crate::recert`]): on tree-induced
//!    broadcast states the certifier absorbs each elementary move in
//!    O(Δ) and answers the *global* "is anything left to do?" question
//!    ([`IncrementalDynamics::maintained_equilibrium`]) — the moment it
//!    turns true, every remaining turn declines in O(1) without probing
//!    (Lemma 2 is global-only: a single player's clean margins do *not*
//!    certify that she cannot improve, so no per-player skipping);
//! 2. a shared *optimistic* Dijkstra ([`crate::bounds`]) that certifies
//!    which players provably cannot improve — the sound replacement for
//!    a "dirty player" cache (a player's best response can route through
//!    an edge it never touched before, so cache invalidation by touched
//!    edges is unsound; the admissible bound is not);
//! 3. an exact per-player Dijkstra in a reusable
//!    [`ndg_graph::DijkstraWorkspace`] for the few suspects that survive
//!    the filter.
//!
//! The probe/Dijkstra weight functions resolve both factors of the
//! deviation weight in O(1): the player's own-path membership via
//! generation-stamped marks, and the shared `(w−b)/(n+1)` factor via a
//! `w_opt` array maintained under the same O(Δ) usage deltas as Φ (the
//! naive path recomputes both per relaxed edge — an `O(depth)` scan plus
//! a division).
//!
//! All per-player decisions (which player moves, which path, whether the
//! improvement is strict) evaluate exactly the same floating-point
//! expressions as the naive driver, so dynamics traces are reproduced
//! move for move. The one exception is Lemma 2 certification — batched
//! ([`crate::batch`]) or maintained ([`crate::recert`]) — on tree-induced
//! broadcast states, whose "no move left" answer matches the per-player
//! scan up to a per-constraint tolerance caveat documented in
//! [`crate::batch`].

use crate::batch::{BatchCertification, BatchCertifier};
use crate::bounds::OptimisticBounds;
use crate::cost::player_cost;
use crate::game::NetworkDesignGame;
use crate::num::strictly_lt;
use crate::potential::rosenthal_potential;
use crate::recert::{CertifierStats, IncrementalCertifier};
use crate::state::State;
use crate::subsidy::SubsidyAssignment;
use ndg_graph::paths::DijkstraWorkspace;
use ndg_graph::EdgeId;

/// Profiling counters (no-ops until `ndg_obs::install`): all-players
/// certification attempts answered by the maintained O(Δ) Lemma-2 view
/// vs falling back to a scratch sweep because a non-elementary move
/// invalidated it.
static DYN_MAINTAINED_CERTS: ndg_obs::Counter = ndg_obs::Counter::new("dyn_maintained_total");
static DYN_SCRATCH_FALLBACKS: ndg_obs::Counter =
    ndg_obs::Counter::new("dyn_scratch_fallback_total");

/// Recompute costs and potential from scratch every this many moves, to
/// keep incremental float drift far below the comparison tolerances.
const REFRESH_EVERY: usize = 4096;

/// Fully re-tighten the optimistic bounds (one Dijkstra per terminal)
/// every this many moves; in between they are repaired incrementally and
/// only drift looser.
const BOUNDS_REFRESH_EVERY: usize = 8;

/// Attempt the batched Lemma 2 certification in
/// [`IncrementalDynamics::best_improving_move`] only when at least this
/// many players survive the cached-bound filter — below that, the
/// per-player probes are cheaper than an `O(m·depth)` sweep.
const BATCH_CERTIFY_MIN_CANDIDATES: usize = 32;

/// The deviation weight `(w_e − b_e)/(n_e(T) + 1 − n_e^i(T))` with both
/// factors resolved in O(1): own-path membership via the generation
/// marks, the shared `/(n+1)` factor via the maintained `w_opt` cache.
/// Bit-identical to [`crate::cost::deviation_weight`] — every probe,
/// exact Dijkstra and path-cost sum in this engine must route through
/// this one expression.
#[inline]
fn marked_deviation_weight(
    marks: &[u32],
    gen: u32,
    state: &State,
    residual: &[f64],
    w_opt: &[f64],
    e: EdgeId,
) -> f64 {
    let ei = e.index();
    if marks[ei] == gen {
        residual[ei] / state.usage(e) as f64
    } else {
        w_opt[ei]
    }
}

/// One applied improving move.
#[derive(Clone, Copy, Debug)]
pub struct MoveRecord {
    /// The player that moved.
    pub player: usize,
    /// Her cost before the move.
    pub old_cost: f64,
    /// Her cost after the move (the best-response cost).
    pub new_cost: f64,
}

/// Incrementally maintained dynamics state over a fixed game + subsidies.
pub struct IncrementalDynamics<'a> {
    game: &'a NetworkDesignGame,
    b: &'a SubsidyAssignment,
    state: State,
    /// Rosenthal potential, maintained by per-edge usage deltas.
    phi: f64,
    /// `costs[i]` = player `i`'s current cost, maintained incrementally.
    costs: Vec<f64>,
    /// `users[e]` = players whose current path contains `e`.
    users: Vec<Vec<u32>>,
    bounds: OptimisticBounds,
    bounds_fresh: bool,
    ws: DijkstraWorkspace,
    /// Best-response path scratch (the pending move's path).
    path_buf: Vec<EdgeId>,
    /// Winner's path scratch for max-gain selection.
    best_path_buf: Vec<EdgeId>,
    /// Max-gain candidate scratch: `(gain upper bound, player, current)`.
    cand_buf: Vec<(f64, u32, f64)>,
    /// Generation-stamped membership marks for the old/new path edge sets.
    in_old: Vec<u32>,
    in_new: Vec<u32>,
    mark_gen: u32,
    /// Generation-stamped membership marks for the probing player's own
    /// path (O(1) `n_a^i(T)` lookups inside probe/Dijkstra weight fns).
    path_mark: Vec<u32>,
    path_gen: u32,
    /// `residual[e] = w_e − b_e`, precomputed once (game and subsidies
    /// are fixed for the engine's lifetime).
    residual: Vec<f64>,
    /// `w_opt[e] = residual[e]/(n_e(T)+1)` — the non-own-path deviation
    /// weight — maintained under the same O(Δ) usage deltas as Φ. Probe
    /// and Dijkstra weight fns read it instead of recomputing the
    /// division per edge relaxation (identical expression, same floats).
    w_opt: Vec<f64>,
    /// The pending move's usage-increased edges (for bound repair).
    added_buf: Vec<EdgeId>,
    /// Invariant: player `i`'s best response ≥ `br_lb[i]` −
    /// [`crate::bounds::BOUND_SLACK`] (the slack absorbs all float
    /// noise). Anchored by exact evaluations and probes; when an edge
    /// gets cheaper (usage increase), each player's bound is lowered to
    /// the reverse-triangle bound on paths through that edge instead of
    /// being discarded — the sound replacement for a dirty-player cache,
    /// and the reason repeated certification is O(1) per player.
    br_lb: Vec<f64>,
    moves_applied: usize,
    /// Batched Lemma-2 certification for tree-induced broadcast states
    /// (one `O(m·depth)` sweep for all players instead of `n` probes) —
    /// the scratch path, used when the maintained view is invalid.
    batch: BatchCertifier,
    /// Incrementally maintained tree view + Lemma-2 margins (see
    /// [`crate::recert`]): consulted through the *global* equilibrium
    /// answer, which working rounds read in O(1) memoized per turn.
    recert: IncrementalCertifier,
    /// Move count at the last *failed* adoption attempt — at most one
    /// O(m) re-adoption attempt per state version.
    recert_stamp: usize,
    /// Memoized "the current state is a maintained-certified equilibrium"
    /// answer (reset on every applied move / re-adoption), so a round of
    /// post-convergence queries costs one O(Δ)-incremental certification
    /// plus O(1) per player.
    maintained_eq: Option<bool>,
    /// Established-set deltas of the pending move (usage `1 → 0` /
    /// `0 → 1`), collected for [`IncrementalCertifier::on_move`].
    dropped_est_buf: Vec<EdgeId>,
    added_est_buf: Vec<EdgeId>,
}

impl<'a> IncrementalDynamics<'a> {
    /// Build the engine over `state` (costs, potential and user lists are
    /// computed from scratch once here).
    pub fn new(game: &'a NetworkDesignGame, state: State, b: &'a SubsidyAssignment) -> Self {
        let mut recert = IncrementalCertifier::new();
        recert.adopt(game, &state, b);
        Self::with_certifier(game, state, b, recert, None)
    }

    /// Build the engine around a certifier that has already tried to
    /// adopt `state` (no second attempt is made), with its memoized
    /// equilibrium answer for `state` if one was asked.
    pub(crate) fn with_certifier(
        game: &'a NetworkDesignGame,
        state: State,
        b: &'a SubsidyAssignment,
        recert: IncrementalCertifier,
        maintained_eq: Option<bool>,
    ) -> Self {
        let g = game.graph();
        let n = game.num_players();
        let m = g.edge_count();
        let mut users: Vec<Vec<u32>> = vec![Vec::new(); m];
        for i in 0..n {
            for &e in state.path(i) {
                users[e.index()].push(i as u32);
            }
        }
        let costs = (0..n).map(|i| player_cost(game, &state, b, i)).collect();
        let phi = rosenthal_potential(game, &state, b);
        let residual: Vec<f64> = g.edge_ids().map(|e| b.residual(g, e)).collect();
        let w_opt: Vec<f64> = g
            .edge_ids()
            .map(|e| residual[e.index()] / (state.usage(e) + 1) as f64)
            .collect();
        IncrementalDynamics {
            game,
            b,
            phi,
            costs,
            users,
            bounds: OptimisticBounds::new(game),
            bounds_fresh: false,
            ws: DijkstraWorkspace::new(g.node_count()),
            path_buf: Vec::new(),
            best_path_buf: Vec::new(),
            cand_buf: Vec::new(),
            in_old: vec![0; m],
            in_new: vec![0; m],
            mark_gen: 0,
            path_mark: vec![0; m],
            path_gen: 0,
            residual,
            w_opt,
            added_buf: Vec::new(),
            br_lb: vec![f64::NEG_INFINITY; n],
            moves_applied: 0,
            batch: BatchCertifier::new(),
            recert,
            // The caller's adoption attempt was move 0's.
            recert_stamp: 0,
            maintained_eq,
            dropped_est_buf: Vec::new(),
            added_est_buf: Vec::new(),
            state,
        }
    }

    /// The current state.
    #[inline]
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Consume the engine, returning the final state.
    pub fn into_state(self) -> State {
        self.state
    }

    /// The incrementally maintained Rosenthal potential `Φ(T; b)`.
    #[inline]
    pub fn potential(&self) -> f64 {
        self.phi
    }

    /// Player `i`'s incrementally maintained current cost.
    #[inline]
    pub fn cached_cost(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// Player `i`'s current cost, recomputed from her path (the exact
    /// floats the naive driver would see).
    #[inline]
    pub fn current_cost(&self, i: usize) -> f64 {
        player_cost(self.game, &self.state, self.b, i)
    }

    fn ensure_bounds(&mut self) {
        if !self.bounds_fresh {
            self.bounds.refresh(self.game, &self.state, self.b);
            self.bounds_fresh = true;
            // The fresh optimistic surface may beat stale cached anchors.
            for i in 0..self.game.num_players() {
                self.br_lb[i] = self.br_lb[i].max(self.bounds.lower(i));
            }
        }
    }

    /// Cached lower bound on `i`'s best response in the current state.
    #[inline]
    fn effective_br_lb(&self, i: usize) -> f64 {
        self.br_lb[i]
    }

    /// Anchor `i`'s cached best-response lower bound at `value` (valid
    /// for the current state).
    #[inline]
    fn anchor_br_lb(&mut self, i: usize, value: f64) {
        self.br_lb[i] = value;
    }

    /// Stamp player `i`'s current path edges into the generation-marked
    /// membership array, so the per-edge deviation weight inside her
    /// probe/Dijkstra resolves `n_a^i(T)` in O(1) instead of scanning her
    /// path per relaxed edge ([`crate::cost::deviation_weight`] is the
    /// same float expression with an `O(|path|)` membership scan — a
    /// hidden `O(depth)` factor on every edge relaxation).
    fn mark_path(&mut self, i: usize) {
        if self.path_gen == u32::MAX {
            self.path_mark.fill(0);
            self.path_gen = 0;
        }
        self.path_gen += 1;
        let gen = self.path_gen;
        for &e in self.state.path(i) {
            self.path_mark[e.index()] = gen;
        }
    }

    /// Exact best response of `i` into `path_buf`; returns its cost —
    /// bit-identical to [`crate::equilibrium::best_response_with`] (same
    /// Dijkstra, same weight floats; membership via the path marks).
    fn best_response_exact(&mut self, i: usize) -> f64 {
        self.mark_path(i);
        let g = self.game.graph();
        let player = self.game.players()[i];
        let (ws, marks, gen, state, residual, w_opt) = (
            &mut self.ws,
            &self.path_mark,
            self.path_gen,
            &self.state,
            &self.residual,
            &self.w_opt,
        );
        let weight = |e| marked_deviation_weight(marks, gen, state, residual, w_opt, e);
        ws.run(g, player.source, Some(player.terminal), weight);
        let reached = ws.path_into(g, player.terminal, &mut self.path_buf);
        assert!(reached, "game validation guarantees a connecting path");
        self.path_buf.iter().map(|&e| weight(e)).sum()
    }

    /// Bounded A* probe for player `i`: `Some(value)` if some deviation
    /// path costs strictly below `bound`, `None` as a certificate that
    /// none does. Explores only the corridor of near-improving routes —
    /// the reason certification rounds need no per-player Dijkstra.
    /// Requires fresh-or-repaired bounds.
    fn probe_below(&mut self, i: usize, bound: f64) -> Option<f64> {
        self.mark_path(i);
        let g = self.game.graph();
        let player = self.game.players()[i];
        let (ws, marks, gen, state, residual, w_opt) = (
            &mut self.ws,
            &self.path_mark,
            self.path_gen,
            &self.state,
            &self.residual,
            &self.w_opt,
        );
        ws.astar_below(
            g,
            player.source,
            player.terminal,
            self.bounds.heuristic(i),
            bound,
            |e| marked_deviation_weight(marks, gen, state, residual, w_opt, e),
        )
    }

    /// Whether `i` might strictly improve on `current`, layered cheapest
    /// first: the O(1) cached bound, then the bounded A* probe (whose
    /// answer re-anchors the cache). `Some(value)` must be confirmed by
    /// the exact Dijkstra.
    ///
    /// The probe runs with *headroom* above the decision threshold: a
    /// certificate at exactly the threshold would be invalidated by any
    /// subsequent knockdown, so buying a certificate 10% higher keeps the
    /// player cache-certified across other players' small moves at a
    /// modest widening of the A* corridor.
    fn probe_improvement(&mut self, i: usize, current: f64) -> Option<f64> {
        let threshold = current - crate::num::EPS + crate::bounds::BOUND_SLACK;
        if self.effective_br_lb(i).partial_cmp(&threshold) != Some(std::cmp::Ordering::Less) {
            return None;
        }
        let headroom = 0.1 * current.abs();
        let outcome = self.probe_below(i, threshold + headroom);
        match outcome {
            None => {
                self.anchor_br_lb(i, threshold + headroom);
                None
            }
            Some(value) => {
                self.anchor_br_lb(i, value);
                if value < threshold {
                    Some(value)
                } else {
                    None
                }
            }
        }
    }

    /// Give player `i` a chance to move (the round-robin step): returns
    /// the applied move, or `None` if she has no strict improvement. The
    /// cache/probe layers certify most "no" answers in O(1) / a few node
    /// expansions; only genuine improvers pay for the naive-identical
    /// Dijkstra that picks the actual path.
    pub fn try_improve(&mut self, i: usize) -> Option<MoveRecord> {
        let current = self.current_cost(i);
        self.ensure_bounds();
        self.probe_improvement(i, current)?;
        let cost = self.best_response_exact(i);
        self.anchor_br_lb(i, cost);
        if !strictly_lt(cost, current) {
            return None;
        }
        self.apply_pending_move(i, current, cost);
        Some(MoveRecord {
            player: i,
            old_cost: current,
            new_cost: cost,
        })
    }

    /// Re-adopt the live state into the maintained certifier if a
    /// non-elementary move invalidated it — at most one O(m) attempt per
    /// state version (failed attempts are not retried until the next
    /// move).
    fn try_revalidate(&mut self) {
        if self.recert.is_valid() || self.recert_stamp == self.moves_applied {
            return;
        }
        self.recert_stamp = self.moves_applied;
        if self.recert.adopt(self.game, &self.state, self.b) {
            self.maintained_eq = None;
        }
    }

    /// Whether the *current* state is a maintained-certified equilibrium:
    /// `Some(true)` certifies that **no** player can strictly improve (so
    /// every remaining round-robin turn declines without probing),
    /// `Some(false)` means some maintained Lemma-2 constraint is violated
    /// (the state will keep evolving), `None` means the maintained view is
    /// invalid and the caller must use the probe/sweep path.
    ///
    /// Soundness note: Lemma 2 is a *global* condition — a single player's
    /// clean margins do **not** certify that she cannot improve (her best
    /// deviation may enter the tree through another node's non-tree
    /// adjacency), so per-player margin skipping would change decisions.
    /// The all-players answer is exactly the sweep's and is memoized, so a
    /// post-convergence round costs one incremental certification (dirty
    /// margins only) plus O(1) per player.
    pub fn maintained_equilibrium(&mut self) -> Option<bool> {
        self.try_revalidate();
        if !self.recert.is_valid() {
            return None;
        }
        if let Some(known) = self.maintained_eq {
            return Some(known);
        }
        let eq = self
            .recert
            .equilibrium(self.game, self.b)
            .expect("view is valid");
        self.maintained_eq = Some(eq);
        Some(eq)
    }

    /// Counters describing the maintained certifier's work so far.
    pub fn certifier_stats(&self) -> CertifierStats {
        self.recert.stats()
    }

    /// Batched all-players certification attempt: the maintained Lemma-2
    /// view when it is live (bit-identical to the scratch sweep, but only
    /// dirty players are re-evaluated), else one scratch Lemma 2 sweep on
    /// tree-induced states (see [`crate::batch`]). `NotApplicable` means
    /// the caller must use the per-player path.
    pub fn batch_certify(&mut self) -> BatchCertification {
        self.try_revalidate();
        if self.recert.is_valid() {
            DYN_MAINTAINED_CERTS.inc();
            return self.recert.certify(self.game, self.b);
        }
        DYN_SCRATCH_FALLBACKS.inc();
        self.batch.certify(self.game, &self.state, self.b)
    }

    /// `true` iff the batch sweep applies *and* certifies the current
    /// state as an equilibrium. `false` means "fall back to per-player
    /// probing" — either the sweep found a violation (some player will
    /// move) or the state is not tree-induced.
    pub fn batch_certified_equilibrium(&mut self) -> bool {
        matches!(self.batch_certify(), BatchCertification::Equilibrium)
    }

    /// Apply the single best improving move (the max-gain step), or return
    /// `None` if no player can strictly improve.
    ///
    /// Exactness without n full Dijkstras: each player's gain is bounded
    /// above through the O(1) drift-corrected cache, candidates are
    /// visited in decreasing bound order, each visit tightens its bound
    /// with an A* probe before paying for the exact Dijkstra, and the
    /// scan stops as soon as the best exact gain dominates every
    /// remaining bound — typically after the single top candidate. Ties
    /// on the exact gain resolve to the smallest player index, matching
    /// the naive scan.
    pub fn best_improving_move(&mut self) -> Option<MoveRecord> {
        // Maintained certification first: after the previous move the
        // incremental view re-certified only the O(Δ) dirty margins, so
        // the final "no move left" call — the expensive one in the naive
        // scan — is answered here without touching the probe layer.
        let maintained = self.maintained_equilibrium();
        if maintained == Some(true) {
            return None;
        }
        self.ensure_bounds();
        let maintained = maintained.is_some();
        let eps = crate::num::EPS;
        let slack = crate::bounds::BOUND_SLACK;
        let mut cands = std::mem::take(&mut self.cand_buf);
        cands.clear();
        for i in 0..self.game.num_players() {
            let current = self.current_cost(i);
            let ub = current - self.effective_br_lb(i) + slack;
            if ub > eps {
                cands.push((ub, i as u32, current));
            }
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        // (gain, i, current, cost) of the best improver found so far.
        let mut best: Option<(f64, u32, f64, f64)> = None;
        // Lazy batched certification: mid-dynamics the top-ranked candidate
        // improves immediately and no sweep is worth running, but when the
        // leading candidates all probe out empty this is almost certainly
        // the final certification call — and if the state is tree-induced,
        // one Lemma 2 sweep settles the remaining candidates at once. A
        // sweep that *does* find a violation (or a non-tree state) just
        // resumes the exact scan, so both the returned move and the
        // certified `None` match the unbatched scan decision for decision.
        let mut swept = false;
        for (scanned, &(ub, i, current)) in cands.iter().enumerate() {
            if let Some((best_gain, ..)) = best {
                if ub < best_gain {
                    break;
                }
            }
            if best.is_none() && !swept && !maintained && scanned >= BATCH_CERTIFY_MIN_CANDIDATES {
                swept = true;
                if self.batch_certified_equilibrium() {
                    self.cand_buf = cands;
                    return None;
                }
            }
            // Tighten with the corridor probe before the full Dijkstra:
            // can i beat the incumbent (or the strict-improvement floor)?
            let floor = match best {
                Some((best_gain, ..)) => current - best_gain + 2.0 * slack,
                None => current - eps + slack,
            };
            match self.probe_below(i as usize, floor) {
                None => {
                    self.anchor_br_lb(i as usize, floor);
                    continue;
                }
                Some(value) => self.anchor_br_lb(i as usize, value),
            }
            let cost = self.best_response_exact(i as usize);
            self.anchor_br_lb(i as usize, cost);
            if !strictly_lt(cost, current) {
                continue;
            }
            let gain = current - cost;
            let wins = match best {
                None => true,
                Some((bg, bi, ..)) => gain > bg || (gain == bg && i < bi),
            };
            if wins {
                best = Some((gain, i, current, cost));
                std::mem::swap(&mut self.best_path_buf, &mut self.path_buf);
            }
        }
        self.cand_buf = cands;

        let (_, i, current, cost) = best?;
        std::mem::swap(&mut self.best_path_buf, &mut self.path_buf);
        self.apply_pending_move(i as usize, current, cost);
        Some(MoveRecord {
            player: i as usize,
            old_cost: current,
            new_cost: cost,
        })
    }

    /// Whether no player has a strict improvement. The cache and A*
    /// layers only skip certified players, and any probe hit is
    /// re-checked with the naive-identical Dijkstra; on tree-induced
    /// broadcast states the answer comes from the batched Lemma 2 sweep
    /// instead, which matches the per-player scan up to the
    /// per-constraint tolerance caveat documented in [`crate::batch`].
    pub fn is_certified_equilibrium(&mut self) -> bool {
        match self.batch_certify() {
            BatchCertification::Equilibrium => return true,
            // A Lemma 2 witness is a strictly profitable deviation, so the
            // exact scan below would also answer `false`.
            BatchCertification::Violation(_) => return false,
            BatchCertification::NotApplicable => {}
        }
        self.ensure_bounds();
        for i in 0..self.game.num_players() {
            let current = self.current_cost(i);
            if self.probe_improvement(i, current).is_none() {
                continue;
            }
            let cost = self.best_response_exact(i);
            self.anchor_br_lb(i, cost);
            if strictly_lt(cost, current) {
                return false;
            }
        }
        true
    }

    /// Adopt `path_buf` as `i`'s strategy, updating Φ, costs and user
    /// lists by the per-edge usage deltas.
    fn apply_pending_move(&mut self, i: usize, old_cost: f64, new_cost: f64) {
        let g = self.game.graph();
        if self.mark_gen == u32::MAX {
            self.in_old.fill(0);
            self.in_new.fill(0);
            self.mark_gen = 0;
        }
        self.mark_gen += 1;
        let gen = self.mark_gen;
        for &e in &self.path_buf {
            self.in_new[e.index()] = gen;
        }
        for &e in self.state.path(i) {
            self.in_old[e.index()] = gen;
        }

        // Edges leaving i's path: usage k → k−1.
        self.dropped_est_buf.clear();
        for &e in self.state.path(i) {
            let ei = e.index();
            if self.in_new[ei] == gen {
                continue;
            }
            let k = self.state.usage(e);
            debug_assert!(k >= 1);
            if k == 1 {
                self.dropped_est_buf.push(e); // leaves the established set
            }
            let r = self.b.residual(g, e);
            self.phi -= r / k as f64;
            self.w_opt[ei] = self.residual[ei] / k as f64; // post-usage k−1
            let list = &mut self.users[ei];
            if k > 1 {
                let delta = r / (k - 1) as f64 - r / k as f64;
                for &j in list.iter() {
                    if j as usize != i {
                        self.costs[j as usize] += delta;
                    }
                }
            }
            let pos = list
                .iter()
                .position(|&j| j as usize == i)
                .expect("user lists track paths");
            list.swap_remove(pos);
        }

        // Edges joining i's path: usage k → k+1.
        self.added_buf.clear();
        self.added_est_buf.clear();
        for &e in &self.path_buf {
            let ei = e.index();
            if self.in_old[ei] == gen {
                continue;
            }
            let k = self.state.usage(e);
            if k == 0 {
                self.added_est_buf.push(e); // joins the established set
            }
            let r = self.b.residual(g, e);
            self.phi += r / (k + 1) as f64;
            self.w_opt[ei] = self.residual[ei] / (k + 2) as f64; // post-usage k+1
            if k > 0 {
                let delta = r / (k + 1) as f64 - r / k as f64;
                for &j in self.users[ei].iter() {
                    self.costs[j as usize] += delta;
                }
            }
            self.users[ei].push(i as u32);
            self.added_buf.push(e);
        }

        self.state.swap_path(i, &mut self.path_buf);
        self.costs[i] = new_cost;
        self.moves_applied += 1;

        // Maintain the Lemma-2 view under the same O(Δ) deltas: an
        // elementary swap updates it in place, anything else invalidates
        // it and a later `try_revalidate` re-adopts the live state.
        self.maintained_eq = None;
        self.recert.on_move(
            self.game,
            &self.state,
            self.b,
            self.game.players()[i].source,
            &self.dropped_est_buf,
            &self.added_est_buf,
        );

        // Repair the heuristic surface for the cheapened edges (keeps it
        // admissible at all times), then weaken each cached best-response
        // bound only as far as those edges warrant. A full per-terminal
        // Dijkstra re-tightens the surface periodically.
        if self.bounds_fresh {
            let added = std::mem::take(&mut self.added_buf);
            self.bounds
                .update_for_added_edges(self.game, &self.state, self.b, &added);
            self.lower_anchors_for_added_edges(&added);
            self.added_buf = added;
        }
        if self.moves_applied.is_multiple_of(BOUNDS_REFRESH_EVERY) {
            self.bounds_fresh = false;
        }
        // The mover sits at her exact best response (her own strategy does
        // not enter her deviation denominators), so her anchor is tight.
        self.anchor_br_lb(i, new_cost);

        // Exact-potential identity: ΔΦ must equal Δcost_i. The from-scratch
        // recompute stays behind debug_assert, exactly as the naive driver
        // kept it on its hot path.
        debug_assert!(
            {
                let full = rosenthal_potential(self.game, &self.state, self.b);
                (full - self.phi).abs() <= 1e-6 * (1.0 + full.abs())
            },
            "incremental Φ drifted from the from-scratch recompute"
        );
        debug_assert!(
            (self.costs[i] - self.current_cost(i)).abs() <= 1e-9 * (1.0 + new_cost.abs()),
            "mover's cached cost disagrees with her path cost"
        );
        let _ = old_cost;

        if self.moves_applied.is_multiple_of(REFRESH_EVERY) {
            self.refresh_from_scratch();
        }
    }

    /// Weaken cached best-response anchors for the cheapened edges: any
    /// *new* improving route for player `j` must pass through some added
    /// edge `a = (u, v)`, and such a route costs at least
    /// `max(0, h(s_j) − h(u)) + w_min(a) + h(v)` (reverse triangle
    /// inequality under the consistent heuristic, plus the edge's minimum
    /// possible share). Anchors drop only to that bound — usually staying
    /// above the certification threshold, which is what keeps certified
    /// players certified across other players' moves.
    fn lower_anchors_for_added_edges(&mut self, added: &[EdgeId]) {
        let g = self.game.graph();
        let players = self.game.players();
        // Second valid bound: a path can cross each cheapened edge at most
        // once, so no best response improves by more than the sum of the
        // worst-case per-edge share drops (usage k → k+1 takes a user's
        // share from r/k to r/(k+1)). Crowded edges drop by O(r/k²),
        // which is what keeps anchors alive through late-stage moves.
        let move_drop: f64 = added
            .iter()
            .map(|&e| {
                let r = self.b.residual(g, e);
                let k = self.state.usage(e); // post-move usage ≥ 1
                if k <= 1 {
                    r / 2.0
                } else {
                    r / ((k - 1) * k) as f64
                }
            })
            .sum();
        for j in 0..players.len() {
            if self.br_lb[j] == f64::NEG_INFINITY {
                continue;
            }
            let h = self.bounds.heuristic(j);
            let hs = h[players[j].source.index()];
            // Reverse-triangle bound over the cheapened edges.
            let mut through = f64::INFINITY;
            for &e in added {
                let r = self.b.residual(g, e);
                let k = self.state.usage(e);
                let w_min = r / (k + 1) as f64;
                let (u, v) = g.endpoints(e);
                let (hu, hv) = (h[u.index()], h[v.index()]);
                let lb = ((hs - hu).max(0.0) + w_min + hv).min((hs - hv).max(0.0) + w_min + hu);
                through = through.min(lb);
            }
            let reverse_triangle = self.br_lb[j].min(through);
            let decrement = self.br_lb[j] - move_drop;
            self.br_lb[j] = reverse_triangle.max(decrement);
        }
    }

    /// Recompute Φ and all costs from scratch (drift control).
    fn refresh_from_scratch(&mut self) {
        self.phi = rosenthal_potential(self.game, &self.state, self.b);
        for i in 0..self.game.num_players() {
            self.costs[i] = self.current_cost(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsidy::SubsidyAssignment;
    use ndg_graph::{generators, kruskal, NodeId};
    use rand::prelude::*;

    fn random_setup(
        rng: &mut StdRng,
        n_range: std::ops::Range<usize>,
    ) -> (NetworkDesignGame, State, SubsidyAssignment) {
        let n = rng.random_range(n_range);
        let g = generators::random_connected(n, 0.5, rng, 0.2..3.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree = kruskal(game.graph()).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let mut b = SubsidyAssignment::zero(game.graph());
        for e in game.graph().edge_ids() {
            if rng.random_bool(0.3) {
                let w = game.graph().weight(e);
                b.set(game.graph(), e, rng.random_range(0.0..=w));
            }
        }
        (game, state, b)
    }

    #[test]
    fn engine_moves_match_naive_best_responses() {
        use crate::equilibrium::best_response;
        let mut rng = StdRng::seed_from_u64(611);
        for _ in 0..20 {
            let (game, state, b) = random_setup(&mut rng, 3..9);
            let mut engine = IncrementalDynamics::new(&game, state.clone(), &b);
            let mut naive_state = state;
            // Round-robin until convergence on both; every decision must
            // agree exactly.
            let mut safety = 0;
            loop {
                safety += 1;
                assert!(safety < 10_000, "dynamics did not converge");
                let mut any = false;
                for i in 0..game.num_players() {
                    let naive_current = player_cost(&game, &naive_state, &b, i);
                    let (naive_path, naive_cost) = best_response(&game, &naive_state, &b, i);
                    let naive_moves = strictly_lt(naive_cost, naive_current);
                    let rec = engine.try_improve(i);
                    assert_eq!(naive_moves, rec.is_some(), "player {i} decision diverged");
                    if let Some(rec) = rec {
                        assert_eq!(rec.new_cost, naive_cost, "best-response cost diverged");
                        naive_state.replace_path(i, naive_path);
                        assert_eq!(engine.state().path(i), naive_state.path(i));
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            assert!(engine.is_certified_equilibrium());
            assert!(crate::equilibrium::is_equilibrium(
                &game,
                engine.state(),
                &b
            ));
        }
    }

    #[test]
    fn max_gain_matches_naive_argmax() {
        use crate::equilibrium::best_response;
        let mut rng = StdRng::seed_from_u64(613);
        for _ in 0..20 {
            let (game, state, b) = random_setup(&mut rng, 3..9);
            let mut engine = IncrementalDynamics::new(&game, state.clone(), &b);
            let mut naive_state = state;
            let mut safety = 0;
            loop {
                safety += 1;
                assert!(safety < 10_000, "dynamics did not converge");
                // Naive argmax scan.
                let mut naive_best: Option<(usize, Vec<ndg_graph::EdgeId>, f64)> = None;
                for i in 0..game.num_players() {
                    let current = player_cost(&game, &naive_state, &b, i);
                    let (path, cost) = best_response(&game, &naive_state, &b, i);
                    if strictly_lt(cost, current) {
                        let gain = current - cost;
                        if naive_best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
                            naive_best = Some((i, path, gain));
                        }
                    }
                }
                let rec = engine.best_improving_move();
                match (naive_best, rec) {
                    (None, None) => break,
                    (Some((i, path, _)), Some(rec)) => {
                        assert_eq!(i, rec.player, "max-gain player diverged");
                        naive_state.replace_path(i, path);
                        assert_eq!(engine.state().path(i), naive_state.path(i));
                    }
                    (a, b) => panic!("max-gain diverged: naive {a:?} vs engine {b:?}"),
                }
            }
        }
    }

    #[test]
    fn incremental_potential_and_costs_track_ground_truth() {
        let mut rng = StdRng::seed_from_u64(617);
        for _ in 0..15 {
            let (game, state, b) = random_setup(&mut rng, 3..10);
            let mut engine = IncrementalDynamics::new(&game, state, &b);
            loop {
                let mut any = false;
                for i in 0..game.num_players() {
                    if engine.try_improve(i).is_some() {
                        any = true;
                        let full = rosenthal_potential(&game, engine.state(), &b);
                        assert!(
                            (engine.potential() - full).abs() < 1e-9,
                            "Φ drift: {} vs {}",
                            engine.potential(),
                            full
                        );
                        for j in 0..game.num_players() {
                            assert!(
                                (engine.cached_cost(j) - engine.current_cost(j)).abs() < 1e-9,
                                "cost drift for player {j}"
                            );
                        }
                    }
                }
                if !any {
                    break;
                }
            }
        }
    }
}
