//! Crash-safe delta sessions: journaled incremental serving.
//!
//! A session pins one `dynamics`-shaped instance (game + initial
//! tree/state + subsidies + move order + round budget) and answers the
//! same question after each applied delta (`patch`/`fail`/`join`),
//! solving *warm* from the previous converged state instead of from the
//! client's original initial state. Every answer is specified
//! byte-identical to a cold solve of the synthesized literal request
//! (`View::cold_request`) — the warm path only changes *where the
//! solve starts*, never what it returns, because the solve itself is the
//! router's one `dynamics` engine either way.
//!
//! The live view and the checkpoint have different forms. The live
//! `View` holds the built game, so a weight patch is a clone of it plus
//! one weight write, and a `fail` or `join` builds the patched game once.
//! The `Checkpoint` keeps the wire form (the literal request with its
//! game spec), about half the memory of a built game; a replay builds it
//! once and steps from there.
//!
//! The robustness spine is a per-session **write-ahead delta journal**
//! behind a **checkpoint**, a view that a replay produced or confirmed:
//! the journal is the [`DeltaOp`] window applied since, and
//! `epoch == checkpoint_epoch + journal.len()` (the applied-delta count,
//! echoed on every response and optimistically checked by `delta`). The
//! op is journaled *before* it is applied; deltas are applied to clones
//! and committed as one whole `View`, so any fault — an injected panic
//! mid-delta, a poisoned session lock, a failed divergence audit —
//! degrades by discarding the incremental view and replaying the window,
//! which reconstructs the exact committed answer. The router derives a
//! view one way only: its `replay` runs, per op in the window, the same
//! `step` (apply + warm solve) the live delta runs, starting from the
//! checkpoint built into a view. `open`'s cold solve is the first
//! checkpoint; a passing audit's replay and every committed recovery
//! become the next. `step` is deterministic, so a replay from a
//! checkpoint equals one from the opened instance. Every recovery,
//! client `resync` included, goes through one commit that replaces the
//! view, counts one resync and emits one `session`/`resync` event; a
//! journal that no longer replays retires the session (`code=internal`,
//! then `session_expired`).
//! Recovered responses carry `resynced=1` in the volatile header, never
//! in the payload.
//!
//! Admission is bounded: at most `--max-sessions` live sessions, with
//! least-recently-used idle eviction. Evicted and closed ids answer
//! `err;code=session_expired` (from a bounded FIFO memory of retired
//! ids) so clients can distinguish "reopen" from "never existed".

use crate::codec::{DeltaOp, Request, WireError, WireGame};
use ndg_core::{NetworkDesignGame, Player, State};
use ndg_graph::paths::dijkstra;
use ndg_graph::{EdgeId, Graph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Open-session gauge (no-op until [`ndg_obs::install`]).
static SESSIONS_OPEN: ndg_obs::Gauge = ndg_obs::Gauge::new("serve_sessions_open");
/// Successfully applied (committed) deltas.
static DELTAS_APPLIED: ndg_obs::Counter = ndg_obs::Counter::new("serve_deltas_applied");
/// Journal replays that replaced an incremental view (panic recovery,
/// poisoned-lock recovery, failed audits, client `resync`).
static SESSION_RESYNCS: ndg_obs::Counter = ndg_obs::Counter::new("serve_session_resyncs");
/// Sampled divergence audits run (every `--audit-every`th delta).
static DIVERGENCE_AUDITS: ndg_obs::Counter = ndg_obs::Counter::new("serve_divergence_audits");
/// Audits whose replay disagreed with the warm view.
static DIVERGENCE_AUDITS_FAILED: ndg_obs::Counter =
    ndg_obs::Counter::new("serve_divergence_audits_failed");
/// Warm steps run by journal replays (audits and recoveries), one per
/// replayed op.
pub(crate) static SESSION_REPLAYED_SOLVES: ndg_obs::Counter =
    ndg_obs::Counter::new("serve_session_replayed_solves");

/// Retired-id memory bound: the FIFO of closed/evicted session ids kept
/// for `session_expired` diagnostics.
const EXPIRED_MEMORY: usize = 4096;

/// Session admission/audit knobs (`--max-sessions`, `--audit-every`).
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Run a divergence audit after every `audit_every`th applied delta
    /// (0 disables auditing).
    pub audit_every: u64,
    /// Live-session cap; opening past it evicts the least-recently-used
    /// session (0 rejects every open with `session_limit`).
    pub max_sessions: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            audit_every: 8,
            max_sessions: 64,
        }
    }
}

/// One committed session answer, live: the built game it answers for,
/// the literal request's knobs, its payload, and the converged state the
/// next delta starts from.
#[derive(Debug)]
pub(crate) struct View {
    /// The literal (`canon=0`) `dynamics` request for the current epoch
    /// without its instance (`game` is `None`): id, subsidy, order,
    /// rounds, and the start tree or paths.
    pub req: Request,
    /// The built instance: the view's only copy of it.
    pub game: NetworkDesignGame,
    /// Its deterministic payload (the session answer's payload bytes).
    pub payload: String,
    /// Converged state (the warm start for the next delta).
    pub state: State,
}

impl View {
    /// The literal cold request whose solve is specified byte-identical
    /// to this view's answer, under `id`: the knobs plus the game spec
    /// derived from the built game (`WireGame::from_game`).
    pub fn cold_request(&self, id: &str) -> Request {
        Request {
            id: id.to_string(),
            game: Some(WireGame::from_game(&self.game, None)),
            ..self.req.clone()
        }
    }

    /// This view in a checkpoint's wire form.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            req: self.cold_request(&self.req.id),
            payload: self.payload.clone(),
            converged: state_paths(&self.state),
        }
    }
}

/// A view a replay produced or confirmed, in wire form: the literal
/// request with its game spec, the payload and the converged paths.
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// Literal (`canon=0`) `dynamics` request for the checkpoint's epoch.
    pub req: Request,
    /// Its deterministic payload.
    pub payload: String,
    /// Converged state paths.
    pub converged: Vec<Vec<EdgeId>>,
}

impl Checkpoint {
    /// Build the checkpoint into a live view: the game once, and the
    /// converged paths validated against it. `None` if the request lost
    /// its instance or either no longer validates.
    pub fn view(&self) -> Option<View> {
        let (game, _) = self.req.game.as_ref()?.build().ok()?;
        let state = State::new(&game, self.converged.clone()).ok()?;
        Some(View {
            req: Request {
                game: None,
                ..self.req.clone()
            },
            game,
            payload: self.payload.clone(),
            state,
        })
    }
}

/// One live session: checkpoint + write-ahead journal window + committed
/// view.
#[derive(Debug)]
pub(crate) struct Session {
    /// The latest view a replay produced or confirmed (`open`'s cold
    /// solve, a passing audit's replay, a committed recovery) — journal
    /// replay starts here.
    pub checkpoint: Checkpoint,
    /// The checkpoint's epoch.
    pub checkpoint_epoch: u64,
    /// The ops applied after the checkpoint (the replay window);
    /// `epoch == checkpoint_epoch + journal.len()`.
    pub journal: Vec<DeltaOp>,
    /// The committed incremental view.
    pub view: View,
    /// Set when a fault may have left `view` unworthy of trust (a
    /// poisoned lock or a panicked `resync`); the next operation replays
    /// the journal before serving.
    pub dirty: bool,
}

impl Session {
    /// The session's current epoch (applied-delta count).
    pub fn epoch(&self) -> u64 {
        self.checkpoint_epoch + self.journal.len() as u64
    }

    /// Make `checkpoint`, a replay's view of the current epoch, the
    /// checkpoint, and drop the window it covers.
    pub fn set_checkpoint(&mut self, checkpoint: Checkpoint) {
        self.checkpoint_epoch = self.epoch();
        self.checkpoint = checkpoint;
        self.journal.clear();
    }
}

/// Monotonic counters behind the `stats` session group.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Sessions ever opened.
    pub opened: AtomicU64,
    /// Sessions retired (closed or LRU-evicted).
    pub expired: AtomicU64,
    /// Committed deltas.
    pub deltas: AtomicU64,
    /// Journal replays that replaced a view.
    pub resyncs: AtomicU64,
    /// Divergence audits run.
    pub audits: AtomicU64,
    /// Divergence audits that found a byte mismatch.
    pub audits_failed: AtomicU64,
}

/// A [`SessionCounters`] snapshot (one relaxed load per field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCountersSnapshot {
    /// Live sessions right now.
    pub open: u64,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions retired (closed or LRU-evicted).
    pub expired: u64,
    /// Committed deltas.
    pub deltas: u64,
    /// Journal replays that replaced a view.
    pub resyncs: u64,
    /// Divergence audits run.
    pub audits: u64,
    /// Divergence audits that found a byte mismatch.
    pub audits_failed: u64,
}

struct Slot {
    sess: Arc<Mutex<Session>>,
    /// Logical LRU stamp (global touch counter at last use).
    touch: u64,
}

struct TableInner {
    sessions: HashMap<String, Slot>,
    /// Bounded FIFO memory of retired ids (for `session_expired`).
    expired_order: VecDeque<String>,
    expired_set: HashSet<String>,
    next_id: u64,
    touches: u64,
}

/// The router's session registry: id assignment, LRU admission, retired-
/// id memory, and the session counters.
pub struct SessionTable {
    inner: Mutex<TableInner>,
    cfg: SessionConfig,
    counters: SessionCounters,
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl SessionTable {
    /// An empty table under `cfg`.
    pub fn new(cfg: SessionConfig) -> Self {
        SessionTable {
            inner: Mutex::new(TableInner {
                sessions: HashMap::new(),
                expired_order: VecDeque::new(),
                expired_set: HashSet::new(),
                next_id: 0,
                touches: 0,
            }),
            cfg,
            counters: SessionCounters::default(),
        }
    }

    /// The admission/audit knobs.
    pub fn config(&self) -> SessionConfig {
        self.cfg
    }

    /// Replace the knobs (serving front ends call this before traffic).
    pub fn set_config(&mut self, cfg: SessionConfig) {
        self.cfg = cfg;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        // The table mutex guards plain bookkeeping (no engine code runs
        // under it), but stay poison-tolerant like the rest of the stack.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit a fresh session, evicting the least-recently-used one at
    /// capacity. Returns the server-assigned session id.
    pub(crate) fn open(&self, sess: Session) -> Result<String, WireError> {
        if self.cfg.max_sessions == 0 {
            return Err(WireError::SessionLimit { max: 0 });
        }
        let mut inner = self.lock();
        while inner.sessions.len() >= self.cfg.max_sessions {
            let Some(victim) = inner
                .sessions
                .iter()
                .min_by_key(|(id, slot)| (slot.touch, (*id).clone()))
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            inner.sessions.remove(&victim);
            retire_id(&mut inner, victim);
            self.counters.expired.fetch_add(1, Ordering::Relaxed);
        }
        inner.next_id += 1;
        let sid = format!("s{}", inner.next_id);
        inner.touches += 1;
        let touch = inner.touches;
        inner.sessions.insert(
            sid.clone(),
            Slot {
                sess: Arc::new(Mutex::new(sess)),
                touch,
            },
        );
        self.counters.opened.fetch_add(1, Ordering::Relaxed);
        SESSIONS_OPEN.set(inner.sessions.len() as u64);
        Ok(sid)
    }

    /// Look a live session up (touching its LRU stamp); retired ids
    /// answer `session_expired`, never-assigned ids `unknown_session`.
    pub(crate) fn get(&self, sid: &str) -> Result<Arc<Mutex<Session>>, WireError> {
        let mut inner = self.lock();
        inner.touches += 1;
        let touch = inner.touches;
        if let Some(slot) = inner.sessions.get_mut(sid) {
            slot.touch = touch;
            return Ok(Arc::clone(&slot.sess));
        }
        if inner.expired_set.contains(sid) {
            return Err(WireError::SessionExpired(sid.to_string()));
        }
        Err(WireError::UnknownSession(sid.to_string()))
    }

    /// Retire a session (`close`, or recovery-failure invalidation),
    /// returning its handle for the final answer.
    pub(crate) fn retire(&self, sid: &str) -> Result<Arc<Mutex<Session>>, WireError> {
        let mut inner = self.lock();
        match inner.sessions.remove(sid) {
            Some(slot) => {
                retire_id(&mut inner, sid.to_string());
                self.counters.expired.fetch_add(1, Ordering::Relaxed);
                SESSIONS_OPEN.set(inner.sessions.len() as u64);
                Ok(slot.sess)
            }
            None if inner.expired_set.contains(sid) => {
                Err(WireError::SessionExpired(sid.to_string()))
            }
            None => Err(WireError::UnknownSession(sid.to_string())),
        }
    }

    /// Live-session count.
    pub fn open_count(&self) -> usize {
        self.lock().sessions.len()
    }

    /// Total journal window length across live sessions: the `stats`
    /// `sessions_journal_ops` gauge — the ops a resync of every open
    /// session would replay from its checkpoint. The table lock is
    /// released before any session lock is taken, so a session mid-step
    /// stalls this sum but never another connection's lookup.
    pub fn journal_ops(&self) -> u64 {
        let sessions: Vec<Arc<Mutex<Session>>> = self
            .lock()
            .sessions
            .values()
            .map(|slot| Arc::clone(&slot.sess))
            .collect();
        sessions
            .iter()
            .map(|sess| {
                sess.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .journal
                    .len() as u64
            })
            .sum()
    }

    /// Counter snapshot for `method=stats`.
    pub fn snapshot(&self) -> SessionCountersSnapshot {
        let c = &self.counters;
        SessionCountersSnapshot {
            open: self.open_count() as u64,
            opened: c.opened.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            deltas: c.deltas.load(Ordering::Relaxed),
            resyncs: c.resyncs.load(Ordering::Relaxed),
            audits: c.audits.load(Ordering::Relaxed),
            audits_failed: c.audits_failed.load(Ordering::Relaxed),
        }
    }

    /// Count one committed delta.
    pub(crate) fn note_delta(&self) {
        self.counters.deltas.fetch_add(1, Ordering::Relaxed);
        DELTAS_APPLIED.inc();
    }

    /// Count one view-replacing journal replay.
    pub(crate) fn note_resync(&self) {
        self.counters.resyncs.fetch_add(1, Ordering::Relaxed);
        SESSION_RESYNCS.inc();
    }

    /// Count one divergence audit (`failed` when the replay disagreed
    /// with the warm view).
    pub(crate) fn note_audit(&self, failed: bool) {
        self.counters.audits.fetch_add(1, Ordering::Relaxed);
        DIVERGENCE_AUDITS.inc();
        // `add(0)` still registers the metric: a clean run exposes
        // `serve_divergence_audits_failed=0` instead of omitting it.
        DIVERGENCE_AUDITS_FAILED.add(u64::from(failed));
        if failed {
            self.counters.audits_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn retire_id(inner: &mut TableInner, sid: String) {
    if inner.expired_set.insert(sid.clone()) {
        inner.expired_order.push_back(sid);
        while inner.expired_order.len() > EXPIRED_MEMORY {
            if let Some(old) = inner.expired_order.pop_front() {
                inner.expired_set.remove(&old);
            }
        }
    }
}

/// The per-player paths of a state.
pub(crate) fn state_paths(state: &State) -> Vec<Vec<EdgeId>> {
    (0..state.num_players())
        .map(|i| state.path(i).to_vec())
        .collect()
}

/// Apply one delta to a session's built instance: returns the patched
/// game, the validated start state on it (the carried converged state
/// with ids remapped and stranded or new players routed) and the subsidy
/// vector. Pure and deterministic — the journal replay repeats exactly
/// these calls. A patch clones the game and rewrites one weight, and
/// reuses `state` unchecked (the topology did not change); a `fail` or
/// `join` builds the patched game once, re-running the game's
/// validation, and checks the paths on it.
pub(crate) fn apply_delta(
    op: DeltaOp,
    game: &NetworkDesignGame,
    state: &State,
    b: Option<&[f64]>,
) -> Result<(NetworkDesignGame, State, Option<Vec<f64>>), WireError> {
    let m = game.graph().edge_count();
    let mut b = b.map(<[f64]>::to_vec);
    let (patched, paths) = match op {
        DeltaOp::Patch { edge, w } => {
            if !w.is_finite() || w < 0.0 {
                return Err(WireError::BadDelta(format!(
                    "patch weight {w} must be finite and non-negative"
                )));
            }
            if edge as usize >= m {
                return Err(WireError::BadDelta(format!(
                    "patch edge {edge} out of range ({m} edges)"
                )));
            }
            let mut patched = game.clone();
            patched.set_weight(EdgeId(edge), w)?;
            return Ok((patched, state.clone(), b));
        }
        DeltaOp::Fail { edge } => {
            let e = edge as usize;
            if e >= m {
                return Err(WireError::BadDelta(format!(
                    "fail edge {edge} out of range ({m} edges)"
                )));
            }
            let g = game.graph();
            let kept = (0..m as u32).filter(move |&i| i != edge).map(|i| {
                let a = g.edge(EdgeId(i));
                (a.u, a.v, a.w)
            });
            let graph = Graph::from_edges(g.node_count(), kept)?;
            // Building the game re-runs its validation: a disconnected
            // broadcast instance fails here with its usual structured
            // error.
            let patched = match game.root() {
                Some(root) => NetworkDesignGame::broadcast(graph, root)?,
                None => NetworkDesignGame::new(graph, game.players().to_vec())?,
            };
            if let Some(b) = &mut b {
                if e < b.len() {
                    b.remove(e);
                }
            }
            let g = patched.graph();
            let mut paths = state_paths(state);
            for (i, p) in paths.iter_mut().enumerate() {
                if p.contains(&EdgeId(edge)) {
                    // A stranded player reroutes onto a deterministic
                    // shortest path in the patched graph.
                    let player = patched.players()[i];
                    let sp = dijkstra(g, player.source);
                    *p = sp.path_to(g, player.terminal).ok_or_else(|| {
                        WireError::BadDelta(format!(
                            "fail edge {edge} disconnects player {i} ({} -> {})",
                            player.source.0, player.terminal.0
                        ))
                    })?;
                } else {
                    // Edge ids above the removed one shift down by one.
                    for id in p.iter_mut().filter(|id| id.0 > edge) {
                        id.0 -= 1;
                    }
                }
            }
            (patched, paths)
        }
        DeltaOp::Join { source, terminal } => {
            if game.is_broadcast() {
                return Err(WireError::BadDelta(
                    "join needs a general game (broadcast pins one player per node)".into(),
                ));
            }
            let n = game.graph().node_count();
            if source as usize >= n || terminal as usize >= n {
                return Err(WireError::BadDelta(format!(
                    "join player {source}/{terminal} out of range ({n} nodes)"
                )));
            }
            if source == terminal {
                return Err(WireError::BadDelta(format!(
                    "join player {source}/{terminal} has coincident endpoints"
                )));
            }
            let mut players = game.players().to_vec();
            players.push(Player {
                source: NodeId(source),
                terminal: NodeId(terminal),
            });
            let patched = NetworkDesignGame::new(game.graph().clone(), players)?;
            let g = patched.graph();
            let sp = dijkstra(g, NodeId(source));
            let path = sp.path_to(g, NodeId(terminal)).ok_or_else(|| {
                WireError::BadDelta(format!("join player {source}/{terminal} is disconnected"))
            })?;
            let mut paths = state_paths(state);
            paths.push(path);
            (patched, paths)
        }
    };
    let start = State::new(&patched, paths)?;
    Ok((patched, start, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Method;
    use ndg_core::{best_response_dynamics_budgeted, MoveOrder, SubsidyAssignment};
    use ndg_exec::Budget;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// `broadcast:3:0` on the triangle 0-1, 1-2, 2-0 (unit weights).
    fn triangle() -> WireGame {
        WireGame::Broadcast {
            n: 3,
            root: 0,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        }
    }

    fn built(spec: &WireGame) -> NetworkDesignGame {
        spec.build().unwrap().0
    }

    /// The triangle with node 1 on edge 0 and node 2 routed over node 1.
    fn triangle_state(game: &NetworkDesignGame) -> State {
        State::new(game, vec![vec![EdgeId(0)], vec![EdgeId(1), EdgeId(0)]]).unwrap()
    }

    fn base_session() -> Session {
        let mut req = Request::new("t", Method::Dynamics);
        req.game = Some(triangle());
        req.tree = Some(vec![EdgeId(0), EdgeId(1)]);
        req.canon = false;
        let checkpoint = Checkpoint {
            req,
            payload: "p".into(),
            converged: vec![vec![EdgeId(0)], vec![EdgeId(1), EdgeId(0)]],
        };
        let view = checkpoint.view().unwrap();
        Session {
            checkpoint,
            checkpoint_epoch: 0,
            journal: Vec::new(),
            view,
            dirty: false,
        }
    }

    #[test]
    fn patch_rewrites_one_weight_and_validates() {
        let game = built(&triangle());
        let state = triangle_state(&game);
        let (patched, start, b) =
            apply_delta(DeltaOp::Patch { edge: 2, w: 9.5 }, &game, &state, None).unwrap();
        match WireGame::from_game(&patched, None) {
            WireGame::Broadcast { edges, .. } => assert_eq!(edges[2], (2, 0, 9.5)),
            _ => unreachable!(),
        }
        assert_eq!(state_paths(&start), state_paths(&state));
        assert_eq!(b, None);
        for (op, needle) in [
            (DeltaOp::Patch { edge: 3, w: 1.0 }, "out of range"),
            (
                DeltaOp::Patch { edge: 0, w: -1.0 },
                "finite and non-negative",
            ),
        ] {
            let err = apply_delta(op, &game, &state, None).unwrap_err();
            match err {
                WireError::BadDelta(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn fail_remaps_ids_reroutes_stranded_players_and_trims_subsidies() {
        let game = built(&triangle());
        let state = triangle_state(&game);
        let b = [0.25, 0.5, 0.75];
        // Fail the middle edge: player 1's path used it, and the old edge
        // 2 becomes edge 1.
        let (patched, start, b) =
            apply_delta(DeltaOp::Fail { edge: 1 }, &game, &state, Some(&b)).unwrap();
        match WireGame::from_game(&patched, None) {
            WireGame::Broadcast { edges, .. } => {
                assert_eq!(edges.as_slice(), &[(0, 1, 1.0), (2, 0, 1.0)])
            }
            _ => unreachable!(),
        }
        assert_eq!(b, Some(vec![0.25, 0.75]));
        assert_eq!(start.path(0), &[EdgeId(0)]);
        // Player 2's node reroutes over the remaining 2-0 edge.
        assert_eq!(start.path(1), &[EdgeId(1)]);
        // Failing again disconnects node 2 entirely: structured error.
        let err =
            apply_delta(DeltaOp::Fail { edge: 1 }, &patched, &start, b.as_deref()).unwrap_err();
        assert_ne!(err.code(), "internal", "{err:?}");
    }

    #[test]
    fn join_appends_a_player_on_general_games_only() {
        let game = built(&WireGame::General {
            n: 4,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            players: vec![(0, 2)],
        });
        let state = State::new(&game, vec![vec![EdgeId(0), EdgeId(1)]]).unwrap();
        let join = DeltaOp::Join {
            source: 1,
            terminal: 3,
        };
        let (patched, start, _) = apply_delta(join, &game, &state, None).unwrap();
        assert_eq!(start.path(1), &[EdgeId(1), EdgeId(2)]);
        match WireGame::from_game(&patched, None) {
            WireGame::General { players, .. } => assert_eq!(players.as_slice(), &[(0, 2), (1, 3)]),
            _ => unreachable!(),
        }
        let bc = built(&WireGame::Broadcast {
            n: 3,
            root: 0,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
        });
        let bc_state = State::new(&bc, vec![vec![EdgeId(0)], vec![EdgeId(1), EdgeId(0)]]).unwrap();
        let join = DeltaOp::Join {
            source: 1,
            terminal: 2,
        };
        let err = apply_delta(join, &bc, &bc_state, None).unwrap_err();
        assert_eq!(err.code(), "bad_delta");
    }

    #[test]
    fn from_game_inverts_build() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2u32, 5, 17] {
            let g = ndg_graph::generators::random_connected(n as usize, 0.4, &mut rng, 0.0..4.0);
            let edges: Vec<_> = g.edges().map(|(_, e)| (e.u.0, e.v.0, e.w)).collect();
            let players = (0..3u32)
                .map(|i| (i % n, (i + 1) % n))
                .filter(|(s, t)| s != t)
                .collect();
            for spec in [
                WireGame::Broadcast {
                    n: n as usize,
                    root: n - 1,
                    edges: edges.clone(),
                },
                WireGame::General {
                    n: n as usize,
                    edges,
                    players,
                },
            ] {
                assert_eq!(WireGame::from_game(&built(&spec), None), spec);
            }
        }
    }

    /// The wire-form reference for [`apply_delta`]: the op applied to the
    /// spec's lists, the spec rebuilt, and the carried paths remapped,
    /// with stranded and new players routed on the rebuilt game.
    fn wire_step(
        op: DeltaOp,
        spec: &mut WireGame,
        paths: &mut Vec<Vec<EdgeId>>,
        b: &mut Option<Vec<f64>>,
    ) -> Result<NetworkDesignGame, WireError> {
        let mut route = Vec::new();
        match (op, &mut *spec) {
            (
                DeltaOp::Patch { edge, w },
                WireGame::Broadcast { edges, .. } | WireGame::General { edges, .. },
            ) => edges[edge as usize].2 = w,
            (
                DeltaOp::Fail { edge },
                WireGame::Broadcast { edges, .. } | WireGame::General { edges, .. },
            ) => {
                edges.remove(edge as usize);
                if let Some(b) = b {
                    b.remove(edge as usize);
                }
                for (i, p) in paths.iter_mut().enumerate() {
                    if p.contains(&EdgeId(edge)) {
                        route.push(i);
                    }
                    p.iter_mut()
                        .filter(|id| id.0 > edge)
                        .for_each(|id| id.0 -= 1);
                }
            }
            (DeltaOp::Join { source, terminal }, WireGame::General { players, .. }) => {
                players.push((source, terminal));
                route.push(paths.len());
                paths.push(Vec::new());
            }
            other => panic!("no reference for {other:?}"),
        }
        let (game, _) = spec.build()?;
        let g = game.graph();
        for i in route {
            let p = game.players()[i];
            paths[i] = dijkstra(g, p.source).path_to(g, p.terminal).unwrap();
        }
        Ok(game)
    }

    /// Every delta applied to the built game equals the same delta applied
    /// to the wire spec and rebuilt: the game (nodes, root, players, edge
    /// endpoints and weight bits, neighbour lists in order), the start
    /// state, the subsidies, and the error when the op is refused.
    #[test]
    fn carried_instances_equal_rebuilt_ones_over_random_delta_streams() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(4..14usize);
            let g = ndg_graph::generators::random_connected(n, 0.3, &mut rng, 0.5..3.0);
            let general = seed % 2 == 1;
            let mut game = if general {
                let players = (0..3)
                    .map(|_| {
                        let s = rng.random_range(0..n as u32);
                        Player {
                            source: NodeId(s),
                            terminal: NodeId((s + rng.random_range(1..n as u32)) % n as u32),
                        }
                    })
                    .collect();
                NetworkDesignGame::new(g, players).unwrap()
            } else {
                NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
            };
            let tree = ndg_graph::kruskal(game.graph()).unwrap();
            let mut state = State::from_tree(&game, &tree).unwrap().0;
            let mut b = (seed % 3 == 0).then(|| vec![0.125; game.graph().edge_count()]);
            for k in 0..40 {
                let m = game.graph().edge_count() as u32;
                let op = match rng.random_range(0..8u32) {
                    0 if m > 1 => DeltaOp::Fail {
                        edge: rng.random_range(0..m),
                    },
                    1 if general => DeltaOp::Join {
                        source: rng.random_range(0..n as u32),
                        terminal: rng.random_range(0..n as u32),
                    },
                    _ => DeltaOp::Patch {
                        edge: rng.random_range(0..m),
                        w: f64::from(rng.random_range(0..=12u32)) / 4.0,
                    },
                };
                let ctx = format!("seed {seed}, op {k}: {op:?}");
                let mut spec = WireGame::from_game(&game, None);
                let (mut paths, mut wire_b) = (state_paths(&state), b.clone());
                let carried = apply_delta(op, &game, &state, b.as_deref());
                // The reference has no coincident-endpoint check of its own.
                let coincident =
                    matches!(op, DeltaOp::Join { source, terminal } if source == terminal);
                let rebuilt = if coincident {
                    Err(WireError::BadDelta(String::new()))
                } else {
                    wire_step(op, &mut spec, &mut paths, &mut wire_b)
                };
                let (patched, start, patched_b) = match (carried, rebuilt) {
                    (Ok(c), Ok(r)) => {
                        assert_eq!(game_bits(&c.0), game_bits(&r), "{ctx}");
                        let want = State::new(&r, paths).unwrap();
                        let m = r.graph().edge_count();
                        assert_eq!(state_bits(&c.1, m), state_bits(&want, m), "{ctx}");
                        assert_eq!(c.2, wire_b, "{ctx}");
                        c
                    }
                    (Err(a), Err(b)) => {
                        if !coincident {
                            assert_eq!(a, b, "{ctx}");
                        }
                        continue;
                    }
                    (a, b) => panic!("{ctx}: carried {:?} vs rebuilt {:?}", a.err(), b.err()),
                };
                // Carry the converged state on, as a session does.
                let zero = SubsidyAssignment::zero(patched.graph());
                let res = best_response_dynamics_budgeted(
                    &patched,
                    start,
                    &zero,
                    MoveOrder::RoundRobin,
                    64,
                    &Budget::unlimited(),
                )
                .unwrap();
                (game, state, b) = (patched, res.state, patched_b);
            }
        }
    }

    /// Node count, root, players, every edge's endpoints and weight bits,
    /// and every neighbour list in order.
    #[allow(clippy::type_complexity)]
    fn game_bits(
        game: &NetworkDesignGame,
    ) -> (
        Option<NodeId>,
        Vec<Player>,
        Vec<(NodeId, NodeId, u64)>,
        Vec<Vec<(NodeId, EdgeId)>>,
    ) {
        let g = game.graph();
        (
            game.root(),
            game.players().to_vec(),
            g.edges().map(|(_, e)| (e.u, e.v, e.w.to_bits())).collect(),
            g.nodes().map(|x| g.neighbors(x).to_vec()).collect(),
        )
    }

    /// A state's paths and its usage of each of `m` edges.
    fn state_bits(state: &State, m: usize) -> (Vec<Vec<EdgeId>>, Vec<u32>) {
        (
            state_paths(state),
            (0..m as u32).map(|e| state.usage(EdgeId(e))).collect(),
        )
    }

    #[test]
    fn journal_ops_never_stalls_another_sessions_lookup() {
        let table = Arc::new(SessionTable::new(SessionConfig::default()));
        let s1 = table.open(base_session()).unwrap();
        let s2 = table.open(base_session()).unwrap();
        // s1 is mid-step: its lock is held.
        let sess1 = table.get(&s1).unwrap();
        let held = sess1.lock().unwrap();
        let sum = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.journal_ops())
        };
        // Give the sum time to take the table mutex.
        let t0 = Instant::now();
        while table.inner.try_lock().is_ok() && t0.elapsed() < Duration::from_millis(300) {
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        let lookup = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || tx.send(table.get(&s2).is_ok()))
        };
        let answered = rx.recv_timeout(Duration::from_secs(2));
        drop(held);
        assert_eq!(
            answered,
            Ok(true),
            "a lookup waited for another session's step"
        );
        assert_eq!(sum.join().unwrap(), 0);
        lookup.join().unwrap().unwrap();
    }

    #[test]
    fn table_assigns_ids_evicts_lru_and_remembers_retired_ids() {
        let table = SessionTable::new(SessionConfig {
            audit_every: 0,
            max_sessions: 2,
        });
        let s1 = table.open(base_session()).unwrap();
        let s2 = table.open(base_session()).unwrap();
        assert_eq!((s1.as_str(), s2.as_str()), ("s1", "s2"));
        // Touch s1 so s2 is the LRU victim of the third open.
        table.get(&s1).unwrap();
        let s3 = table.open(base_session()).unwrap();
        assert_eq!(table.open_count(), 2);
        assert_eq!(
            table.get(&s2).unwrap_err(),
            WireError::SessionExpired("s2".into())
        );
        assert!(table.get(&s1).is_ok() && table.get(&s3).is_ok());
        assert_eq!(
            table.get("s99").unwrap_err(),
            WireError::UnknownSession("s99".into())
        );
        // Closing retires the id the same way.
        table.retire(&s1).unwrap();
        assert_eq!(
            table.get(&s1).unwrap_err(),
            WireError::SessionExpired("s1".into())
        );
        let snap = table.snapshot();
        assert_eq!((snap.open, snap.opened, snap.expired), (1, 3, 2));
    }

    #[test]
    fn zero_capacity_rejects_opens_deterministically() {
        let table = SessionTable::new(SessionConfig {
            audit_every: 0,
            max_sessions: 0,
        });
        assert_eq!(
            table.open(base_session()).unwrap_err(),
            WireError::SessionLimit { max: 0 }
        );
    }
}
