//! Crash-safe delta sessions: journaled incremental serving.
//!
//! A session pins one `dynamics`-shaped instance (game + initial
//! tree/state + subsidies + move order + round budget) and answers the
//! same question after each applied delta (`patch`/`fail`/`join`),
//! solving *warm* from the previous converged state instead of from the
//! client's original initial state. Every answer is specified
//! byte-identical to a cold solve of the synthesized literal request
//! (`Session::cold_request`) — the warm path only changes *where the
//! solve starts*, never what it returns, because the solve itself is the
//! router's one `dynamics` engine either way.
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
//! `step` (apply + warm solve) the live delta runs, from a copy of the
//! checkpoint. `open`'s cold solve is the first checkpoint; a passing
//! audit's replay and every committed recovery become the next. `step`
//! is deterministic, so a replay from a checkpoint equals one from the
//! opened instance. Every recovery, client `resync` included, goes
//! through one commit that replaces the view, counts one resync and
//! emits one `session`/`resync` event; a journal that no longer replays
//! retires the session (`code=internal`, then `session_expired`).
//! Recovered responses carry `resynced=1` in the volatile header, never
//! in the payload.
//!
//! Admission is bounded: at most `--max-sessions` live sessions, with
//! least-recently-used idle eviction. Evicted and closed ids answer
//! `err;code=session_expired` (from a bounded FIFO memory of retired
//! ids) so clients can distinguish "reopen" from "never existed".

use crate::codec::{DeltaOp, Request, WireError, WireGame};
use ndg_graph::paths::dijkstra;
use ndg_graph::{EdgeId, NodeId};
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

/// One committed session answer: the synthesized cold `dynamics` request
/// whose solve *is* the answer, its payload, and the converged per-player
/// paths the next delta starts from.
#[derive(Clone, Debug)]
pub(crate) struct View {
    /// Literal (`canon=0`) `dynamics` request for the current epoch.
    pub req: Request,
    /// Its deterministic payload (the session answer's payload bytes).
    pub payload: String,
    /// Converged state paths (the warm start for the next delta).
    pub converged: Vec<Vec<EdgeId>>,
}

/// One live session: checkpoint + write-ahead journal window + committed
/// view.
#[derive(Debug)]
pub(crate) struct Session {
    /// The latest view a replay produced or confirmed (`open`'s cold
    /// solve, a passing audit's replay, a committed recovery) — journal
    /// replay starts here. Its own copy, never shared with `view`.
    pub checkpoint: View,
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

    /// Make `view`, a replay's view of the current epoch, the checkpoint,
    /// and drop the window it covers.
    pub fn set_checkpoint(&mut self, view: View) {
        self.checkpoint_epoch = self.epoch();
        self.checkpoint = view;
        self.journal.clear();
    }

    /// The literal cold request whose solve is specified byte-identical
    /// to the session's current answer (`id` replaced by the caller's).
    pub fn cold_request(&self, id: &str) -> Request {
        let mut req = self.view.req.clone();
        req.id = id.to_string();
        req
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
    /// session would replay from its checkpoint. Lock order is table →
    /// session, the same direction as every other path (never reversed).
    pub fn journal_ops(&self) -> u64 {
        let inner = self.lock();
        inner
            .sessions
            .values()
            .map(|slot| {
                slot.sess
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
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

/// The per-player converged paths of a solved state.
pub(crate) fn state_paths(state: &ndg_core::State) -> Vec<Vec<EdgeId>> {
    (0..state.num_players())
        .map(|i| state.path(i).to_vec())
        .collect()
}

/// Apply one delta to wire-level clones of a session's instance: the
/// game spec, the carried per-player paths, and the subsidy vector. Pure
/// and deterministic — the journal replay repeats exactly these calls.
/// On error the clones are simply dropped; committed state never sees a
/// partial application.
pub(crate) fn apply_delta(
    op: DeltaOp,
    game: &mut WireGame,
    paths: &mut Vec<Vec<EdgeId>>,
    b: &mut Option<Vec<f64>>,
) -> Result<(), WireError> {
    match op {
        DeltaOp::Patch { edge, w } => {
            if !w.is_finite() || w < 0.0 {
                return Err(WireError::BadDelta(format!(
                    "patch weight {w} must be finite and non-negative"
                )));
            }
            let edges = edges_mut(game)?;
            let m = edges.len();
            let e = edge as usize;
            if e >= m {
                return Err(WireError::BadDelta(format!(
                    "patch edge {edge} out of range ({m} edges)"
                )));
            }
            edges[e].2 = w;
            Ok(())
        }
        DeltaOp::Fail { edge } => {
            let e = edge as usize;
            let m = edges_mut(game)?.len();
            if e >= m {
                return Err(WireError::BadDelta(format!(
                    "fail edge {edge} out of range ({m} edges)"
                )));
            }
            // Players whose strategy used the failed edge, before any ids
            // move.
            let affected: Vec<usize> = (0..paths.len())
                .filter(|&i| paths[i].contains(&EdgeId(edge)))
                .collect();
            edges_mut(game)?.remove(e);
            if let Some(b) = b {
                if e < b.len() {
                    b.remove(e);
                }
            }
            // Edge ids above the removed one shift down by one.
            for p in paths.iter_mut() {
                for id in p.iter_mut() {
                    if id.0 > edge {
                        id.0 -= 1;
                    }
                }
            }
            if affected.is_empty() {
                return Ok(());
            }
            // Reroute the stranded players onto deterministic shortest
            // paths in the patched graph (building it re-runs the full
            // graph/game validation — a disconnected broadcast instance
            // fails here with its usual structured error).
            let (patched, _) = game.build()?;
            let g = patched.graph();
            for &i in &affected {
                let p = patched.players().get(i).copied().ok_or_else(|| {
                    WireError::BadDelta(format!("fail edge {edge} strands player {i}"))
                })?;
                let sp = dijkstra(g, p.source);
                paths[i] = sp.path_to(g, p.terminal).ok_or_else(|| {
                    WireError::BadDelta(format!(
                        "fail edge {edge} disconnects player {i} ({} -> {})",
                        p.source.0, p.terminal.0
                    ))
                })?;
            }
            Ok(())
        }
        DeltaOp::Join { source, terminal } => {
            let (n, players) = match game {
                WireGame::General { n, players, .. } => (*n, players),
                WireGame::Broadcast { .. } => {
                    return Err(WireError::BadDelta(
                        "join needs a general game (broadcast pins one player per node)".into(),
                    ))
                }
                WireGame::Weighted { .. } => {
                    return Err(WireError::BadDelta(
                        "sessions run on unweighted games".into(),
                    ))
                }
            };
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
            players.push((source, terminal));
            let (patched, _) = game.build()?;
            let g = patched.graph();
            let sp = dijkstra(g, NodeId(source));
            let path = sp.path_to(g, NodeId(terminal)).ok_or_else(|| {
                WireError::BadDelta(format!("join player {source}/{terminal} is disconnected"))
            })?;
            paths.push(path);
            Ok(())
        }
    }
}

fn edges_mut(game: &mut WireGame) -> Result<&mut Vec<(u32, u32, f64)>, WireError> {
    match game {
        WireGame::Broadcast { edges, .. } | WireGame::General { edges, .. } => Ok(edges),
        WireGame::Weighted { .. } => Err(WireError::BadDelta(
            "sessions run on unweighted games".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Method;

    fn base_session() -> Session {
        let mut req = Request::new("t", Method::Dynamics);
        req.game = Some(WireGame::Broadcast {
            n: 3,
            root: 0,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        });
        req.tree = Some(vec![EdgeId(0), EdgeId(1)]);
        req.canon = false;
        let view = View {
            req,
            payload: "p".into(),
            converged: vec![vec![EdgeId(0)], vec![EdgeId(0), EdgeId(1)]],
        };
        Session {
            checkpoint: view.clone(),
            checkpoint_epoch: 0,
            journal: Vec::new(),
            view,
            dirty: false,
        }
    }

    #[test]
    fn patch_rewrites_one_weight_and_validates() {
        let mut game = WireGame::Broadcast {
            n: 3,
            root: 0,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        };
        let mut paths = vec![vec![EdgeId(0)], vec![EdgeId(0), EdgeId(1)]];
        let mut b = None;
        apply_delta(
            DeltaOp::Patch { edge: 2, w: 9.5 },
            &mut game,
            &mut paths,
            &mut b,
        )
        .unwrap();
        match &game {
            WireGame::Broadcast { edges, .. } => assert_eq!(edges[2], (2, 0, 9.5)),
            _ => unreachable!(),
        }
        for (op, needle) in [
            (DeltaOp::Patch { edge: 3, w: 1.0 }, "out of range"),
            (
                DeltaOp::Patch { edge: 0, w: -1.0 },
                "finite and non-negative",
            ),
        ] {
            let err = apply_delta(op, &mut game, &mut paths, &mut b).unwrap_err();
            match err {
                WireError::BadDelta(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn fail_remaps_ids_reroutes_stranded_players_and_trims_subsidies() {
        let mut game = WireGame::Broadcast {
            n: 3,
            root: 0,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        };
        let mut paths = vec![vec![EdgeId(0)], vec![EdgeId(0), EdgeId(1)]];
        let mut b = Some(vec![0.25, 0.5, 0.75]);
        // Fail the middle edge: player 1's path used it, and the old edge
        // 2 becomes edge 1.
        apply_delta(DeltaOp::Fail { edge: 1 }, &mut game, &mut paths, &mut b).unwrap();
        match &game {
            WireGame::Broadcast { edges, .. } => {
                assert_eq!(edges.as_slice(), &[(0, 1, 1.0), (2, 0, 1.0)])
            }
            _ => unreachable!(),
        }
        assert_eq!(b, Some(vec![0.25, 0.75]));
        assert_eq!(paths[0], vec![EdgeId(0)]);
        // Player 2's node reroutes over the remaining 2-0 edge.
        assert_eq!(paths[1], vec![EdgeId(1)]);
        // Failing again disconnects node 2 entirely: structured error,
        // clones dropped.
        let err =
            apply_delta(DeltaOp::Fail { edge: 1 }, &mut game, &mut paths, &mut b).unwrap_err();
        assert_ne!(err.code(), "internal", "{err:?}");
    }

    #[test]
    fn join_appends_a_player_on_general_games_only() {
        let mut game = WireGame::General {
            n: 4,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            players: vec![(0, 2)],
        };
        let mut paths = vec![vec![EdgeId(0), EdgeId(1)]];
        let mut b = None;
        apply_delta(
            DeltaOp::Join {
                source: 1,
                terminal: 3,
            },
            &mut game,
            &mut paths,
            &mut b,
        )
        .unwrap();
        assert_eq!(paths[1], vec![EdgeId(1), EdgeId(2)]);
        match &game {
            WireGame::General { players, .. } => assert_eq!(players.as_slice(), &[(0, 2), (1, 3)]),
            _ => unreachable!(),
        }
        let mut bc = WireGame::Broadcast {
            n: 3,
            root: 0,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
        };
        let err = apply_delta(
            DeltaOp::Join {
                source: 1,
                terminal: 2,
            },
            &mut bc,
            &mut vec![],
            &mut None,
        )
        .unwrap_err();
        assert_eq!(err.code(), "bad_delta");
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
