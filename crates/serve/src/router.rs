//! Request router: named methods over the workspace's solver engines.
//!
//! One [`Router`] owns the result [`Cache`], the [`ndg_exec::Executor`]
//! policy and a shared [`WorkspacePool`] of Dijkstra scratch. A request
//! line flows parse → cache probe → engine dispatch → canonical payload,
//! and [`Router::handle_batch`] fans a whole batch out over the executor
//! with one pooled workspace per worker. A stateless line in the fast
//! form [`Request::serialize`] writes skips the parse when the
//! canonicalization memo already holds its body (see [`crate::canon`]).
//!
//! **Determinism contract** (the serving analogue of E11): the payload of
//! a response depends only on the request's canonical body. Engines that
//! take an explicit executor (`enforce` LPs (1)/(3) and the weighted LP,
//! `certify`'s Lemma 2 sweep) receive the router's; the remaining engines
//! are bit-identical across thread counts by the PR 2 executor contract.
//! E12 and the `serve_contract` tests assert the end-to-end property:
//! byte equality against sequential single-request evaluation at
//! `NDG_THREADS ∈ {1, 4, 8}`.

use crate::cache::{Cache, CacheStats};
use crate::codec::{
    err_line, fmt_edge_ids, fmt_f64, ok_line, DeltaOp, Method, Request, Solver, WireError,
    DEFAULT_CAP, DEFAULT_LIMIT, DEFAULT_ROUNDS,
};
use crate::server::ConnStats;
use crate::session::{apply_delta, state_paths, Session, View, SESSION_REPLAYED_SOLVES};
use ndg_core::{best_response_dynamics_budgeted, best_response_with, NetworkDesignGame, State};
use ndg_exec::{Budget, Executor};
use ndg_graph::paths::{DijkstraWorkspace, WorkspacePool};
use ndg_graph::{EdgeId, Graph, RootedTree};
use ndg_obs::{Clock, MonoClock};
use ndg_sne::{SneError, SneSolution};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serving-layer metrics (no-ops until [`ndg_obs::install`]): request
/// count, end-to-end wall time, and the solve-stage share of it. All
/// integer µs — exposition never perturbs response bytes.
static SERVE_REQUESTS: ndg_obs::Counter = ndg_obs::Counter::new("serve_requests_total");
static SERVE_REQUEST_US: ndg_obs::Histogram = ndg_obs::Histogram::new("serve_request_us");
static SERVE_SOLVE_US: ndg_obs::Histogram = ndg_obs::Histogram::new("serve_solve_us");

// Stage slots of the request pipeline, indexing per-request lap arrays
// in [`crate::codec::STAGE_NAMES`] order.
const STAGE_PARSE: usize = 0;
const STAGE_CANON: usize = 1;
const STAGE_CACHE: usize = 2;
const STAGE_DELTA: usize = 3;
const STAGE_SOLVE: usize = 4;
const STAGE_UNMAP: usize = 5;
const STAGE_WRITE: usize = 6;

/// Wide-event field names for the per-stage laps, in [`STAGE_PARSE`]..
/// [`STAGE_WRITE`] slot order. Separate fields (not one packed string)
/// because the recorder sanitizes `,`/`:` out of values.
const STAGE_FIELD_NAMES: [&str; 7] = [
    "us_parse", "us_canon", "us_cache", "us_delta", "us_solve", "us_unmap", "us_write",
];

/// The executor tasks of a batch, as line indices: the lines naming one
/// `session=` form one task in wire order, placed at its first line;
/// every other line is a task alone. `None` if no line names a session.
fn session_tasks(lines: &[String]) -> Option<Vec<Vec<usize>>> {
    if lines.iter().all(|l| session_field(l).is_none()) {
        return None;
    }
    let mut tasks: Vec<Vec<usize>> = Vec::with_capacity(lines.len());
    let mut task_of: Vec<(&str, usize)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(sid) = session_field(line) else {
            tasks.push(vec![i]);
            continue;
        };
        match task_of.iter().find(|(s, _)| *s == sid) {
            Some(&(_, t)) => tasks[t].push(i),
            None => {
                task_of.push((sid, tasks.len()));
                tasks.push(vec![i]);
            }
        }
    }
    Some(tasks)
}

/// The raw `session=` value of a request line, found without parsing it
/// (no other field can contain `;session=`).
fn session_field(line: &str) -> Option<&str> {
    let (_, rest) = line.split_once(";session=")?;
    Some(rest.split_once(';').map_or(rest, |(sid, _)| sid))
}

/// Terminal classification of a finished response line for the wide
/// event: `ok`, `deadline`, `shed`, `internal`, `session` (any
/// session-lifecycle refusal), or `error` for the remaining client
/// errors (parse/validate).
fn classify_outcome(line: &str) -> &'static str {
    if line.starts_with("ok;") || line == "ok" {
        return "ok";
    }
    match response_field(line, "code").as_deref() {
        Some("deadline") => "deadline",
        Some("overloaded") => "shed",
        Some("internal") => "internal",
        Some("unknown_session")
        | Some("session_expired")
        | Some("stale_epoch")
        | Some("session_limit") => "session",
        _ => "error",
    }
}

/// Value of the first `key=` field in a serialized response line, if any.
fn response_field(line: &str, key: &str) -> Option<String> {
    line.split(';').find_map(|f| {
        f.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .map(str::to_string)
    })
}

/// Slow-request ring capacity: the top-k completed requests by wall
/// time retained for `method=stats`.
const SLOW_RING_CAP: usize = 8;

/// One retained slow request (`--log-slow-ms`): what ran, under which
/// cache key, and where its wall time went.
#[derive(Clone, Copy, Debug)]
struct SlowRequest {
    /// Wire method name.
    method: &'static str,
    /// FNV-1a hash of the canonical body the request keyed under
    /// (0 for the keyless introspection methods).
    key_hash: u64,
    /// End-to-end wall time, µs.
    total_us: u64,
    /// Per-stage µs in [`crate::codec::STAGE_NAMES`] order.
    stage_us: [u64; 7],
}

/// Per-request stage-lap accumulator over the router's clock. Inert
/// (`on = false`: no clock reads) unless the request asked for a trace,
/// the slow ring is armed, or the metrics registry is installed — the
/// untimed fast path pays exactly one clock read per request.
struct Laps<'c> {
    clock: &'c dyn Clock,
    last: u64,
    stage_us: [u64; 7],
    on: bool,
}

impl Laps<'_> {
    #[inline]
    fn lap(&mut self, stage: usize) {
        if self.on {
            let now = self.clock.now_us();
            self.stage_us[stage] += now.saturating_sub(self.last);
            self.last = now;
        }
    }
}

/// A test-only fault injector consulted at the top of every dispatch (on
/// the worker thread, inside the panic-isolation boundary). The chaos
/// harness uses it to inject engine panics and delays for chosen request
/// ids; production routers leave it unset and pay one `Option` check.
pub type FaultHook = Arc<dyn Fn(&Request) + Send + Sync>;

/// Default total result-cache capacity (responses).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Canonicalization-memo capacity (literal body → canonical rewrite):
/// sized like the result cache so every cached response's literal
/// duplicates can skip the refinement search.
const CANON_MEMO_CAPACITY: usize = 4096;

/// The request engine: cache + executor + workspace pool + dispatch.
pub struct Router {
    cache: Cache,
    ex: Executor,
    pool: WorkspacePool,
    /// Literal-body → canonical-rewrite memo: exact replays skip the
    /// refinement search entirely.
    memo: crate::canon::CanonMemo,
    /// Whether instances are canonicalized before keying and solving
    /// (per-request `canon=0` still opts out; see [`crate::canon`]).
    canon: bool,
    /// Deadline applied to requests that carry no `deadline_ms=` of their
    /// own (`--default-deadline-ms`); `None` means unlimited.
    default_deadline_ms: Option<u64>,
    /// Chaos/test fault injector; `None` in production.
    fault_hook: Option<FaultHook>,
    /// Robustness counters shared with the serving front ends.
    conn_stats: Arc<ConnStats>,
    /// Stage/latency clock; swappable for deterministic span tests.
    clock: Arc<dyn Clock>,
    /// `--log-slow-ms` threshold in µs; `None` disarms the slow ring.
    log_slow_us: Option<u64>,
    /// Top-[`SLOW_RING_CAP`] completed requests by wall time.
    slow: Mutex<Vec<SlowRequest>>,
    /// Delta-session registry (journals, admission, counters); see
    /// [`crate::session`].
    sessions: crate::session::SessionTable,
    /// Flight recorder: one wide event per completed request plus engine
    /// sub-events linked by trace id. `None` keeps the hot path
    /// recorder-free (no thread-local context, no ring writes).
    recorder: Option<Arc<ndg_obs::events::Recorder>>,
    /// Construction (or clock-swap) instant, for the `uptime_ms` field of
    /// `stats` and `health`.
    t0_us: u64,
    /// Admission gate registered by the serving front end so `health` can
    /// report inflight/capacity; `None` means unbounded admission.
    gate: Mutex<Option<Arc<crate::server::Gate>>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("cache", &self.cache)
            .field("ex", &self.ex)
            .field("canon", &self.canon)
            .field("default_deadline_ms", &self.default_deadline_ms)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "set"))
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Router with an explicit executor and cache capacity
    /// (`cache_capacity = 0` disables result reuse), canonicalization on.
    pub fn new(ex: Executor, cache_capacity: usize) -> Self {
        Self::with_canon(ex, cache_capacity, true)
    }

    /// [`new`](Self::new) with an explicit canonicalization mode.
    /// Canonicalization applies even with the cache disabled — the
    /// pipeline (canonicalize → solve → map back) defines the response
    /// bytes of canon-mode requests, so it cannot depend on cache state.
    pub fn with_canon(ex: Executor, cache_capacity: usize, canon: bool) -> Self {
        let clock: Arc<dyn Clock> = Arc::new(MonoClock::new());
        Router {
            cache: Cache::new(cache_capacity),
            ex,
            pool: WorkspacePool::new(0),
            memo: crate::canon::CanonMemo::new(if canon { CANON_MEMO_CAPACITY } else { 0 }),
            canon,
            default_deadline_ms: None,
            fault_hook: None,
            conn_stats: Arc::new(ConnStats::default()),
            t0_us: clock.now_us(),
            clock,
            log_slow_us: None,
            slow: Mutex::new(Vec::new()),
            sessions: crate::session::SessionTable::new(crate::session::SessionConfig::default()),
            recorder: None,
            gate: Mutex::new(None),
        }
    }

    /// Replace the session admission/audit knobs (`--max-sessions`,
    /// `--audit-every`).
    pub fn set_session_config(&mut self, cfg: crate::session::SessionConfig) {
        self.sessions.set_config(cfg);
    }

    /// The session registry (counters and admission state).
    pub fn sessions(&self) -> &crate::session::SessionTable {
        &self.sessions
    }

    /// The literal cold `dynamics` request line whose solve is specified
    /// byte-identical to session `sid`'s current answer (`None` for
    /// unknown/retired sessions). A debugging/audit seam: property tests
    /// replay it through a scratch canon-off router and compare payloads.
    pub fn session_cold_line(&self, sid: &str) -> Option<String> {
        let sess = self.sessions.get(sid).ok()?;
        let sess = sess
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(sess.cold_request("cold").serialize())
    }

    /// Swap the stage/latency clock (deterministic tests drive a
    /// [`ndg_obs::TestClock`] through this). Resets the uptime origin to
    /// the new clock's current reading.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.t0_us = clock.now_us();
        self.clock = clock;
    }

    /// Install (or clear) the flight recorder: every completed request
    /// appends one wide event, engine sub-events join it by trace id, and
    /// `method=events` snapshots the ring.
    pub fn set_recorder(&mut self, rec: Option<Arc<ndg_obs::events::Recorder>>) {
        self.recorder = rec;
    }

    /// The installed flight recorder, if any (the serving front ends
    /// route shed events through it).
    pub fn recorder(&self) -> Option<&Arc<ndg_obs::events::Recorder>> {
        self.recorder.as_ref()
    }

    /// Register the serving front end's admission gate so `method=health`
    /// can report inflight/capacity and the overload state. Callable
    /// through a shared router (the front ends hold `Arc<Router>`).
    pub fn register_gate(&self, gate: Arc<crate::server::Gate>) {
        *self
            .gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(gate);
    }

    /// Milliseconds since construction (or the last clock swap), on the
    /// router's clock — deterministic under [`ndg_obs::TestClock`].
    fn uptime_ms(&self) -> u64 {
        self.clock.now_us().saturating_sub(self.t0_us) / 1000
    }

    /// Arm the slow-request ring: requests taking at least `ms`
    /// milliseconds of wall time are retained (the top 8 by total time)
    /// and reported by `method=stats`. `None` disarms.
    pub fn set_log_slow_ms(&mut self, ms: Option<u64>) {
        self.log_slow_us = ms.map(|m| m.saturating_mul(1000));
    }

    /// The current slow-request ring, slowest first.
    fn slow_requests(&self) -> Vec<SlowRequest> {
        let mut v = self
            .slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        v.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then(a.key_hash.cmp(&b.key_hash))
        });
        v
    }

    /// Deadline (ms) applied to requests without an explicit
    /// `deadline_ms=`; `None` (the default) leaves them unlimited.
    pub fn set_default_deadline_ms(&mut self, ms: Option<u64>) {
        self.default_deadline_ms = ms;
    }

    /// The configured default deadline, if any.
    pub fn default_deadline_ms(&self) -> Option<u64> {
        self.default_deadline_ms
    }

    /// Install (or clear) the chaos fault injector. The hook runs at the
    /// top of every dispatch, on the worker thread, inside the
    /// panic-isolation boundary — a hook that panics produces exactly one
    /// `err;code=internal` response for that request.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// The shared robustness counters (sheds, reaps, isolated panics,
    /// deadline errors, connection end reasons). The serving front ends
    /// increment these; `method=stats` reports them.
    pub fn conn_stats(&self) -> &Arc<ConnStats> {
        &self.conn_stats
    }

    /// Router on the environment executor (`NDG_THREADS` honoured) with
    /// the default cache capacity.
    pub fn from_env() -> Self {
        Self::new(Executor::from_env(), DEFAULT_CACHE_CAPACITY)
    }

    /// The executor requests are scheduled on.
    pub fn executor(&self) -> Executor {
        self.ex
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Handle one request line end to end (parse, cache, dispatch),
    /// returning the full response line.
    pub fn handle_line(&self, line: &str) -> String {
        self.pool.with_workspace(|ws| self.handle_with(line, ws))
    }

    /// Handle a batch of request lines on the executor: responses come
    /// back in request order, each worker reuses one pooled Dijkstra
    /// workspace for its whole contiguous chunk.
    ///
    /// Lines that name the same `session=` run in wire order, inside one
    /// executor task; every other line is a task of its own. A batch
    /// that names no session, or runs on a sequential executor, is
    /// handled line by line in wire order.
    pub fn handle_batch(&self, lines: &[String]) -> Vec<String> {
        let tasks = if self.ex.threads() > 1 {
            session_tasks(lines)
        } else {
            None
        };
        let Some(tasks) = tasks else {
            return self.ex.par_map_with(
                lines,
                || self.pool.acquire(),
                |ws, line| self.handle_with(line, ws),
            );
        };
        let answers = self.ex.par_map_with(
            &tasks,
            || self.pool.acquire(),
            |ws, task| {
                task.iter()
                    .map(|&i| self.handle_with(&lines[i], ws))
                    .collect::<Vec<_>>()
            },
        );
        let mut out = vec![String::new(); lines.len()];
        for (task, answers) in tasks.iter().zip(answers) {
            for (&i, answer) in task.iter().zip(answers) {
                out[i] = answer;
            }
        }
        out
    }

    fn handle_with(&self, line: &str, ws: &mut DijkstraWorkspace) -> String {
        let t0 = self.clock.now_us();
        // Fast form: a stateless line as `Request::serialize` writes it,
        // whose body the memo holds with a canonical rewrite, is answered
        // from its header and that rewrite without being parsed. The body
        // is the literal body parse would rebuild. Any other line, a memo
        // miss and a declined rewrite take the parse path below.
        if self.canon {
            if let Some((head, body)) = Request::split_fast_form(line) {
                let mut laps = self.laps(t0, head.trace);
                laps.lap(STAGE_PARSE);
                if let Some(rewrite) = self.memo.rewrite_of(body) {
                    laps.lap(STAGE_CANON);
                    return self.traced(&head, t0, laps, |laps| {
                        self.answer(&head, body, Some(&rewrite), ws, laps)
                    });
                }
            }
        }
        let req = match Request::parse(line) {
            Ok(req) => req,
            // Parse failures carry no `trace=` to honour and no key to
            // attribute: plain error, no stage echo.
            Err(e) => return err_line(recovered_id(line), &e),
        };
        let laps = self.laps(t0, req.trace);
        self.traced(&req, t0, laps, |laps| {
            laps.lap(STAGE_PARSE);
            self.respond(&req, ws, laps)
        })
    }

    /// Stage laps from `t0`, timed if the request asked for a trace, the
    /// slow ring is armed, or a recorder or the registry is installed.
    fn laps(&self, t0: u64, trace: bool) -> Laps<'_> {
        Laps {
            clock: &*self.clock,
            last: t0,
            stage_us: [0; 7],
            on: trace
                || self.log_slow_us.is_some()
                || self.recorder.is_some()
                || ndg_obs::installed(),
        }
    }

    /// Answer `req` through `answer` under its trace id, then
    /// [`finish`](Self::finish) the line.
    fn traced(
        &self,
        req: &Request,
        t0: u64,
        mut laps: Laps<'_>,
        answer: impl FnOnce(&mut Laps<'_>) -> (String, u64),
    ) -> String {
        // One trace id per request: the client's wire value wins (and is
        // echoed back as a `trace_id=` header); otherwise a
        // process-unique id is allocated. The thread-local context
        // carries (recorder, trace) into the engines — and across
        // executor workers — so sub-events land on the same trace.
        let trace_id = match (&self.recorder, req.trace_id) {
            (_, Some(t)) => t,
            (Some(_), None) => ndg_obs::events::next_trace_id(),
            (None, None) => 0,
        };
        let _ctx = self
            .recorder
            .as_ref()
            .map(|r| ndg_obs::events::set_current(Arc::clone(r), trace_id));
        let (resp, key) = answer(&mut laps);
        self.finish(req, resp, t0, laps, key, trace_id)
    }

    /// Common post-processing of every parsed request: the `write` lap
    /// (final line assembly since the previous stage boundary) is taken
    /// here, then total-latency metrics, the slow-request ring, and —
    /// last, so the echoed timings cover everything but the splice
    /// itself — the volatile `trace=` header echo.
    fn finish(
        &self,
        req: &Request,
        line: String,
        t0: u64,
        mut laps: Laps<'_>,
        key: u64,
        trace_id: u64,
    ) -> String {
        if !laps.on {
            return line;
        }
        laps.lap(STAGE_WRITE);
        let total_us = laps.last.saturating_sub(t0);
        SERVE_REQUESTS.inc();
        SERVE_REQUEST_US.record(total_us);
        SERVE_SOLVE_US.record(laps.stage_us[STAGE_SOLVE]);
        let slow = self.log_slow_us.is_some_and(|thresh| total_us >= thresh);
        if slow {
            self.note_slow(SlowRequest {
                method: req.method.as_str(),
                key_hash: key,
                total_us,
                stage_us: laps.stage_us,
            });
        }
        if let Some(rec) = &self.recorder {
            let outcome = classify_outcome(&line);
            let mut fields = vec![
                ("method", req.method.as_str().to_string()),
                ("key", format!("{key:016x}")),
                ("outcome", outcome.to_string()),
                ("total_us", total_us.to_string()),
            ];
            for (name, us) in STAGE_FIELD_NAMES.iter().zip(laps.stage_us.iter()) {
                fields.push((name, us.to_string()));
            }
            for header in ["cache", "session", "epoch", "code"] {
                if let Some(v) = response_field(&line, header) {
                    // `cache`/`code` field names double as wide-event
                    // names; values are sanitized by the recorder.
                    match header {
                        "cache" => fields.push(("cache", v)),
                        "session" => fields.push(("session", v)),
                        "epoch" => fields.push(("epoch", v)),
                        _ => fields.push(("code", v)),
                    }
                }
            }
            // Errors and slow requests always reach the log sink; the
            // rest obey the configured sampling.
            rec.push_wide(trace_id, "request", fields, outcome != "ok" || slow);
        }
        let line = if req.trace {
            crate::codec::insert_after_id(&line, &crate::codec::trace_field(&laps.stage_us))
        } else {
            line
        };
        if req.trace_id.is_some() {
            return crate::codec::insert_after_id(&line, &format!("trace_id={trace_id}"));
        }
        line
    }

    /// Retain `entry` in the top-k-by-wall-time slow ring.
    fn note_slow(&self, entry: SlowRequest) {
        let mut ring = self
            .slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() < SLOW_RING_CAP {
            ring.push(entry);
            return;
        }
        // Full: displace the fastest resident iff the newcomer beats it.
        if let Some(i) = (0..ring.len()).min_by_key(|&i| ring[i].total_us) {
            if ring[i].total_us < entry.total_us {
                ring[i] = entry;
            }
        }
    }

    /// Answer a parsed request, lapping stage boundaries into `laps`.
    /// Returns the response line (pre-trace-splice) and the cache key
    /// the request keyed under (0 for the introspection methods).
    fn respond(
        &self,
        req: &Request,
        ws: &mut DijkstraWorkspace,
        laps: &mut Laps<'_>,
    ) -> (String, u64) {
        if matches!(
            req.method,
            Method::Stats | Method::Metrics | Method::Events | Method::Health
        ) {
            // Introspection methods answer from the instant they are
            // asked: never keyed, never cached, counted as `solve`.
            let payload = match req.method {
                Method::Metrics => ndg_obs::expose(),
                Method::Events => self.events_payload(req),
                Method::Health => self.health_payload(),
                _ => self.stats_payload(),
            };
            laps.lap(STAGE_SOLVE);
            let (h, m, e) = self.cache.counters();
            return (ok_line(&req.id, "off", h, m, e, &payload), 0);
        }
        if req.method.is_session() {
            // Stateful session protocol: literal instances, never cached
            // (the key only attributes slow-ring rows), session/epoch/
            // resynced ride in the volatile header. See [`crate::session`].
            return self.respond_session(req, laps);
        }
        // Canonical pipeline: rewrite the request into canonical label
        // space, key and solve there, and map every answer back through
        // the relabeling. Hit and miss responses to the same request are
        // byte-identical by construction (both are `unapply(P)` of the
        // one canonical payload `P`). Requests the canonicalizer
        // declines — `canon=0`, no/unmappable instance, over budget —
        // run the identical protocol on the literal request with no
        // mapping step.
        let outcome = if self.canon && req.canon {
            // Memoized: exact replays of a literal body skip the search.
            self.memo.lookup(req)
        } else {
            crate::canon::CanonOutcome {
                literal_body: req.canonical_body(),
                canon: None,
            }
        };
        // `canon` covers body serialization plus the memo/refinement work.
        laps.lap(STAGE_CANON);
        self.answer(req, &outcome.literal_body, outcome.canon.as_ref(), ws, laps)
    }

    /// The stateless pipeline after canonicalization: key, probe the
    /// result cache, solve on a miss and map the answer back. `rewrite`
    /// is the canonical rewrite and its body (`None`: the literal
    /// pipeline solves `req` under `literal_body`, the request's own
    /// canonical body). Only `req`'s id, method and deadline are read
    /// when a rewrite is given.
    fn answer(
        &self,
        req: &Request,
        literal_body: &str,
        rewrite: Option<&(crate::canon::CanonRequest, String)>,
        ws: &mut DijkstraWorkspace,
        laps: &mut Laps<'_>,
    ) -> (String, u64) {
        let (solve_req, map, body) = match rewrite {
            Some((c, canon_body)) => (&c.req, Some(&c.map), canon_body.as_str()),
            None => (req, None, literal_body),
        };
        // Map a (canonical-space) `ok` payload back into the request's
        // own labels; the identity for the literal pipeline.
        let unapply = |payload: &str| match map {
            Some(m) => crate::canon::unapply_payload(req.method, m, payload),
            None => payload.to_string(),
        };
        let key = crate::codec::fnv1a64(body.as_bytes());
        // An isomorphism hit is one mediated by canonicalization: the
        // request's own bytes differ from the canonical form it keyed
        // under.
        let iso = || map.is_some() && body != literal_body;
        let probed = self.cache.get_tagged(key, body, iso);
        laps.lap(STAGE_CACHE);
        if let Some((payload, is_err)) = probed {
            if is_err {
                // Cached deterministic error tail: re-attach the volatile
                // id — byte-identical to re-running the validation.
                return (crate::codec::err_line_with(&req.id, &payload), key);
            }
            let mapped = unapply(&payload);
            laps.lap(STAGE_UNMAP);
            let (h, m, e) = self.cache.counters();
            return (ok_line(&req.id, "hit", h, m, e, &mapped), key);
        }
        // The budget clock starts at dispatch: `deadline_ms=` bounds the
        // solve itself (parse and cache probes are not billed — a cache
        // hit legitimately beats any deadline, it does no engine work).
        let budget = match req.deadline_ms.or(self.default_deadline_ms) {
            Some(ms) => Budget::with_deadline(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        // Panic isolation: an engine (or injected-fault) panic is caught
        // here, on this request's worker thread, and turned into one
        // `err;code=internal` response; the batch, the connection, the
        // cache and the executor all survive. The pooled workspace is
        // replaced — the panic may have left its scratch inconsistent.
        let dispatched = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch(solve_req, ws, &budget)
        })) {
            Ok(res) => res,
            Err(_) => {
                *ws = DijkstraWorkspace::new(0);
                self.conn_stats.panics.fetch_add(1, Ordering::Relaxed);
                ndg_obs::events::emit("panic", vec![("method", req.method.as_str().to_string())]);
                ndg_obs::events::dump_current("engine panicked");
                Err(WireError::Engine {
                    code: "internal",
                    msg: "engine panicked; request isolated".into(),
                })
            }
        };
        laps.lap(STAGE_SOLVE);
        let line = match dispatched {
            Ok(payload) => {
                // The cache stores the solve-space payload; every reader
                // (this miss included) maps it back through its own
                // relabeling.
                self.cache.insert(key, body.to_string(), payload.clone());
                let status = if self.cache.enabled() { "miss" } else { "off" };
                let mapped = unapply(&payload);
                let (h, m, e) = self.cache.counters();
                ok_line(&req.id, status, h, m, e, &mapped)
            }
            Err(e) => {
                // Deterministic validate-class failures are cached too
                // (the tail only — the id is re-attached per request), so
                // repeated malformed instances skip re-validation; in the
                // canonical pipeline the diagnostics speak canonical
                // labels, identically for every isomorph. Engine failures
                // stay uncached by policy.
                if matches!(e, WireError::Deadline) {
                    self.conn_stats.deadlines.fetch_add(1, Ordering::Relaxed);
                }
                if cacheable_err(&e) {
                    self.cache.insert_kind(
                        key,
                        body.to_string(),
                        crate::codec::err_payload(&e),
                        true,
                    );
                }
                err_line(&req.id, &e)
            }
        };
        // `unmap` covers the map-back to request labels plus the cache
        // insert — everything between the engine answering and the final
        // line existing.
        laps.lap(STAGE_UNMAP);
        (line, key)
    }

    fn dispatch(
        &self,
        req: &Request,
        ws: &mut DijkstraWorkspace,
        budget: &Budget,
    ) -> Result<String, WireError> {
        if let Some(hook) = &self.fault_hook {
            hook(req);
        }
        // One check up front covers the engines whose inner loops have no
        // budget boundary of their own (poly/tree LPs, Theorem 6, aon,
        // certify): an already-expired budget — e.g. an injected delay
        // consuming a short deadline — answers `deadline` for any method.
        budget.check().map_err(|_| WireError::Deadline)?;
        match req.method {
            Method::Enforce => self.enforce(req, budget),
            Method::Dynamics => self.dynamics(req, budget),
            Method::Pos => self.pos(req, budget),
            Method::Aon => self.aon(req),
            Method::Certify => self.certify(req, ws),
            Method::Stats | Method::Metrics | Method::Events | Method::Health => {
                unreachable!("introspection methods answered before dispatch")
            }
            Method::Open | Method::Delta | Method::Resync | Method::Close => {
                unreachable!("session methods answered before dispatch")
            }
        }
    }

    /// One coherent `method=stats` snapshot, assembled in a single pass
    /// (one [`CacheStats`] read, one [`ConnStats::snapshot`]). Field
    /// order is part of the wire contract, in four fixed groups:
    ///
    /// 1. cache: `entries`, `capacity`, `ok_hits`, `canon_hits`,
    ///    `err_hits`, `canon_err_hits`, `canon_rate`
    /// 2. engine: `threads`
    /// 3. connections: `conns_eof`, `conns_reset`, `conns_err`,
    ///    `conns_reaped`, `conns_drained`
    /// 4. robustness: `shed`, `panics`, `deadlines`
    /// 5. sessions: `sessions_open`, `sessions_opened`, `sessions_expired`,
    ///    `deltas`, `resyncs`, `audits`, `audits_failed`,
    ///    `sessions_journal_ops` (total journal window length across
    ///    live sessions — the ops a resync of each would replay from its
    ///    checkpoint)
    /// 6. process: `uptime_ms` (since construction or the last clock swap)
    /// 7. slow ring: `slow_count`, then one
    ///    `slow{i}={method}:{key:016x}:{total_us}:{parse/canon/cache/delta/solve/unmap/write}`
    ///    per retained request, slowest first.
    fn stats_payload(&self) -> String {
        let s = self.cache.stats();
        let c = self.conn_stats.snapshot();
        let sess = self.sessions.snapshot();
        let slow = self.slow_requests();
        let mut out = format!(
            "entries={};capacity={};ok_hits={};canon_hits={};err_hits={};canon_err_hits={};\
             canon_rate={};threads={};\
             conns_eof={};conns_reset={};conns_err={};conns_reaped={};conns_drained={};\
             shed={};panics={};deadlines={};\
             sessions_open={};sessions_opened={};sessions_expired={};\
             deltas={};resyncs={};audits={};audits_failed={};sessions_journal_ops={};\
             uptime_ms={};slow_count={}",
            s.entries,
            s.capacity,
            s.ok_hits,
            s.canon_hits,
            s.err_hits,
            s.canon_err_hits,
            crate::canon::canon_rate(s.canon_hits + s.canon_err_hits, s.hits),
            self.ex.threads(),
            c.eof,
            c.reset,
            c.errored,
            c.reaped,
            c.drained,
            c.shed,
            c.panics,
            c.deadlines,
            sess.open,
            sess.opened,
            sess.expired,
            sess.deltas,
            sess.resyncs,
            sess.audits,
            sess.audits_failed,
            self.sessions.journal_ops(),
            self.uptime_ms(),
            slow.len(),
        );
        for (i, r) in slow.iter().enumerate() {
            use std::fmt::Write as _;
            let us: Vec<String> = r.stage_us.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                ";slow{}={}:{:016x}:{}:{}",
                i,
                r.method,
                r.key_hash,
                r.total_us,
                us.join("/")
            );
        }
        out
    }

    /// `method=events` payload: the retained flight-recorder events,
    /// oldest first, as `recorder={0|1};events={n}` followed by one
    /// `e{seq}={rendered}` field per event. A request-borne `trace_id=`
    /// filters the snapshot to that trace's events. Never cached: the
    /// payload is volatile by construction (see `respond`, key 0).
    fn events_payload(&self, req: &Request) -> String {
        let Some(rec) = &self.recorder else {
            return "recorder=0;events=0".to_string();
        };
        let events = match req.trace_id {
            Some(t) => rec.snapshot_trace(t),
            None => rec.snapshot(),
        };
        let mut out = format!("recorder=1;events={}", events.len());
        for ev in &events {
            use std::fmt::Write as _;
            let _ = write!(out, ";e{}={}", ev.seq, ev.render());
        }
        out
    }

    /// `method=health` payload for load-balancer readiness: overload
    /// state (`status=ok|overloaded`), admission-gate fill, open
    /// sessions, result-cache fill, and uptime. `inflight`/`capacity`
    /// are `0/0` until a front end registers its gate.
    fn health_payload(&self) -> String {
        let gate = self
            .gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let (inflight, capacity) = match &gate {
            Some(g) => (g.inflight(), g.capacity()),
            None => (0, 0),
        };
        let overloaded = capacity > 0 && inflight >= capacity;
        let s = self.cache.stats();
        format!(
            "status={};inflight={};capacity={};sessions_open={};\
             cache_entries={};cache_capacity={};uptime_ms={}",
            if overloaded { "overloaded" } else { "ok" },
            inflight,
            capacity,
            self.sessions.snapshot().open,
            s.entries,
            s.capacity,
            self.uptime_ms(),
        )
    }

    fn enforce(&self, req: &Request, budget: &Budget) -> Result<String, WireError> {
        let (game, demands) = req
            .game
            .as_ref()
            .ok_or(WireError::MissingField("game"))?
            .build()?;
        let tree = checked_tree(req, &game)?;
        if let Some(d) = demands {
            let (state, _) = State::from_tree(&game, &tree)?;
            let (sol, stats) = ndg_sne::lp_weighted::enforce_state_weighted_budgeted(
                &game, &state, &d, &self.ex, budget,
            )
            .map_err(sne_err)?;
            return Ok(enforce_payload(
                &sol,
                Some((stats.rounds, stats.cuts_added)),
            ));
        }
        match req.solver.unwrap_or(Solver::Lp1) {
            Solver::Lp1 => {
                let (state, _) = State::from_tree(&game, &tree)?;
                let (sol, stats) = ndg_sne::lp_general::enforce_state_cutting_budgeted(
                    &game, &state, &self.ex, budget,
                )
                .map_err(sne_err)?;
                Ok(enforce_payload(
                    &sol,
                    Some((stats.rounds, stats.cuts_added)),
                ))
            }
            Solver::Lp2 => {
                let (state, _) = State::from_tree(&game, &tree)?;
                let sol = ndg_sne::lp_poly::enforce_state_poly(&game, &state).map_err(sne_err)?;
                Ok(enforce_payload(&sol, None))
            }
            Solver::Lp3 => {
                let sol = ndg_sne::lp_broadcast::enforce_tree_lp_with(&game, &tree, &self.ex)
                    .map_err(sne_err)?;
                Ok(enforce_payload(&sol, None))
            }
            Solver::T6 => {
                let sol = ndg_sne::theorem6::enforce(&game, &tree).map_err(sne_err)?;
                Ok(enforce_payload(&sol, None))
            }
        }
    }

    fn dynamics(&self, req: &Request, budget: &Budget) -> Result<String, WireError> {
        self.dynamics_full(req, budget).map(|(payload, _)| payload)
    }

    /// The `dynamics` engine, also returning the converged state — the
    /// session path stores it as the warm start for the next delta. Both
    /// the cold dispatch above and every session solve run exactly this
    /// function, which is what makes a session answer byte-identical to
    /// a cold solve of the same literal request *by construction*.
    fn dynamics_full(&self, req: &Request, budget: &Budget) -> Result<(String, State), WireError> {
        let (game, demands) = req
            .game
            .as_ref()
            .ok_or(WireError::MissingField("game"))?
            .build()?;
        if demands.is_some() {
            return Err(WireError::Engine {
                code: "unsupported",
                msg: "dynamics runs on unweighted games (drop the demands section)".into(),
            });
        }
        let g = game.graph();
        if let Some(tree) = &req.tree {
            check_edge_ids(g, tree, "tree")?;
        }
        if let Some(paths) = &req.state {
            for p in paths {
                check_edge_ids(g, p, "state")?;
            }
        }
        let state = req.initial_state(&game)?;
        let b = req.subsidy_for(&game)?;
        let order = req
            .order
            .unwrap_or(crate::codec::WireOrder::RoundRobin)
            .to_move_order();
        let max_rounds = req.rounds.unwrap_or(DEFAULT_ROUNDS);
        let res = best_response_dynamics_budgeted(&game, state, &b, order, max_rounds, budget)
            .map_err(|ndg_exec::BudgetExceeded| WireError::Deadline)?;
        // The trace always holds at least the initial potential; an empty
        // one is an engine bug, reported instead of killing the worker.
        let phi = *res.potential_trace.last().ok_or(WireError::Engine {
            code: "internal",
            msg: "dynamics returned an empty potential trace".into(),
        })?;
        let payload = format!(
            "converged={};moves={};rounds={};weight={};phi={};edges={}",
            res.converged,
            res.moves,
            res.rounds,
            fmt_f64(res.state.weight(g)),
            fmt_f64(phi),
            fmt_edge_ids(&res.state.established_edges()),
        );
        Ok((payload, res.state))
    }

    fn pos(&self, req: &Request, budget: &Budget) -> Result<String, WireError> {
        let (game, demands) = req
            .game
            .as_ref()
            .ok_or(WireError::MissingField("game"))?
            .build()?;
        if demands.is_some() {
            return Err(WireError::Engine {
                code: "unsupported",
                msg: "pos enumerates the unweighted game (drop the demands section)".into(),
            });
        }
        let cap = req.cap.unwrap_or(DEFAULT_CAP);
        let pos = ndg_snd::pos::exact_pos_budgeted(&game, cap, budget).map_err(snd_err)?;
        Ok(format!("pos={}", fmt_f64(pos)))
    }

    fn aon(&self, req: &Request) -> Result<String, WireError> {
        let (game, _demands) = req
            .game
            .as_ref()
            .ok_or(WireError::MissingField("game"))?
            .build()?;
        let tree = checked_tree(req, &game)?;
        let limit = req.limit.unwrap_or(DEFAULT_LIMIT);
        let sol = ndg_aon::exact::min_aon_subsidy(&game, &tree, limit).map_err(aon_err)?;
        Ok(format!(
            "cost={};edges={}",
            fmt_f64(sol.cost),
            fmt_edge_ids(&sol.edges)
        ))
    }

    fn certify(&self, req: &Request, ws: &mut DijkstraWorkspace) -> Result<String, WireError> {
        let (game, _demands) = req
            .game
            .as_ref()
            .ok_or(WireError::MissingField("game"))?
            .build()?;
        let root = game.root().ok_or(WireError::NotBroadcast)?;
        let tree = checked_tree(req, &game)?;
        let rt =
            RootedTree::new(game.graph(), &tree, root).map_err(|_| WireError::NotASpanningTree)?;
        let b = req.subsidy_for(&game)?;
        match ndg_core::lemma2_violation_eps_with(&game, &rt, &b, ndg_core::EPS, &self.ex) {
            None => Ok("eq=true".to_string()),
            Some(v) => {
                // Price the witness exactly with the worker's pooled
                // Dijkstra workspace: the violating player's true best
                // response in the tree-induced state.
                let (state, _) = State::from_tree(&game, &tree)?;
                let player = game.player_of_node(v.node).ok_or(WireError::Engine {
                    code: "internal",
                    msg: "Lemma 2 witness names a non-player node".into(),
                })?;
                let mut path = Vec::new();
                let best = best_response_with(&game, &state, &b, player, ws, &mut path);
                Ok(format!(
                    "eq=false;player={player};node={};via={};lhs={};rhs={};best={}",
                    v.node.0,
                    v.via.0,
                    fmt_f64(v.lhs),
                    fmt_f64(v.rhs),
                    fmt_f64(best),
                ))
            }
        }
    }

    // ---- delta sessions (see [`crate::session`]) -----------------------

    /// Answer one session-protocol request (`open`/`delta`/`resync`/
    /// `close`). Session responses never touch the result cache — the
    /// returned key only attributes slow-ring rows — and carry their
    /// addressing (`session=`/`epoch=`) plus the `resynced=1` recovery
    /// marker as volatile headers outside the deterministic payload.
    fn respond_session(&self, req: &Request, laps: &mut Laps<'_>) -> (String, u64) {
        let key = crate::codec::fnv1a64(req.canonical_body().as_bytes());
        laps.lap(STAGE_CANON);
        laps.lap(STAGE_CACHE);
        let budget = match req.deadline_ms.or(self.default_deadline_ms) {
            Some(ms) => Budget::with_deadline(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        };
        let out = match req.method {
            Method::Open => self.session_open(req, &budget, laps),
            Method::Delta => self.session_delta(req, &budget, laps),
            Method::Resync => self.session_resync(req, laps),
            Method::Close => self.session_close(req, laps),
            _ => unreachable!("respond_session called for a non-session method"),
        };
        let line = match out {
            Ok((payload, header)) => {
                let (h, m, e) = self.cache.counters();
                let line = ok_line(&req.id, "off", h, m, e, &payload);
                crate::codec::insert_after_id(&line, &header)
            }
            Err(e) => {
                if matches!(e, WireError::Deadline) {
                    self.conn_stats.deadlines.fetch_add(1, Ordering::Relaxed);
                }
                err_line(&req.id, &e)
            }
        };
        laps.lap(STAGE_UNMAP);
        (line, key)
    }

    /// `method=open`: pin the instance, answer its `dynamics` question,
    /// and admit the session (LRU-evicting at capacity). This cold solve
    /// is the session's only one: it is also the first checkpoint.
    fn session_open(
        &self,
        req: &Request,
        budget: &Budget,
        laps: &mut Laps<'_>,
    ) -> Result<(String, String), WireError> {
        // The opened instance is the open request reshaped into the
        // literal cold `dynamics` request it is specified to answer like.
        let mut synth = req.clone();
        synth.method = Method::Dynamics;
        synth.canon = false;
        synth.deadline_ms = None;
        synth.trace = false;
        laps.lap(STAGE_DELTA);
        let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(hook) = &self.fault_hook {
                hook(req);
            }
            budget.check().map_err(|_| WireError::Deadline)?;
            self.dynamics_full(&synth, budget)
        }));
        let (payload, state) = match solved {
            Ok(res) => res?,
            Err(_) => {
                self.conn_stats.panics.fetch_add(1, Ordering::Relaxed);
                ndg_obs::events::emit("panic", vec![("method", "open".to_string())]);
                ndg_obs::events::dump_current("session open panicked");
                return Err(engine_panicked());
            }
        };
        laps.lap(STAGE_SOLVE);
        let view = View {
            req: synth,
            payload: payload.clone(),
            converged: state_paths(&state),
        };
        let sid = self.sessions.open(Session {
            checkpoint: view.clone(),
            checkpoint_epoch: 0,
            journal: Vec::new(),
            view,
            dirty: false,
        })?;
        ndg_obs::events::emit(
            "session",
            vec![("op", "open".to_string()), ("sid", sid.clone())],
        );
        Ok((payload, session_header(&sid, 0, false)))
    }

    /// `method=delta`: journal the op (write-ahead), [`step`](Self::step)
    /// the committed view through it, and commit the new view atomically.
    /// A panic degrades to a [`replay`](Self::replay) of the journal
    /// window through the op; every `--audit-every`th committed delta is
    /// divergence-audited against that same replay, and a passing audit
    /// makes its replay the checkpoint.
    fn session_delta(
        &self,
        req: &Request,
        budget: &Budget,
        laps: &mut Laps<'_>,
    ) -> Result<(String, String), WireError> {
        let sid = req
            .session
            .as_deref()
            .ok_or(WireError::MissingField("session"))?;
        let op = req.delta.ok_or(WireError::MissingField("delta"))?;
        let got = req.epoch.ok_or(WireError::MissingField("epoch"))?;
        let sess = self.sessions.get(sid)?;
        let mut s = lock_session(&sess);
        let mut resynced = s.dirty;
        if resynced {
            // A torn earlier holder: rebuild the committed view from the
            // checkpoint before trusting anything in it.
            let replayed = self.replay(&s);
            s = self.commit(s, sid, replayed)?;
        }
        let want = s.epoch();
        if got != want {
            return Err(WireError::StaleEpoch { got, want });
        }
        // Write-ahead: the op is journaled before it is applied, so the
        // panic path below replays *through* it.
        s.journal.push(op);
        laps.lap(STAGE_DELTA);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(hook) = &self.fault_hook {
                hook(req);
            }
            budget.check().map_err(|_| WireError::Deadline)?;
            self.step(&s.view, op, budget)
        }));
        let audit = match outcome {
            Ok(Ok(view)) => {
                s.view = view;
                let every = self.sessions.config().audit_every;
                every > 0 && s.epoch().is_multiple_of(every)
            }
            Ok(Err(e)) => {
                // The op itself failed (validation or deadline): that
                // error is the deterministic answer. Roll the write-ahead
                // entry back — the epoch is unchanged.
                s.journal.pop();
                return Err(e);
            }
            Err(_) => {
                // Panic mid-delta (injected or real): discard the
                // incremental attempt and replay the window through the
                // journaled op.
                self.session_panicked(sid, "session delta panicked");
                let replayed = self.replay(&s);
                if let Err(Some(e)) = replayed {
                    // The journaled op is itself invalid; its error is
                    // the answer, entry rolled back.
                    s.journal.pop();
                    return Err(e);
                }
                s = self.commit(s, sid, replayed)?;
                resynced = true;
                false
            }
        };
        laps.lap(STAGE_SOLVE);
        self.sessions.note_delta();
        if audit {
            match self.replay(&s) {
                Ok(view)
                    if view.payload == s.view.payload && view.converged == s.view.converged =>
                {
                    // The replay, never the live view (its fault may not
                    // show in the comparison), is the next checkpoint.
                    s.set_checkpoint(view);
                    self.sessions.note_audit(false);
                }
                replayed => {
                    if replayed.is_ok() {
                        self.sessions.note_audit(true);
                        ndg_obs::events::emit(
                            "session",
                            vec![("op", "audit_failed".to_string()), ("sid", sid.to_string())],
                        );
                        ndg_obs::events::dump_current("divergence audit failed");
                    }
                    // The replay is the specification, so it wins.
                    s = self.commit(s, sid, replayed)?;
                    resynced = true;
                }
            }
        }
        Ok((
            s.view.payload.clone(),
            session_header(sid, s.epoch(), resynced),
        ))
    }

    /// `method=resync`: client-requested recovery — replace the
    /// incremental view with a [`replay`](Self::replay) of the journal
    /// window and serve it (`resynced=1`, epoch unchanged).
    fn session_resync(
        &self,
        req: &Request,
        laps: &mut Laps<'_>,
    ) -> Result<(String, String), WireError> {
        let sid = req
            .session
            .as_deref()
            .ok_or(WireError::MissingField("session"))?;
        let sess = self.sessions.get(sid)?;
        let mut s = lock_session(&sess);
        let hooked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(hook) = &self.fault_hook {
                hook(req);
            }
        }));
        if hooked.is_err() {
            self.session_panicked(sid, "session resync panicked");
            s.dirty = true; // recover on the next operation
            return Err(engine_panicked());
        }
        let replayed = self.replay(&s);
        let s = self.commit(s, sid, replayed)?;
        laps.lap(STAGE_SOLVE);
        Ok((s.view.payload.clone(), session_header(sid, s.epoch(), true)))
    }

    /// `method=close`: retire the session; its id answers
    /// `session_expired` from now on.
    fn session_close(
        &self,
        req: &Request,
        laps: &mut Laps<'_>,
    ) -> Result<(String, String), WireError> {
        let sid = req
            .session
            .as_deref()
            .ok_or(WireError::MissingField("session"))?;
        let sess = self.sessions.retire(sid)?;
        let s = lock_session(&sess);
        laps.lap(STAGE_SOLVE);
        ndg_obs::events::emit(
            "session",
            vec![("op", "close".to_string()), ("sid", sid.to_string())],
        );
        Ok((
            format!("closed=1;deltas={}", s.epoch()),
            session_header(sid, s.epoch(), false),
        ))
    }

    /// One warm session step: apply `op` to clones of `view`'s instance,
    /// then solve the patched literal `dynamics` request from `view`'s
    /// converged paths. Live deltas and [`replay`](Self::replay) both run
    /// exactly this, so a replay repeats the live path's calls.
    fn step(&self, view: &View, op: DeltaOp, budget: &Budget) -> Result<View, WireError> {
        let mut game = view.req.game.clone().ok_or_else(corrupt_view)?;
        let mut paths = view.converged.clone();
        let mut subsidy = view.req.subsidy.clone();
        apply_delta(op, &mut game, &mut paths, &mut subsidy)?;
        let mut req = Request::new(view.req.id.clone(), Method::Dynamics);
        req.game = Some(game);
        req.state = Some(paths);
        req.subsidy = subsidy;
        req.order = view.req.order;
        req.rounds = view.req.rounds;
        req.canon = false;
        let (payload, state) = self.dynamics_full(&req, budget)?;
        Ok(View {
            converged: state_paths(&state),
            req,
            payload,
        })
    }

    /// Derive a session's view from its checkpoint: a copy of it, then
    /// one [`step`](Self::step) per op in the journal window. No cold
    /// solve runs. Deterministic, budget-free (recovery and audits must
    /// not be starved by a client deadline) and panic-isolated.
    /// `Err(Some(e))` means the newest op failed with `e`; `Err(None)`
    /// means the checkpoint (one without an instance to step), an older
    /// op or a panic.
    fn replay(&self, s: &Session) -> Result<View, Option<WireError>> {
        if s.checkpoint.req.game.is_none() {
            return Err(None);
        }
        let unlimited = Budget::unlimited();
        let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut view = s.checkpoint.clone();
            for (i, &op) in s.journal.iter().enumerate() {
                let newest = i + 1 == s.journal.len();
                SESSION_REPLAYED_SOLVES.inc();
                view = self
                    .step(&view, op, &unlimited)
                    .map_err(|e| newest.then_some(e))?;
            }
            Ok(view)
        }));
        replayed.unwrap_or(Err(None))
    }

    /// Commit a [`replay`](Self::replay): install its view and a copy of
    /// it as the checkpoint, clear `dirty`, count one resync and emit one
    /// `session`/`resync` event. A journal that no longer replays retires
    /// the session instead: `code=internal` now, `session_expired` from
    /// then on. The guard is released before retiring (lock order is
    /// table → session).
    fn commit<'s>(
        &self,
        mut s: MutexGuard<'s, Session>,
        sid: &str,
        replayed: Result<View, Option<WireError>>,
    ) -> Result<MutexGuard<'s, Session>, WireError> {
        let Ok(view) = replayed else {
            drop(s);
            let _ = self.sessions.retire(sid);
            return Err(WireError::Engine {
                code: "internal",
                msg: "session journal replay failed; session retired".into(),
            });
        };
        // Copy first: no unwind can leave the checkpoint paired with the
        // wrong window.
        let checkpoint = view.clone();
        s.view = view;
        s.set_checkpoint(checkpoint);
        s.dirty = false;
        self.sessions.note_resync();
        ndg_obs::events::emit(
            "session",
            vec![("op", "resync".to_string()), ("sid", sid.to_string())],
        );
        Ok(s)
    }

    /// Count one isolated session panic in `panics`, with its
    /// `session`/`panic` event and a fault dump.
    fn session_panicked(&self, sid: &str, reason: &str) {
        self.conn_stats.panics.fetch_add(1, Ordering::Relaxed);
        ndg_obs::events::emit(
            "session",
            vec![("op", "panic".to_string()), ("sid", sid.to_string())],
        );
        ndg_obs::events::dump_current(reason);
    }
}

/// The volatile session response header (spliced after `id=`).
fn session_header(sid: &str, epoch: u64, resynced: bool) -> String {
    let mut h = format!("session={sid};epoch={epoch}");
    if resynced {
        h.push_str(";resynced=1");
    }
    h
}

/// Poison-tolerant session lock: a poisoned mutex means a fault tore an
/// earlier holder mid-operation, so the view is flagged for replay.
fn lock_session(sess: &Mutex<Session>) -> MutexGuard<'_, Session> {
    match sess.lock() {
        Ok(g) => g,
        Err(p) => {
            let mut g = p.into_inner();
            g.dirty = true;
            g
        }
    }
}

/// The isolated-panic error (one shape everywhere, so chaos can assert
/// on it).
fn engine_panicked() -> WireError {
    WireError::Engine {
        code: "internal",
        msg: "engine panicked; request isolated".into(),
    }
}

/// A session view missing its instance: impossible by construction,
/// reported instead of unwinding.
fn corrupt_view() -> WireError {
    WireError::Engine {
        code: "internal",
        msg: "session view lost its instance".into(),
    }
}

/// Whether an error response may be admitted to the result cache: only
/// deterministic *validate*-class failures — pure functions of the
/// canonical body (bad edge ids, non-tree edge sets, wrong game kind,
/// mis-sized vectors, missing required fields). `Engine` failures are
/// excluded by policy (their budgets/codes describe solver behaviour,
/// not the instance), and parse-stage errors never reach this point
/// (they have no canonical body to key on).
fn cacheable_err(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Graph(_)
            | WireError::Game(_)
            | WireError::State(_)
            | WireError::Subsidy(_)
            | WireError::BadDemands
            | WireError::NotASpanningTree
            | WireError::NotBroadcast
            | WireError::MissingField(_)
    )
}

/// The `id=` of a line that failed to parse, for the error response
/// (best-effort scan; `"?"` when absent or itself malformed).
pub(crate) fn recovered_id(line: &str) -> &str {
    line.split(';')
        .filter_map(|f| f.strip_prefix("id="))
        .find(|v| crate::codec::valid_id(v))
        .unwrap_or("?")
}

fn enforce_payload(sol: &SneSolution, cut_stats: Option<(usize, usize)>) -> String {
    let mut out = format!("cost={}", fmt_f64(sol.cost));
    if let Some((rounds, cuts)) = cut_stats {
        out.push_str(&format!(";rounds={rounds};cuts={cuts}"));
    }
    out.push_str(";b=");
    let b = sol.subsidies.as_slice();
    for (i, x) in b.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*x));
    }
    out
}

fn check_edge_ids(g: &Graph, ids: &[EdgeId], what: &'static str) -> Result<(), WireError> {
    let m = g.edge_count();
    for &e in ids {
        if e.index() >= m {
            return Err(WireError::Graph(format!(
                "{what}: edge id {} out of range ({m} edges)",
                e.0
            )));
        }
    }
    Ok(())
}

fn checked_tree(req: &Request, game: &NetworkDesignGame) -> Result<Vec<EdgeId>, WireError> {
    let tree = req.tree.clone().ok_or(WireError::MissingField("tree"))?;
    check_edge_ids(game.graph(), &tree, "tree")?;
    Ok(tree)
}

fn sne_err(e: SneError) -> WireError {
    match e {
        SneError::NotBroadcast => WireError::NotBroadcast,
        SneError::NotASpanningTree => WireError::NotASpanningTree,
        SneError::State(s) => WireError::State(s.to_string()),
        SneError::Cancelled => WireError::Deadline,
        other => WireError::Engine {
            code: "solver_failed",
            msg: other.to_string(),
        },
    }
}

fn snd_err(e: ndg_snd::SndError) -> WireError {
    match e {
        ndg_snd::SndError::NotBroadcast => WireError::NotBroadcast,
        ndg_snd::SndError::Enum(ndg_core::EnumError::Cancelled) => WireError::Deadline,
        ndg_snd::SndError::Enum(ndg_core::EnumError::CapExceeded {
            cap,
            visited,
            estimate,
        }) => WireError::Engine {
            code: "cap_exceeded",
            msg: format!(
                "more than {cap} spanning trees (covered {visited}, estimate ≈ {estimate:.0}); \
                 raise cap= or shrink the instance"
            ),
        },
        other => WireError::Engine {
            code: "solver_failed",
            msg: other.to_string(),
        },
    }
}

fn aon_err(e: ndg_aon::AonError) -> WireError {
    match e {
        ndg_aon::AonError::NotBroadcast => WireError::NotBroadcast,
        ndg_aon::AonError::NotASpanningTree => WireError::NotASpanningTree,
        ndg_aon::AonError::NodeLimit(n) => WireError::Engine {
            code: "node_limit",
            msg: format!("branch-and-bound node limit {n} exhausted; raise limit="),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::payload_of;

    fn cycle_game_spec(n: usize) -> String {
        // Unit cycle rooted at 0 with the path tree 0..n-1: the Theorem 11
        // instance family.
        let edges: Vec<String> = (0..n).map(|i| format!("{i}/{}/1", (i + 1) % n)).collect();
        format!("broadcast:{n}:0:{}", edges.join(","))
    }

    fn tree_ids(n: usize) -> String {
        (0..n - 1)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn enforce_t6_respects_the_e_budget() {
        let r = Router::new(Executor::sequential(), 64);
        let line = format!(
            "ndg1;id=t;method=enforce;solver=t6;tree={};game={}",
            tree_ids(9),
            cycle_game_spec(9)
        );
        let resp = r.handle_line(&line);
        assert!(resp.starts_with("ok;id=t;cache=miss;"), "{resp}");
        let cost: f64 = resp
            .split(";cost=")
            .nth(1)
            .unwrap()
            .split(';')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(cost <= 8.0 / std::f64::consts::E + 1e-9, "cost {cost}");
    }

    #[test]
    fn cache_hits_replay_the_identical_payload() {
        let r = Router::new(Executor::sequential(), 64);
        let line = |id: &str| {
            format!(
                "ndg1;id={id};method=dynamics;order=max-gain;tree={};game={}",
                tree_ids(7),
                cycle_game_spec(7)
            )
        };
        let first = r.handle_line(&line("a"));
        let second = r.handle_line(&line("b"));
        assert!(first.contains(";cache=miss;"), "{first}");
        assert!(second.contains(";cache=hit;"), "{second}");
        assert_eq!(payload_of(&first), payload_of(&second));
        assert_eq!(r.cache_stats().hits, 1);
    }

    #[test]
    fn certify_flags_the_theorem11_violation_and_prices_it() {
        let r = Router::new(Executor::sequential(), 0);
        // Unsubsidized unit 6-cycle, path tree: the farthest player
        // prefers the closing edge — not an equilibrium.
        let resp = r.handle_line(&format!(
            "ndg1;id=c;method=certify;tree={};game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        assert!(resp.contains(";cache=off;"), "{resp}");
        assert!(resp.contains("eq=false"), "{resp}");
        assert!(resp.contains("best="), "{resp}");
        // Fully subsidizing the tree certifies it.
        let resp = r.handle_line(&format!(
            "ndg1;id=c2;method=certify;tree={};b=1,1,1,1,1,0;game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        assert!(resp.ends_with("eq=true"), "{resp}");
    }

    #[test]
    fn pos_and_aon_and_stats_respond() {
        let r = Router::new(Executor::sequential(), 64);
        let resp = r.handle_line(&format!("ndg1;id=p;method=pos;game={}", cycle_game_spec(5)));
        assert!(resp.contains(";pos=1"), "unit cycle has PoS 1: {resp}");
        let resp = r.handle_line(&format!(
            "ndg1;id=a;method=aon;tree={};game={}",
            tree_ids(5),
            cycle_game_spec(5)
        ));
        assert!(resp.contains("cost="), "{resp}");
        let resp = r.handle_line("ndg1;id=s;method=stats");
        assert!(
            resp.contains("entries=") && resp.contains("threads="),
            "{resp}"
        );
    }

    #[test]
    fn engine_errors_are_structured_not_panics() {
        let r = Router::new(Executor::sequential(), 64);
        // Tree ids out of range.
        let resp = r.handle_line(&format!(
            "ndg1;id=x;method=certify;tree=90,91;game={}",
            cycle_game_spec(4)
        ));
        assert!(resp.starts_with("err;id=x;code=bad_graph;"), "{resp}");
        // Non-tree edge set.
        let resp = r.handle_line(&format!(
            "ndg1;id=y;method=certify;tree=0,1,2,3;game={}",
            cycle_game_spec(4)
        ));
        assert!(
            resp.starts_with("err;id=y;code=not_a_spanning_tree;"),
            "{resp}"
        );
        // aon on a general game.
        let resp = r.handle_line("ndg1;id=z;method=aon;tree=0;game=general:2:0/1/1:0/1");
        assert!(resp.starts_with("err;id=z;code=not_broadcast;"), "{resp}");
        // Unparseable line still echoes the id it can recover.
        let resp = r.handle_line("ndg1;id=w;method=warp");
        assert!(resp.starts_with("err;id=w;code=unknown_method;"), "{resp}");
        assert!(r
            .handle_line("garbage")
            .starts_with("err;id=?;code=bad_tag;"));
    }

    #[test]
    fn deterministic_errs_are_cached_and_replayed_byte_identically() {
        let r = Router::new(Executor::sequential(), 64);
        // Validate-class failure (tree ids out of range): admitted.
        let bad = |id: &str| {
            format!(
                "ndg1;id={id};method=certify;tree=90,91;game={}",
                cycle_game_spec(4)
            )
        };
        let first = r.handle_line(&bad("e1"));
        let second = r.handle_line(&bad("e2"));
        assert!(first.starts_with("err;id=e1;code=bad_graph;"), "{first}");
        assert!(second.starts_with("err;id=e2;code=bad_graph;"), "{second}");
        // Replay is byte-identical modulo the volatile id.
        assert_eq!(payload_of(&first), payload_of(&second));
        assert_eq!(r.cache_stats().err_hits, 1);
        assert_eq!(r.cache_stats().ok_hits, 0);
        // Parse-stage failures never reach the cache (no canonical body).
        let resp = r.handle_line("ndg1;id=p1;method=warp");
        assert!(resp.starts_with("err;id=p1;code=unknown_method;"), "{resp}");
        let _ = r.handle_line("ndg1;id=p2;method=warp");
        assert_eq!(r.cache_stats().err_hits, 1, "parse errors must not hit");
        // The stats payload surfaces the split counters.
        let stats = r.handle_line("ndg1;id=s;method=stats");
        assert!(stats.contains("ok_hits=0"), "{stats}");
        assert!(stats.contains("err_hits=1"), "{stats}");
        // With caching disabled the error path still answers identically.
        let off = Router::new(Executor::sequential(), 0);
        assert_eq!(payload_of(&off.handle_line(&bad("e3"))), payload_of(&first));
        assert_eq!(off.cache_stats().err_hits, 0);
    }

    #[test]
    fn relabeled_bad_instances_replay_the_err_tail_as_canon_err_hits() {
        // The weighted triangle under two labelings, both asking to
        // certify the full edge set — a cycle, so `not_a_spanning_tree`
        // (a cacheable validate-class failure). Both key under the same
        // canonical body, so the relabeled copy replays the stored err
        // tail without re-validating, counted apart from literal replays.
        let lit = "ndg1;id=a;method=certify;tree=0,1,2;game=broadcast:3:0:0/1/1,1/2/2,2/0/4";
        let iso = "ndg1;id=b;method=certify;tree=0,1,2;game=broadcast:3:2:0/1/2,1/2/4,2/0/1";
        let r = Router::new(Executor::sequential(), 64);
        let first = r.handle_line(lit);
        let second = r.handle_line(iso);
        assert!(
            first.starts_with("err;id=a;code=not_a_spanning_tree;"),
            "{first}"
        );
        // Canonical-pipeline diagnostics speak canonical labels, so the
        // replayed tail is byte-identical modulo the volatile id.
        assert_eq!(payload_of(&first), payload_of(&second));
        let s = r.cache_stats();
        assert_eq!(
            (s.err_hits, s.canon_err_hits),
            (0, 1),
            "the relabeled copy is a canon-mediated err hit: {s:?}"
        );
        // A request already *in* canonical form replays as a plain err
        // hit: its bytes match the stored body, no mapping mediated.
        let canonical_req =
            crate::canon::canonicalize_request(&crate::codec::Request::parse(lit).unwrap())
                .expect("mappable")
                .req;
        let third = r.handle_line(&canonical_req.serialize());
        assert_eq!(payload_of(&first), payload_of(&third));
        let s = r.cache_stats();
        assert_eq!((s.err_hits, s.canon_err_hits), (1, 1), "{s:?}");
        // The stats payload surfaces the new counter and folds canon err
        // hits into the canon rate: 1 of the 2 hits was canon-mediated.
        let stats = r.handle_line("ndg1;id=s;method=stats");
        assert!(stats.contains("canon_err_hits=1"), "{stats}");
        assert!(stats.contains("canon_rate=0.5"), "{stats}");
    }

    #[test]
    fn engine_errors_are_not_admitted() {
        let r = Router::new(Executor::sequential(), 64);
        // `pos` with a tiny cap: a cap_exceeded Engine error (excluded by
        // the admission policy even though it decodes fine).
        let line = |id: &str| format!("ndg1;id={id};method=pos;cap=1;game={}", cycle_game_spec(6));
        let first = r.handle_line(&line("x1"));
        assert!(first.contains("code=cap_exceeded"), "{first}");
        let _ = r.handle_line(&line("x2"));
        assert_eq!(r.cache_stats().err_hits, 0);
        assert_eq!(r.cache_stats().hits, 0);
    }

    #[test]
    fn isomorphic_requests_hit_one_cache_entry_and_count_as_canon_hits() {
        // The same weighted triangle under two labelings (nodes
        // (0,1,2)→(2,0,1), edges and subsidies remapped accordingly).
        let lit =
            "ndg1;id=a;method=certify;tree=0,1;b=0.5,0,0;game=broadcast:3:0:0/1/1,1/2/2,2/0/4";
        let iso =
            "ndg1;id=b;method=certify;tree=0,2;b=0,0,0.5;game=broadcast:3:2:0/1/2,1/2/4,2/0/1";
        let r = Router::new(Executor::sequential(), 64);
        let first = r.handle_line(lit);
        let second = r.handle_line(iso);
        assert!(first.contains(";cache=miss;"), "{first}");
        assert!(
            second.contains(";cache=hit;"),
            "relabeled duplicate must hit: {second}"
        );
        let s = r.cache_stats();
        assert_eq!(
            (s.canon_hits, s.misses),
            (1, 1),
            "the second lookup is an isomorphism hit: {s:?}"
        );
        // Hit/miss interchange: the hit-served response must be byte-
        // identical to what a fresh router computes for the same line.
        let fresh = Router::new(Executor::sequential(), 64);
        assert_eq!(payload_of(&second), payload_of(&fresh.handle_line(iso)));
        // A request already *in* canonical form hits the same entry as a
        // plain (literal) hit: its bytes match the stored body.
        let canonical_req =
            crate::canon::canonicalize_request(&crate::codec::Request::parse(lit).unwrap())
                .expect("mappable")
                .req;
        let third = r.handle_line(&canonical_req.serialize());
        assert!(third.contains(";cache=hit;"), "{third}");
        let s = r.cache_stats();
        assert_eq!((s.ok_hits, s.canon_hits), (1, 1), "{s:?}");
        // The stats method surfaces the split plus the rate.
        let stats = r.handle_line("ndg1;id=s;method=stats");
        assert!(stats.contains("canon_hits=1"), "{stats}");
        assert!(stats.contains("canon_rate=0.5"), "{stats}");
    }

    #[test]
    fn canon_opt_out_keys_literally_and_never_mixes_with_canon_entries() {
        let lit = "ndg1;id=a;method=dynamics;tree=0,1;game=broadcast:3:0:0/1/1,1/2/2,2/0/4";
        let opt_out =
            "ndg1;id=b;method=dynamics;canon=0;tree=0,1;game=broadcast:3:0:0/1/1,1/2/2,2/0/4";
        let r = Router::new(Executor::sequential(), 64);
        let first = r.handle_line(lit);
        // Same instance bytes, but the opt-out lives in its own keyspace:
        // it must miss and solve literally.
        let second = r.handle_line(opt_out);
        assert!(first.contains(";cache=miss;"), "{first}");
        assert!(second.contains(";cache=miss;"), "{second}");
        // Both modes converge to the same tree here; the opt-out replays
        // from its own entry on repeat.
        let third = r.handle_line(opt_out);
        assert!(third.contains(";cache=hit;"), "{third}");
        assert_eq!(payload_of(&second), payload_of(&third));
        let s = r.cache_stats();
        assert_eq!((s.ok_hits, s.canon_hits), (1, 0), "{s:?}");
        // A router with canonicalization disabled wholesale behaves like
        // canon=0 for every request.
        let off = Router::with_canon(Executor::sequential(), 64, false);
        let resp = off.handle_line(lit);
        assert!(resp.contains(";cache=miss;"), "{resp}");
        assert_eq!(off.cache_stats().canon_hits, 0);
    }

    #[test]
    fn batch_matches_single_line_handling_at_every_thread_count() {
        let mk = |threads| Router::new(Executor::new(threads), 256);
        let lines: Vec<String> = (4..10)
            .flat_map(|n| {
                [
                    format!(
                        "ndg1;id=e{n};method=enforce;solver=lp3;tree={};game={}",
                        tree_ids(n),
                        cycle_game_spec(n)
                    ),
                    format!(
                        "ndg1;id=d{n};method=dynamics;tree={};game={}",
                        tree_ids(n),
                        cycle_game_spec(n)
                    ),
                    format!(
                        "ndg1;id=c{n};method=certify;tree={};game={}",
                        tree_ids(n),
                        cycle_game_spec(n)
                    ),
                ]
            })
            .collect();
        let reference: Vec<String> = lines
            .iter()
            .map(|l| payload_of(&mk(1).handle_line(l)))
            .collect();
        for threads in [1usize, 4, 8] {
            let r = mk(threads);
            let got: Vec<String> = r
                .handle_batch(&lines)
                .iter()
                .map(|l| payload_of(l))
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn trace_echo_is_volatile_and_never_reaches_the_cache_key() {
        // A frozen test clock makes every stage lap exactly 0µs, so the
        // echoed header is byte-deterministic.
        let mut r = Router::new(Executor::sequential(), 64);
        let clock = Arc::new(ndg_obs::TestClock::new());
        r.set_clock(clock.clone());
        let lit =
            "ndg1;id=a;method=certify;tree=0,1;b=0.5,0,0;game=broadcast:3:0:0/1/1,1/2/2,2/0/4";
        // The relabeled twin of `lit` — plus `trace=1`. Volatile fields
        // are outside the canonical body, so it must still hit the one
        // canonical cache entry.
        let iso = "ndg1;id=b;trace=1;method=certify;tree=0,2;b=0,0,0.5;\
             game=broadcast:3:2:0/1/2,1/2/4,2/0/1";
        let first = r.handle_line(lit);
        assert!(first.contains(";cache=miss;"), "{first}");
        let second = r.handle_line(iso);
        assert!(
            second.contains(";cache=hit;"),
            "traced relabeled twin must hit the canonical entry: {second}"
        );
        // The echo rides in the header, spliced right after the id…
        assert!(
            second.starts_with(
                "ok;id=b;trace=parse:0,canon:0,cache:0,delta:0,solve:0,unmap:0,write:0;cache=hit;"
            ),
            "{second}"
        );
        // …and is stripped with the other volatile fields: the payload is
        // byte-identical to the untraced miss response.
        assert_eq!(payload_of(&first), payload_of(&second));
        assert_eq!(r.cache_stats().canon_hits, 1);
        // Advancing the clock between requests lands in `parse` (the
        // first lap): the echo follows the clock, nothing else moves.
        clock.advance_us(7);
        let third = r.handle_line(iso);
        assert!(
            third.starts_with(
                "ok;id=b;trace=parse:0,canon:0,cache:0,delta:0,solve:0,unmap:0,write:0;cache=hit;"
            ),
            "{third}"
        );
        assert_eq!(payload_of(&first), payload_of(&third));
    }

    #[test]
    fn slow_ring_retains_requests_and_stats_reports_them_in_order() {
        let mut r = Router::new(Executor::sequential(), 64);
        // Threshold 0ms: every completed request qualifies.
        r.set_log_slow_ms(Some(0));
        for n in 4..8 {
            let line = format!(
                "ndg1;id=d{n};method=dynamics;tree={};game={}",
                tree_ids(n),
                cycle_game_spec(n)
            );
            let _ = r.handle_line(&line);
        }
        let slow = r.slow_requests();
        assert!(!slow.is_empty() && slow.len() <= SLOW_RING_CAP, "{slow:?}");
        assert!(
            slow.windows(2).all(|w| w[0].total_us >= w[1].total_us),
            "slowest first: {slow:?}"
        );
        assert!(slow.iter().all(|s| s.method == "dynamics"), "{slow:?}");
        assert!(slow.iter().all(|s| s.key_hash != 0), "{slow:?}");
        // Stage laps sum to at most the recorded wall time.
        for s in &slow {
            assert!(s.stage_us.iter().sum::<u64>() <= s.total_us, "{s:?}");
        }
        let stats = r.handle_line("ndg1;id=s;method=stats");
        assert!(stats.contains(";slow_count=4;"), "{stats}");
        assert!(stats.contains(";slow0=dynamics:"), "{stats}");
        // Disarmed ring: a fresh router reports slow_count=0 and no rows.
        let fresh = Router::new(Executor::sequential(), 64);
        let stats = fresh.handle_line("ndg1;id=s;method=stats");
        assert!(stats.ends_with(";slow_count=0"), "{stats}");
    }

    /// A volatile header field of a session response (`session=`,
    /// `epoch=`, `resynced=`).
    fn header(resp: &str, key: &str) -> Option<String> {
        let prefix = format!("{key}=");
        resp.split(';')
            .find_map(|f| f.strip_prefix(prefix.as_str()))
            .map(str::to_string)
    }

    #[test]
    fn sessions_open_delta_resync_close_roundtrip() {
        let r = Router::new(Executor::sequential(), 64);
        let open = r.handle_line(&format!(
            "ndg1;id=o1;method=open;tree={};game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        assert!(open.starts_with("ok;id=o1;session=s1;epoch=0;"), "{open}");
        assert!(open.contains("converged="), "{open}");
        // Patch the closing edge cheap, then fail edge 0: both advance
        // the epoch and answer the dynamics question for the patched
        // instance.
        let d1 =
            r.handle_line("ndg1;id=d1;method=delta;session=s1;epoch=0;delta=patch;edge=5;w=0.25");
        assert!(d1.starts_with("ok;id=d1;session=s1;epoch=1;"), "{d1}");
        let d2 = r.handle_line("ndg1;id=d2;method=delta;session=s1;epoch=1;delta=fail;edge=0");
        assert!(d2.starts_with("ok;id=d2;session=s1;epoch=2;"), "{d2}");
        // Stale epoch: optimistic-concurrency violation, nothing applied.
        let stale = r.handle_line("ndg1;id=d3;method=delta;session=s1;epoch=0;delta=fail;edge=0");
        assert!(stale.starts_with("err;id=d3;code=stale_epoch;"), "{stale}");
        // Invalid op: structured error, write-ahead entry rolled back —
        // the epoch is unchanged and the next delta at it succeeds.
        let bad = r.handle_line("ndg1;id=d4;method=delta;session=s1;epoch=2;delta=fail;edge=99");
        assert!(bad.starts_with("err;id=d4;code=bad_delta;"), "{bad}");
        // Client resync replays the journal: same payload as the last
        // committed answer, flagged resynced, epoch unchanged.
        let rs = r.handle_line("ndg1;id=r1;method=resync;session=s1");
        assert!(
            rs.starts_with("ok;id=r1;session=s1;epoch=2;resynced=1;"),
            "{rs}"
        );
        assert_eq!(payload_of(&rs), payload_of(&d2));
        let close = r.handle_line("ndg1;id=c1;method=close;session=s1");
        assert!(close.starts_with("ok;id=c1;session=s1;epoch=2;"), "{close}");
        assert!(close.ends_with("closed=1;deltas=2"), "{close}");
        // Retired id: session_expired (reopen); never-assigned: unknown.
        let gone = r.handle_line("ndg1;id=d5;method=delta;session=s1;epoch=2;delta=fail;edge=0");
        assert!(
            gone.starts_with("err;id=d5;code=session_expired;"),
            "{gone}"
        );
        let unk = r.handle_line("ndg1;id=r2;method=resync;session=s9");
        assert!(unk.starts_with("err;id=r2;code=unknown_session;"), "{unk}");
        let snap = r.sessions().snapshot();
        assert_eq!(
            (
                snap.open,
                snap.opened,
                snap.expired,
                snap.deltas,
                snap.resyncs
            ),
            (0, 1, 1, 2, 1),
            "{snap:?}"
        );
    }

    #[test]
    fn same_session_lines_in_one_batch_run_in_wire_order() {
        // Three sessions, then one batch that interleaves each session's
        // delta×4, resync and close. At any executor width every line
        // must answer exactly what it answers when the lines run one at a
        // time in wire order.
        let open_three = |r: &Router| -> Vec<(String, usize)> {
            [5usize, 6, 7]
                .iter()
                .map(|&n| {
                    let open = r.handle_line(&format!(
                        "ndg1;id=o{n};method=open;tree={};game={}",
                        tree_ids(n),
                        cycle_game_spec(n)
                    ));
                    (header(&open, "session").unwrap(), n)
                })
                .collect()
        };
        let batch = |sessions: &[(String, usize)]| -> Vec<String> {
            let mut lines = Vec::new();
            for k in 0..6 {
                for (sid, n) in sessions {
                    let id = format!("ndg1;id={sid}k{k}");
                    lines.push(match k {
                        0 => format!(
                            "{id};method=delta;session={sid};epoch=0;delta=patch;edge={};w=0.25",
                            n - 1
                        ),
                        1 => format!("{id};method=delta;session={sid};epoch=1;delta=fail;edge=0"),
                        2 => format!("{id};method=resync;session={sid}"),
                        3 => format!(
                            "{id};method=delta;session={sid};epoch=2;delta=patch;edge=1;w=3"
                        ),
                        4 => format!(
                            "{id};method=delta;session={sid};epoch=3;delta=patch;edge=2;w=0.5"
                        ),
                        _ => format!("{id};method=close;session={sid}"),
                    });
                }
            }
            lines
        };
        let epochs = ["1", "2", "2", "3", "4", "4"];
        let reference = Router::new(Executor::sequential(), 64);
        let lines = batch(&open_three(&reference));
        let want: Vec<String> = lines.iter().map(|l| reference.handle_line(l)).collect();
        for (i, w) in want.iter().enumerate() {
            assert!(w.starts_with("ok;"), "{w}");
            assert_eq!(header(w, "epoch").as_deref(), Some(epochs[i / 3]), "{w}");
        }
        assert_eq!(payload_of(&want[6]), payload_of(&want[3]), "resync answers");
        assert!(want[15].ends_with("closed=1;deltas=4"), "{}", want[15]);
        for threads in [2, 8] {
            for iteration in 0..50 {
                let r = Router::new(Executor::new(threads), 64);
                assert_eq!(batch(&open_three(&r)), lines);
                let got = r.handle_batch(&lines);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    let ctx = format!("threads {threads}, iteration {iteration}: {g}");
                    for key in ["session", "epoch", "resynced"] {
                        assert_eq!(header(g, key), header(w, key), "{ctx}");
                    }
                    assert_eq!(payload_of(g), payload_of(w), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn session_answers_match_cold_solves_byte_for_byte() {
        // The tentpole property at unit scale: after every operation the
        // session's answer payload equals a cold solve of the synthesized
        // literal request through a fresh canon-off router.
        let r = Router::new(Executor::sequential(), 64);
        let open = r.handle_line(&format!(
            "ndg1;id=o;method=open;order=max-gain;tree={};game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        let sid = header(&open, "session").unwrap();
        let mut last = open;
        for (epoch, delta) in [
            "delta=patch;edge=5;w=0.125",
            "delta=fail;edge=1",
            "delta=patch;edge=0;w=3",
        ]
        .iter()
        .enumerate()
        {
            let cold_line = r.session_cold_line(&sid).unwrap();
            let cold = Router::with_canon(Executor::sequential(), 0, false).handle_line(&cold_line);
            assert_eq!(
                payload_of(&last),
                payload_of(&cold),
                "epoch {epoch} diverged from its cold solve"
            );
            last = r.handle_line(&format!(
                "ndg1;id=d{epoch};method=delta;session={sid};epoch={epoch};{delta}"
            ));
            assert!(last.starts_with("ok;"), "{last}");
        }
        let cold_line = r.session_cold_line(&sid).unwrap();
        let cold = Router::with_canon(Executor::sequential(), 0, false).handle_line(&cold_line);
        assert_eq!(payload_of(&last), payload_of(&cold));
    }

    #[test]
    fn session_join_appends_players_on_general_games() {
        let r = Router::new(Executor::sequential(), 64);
        let open = r.handle_line(
            "ndg1;id=o;method=open;tree=0,1,2;game=general:4:0/1/1,1/2/1,2/3/1,1/3/3:0/2",
        );
        let sid = header(&open, "session").unwrap();
        let d = r.handle_line(&format!(
            "ndg1;id=j;method=delta;session={sid};epoch=0;delta=join;player=1/3"
        ));
        assert!(d.starts_with("ok;id=j;"), "{d}");
        let cold_line = r.session_cold_line(&sid).unwrap();
        assert!(
            cold_line.contains("players") || cold_line.contains("general:4:"),
            "{cold_line}"
        );
        let cold = Router::with_canon(Executor::sequential(), 0, false).handle_line(&cold_line);
        assert_eq!(payload_of(&d), payload_of(&cold));
        // Broadcast sessions reject join with a structured error.
        let bopen = r.handle_line(&format!(
            "ndg1;id=o2;method=open;tree={};game={}",
            tree_ids(4),
            cycle_game_spec(4)
        ));
        let bsid = header(&bopen, "session").unwrap();
        let bad = r.handle_line(&format!(
            "ndg1;id=j2;method=delta;session={bsid};epoch=0;delta=join;player=1/2"
        ));
        assert!(bad.starts_with("err;id=j2;code=bad_delta;"), "{bad}");
    }

    #[test]
    fn session_panic_mid_delta_recovers_by_journal_replay() {
        let mut r = Router::new(Executor::sequential(), 64);
        r.set_fault_hook(Some(Arc::new(|req: &Request| {
            if req.id == "boom" {
                panic!("injected session fault");
            }
        })));
        let open = r.handle_line(&format!(
            "ndg1;id=o;method=open;tree={};game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        let sid = header(&open, "session").unwrap();
        let ok1 = r.handle_line(&format!(
            "ndg1;id=d0;method=delta;session={sid};epoch=0;delta=patch;edge=5;w=0.25"
        ));
        assert!(ok1.starts_with("ok;id=d0;"), "{ok1}");
        // The injected panic fires inside the delta's isolation boundary;
        // the write-ahead journal replays through the op and the response
        // is still the committed answer, flagged resynced.
        let boom = r.handle_line(&format!(
            "ndg1;id=boom;method=delta;session={sid};epoch=1;delta=fail;edge=0"
        ));
        assert!(boom.starts_with("ok;id=boom;"), "{boom}");
        assert_eq!(header(&boom, "resynced").as_deref(), Some("1"), "{boom}");
        assert_eq!(header(&boom, "epoch").as_deref(), Some("2"), "{boom}");
        // Byte-identity survives the recovery.
        let cold_line = r.session_cold_line(&sid).unwrap();
        let cold = Router::with_canon(Executor::sequential(), 0, false).handle_line(&cold_line);
        assert_eq!(payload_of(&boom), payload_of(&cold));
        // And the next plain delta continues from the recovered epoch.
        let next = r.handle_line(&format!(
            "ndg1;id=d2;method=delta;session={sid};epoch=2;delta=patch;edge=0;w=2"
        ));
        assert!(next.starts_with("ok;id=d2;"), "{next}");
        let snap = r.sessions().snapshot();
        assert_eq!((snap.deltas, snap.resyncs), (3, 1), "{snap:?}");
        assert_eq!(r.conn_stats().snapshot().panics, 1);
    }

    #[test]
    fn session_divergence_audits_run_on_the_configured_cadence() {
        let mut r = Router::new(Executor::sequential(), 64);
        r.set_session_config(crate::session::SessionConfig {
            audit_every: 2,
            max_sessions: 8,
        });
        let open = r.handle_line(&format!(
            "ndg1;id=o;method=open;tree={};game={}",
            tree_ids(5),
            cycle_game_spec(5)
        ));
        let sid = header(&open, "session").unwrap();
        for epoch in 0..4u64 {
            let w = 1.0 + epoch as f64;
            let resp = r.handle_line(&format!(
                "ndg1;id=d{epoch};method=delta;session={sid};epoch={epoch};delta=patch;edge=4;w={w}"
            ));
            assert!(resp.starts_with(&format!("ok;id=d{epoch};")), "{resp}");
            // A clean audit never flags the response as resynced.
            assert_eq!(header(&resp, "resynced"), None, "{resp}");
        }
        let snap = r.sessions().snapshot();
        assert_eq!((snap.audits, snap.audits_failed), (2, 0), "{snap:?}");
    }

    #[test]
    fn session_lru_eviction_and_capacity_limits() {
        let mut r = Router::new(Executor::sequential(), 64);
        r.set_session_config(crate::session::SessionConfig {
            audit_every: 0,
            max_sessions: 2,
        });
        let line = |id: &str| {
            format!(
                "ndg1;id={id};method=open;tree={};game={}",
                tree_ids(5),
                cycle_game_spec(5)
            )
        };
        let s1 = header(&r.handle_line(&line("o1")), "session").unwrap();
        let s2 = header(&r.handle_line(&line("o2")), "session").unwrap();
        // Touch s1 so s2 is the LRU victim.
        let _ = r.handle_line(&format!("ndg1;id=r;method=resync;session={s1}"));
        let s3 = header(&r.handle_line(&line("o3")), "session").unwrap();
        assert_eq!((s1.as_str(), s2.as_str(), s3.as_str()), ("s1", "s2", "s3"));
        let evicted = r.handle_line(&format!("ndg1;id=x;method=resync;session={s2}"));
        assert!(
            evicted.starts_with("err;id=x;code=session_expired;"),
            "{evicted}"
        );
        // Zero capacity rejects opens outright.
        let mut closed = Router::new(Executor::sequential(), 64);
        closed.set_session_config(crate::session::SessionConfig {
            audit_every: 0,
            max_sessions: 0,
        });
        let denied = closed.handle_line(&line("o4"));
        assert!(
            denied.starts_with("err;id=o4;code=session_limit;"),
            "{denied}"
        );
    }

    #[test]
    fn session_responses_never_enter_the_result_cache() {
        let r = Router::new(Executor::sequential(), 64);
        let open = r.handle_line(&format!(
            "ndg1;id=o;method=open;tree={};game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        let sid = header(&open, "session").unwrap();
        let _ = r.handle_line(&format!(
            "ndg1;id=d;method=delta;session={sid};epoch=0;delta=patch;edge=5;w=0.5"
        ));
        // No session answer was admitted: the cache is untouched.
        let s = r.cache_stats();
        assert_eq!((s.entries, s.hits, s.misses), (0, 0, 0), "{s:?}");
        // The cold-solve audit path (a plain dynamics request for the
        // same pinned instance) is cacheable as usual.
        let cold_line = r.session_cold_line(&sid).unwrap();
        let cold = r.handle_line(&cold_line);
        assert!(cold.contains(";cache=miss;"), "{cold}");
        assert_eq!(r.cache_stats().entries, 1);
        // Session headers stay volatile: payloads compare equal.
        let open2 = r.handle_line(&format!(
            "ndg1;id=o2;method=open;tree={};game={}",
            tree_ids(6),
            cycle_game_spec(6)
        ));
        assert!(open2.starts_with("ok;id=o2;session="), "{open2}");
        assert_eq!(payload_of(&open), payload_of(&open2));
    }

    /// Router under a frozen [`ndg_obs::TestClock`] with a same-clock
    /// recorder installed: every lap and event timestamp is 0µs.
    fn recorded_router() -> (Router, Arc<ndg_obs::events::Recorder>) {
        let mut r = Router::new(Executor::sequential(), 64);
        let clock: Arc<ndg_obs::TestClock> = Arc::new(ndg_obs::TestClock::new());
        r.set_clock(clock.clone());
        let rec = Arc::new(ndg_obs::events::Recorder::new(64, clock));
        r.set_recorder(Some(rec.clone()));
        (r, rec)
    }

    #[test]
    fn events_and_health_answer_inline_and_are_never_cached() {
        let (r, _rec) = recorded_router();
        // Before any traffic: an empty recorder, a healthy router, no
        // gate registered (inflight/capacity 0/0).
        let ev = r.handle_line("ndg1;id=e0;method=events");
        assert!(ev.starts_with("ok;id=e0;cache=off;"), "{ev}");
        assert_eq!(payload_of(&ev), "ok;recorder=1;events=0");
        let h = r.handle_line("ndg1;id=h0;method=health");
        assert!(h.starts_with("ok;id=h0;cache=off;"), "{h}");
        assert_eq!(
            payload_of(&h),
            "ok;status=ok;inflight=0;capacity=0;sessions_open=0;\
             cache_entries=0;cache_capacity=64;uptime_ms=0"
        );
        // A request lands in the ring; the next snapshot differs — the
        // first `events` response was answered live, not cached. `stats`
        // style: cache counters are untouched by introspection.
        let line = format!(
            "ndg1;id=q;method=dynamics;tree={};game={}",
            tree_ids(5),
            cycle_game_spec(5)
        );
        let _ = r.handle_line(&line);
        let ev2 = r.handle_line("ndg1;id=e1;method=events");
        assert!(
            payload_of(&ev2).starts_with("ok;recorder=1;events="),
            "{ev2}"
        );
        assert_ne!(payload_of(&ev), payload_of(&ev2));
        assert_eq!(r.cache_stats().hits, 0);
        // Without a recorder, `events` still answers deterministically.
        let bare = Router::new(Executor::sequential(), 64);
        let off = bare.handle_line("ndg1;id=e2;method=events");
        assert_eq!(payload_of(&off), "ok;recorder=0;events=0");
    }

    #[test]
    fn wide_events_are_deterministic_and_cache_hits_stay_byte_identical() {
        let (r, rec) = recorded_router();
        let lit =
            "ndg1;id=a;method=certify;tree=0,1;b=0.5,0,0;game=broadcast:3:0:0/1/1,1/2/2,2/0/4";
        // Relabeled twin carrying a client-chosen trace id: volatile, so
        // it must still hit the canonical entry byte-identically.
        let iso = "ndg1;id=b;trace_id=7001;method=certify;tree=0,2;b=0,0,0.5;\
             game=broadcast:3:2:0/1/2,1/2/4,2/0/1";
        let first = r.handle_line(lit);
        assert!(first.contains(";cache=miss;"), "{first}");
        let second = r.handle_line(iso);
        assert!(second.contains(";cache=hit;"), "{second}");
        // The echo rides in the header right after the id and is
        // stripped with the other volatile fields.
        assert!(second.starts_with("ok;id=b;trace_id=7001;"), "{second}");
        assert_eq!(payload_of(&first), payload_of(&second));
        // Two wide events, causally ordered, with exact deterministic
        // fields under the frozen clock.
        let evs = rec.snapshot();
        assert_eq!(evs.len(), 2, "{evs:?}");
        assert_eq!((evs[0].seq, evs[0].kind), (0, "request"));
        assert_eq!(evs[0].field("method"), Some("certify"));
        assert_eq!(evs[0].field("outcome"), Some("ok"));
        assert_eq!(evs[0].field("cache"), Some("miss"));
        assert_eq!(evs[0].field("total_us"), Some("0"));
        assert_eq!(evs[0].field("us_solve"), Some("0"));
        assert_eq!((evs[1].seq, evs[1].trace_id), (1, 7001));
        assert_eq!(evs[1].field("cache"), Some("hit"));
        // Same canonical key on both sides of the hit.
        assert_eq!(evs[0].field("key"), evs[1].field("key"));
        // The `events` snapshot filters by trace id.
        let filtered = r.handle_line("ndg1;id=e;method=events;trace_id=7001");
        let p = payload_of(&filtered);
        assert!(p.starts_with("ok;recorder=1;events=1;e1="), "{p}");
        assert!(p.contains("trace:7001") && p.contains("cache:hit"), "{p}");
    }

    #[test]
    fn session_panic_emits_the_causal_event_sequence() {
        let (mut r, rec) = recorded_router();
        r.set_fault_hook(Some(Arc::new(|req: &Request| {
            if req.id == "boom" {
                panic!("injected");
            }
        })));
        let open = r.handle_line(&format!(
            "ndg1;id=o;trace_id=9000;method=open;tree={};game={}",
            tree_ids(5),
            cycle_game_spec(5)
        ));
        assert!(open.starts_with("ok;id=o;trace_id=9000;"), "{open}");
        let d1 = r.handle_line(
            "ndg1;id=boom;trace_id=9001;method=delta;session=s1;epoch=0;delta=patch;edge=4;w=0.5",
        );
        // The panic degrades to a journal replay: committed, resynced.
        assert!(d1.contains(";epoch=1;resynced=1;"), "{d1}");
        // Engine sub-events (recert adopt/invalidate, …) ride the same
        // trace as the request that ran them; the lifecycle assertions
        // below are exact over the lifecycle kinds.
        let lifecycle = |evs: &[ndg_obs::events::Event]| -> Vec<(&'static str, String)> {
            evs.iter()
                .filter(|e| e.kind != "recert" && e.kind != "enum" && e.kind != "lp")
                .map(|e| (e.kind, e.field("op").unwrap_or("-").to_string()))
                .collect()
        };
        // Open trace: session open sub-event then its wide event, with
        // the engine's adopt sub-event linked by the same trace id.
        let t0 = rec.snapshot_trace(9000);
        assert_eq!(
            lifecycle(&t0),
            [
                ("session", "open".to_string()),
                ("request", "-".to_string()),
            ],
            "{t0:?}"
        );
        assert_eq!(t0[0].field("op"), Some("adopt"), "{t0:?}");
        assert_eq!(t0[0].kind, "recert");
        // Panicked delta trace: panic → resync → wide event, in order,
        // all linked by the client's trace id.
        let t1 = rec.snapshot_trace(9001);
        assert_eq!(
            lifecycle(&t1),
            [
                ("session", "panic".to_string()),
                ("session", "resync".to_string()),
                ("request", "-".to_string()),
            ],
            "{t1:?}"
        );
        let wide = t1.last().expect("trace retained");
        assert_eq!(wide.field("outcome"), Some("ok"));
        assert_eq!(wide.field("session"), Some("s1"));
        assert_eq!(wide.field("epoch"), Some("1"));
        // Seqs strictly increase across the whole ring (causal order).
        let all = rec.snapshot();
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq), "{all:?}");
    }

    /// The `op` of every `session` sub-event on one trace, in order.
    fn session_ops(rec: &ndg_obs::events::Recorder, trace_id: u64) -> Vec<String> {
        rec.snapshot_trace(trace_id)
            .iter()
            .filter(|e| e.kind == "session")
            .map(|e| e.field("op").unwrap_or("-").to_string())
            .collect()
    }

    /// Open a 5-cycle session on `r` and commit one delta (epoch 0 -> 1).
    fn session_at_epoch_one(r: &Router) -> String {
        let open = r.handle_line(&format!(
            "ndg1;id=o;method=open;tree={};game={}",
            tree_ids(5),
            cycle_game_spec(5)
        ));
        let sid = header(&open, "session").unwrap();
        let d = r.handle_line(&format!(
            "ndg1;id=d0;method=delta;session={sid};epoch=0;delta=patch;edge=4;w=0.5"
        ));
        assert!(d.starts_with("ok;id=d0;"), "{d}");
        sid
    }

    /// The payload of a cold solve of session `sid`'s current answer.
    fn cold_payload(r: &Router, sid: &str) -> String {
        let cold_line = r.session_cold_line(sid).unwrap();
        let cold = Router::with_canon(Executor::sequential(), 0, false).handle_line(&cold_line);
        payload_of(&cold).to_string()
    }

    #[test]
    fn session_resync_panic_leaves_the_session_dirty_for_the_next_delta() {
        let (mut r, rec) = recorded_router();
        rec.set_dump_budget(1);
        r.set_fault_hook(Some(Arc::new(|req: &Request| {
            if req.id == "boom" {
                panic!("injected");
            }
        })));
        let sid = session_at_epoch_one(&r);
        let boom = r.handle_line(&format!(
            "ndg1;id=boom;trace_id=9100;method=resync;session={sid}"
        ));
        assert!(
            boom.starts_with("err;id=boom;trace_id=9100;code=internal;"),
            "{boom}"
        );
        assert!(r.sessions().get(&sid).unwrap().lock().unwrap().dirty);
        // The panic has its event, and its fault dump spent the budget.
        assert_eq!(session_ops(&rec, 9100), ["panic"]);
        assert!(rec.dump_fault(0, "probe").is_none(), "no fault dump");
        // The next delta replays the journal first: one resync, flagged.
        let d = r.handle_line(&format!(
            "ndg1;id=d1;trace_id=9101;method=delta;session={sid};epoch=1;delta=patch;edge=0;w=2"
        ));
        assert!(d.starts_with("ok;id=d1;"), "{d}");
        assert_eq!(header(&d, "epoch").as_deref(), Some("2"), "{d}");
        assert_eq!(header(&d, "resynced").as_deref(), Some("1"), "{d}");
        assert_eq!(payload_of(&d), cold_payload(&r, &sid));
        assert_eq!(session_ops(&rec, 9101), ["resync"]);
        let snap = r.sessions().snapshot();
        assert_eq!((snap.deltas, snap.resyncs), (2, 1), "{snap:?}");
        assert_eq!(r.conn_stats().snapshot().panics, 1);
    }

    #[test]
    fn session_failed_audit_commits_the_cold_replay() {
        let (mut r, rec) = recorded_router();
        r.set_session_config(crate::session::SessionConfig {
            audit_every: 2,
            max_sessions: 8,
        });
        let sid = session_at_epoch_one(&r);
        // Corrupt the committed warm view: every edge weight doubled.
        {
            let sess = r.sessions().get(&sid).unwrap();
            let mut s = sess.lock().unwrap();
            let Some(crate::codec::WireGame::Broadcast { edges, .. }) = &mut s.view.req.game else {
                panic!("broadcast session");
            };
            edges.iter_mut().for_each(|e| e.2 *= 2.0);
        }
        // The next delta is audited: the replay wins and is served.
        let d = r.handle_line(&format!(
            "ndg1;id=d1;trace_id=9200;method=delta;session={sid};epoch=1;delta=patch;edge=0;w=2"
        ));
        assert!(d.starts_with("ok;id=d1;"), "{d}");
        assert_eq!(header(&d, "epoch").as_deref(), Some("2"), "{d}");
        assert_eq!(header(&d, "resynced").as_deref(), Some("1"), "{d}");
        assert_eq!(payload_of(&d), cold_payload(&r, &sid));
        assert_eq!(session_ops(&rec, 9200), ["audit_failed", "resync"]);
        let snap = r.sessions().snapshot();
        assert_eq!(
            (snap.deltas, snap.audits, snap.audits_failed, snap.resyncs),
            (2, 1, 1, 1),
            "{snap:?}"
        );
    }

    #[test]
    fn session_journal_that_no_longer_replays_retires_at_every_recovery_site() {
        let mut r = Router::new(Executor::sequential(), 64);
        r.set_session_config(crate::session::SessionConfig {
            audit_every: 2,
            max_sessions: 8,
        });
        r.set_fault_hook(Some(Arc::new(|req: &Request| {
            if req.id == "boom" {
                panic!("injected");
            }
        })));
        let delta = "method=delta;epoch=1;delta=patch;edge=4;w=3";
        // (site, dirty before the request, audited to a fresh checkpoint
        // first, request id, request fields)
        let sites = [
            ("dirty lock", true, false, "x", delta),
            ("panicked delta", false, false, "boom", delta),
            ("failed audit", false, false, "x", delta),
            ("client resync", false, false, "x", "method=resync"),
            (
                "panicked delta alone in its window",
                false,
                true,
                "boom",
                "method=delta;epoch=2;delta=patch;edge=4;w=3",
            ),
        ];
        for (site, dirty, audited, id, fields) in sites {
            let sid = session_at_epoch_one(&r);
            if audited {
                let d = r.handle_line(&format!(
                    "ndg1;id=a;method=delta;session={sid};epoch=1;delta=patch;edge=0;w=2"
                ));
                assert!(
                    d.starts_with("ok;id=a;") && header(&d, "resynced").is_none(),
                    "{site}: {d}"
                );
            }
            {
                let sess = r.sessions().get(&sid).unwrap();
                let mut s = sess.lock().unwrap();
                assert_eq!(s.journal.is_empty(), audited, "{site}");
                s.checkpoint.req.game = None;
                s.dirty = dirty;
            }
            let resp = r.handle_line(&format!("ndg1;id={id};session={sid};{fields}"));
            assert!(
                resp.starts_with("err;id=") && resp.contains(";code=internal;msg=session journal"),
                "{site}: {resp}"
            );
            let next = r.handle_line(&format!("ndg1;id=n;method=resync;session={sid}"));
            assert!(
                next.starts_with("err;id=n;code=session_expired;"),
                "{site}: {next}"
            );
        }
        assert_eq!(r.sessions().snapshot().open, 0);
    }

    #[test]
    fn session_replay_from_the_checkpoint_equals_replay_from_the_open_view() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        // K6 rooted at 0 with the star tree (edge ids 0..=4). Its edge
        // connectivity is 5, so the at most 4 fails below never
        // disconnect it and every op commits.
        let n = 6u32;
        let pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        for seed in 0..6u64 {
            let audit_every = 2 + seed % 2;
            let mut rng = StdRng::seed_from_u64(seed);
            let quarter = |rng: &mut StdRng| f64::from(rng.random_range(1..=8u32)) / 4.0;
            let spec: Vec<String> = pairs
                .iter()
                .map(|(u, v)| format!("{u}/{v}/{}", quarter(&mut rng)))
                .collect();
            let mut r = Router::new(Executor::sequential(), 64);
            r.set_session_config(crate::session::SessionConfig {
                audit_every,
                max_sessions: 8,
            });
            let open = r.handle_line(&format!(
                "ndg1;id=o;method=open;tree=0,1,2,3,4;game=broadcast:{n}:0:{}",
                spec.join(",")
            ));
            let sid = header(&open, "session").unwrap();
            let sess = r.sessions().get(&sid).unwrap();
            let opened = sess.lock().unwrap().view.clone();
            let (mut sent, mut edges, mut fails) = (Vec::new(), pairs.len() as u32, 0);
            for epoch in 0..24u64 {
                if epoch == 13 {
                    let rs = r.handle_line(&format!("ndg1;id=rs;method=resync;session={sid}"));
                    assert!(rs.contains(";epoch=13;resynced=1;"), "{rs}");
                }
                let op = if fails < 4 && rng.random_range(0..4u32) == 0 {
                    fails += 1;
                    edges -= 1;
                    DeltaOp::Fail {
                        edge: rng.random_range(0..=edges),
                    }
                } else {
                    DeltaOp::Patch {
                        edge: rng.random_range(0..edges),
                        w: quarter(&mut rng),
                    }
                };
                let delta = match op {
                    DeltaOp::Fail { edge } => format!("delta=fail;edge={edge}"),
                    DeltaOp::Patch { edge, w } => format!("delta=patch;edge={edge};w={w}"),
                    DeltaOp::Join { .. } => unreachable!("no joins on broadcast games"),
                };
                let resp = r.handle_line(&format!(
                    "ndg1;id=d{epoch};method=delta;session={sid};epoch={epoch};{delta}"
                ));
                assert!(resp.starts_with(&format!("ok;id=d{epoch};")), "{resp}");
                assert_eq!(header(&resp, "resynced"), None, "{resp}");
                sent.push(op);
                let (s, at) = (sess.lock().unwrap(), epoch + 1);
                // The window is exactly the ops after the checkpoint.
                assert_eq!(s.epoch(), at);
                assert_eq!(s.journal, sent[s.checkpoint_epoch as usize..]);
                let windowed = r.replay(&s).unwrap();
                let from_open = r
                    .replay(&Session {
                        checkpoint: opened.clone(),
                        checkpoint_epoch: 0,
                        journal: sent.clone(),
                        view: opened.clone(),
                        dirty: false,
                    })
                    .unwrap();
                assert_eq!(windowed.payload, from_open.payload, "epoch {at}");
                assert_eq!(windowed.converged, from_open.converged, "epoch {at}");
                assert_eq!(windowed.payload, s.view.payload, "epoch {at}");
            }
            assert!(fails > 0, "seed {seed}: the journal holds fails");
            // Audits and the resync moved the checkpoint along the way.
            let snap = r.sessions().snapshot();
            assert_eq!((snap.audits, snap.audits_failed), (24 / audit_every, 0));
            assert_eq!(sess.lock().unwrap().checkpoint_epoch, 24);
        }
    }

    #[test]
    fn session_audit_catches_a_view_corrupted_after_a_checkpoint() {
        let mut r = Router::new(Executor::sequential(), 64);
        r.set_session_config(crate::session::SessionConfig {
            audit_every: 2,
            max_sessions: 8,
        });
        let sid = session_at_epoch_one(&r);
        let d = r.handle_line(&format!(
            "ndg1;id=d1;method=delta;session={sid};epoch=1;delta=patch;edge=0;w=2"
        ));
        assert!(d.starts_with("ok;id=d1;"), "{d}");
        assert_eq!(header(&d, "resynced"), None, "{d}");
        // The passing audit at epoch 2 made a checkpoint; now corrupt the
        // live view after it: every edge weight doubled.
        {
            let sess = r.sessions().get(&sid).unwrap();
            let mut s = sess.lock().unwrap();
            assert_eq!((s.checkpoint_epoch, s.journal.len()), (2, 0));
            let Some(crate::codec::WireGame::Broadcast { edges, .. }) = &mut s.view.req.game else {
                panic!("broadcast session");
            };
            edges.iter_mut().for_each(|e| e.2 *= 2.0);
        }
        let d = r.handle_line(&format!(
            "ndg1;id=d2;method=delta;session={sid};epoch=2;delta=patch;edge=1;w=0.5"
        ));
        assert_eq!(header(&d, "resynced"), None, "{d}");
        // The audit at epoch 4 replays the window from the checkpoint,
        // catches the corruption and serves the replay.
        let d = r.handle_line(&format!(
            "ndg1;id=d3;method=delta;session={sid};epoch=3;delta=patch;edge=2;w=1.5"
        ));
        assert!(d.starts_with("ok;id=d3;"), "{d}");
        assert_eq!(header(&d, "epoch").as_deref(), Some("4"), "{d}");
        assert_eq!(header(&d, "resynced").as_deref(), Some("1"), "{d}");
        assert_eq!(payload_of(&d), cold_payload(&r, &sid));
        let snap = r.sessions().snapshot();
        assert_eq!((snap.audits, snap.audits_failed), (2, 1), "{snap:?}");
        let sess = r.sessions().get(&sid).unwrap();
        let s = sess.lock().unwrap();
        assert_eq!((s.checkpoint_epoch, s.journal.len()), (4, 0));
    }

    #[test]
    fn session_close_reports_the_epoch_and_the_gauge_counts_the_window() {
        let mut r = Router::new(Executor::sequential(), 64);
        r.set_session_config(crate::session::SessionConfig {
            audit_every: 2,
            max_sessions: 8,
        });
        let sid = session_at_epoch_one(&r);
        for epoch in 1..3 {
            let d = r.handle_line(&format!(
                "ndg1;id=d{epoch};method=delta;session={sid};epoch={epoch};delta=patch;edge=0;w={}",
                epoch + 1
            ));
            assert!(d.starts_with(&format!("ok;id=d{epoch};")), "{d}");
        }
        // Three deltas, the audit at epoch 2 made a checkpoint: the
        // window holds only the third.
        let stats = r.handle_line("ndg1;id=s;method=stats");
        assert!(stats.contains(";audits=1;audits_failed=0;"), "{stats}");
        assert!(stats.contains(";sessions_journal_ops=1;"), "{stats}");
        let close = r.handle_line(&format!("ndg1;id=c;method=close;session={sid}"));
        assert!(close.starts_with("ok;id=c;"), "{close}");
        assert_eq!(header(&close, "epoch").as_deref(), Some("3"), "{close}");
        assert!(close.ends_with(";closed=1;deltas=3"), "{close}");
    }

    #[test]
    fn stats_reports_uptime_and_journal_ops_exactly() {
        let mut r = Router::new(Executor::sequential(), 64);
        let clock = Arc::new(ndg_obs::TestClock::new());
        r.set_clock(clock.clone());
        let open = |id: &str| {
            format!(
                "ndg1;id={id};method=open;tree={};game={}",
                tree_ids(5),
                cycle_game_spec(5)
            )
        };
        assert!(r.handle_line(&open("o1")).starts_with("ok;"), "open");
        assert!(r.handle_line(&open("o2")).starts_with("ok;"), "open");
        // Three committed deltas on s1, one on s2 → journal_ops = 4.
        for epoch in 0..3 {
            let resp = r.handle_line(&format!(
                "ndg1;id=d{epoch};method=delta;session=s1;epoch={epoch};\
                 delta=patch;edge=4;w={}",
                epoch + 1
            ));
            assert!(resp.starts_with("ok;"), "{resp}");
        }
        let resp =
            r.handle_line("ndg1;id=dx;method=delta;session=s2;epoch=0;delta=patch;edge=4;w=2");
        assert!(resp.starts_with("ok;"), "{resp}");
        clock.advance_us(12_500);
        let stats = r.handle_line("ndg1;id=s;method=stats");
        assert!(stats.contains(";sessions_journal_ops=4;"), "{stats}");
        assert!(stats.contains(";uptime_ms=12;"), "{stats}");
        // Closing a session releases its journal from the gauge.
        let close = r.handle_line("ndg1;id=c;method=close;session=s1");
        assert!(close.starts_with("ok;"), "{close}");
        let stats = r.handle_line("ndg1;id=s2;method=stats");
        assert!(stats.contains(";sessions_journal_ops=1;"), "{stats}");
    }
}
