//! The traced run: a per-layer ledger measured from outside the program.
//!
//! Three passes over the same traffic, each a set-up followed by the
//! workload's fixed replay prefix ([`Workload::replay_batches`] batches):
//!
//! 1. **Wire.** The prefix is sent over TCP to a fresh server, recording
//!    each batch's round trip, the gap between its first and last answer,
//!    and its response bytes. Every answer passes the correctness gate.
//! 2. **Untraced replay.** The same batches go through
//!    `Router::handle_batch` in-process, with the `ndg-obs` registry off.
//!    Round trip minus this is the wire's share of a request.
//! 3. **Traced replay.** With the registry installed, the batches go
//!    through a fresh router again, with a span around each
//!    `handle_batch`. Between calls, each request is taken apart by calling
//!    every layer's public entry point on the same input, each in a child
//!    span: `Request::parse`, the canonicalization memo and
//!    `canonicalize_request`, `Cache::get_tagged`, the engine the router
//!    dispatches to (only for requests the router solved rather than
//!    served from cache), and `unapply_payload`. A shadow memo and cache
//!    fed the same sequence as the router's own reproduce its hits and
//!    misses exactly. Session ops are classed open / delta / audited delta
//!    / close by their router span, and their warm solves re-run through
//!    `best_response_dynamics_budgeted`. Engine work comes from the
//!    `ndg-obs` counters, read around each `handle_batch` only.
//!
//! A layer's self time is its span minus the child spans on the same
//! input. Per-request engine times are means over the engine calls the
//! router made, set-up included (a body solved while filling the cache is
//! an engine call like any other); a layer the workload never reaches
//! reports 0. The tracing overhead is the
//! traced replay's router time over the untraced one's, minus one. Spans
//! are kept in memory and written as JSON lines at the end.

use crate::gate::{self, server_like_router, Counts, Tally};
use crate::replay::{replay, Step};
use crate::traffic::{header, Key, Plan, Workload};
use crate::{Metric, Phase, Report};
use ndg_core::{best_response_dynamics_budgeted, State, EPS};
use ndg_exec::{Budget, Executor};
use ndg_graph::RootedTree;
use ndg_serve::canon::CanonMemo;
use ndg_serve::codec::{fnv1a64, DEFAULT_CAP, DEFAULT_LIMIT, DEFAULT_ROUNDS};
use ndg_serve::{canonicalize_request, unapply_payload, Cache, Method, Request, Solver};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A batch whose last answer lands this long after its first stalled.
const STALL_US: f64 = 30_000.0;

/// Where a span sits: its parent span, its batch, and its request.
#[derive(Clone, Copy)]
struct At {
    parent: Option<usize>,
    batch: usize,
    req: Option<usize>,
}

/// Batch number of the spans recorded while replaying the set-up (written
/// out as a null batch).
const SETUP_BATCH: usize = usize::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    batch: usize,
    req: Option<usize>,
}

/// Spans of the traced replay, kept in memory.
struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Run `f` inside a span; returns its result and duration in µs.
    fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.t0.elapsed().as_secs_f64() * 1e6;
        let out = black_box(f());
        let end = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: end,
            parent: at.parent,
            batch: at.batch,
            req: at.req,
        });
        (out, end - start)
    }

    /// Record a span measured elsewhere (the router call), returning its index.
    fn record(&mut self, name: &'static str, dur_us: f64, batch: usize) -> usize {
        let end = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: end - dur_us,
            end_us: end,
            parent: None,
            batch,
            req: None,
        });
        self.spans.len() - 1
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"batch\": {}, \"req\": {}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent),
                opt((s.batch != SETUP_BATCH).then_some(s.batch)),
                opt(s.req)
            );
        }
        out
    }
}

/// Sum and count of one measured quantity.
#[derive(Default, Clone, Copy)]
struct Acc {
    sum: f64,
    n: usize,
}

impl Acc {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// Mean, or 0 when nothing was measured.
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The deterministic tail of an `ok` answer (after the cache counters).
fn payload_tail(answer: &str) -> &str {
    answer
        .find(";evictions=")
        .and_then(|i| answer[i + 1..].find(';').map(|j| &answer[i + 2 + j..]))
        .unwrap_or("")
}

/// Run the engine the router dispatches `req` to, timed in a child span.
/// Set-up work (building the game, tree and state) stays outside the span.
fn engine_probe(spans: &mut Spans, req: &Request, at: At) -> Option<(&'static str, f64)> {
    let ex = Executor::sequential();
    let budget = Budget::unlimited();
    let (game, demands) = req.game.as_ref()?.build().ok()?;
    let (name, (_, us)) = match req.method {
        Method::Enforce => {
            let tree = req.tree.clone()?;
            let (state, _) = State::from_tree(&game, &tree).ok()?;
            match (demands, req.solver.unwrap_or(Solver::Lp1)) {
                (Some(d), _) => (
                    "sne.weighted",
                    spans.time("sne.weighted", at, || {
                        ndg_sne::lp_weighted::enforce_state_weighted_budgeted(
                            &game, &state, &d, &ex, &budget,
                        )
                        .is_ok()
                    }),
                ),
                (None, Solver::Lp1) => (
                    "sne.lp1",
                    spans.time("sne.lp1", at, || {
                        ndg_sne::lp_general::enforce_state_cutting_budgeted(
                            &game, &state, &ex, &budget,
                        )
                        .is_ok()
                    }),
                ),
                (None, Solver::Lp2) => (
                    "sne.lp2",
                    spans.time("sne.lp2", at, || {
                        ndg_sne::lp_poly::enforce_state_poly(&game, &state).is_ok()
                    }),
                ),
                (None, Solver::Lp3) => (
                    "sne.lp3",
                    spans.time("sne.lp3", at, || {
                        ndg_sne::lp_broadcast::enforce_tree_lp_with(&game, &tree, &ex).is_ok()
                    }),
                ),
                (None, Solver::T6) => (
                    "sne.t6",
                    spans.time("sne.t6", at, || {
                        ndg_sne::theorem6::enforce(&game, &tree).is_ok()
                    }),
                ),
            }
        }
        Method::Dynamics | Method::Open | Method::Delta => {
            let state = req.initial_state(&game).ok()?;
            let b = req.subsidy_for(&game).ok()?;
            let order = req
                .order
                .unwrap_or(ndg_serve::WireOrder::RoundRobin)
                .to_move_order();
            let rounds = req.rounds.unwrap_or(DEFAULT_ROUNDS);
            (
                "core.dynamics",
                spans.time("core.dynamics", at, || {
                    best_response_dynamics_budgeted(&game, state, &b, order, rounds, &budget)
                        .is_ok()
                }),
            )
        }
        Method::Certify => {
            let tree = req.tree.clone()?;
            let rt = RootedTree::new(game.graph(), &tree, game.root()?).ok()?;
            let b = req.subsidy_for(&game).ok()?;
            (
                "core.certify",
                spans.time("core.certify", at, || {
                    ndg_core::lemma2_violation_eps_with(&game, &rt, &b, EPS, &ex).is_some()
                }),
            )
        }
        Method::Pos => {
            let cap = req.cap.unwrap_or(DEFAULT_CAP);
            (
                "snd.pos",
                spans.time("snd.pos", at, || {
                    ndg_snd::pos::exact_pos_budgeted(&game, cap, &budget).is_ok()
                }),
            )
        }
        Method::Aon => {
            let tree = req.tree.clone()?;
            let limit = req.limit.unwrap_or(DEFAULT_LIMIT);
            (
                "aon.solve",
                spans.time("aon.solve", at, || {
                    ndg_aon::exact::min_aon_subsidy(&game, &tree, limit).is_ok()
                }),
            )
        }
        _ => return None,
    };
    Some((name, us))
}

/// What the traced replay measured.
#[derive(Default)]
struct Ledger {
    batches: usize,
    requests: usize,
    request_bytes: usize,
    router: Acc,
    children_us: f64,
    parse: Acc,
    rewrite: Acc,
    cache_lookup: Acc,
    unmap: Acc,
    /// Engine span durations by span name, timed batches only (the
    /// counters are read around timed batches only, so count ratios use
    /// these).
    engines: BTreeMap<&'static str, Acc>,
    /// Engine span durations of the set-up's cache misses.
    setup_engines: BTreeMap<&'static str, Acc>,
    open: Acc,
    delta: Acc,
    audited: Acc,
    replayed_solves: u64,
    deltas: u64,
    fanout_us: Acc,
    fanouts: u64,
    counts: Counts,
}

/// Stateful helpers the traced replay keeps beside the router.
struct Shadow {
    memo: CanonMemo,
    cache: Cache,
}

impl Shadow {
    fn new() -> Shadow {
        // The router sizes its canonicalization memo like its result cache.
        let cap = ndg_serve::router::DEFAULT_CACHE_CAPACITY;
        Shadow {
            memo: CanonMemo::new(cap),
            cache: Cache::new(cap),
        }
    }
}

/// Take one stateless request apart into child spans of its batch's
/// router span, advancing the shadow memo and cache as the router did.
fn dissect(
    shadow: &Shadow,
    spans: &mut Spans,
    ledger: &mut Ledger,
    line: &str,
    answer: &str,
    at: At,
) {
    let (req, parse_us) = spans.time("serve.codec.parse", at, || Request::parse(line));
    let Ok(req) = req else { return };
    ledger.parse.add(parse_us);
    let memo_misses = || gate::read_counts()["canon_memo_misses_total"];
    let misses = memo_misses();
    let (outcome, memo_us) = spans.time("serve.canon.memo", at, || shadow.memo.lookup(&req));
    let mut children = parse_us + memo_us;
    if memo_misses() > misses {
        let (_, us) = spans.time("serve.canon.rewrite", at, || canonicalize_request(&req));
        ledger.rewrite.add(us);
    }
    let (solve_req, map, body) = match &outcome.canon {
        Some((c, body)) => (&c.req, Some(&c.map), body.as_str()),
        None => (&req, None, outcome.literal_body.as_str()),
    };
    let key = fnv1a64(body.as_bytes());
    let iso = || map.is_some() && body != outcome.literal_body;
    let (hit, lookup_us) = spans.time("serve.cache.lookup", at, || {
        shadow.cache.get_tagged(key, body, iso).is_some()
    });
    ledger.cache_lookup.add(lookup_us);
    children += lookup_us;
    let tail = payload_tail(answer);
    if !hit {
        if let Some((name, us)) = engine_probe(spans, solve_req, at) {
            ledger.engines.entry(name).or_default().add(us);
            children += us;
        }
        shadow.cache.insert(key, body.to_string(), tail.to_string());
    }
    // The answer is already in request labels; mapping it once more
    // through the same relabeling costs what the router's map-back did.
    let unmap_us = match map {
        Some(m) => {
            spans
                .time("serve.canon.unmap", at, || {
                    unapply_payload(req.method, m, tail)
                })
                .1
        }
        None => 0.0,
    };
    ledger.unmap.add(unmap_us);
    children += unmap_us;
    ledger.children_us += children;
}

/// Class one session op by its router span, and re-run its warm solve.
fn dissect_session(
    router: &ndg_serve::Router,
    spans: &mut Spans,
    ledger: &mut Ledger,
    step: &Step<'_>,
    at: At,
) {
    let line = &step.batch.lines[0];
    let answer = &step.responses[0];
    let (req, parse_us) = spans.time("serve.codec.parse", at, || Request::parse(line));
    ledger.parse.add(parse_us);
    ledger.children_us += parse_us;
    let Ok(req) = req else { return };
    let every = router.sessions().config().audit_every;
    match req.method {
        Method::Open => ledger.open.add(step.router_us),
        Method::Delta => {
            ledger.deltas += 1;
            let epoch: u64 = header(answer, "epoch")
                .and_then(|e| e.parse().ok())
                .unwrap_or(0);
            if every > 0 && epoch > 0 && epoch.is_multiple_of(every) {
                ledger.audited.add(step.router_us);
                // The audit replays the base and every journaled op.
                ledger.replayed_solves += epoch + 1;
            } else {
                ledger.delta.add(step.router_us);
            }
        }
        _ => {}
    }
    if matches!(req.method, Method::Open | Method::Delta) {
        let sid = header(answer, "session").unwrap_or("");
        let Some(cold) = router
            .session_cold_line(sid)
            .and_then(|l| Request::parse(&l).ok())
        else {
            return;
        };
        if let Some((name, us)) = engine_probe(spans, &cold, at) {
            ledger.engines.entry(name).or_default().add(us);
            ledger.children_us += us;
        }
    }
}

/// The traced replay (pass 3).
fn traced_replay(plan: &Plan, spans: &mut Spans) -> Ledger {
    let mut ledger = Ledger::default();
    // Set-up requests are dissected too, so the shadows follow the router
    // and engines reached only while filling the cache get timed; only
    // their engine times join the ledger.
    let mut setup = Ledger::default();
    let shadow = Shadow::new();
    let mut batch_no = 0;
    let mut req_no = 0;
    let sessions = plan.workload == Workload::SessionChurn;
    let wide = Executor::new(2);
    let narrow = Executor::sequential();
    let counts = replay(
        &server_like_router(),
        plan,
        plan.workload.replay_batches(),
        |router, step| {
            if !step.timed {
                let parent = Some(spans.record("setup", step.router_us, SETUP_BATCH));
                for (line, answer) in step.batch.lines.iter().zip(step.responses) {
                    let at = At {
                        parent,
                        batch: SETUP_BATCH,
                        req: None,
                    };
                    if !sessions {
                        dissect(&shadow, spans, &mut setup, line, answer, at);
                    }
                }
                return;
            }
            let b = batch_no;
            batch_no += 1;
            ledger.batches += 1;
            ledger.router.add(step.router_us);
            let parent = Some(spans.record("serve.router", step.router_us, b));
            for (line, answer) in step.batch.lines.iter().zip(step.responses) {
                ledger.requests += 1;
                ledger.request_bytes += line.len() + 1;
                let at = At {
                    parent,
                    batch: b,
                    req: Some(req_no),
                };
                if sessions {
                    dissect_session(router, spans, &mut ledger, &step, at);
                } else {
                    dissect(&shadow, spans, &mut ledger, line, answer, at);
                }
                req_no += 1;
            }
            // Executor fan-out: the batch's front-end parse at width 2
            // against the same work on the sequential path.
            let parse = |_: &mut (), l: &String| Request::parse(l).is_ok();
            let at = At {
                parent: None,
                batch: b,
                req: None,
            };
            let fanouts = || gate::read_counts()["exec_fanouts_total"];
            let before = fanouts();
            let (_, w) = spans.time("exec.width2", at, || {
                wide.par_map_with(&step.batch.lines, || (), parse)
            });
            ledger.fanouts += fanouts() - before;
            let (_, s) = spans.time("exec.width1", at, || {
                narrow.par_map_with(&step.batch.lines, || (), parse)
            });
            ledger.fanout_us.add(w - s);
        },
    );
    ledger.setup_engines = setup.engines;
    ledger.counts = counts;
    ledger
}

/// Run the traced passes and assemble the per-layer report.
pub fn run(server_bin: &Path, plan: &Plan, spans_path: &Path) -> Result<Report, String> {
    let n = plan.workload.replay_batches();
    // Pass 1: the wire.
    let (server, mut conn, mut client, setup, _) = crate::set_up(server_bin, plan)?;
    let mut wire = Phase::default();
    let t0 = Instant::now();
    let mut batch_ranges = Vec::with_capacity(n);
    for _ in 0..n {
        let first = wire.arena.len();
        wire.exchange(&mut conn, &mut client, t0)?;
        batch_ranges.push(first..wire.arena.len());
    }
    drop(conn);
    drop(server);
    let mut rtt = Acc::default();
    let mut stalled = 0usize;
    let mut response_bytes = Acc::default();
    for r in &batch_ranges {
        let first = wire.latency_us[r.start];
        let last = wire.latency_us[r.end - 1];
        rtt.add(last);
        if last - first >= STALL_US {
            stalled += 1;
        }
        response_bytes.add(
            r.clone()
                .map(|i| wire.arena.get(i).len() + 1)
                .sum::<usize>() as f64,
        );
    }
    let mut keys: BTreeSet<Key> = setup.keys.iter().copied().collect();
    keys.extend(wire.keys.iter().copied());
    let answers = gate::reference(plan, &keys);
    let tallies: Vec<Tally> = vec![
        gate::tally("setup", &setup.keys, &setup.arena, &answers),
        gate::tally("traced", &wire.keys, &wire.arena, &answers),
    ];

    // Pass 2: untraced in-process replay, registry off.
    ndg_obs::uninstall();
    let mut untraced = Acc::default();
    replay(&server_like_router(), plan, n, |_, step| {
        if step.timed {
            untraced.add(step.router_us);
        }
    });

    // Pass 3: traced.
    ndg_obs::install();
    let mut spans = Spans {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let l = traced_replay(plan, &mut spans);
    std::fs::create_dir_all(spans_path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(spans_path, spans.jsonl()))
        .map_err(|e| format!("cannot write spans: {e}"))?;

    let c = |name: &str| l.counts.get(name).copied().unwrap_or(0) as f64;
    let req = l.requests as f64;
    // Per-call engine times pool the timed and set-up calls; counter
    // ratios divide by the timed calls, whose work the counters saw.
    let timed_calls = |name: &str| l.engines.get(name).map_or(0, |a| a.n);
    let engine = |name: &str| {
        let mut a = l.engines.get(name).copied().unwrap_or_default();
        if let Some(s) = l.setup_engines.get(name) {
            a.sum += s.sum;
            a.n += s.n;
        }
        a
    };
    let enforces: usize = ["sne.lp1", "sne.lp2", "sne.lp3", "sne.t6", "sne.weighted"]
        .iter()
        .map(|n| timed_calls(n))
        .sum();
    let hits = c("cache_ok_hits_total")
        + c("cache_canon_hits_total")
        + c("cache_err_hits_total")
        + c("cache_canon_err_hits_total");
    let memo_hits = c("canon_memo_hits_total");
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m(
            "serve.server.wire_us_per_req",
            ratio(rtt.sum - untraced.sum, req),
            "us",
        ),
        m(
            "serve.server.stalled_batch_share",
            ratio(stalled as f64, n as f64),
            "ratio",
        ),
        m(
            "serve.server.response_bytes_per_batch",
            response_bytes.mean(),
            "B",
        ),
        m("serve.router.us_per_req", ratio(l.router.sum, req), "us"),
        m(
            "serve.router.self_us_per_req",
            ratio(l.router.sum - l.children_us, req),
            "us",
        ),
        m(
            "serve.codec.parse_us_per_req",
            ratio(l.parse.sum, req),
            "us",
        ),
        m(
            "serve.codec.request_bytes_per_req",
            ratio(l.request_bytes as f64, req),
            "B",
        ),
        m("serve.canon.rewrite_us_per_miss", l.rewrite.mean(), "us"),
        m(
            "serve.canon.memo_hit_ratio",
            ratio(memo_hits, memo_hits + c("canon_memo_misses_total")),
            "ratio",
        ),
        m(
            "serve.canon.unmap_us_per_req",
            ratio(l.unmap.sum, req),
            "us",
        ),
        m(
            "serve.cache.hit_ratio",
            ratio(hits, hits + c("cache_misses_total")),
            "ratio",
        ),
        m(
            "serve.cache.evictions_per_req",
            ratio(c("cache_evictions_total"), req),
            "count",
        ),
        m(
            "serve.cache.lookup_us_per_req",
            ratio(l.cache_lookup.sum, req),
            "us",
        ),
        m("serve.session.delta_us", l.delta.mean(), "us"),
        m(
            "serve.session.audit_us",
            if l.audited.n > 0 {
                l.audited.mean() - l.delta.mean()
            } else {
                0.0
            },
            "us",
        ),
        m("serve.session.open_us", l.open.mean(), "us"),
        m(
            "serve.session.replayed_solves_per_delta",
            ratio(l.replayed_solves as f64, l.deltas as f64),
            "count",
        ),
        m(
            "exec.fanouts_per_batch",
            ratio(l.fanouts as f64, l.batches as f64),
            "count",
        ),
        m("exec.fanout_us_per_batch", l.fanout_us.mean(), "us"),
        m(
            "core.dynamics_us_per_req",
            engine("core.dynamics").mean(),
            "us",
        ),
        m(
            "core.certify_us_per_req",
            engine("core.certify").mean(),
            "us",
        ),
        m(
            "core.recert_fresh_ratio",
            ratio(
                c("recert_fresh_total"),
                c("recert_fresh_total") + c("recert_stale_total"),
            ),
            "ratio",
        ),
        m(
            "core.enum_trees_per_pos",
            ratio(c("enum_trees_visited_total"), timed_calls("snd.pos") as f64),
            "count",
        ),
        m(
            "graph.dijkstra_relaxations_per_delta",
            ratio(c("dijkstra_relaxations_total"), c("serve_deltas_applied")),
            "count",
        ),
        m(
            "graph.astar_relaxations_per_delta",
            ratio(c("astar_relaxations_total"), c("serve_deltas_applied")),
            "count",
        ),
        m(
            "graph.dijkstra_relaxations_per_req",
            ratio(c("dijkstra_relaxations_total"), req),
            "count",
        ),
        m(
            "graph.astar_relaxations_per_req",
            ratio(c("astar_relaxations_total"), req),
            "count",
        ),
        m("sne.enforce_us_per_req.lp1", engine("sne.lp1").mean(), "us"),
        m("sne.enforce_us_per_req.lp2", engine("sne.lp2").mean(), "us"),
        m("sne.enforce_us_per_req.lp3", engine("sne.lp3").mean(), "us"),
        m("sne.enforce_us_per_req.t6", engine("sne.t6").mean(), "us"),
        m(
            "sne.enforce_us_per_req.weighted",
            engine("sne.weighted").mean(),
            "us",
        ),
        m(
            "lp.cut_rounds_per_enforce",
            ratio(c("lp_cut_rounds_total"), enforces as f64),
            "count",
        ),
        m(
            "lp.cuts_per_enforce",
            ratio(c("lp_cuts_added_total"), enforces as f64),
            "count",
        ),
        m("snd.pos_us_per_req", engine("snd.pos").mean(), "us"),
        m("aon.solve_us_per_req", engine("aon.solve").mean(), "us"),
        m(
            "trace.overhead_share",
            ratio(l.router.sum, untraced.sum) - 1.0,
            "ratio",
        ),
    ];
    let mut notes = vec![
        format!(
            "traced_batches={} traced_requests={}",
            l.batches, l.requests
        ),
        format!(
            "spans={} written_to={}",
            spans.spans.len(),
            spans_path.display()
        ),
        format!("untraced_router_rps={:.1}", ratio(req, untraced.sum / 1e6)),
        format!("traced_router_rps={:.1}", ratio(req, l.router.sum / 1e6)),
    ];
    for name in l
        .engines
        .keys()
        .chain(l.setup_engines.keys())
        .collect::<BTreeSet<_>>()
    {
        notes.push(format!(
            "engine_calls {name} timed={} all={} mean_us={:.1}",
            timed_calls(name),
            engine(name).n,
            engine(name).mean()
        ));
    }
    notes.push(format!(
        "session_ops open={} delta={} audited={} (audit_every={})",
        l.open.n,
        l.delta.n,
        l.audited.n,
        ndg_serve::SessionConfig::default().audit_every
    ));
    Ok(Report {
        tallies,
        metrics,
        counts: l.counts,
        problems: Vec::new(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_tail_skips_the_volatile_header() {
        let a = "ok;id=w1;cache=hit;hits=3;misses=1;evictions=0;pos=1.5";
        assert_eq!(payload_tail(a), "pos=1.5");
        assert_eq!(payload_tail("err;id=x;code=internal"), "");
    }

    #[test]
    fn acc_means_and_ratios_default_to_zero() {
        let mut a = Acc::default();
        assert_eq!(a.mean(), 0.0);
        a.add(2.0);
        a.add(4.0);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
