//! Workload traffic: the request plan each workload derives from its seed,
//! and the closed-loop client state that turns a plan into batches.
//!
//! A plan is immutable and a pure function of `(workload, seed)`. A
//! [`Client`] walks it: first the finite set-up batches, then an endless
//! timed stream. Session clients build each `delta`/`close` line when it is
//! sent, from the session id and epoch the previous answer returned.

use ndg_core::NetworkDesignGame;
use ndg_graph::{generators, kruskal, NodeId, UnionFind};
use ndg_serve::server::MAX_BATCH;
use ndg_serve::{build_workload, DeltaOp, Method, Request, WireGame, WorkloadSpec};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Engine-bound mix at the cache's eviction steady state.
    ColdMix,
    /// Front-end-bound replay of cached isomorphs in 16-line batches.
    WarmReplay,
    /// [`Workload::WarmReplay`] in 64-line batches (multi-write responses).
    BulkReplay,
    /// Fixed-length delta-session lifecycles at n = 128.
    SessionChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdMix,
        Workload::WarmReplay,
        Workload::BulkReplay,
        Workload::SessionChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold_mix",
            Workload::WarmReplay => "warm_replay",
            Workload::BulkReplay => "bulk_replay",
            Workload::SessionChurn => "session_churn",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Request lines per batch (session ops go one per round trip).
    pub fn batch_len(self) -> usize {
        match self {
            Workload::ColdMix => 8,
            Workload::WarmReplay => 16,
            Workload::BulkReplay => MAX_BATCH,
            Workload::SessionChurn => 1,
        }
    }

    /// Timed batches of the fixed-length in-process replay that the work
    /// counts and the per-layer table come from.
    pub fn replay_batches(self) -> usize {
        match self {
            Workload::ColdMix => 256,
            Workload::WarmReplay => 1024,
            Workload::BulkReplay => 256,
            Workload::SessionChurn => 8 * LIFECYCLE_OPS,
        }
    }
}

/// Set-up draw for `cold_mix`: enough distinct bodies to fill the
/// 4096-entry result cache and canon memo.
pub const COLD_SETUP: usize = 4096;
/// Distinct bodies the `cold_mix` timed phase cycles through. At twice the
/// cache capacity a body is evicted long before it comes round again.
pub const COLD_POOL: usize = 8192;
/// `warm_replay` / `bulk_replay` pool: base bodies and relabelings of each.
pub const WARM_BASES: usize = 200;
/// Random relabelings per warm base body.
pub const WARM_ISOMORPHS: usize = 4;
/// Sessions open at once in `session_churn`.
pub const SESSION_SLOTS: usize = 8;
/// Deltas per session lifecycle.
pub const SESSION_DELTAS: usize = 32;
/// Ops per lifecycle: `open`, the deltas, `close`.
pub const LIFECYCLE_OPS: usize = SESSION_DELTAS + 2;
/// Distinct lifecycle scripts per run; lifecycle `k` replays script
/// `k % SESSION_SCRIPTS` on a fresh session.
pub const SESSION_SCRIPTS: usize = 32;
/// One delta in this many is a `fail`; the rest are weight patches.
pub const FAIL_EVERY: usize = 8;
/// Nodes of each session instance.
pub const SESSION_NODES: usize = 128;

/// splitmix64 over `seed ^ tag`: independent sub-seeds for each draw.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TAG_SETUP: u64 = 1;
const TAG_POOL: u64 = 2;
const TAG_DRAW: u64 = 3;
const TAG_SESSION: u64 = 4;

/// Which reference answer a request is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Stateless request: index into [`Plan::lines`].
    Line(u32),
    /// Session op `pos` (0 = open, last = close) of lifecycle script `script`.
    Op {
        /// Script index.
        script: u32,
        /// Op position within the lifecycle.
        pos: u32,
    },
}

/// One session lifecycle: the `open` line and the deltas that follow it.
#[derive(Clone, Debug, PartialEq)]
pub struct Script {
    /// The `open` request line (literal 128-node broadcast game at its MST).
    pub open: String,
    /// The deltas, in order.
    pub deltas: Vec<DeltaOp>,
}

/// A workload's requests, fixed by its seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Stateless request lines (empty for sessions).
    pub lines: Vec<String>,
    /// `lines[..setup]` are sent once, in order, as the set-up.
    pub setup: usize,
    /// Session lifecycle scripts (empty for stateless workloads).
    pub scripts: Vec<Script>,
    /// Seed of the timed phase's uniform draws.
    pub draw_seed: u64,
}

impl Plan {
    /// Build the plan for `workload` from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Plan {
        let mut plan = Plan {
            workload,
            lines: Vec::new(),
            setup: 0,
            scripts: Vec::new(),
            draw_seed: mix(seed, TAG_DRAW),
        };
        match workload {
            Workload::ColdMix => {
                let draw = |n, tag| {
                    build_workload(WorkloadSpec {
                        requests: n,
                        distinct: n,
                        seed: mix(seed, tag),
                        isomorphs: 1,
                    })
                };
                plan.lines = draw(COLD_SETUP, TAG_SETUP);
                plan.lines.extend(draw(COLD_POOL, TAG_POOL));
                plan.setup = COLD_SETUP;
            }
            Workload::WarmReplay | Workload::BulkReplay => {
                let n = WARM_BASES * WARM_ISOMORPHS;
                plan.lines = build_workload(WorkloadSpec {
                    requests: n,
                    distinct: WARM_BASES,
                    seed: mix(seed, TAG_POOL),
                    isomorphs: WARM_ISOMORPHS,
                });
                plan.setup = n;
            }
            Workload::SessionChurn => {
                plan.scripts = (0..SESSION_SCRIPTS)
                    .map(|i| session_script(mix(seed, TAG_SESSION ^ ((i as u64) << 8))))
                    .collect();
            }
        }
        plan
    }

    /// The op position each session slot is advanced to during set-up:
    /// offsets spread over the lifecycle, so that the audits of different
    /// sessions fall on different round trips. Every slot is at least
    /// opened.
    pub fn stagger(slot: usize) -> usize {
        1 + slot * LIFECYCLE_OPS / SESSION_SLOTS
    }
}

/// Build one session lifecycle from `seed`: a fresh random broadcast
/// instance opened at its MST, then [`SESSION_DELTAS`] deltas. One delta in
/// [`FAIL_EVERY`] fails an edge whose removal keeps the client's mirror of
/// the graph connected; the others patch an edge weight.
pub fn session_script(seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_connected(SESSION_NODES, 0.4, &mut rng, 0.2..4.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("generator output is connected");
    let mut open = Request::new("open", Method::Open);
    open.tree = Some(kruskal(game.graph()).expect("connected"));
    let wire = WireGame::from_game(&game, None);
    let WireGame::Broadcast { edges, .. } = &wire else {
        unreachable!("broadcast game serializes as broadcast");
    };
    let mut mirror: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    open.game = Some(wire);
    let deltas = (1..=SESSION_DELTAS)
        .map(|j| {
            if j % FAIL_EVERY == FAIL_EVERY / 2 {
                let edge = loop {
                    let e = rng.random_range(0..mirror.len());
                    if connected_without(SESSION_NODES, &mirror, e) {
                        break e;
                    }
                };
                mirror.remove(edge);
                DeltaOp::Fail { edge: edge as u32 }
            } else {
                DeltaOp::Patch {
                    edge: rng.random_range(0..mirror.len()) as u32,
                    w: rng.random_range(1..=80u32) as f64 / 20.0,
                }
            }
        })
        .collect();
    Script {
        open: open.serialize(),
        deltas,
    }
}

/// Whether the graph on `n` nodes with `edges` stays connected without
/// edge `skip`.
pub fn connected_without(n: usize, edges: &[(u32, u32)], skip: usize) -> bool {
    let mut uf = UnionFind::new(n);
    let mut parts = n;
    for (i, &(u, v)) in edges.iter().enumerate() {
        if i != skip && uf.union(u as usize, v as usize) {
            parts -= 1;
        }
    }
    parts == 1
}

/// A batch ready to send, with the reference key of each line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Batch {
    /// Request lines, without newlines.
    pub lines: Vec<String>,
    /// Reference key per line.
    pub keys: Vec<Key>,
}

/// One open session as the client tracks it.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// Global lifecycle index (`slot + SESSION_SLOTS * j`).
    lifecycle: usize,
    /// Next op position within the lifecycle.
    pos: usize,
    /// Server-assigned id, once the open is answered.
    sid: Option<String>,
    /// Epoch the last answer returned.
    epoch: u64,
}

/// Closed-loop client state over a [`Plan`].
pub struct Client<'p> {
    plan: &'p Plan,
    /// Set-up batches still to send.
    in_setup: bool,
    /// Next stateless line (set-up) or timed draw counter.
    cursor: usize,
    rng: StdRng,
    slots: Vec<Slot>,
    /// Slot the last session batch went to.
    pending: usize,
}

impl<'p> Client<'p> {
    /// A client at the start of `plan`'s set-up.
    pub fn new(plan: &'p Plan) -> Client<'p> {
        Client {
            plan,
            in_setup: true,
            cursor: 0,
            rng: StdRng::seed_from_u64(plan.draw_seed),
            slots: (0..SESSION_SLOTS)
                .map(|i| Slot {
                    lifecycle: i,
                    ..Slot::default()
                })
                .collect(),
            pending: 0,
        }
    }

    /// Whether the set-up is complete (the next batch is timed traffic).
    pub fn setup_done(&self) -> bool {
        !self.in_setup
    }

    /// The next batch: set-up batches until [`Client::setup_done`], then
    /// timed traffic forever. Every batch must be answered through
    /// [`Client::observe`] before the next is asked for.
    pub fn next_batch(&mut self) -> Batch {
        let plan = self.plan;
        let len = plan.workload.batch_len();
        if plan.workload == Workload::SessionChurn {
            return self.next_session_op();
        }
        let mut batch = Batch::default();
        if self.in_setup {
            let end = (self.cursor + len).min(plan.setup);
            for i in self.cursor..end {
                batch.lines.push(plan.lines[i].clone());
                batch.keys.push(Key::Line(i as u32));
            }
            self.cursor = end;
            if end == plan.setup {
                self.in_setup = false;
                self.cursor = 0;
            }
            return batch;
        }
        for _ in 0..len {
            let i = match plan.workload {
                Workload::ColdMix => plan.setup + self.cursor % (plan.lines.len() - plan.setup),
                _ => self.rng.random_range(0..plan.lines.len()),
            };
            self.cursor += 1;
            batch.lines.push(plan.lines[i].clone());
            batch.keys.push(Key::Line(i as u32));
        }
        batch
    }

    fn next_session_op(&mut self) -> Batch {
        // Set-up walks the slots round-robin until each reaches its
        // stagger offset; the timed phase walks them round-robin forever.
        let slot = if self.in_setup {
            let next = (0..SESSION_SLOTS)
                .map(|k| (self.pending + k) % SESSION_SLOTS)
                .find(|&i| self.slots[i].pos < Plan::stagger(i));
            next.expect("set-up has a slot left to advance")
        } else {
            self.pending
        };
        self.pending = slot;
        let s = &self.slots[slot];
        let script_idx = s.lifecycle % SESSION_SCRIPTS;
        let script = &self.plan.scripts[script_idx];
        let sid = s.sid.clone().unwrap_or_else(|| "none".to_string());
        let line = match s.pos {
            0 => script.open.clone(),
            p if p <= SESSION_DELTAS => delta_line(p, &sid, s.epoch, script.deltas[p - 1]),
            _ => close_line(&sid),
        };
        Batch {
            lines: vec![line],
            keys: vec![Key::Op {
                script: script_idx as u32,
                pos: s.pos as u32,
            }],
        }
    }

    /// Take the answers to the last batch: session clients read the
    /// session id and epoch they must echo next.
    pub fn observe(&mut self, responses: &[&str]) {
        if self.plan.workload != Workload::SessionChurn {
            return;
        }
        let s = &mut self.slots[self.pending];
        let resp = responses.first().copied().unwrap_or("");
        match s.pos {
            0 => {
                s.sid = header(resp, "session").map(str::to_string);
                s.epoch = 0;
            }
            p if p <= SESSION_DELTAS => {
                s.epoch = header(resp, "epoch")
                    .and_then(|e| e.parse().ok())
                    .unwrap_or(s.epoch);
            }
            _ => s.sid = None,
        }
        s.pos += 1;
        if s.pos == LIFECYCLE_OPS {
            s.pos = 0;
            s.lifecycle += SESSION_SLOTS;
        }
        if self.in_setup {
            self.pending = (self.pending + 1) % SESSION_SLOTS;
            if (0..SESSION_SLOTS).all(|i| self.slots[i].pos >= Plan::stagger(i)) {
                self.in_setup = false;
                self.pending = 0;
            }
        } else {
            self.pending = (self.pending + 1) % SESSION_SLOTS;
        }
    }
}

/// The `delta` request for lifecycle op `pos` of session `sid`, echoing
/// the epoch the previous answer returned.
pub fn delta_line(pos: usize, sid: &str, epoch: u64, op: DeltaOp) -> String {
    let mut req = Request::new(format!("d{pos}"), Method::Delta);
    req.session = Some(sid.to_string());
    req.epoch = Some(epoch);
    req.delta = Some(op);
    req.serialize()
}

/// The `close` request of session `sid`.
pub fn close_line(sid: &str) -> String {
    let mut req = Request::new("close", Method::Close);
    req.session = Some(sid.to_string());
    req.serialize()
}

/// Value of the first `key=` field of a response line.
pub fn header<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(';')
        .find_map(|f| f.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answer a session batch the way a server would, echoing the epoch
    /// the request carried plus one.
    fn fake_answer(line: &str, sid: &str) -> String {
        let req = Request::parse(line).expect("client lines parse");
        match req.method {
            Method::Open => format!("ok;id=open;session={sid};epoch=0;x=1"),
            Method::Delta => format!(
                "ok;id=d;session={};epoch={};x=1",
                req.session.unwrap(),
                req.epoch.unwrap() + 1
            ),
            _ => "ok;id=close;closed=1".to_string(),
        }
    }

    #[test]
    fn traffic_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = Plan::build(w, 7);
            assert_eq!(a, Plan::build(w, 7), "{}", w.name());
            assert_ne!(a, Plan::build(w, 8), "{}", w.name());
            let batches = |plan: &Plan| {
                let mut c = Client::new(plan);
                (0..200)
                    .map(|i| {
                        let b = c.next_batch();
                        let answers: Vec<String> = b
                            .lines
                            .iter()
                            .map(|l| fake_answer(l, &format!("s{i}")))
                            .collect();
                        c.observe(&answers.iter().map(String::as_str).collect::<Vec<_>>());
                        b
                    })
                    .collect::<Vec<_>>()
            };
            if w != Workload::SessionChurn {
                assert_eq!(batches(&a), batches(&a), "{}", w.name());
            }
        }
    }

    #[test]
    fn stateless_batches_have_the_workload_shape() {
        let plan = Plan::build(Workload::BulkReplay, 3);
        assert_eq!(plan.lines.len(), WARM_BASES * WARM_ISOMORPHS);
        let mut c = Client::new(&plan);
        let mut setup_lines = 0;
        while !c.setup_done() {
            let b = c.next_batch();
            assert!(b.lines.len() <= MAX_BATCH);
            setup_lines += b.lines.len();
        }
        assert_eq!(setup_lines, plan.setup, "set-up sends every body once");
        assert_eq!(c.next_batch().lines.len(), MAX_BATCH);
    }

    #[test]
    fn session_script_fails_keep_the_mirror_connected() {
        for seed in 0..4 {
            let script = session_script(seed);
            let open = Request::parse(&script.open).unwrap();
            let Some(WireGame::Broadcast { edges, n, .. }) = open.game else {
                panic!("open carries a broadcast game");
            };
            let mut mirror: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
            assert_eq!(
                script.deltas.len(),
                SESSION_DELTAS,
                "fixed-length lifecycle"
            );
            let mut fails = 0;
            for op in &script.deltas {
                match *op {
                    DeltaOp::Fail { edge } => {
                        assert!(connected_without(n, &mirror, edge as usize));
                        mirror.remove(edge as usize);
                        fails += 1;
                    }
                    DeltaOp::Patch { edge, w } => {
                        assert!((edge as usize) < mirror.len() && w > 0.0);
                    }
                    DeltaOp::Join { .. } => panic!("no joins on broadcast sessions"),
                }
            }
            assert_eq!(fails, SESSION_DELTAS / FAIL_EVERY);
        }
    }

    #[test]
    fn session_client_echoes_epochs_and_staggers_slots() {
        let plan = Plan::build(Workload::SessionChurn, 5);
        let mut c = Client::new(&plan);
        let mut opened = 0;
        let mut setup_ops = 0;
        let mut last_epoch = std::collections::HashMap::new();
        let mut step = |c: &mut Client, opened: &mut usize| {
            let b = c.next_batch();
            assert_eq!(b.lines.len(), 1, "one op per round trip");
            let req = Request::parse(&b.lines[0]).unwrap();
            let sid = match req.method {
                Method::Open => {
                    *opened += 1;
                    format!("s{opened}")
                }
                _ => req.session.clone().unwrap(),
            };
            if req.method == Method::Delta {
                // The epoch sent is the one the previous answer returned.
                assert_eq!(req.epoch, last_epoch.get(&sid).copied());
            }
            let answer = fake_answer(&b.lines[0], &sid);
            if let Some(e) = header(&answer, "epoch") {
                last_epoch.insert(sid, e.parse::<u64>().unwrap());
            }
            c.observe(&[answer.as_str()]);
            b
        };
        while !c.setup_done() {
            step(&mut c, &mut opened);
            setup_ops += 1;
        }
        let want: usize = (0..SESSION_SLOTS).map(Plan::stagger).sum();
        assert_eq!(setup_ops, want);
        assert_eq!(opened, SESSION_SLOTS, "set-up opens every session");
        let offsets: std::collections::HashSet<usize> = (0..SESSION_SLOTS)
            .map(|i| Plan::stagger(i) % FAIL_EVERY)
            .collect();
        assert!(offsets.len() > 1, "audits fall on different round trips");
        // Two full rounds of every lifecycle: each slot cycles open, the
        // deltas and close, in fixed-length lifecycles.
        let mut closes = 0;
        for _ in 0..2 * LIFECYCLE_OPS * SESSION_SLOTS {
            let b = step(&mut c, &mut opened);
            if b.lines[0].contains("method=close") {
                closes += 1;
            }
        }
        assert_eq!(closes, 2 * SESSION_SLOTS);
        assert_eq!(opened, 3 * SESSION_SLOTS);
    }
}
