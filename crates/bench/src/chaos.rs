//! Deterministic seeded fault-injection harness for `ndg-serve` (the
//! `chaos::tests` survival gates and `exp_e12`'s chaos pass).
//!
//! The harness drives the E12 mixed workload against a live TCP server
//! while injecting faults drawn from one seeded [`StdRng`] plan:
//!
//! * **corruption** — a digit of the `game=` spec is overwritten on the
//!   wire, so the line still frames but cannot validate;
//! * **torn writes** — a request line is dribbled out in small flushed
//!   chunks across many socket reads;
//! * **mid-batch disconnects** — the connection drops after half a batch,
//!   with no flush line, and the casualties are replayed on a fresh
//!   connection;
//! * **injected engine panics** — the router's fault hook panics inside
//!   dispatch for chosen request ids;
//! * **injected delays + 1 ms deadlines** — the hook stalls dispatch past
//!   a `deadline_ms=1` budget, forcing a deterministic deadline error.
//!
//! The survival contract asserted after the run:
//!
//! 1. every fault-free request's payload is **byte-identical** to a
//!    sequential cache-off reference evaluation;
//! 2. every faulted request gets the *structured* answer its fault class
//!    specifies (`err;` for corruption, `code=internal` or a clean cache
//!    hit for panics, `code=deadline` for delayed deadlines) — never a
//!    dead connection or a garbled line;
//! 3. deadline errors are never cached: replaying a deadlined request
//!    without its deadline afterwards returns the correct reference
//!    payload;
//! 4. a batch thrown at a capacity-2 admission gate sheds exactly its
//!    tail with `code=overloaded;retry_ms=…`, in request order, while the
//!    admitted head stays byte-identical;
//! 5. the server still answers a fresh probe connection at the end;
//! 6. the robustness counters add up *exactly*: `panics`/`deadlines`
//!    equal the per-class response counts (plus the accounted-for
//!    orphaned dispatches of disconnect half-batches), the ungated
//!    router sheds nothing, the gate's `shed` counter equals the shed
//!    response count, and every counter is monotone across the run;
//! 7. **delta sessions survive every fault**: a scripted session phase
//!    drives `open`/`delta`/`resync`/`close` traffic (patches, edge
//!    failures, joins, corrupt delta lines, a mid-script disconnect,
//!    injected panics mid-delta) against an in-process sequential
//!    reference running the identical script — every answer must be
//!    payload-byte-identical with matching epochs, panicked deltas must
//!    come back `resynced=1`, and the server's session counters
//!    (`deltas`/`resyncs`/`audits`/`audits_failed`) must equal the
//!    script's own bookkeeping *exactly*;
//! 8. **shed requests eventually succeed**: a session delta thrown at a
//!    deliberately held capacity-1 gate is shed with
//!    `code=overloaded;retry_ms=…`; a client honoring the hint with
//!    capped exponential backoff eventually lands the delta exactly
//!    once — the epoch advances by one, and replaying the identical
//!    wire line is refused as `stale_epoch`, never applied twice;
//! 9. **the flight recorder tells the truth**: panic victims, the shed
//!    overload tail, and injected session panics carry client trace ids
//!    on the wire, and their per-trace event sequences in the server's
//!    recorder are asserted *exactly* — `panic → request(internal)` for
//!    an isolated engine panic, a lone `shed` event for a gated request
//!    that never reached dispatch, and `session(panic) →
//!    session(resync) → request(ok)` for a mid-delta crash — with
//!    engine sub-events riding the same trace set aside.
//!
//! Everything — the workload, the fault plan, the batch boundaries — is a
//! pure function of the seed, so two runs of the same seed make identical
//! assertions (fault *timing* inside the server is not asserted, only the
//! response bytes).

// The harness is itself a test gate: its expects assert the seeded plan's
// own invariants (workload lines parse, ascii substitution stays utf-8),
// and a violated invariant must kill the run, not limp to a green exit.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ndg_exec::Executor;
use ndg_serve::codec::{payload_of, Request};
use ndg_serve::router::Router;
use ndg_serve::server::{spawn_tcp_with, TcpOptions};
use ndg_serve::workload::{build_workload, WorkloadSpec};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Requests per driven batch.
const CHAOS_BATCH: usize = 8;

/// Injected dispatch delay — comfortably past the 1 ms deadline paired
/// with it, so the budget check after the hook deterministically expires.
const CHAOS_DELAY: Duration = Duration::from_millis(25);

/// Marker carried by every injected panic so the process-global panic
/// hook can keep expected backtraces out of the test output.
pub const CHAOS_PANIC_MARKER: &str = "chaos-injected engine panic";

/// Chaos run shape. Defaults: 120 requests over 40 distinct bodies,
/// ~15% fault rate.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// Master seed for the workload *and* the fault plan.
    pub seed: u64,
    /// Total request lines in the main phase.
    pub requests: usize,
    /// Distinct base bodies.
    pub distinct: usize,
    /// Fraction of requests assigned a fault (the plan rounds to at least
    /// one fault of every kind when the rate is non-zero).
    pub fault_rate: f64,
    /// Executor width for the server under test (`None`: environment).
    pub threads: Option<usize>,
}

impl ChaosSpec {
    /// The default shape for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosSpec {
            seed,
            requests: 120,
            distinct: 40,
            fault_rate: 0.15,
            threads: None,
        }
    }
}

/// What the plan does to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Overwrite a `game=` digit on the wire.
    Corrupt,
    /// Dribble the line out in flushed 7-byte chunks.
    Torn,
    /// Hook panics inside dispatch.
    Panic,
    /// Hook stalls dispatch; the request carries `deadline_ms=1`.
    Delay,
}

/// Outcome counts and failures of one chaos run.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Requests driven in the main phase.
    pub requests: usize,
    /// Faults injected, by kind: corrupt/torn/panic/delay.
    pub corrupt: usize,
    /// Torn-write faults.
    pub torn: usize,
    /// Injected panic faults.
    pub panics: usize,
    /// Injected delay+deadline faults.
    pub delays: usize,
    /// Mid-batch disconnects.
    pub disconnects: usize,
    /// Requests shed in the overload sub-phase.
    pub shed: usize,
    /// Session deltas committed in the session sub-phase.
    pub session_deltas: usize,
    /// Session resyncs observed (panic recoveries + client resyncs),
    /// verified against the server's own counter.
    pub session_resyncs: usize,
    /// Divergence audits the session server ran, verified likewise.
    pub session_audits: usize,
    /// Overloaded responses the backoff client retried in the retry
    /// sub-phase.
    pub retries: usize,
    /// Contract violations (empty on success).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether the survival contract held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 16 {
            self.failures.push(what);
        } else if self.failures.len() == 16 {
            self.failures.push("… further failures elided".into());
        }
    }
}

/// Install a process panic hook that swallows the expected injected
/// panics (and the executor's re-raise of them) but forwards everything
/// else to the previous hook. Returns a guard restoring the old hook.
fn quiet_expected_panics() -> impl Drop {
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    let prev: Arc<PanicHook> = Arc::new(std::panic::take_hook());
    let inner = prev.clone();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !(msg.contains(CHAOS_PANIC_MARKER) || msg.contains("ndg-exec worker panicked")) {
            inner(info);
        }
    }));
    struct Restore(Option<Arc<PanicHook>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            // set_hook/take_hook abort when called from an unwinding
            // thread; leave the (forwarding) filter installed in that
            // case — it passes unexpected panics through to the old hook.
            if std::thread::panicking() {
                return;
            }
            let prev = self.0.take();
            let _ = std::panic::take_hook();
            if let Some(prev) = prev {
                std::panic::set_hook(Box::new(move |info| prev(info)));
            }
        }
    }
    Restore(Some(prev))
}

/// Overwrite the first digit after `game=` with `x`: the line still
/// frames and still carries its id, but the instance cannot validate.
fn corrupt_line(line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    if let Some(pos) = line.find("game=") {
        if let Some(off) = bytes[pos + 5..].iter().position(|b| b.is_ascii_digit()) {
            bytes[pos + 5 + off] = b'x';
        }
    }
    String::from_utf8(bytes).expect("ascii substitution keeps the line utf-8")
}

fn connect(addr: std::net::SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let conn = TcpStream::connect(addr)?;
    // A request goes out as several small writes (line, then the blank
    // flush line); without this, each round trip waits for the server's
    // delayed ACK (~40 ms).
    conn.set_nodelay(true)?;
    let reader = BufReader::new(conn.try_clone()?);
    Ok((conn, reader))
}

fn send_line(conn: &mut TcpStream, line: &str, fault: Option<Fault>) -> io::Result<()> {
    match fault {
        Some(Fault::Torn) => {
            // Dribble the line over many flushed writes so the server's
            // framing sees a long run of partial reads.
            let mut wire = line.as_bytes().to_vec();
            wire.push(b'\n');
            for chunk in wire.chunks(7) {
                conn.write_all(chunk)?;
                conn.flush()?;
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(())
        }
        Some(Fault::Corrupt) => {
            conn.write_all(corrupt_line(line).as_bytes())?;
            conn.write_all(b"\n")
        }
        _ => {
            conn.write_all(line.as_bytes())?;
            conn.write_all(b"\n")
        }
    }
}

/// Read `n` response lines, returning `(id, full response)` pairs.
fn read_responses(
    reader: &mut BufReader<TcpStream>,
    n: usize,
) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-batch",
            ));
        }
        let resp = resp.trim_end().to_string();
        let id = resp
            .split(';')
            .find_map(|f| f.strip_prefix("id="))
            .unwrap_or("?")
            .to_string();
        out.push((id, resp));
    }
    Ok(out)
}

/// Run the chaos harness for `spec`. The returned report's
/// [`ChaosReport::ok`] is the survival gate.
pub fn run_chaos(spec: ChaosSpec) -> io::Result<ChaosReport> {
    let _quiet = quiet_expected_panics();
    let mut report = ChaosReport {
        requests: spec.requests,
        ..ChaosReport::default()
    };
    let lines = build_workload(WorkloadSpec {
        requests: spec.requests,
        distinct: spec.distinct.min(spec.requests),
        seed: spec.seed,
        isomorphs: 1,
    });

    // ---- Fault plan: a pure function of the seed. --------------------
    // Victims are drawn as whole canonical-body *groups*. Panic and
    // Delay assertions are only deterministic when every request sharing
    // the victim's body is faulted the same way: a clean twin would
    // populate the cache and serve the victim an `ok` (or the faulted
    // twin would starve the clean one). Wire-level faults (Corrupt,
    // Torn) touch a single line and leave the group's twins clean — a
    // mangled or dribbled line never reaches (or never corrupts) the
    // cache entry its twins share.
    let parsed: Vec<Request> = lines
        .iter()
        .map(|l| Request::parse(l).expect("workload parses"))
        .collect();
    let canon_body = |req: &Request| match ndg_serve::canon::canonicalize_request(req) {
        Some(c) => c.req.canonical_body(),
        None => req.canonical_body(),
    };
    let bodies: Vec<String> = parsed.iter().map(canon_body).collect();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC4A0_5EED);
    let mut groups: Vec<Vec<usize>> = {
        let mut by_body: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, b) in bodies.iter().enumerate() {
            by_body.entry(b.as_str()).or_default().push(i);
        }
        // HashMap iteration order is not deterministic; the shuffle must
        // start from a canonical order for the plan to be seed-pure.
        let mut gs: Vec<Vec<usize>> = by_body.into_values().collect();
        gs.sort();
        gs
    };
    groups.shuffle(&mut rng);
    let kinds = [Fault::Corrupt, Fault::Torn, Fault::Panic, Fault::Delay];
    let n_faults = ((spec.requests as f64 * spec.fault_rate).round() as usize).clamp(
        usize::from(spec.fault_rate > 0.0) * kinds.len(),
        spec.requests,
    );
    let mut faults: HashMap<String, Fault> = HashMap::new();
    for i in 0..n_faults {
        // One of every kind first (so every class is exercised at any
        // rate), then uniform draws.
        let kind = if i < kinds.len() {
            kinds[i]
        } else {
            kinds[rng.random_range(0..kinds.len())]
        };
        let Some(group) = groups.pop() else { break };
        match kind {
            Fault::Corrupt | Fault::Torn => {
                faults.insert(parsed[group[0]].id.clone(), kind);
                match kind {
                    Fault::Corrupt => report.corrupt += 1,
                    _ => report.torn += 1,
                }
            }
            Fault::Panic | Fault::Delay => {
                for &v in &group {
                    faults.insert(parsed[v].id.clone(), kind);
                }
                match kind {
                    Fault::Panic => report.panics += group.len(),
                    _ => report.delays += group.len(),
                }
            }
        }
    }
    // Mid-batch disconnects: a seeded subset of batches (at least one).
    let n_batches = lines.len().div_ceil(CHAOS_BATCH);
    let mut disconnect_batches: Vec<usize> = (0..n_batches).collect();
    disconnect_batches.shuffle(&mut rng);
    let n_disc = if spec.fault_rate > 0.0 {
        (n_batches / 5).max(1)
    } else {
        0
    };
    let disconnect_batches: std::collections::HashSet<usize> =
        disconnect_batches.into_iter().take(n_disc).collect();
    report.disconnects = disconnect_batches.len();
    // Panic victims carry a client trace id on the wire so the flight
    // recorder's per-trace causal sequence can be asserted after the
    // run. The id keys the map: a victim re-sent by a disconnect replay
    // keeps its trace, it just stops having a *unique* sequence.
    let panic_traces: HashMap<String, u64> = parsed
        .iter()
        .enumerate()
        .filter(|(_, req)| faults.get(&req.id) == Some(&Fault::Panic))
        .map(|(i, req)| (req.id.clone(), 0x7A1C_0000 + i as u64))
        .collect();

    // ---- Reference: sequential, cache off, no faults. ----------------
    let reference = Router::with_canon(Executor::sequential(), 0, true);
    let expected: HashMap<String, String> = lines
        .iter()
        .map(|l| {
            let id = Request::parse(l).expect("workload parses").id;
            (id, payload_of(&reference.handle_line(l)))
        })
        .collect();

    // ---- Server under test: hook installed, cache + canon on. --------
    let ex = spec
        .threads
        .map(Executor::new)
        .unwrap_or_else(Executor::from_env);
    let mut router = Router::with_canon(ex, 4096, true);
    let hook_faults: HashMap<String, Fault> = faults.clone();
    router.set_fault_hook(Some(Arc::new(move |req: &Request| {
        match hook_faults.get(&req.id) {
            Some(Fault::Panic) => panic!("{CHAOS_PANIC_MARKER} (id={})", req.id),
            Some(Fault::Delay) => std::thread::sleep(CHAOS_DELAY),
            _ => {}
        }
    })));
    // Flight recorder under TestClock: timestamps stay inert, and only
    // per-trace order is asserted (global interleaving is free to vary).
    let rec = Arc::new(ndg_obs::events::Recorder::new(
        4096,
        Arc::new(ndg_obs::TestClock::new()),
    ));
    router.set_recorder(Some(rec.clone()));
    let router = Arc::new(router);
    let handle = spawn_tcp_with(
        router.clone(),
        "127.0.0.1:0",
        TcpOptions {
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )?;
    let addr = handle.addr();

    // ---- Main phase: drive batches, injecting wire faults. -----------
    // The wire form of a request is fixed up front: a Delay victim
    // always carries `deadline_ms=1` (the injected stall must trip the
    // budget, never populate the cache), whatever path sends it.
    let wire_of = |line: &String| -> (String, Option<Fault>) {
        let mut req = Request::parse(line).expect("workload parses");
        let fault = faults.get(&req.id).copied();
        match fault {
            Some(Fault::Delay) => {
                req.deadline_ms = Some(1);
                (req.serialize(), None)
            }
            // A panic victim is stamped with its client trace id so the
            // recorder links the isolation sequence to this exact line.
            Some(Fault::Panic) => {
                req.trace_id = Some(panic_traces[&req.id]);
                (req.serialize(), None)
            }
            _ => (line.clone(), fault),
        }
    };
    let (mut conn, mut reader) = connect(addr)?;
    let mut responses: HashMap<String, String> = HashMap::new();
    for (bi, batch) in lines.chunks(CHAOS_BATCH).enumerate() {
        if disconnect_batches.contains(&bi) {
            // Send half the batch, then vanish without the flush line:
            // the server sees EOF (or a reset) mid-frame and must carry
            // on. The whole batch is replayed on a fresh connection.
            for line in &batch[..batch.len() / 2] {
                let (wire, fault) = wire_of(line);
                let _ = send_line(&mut conn, &wire, fault);
            }
            let _ = conn.flush();
            drop(reader);
            drop(conn);
            let (c, r) = connect(addr)?;
            conn = c;
            reader = r;
        }
        for line in batch {
            let (wire, fault) = wire_of(line);
            send_line(&mut conn, &wire, fault)?;
        }
        conn.write_all(b"\n")?;
        conn.flush()?;
        for (id, resp) in read_responses(&mut reader, batch.len())? {
            responses.insert(id, resp);
        }
    }
    drop(reader);
    drop(conn);

    // ---- Contract: every id answered with its class's bytes. ---------
    for line in &lines {
        let id = Request::parse(line).expect("workload parses").id;
        let Some(resp) = responses.get(&id) else {
            report.fail(format!("{id}: no response"));
            continue;
        };
        let want = expected.get(&id).expect("reference covers workload");
        match faults.get(&id) {
            None | Some(Fault::Torn) => {
                if &payload_of(resp) != want {
                    report.fail(format!(
                        "{id}: fault-free payload diverged\n  want {want}\n  got  {}",
                        payload_of(resp)
                    ));
                }
            }
            Some(Fault::Corrupt) => {
                if !resp.starts_with(&format!("err;id={id};")) {
                    report.fail(format!("{id}: corrupted line not answered err: {resp}"));
                }
            }
            Some(Fault::Panic) => {
                // The plan faults a panic victim's whole body group, so
                // no clean twin can seed the cache: every member reaches
                // dispatch and must be isolated — never answered ok,
                // never a dead connection.
                if !resp.contains(";code=internal;") {
                    report.fail(format!("{id}: injected panic not isolated: {resp}"));
                }
            }
            Some(Fault::Delay) => {
                if !resp.contains(";code=deadline;") {
                    report.fail(format!("{id}: delayed request did not deadline: {resp}"));
                }
            }
        }
    }

    // Mid-run snapshot: the monotonicity check below compares against it.
    let s_mid = router.conn_stats().snapshot();

    // ---- Deadlines are not cached: replay without the deadline. ------
    let (mut conn, mut reader) = connect(addr)?;
    let delayed: Vec<&String> = lines
        .iter()
        .filter(|l| {
            let id = Request::parse(l).expect("workload parses").id;
            faults.get(&id) == Some(&Fault::Delay)
        })
        .collect();
    if !delayed.is_empty() {
        // Disarm nothing: the hook keys on ids, and these replays reuse
        // them — the stall still runs but no deadline rides along, so
        // the full (correct) solve must come back.
        for line in &delayed {
            send_line(&mut conn, line, None)?;
        }
        conn.write_all(b"\n")?;
        conn.flush()?;
        for (id, resp) in read_responses(&mut reader, delayed.len())? {
            let want = expected.get(&id).expect("reference covers workload");
            if &payload_of(&resp) != want {
                report.fail(format!(
                    "{id}: post-deadline replay diverged (deadline response cached?)\n  \
                     want {want}\n  got  {}",
                    payload_of(&resp)
                ));
            }
        }
    }
    drop(reader);
    drop(conn);

    // ---- Metrics sanity: counters add up exactly. --------------------
    // Panic/delay victims inside a disconnect half-batch are dispatched
    // twice: the server answers the orphaned connection's buffered
    // complete lines at EOF (the responses land on a closed socket), and
    // the full-batch replay dispatches them again. Those orphans are the
    // only dispatches without a collected response, so the counters'
    // exact expectation is per-class response counts plus the extras.
    let mut extra_panics = 0u64;
    let mut extra_deadlines = 0u64;
    let mut double_sent: std::collections::HashSet<String> = Default::default();
    for (bi, batch) in lines.chunks(CHAOS_BATCH).enumerate() {
        if !disconnect_batches.contains(&bi) {
            continue;
        }
        for line in &batch[..batch.len() / 2] {
            let id = Request::parse(line).expect("workload parses").id;
            match faults.get(&id) {
                Some(Fault::Panic) => {
                    extra_panics += 1;
                    double_sent.insert(id);
                }
                Some(Fault::Delay) => extra_deadlines += 1,
                _ => {}
            }
        }
    }
    let count_class =
        |needle: &str| responses.values().filter(|r| r.contains(needle)).count() as u64;
    let expected_panics = count_class(";code=internal;") + extra_panics;
    let expected_deadlines = count_class(";code=deadline;") + extra_deadlines;
    // The orphaned dispatches finish asynchronously on the server; wait
    // (bounded) for the counters to reach the totals. They cannot
    // overshoot — every dispatch that can increment them is accounted
    // for above — so reaching the total and equalling it coincide.
    let poll_start = std::time::Instant::now();
    let s_end = loop {
        let s = router.conn_stats().snapshot();
        if (s.panics >= expected_panics && s.deadlines >= expected_deadlines)
            || poll_start.elapsed() > Duration::from_secs(10)
        {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    if s_end.panics != expected_panics {
        report.fail(format!(
            "metrics: panics counter {} != {} isolated responses + {} orphaned dispatches",
            s_end.panics,
            expected_panics - extra_panics,
            extra_panics
        ));
    }
    if s_end.deadlines != expected_deadlines {
        report.fail(format!(
            "metrics: deadlines counter {} != {} deadline responses + {} orphaned dispatches",
            s_end.deadlines,
            expected_deadlines - extra_deadlines,
            extra_deadlines
        ));
    }
    if s_end.shed != 0 {
        report.fail(format!(
            "metrics: ungated router shed {} requests",
            s_end.shed
        ));
    }
    // Monotonicity: no counter may ever move backwards.
    for (name, before, after) in [
        ("conns_eof", s_mid.eof, s_end.eof),
        ("conns_reset", s_mid.reset, s_end.reset),
        ("conns_err", s_mid.errored, s_end.errored),
        ("conns_reaped", s_mid.reaped, s_end.reaped),
        ("conns_drained", s_mid.drained, s_end.drained),
        ("shed", s_mid.shed, s_end.shed),
        ("panics", s_mid.panics, s_end.panics),
        ("deadlines", s_mid.deadlines, s_end.deadlines),
    ] {
        if after < before {
            report.fail(format!(
                "metrics: {name} moved backwards: {before} -> {after}"
            ));
        }
    }
    // ---- Flight recorder: panic isolation, traced exactly. -----------
    // A victim inside a disconnect first-half is dispatched twice under
    // one wire trace (orphan + replay), so only singly-dispatched
    // victims pin a two-event sequence. The counter poll above already
    // waited out every in-flight dispatch.
    for (id, trace) in &panic_traces {
        if double_sent.contains(id) {
            continue;
        }
        let evs = rec.snapshot_trace(*trace);
        if lifecycle_kinds(&evs) != ["panic", "request"] {
            report.fail(format!(
                "flight recorder: trace {trace} ({id}) panic sequence != [panic, request]: {evs:?}"
            ));
            continue;
        }
        let wide = evs.last().expect("sequence checked non-empty");
        if wide.field("outcome") != Some("internal") {
            report.fail(format!(
                "flight recorder: trace {trace} ({id}) wide event not internal: {evs:?}"
            ));
        }
    }
    handle.stop();

    // ---- Overload sub-phase: capacity-2 gate, one batch of 8. --------
    let mut gate_router = Router::with_canon(
        spec.threads
            .map(Executor::new)
            .unwrap_or_else(Executor::from_env),
        4096,
        true,
    );
    let gate_rec = Arc::new(ndg_obs::events::Recorder::new(
        256,
        Arc::new(ndg_obs::TestClock::new()),
    ));
    gate_router.set_recorder(Some(gate_rec.clone()));
    let gate_router = Arc::new(gate_router);
    let gate_stats = gate_router.conn_stats().clone();
    let gate_handle = spawn_tcp_with(
        gate_router,
        "127.0.0.1:0",
        TcpOptions {
            max_inflight: Some(2),
            retry_ms: 40,
            ..Default::default()
        },
    )?;
    let (mut conn, mut reader) = connect(gate_handle.addr())?;
    // Every overload line carries a client trace id: the shed tail's
    // echo and flight-recorder sequence are asserted per trace below.
    let overload: Vec<(String, String, u64)> = lines
        .iter()
        .take(CHAOS_BATCH)
        .enumerate()
        .map(|(slot, l)| {
            let mut req = Request::parse(l).expect("workload parses");
            let trace = 0x54AC_E000 + slot as u64;
            req.trace_id = Some(trace);
            let wire = req.serialize();
            (wire, req.id, trace)
        })
        .collect();
    for (wire, _, _) in &overload {
        send_line(&mut conn, wire, None)?;
    }
    conn.write_all(b"\n")?;
    conn.flush()?;
    let answers = read_responses(&mut reader, overload.len())?;
    for (slot, ((id, resp), (_, want_id, trace))) in answers.iter().zip(&overload).enumerate() {
        if id != want_id {
            report.fail(format!(
                "overload: response order broken at {slot}: {id} vs {want_id}"
            ));
            continue;
        }
        if slot < 2 {
            // Admitted head: byte-identical to the unloaded reference
            // (`payload_of` sets the volatile trace echo aside).
            let want = expected.get(id).expect("reference covers workload");
            if &payload_of(resp) != want {
                report.fail(format!("overload: admitted {id} diverged: {resp}"));
            }
        } else {
            report.shed += 1;
            if !resp.starts_with(&format!(
                "err;id={id};trace_id={trace};code=overloaded;retry_ms=40;"
            )) {
                report.fail(format!("overload: {id} not shed with retry hint: {resp}"));
            }
        }
    }
    drop(reader);
    drop(conn);
    gate_handle.stop();
    // Shed responses are written synchronously after the counter bumps,
    // so by the time the batch is fully read the gate's counter must
    // equal the shed response count exactly.
    let gs = gate_stats.snapshot();
    if gs.shed != report.shed as u64 {
        report.fail(format!(
            "metrics: gate shed counter {} != {} shed responses",
            gs.shed, report.shed
        ));
    }
    // Per-trace causal sequences: an admitted request is exactly its
    // wide event; a shed request is exactly one `shed` event — the gate
    // turned it away before dispatch, so nothing else may ride its trace.
    for (slot, (_, want_id, trace)) in overload.iter().enumerate() {
        let evs = gate_rec.snapshot_trace(*trace);
        let kinds = lifecycle_kinds(&evs);
        if slot < 2 {
            if kinds != ["request"]
                || evs
                    .last()
                    .expect("admitted trace retained")
                    .field("outcome")
                    != Some("ok")
            {
                report.fail(format!(
                    "flight recorder: admitted trace {trace} ({want_id}) malformed: {evs:?}"
                ));
            }
        } else if kinds != ["shed"]
            || evs[0].field("id") != Some(want_id.as_str())
            || evs[0].field("retry_ms") != Some("40")
        {
            report.fail(format!(
                "flight recorder: shed trace {trace} ({want_id}) malformed: {evs:?}"
            ));
        }
    }

    // ---- Session sub-phase: crash-safe delta sessions. ---------------
    session_phase(spec, &mut report)?;

    // ---- Retry sub-phase: shed deltas land exactly once. -------------
    if spec.fault_rate > 0.0 {
        retry_phase(spec, &mut report)?;
    }

    Ok(report)
}

/// One request / one response over an established chaos connection (the
/// blank line flushes the single-request batch).
fn roundtrip(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> io::Result<String> {
    send_line(conn, line, None)?;
    conn.write_all(b"\n")?;
    conn.flush()?;
    Ok(read_responses(reader, 1)?
        .pop()
        .expect("read_responses returns one pair per requested line")
        .1)
}

/// Event kinds of one trace with the engine sub-events (`recert`,
/// `enum`, `lp`) set aside — those ride request traces by design, and
/// the causal assertions pin the request-lifecycle sequence around them.
fn lifecycle_kinds(evs: &[ndg_obs::events::Event]) -> Vec<&'static str> {
    evs.iter()
        .filter(|e| !matches!(e.kind, "recert" | "enum" | "lp"))
        .map(|e| e.kind)
        .collect()
}

/// A `key=value` field of a response header or stats payload.
fn field(resp: &str, key: &str) -> Option<String> {
    let prefix = format!("{key}=");
    resp.split(';')
        .find_map(|f| f.strip_prefix(prefix.as_str()))
        .map(str::to_string)
}

/// Contract item 7: scripted session traffic — patches, edge failures,
/// joins, corrupt delta lines, a mid-script disconnect and injected
/// mid-delta panics — raced against an in-process sequential reference
/// running the identical script, with exact session-counter accounting
/// checked over the server's own `stats` method at the end.
fn session_phase(spec: ChaosSpec, report: &mut ChaosReport) -> io::Result<()> {
    const STEPS: usize = 24;
    const AUDIT_EVERY: u64 = 3;
    // Panic victims are forced to be patches (always valid), so every
    // boom step must commit via journal replay and answer `resynced=1`.
    let boom_steps: &[usize] = if spec.fault_rate > 0.0 {
        &[3, 9, 17]
    } else {
        &[]
    };
    let corrupt_steps: &[usize] = &[5, 15];

    let ex = spec
        .threads
        .map(Executor::new)
        .unwrap_or_else(Executor::from_env);
    let mut router = Router::with_canon(ex, 4096, true);
    router.set_session_config(ndg_serve::session::SessionConfig {
        audit_every: AUDIT_EVERY,
        max_sessions: 8,
    });
    router.set_fault_hook(Some(Arc::new(|req: &Request| {
        if req.id.starts_with("sboom") {
            panic!("{CHAOS_PANIC_MARKER} (id={})", req.id);
        }
    })));
    let rec = Arc::new(ndg_obs::events::Recorder::new(
        1024,
        Arc::new(ndg_obs::TestClock::new()),
    ));
    router.set_recorder(Some(rec.clone()));
    let handle = spawn_tcp_with(
        Arc::new(router),
        "127.0.0.1:0",
        TcpOptions {
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )?;
    let addr = handle.addr();
    // The reference runs the same script in process: sequential, cache
    // off, no fault hook. Byte-identity of every answer is the tentpole
    // determinism contract extended to session traffic.
    let reference = Router::with_canon(Executor::sequential(), 0, false);
    let (mut conn, mut reader) = connect(addr)?;

    struct ScriptSession {
        sid_srv: String,
        sid_ref: String,
        epoch: u64,
        /// The server's checkpoint epoch: where its journal window starts.
        checkpoint: u64,
        edges: usize,
        nodes: usize,
        failed: bool,
    }
    let cycle8: String = {
        let edges: Vec<String> = (0..8).map(|i| format!("{i}/{}/1", (i + 1) % 8)).collect();
        format!("broadcast:8:0:{}", edges.join(","))
    };
    let opens = [
        (
            format!("ndg1;id=sob;method=open;tree=0,1,2,3,4,5,6;game={cycle8}"),
            8usize,
            8usize,
        ),
        (
            "ndg1;id=sog;method=open;tree=0,1,2,3,4;\
             game=general:6:0/1/2,1/2/2,2/3/2,3/4/2,4/5/2,0/5/2,1/4/3,0/3/5:0/3,1/5"
                .to_string(),
            8,
            6,
        ),
    ];
    let mut sessions: Vec<ScriptSession> = Vec::new();
    for (line, edges, nodes) in &opens {
        let srv = roundtrip(&mut conn, &mut reader, line)?;
        let refr = reference.handle_line(line);
        if payload_of(&srv) != payload_of(&refr) {
            report.fail(format!("session open diverged from reference: {srv}"));
        }
        let (Some(sid_srv), Some(sid_ref)) = (field(&srv, "session"), field(&refr, "session"))
        else {
            report.fail(format!("session open carried no session id: {srv}"));
            handle.stop();
            return Ok(());
        };
        sessions.push(ScriptSession {
            sid_srv,
            sid_ref,
            epoch: 0,
            checkpoint: 0,
            edges: *edges,
            nodes: *nodes,
            failed: false,
        });
    }

    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5E55_1045);
    let mut expect_resyncs = 0u64;
    let mut expect_audits = 0u64;
    let mut boom_traces: Vec<(String, u64)> = Vec::new();
    for k in 0..STEPS {
        let si = rng.random_range(0..sessions.len());
        let boom = boom_steps.contains(&k);
        // 0–6: patch; 7: fail (once per session); 8–9: join. Boom steps
        // are pinned to patches so their recovery path must commit.
        let kind = if boom { 0 } else { rng.random_range(0..10u32) };
        let (delta, is_fail) = {
            let s = &sessions[si];
            match kind {
                7 if !s.failed => (
                    format!("delta=fail;edge={}", rng.random_range(0..s.edges)),
                    true,
                ),
                8 | 9 => {
                    let a = rng.random_range(0..s.nodes);
                    let b = (a + 1 + rng.random_range(0..s.nodes - 1)) % s.nodes;
                    // On the broadcast session this is a deterministic
                    // structured bad_delta on both sides.
                    (format!("delta=join;player={a}/{b}"), false)
                }
                _ => {
                    let w = rng.random_range(1..=8u32) as f64 / 4.0;
                    (
                        format!("delta=patch;edge={};w={w}", rng.random_range(0..s.edges)),
                        false,
                    )
                }
            }
        };
        if corrupt_steps.contains(&k) {
            // A corrupt delta line: still frames, cannot parse. The
            // server must answer a structured error and the clean resend
            // below must be unaffected.
            let s = &sessions[si];
            let bad = format!(
                "ndg1;id=sx{k};method=delta;session={};epoch={};delta=patch;edge=zz;w=0.5",
                s.sid_srv, s.epoch
            );
            let resp = roundtrip(&mut conn, &mut reader, &bad)?;
            if !resp.starts_with(&format!("err;id=sx{k};")) {
                report.fail(format!("corrupt delta line not answered err: {resp}"));
            }
        }
        let id = if boom {
            format!("sboom{k}")
        } else {
            format!("sd{k}")
        };
        // Boom lines carry a client trace id; the recorder's per-trace
        // crash-recovery sequence is asserted after the script.
        let boom_trace = 0x5E55_B000 + k as u64;
        if boom {
            boom_traces.push((id.clone(), boom_trace));
        }
        let (srv_line, ref_line) = {
            let s = &sessions[si];
            let tr = if boom {
                format!("trace_id={boom_trace};")
            } else {
                String::new()
            };
            (
                format!(
                    "ndg1;id={id};method=delta;session={};epoch={};{tr}{delta}",
                    s.sid_srv, s.epoch
                ),
                format!(
                    "ndg1;id={id};method=delta;session={};epoch={};{delta}",
                    s.sid_ref, s.epoch
                ),
            )
        };
        let srv = roundtrip(&mut conn, &mut reader, &srv_line)?;
        let refr = reference.handle_line(&ref_line);
        if payload_of(&srv) != payload_of(&refr) {
            report.fail(format!(
                "delta {id} diverged from reference\n  want {}\n  got  {}",
                payload_of(&refr),
                payload_of(&srv)
            ));
        }
        if srv.starts_with("ok;") {
            let s = &mut sessions[si];
            s.epoch += 1;
            report.session_deltas += 1;
            if is_fail {
                s.failed = true;
                s.edges -= 1;
            }
            if field(&srv, "epoch").as_deref() != Some(&s.epoch.to_string()) {
                report.fail(format!("delta {id}: epoch header diverged: {srv}"));
            }
            let resynced = field(&srv, "resynced").as_deref() == Some("1");
            if boom && !resynced {
                report.fail(format!("panicked delta {id} not flagged resynced: {srv}"));
            }
            if !boom && resynced {
                report.fail(format!("clean delta {id} flagged resynced: {srv}"));
            }
            if resynced {
                // Recovery replays the journal window; no audit runs on
                // that path (it *is* the replay). Its view is the new
                // checkpoint, as is a passing audit's.
                expect_resyncs += 1;
                s.checkpoint = s.epoch;
            } else if s.epoch.is_multiple_of(AUDIT_EVERY) {
                expect_audits += 1;
                s.checkpoint = s.epoch;
            }
        } else if boom {
            report.fail(format!("panicked patch {id} did not commit: {srv}"));
        }
        if k == STEPS / 2 {
            // Disconnect with sessions open: the table lives in the
            // router, so a fresh connection resyncs and continues.
            drop(reader);
            drop(conn);
            let (c, r) = connect(addr)?;
            conn = c;
            reader = r;
            for (i, s) in sessions.iter_mut().enumerate() {
                let srv = roundtrip(
                    &mut conn,
                    &mut reader,
                    &format!("ndg1;id=srs{i};method=resync;session={}", s.sid_srv),
                )?;
                let refr = reference.handle_line(&format!(
                    "ndg1;id=srs{i};method=resync;session={}",
                    s.sid_ref
                ));
                if payload_of(&srv) != payload_of(&refr) {
                    report.fail(format!("post-disconnect resync srs{i} diverged: {srv}"));
                }
                if field(&srv, "resynced").as_deref() != Some("1")
                    || field(&srv, "epoch").as_deref() != Some(&s.epoch.to_string())
                {
                    report.fail(format!("post-disconnect resync srs{i} malformed: {srv}"));
                }
                expect_resyncs += 1;
                s.checkpoint = s.epoch;
            }
        }
    }
    // Close one session; the other stays open for the gauge check.
    let closer = &sessions[1];
    let srv = roundtrip(
        &mut conn,
        &mut reader,
        &format!("ndg1;id=scl;method=close;session={}", closer.sid_srv),
    )?;
    let refr = reference.handle_line(&format!(
        "ndg1;id=scl;method=close;session={}",
        closer.sid_ref
    ));
    if payload_of(&srv) != payload_of(&refr) || !srv.contains("closed=1") {
        report.fail(format!("session close diverged: {srv}"));
    }

    // Exact counter accounting over the server's own stats method.
    let stats = roundtrip(&mut conn, &mut reader, "ndg1;id=sst;method=stats")?;
    let stat = |key: &str| -> i64 {
        field(&stats, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(-1)
    };
    for (key, want) in [
        ("sessions_open", 1),
        ("sessions_opened", 2),
        ("sessions_expired", 1),
        ("deltas", report.session_deltas as i64),
        ("resyncs", expect_resyncs as i64),
        ("audits", expect_audits as i64),
        ("audits_failed", 0),
        // The journal gauge covers *live* sessions only; after the close
        // it is exactly the surviving session's window, the deltas since
        // its checkpoint (`epoch == checkpoint + journal.len()` is the
        // session invariant).
        (
            "sessions_journal_ops",
            (sessions[0].epoch - sessions[0].checkpoint) as i64,
        ),
    ] {
        if stat(key) != want {
            report.fail(format!(
                "session counters: {key}={} != expected {want} ({stats})",
                stat(key)
            ));
        }
    }
    if stat("uptime_ms") < 0 {
        report.fail(format!("session stats: uptime_ms missing ({stats})"));
    }
    // Flight recorder: every injected mid-delta crash recovered through
    // the exact causal sequence panic → resync → wide event, linked by
    // the wire trace id the boom line carried.
    for (id, trace) in &boom_traces {
        let evs = rec.snapshot_trace(*trace);
        let ops: Vec<(&str, &str)> = evs
            .iter()
            .filter(|e| !matches!(e.kind, "recert" | "enum" | "lp"))
            .map(|e| (e.kind, e.field("op").unwrap_or("-")))
            .collect();
        if ops
            != [
                ("session", "panic"),
                ("session", "resync"),
                ("request", "-"),
            ]
        {
            report.fail(format!(
                "flight recorder: boom trace {trace} ({id}) sequence {ops:?} != \
                 [panic, resync, request]"
            ));
            continue;
        }
        let wide = evs.last().expect("sequence checked non-empty");
        if wide.field("outcome") != Some("ok") || wide.field("session").is_none() {
            report.fail(format!(
                "flight recorder: boom trace {trace} ({id}) wide event malformed: {evs:?}"
            ));
        }
    }
    report.session_resyncs = expect_resyncs as usize;
    report.session_audits = expect_audits as usize;
    drop(reader);
    drop(conn);
    handle.stop();
    Ok(())
}

/// Contract item 8: a session delta shed by a held capacity-1 gate is
/// retried with capped exponential backoff honoring the server's
/// `retry_ms` hint, and lands **exactly once** — the epoch advances by
/// one, and replaying the identical wire line afterwards is refused as
/// `stale_epoch` rather than applied again.
fn retry_phase(spec: ChaosSpec, report: &mut ChaosReport) -> io::Result<()> {
    /// How long the flooding request holds the admission gate.
    const HOLD: Duration = Duration::from_millis(300);
    const RETRY_MS: u64 = 25;

    let ex = spec
        .threads
        .map(Executor::new)
        .unwrap_or_else(Executor::from_env);
    let mut router = Router::with_canon(ex, 0, false);
    // The hook runs inside dispatch, so the flood's gate permit is held
    // when it signals: the client sends the delta only after that.
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
    router.set_fault_hook(Some(Arc::new(move |req: &Request| {
        if req.id.starts_with("slow") {
            let _ = held_tx.send(());
            std::thread::sleep(HOLD);
        }
    })));
    let handle = spawn_tcp_with(
        Arc::new(router),
        "127.0.0.1:0",
        TcpOptions {
            max_inflight: Some(1),
            retry_ms: RETRY_MS,
            idle_timeout: Some(Duration::from_secs(10)),
        },
    )?;
    let addr = handle.addr();
    let cycle6: String = {
        let edges: Vec<String> = (0..6).map(|i| format!("{i}/{}/1", (i + 1) % 6)).collect();
        format!("broadcast:6:0:{}", edges.join(","))
    };
    // Open the session while the gate is idle.
    let (mut conn, mut reader) = connect(addr)?;
    let open = roundtrip(
        &mut conn,
        &mut reader,
        &format!("ndg1;id=ro;method=open;tree=0,1,2,3,4;game={cycle6}"),
    )?;
    let Some(sid) = field(&open, "session") else {
        report.fail(format!("retry phase: open failed: {open}"));
        handle.stop();
        return Ok(());
    };
    // Flood: one slow request occupies the capacity-1 gate for HOLD.
    let (mut flood, _flood_reader) = connect(addr)?;
    send_line(
        &mut flood,
        &format!("ndg1;id=slow0;method=dynamics;tree=0,1,2,3,4;game={cycle6}"),
        None,
    )?;
    flood.write_all(b"\n")?;
    flood.flush()?;
    if held_rx.recv_timeout(Duration::from_secs(10)).is_err() {
        report.fail("retry phase: the flood request never reached dispatch".into());
        handle.stop();
        return Ok(());
    }
    let delta_line =
        format!("ndg1;id=rd;method=delta;session={sid};epoch=0;delta=patch;edge=5;w=0.5");
    let send_with_backoff = |conn: &mut TcpStream,
                             reader: &mut BufReader<TcpStream>,
                             line: &str,
                             retries: &mut usize|
     -> io::Result<String> {
        let mut attempt = 0u32;
        loop {
            let resp = roundtrip(conn, reader, line)?;
            if !resp.contains(";code=overloaded;") {
                return Ok(resp);
            }
            *retries += 1;
            // Honor the server's hint, doubling up to a 200 ms cap.
            let hint: u64 = field(&resp, "retry_ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(RETRY_MS);
            std::thread::sleep(Duration::from_millis((hint << attempt.min(3)).min(200)));
            attempt += 1;
            if attempt > 32 {
                return Ok(resp); // give up; the assertions below will fail
            }
        }
    };
    let resp = send_with_backoff(&mut conn, &mut reader, &delta_line, &mut report.retries)?;
    if !resp.starts_with("ok;id=rd;") || field(&resp, "epoch").as_deref() != Some("1") {
        report.fail(format!(
            "retry phase: backed-off delta did not land: {resp}"
        ));
    }
    if report.retries == 0 {
        report.fail("retry phase: the held gate never shed the delta".into());
    }
    // Exactly once: the identical wire line is now stale, not re-applied.
    let dup = send_with_backoff(&mut conn, &mut reader, &delta_line, &mut report.retries)?;
    if !dup.starts_with("err;id=rd;code=stale_epoch;") {
        report.fail(format!("retry phase: replayed delta not refused: {dup}"));
    }
    let close = send_with_backoff(
        &mut conn,
        &mut reader,
        &format!("ndg1;id=rc;method=close;session={sid}"),
        &mut report.retries,
    )?;
    if !close.ends_with("closed=1;deltas=1") {
        report.fail(format!(
            "retry phase: close reports wrong delta count: {close}"
        ));
    }
    drop(reader);
    drop(conn);
    handle.stop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupting_touches_only_the_game_digit() {
        let line = "ndg1;id=w3;method=certify;tree=0,1;game=broadcast:3:0:0/1/1,1/2/1,2/0/1";
        let bad = corrupt_line(line);
        assert_ne!(line, bad);
        assert!(bad.contains("id=w3"), "{bad}");
        assert!(bad.contains("game=broadcast:x"), "{bad}");
        assert!(Request::parse(&bad).is_err());
    }

    #[test]
    fn chaos_plan_is_deterministic_and_survives_a_small_run() {
        let spec = ChaosSpec {
            seed: 7,
            requests: 36,
            distinct: 12,
            fault_rate: 0.2,
            threads: Some(2),
        };
        let a = run_chaos(spec).expect("chaos run performs I/O only on loopback");
        assert!(a.ok(), "failures: {:#?}", a.failures);
        assert!(a.corrupt >= 1 && a.torn >= 1 && a.panics >= 1 && a.delays >= 1);
        assert_eq!(a.shed, CHAOS_BATCH - 2);
        // The session phase committed deltas, recovered the injected
        // panics, and the backoff client was really shed at least once.
        assert!(a.session_deltas > 0, "no session deltas committed");
        assert!(a.session_resyncs >= 3, "injected session panics missing");
        assert!(a.retries >= 1, "backoff client never saw overload");
        let b = run_chaos(spec).expect("second run");
        assert!(b.ok(), "failures: {:#?}", b.failures);
        assert_eq!(
            (a.corrupt, a.torn, a.panics, a.delays, a.disconnects),
            (b.corrupt, b.torn, b.panics, b.delays, b.disconnects),
            "same seed, same plan"
        );
    }

    #[test]
    fn zero_fault_rate_is_a_clean_load_test() {
        let spec = ChaosSpec {
            seed: 3,
            requests: 24,
            distinct: 8,
            fault_rate: 0.0,
            threads: Some(2),
        };
        let r = run_chaos(spec).expect("clean run");
        assert!(r.ok(), "failures: {:#?}", r.failures);
        assert_eq!(
            (r.corrupt, r.torn, r.panics, r.delays, r.disconnects),
            (0, 0, 0, 0, 0)
        );
        // No faults: the session script still runs (clean deltas, the
        // disconnect resyncs) but nothing panics and nothing is shed.
        assert!(r.session_deltas > 0);
        assert_eq!(r.session_resyncs, 2, "only the two post-disconnect resyncs");
        assert_eq!(r.retries, 0);
    }

    /// The full-size survival gate for `seed` on the environment executor
    /// (`NDG_THREADS` picks the width), printing the counter line.
    fn survival_gate(seed: u64) {
        let r = run_chaos(ChaosSpec::new(seed)).expect("chaos run performs I/O only on loopback");
        println!(
            "chaos: seed={seed} corrupt={} torn={} panics={} delays={} disconnects={} shed={} \
             session_deltas={} session_resyncs={} session_audits={} retries={}",
            r.corrupt,
            r.torn,
            r.panics,
            r.delays,
            r.disconnects,
            r.shed,
            r.session_deltas,
            r.session_resyncs,
            r.session_audits,
            r.retries
        );
        assert!(r.ok(), "seed {seed} failures: {:#?}", r.failures);
    }

    #[test]
    fn seed_1_survives_the_full_fault_plan() {
        survival_gate(1);
    }

    #[test]
    fn seed_2_survives_the_full_fault_plan() {
        survival_gate(2);
    }
}
