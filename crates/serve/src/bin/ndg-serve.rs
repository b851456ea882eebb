//! `ndg-serve` — the serving-layer binary.
//!
//! ```text
//! ndg-serve --stdio                     # serve request lines on stdin
//! ndg-serve --tcp 127.0.0.1:4321       # serve TCP (port 0 = ephemeral)
//! ```
//!
//! Common flags: `--threads T` (executor width; `NDG_THREADS` also works),
//! `--cache C` (result-cache capacity, 0 disables), `--canon 0|1`
//! (isomorphism-aware canonical cache keying; default 1, and per-request
//! `canon=0` still opts out).
//!
//! Robustness flags: `--default-deadline-ms MS` (budget applied to every
//! request that does not carry its own `deadline_ms=`), `--max-inflight N`
//! (admission gate: excess requests are shed with
//! `err;code=overloaded;retry_ms=…`), `--idle-timeout-ms MS` (reap
//! connections that stall mid-frame, silent or drip-feeding, between one
//! and two windows after their last complete line; without it, reads
//! block until bytes arrive, and `ServerHandle::stop` wakes them).
//!
//! Session flags: `--audit-every N` (on every Nth committed session
//! delta, replay the journal window since the session's checkpoint and
//! compare; 0 disables, default 8) and
//! `--max-sessions M` (bounded session admission with LRU idle eviction;
//! evicted sessions answer `err;code=session_expired`, default 64).
//!
//! Observability flags: `--metrics 0|1` (install the process-wide
//! `ndg-obs` registry; the `metrics` method then exposes every counter
//! and histogram), `--events 0|1` (install the flight recorder: the
//! `events` method snapshots the retained wide events, and faults dump
//! the surrounding events to stderr), `--log jsonl[:PATH]` (structured
//! wide-event log, one JSON object per line, to stderr or `PATH`;
//! implies `--events 1`), `--log-sample N` (log every Nth wide event —
//! errors and slow requests always logged), and `--log-slow-ms MS`
//! (retain the slowest requests with per-stage timings, reported by
//! `stats`).
//!
//! The serving contract (concurrent TCP answers byte-identical to a
//! sequential cache-off router) is checked by
//! `crates/serve/tests/serve_contract.rs`; the seeded fault-injection
//! harness lives in `ndg_bench::chaos`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use ndg_exec::Executor;
use ndg_serve::{spawn_tcp_with, Router, TcpOptions};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ndg-serve (--stdio | --tcp ADDR) \
         [--threads T] [--cache C] [--canon 0|1] [--default-deadline-ms MS] \
         [--max-inflight N] [--idle-timeout-ms MS] \
         [--audit-every N] [--max-sessions M] \
         [--metrics 0|1] [--events 0|1] [--log jsonl[:PATH]] [--log-sample N] \
         [--log-slow-ms MS]"
    );
    std::process::exit(2);
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<String> = None;
    let mut addr = "127.0.0.1:4321".to_string();
    let mut threads: Option<usize> = None;
    let mut cache = ndg_serve::router::DEFAULT_CACHE_CAPACITY;
    let mut canon = true;
    let mut default_deadline_ms: Option<u64> = None;
    let mut max_inflight: Option<usize> = None;
    let mut idle_timeout_ms: Option<u64> = None;
    let mut metrics = false;
    let mut events = false;
    let mut log_spec: Option<String> = None;
    let mut log_sample: u64 = 1;
    let mut log_slow_ms: Option<u64> = None;
    let mut session_cfg = ndg_serve::SessionConfig::default();

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => mode = Some("stdio".into()),
            "--tcp" => {
                mode = Some("tcp".into());
                if let Some(v) = it.peek() {
                    if !v.starts_with("--") {
                        addr = match it.next() {
                            Some(a) => a.clone(),
                            None => usage(),
                        };
                    }
                }
            }
            "--threads" => {
                threads = match it.next().and_then(|v| v.parse().ok()) {
                    Some(t) => Some(t),
                    None => usage(),
                }
            }
            "--cache" => {
                cache = match it.next().and_then(|v| v.parse().ok()) {
                    Some(c) => c,
                    None => usage(),
                }
            }
            "--canon" => {
                canon = match it.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => usage(),
                }
            }
            "--default-deadline-ms" => {
                default_deadline_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(ms) => Some(ms),
                    None => usage(),
                }
            }
            "--max-inflight" => {
                max_inflight = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => usage(),
                }
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(ms) => Some(ms),
                    None => usage(),
                }
            }
            "--audit-every" => {
                session_cfg.audit_every = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => usage(),
                }
            }
            "--max-sessions" => {
                session_cfg.max_sessions = match it.next().and_then(|v| v.parse().ok()) {
                    Some(m) => m,
                    None => usage(),
                }
            }
            "--metrics" => {
                metrics = match it.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => usage(),
                }
            }
            "--events" => {
                events = match it.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => usage(),
                }
            }
            "--log" => {
                log_spec = match it.next() {
                    Some(v) if v == "jsonl" || v.starts_with("jsonl:") => Some(v.clone()),
                    _ => usage(),
                }
            }
            "--log-sample" => {
                log_sample = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => usage(),
                }
            }
            "--log-slow-ms" => {
                log_slow_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(ms) => Some(ms),
                    None => usage(),
                }
            }
            _ => usage(),
        }
    }

    if metrics {
        ndg_obs::install();
    }
    let ex = threads
        .map(Executor::new)
        .unwrap_or_else(Executor::from_env);
    let mut router = Router::with_canon(ex, cache, canon);
    router.set_default_deadline_ms(default_deadline_ms);
    router.set_log_slow_ms(log_slow_ms);
    router.set_session_config(session_cfg);
    if events || log_spec.is_some() {
        let rec = Arc::new(ndg_obs::events::Recorder::with_wall_clock());
        rec.set_sample_every(log_sample);
        if let Some(spec) = &log_spec {
            match make_log_sink(spec) {
                Ok(sink) => rec.set_sink(sink),
                Err(e) => {
                    eprintln!("ndg-serve: cannot open log sink `{spec}`: {e}");
                    return 1;
                }
            }
        }
        router.set_recorder(Some(rec));
    }
    match mode.as_deref() {
        Some("stdio") => {
            let opts = ndg_serve::ServeOptions {
                gate: max_inflight.map(|cap| {
                    Arc::new(ndg_serve::Gate::new(
                        cap,
                        ndg_serve::server::DEFAULT_RETRY_MS,
                    ))
                }),
                ..Default::default()
            };
            // Register the admission gate so `health` reports its fill.
            if let Some(g) = &opts.gate {
                router.register_gate(g.clone());
            }
            if let Err(e) = ndg_serve::serve_stdio_with(&router, &opts) {
                eprintln!("ndg-serve: stdio stream failed: {e}");
                return 1;
            }
            0
        }
        Some("tcp") => {
            let topts = TcpOptions {
                idle_timeout: idle_timeout_ms.map(Duration::from_millis),
                max_inflight,
                ..Default::default()
            };
            let handle = match spawn_tcp_with(Arc::new(router), &addr, topts) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("ndg-serve: cannot bind {addr}: {e}");
                    return 1;
                }
            };
            println!("ndg-serve: listening on {}", handle.addr());
            // Foreground server: park until killed.
            loop {
                std::thread::park();
            }
        }
        _ => usage(),
    }
}

/// Open the `--log` sink: `jsonl` writes to stderr (the protocol stream
/// on stdout stays clean), `jsonl:PATH` appends to `PATH`.
fn make_log_sink(spec: &str) -> std::io::Result<Box<dyn Write + Send>> {
    match spec.strip_prefix("jsonl").and_then(|r| r.strip_prefix(':')) {
        None => Ok(Box::new(std::io::stderr())),
        Some(path) => {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Ok(Box::new(f))
        }
    }
}
