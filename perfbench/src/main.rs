//! `perfbench` — the end-to-end and per-layer benchmark for `ndg-serve`.
//!
//! ```text
//! perfbench --server PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it spawns `ndg-serve --tcp 127.0.0.1:0 --threads 1`,
//! drives the workload from one closed-loop connection for `S` seconds,
//! checks every answer against an in-process reference, and prints the
//! end-to-end metrics. With `--trace 1` it replays the workload through
//! each layer's public functions and prints the per-layer metrics. Either
//! way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a run record with the
//! host-noise diagnostics and the exact work counts goes to `DIR`.

mod gate;
mod layers;
mod procfs;
mod replay;
mod stats;
mod traffic;
mod wire;

use gate::{Counts, Tally};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use traffic::{Client, Key, Plan, Workload};
use wire::{Arena, Conn, Server};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Equal-count segments of the timed phase; `throughput_rps` is the
/// median of their rates.
const SEGMENTS: usize = 20;
/// Most consecutive segments the latency samples are cut into; each
/// latency percentile is the median of the segments' percentiles.
const LATENCY_SEGMENTS: usize = 5;

/// Parsed command line.
struct Args {
    server: PathBuf,
    out: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --server PATH --out DIR --workload ({}) --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut out = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(usage()),
        }
    }
    Ok(Args {
        server: server.ok_or_else(usage)?,
        out: out.ok_or_else(usage)?,
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports: the result line's fields plus the diagnostics that
/// go next to them.
struct Report {
    tallies: Vec<Tally>,
    metrics: Vec<Metric>,
    counts: Counts,
    /// Extra problems that make the run incorrect.
    problems: Vec<String>,
    /// Diagnostic `name=value` lines (host noise, sample counts, …).
    notes: Vec<String>,
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let host0 = procfs::host_cpu();
    let plan = Plan::build(args.workload, args.seed);
    let mut report = if args.trace {
        let spans = args.out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        layers::run(&args.server, &plan, &spans)?
    } else {
        end_to_end(&args, &plan)?
    };
    // Exact work counts must repeat for a seed: compare with any earlier
    // run of the same seed by the same benchmark binary.
    let counts_path = args.out.join("counts").join(format!(
        "{}-seed{}-{:016x}.txt",
        args.workload.name(),
        args.seed,
        exe_fingerprint()
    ));
    if let Err(e) = gate::repeat_check(&counts_path, &report.counts) {
        report.problems.push(e);
    }
    if let (Some(a), Some(b)) = (host0, procfs::host_cpu()) {
        report
            .notes
            .push(format!("steal_share_run={:.4}", a.steal_share_until(&b)));
    }
    report
        .notes
        .push(format!("nproc={}", ndg_exec::available_threads()));
    emit(&args, &report)
}

/// FNV-1a of the running benchmark binary: work counts are compared only
/// between runs of the same build.
fn exe_fingerprint() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    ndg_serve::codec::fnv1a64(&bytes)
}

/// Print the diagnostics and the result line, and write the run record.
fn emit(args: &Args, report: &Report) -> Result<(), String> {
    let mut text = String::new();
    for t in &report.tallies {
        let _ = writeln!(
            text,
            "phase {}: sent={} succeeded={} failed={}",
            t.phase, t.sent, t.ok, t.failed
        );
        if let Some(f) = &t.first_failure {
            let _ = writeln!(text, "  first failure: {f}");
        }
    }
    for p in &report.problems {
        let _ = writeln!(text, "problem: {p}");
    }
    for n in &report.notes {
        let _ = writeln!(text, "note {n}");
    }
    for (k, v) in &report.counts {
        let _ = writeln!(text, "count {k}={v}");
    }
    for m in &report.metrics {
        let _ = writeln!(text, "metric {}={} {}", m.name, m.value, m.unit);
    }
    let attempted: usize = report.tallies.iter().map(|t| t.sent).sum();
    let failed: usize = report.tallies.iter().map(|t| t.failed).sum();
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && report.problems.is_empty() && attempted > 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let record = args.out.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record, format!("{text}{line}\n")).map_err(|e| e.to_string())?;
    print!("{text}");
    println!("{line}");
    Ok(())
}

/// A finite JSON number (a non-finite metric prints as 0 and makes the
/// run incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Answers of one phase over the wire.
#[derive(Default)]
struct Phase {
    keys: Vec<Key>,
    arena: Arena,
    /// Per request: µs from its batch's write to the read of its answer.
    latency_us: Vec<f64>,
    /// Per batch: (seconds since the phase began when it completed, lines).
    completions: Vec<(f64, usize)>,
}

impl Phase {
    /// Send one batch and record its answers.
    fn exchange(
        &mut self,
        conn: &mut Conn,
        client: &mut Client,
        t0: Instant,
    ) -> Result<(), String> {
        let batch = client.next_batch();
        let first = self.arena.len();
        conn.exchange(&batch.lines, &mut self.arena, &mut self.latency_us)
            .map_err(|e| format!("exchange failed: {e}"))?;
        let answers: Vec<&str> = (first..self.arena.len())
            .map(|i| self.arena.get(i))
            .collect();
        client.observe(&answers);
        self.completions
            .push((t0.elapsed().as_secs_f64(), batch.lines.len()));
        self.keys.extend(batch.keys);
        Ok(())
    }
}

/// Spawn a server and run the workload's set-up on a fresh connection.
/// Returns the server, connection, client and set-up answers, and the set-up
/// time (spawn to first timed request).
fn set_up<'p>(
    bin: &std::path::Path,
    plan: &'p Plan,
) -> Result<(Server, Conn, Client<'p>, Phase, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin).map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("cannot connect: {e}"))?;
    let mut client = Client::new(plan);
    let mut phase = Phase::default();
    while !client.setup_done() {
        phase.exchange(&mut conn, &mut client, t0)?;
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((server, conn, client, phase, secs))
}

/// The end-to-end run: set up [`SETUP_REPS`] times, drive the timed phase
/// over TCP, then check every answer and replay the counted prefix.
fn end_to_end(args: &Args, plan: &Plan) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut setup_phases = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (server, conn, client, phase, secs) = set_up(&args.server, plan)?;
        setup_s.push(secs);
        setup_phases.push(phase);
        if rep + 1 == SETUP_REPS {
            live = Some((server, conn, client));
        }
    }
    let (server, mut conn, mut client) = live.expect("at least one set-up");
    let pid = server.pid();
    let limit = Duration::from_secs_f64(args.seconds);
    let cpu0 = procfs::process_cpu_s(pid);
    let host0 = procfs::host_cpu();
    let mut timed = Phase::default();
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        timed.exchange(&mut conn, &mut client, t0)?;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu1 = procfs::process_cpu_s(pid);
    let host1 = procfs::host_cpu();
    let rss_mb = procfs::process_peak_rss_mib(pid).map(|m| m * 1.048576);
    // Stop the server before the checks below, so it does not share the
    // CPU with the reference solves.
    drop(conn);
    drop(server);

    let mut report = Report {
        tallies: Vec::new(),
        metrics: Vec::new(),
        counts: Counts::new(),
        problems: Vec::new(),
        notes: Vec::new(),
    };
    // Correctness gate, outside the timed window.
    let mut keys: BTreeSet<Key> = timed.keys.iter().copied().collect();
    for p in &setup_phases {
        keys.extend(p.keys.iter().copied());
    }
    let answers = gate::reference(plan, &keys);
    let mut setup_tally = Tally {
        phase: "setup",
        ..Tally::default()
    };
    for p in &setup_phases {
        let t = gate::tally("setup", &p.keys, &p.arena, &answers);
        setup_tally.sent += t.sent;
        setup_tally.ok += t.ok;
        setup_tally.failed += t.failed;
        setup_tally.first_failure = setup_tally.first_failure.or(t.first_failure);
    }
    report.tallies.push(setup_tally);
    report
        .tallies
        .push(gate::tally("timed", &timed.keys, &timed.arena, &answers));

    // Exact work counts over the fixed in-process prefix.
    ndg_obs::install();
    report.counts = replay::replay(
        &gate::server_like_router(),
        plan,
        plan.workload.replay_batches(),
        |_, _| {},
    );

    // End-to-end metrics.
    let requests = timed.keys.len();
    let lat = &timed.latency_us;
    let p50 = stats::segmented_percentile(lat, 0.5, LATENCY_SEGMENTS);
    let p99 = stats::segmented_percentile(lat, 0.99, LATENCY_SEGMENTS);
    let ((p50, _), (p99, p99_segments)) = match (p50, p99) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(format!(
                "{} latency samples: p99 needs at least {} (ten beyond it); lengthen --seconds",
                lat.len(),
                stats::min_samples_for(0.99)
            ))
        }
    };
    let rates = segment_rates(&timed.completions);
    let (cpu0, cpu1, rss_mb) = match (cpu0, cpu1, rss_mb) {
        (Some(a), Some(b), Some(r)) => (a, b, r),
        _ => return Err("cannot read the server's /proc files".into()),
    };
    report.metrics = vec![
        Metric {
            name: "latency_p50_ms",
            value: p50 / 1e3,
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: stats::median(&rates),
            unit: "1/s",
        },
        Metric {
            name: "cpu_us_per_req",
            value: (cpu1 - cpu0) * 1e6 / requests as f64,
            unit: "us",
        },
        Metric {
            name: "rss_peak_mb",
            value: rss_mb,
            unit: "MB",
        },
        Metric {
            name: "setup_s",
            value: stats::median(&setup_s),
            unit: "s",
        },
    ];
    let half = rates.len() / 2;
    let notes = &mut report.notes;
    // The tail is printed but not gated: on a shared host it tracks the
    // hypervisor's steal (see README).
    notes.push(format!(
        "latency_p99_ms={:.4} latency_samples={} latency_segments={p99_segments}",
        p99 / 1e3,
        lat.len()
    ));
    notes.push(format!("timed_requests={requests}"));
    notes.push(format!("timed_seconds={elapsed:.3}"));
    notes.push(format!(
        "throughput_mean_rps={:.1}",
        requests as f64 / elapsed
    ));
    notes.push(format!(
        "throughput_halves_rps={:.1},{:.1}",
        stats::median(&rates[..half]),
        stats::median(&rates[half..])
    ));
    notes.push(format!(
        "segment_rps={}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    notes.push(format!(
        "setup_s_each={}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    if let (Some(a), Some(b)) = (host0, host1) {
        notes.push(format!("steal_share_timed={:.4}", a.steal_share_until(&b)));
    }
    notes.push(format!("server_args={}", wire::SERVER_ARGS.join(" ")));
    Ok(report)
}

/// Request rates of [`SEGMENTS`] consecutive equal-count groups of
/// batches, from `(completion time, lines)` per batch. Counting batches
/// rather than clock windows keeps a slow batch from being split across
/// windows.
fn segment_rates(completions: &[(f64, usize)]) -> Vec<f64> {
    let per = (completions.len() / SEGMENTS).max(1);
    let mut rates = Vec::new();
    let mut start = 0.0;
    for chunk in completions.chunks(per) {
        if chunk.len() < per {
            break;
        }
        let end = chunk[chunk.len() - 1].0;
        let lines: usize = chunk.iter().map(|c| c.1).sum();
        rates.push(lines as f64 / (end - start).max(1e-9));
        start = end;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_rates_count_lines_per_segment() {
        // 40 batches of 8 lines, one every 10 ms: 800 requests/s throughout.
        let c: Vec<(f64, usize)> = (1..=40).map(|i| (i as f64 * 0.01, 8)).collect();
        let r = segment_rates(&c);
        assert_eq!(r.len(), SEGMENTS);
        for x in r {
            assert!((x - 800.0).abs() < 1e-6, "{x}");
        }
    }
}
