//! E12 — serving-layer load test: throughput, cache hit rate, latency.
//!
//! A mixed `enforce`/`dynamics`/`pos`/`aon`/`certify` workload (400
//! requests over 100 distinct bodies → target hit ratio 75%) is replayed
//! through the [`ndg_serve::Router`] three ways:
//!
//! 1. a **sequential reference** pass with the cache disabled — direct
//!    library calls behind the codec, the byte-exact ground truth;
//! 2. a **per-request latency** pass (cache enabled) measuring each
//!    `handle_line` individually for p50/p99;
//! 3. **batched throughput** passes at threads ∈ {1, 4, 8}, batches of
//!    32 scheduled on the executor — every payload asserted
//!    byte-identical to the reference (the E11-style determinism gate).
//!
//! A fourth pass drives the same workload shape through the
//! [`ndg_bench::chaos`] fault-injection harness over live TCP
//! (`--fault-rate F`, default 0.15; `--fault-rate 0` degrades it to a
//! clean TCP load test) and pins the survival counters as the
//! `e12_chaos` row.
//!
//! Observability gates: the reference pass runs *before*
//! [`ndg_obs::install`], so the latency pass is the only writer of the
//! server-side `serve_request_us` histogram — its p50/p99 must agree
//! with the harness-side percentiles within the histogram's 2× bucket
//! factor — and a warm-replay A/B gates the instrumentation overhead at
//! ≤5% + 2 ms slack, its two arms alternated run by run (best of 5
//! each). The "on" arm is the full observability stack: the metrics
//! registry installed *and* a flight recorder with a sampled (every 8th
//! event) jsonl sink attached to the router, so the pinned
//! `obs_overhead` row prices wide-event recording and structured
//! logging, not just counter bumps.
//!
//! `--smoke` shrinks the workload (120/40), keeps every determinism and
//! observability gate, and skips the chaos pass and the baseline write.
//!
//! `--check` replays the measurement passes and compares them against
//! the pinned `BENCH_serve.json` instead of rewriting it. Deterministic
//! fields are hard gates: the cache hit rate must match the pin within
//! ±0.005, and the pinned chaos row must say `"survived": true`.
//! Wall-clock fields (latency percentiles, warm-replay walls) drift
//! with the host, so they are **warn-only** outside a generous 4×
//! band — the run still exits 0. The in-run relative gates (payload
//! determinism, 2× histogram agreement, the ≤5% + 2 ms overhead gate)
//! stay hard in every mode.
//!
//! `BENCH_serve.json` at the repo root pins the measured baseline: a
//! full run rewrites this binary's top-level entries and keeps the
//! `e14_canon` and `e16_sessions` sections byte for byte. A 1-core
//! container shows no batching speedup — the determinism
//! assertions are the portable part; re-measure on multicore hardware.

use ndg_bench::chaos::{run_chaos, ChaosSpec};
use ndg_bench::{header, row};
use ndg_exec::Executor;
use ndg_serve::{build_workload, payload_of, Router, WorkloadSpec};
use std::io::Write as _;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 4, 8];
const SPEC: WorkloadSpec = WorkloadSpec {
    requests: 400,
    distinct: 100,
    seed: 0xE12,
    isomorphs: 1,
};
const SMOKE_SPEC: WorkloadSpec = WorkloadSpec {
    requests: 120,
    distinct: 40,
    seed: 0xE12,
    isomorphs: 1,
};
const BATCH: usize = 32;

/// Read one `name=value` field out of the [`ndg_obs::expose`] text.
fn metric(expo: &str, name: &str) -> f64 {
    expo.split(';')
        .find_map(|f| f.strip_prefix(name).and_then(|r| r.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric `{name}` missing from exposition: {expo}"))
}

fn main() {
    let mut fault_rate = 0.15f64;
    let mut smoke = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault-rate" => {
                fault_rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| {
                        eprintln!("exp_e12: --fault-rate needs a value in [0, 1]");
                        std::process::exit(2);
                    });
            }
            "--smoke" => smoke = true,
            "--check" => check = true,
            _ => {
                eprintln!("usage: exp_e12 [--fault-rate F] [--smoke] [--check]");
                std::process::exit(2);
            }
        }
    }
    if check && smoke {
        // The pin was measured at full size; smoke numbers are not
        // comparable to it.
        eprintln!("exp_e12: --check and --smoke are mutually exclusive");
        std::process::exit(2);
    }
    let spec = if smoke { SMOKE_SPEC } else { SPEC };
    let lines = build_workload(spec);
    println!(
        "E12: serving-layer load ({} requests, {} distinct bodies, batch={BATCH}{})",
        spec.requests,
        spec.distinct,
        if smoke { ", smoke" } else { "" }
    );

    // 1. Sequential, cache-off reference payloads.
    let reference_router = Router::new(Executor::sequential(), 0);
    let t0 = Instant::now();
    let reference: Vec<String> = lines
        .iter()
        .map(|l| payload_of(&reference_router.handle_line(l)))
        .collect();
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("reference (sequential, cache off): {ref_ms:.1} ms total");

    // Install the metrics registry only now: the reference pass ran
    // uninstalled, so the latency pass below is the sole writer of the
    // server-side `serve_request_us` histogram read in the 2x gate.
    ndg_obs::install();

    // 2. Per-request latency with the cache on.
    let latency_router = Router::new(Executor::sequential(), 4096);
    let mut lat_us: Vec<f64> = Vec::with_capacity(lines.len());
    for (line, want) in lines.iter().zip(&reference) {
        let t0 = Instant::now();
        let resp = latency_router.handle_line(line);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(&payload_of(&resp), want, "latency pass diverged");
    }
    lat_us.sort_by(f64::total_cmp);
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let lstats = latency_router.cache_stats();
    let hit_rate = lstats.hits as f64 / (lstats.hits + lstats.misses) as f64;
    println!(
        "latency (cache on): p50 {p50:.0} µs  p99 {p99:.0} µs  hit rate {:.1}%",
        hit_rate * 100.0
    );

    // 2b. Server-side percentiles from the registry histogram must agree
    //     with the harness-side measurements. The log2 histogram reports
    //     the upper edge of each bucket, so its quantiles sit within
    //     [q, 2q) of the truth — gate at 2x each way plus a small
    //     absolute slack for clock jitter on microsecond samples.
    let expo = ndg_obs::expose();
    let samples = metric(&expo, "serve_request_us_count");
    assert_eq!(
        samples as usize,
        lines.len(),
        "serve_request_us should hold exactly the latency-pass samples"
    );
    let server_p50 = metric(&expo, "serve_request_us_p50");
    let server_p99 = metric(&expo, "serve_request_us_p99");
    // The histogram picks the rank-ceil(q·n) observation; compare against
    // the harness sample at that same rank so the 2x bucket bound is the
    // only source of disagreement.
    let rank_pct = |q: f64| {
        let rank = ((q * lat_us.len() as f64).ceil() as usize).clamp(1, lat_us.len());
        lat_us[rank - 1]
    };
    let within_2x = |server: f64, harness: f64| {
        server <= harness * 2.0 + 10.0 && server + 10.0 >= harness / 2.0
    };
    assert!(
        within_2x(server_p50, rank_pct(0.50)),
        "server-side p50 {server_p50:.0} µs disagrees with harness p50 {:.0} µs by more than 2x",
        rank_pct(0.50)
    );
    assert!(
        within_2x(server_p99, rank_pct(0.99)),
        "server-side p99 {server_p99:.0} µs disagrees with harness p99 {:.0} µs by more than 2x",
        rank_pct(0.99)
    );
    println!(
        "server-side histogram: p50 {server_p50:.0} µs  p99 {server_p99:.0} µs  (within 2x of harness)"
    );

    // 2c. Instrumentation overhead gate: warm cache replays on two fresh
    //     sequential routers, everything off vs the full stack on
    //     (metrics registry installed + flight recorder with a sampled
    //     jsonl sink). The arms alternate run by run, the registry
    //     toggled around each, and each keeps its best of 5, so one burst
    //     of host noise lands on both arms rather than one. The on-arm
    //     wall must stay within 5% (+2 ms absolute slack for scheduler
    //     noise in a 1-core container).
    let bare = Router::new(Executor::sequential(), 4096);
    let mut recorded = Router::new(Executor::sequential(), 4096);
    let rec = std::sync::Arc::new(ndg_obs::events::Recorder::with_wall_clock());
    rec.set_sample_every(8);
    let sink: Box<dyn std::io::Write + Send> =
        match std::fs::File::create("target/e12_events.jsonl") {
            Ok(f) => Box::new(f),
            Err(_) => Box::new(std::io::sink()),
        };
    rec.set_sink(sink);
    recorded.set_recorder(Some(rec));
    let replay_ms = |router: &Router, on: bool| {
        if on {
            ndg_obs::install();
        } else {
            ndg_obs::uninstall();
        }
        let t0 = Instant::now();
        for chunk in lines.chunks(BATCH) {
            router.handle_batch(chunk);
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    // One untimed replay per arm fills its cache.
    replay_ms(&bare, false);
    replay_ms(&recorded, true);
    let (mut warm_off_ms, mut warm_on_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        warm_off_ms = warm_off_ms.min(replay_ms(&bare, false));
        warm_on_ms = warm_on_ms.min(replay_ms(&recorded, true));
    }
    println!("warm replay (registry off): min-of-5 {warm_off_ms:.2} ms");
    println!("warm replay (registry + recorder + jsonl): min-of-5 {warm_on_ms:.2} ms");
    assert!(
        warm_on_ms <= warm_off_ms * 1.05 + 2.0,
        "observability overhead too high: warm replay {warm_on_ms:.2} ms with registry + \
         recorder + jsonl vs {warm_off_ms:.2} ms bare (gate: <=5% + 2 ms)"
    );
    println!("OK: registry + recorder + jsonl overhead within 5% (+2 ms slack) on warm replays");

    // 3. Batched throughput at each thread count.
    let widths = [8, 10, 10, 11, 10];
    println!(
        "{}",
        header(
            &["threads", "wall-ms", "req/s", "hit-rate", "speedup"],
            &widths
        )
    );
    let mut results = Vec::new();
    let mut base_ms = None;
    for t in THREADS {
        let router = Router::new(Executor::new(t), 4096);
        // Median of 3 replays (fresh warmup pass excluded from dispute:
        // each replay re-runs the full stream, so later replays serve
        // mostly from cache — exactly the serving scenario).
        let mut times = Vec::new();
        let mut payloads: Vec<String> = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let mut got = Vec::with_capacity(lines.len());
            for chunk in lines.chunks(BATCH) {
                got.extend(router.handle_batch(chunk));
            }
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            payloads = got.iter().map(|l| payload_of(l)).collect();
        }
        assert_eq!(
            payloads, reference,
            "threads={t}: batched payloads diverged from the sequential reference"
        );
        times.sort_by(f64::total_cmp);
        let wall_ms = times[1];
        let stats = router.cache_stats();
        let hr = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        let rps = spec.requests as f64 / (wall_ms / 1e3);
        let speedup = match base_ms {
            None => {
                base_ms = Some(wall_ms);
                1.0
            }
            Some(b) => b / wall_ms,
        };
        println!(
            "{}",
            row(
                &[
                    t.to_string(),
                    format!("{wall_ms:.2}"),
                    format!("{rps:.0}"),
                    format!("{:.1}%", hr * 100.0),
                    format!("{speedup:.2}x"),
                ],
                &widths
            )
        );
        results.push((t, wall_ms, rps, hr));
    }
    println!("OK: all payloads bit-identical to sequential library calls at threads ∈ {THREADS:?}");

    if smoke {
        println!("smoke mode: skipping chaos pass and BENCH_serve.json write");
        return;
    }

    if check {
        // --check: compare this run against the pinned baseline instead
        // of re-pinning it. The cache hit rate is a pure function of the
        // workload, so it must match the pin (±0.005, hard). Wall-clock
        // fields drift with the host: they warn outside a 4x band either
        // way and never fail the run. Each field is read inside its own
        // top-level entry, wherever the other binaries' sections sit.
        let path = "BENCH_serve.json";
        let pinned = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("exp_e12 --check: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let field = |entry: &str, key: &str| {
            ndg_bench::bench_entry(&pinned, entry).and_then(|e| ndg_bench::bench_entry(e, key))
        };
        let pin = |entry: &str, key: &str| -> f64 {
            field(entry, key)
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN)
        };
        let mut hard_fail = false;
        let pin_hit = pin("latency", "cache_hit_rate");
        if !(pin_hit - hit_rate).abs().is_finite() || (pin_hit - hit_rate).abs() > 0.005 {
            eprintln!(
                "exp_e12 --check: cache hit rate {hit_rate:.3} != pinned {pin_hit:.3} \
                 (deterministic field, hard gate)"
            );
            hard_fail = true;
        }
        if field("e12_chaos", "survived") != Some("true") {
            eprintln!("exp_e12 --check: pinned e12_chaos row is missing `\"survived\": true`");
            hard_fail = true;
        }
        const WARN_BAND: f64 = 4.0;
        for (name, fresh, pin_v) in [
            ("latency p50_us", p50, pin("latency", "p50_us")),
            ("latency p99_us", p99, pin("latency", "p99_us")),
            (
                "warm_replay_ms_off",
                warm_off_ms,
                pin("obs_overhead", "warm_replay_ms_off"),
            ),
            (
                "warm_replay_ms_on",
                warm_on_ms,
                pin("obs_overhead", "warm_replay_ms_on"),
            ),
        ] {
            if !pin_v.is_finite() {
                eprintln!("exp_e12 --check: `{name}` missing from {path}");
                hard_fail = true;
            } else if fresh > pin_v * WARN_BAND || fresh < pin_v / WARN_BAND {
                println!(
                    "WARN: {name} {fresh:.2} vs pinned {pin_v:.2} — outside the {WARN_BAND}x \
                     band; wall-clock drift is warn-only"
                );
            }
        }
        if hard_fail {
            std::process::exit(1);
        }
        println!(
            "OK: --check against {path} — deterministic fields match the pin; \
             wall-clock fields within the warn band or warned above"
        );
        return;
    }

    // 4. Chaos pass: the same workload shape over live TCP under seeded
    //    fault injection (or a clean TCP load test at --fault-rate 0).
    let chaos_spec = ChaosSpec {
        seed: 0xE12,
        requests: spec.requests,
        distinct: spec.distinct,
        fault_rate,
        threads: None,
    };
    let t0 = Instant::now();
    let chaos = match run_chaos(chaos_spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exp_e12: chaos pass aborted: {e}");
            std::process::exit(1);
        }
    };
    let chaos_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "chaos (fault-rate {fault_rate}): {chaos_ms:.1} ms  corrupt={} torn={} panics={} \
         delays={} disconnects={} shed={}",
        chaos.corrupt, chaos.torn, chaos.panics, chaos.delays, chaos.disconnects, chaos.shed
    );
    for f in &chaos.failures {
        eprintln!("chaos FAIL: {f}");
    }
    assert!(
        chaos.ok(),
        "chaos pass violated the survival contract ({} failures)",
        chaos.failures.len()
    );
    println!("OK: server survived fault injection; surviving payloads byte-identical");

    // 5. Pin the baseline: rewrite this binary's top-level entries and
    //    keep every other section (`e14_canon`, `e16_sessions`) as it is.
    let cores = ndg_exec::available_threads();
    let rows: Vec<String> = results
        .iter()
        .map(|(t, wall_ms, rps, hr)| {
            format!(
                "    {{ \"id\": \"serve_batched/threads={t}\", \"wall_ms\": {wall_ms:.2}, \"requests_per_s\": {rps:.0}, \"cache_hit_rate\": {hr:.3} }}"
            )
        })
        .collect();
    let entries = [
        ("group", "\"e12_serve_throughput\"".to_string()),
        ("note", format!(
            "\"ndg-serve batched request engine on a mixed enforce/dynamics/pos/aon/certify workload ({} requests over {} distinct bodies, batch={BATCH}); payloads asserted byte-identical to sequential cache-off library calls at every thread count. Measured in a {cores}-core container: batching cannot speed up a single core, so re-measure requests/s on multicore hardware; the determinism + cache-reuse numbers are the portable part.\"",
            spec.requests,
            spec.distinct,
        )),
        ("container_cores", cores.to_string()),
        ("latency", format!(
            "{{ \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \"server_p50_us\": {server_p50:.1}, \"server_p99_us\": {server_p99:.1}, \"cache_hit_rate\": {hit_rate:.3} }}"
        )),
        ("obs_overhead", format!(
            "{{ \"warm_replay_ms_off\": {warm_off_ms:.2}, \"warm_replay_ms_on\": {warm_on_ms:.2}, \"on_arm\": \"registry + flight recorder + jsonl sink (sample=8)\", \"gate\": \"<=5% + 2 ms\" }}"
        )),
        ("e12_chaos", format!(
            "{{ \"fault_rate\": {fault_rate}, \"wall_ms\": {chaos_ms:.2}, \
             \"requests\": {}, \"corrupt\": {}, \"torn\": {}, \"panics\": {}, \"delays\": {}, \
             \"disconnects\": {}, \"shed\": {}, \"survived\": true }}",
            chaos.requests,
            chaos.corrupt,
            chaos.torn,
            chaos.panics,
            chaos.delays,
            chaos.disconnects,
            chaos.shed
        )),
        ("benchmarks", format!("[\n{}\n  ]", rows.join(",\n"))),
    ];
    let path = "BENCH_serve.json";
    let old = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let json = entries.iter().fold(old, |text, (key, value)| {
        ndg_bench::splice_bench_section(&text, key, value)
    });
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
