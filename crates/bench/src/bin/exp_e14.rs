//! E14 — isomorphism-aware caching: hit rate, overhead, and the
//! byte-identity contract on a relabeled-duplicate-heavy workload.
//!
//! The E12 mixed workload is re-run with relabeled duplicates: 400
//! requests over 25 base instances, each emitted as 4 literal variants
//! under fresh random node/edge/player relabelings (what independent
//! clients submitting the same network look like). Three measurements:
//!
//! 1. **Literal baseline** (`--canon 0` semantics): the cache keys on
//!    literal bytes and is floored at 100 distinct bodies → ~75% hit
//!    rate.
//! 2. **Canonical keying**: requests are rewritten into canonical label
//!    space (`ndg-canon`), keyed and solved there, and mapped back —
//!    the 100 literal bodies collapse onto 25 isomorphism classes and
//!    the hit rate moves to ≥90% (the acceptance gate, asserted here).
//! 3. **Determinism**: every canonical-pipeline payload is asserted
//!    byte-identical to the sequential cache-off canonical reference at
//!    threads ∈ {1, 4, 8}; per-request latency quantifies the
//!    canonicalization overhead against the literal pipeline.
//!
//! Results are spliced into `BENCH_serve.json` under `"e14_canon"`
//! (every other section is kept byte for byte). 1-core container:
//! wall-clock speedups are not measurable here — hit rates and
//! byte-identity are the portable part.

use ndg_bench::{header, row};
use ndg_exec::Executor;
use ndg_serve::{build_workload, payload_of, Router, WorkloadSpec};
use std::io::Write as _;
use std::time::Instant;

const SPEC: WorkloadSpec = WorkloadSpec {
    requests: 400,
    distinct: 25,
    seed: 0xE14,
    isomorphs: 4,
};
const BATCH: usize = 32;
const THREADS: [usize; 3] = [1, 4, 8];

fn hit_rate(r: &Router) -> f64 {
    let s = r.cache_stats();
    s.hits as f64 / (s.hits + s.misses).max(1) as f64
}

fn main() {
    let lines = build_workload(SPEC);
    println!(
        "E14: isomorph-heavy serving load ({} requests over {} bases x{} relabeled variants)",
        SPEC.requests, SPEC.distinct, SPEC.isomorphs
    );

    // 1. References: sequential cache-off routers, one per mode (the two
    //    modes answer with different witness bits by design).
    let canon_ref = Router::new(Executor::sequential(), 0);
    let t0 = Instant::now();
    let canon_want: Vec<String> = lines
        .iter()
        .map(|l| payload_of(&canon_ref.handle_line(l)))
        .collect();
    let canon_ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    let literal_ref = Router::with_canon(Executor::sequential(), 0, false);
    let t0 = Instant::now();
    let literal_want: Vec<String> = lines
        .iter()
        .map(|l| payload_of(&literal_ref.handle_line(l)))
        .collect();
    let literal_ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "reference (sequential, cache off): canonical {canon_ref_ms:.1} ms, \
         literal {literal_ref_ms:.1} ms → canonicalization overhead \
         {:.1} µs/request",
        (canon_ref_ms - literal_ref_ms) * 1e3 / SPEC.requests as f64
    );

    // 2. Cold hit rates: literal floor vs canonical collapse.
    let literal = Router::with_canon(Executor::sequential(), 4096, false);
    for (line, want) in lines.iter().zip(&literal_want) {
        assert_eq!(&payload_of(&literal.handle_line(line)), want);
    }
    let literal_rate = hit_rate(&literal);
    let canon = Router::new(Executor::sequential(), 4096);
    let mut lat_us: Vec<f64> = Vec::with_capacity(lines.len());
    for (line, want) in lines.iter().zip(&canon_want) {
        let t0 = Instant::now();
        let resp = canon.handle_line(line);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(&payload_of(&resp), want, "canonical pipeline diverged");
    }
    lat_us.sort_by(f64::total_cmp);
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let canon_rate = hit_rate(&canon);
    let cstats = canon.cache_stats();
    println!(
        "cold pass: literal hit rate {:.1}% (floor 1-{}/{} = {:.1}%) | canonical {:.1}% \
         (isomorphism hits {}, p50 {p50:.0} µs, p99 {p99:.0} µs)",
        literal_rate * 100.0,
        SPEC.distinct * SPEC.isomorphs,
        SPEC.requests,
        (1.0 - (SPEC.distinct * SPEC.isomorphs) as f64 / SPEC.requests as f64) * 100.0,
        canon_rate * 100.0,
        cstats.canon_hits,
    );
    assert!(
        canon_rate >= 0.90,
        "acceptance gate: canonical hit rate must reach 90%, got {canon_rate:.3}"
    );
    assert!(
        cstats.canon_hits > 0,
        "canonical hits must be isomorphism-mediated ({cstats:?})"
    );
    assert!(
        literal_rate < 0.80,
        "literal baseline must stay near its per-duplicate floor, got {literal_rate:.3}"
    );

    // 3. Batched determinism + warm throughput at each thread count.
    let widths = [8, 7, 10, 10, 12, 12];
    println!(
        "{}",
        header(
            &[
                "threads",
                "canon",
                "wall-ms",
                "req/s",
                "hit-rate",
                "canon-hits"
            ],
            &widths
        )
    );
    let mut results = Vec::new();
    for canon_mode in [true, false] {
        let want = if canon_mode {
            &canon_want
        } else {
            &literal_want
        };
        for t in THREADS {
            let router = Router::with_canon(Executor::new(t), 4096, canon_mode);
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
                &payloads, want,
                "threads={t} canon={canon_mode}: batched payloads diverged"
            );
            times.sort_by(f64::total_cmp);
            let wall_ms = times[1];
            let stats = router.cache_stats();
            let hr = stats.hits as f64 / (stats.hits + stats.misses) as f64;
            let rps = SPEC.requests as f64 / (wall_ms / 1e3);
            println!(
                "{}",
                row(
                    &[
                        t.to_string(),
                        u8::from(canon_mode).to_string(),
                        format!("{wall_ms:.2}"),
                        format!("{rps:.0}"),
                        format!("{:.1}%", hr * 100.0),
                        stats.canon_hits.to_string(),
                    ],
                    &widths
                )
            );
            results.push((t, canon_mode, wall_ms, rps, hr));
        }
    }
    println!(
        "OK: payloads bit-identical to the per-mode sequential references at \
         threads ∈ {THREADS:?}, canon ∈ {{1, 0}}"
    );

    // 4. Splice the e14 section into BENCH_serve.json; every other
    //    section stays as it is.
    let section = {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "    \"note\": \"E12 mixed workload re-run with relabeled duplicates ({} requests over {} base instances x{} random relabelings); canonical keying collapses {} literal bodies onto {} isomorphism classes. Payloads asserted byte-identical to the per-mode sequential cache-off references at threads 1/4/8.\",\n",
            SPEC.requests,
            SPEC.distinct,
            SPEC.isomorphs,
            SPEC.distinct * SPEC.isomorphs,
            SPEC.distinct,
        ));
        s.push_str(&format!(
            "    \"cold_hit_rate\": {{ \"literal\": {literal_rate:.3}, \"canonical\": {canon_rate:.3} }},\n"
        ));
        s.push_str(&format!(
            "    \"canon_latency\": {{ \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \"overhead_us_per_request\": {:.1} }},\n",
            (canon_ref_ms - literal_ref_ms) * 1e3 / SPEC.requests as f64
        ));
        s.push_str("    \"benchmarks\": [\n");
        for (i, (t, canon_mode, wall_ms, rps, hr)) in results.iter().enumerate() {
            s.push_str(&format!(
                "      {{ \"id\": \"serve_warm/canon={}/threads={t}\", \"wall_ms\": {wall_ms:.2}, \"requests_per_s\": {rps:.0}, \"cache_hit_rate\": {hr:.3} }}{}\n",
                u8::from(*canon_mode),
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }");
        s
    };
    let path = "BENCH_serve.json";
    let old = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let merged = ndg_bench::splice_bench_section(&old, "e14_canon", &section);
    match std::fs::File::create(path).and_then(|mut f| f.write_all(merged.as_bytes())) {
        Ok(()) => println!("wrote {path} (e14_canon section)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
