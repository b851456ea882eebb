//! The router's fast form against its parse path, byte for byte.
//!
//! A stateless line exactly as `Request::serialize` writes it (`ndg1;id=`,
//! the volatile header, then the canonical body) is answered without
//! being parsed when the canonicalization memo holds its body. Router A
//! gets the lines in that form. Router B gets the same lines with `id=`
//! moved to the end, a shape the fast form never matches, so B parses
//! every line. Both run each stream twice, so A's second pass is served by
//! memo hits, and every response line must be identical, volatile headers
//! (cache status, hit/miss/eviction counters, trace echoes) included.

use ndg_exec::Executor;
use ndg_serve::codec::{err_line, Request};
use ndg_serve::{build_workload, canonicalize_request, Router, WorkloadSpec};
use std::sync::Arc;

/// The same request line with its `id=` field moved to the end.
fn id_last(line: &str) -> String {
    let (ids, rest): (Vec<&str>, Vec<&str>) = line.split(';').partition(|f| f.starts_with("id="));
    format!("{};{}", rest.join(";"), ids.join(";"))
}

/// A sequential router under a frozen clock, so `trace=1` echoes are
/// deterministic.
fn router(cache_capacity: usize, canon: bool) -> Router {
    let mut r = Router::with_canon(Executor::sequential(), cache_capacity, canon);
    r.set_clock(Arc::new(ndg_obs::TestClock::new()));
    r
}

/// Feed `lines` to router A as given and to router B with `id=` last,
/// twice over, and require identical response streams, then identical
/// `stats` (which split literal from isomorphism hits).
fn assert_paths_agree(lines: &[String], cache_capacity: usize, canon: bool) {
    let (a, b) = (router(cache_capacity, canon), router(cache_capacity, canon));
    let moved: Vec<String> = lines.iter().map(|l| id_last(l)).collect();
    for pass in 0..2 {
        for (line, moved) in lines.iter().zip(&moved) {
            let (ra, rb) = (a.handle_line(line), b.handle_line(moved));
            assert_eq!(
                ra, rb,
                "pass {pass}, cache {cache_capacity}, canon {canon}: {line}"
            );
        }
    }
    let stats = "ndg1;id=s;method=stats";
    assert_eq!(a.handle_line(stats), b.handle_line(stats));
}

/// `build_workload` lines plus, for every fifth one, its canonical
/// rewrite: a line already in canonical form hits the cache as a literal
/// hit, the relabeled ones as isomorphism hits.
fn workload(seed: u64, isomorphs: usize) -> Vec<String> {
    let mut lines = build_workload(WorkloadSpec {
        requests: 40 * isomorphs,
        distinct: 30,
        seed,
        isomorphs,
    });
    let canonical: Vec<String> = lines
        .iter()
        .step_by(5)
        .map(|l| {
            let c = canonicalize_request(&Request::parse(l).unwrap()).expect("canonicalizes");
            c.req.serialize()
        })
        .collect();
    lines.extend(canonical);
    lines
}

/// Every line re-serialized with one of four volatile headers: none,
/// `deadline_ms=`, `trace=1`, or all three fields.
fn with_headers(lines: &[String], deadline_ms: u64) -> Vec<String> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut req = Request::parse(l).expect("workload lines parse");
            req.deadline_ms = (i % 4 == 1 || i % 4 == 3).then_some(deadline_ms);
            req.trace = i % 4 >= 2;
            req.trace_id = (i % 4 == 3).then_some(i as u64 + 1);
            req.serialize()
        })
        .collect()
}

#[test]
fn workload_streams_answer_alike_on_both_paths() {
    for seed in [1, 2] {
        for isomorphs in [1, 4] {
            let lines = workload(seed, isomorphs);
            let methods: std::collections::BTreeSet<&str> = lines
                .iter()
                .map(|l| Request::parse(l).unwrap().method.as_str())
                .collect();
            assert_eq!(
                methods.into_iter().collect::<Vec<_>>(),
                ["aon", "certify", "dynamics", "enforce", "pos"],
                "seed {seed}: every stateless method is covered"
            );
            assert_paths_agree(&lines, 4096, true);
        }
    }
}

#[test]
fn memo_hits_that_miss_a_small_cache_solve_alike() {
    // About 150 literal bodies in 30 classes against 16 cache entries:
    // A's second pass hits the memo and mostly misses the cache, so it
    // solves from the memo's stored canonical request.
    assert_paths_agree(&workload(1, 4), 16, true);
}

#[test]
fn volatile_headers_answer_alike_on_both_paths() {
    let lines = workload(2, 4);
    assert_paths_agree(&with_headers(&lines, 60_000), 4096, true);
    // An expired deadline fails every solve: cache misses answer
    // `deadline` on both paths, cache hits still answer from the cache.
    assert_paths_agree(&with_headers(&lines, 0), 16, true);
}

#[test]
fn canon_opt_outs_answer_alike_on_both_paths() {
    let lines = workload(1, 4);
    let opted_out: Vec<String> = lines
        .iter()
        .map(|l| {
            let mut req = Request::parse(l).unwrap();
            req.canon = false;
            req.serialize()
        })
        .collect();
    assert!(opted_out[0].contains(";canon=0;"), "{}", opted_out[0]);
    assert_paths_agree(&opted_out, 4096, true);
    // A router with canonicalization off never takes the fast form.
    assert_paths_agree(&lines, 4096, false);
}

#[test]
fn declined_canonicalizations_answer_alike_on_both_paths() {
    // Unmappable attachments: the canonicalizer declines, the memo
    // stores the decline, and the literal pipeline answers (and caches)
    // the validation error.
    let lines: Vec<String> = [
        "ndg1;id=x1;method=certify;tree=90;game=broadcast:2:0:0/1/1",
        "ndg1;id=x2;method=certify;tree=0;b=1,1;game=broadcast:2:0:0/1/1",
        "ndg1;id=x3;method=enforce;solver=lp1;tree=0,7;game=broadcast:3:0:0/1/1,1/2/1,2/0/1",
    ]
    .iter()
    .map(|l| Request::parse(l).unwrap().serialize())
    .collect();
    assert_paths_agree(&lines, 4096, true);
}

#[test]
fn an_invalid_id_on_a_memoized_body_gets_the_parse_error() {
    let lines = workload(1, 1);
    let r = router(4096, true);
    for line in &lines {
        r.handle_line(line);
    }
    // A serialized line's canonical body follows `ndg1;id=…;`.
    let body = lines[0].splitn(3, ';').nth(2).expect("id and body");
    for id in ["b@d", "", &"x".repeat(65)] {
        let line = format!("ndg1;id={id};{body}");
        let parse_err = Request::parse(&line).expect_err("invalid id");
        assert_eq!(r.handle_line(&line), err_line("?", &parse_err), "{line}");
    }
}
