//! The serving determinism contract, in-repo: concurrent batched handling
//! must produce payloads byte-identical to sequential per-line handling,
//! for every thread count, with cache on or off — and the TCP front end
//! must preserve it end to end, with canonicalization on or off and under
//! every observability surface (stage tracing, the metrics registry, the
//! slow ring, the flight recorder and its sampled log sink).

use ndg_exec::Executor;
use ndg_serve::codec::{fmt_f64, Method, Request, Solver};
use ndg_serve::{build_workload, payload_of, spawn_tcp_with, Router, TcpOptions, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const SPEC: WorkloadSpec = WorkloadSpec {
    requests: 48,
    distinct: 8,
    seed: 0xC0,
    // Half the distinct bodies are relabeled duplicates: the contract is
    // asserted against the canonicalize→solve→map-back pipeline too.
    isomorphs: 2,
};

/// The TCP contract's workload: 200 requests over 30 base bodies, each
/// also sent under a second relabeling, so the byte-identity check covers
/// the canonicalize→solve→map-back pipeline (and, with canonicalization
/// off, literal handling of relabeled inputs).
const TCP_SPEC: WorkloadSpec = WorkloadSpec {
    requests: 200,
    distinct: 30,
    seed: 0xE12,
    isomorphs: 2,
};

/// Client connections the TCP contract drives concurrently.
const CONNECTIONS: usize = 4;

/// Lines per client batch (a blank line flushes each batch).
const BATCH: usize = 16;

/// Payloads of a fresh sequential cache-off router, in line order: every
/// payload really is a fresh solver call.
fn reference_payloads(lines: &[String], canon: bool) -> Vec<String> {
    let r = Router::with_canon(Executor::sequential(), 0, canon);
    lines
        .iter()
        .map(|l| payload_of(&r.handle_line(l)))
        .collect()
}

/// Re-emit `lines` with `trace=1` set on each request. Trace is a
/// volatile field — the traced stream keys, caches, and answers exactly
/// like the original, with per-stage timings spliced into each response
/// header — so a traced run can diff payloads against an untraced
/// reference.
fn with_trace(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let mut req = Request::parse(l).expect("workload lines parse");
            req.trace = true;
            req.serialize()
        })
        .collect()
}

#[test]
fn with_trace_flips_only_the_volatile_flag() {
    let lines = build_workload(WorkloadSpec {
        requests: 20,
        distinct: 20,
        seed: 3,
        isomorphs: 1,
    });
    let traced = with_trace(&lines);
    assert_eq!(lines.len(), traced.len());
    for (plain, traced) in lines.iter().zip(&traced) {
        let a = Request::parse(plain).unwrap();
        let b = Request::parse(traced).unwrap();
        assert!(!a.trace && b.trace);
        assert!(traced.contains(";trace=1"), "{traced}");
        // Volatile: same canonical body, same cache key.
        assert_eq!(a.canonical_body(), b.canonical_body());
        assert_eq!(a.cache_key(), b.cache_key());
    }
}

#[test]
fn batched_payloads_match_sequential_at_threads_1_4_8() {
    let lines = build_workload(SPEC);
    let want = reference_payloads(&lines, true);
    for threads in [1usize, 4, 8] {
        for cache in [0usize, 1024] {
            let r = Router::new(Executor::new(threads), cache);
            // Two passes: the second is served (partly) from cache and
            // must replay the exact same payloads.
            for pass in 0..2 {
                let got: Vec<String> = r
                    .handle_batch(&lines)
                    .iter()
                    .map(|l| payload_of(l))
                    .collect();
                assert_eq!(got, want, "threads={threads} cache={cache} pass={pass}");
            }
        }
    }
}

/// One serving configuration of the TCP contract.
#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    canon: bool,
    /// Send every line with `trace=1`, install the `ndg_obs` registry and
    /// arm the slow ring at 0 ms.
    traced: bool,
    /// Install a flight recorder logging every Nth wide event.
    recorder_sample: Option<u64>,
    /// Attach a discarding jsonl sink to the recorder.
    sink: bool,
}

/// Serve `lines` over TCP from [`CONNECTIONS`] concurrent clients in
/// [`BATCH`]-line batches and diff every payload, by id, against a
/// sequential cache-off router; then check the cache hit, and that the
/// `health` and `events` endpoints answer.
fn tcp_contract(lines: &[String], v: &Variant) {
    let name = v.name;
    let mut want: Vec<(String, String)> = lines
        .iter()
        .map(|l| Request::parse(l).unwrap().id)
        .zip(reference_payloads(lines, v.canon))
        .collect();
    let server_lines = if v.traced {
        with_trace(lines)
    } else {
        lines.to_vec()
    };

    let mut server = Router::with_canon(Executor::from_env(), 4096, v.canon);
    if v.traced {
        ndg_obs::install();
        server.set_log_slow_ms(Some(0));
    }
    if let Some(every) = v.recorder_sample {
        let rec = Arc::new(ndg_obs::events::Recorder::with_wall_clock());
        rec.set_sample_every(every);
        if v.sink {
            rec.set_sink(Box::new(std::io::sink()));
        }
        server.set_recorder(Some(rec));
    }
    let router = Arc::new(server);
    let handle = spawn_tcp_with(router.clone(), "127.0.0.1:0", TcpOptions::default()).unwrap();
    let addr = handle.addr();
    let mut got: Vec<(String, String)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let lines = &server_lines;
                s.spawn(move || {
                    let mine: Vec<&String> = lines.iter().skip(c).step_by(CONNECTIONS).collect();
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    let mut out = Vec::with_capacity(mine.len());
                    for batch in mine.chunks(BATCH) {
                        let mut buf = String::new();
                        for l in batch {
                            buf.push_str(l);
                            buf.push('\n');
                        }
                        buf.push('\n');
                        conn.write_all(buf.as_bytes()).unwrap();
                        for _ in batch {
                            let mut resp = String::new();
                            reader.read_line(&mut resp).unwrap();
                            let resp = resp.trim_end();
                            assert!(
                                !v.traced || resp.contains(";trace="),
                                "{name}: traced request answered without a trace echo: {resp}"
                            );
                            let id = resp
                                .split(';')
                                .find_map(|f| f.strip_prefix("id="))
                                .unwrap()
                                .to_string();
                            out.push((id, payload_of(resp)));
                        }
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // The introspection endpoints answer with or without a recorder; with
    // one, the ring must have seen the load.
    let health = router.handle_line("ndg1;id=st-h;method=health");
    let events = router.handle_line("ndg1;id=st-e;method=events");
    handle.stop();
    assert!(health.contains(";status="), "{name}: {health}");
    assert!(events.contains(";recorder="), "{name}: {events}");
    assert!(
        v.recorder_sample.is_none() || !events.contains(";events=0"),
        "{name}: recorder installed but no wide events retained: {events}"
    );

    got.sort();
    want.sort();
    assert_eq!(got.len(), want.len(), "{name}: response count");
    for ((gid, gp), (wid, wp)) in got.iter().zip(&want) {
        assert_eq!(gid, wid, "{name}: answered ids differ from the sent ids");
        assert_eq!(
            gp, wp,
            "{name}: response for {wid} diverged from the sequential reference"
        );
    }
    // Repeated bodies must have landed in the cache.
    let stats = router.cache_stats();
    assert!(
        stats.hits > 0,
        "{name}: repeated bodies produced no cache hits: {stats:?}"
    );
}

#[test]
fn tcp_concurrent_clients_match_sequential_reference() {
    let lines = build_workload(TCP_SPEC);
    let plain = Variant {
        name: "canon",
        canon: true,
        traced: false,
        recorder_sample: None,
        sink: false,
    };
    // The registry stays installed once the traced variant installs it
    // (it is process-global), so the variants that run without it come
    // first.
    for v in [
        plain,
        Variant {
            name: "canon-off",
            canon: false,
            ..plain
        },
        Variant {
            name: "recorder",
            recorder_sample: Some(1),
            ..plain
        },
        Variant {
            name: "traced",
            traced: true,
            ..plain
        },
        Variant {
            name: "recorder-sampled-sink",
            recorder_sample: Some(3),
            sink: true,
            ..plain
        },
    ] {
        tcp_contract(&lines, &v);
    }
}

/// Re-derive payloads straight from the solver library (no router in the
/// loop) for the first eight workload lines that are Theorem 6
/// enforcements or unsubsidized certifications, and compare them with the
/// sequential router's. In canon mode the library is driven through the
/// same canonicalize→solve→map-back pipeline the router specifies,
/// anchoring the relabeling machinery itself, bit for bit, against direct
/// calls. Returns how many lines were compared.
fn direct_library_check(lines: &[String], expected: &[String], canon: bool) -> usize {
    let mut checked = 0usize;
    for (line, want) in lines.iter().zip(expected) {
        if checked >= 8 {
            break;
        }
        let req = Request::parse(line).unwrap();
        // Solve in canonical space when that is what the router does,
        // mapping the payload back below.
        let (solve_req, map) = match canon.then(|| ndg_serve::canonicalize_request(&req)) {
            Some(Some(c)) => (c.req, Some(c.map)),
            _ => (req.clone(), None),
        };
        let Some(game_spec) = solve_req.game.as_ref() else {
            continue;
        };
        let (game, demands) = game_spec
            .build()
            .unwrap_or_else(|e| panic!("workload game failed to build for {}: {e:?}", req.id));
        if demands.is_some() {
            continue;
        }
        let payload = match (solve_req.method, solve_req.solver) {
            (Method::Enforce, Some(Solver::T6)) => {
                let Some(tree) = solve_req.tree.as_ref() else {
                    continue;
                };
                let sol = ndg_sne::theorem6::enforce(&game, tree)
                    .unwrap_or_else(|e| panic!("t6 enforce failed for {}: {e:?}", req.id));
                let b: Vec<String> = sol
                    .subsidies
                    .as_slice()
                    .iter()
                    .map(|&x| fmt_f64(x))
                    .collect();
                format!("ok;cost={};b={}", fmt_f64(sol.cost), b.join(","))
            }
            (Method::Certify, _) if solve_req.subsidy.is_none() => {
                let (Some(root), Some(tree)) = (game.root(), solve_req.tree.as_ref()) else {
                    continue;
                };
                let rt = ndg_graph::RootedTree::new(game.graph(), tree, root).unwrap_or_else(|e| {
                    panic!("workload tree does not span for {}: {e:?}", req.id)
                });
                let b = ndg_core::SubsidyAssignment::zero(game.graph());
                if ndg_core::is_tree_equilibrium(&game, &rt, &b) {
                    "ok;eq=true".to_string()
                } else {
                    // The full witness line needs the router's pricing;
                    // only the verdict prefix is anchored here.
                    String::new()
                }
            }
            _ => continue,
        };
        if payload.is_empty() {
            assert!(
                want.starts_with("ok;eq=false"),
                "{}: library says not an equilibrium, router says {want}",
                req.id
            );
        } else {
            let payload = match &map {
                Some(m) => ndg_serve::unapply_payload(req.method, m, &payload),
                None => payload,
            };
            assert_eq!(&payload, want, "{}: library vs router payload", req.id);
        }
        checked += 1;
    }
    checked
}

#[test]
fn router_payloads_match_direct_library_calls() {
    let lines = build_workload(TCP_SPEC);
    for canon in [true, false] {
        let checked = direct_library_check(&lines, &reference_payloads(&lines, canon), canon);
        assert_eq!(checked, 8, "canon={canon}: too few lines to anchor");
    }
}
