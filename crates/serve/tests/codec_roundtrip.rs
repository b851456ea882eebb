//! Wire-codec contract: `parse ∘ serialize = id` on random instances, and
//! malformed input always yields a structured error, never a panic.

use ndg_core::{Demands, NetworkDesignGame, Player, SubsidyAssignment};
use ndg_graph::{generators, kruskal, NodeId};
use ndg_serve::codec::{
    fmt_edge_ids, fmt_f64, parse_edge_set, parse_floats, Method, Request, WireGame, WireOrder,
};
use ndg_serve::{build_workload, canonicalize_request, WorkloadSpec};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_broadcast(rng: &mut StdRng) -> NetworkDesignGame {
    let n = rng.random_range(2..20);
    let mut g = generators::random_connected(n, 0.3, rng, 0.0..4.0);
    // Force some zero-weight ("ultra light") edges into the mix.
    if n >= 3 {
        let u = NodeId(rng.random_range(0..n as u32));
        let mut v = NodeId(rng.random_range(0..n as u32));
        if u == v {
            v = NodeId((v.0 + 1) % n as u32);
        }
        g.add_edge(u, v, 0.0).unwrap();
    }
    let root = NodeId(rng.random_range(0..n as u32));
    NetworkDesignGame::broadcast(g, root).unwrap()
}

#[test]
fn broadcast_games_round_trip_bit_exactly() {
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..50 {
        let game = random_broadcast(&mut rng);
        let wire = WireGame::from_game(&game, None);
        let text = wire.serialize();
        let back = WireGame::parse(&text).unwrap();
        assert_eq!(back, wire);
        let (rebuilt, demands) = back.build().unwrap();
        assert!(demands.is_none());
        assert_eq!(rebuilt.root(), game.root());
        assert_eq!(rebuilt.num_players(), game.num_players());
        let g = game.graph();
        let h = rebuilt.graph();
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        for e in g.edge_ids() {
            assert_eq!(h.endpoints(e), g.endpoints(e));
            assert_eq!(
                h.weight(e).to_bits(),
                g.weight(e).to_bits(),
                "weight of {e:?} must round-trip bit-exactly"
            );
        }
    }
}

#[test]
fn weighted_general_games_round_trip() {
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..30 {
        let n = rng.random_range(3..15);
        let g = generators::random_connected(n, 0.4, &mut rng, 0.1..5.0);
        let players: Vec<Player> = (1..n as u32)
            .filter(|_| rng.random_bool(0.7))
            .map(|v| Player {
                source: NodeId(v),
                terminal: NodeId(0),
            })
            .collect();
        if players.is_empty() {
            continue;
        }
        let k = players.len();
        let game = NetworkDesignGame::new(g, players).unwrap();
        let demands =
            Demands::new(&game, (0..k).map(|_| rng.random_range(0.5..4.0)).collect()).unwrap();
        let wire = WireGame::from_game(&game, Some(&demands));
        let back = WireGame::parse(&wire.serialize()).unwrap();
        assert_eq!(back, wire);
        let (rebuilt, d2) = back.build().unwrap();
        let d2 = d2.expect("weighted spec rebuilds demands");
        for i in 0..k {
            assert_eq!(d2.of(i).to_bits(), demands.of(i).to_bits());
        }
        assert_eq!(rebuilt.players(), game.players());
    }
}

#[test]
fn subsidies_and_edge_sets_round_trip() {
    let mut rng = StdRng::seed_from_u64(33);
    for _ in 0..40 {
        let game = random_broadcast(&mut rng);
        let g = game.graph();
        let mut b = SubsidyAssignment::zero(g);
        for e in g.edge_ids() {
            if rng.random_bool(0.4) {
                b.set(g, e, g.weight(e) * rng.random_range(0.0..1.0));
            }
        }
        let text = b
            .as_slice()
            .iter()
            .map(|&x| fmt_f64(x))
            .collect::<Vec<_>>()
            .join(",");
        let parsed = parse_floats("b", &text).unwrap();
        assert_eq!(parsed.len(), b.as_slice().len());
        for (x, y) in parsed.iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let rebuilt = SubsidyAssignment::new(g, parsed).unwrap();
        assert_eq!(rebuilt.as_slice(), b.as_slice());

        let tree = kruskal(g).unwrap();
        let ids = fmt_edge_ids(&tree);
        assert_eq!(parse_edge_set("tree", &ids).unwrap(), tree);
    }
}

#[test]
fn full_requests_round_trip_and_key_ignores_id_only() {
    let mut rng = StdRng::seed_from_u64(34);
    for i in 0..30 {
        let game = random_broadcast(&mut rng);
        let tree = kruskal(game.graph()).unwrap();
        let mut req = Request::new(format!("rt{i}"), Method::Dynamics);
        req.game = Some(WireGame::from_game(&game, None));
        req.tree = Some(tree);
        req.order = Some(match i % 3 {
            0 => WireOrder::RoundRobin,
            1 => WireOrder::MaxGain,
            _ => WireOrder::Random(rng.random_range(0..u64::MAX)),
        });
        req.rounds = Some(rng.random_range(1..100_000));
        let line = req.serialize();
        let back = Request::parse(&line).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.serialize(), line, "canonical form is a fixed point");
        let mut renamed = req.clone();
        renamed.id = "other".into();
        assert_eq!(renamed.cache_key(), req.cache_key());
    }
}

/// The invariant the router's fast form rests on: a serialized request is
/// `ndg1;id=…`, its volatile header, `;`, then its canonical body
/// verbatim, and parsing that line rebuilds the same canonical body,
/// floats included (`fmt_f64` writes the shortest form that parses back
/// to the same bits).
#[test]
fn serialized_lines_are_the_header_then_the_canonical_body() {
    for (seed, isomorphs) in [(1, 1), (2, 4), (9001, 4)] {
        let lines = build_workload(WorkloadSpec {
            requests: 30 * isomorphs,
            distinct: 30,
            seed,
            isomorphs,
        });
        for (i, line) in lines.iter().enumerate() {
            let parsed = Request::parse(line).unwrap();
            let rewrite = canonicalize_request(&parsed).expect("workload instances canonicalize");
            for mut req in [parsed, rewrite.req] {
                req.deadline_ms = (i % 2 == 1).then_some(i as u64);
                req.trace = i % 3 == 1;
                req.trace_id = (i % 5 == 2).then_some(u64::MAX - i as u64);
                let mut header = String::new();
                if let Some(ms) = req.deadline_ms {
                    header.push_str(&format!(";deadline_ms={ms}"));
                }
                if req.trace {
                    header.push_str(";trace=1");
                }
                if let Some(t) = req.trace_id {
                    header.push_str(&format!(";trace_id={t}"));
                }
                let body = req.canonical_body();
                let line = req.serialize();
                assert_eq!(line, format!("ndg1;id={}{header};{body}", req.id));
                assert_eq!(Request::parse(&line).unwrap().canonical_body(), body);
            }
        }
    }
}

/// The malformed-input fuzz table: every row decodes to a structured
/// error with the expected code — and none of them panics.
#[test]
fn malformed_input_fuzz_table() {
    let table: &[(&str, &str)] = &[
        // -- truncated lines ------------------------------------------------
        ("ndg1", "missing_field"),
        ("ndg1;id=a", "missing_field"),
        ("ndg1;id=a;method=enforce", "missing_field"),
        ("ndg1;id=a;method=enforce;tree=0,1,2", "missing_field"),
        ("ndg1;id=a;method=pos;game=broadcast", "truncated"),
        ("ndg1;id=a;method=pos;game=broadcast:4", "truncated"),
        ("ndg1;id=a;method=pos;game=broadcast:4:0", "truncated"),
        ("ndg1;id=a;method=pos;game=broadcast:4:0:0/1", "truncated"),
        ("ndg1;id=a;method=pos;game=general:3:0/1/1", "truncated"),
        (
            "ndg1;id=a;method=pos;game=weighted:3:0/1/1:0/1",
            "truncated",
        ),
        ("ndg1;id=a;method=pos;game=general:3:0/1/1:0", "truncated"),
        ("ndg1;id=a;method=stats;dangling", "bare_field"),
        // -- NaN / infinite / malformed weights ----------------------------
        (
            "ndg1;id=a;method=pos;game=broadcast:2:0:0/1/NaN",
            "bad_float",
        ),
        (
            "ndg1;id=a;method=pos;game=broadcast:2:0:0/1/nan",
            "bad_float",
        ),
        (
            "ndg1;id=a;method=pos;game=broadcast:2:0:0/1/inf",
            "bad_float",
        ),
        (
            "ndg1;id=a;method=pos;game=broadcast:2:0:0/1/-inf",
            "bad_float",
        ),
        (
            "ndg1;id=a;method=pos;game=broadcast:2:0:0/1/1e",
            "bad_float",
        ),
        ("ndg1;id=a;method=pos;game=broadcast:2:0:0/1/", "bad_float"),
        (
            "ndg1;id=a;method=pos;game=weighted:2:0/1/1:0/1:nan",
            "bad_float",
        ),
        (
            "ndg1;id=a;method=certify;tree=0;b=nan;game=broadcast:2:0:0/1/1",
            "bad_float",
        ),
        // -- duplicate edges / fields --------------------------------------
        (
            "ndg1;id=a;method=enforce;tree=0,1,1;game=broadcast:4:0:0/1/1,1/2/1,2/3/1",
            "duplicate_edge",
        ),
        ("ndg1;id=a;id=b;method=stats", "duplicate_field"),
        ("ndg1;id=a;method=stats;method=stats", "duplicate_field"),
        // -- structural garbage --------------------------------------------
        ("", "empty"),
        ("http GET /", "bad_tag"),
        ("ndg2;id=a;method=stats", "bad_tag"),
        ("ndg1;id=émoji;method=stats", "bad_id"),
        ("ndg1;id=a;method=launch", "unknown_method"),
        (
            "ndg1;id=a;method=enforce;solver=gurobi;tree=0;game=broadcast:2:0:0/1/1",
            "unknown_solver",
        ),
        (
            "ndg1;id=a;method=dynamics;order=chaos;tree=0;game=broadcast:2:0:0/1/1",
            "unknown_order",
        ),
        ("ndg1;id=a;method=stats;volume=11", "unknown_field"),
        (
            "ndg1;id=a;method=pos;game=broadcast:4294967296:0:",
            "too_large",
        ),
        ("ndg1;id=a;method=pos;game=broadcast:-4:0:", "bad_int"),
        ("ndg1;id=a;method=pos;game=broadcast:4:x:", "bad_int"),
        // -- semantic rejections (decode fine, build fails) ----------------
        ("ndg1;id=a;method=pos;game=broadcast:4:0:0/1/1", "bad_game"),
        ("ndg1;id=a;method=pos;game=broadcast:2:0:0/0/1", "bad_graph"),
        ("ndg1;id=a;method=pos;game=broadcast:2:0:0/9/1", "bad_graph"),
        (
            "ndg1;id=a;method=pos;game=broadcast:2:0:0/1/-2",
            "bad_graph",
        ),
        ("ndg1;id=a;method=pos;game=general:2:0/1/1:1/1", "bad_game"),
        (
            "ndg1;id=a;method=pos;game=weighted:2:0/1/1:0/1:0",
            "bad_demands",
        ),
        (
            "ndg1;id=a;method=pos;game=weighted:2:0/1/1:0/1:1,1",
            "bad_demands",
        ),
    ];
    let router = ndg_serve::Router::new(ndg_exec::Executor::sequential(), 0);
    for (line, want_code) in table {
        // Layer 1: the decoder (or instance builder) must produce the
        // structured code…
        let got = match Request::parse(line) {
            Err(e) => e.code(),
            Ok(req) => match req.game.as_ref().map(|g| g.build()) {
                Some(Err(e)) => e.code(),
                _ => "parsed_ok",
            },
        };
        assert_eq!(got, *want_code, "line {line:?}");
        // …and layer 2: the full router path answers with an `err` line
        // carrying the same code, never a panic.
        let resp = router.handle_line(line);
        assert!(
            resp.starts_with("err;") && resp.contains(&format!(";code={want_code};")),
            "router response for {line:?}: {resp}"
        );
    }
}

/// Random byte-noise: whatever comes in, the router answers one line and
/// survives.
#[test]
fn random_noise_never_panics() {
    let mut rng = StdRng::seed_from_u64(35);
    let router = ndg_serve::Router::new(ndg_exec::Executor::sequential(), 16);
    let alphabet: Vec<char> = "ndg1;=metho/:,|.0123456789abcxyz- \t".chars().collect();
    for _ in 0..500 {
        let len = rng.random_range(0..120);
        let line: String = (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect();
        let resp = router.handle_line(&line);
        assert!(
            resp.starts_with("ok;") || resp.starts_with("err;"),
            "noise {line:?} → {resp:?}"
        );
        assert!(!resp.contains('\n'));
    }
    // Mutations of a valid line: flip one character everywhere.
    let valid = "ndg1;id=a;method=certify;tree=0,1,2;game=broadcast:4:0:0/1/1,1/2/1,2/3/1,3/0/1";
    for i in 0..valid.len() {
        for c in ['x', ';', '/', ':', ','] {
            let mut s: Vec<char> = valid.chars().collect();
            s[i] = c;
            let line: String = s.into_iter().collect();
            let resp = router.handle_line(&line);
            assert!(
                resp.starts_with("ok;") || resp.starts_with("err;"),
                "{line:?}"
            );
        }
    }
}
