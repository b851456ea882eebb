//! E16 — delta sessions: incremental serving vs cold re-solves.
//!
//! Drives seeded patch sequences through an `ndg-serve` delta session and
//! prices the three costs the session machinery trades between:
//!
//! 1. **warm deltas** — `method=delta` answers where the engine starts
//!    from the previous converged state (journal append + incremental
//!    solve + response);
//! 2. **cold re-solves** — the same patched instances solved from scratch
//!    through a fresh cache-off sequential router, replaying the literal
//!    `session_cold_line` the server synthesizes (the *specification* of
//!    every session answer);
//! 3. **resync** — one replay of the journal window since the latest
//!    checkpoint, the recovery cost after a fault. Audits are off in the
//!    warm pass, so the checkpoint is still the `open` view and the timed
//!    resync replays every delta; its replay then becomes the checkpoint.
//!
//! Three families: a 24-node broadcast cycle and a 12-node general game
//! under weight patches, and `random_128`, a 128-node random broadcast
//! instance (the shape of perfbench's `session_churn`) whose stream also
//! fails one edge in eight. The table's `zero-mv` column is the share of
//! warm deltas answered with `moves=0`; on the broadcast families those
//! are the steps whose start the Lemma-2 certifier proves an equilibrium
//! before any move engine is built.
//!
//! The gates, asserted on every family at full and smoke scale:
//!
//! * every warm session payload is **byte-identical** to its cold
//!   re-solve;
//! * `random_128`'s first [`SMOKE_DELTAS`] warm payloads hash to a
//!   pinned FNV-1a digest, recorded from the engine before its
//!   certify-first steps, so its answers stay those bytes;
//! * the timed resync replays exactly one step per delta, and a second
//!   resync answers the same bytes from an empty window;
//! * an audited pass (the same stream, audit every 8th delta) answers the
//!   same bytes, and each of its audits replays exactly the 8 ops since
//!   the previous checkpoint — `serve_session_replayed_solves`, read
//!   through `method=metrics`, rises by `audits × 8`.
//!
//! Timing is reported, not gated — on a 1-core container the interesting
//! ratio is warm-vs-cold work per delta, which survives the hardware.
//!
//! Results are spliced into `BENCH_serve.json` under `"e16_sessions"`
//! (every other section is kept byte for byte); `--smoke` shrinks the
//! delta count, keeps the byte-identity gate, and skips the baseline
//! write.
//!
//! `--check` runs the full families and compares each row with the
//! pinned `e16_sessions` row instead of rewriting it. `deltas`,
//! `replayed_solves_per_delta` and `zero_move_share` are pure functions
//! of the streams and the engine, so they must match the pin exactly
//! (hard gates, exit 1). The wall-clock fields drift with the host and
//! only warn outside a 4× band.

use ndg_bench::{header, row};
use ndg_core::NetworkDesignGame;
use ndg_exec::Executor;
use ndg_graph::{generators, kruskal, NodeId, UnionFind};
use ndg_serve::codec::fnv1a64;
use ndg_serve::{payload_of, DeltaOp, Method, Request, Router, SessionConfig, WireGame};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The audited pass's cadence.
const AUDIT_EVERY: u64 = 8;

/// Deltas per family under `--smoke` (64 at full scale).
const SMOKE_DELTAS: usize = 12;

/// `random_128` fails one edge in this many deltas.
const FAIL_EVERY: usize = 8;

/// FNV-1a of `random_128`'s first [`SMOKE_DELTAS`] warm payloads, each
/// followed by a newline, as the engine answered them before session
/// steps certified their start first.
const RANDOM_128_DIGEST: u64 = 0x76ba_ff1e_a926_1b9f;

/// One family: its `open` line and the delta stream both passes send.
struct Family {
    id: &'static str,
    open: String,
    ops: Vec<DeltaOp>,
}

struct FamilyResult {
    id: &'static str,
    deltas: usize,
    warm_ms: f64,
    cold_ms: f64,
    resync_ms: f64,
    /// Steps the audited pass's audits replayed.
    replayed: u64,
    /// Share of warm deltas answered with `moves=0`.
    zero_move_share: f64,
}

impl FamilyResult {
    /// The row's fields after its id, formatted as the baseline pins
    /// them: `(name, value, hard gate)`. Deterministic fields are hard
    /// gates under `--check`; wall-clock fields are not.
    fn fields(&self) -> [(&'static str, String, bool); 7] {
        let deltas = self.deltas as f64;
        [
            ("deltas", self.deltas.to_string(), true),
            (
                "warm_deltas_per_s",
                format!("{:.0}", deltas / (self.warm_ms / 1e3)),
                false,
            ),
            (
                "cold_solves_per_s",
                format!("{:.0}", deltas / (self.cold_ms / 1e3)),
                false,
            ),
            (
                "cold_over_warm",
                format!("{:.2}", self.cold_ms / self.warm_ms),
                false,
            ),
            ("resync_ms", format!("{:.2}", self.resync_ms), false),
            (
                "replayed_solves_per_delta",
                format!("{:.2}", self.replayed as f64 / deltas),
                true,
            ),
            (
                "zero_move_share",
                format!("{:.2}", self.zero_move_share),
                true,
            ),
        ]
    }
}

/// The pinned `families` row of family `id` (rows are flat objects).
fn pinned_row<'t>(families: &'t str, id: &str) -> Option<&'t str> {
    let want = format!("\"{id}\"");
    families.match_indices('{').find_map(|(i, _)| {
        let row = &families[i..=i + families[i..].find('}')?];
        (ndg_bench::bench_entry(row, "id") == Some(want.as_str())).then_some(row)
    })
}

/// `--check`: compare every family's row with the pinned one. Returns
/// whether every hard gate held; wall-clock drift only prints `WARN:`.
fn check_against_pin(path: &str, results: &[FamilyResult]) -> bool {
    const WARN_BAND: f64 = 4.0;
    let pinned = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("exp_e16 --check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let families = ndg_bench::bench_entry(&pinned, "e16_sessions")
        .and_then(|e| ndg_bench::bench_entry(e, "families"));
    let mut ok = true;
    for r in results {
        let Some(row) = families.and_then(|f| pinned_row(f, r.id)) else {
            eprintln!("exp_e16 --check: no pinned e16_sessions row for {}", r.id);
            ok = false;
            continue;
        };
        for (name, fresh, hard) in r.fields() {
            let pin = ndg_bench::bench_entry(row, name);
            if hard {
                if pin != Some(fresh.as_str()) {
                    eprintln!(
                        "exp_e16 --check: {} {name} {fresh} != pinned {} \
                         (deterministic field, hard gate)",
                        r.id,
                        pin.unwrap_or("(missing)")
                    );
                    ok = false;
                }
                continue;
            }
            let fresh: f64 = fresh.parse().expect("formatted number");
            match pin.and_then(|v| v.parse::<f64>().ok()) {
                None => {
                    eprintln!("exp_e16 --check: {} `{name}` missing from {path}", r.id);
                    ok = false;
                }
                Some(p) if fresh > p * WARN_BAND || fresh < p / WARN_BAND => println!(
                    "WARN: {} {name} {fresh} vs pinned {p} — outside the {WARN_BAND}x \
                     band; wall-clock drift is warn-only",
                    r.id
                ),
                Some(_) => {}
            }
        }
    }
    ok
}

/// A weight patch of one of `edges` edges.
fn patch(edges: usize, rng: &mut StdRng) -> DeltaOp {
    DeltaOp::Patch {
        edge: rng.random_range(0..edges) as u32,
        w: rng.random_range(1..=8u32) as f64 / 4.0,
    }
}

/// `random_connected(128, 0.4)` as a broadcast game opened at its MST,
/// then `deltas` weight patches with every [`FAIL_EVERY`]th delta a fail
/// of an edge whose removal keeps the graph connected. Its own seed, so a
/// smoke stream is a prefix of the full one.
fn random_128(deltas: usize) -> Family {
    const N: usize = 128;
    let mut rng = StdRng::seed_from_u64(0xE16_0128);
    let g = generators::random_connected(N, 0.4, &mut rng, 0.2..4.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("generator output is connected");
    let mut edges: Vec<(usize, usize)> = game
        .graph()
        .edges()
        .map(|(_, e)| (e.u.index(), e.v.index()))
        .collect();
    let connected_without = |edges: &[(usize, usize)], skip: usize| {
        let mut uf = UnionFind::new(N);
        for (i, &(u, v)) in edges.iter().enumerate() {
            if i != skip {
                uf.union(u, v);
            }
        }
        uf.set_count() == 1
    };
    let mut open = Request::new("o", Method::Open);
    open.tree = Some(kruskal(game.graph()).expect("connected"));
    open.game = Some(WireGame::from_game(&game, None));
    let ops = (0..deltas)
        .map(|k| {
            if k % FAIL_EVERY == FAIL_EVERY - 1 {
                let edge = loop {
                    let e = rng.random_range(0..edges.len());
                    if connected_without(&edges, e) {
                        break e;
                    }
                };
                edges.remove(edge);
                DeltaOp::Fail { edge: edge as u32 }
            } else {
                patch(edges.len(), &mut rng)
            }
        })
        .collect();
    Family {
        id: "random_128",
        open: open.serialize(),
        ops,
    }
}

/// A session router: sequential, result cache on, auditing every
/// `audit_every`th delta (0: off — the warm timing runs without audits,
/// so it prices deltas alone).
fn session_router(audit_every: u64) -> Router {
    let mut r = Router::with_canon(Executor::sequential(), 64, true);
    r.set_session_config(SessionConfig {
        audit_every,
        max_sessions: 8,
    });
    r
}

/// Open the family's session on `router`; returns its id.
fn open_session(router: &Router, id: &str, open_line: &str) -> String {
    let open = router.handle_line(open_line);
    assert!(open.starts_with("ok;"), "{id}: open failed: {open}");
    open.split(';')
        .find_map(|f| f.strip_prefix("session="))
        .expect("open carries a session id")
        .to_string()
}

/// `serve_session_replayed_solves` as `method=metrics` exposes it (0
/// until a replayed step registers it).
fn replayed_solves(router: &Router) -> u64 {
    let metrics = router.handle_line("ndg1;id=m;method=metrics");
    metrics
        .split(';')
        .find_map(|f| f.strip_prefix("serve_session_replayed_solves="))
        .map_or(0, |v| v.parse().expect("counter value"))
}

fn run_family(family: &Family) -> FamilyResult {
    let (id, open_line, ops) = (family.id, family.open.as_str(), &family.ops);
    let deltas = ops.len();
    let delta_line = |sid: &str, k: usize| {
        let fields = ops[k].serialize_fields();
        format!("ndg1;id=d{k};method=delta;session={sid};epoch={k};{fields}")
    };
    let router = session_router(0);
    let sid = open_session(&router, id, open_line);

    // Warm pass: session deltas, capturing the synthesized cold request
    // after each commit. Only each delta's `handle_line` is timed: the
    // cold line is formatted outside the clock.
    let mut warm_payloads = Vec::with_capacity(deltas);
    let mut cold_lines = Vec::with_capacity(deltas);
    let mut warm = Duration::ZERO;
    for k in 0..deltas {
        let line = delta_line(&sid, k);
        let t0 = Instant::now();
        let resp = router.handle_line(&line);
        warm += t0.elapsed();
        assert!(resp.starts_with("ok;"), "{id}: delta {k} failed: {resp}");
        warm_payloads.push(payload_of(&resp));
        cold_lines.push(router.session_cold_line(&sid).expect("session stays open"));
    }
    let warm_ms = warm.as_secs_f64() * 1e3;
    if id == "random_128" {
        let digest = fnv1a64(
            warm_payloads[..SMOKE_DELTAS]
                .iter()
                .flat_map(|p| [p.as_str(), "\n"])
                .collect::<String>()
                .as_bytes(),
        );
        assert_eq!(
            digest, RANDOM_128_DIGEST,
            "{id}: the first {SMOKE_DELTAS} warm payloads changed (digest {digest:#018x})"
        );
    }
    let zero_moves = warm_payloads
        .iter()
        .filter(|p| p.split(';').any(|f| f == "moves=0"))
        .count();

    // Cold pass: the specification — every patched instance solved from
    // scratch, sequential, cache off.
    let cold_router = Router::with_canon(Executor::sequential(), 0, false);
    let t0 = Instant::now();
    let cold_payloads: Vec<String> = cold_lines
        .iter()
        .map(|l| payload_of(&cold_router.handle_line(l)))
        .collect();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (k, (warm, cold)) in warm_payloads.iter().zip(&cold_payloads).enumerate() {
        assert_eq!(
            warm, cold,
            "{id}: warm delta {k} diverged from its cold re-solve"
        );
    }

    // Resync: the first replays the whole window (no audit has moved the
    // checkpoint off the `open` view) and is the one timed; its replay is
    // the new checkpoint, so the second replays an empty window.
    let before = replayed_solves(&router);
    let mut resync_ms = 0.0;
    for i in 0..2 {
        let t0 = Instant::now();
        let rs = router.handle_line(&format!("ndg1;id=rs{i};method=resync;session={sid}"));
        if i == 0 {
            resync_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        assert!(rs.contains(";resynced=1;"), "{id}: resync {i} failed: {rs}");
        assert_eq!(
            payload_of(&rs),
            warm_payloads[deltas - 1],
            "{id}: resync {i} diverged from the committed view"
        );
        assert_eq!(
            replayed_solves(&router) - before,
            deltas as u64,
            "{id}: resync {i} replayed the wrong window"
        );
    }

    // Audited pass: the same stream with audits on. Every answer is the
    // specification's, no audit fails, and each audit replays only the
    // ops since the previous one's checkpoint.
    let audited = session_router(AUDIT_EVERY);
    let asid = open_session(&audited, id, open_line);
    let before = replayed_solves(&audited);
    for (k, cold) in cold_payloads.iter().enumerate() {
        let resp = audited.handle_line(&delta_line(&asid, k));
        assert!(
            resp.starts_with("ok;") && !resp.contains(";resynced=1;"),
            "{id}: audited delta {k} failed or resynced: {resp}"
        );
        assert_eq!(
            &payload_of(&resp),
            cold,
            "{id}: audited delta {k} diverged from its cold re-solve"
        );
    }
    let replayed = replayed_solves(&audited) - before;
    let audits = deltas as u64 / AUDIT_EVERY;
    assert_eq!(
        replayed,
        audits * AUDIT_EVERY,
        "{id}: {audits} audits must each replay the {AUDIT_EVERY} ops since the last checkpoint"
    );
    FamilyResult {
        id,
        deltas,
        warm_ms,
        cold_ms,
        resync_ms,
        replayed,
        zero_move_share: zero_moves as f64 / deltas as f64,
    }
}

fn main() {
    let (mut smoke, mut check) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            _ => {
                eprintln!("usage: exp_e16 [--smoke | --check]");
                std::process::exit(2);
            }
        }
    }
    if smoke && check {
        // The pin was measured at full size.
        eprintln!("exp_e16: --check and --smoke are mutually exclusive");
        std::process::exit(2);
    }
    let deltas = if smoke { SMOKE_DELTAS } else { 64 };
    // The replay gates read the process-wide registry.
    ndg_obs::install();
    println!(
        "E16: delta sessions — warm deltas vs cold re-solves ({deltas} deltas per family{})",
        if smoke { ", smoke" } else { "" }
    );

    let cycle24: String = {
        let edges: Vec<String> = (0..24).map(|i| format!("{i}/{}/1", (i + 1) % 24)).collect();
        format!(
            "ndg1;id=o;method=open;tree={};game=broadcast:24:0:{}",
            (0..23).map(|i| i.to_string()).collect::<Vec<_>>().join(","),
            edges.join(",")
        )
    };
    let general12: String = {
        // A 12-ring with chords and three players: the general-game base.
        let mut edges: Vec<String> = (0..12).map(|i| format!("{i}/{}/1", (i + 1) % 12)).collect();
        edges.extend(["0/6/2.5", "3/9/2.5", "1/7/3.5"].map(String::from));
        format!(
            "ndg1;id=o;method=open;tree={};game=general:12:{}:0/6,2/9,4/11",
            (0..11).map(|i| i.to_string()).collect::<Vec<_>>().join(","),
            edges.join(",")
        )
    };
    let mut rng = StdRng::seed_from_u64(0xE16);
    let families = [
        Family {
            id: "cycle_24",
            open: cycle24,
            ops: (0..deltas).map(|_| patch(24, &mut rng)).collect(),
        },
        Family {
            id: "general_12",
            open: general12,
            ops: (0..deltas).map(|_| patch(15, &mut rng)).collect(),
        },
        random_128(deltas),
    ];

    let widths = [10, 7, 11, 11, 8, 10, 9, 8];
    println!(
        "{}",
        header(
            &[
                "family",
                "deltas",
                "warm-d/s",
                "cold-s/s",
                "ratio",
                "resync-ms",
                "replay/d",
                "zero-mv"
            ],
            &widths
        )
    );
    let mut results = Vec::new();
    for family in &families {
        let r = run_family(family);
        println!(
            "{}",
            row(
                &[
                    r.id.to_string(),
                    r.deltas.to_string(),
                    format!("{:.0}", r.deltas as f64 / (r.warm_ms / 1e3)),
                    format!("{:.0}", r.deltas as f64 / (r.cold_ms / 1e3)),
                    format!("{:.2}x", r.cold_ms / r.warm_ms),
                    format!("{:.2}", r.resync_ms),
                    format!("{:.2}", r.replayed as f64 / r.deltas as f64),
                    format!("{:.2}", r.zero_move_share),
                ],
                &widths
            )
        );
        results.push(r);
    }
    println!(
        "OK: every warm and audited session payload byte-identical to its cold \
         re-solve ({} deltas x {} families), random_128's first {SMOKE_DELTAS} \
         as pinned; a resync replays the window since the latest checkpoint, \
         each audit the {AUDIT_EVERY} ops since the last",
        deltas,
        results.len()
    );

    if smoke {
        println!("smoke mode: skipping BENCH_serve.json write");
        return;
    }
    let path = "BENCH_serve.json";
    if check {
        if !check_against_pin(path, &results) {
            std::process::exit(1);
        }
        println!(
            "OK: --check against {path} — deterministic fields match the pin; \
             wall-clock fields within the warn band or warned above"
        );
        return;
    }
    let section = {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(
            "    \"note\": \"Delta sessions: seeded patch sequences through method=delta \
             (warm: each step starts from the previous converged state; only each delta's \
             handle_line call is timed) vs cold re-solves of the synthesized per-epoch \
             instances (the byte-identity specification, asserted on every delta). \
             resync_ms is one replay of the journal window since the latest checkpoint; \
             with audits off that window is every delta since open. \
             replayed_solves_per_delta counts the steps the audits of a second pass \
             (audit every 8th delta) replayed: each audit replays only the ops since \
             the previous checkpoint. zero_move_share is the share of warm deltas \
             answered with moves=0. random_128 is a 128-node random broadcast \
             instance whose stream fails one edge in eight. Sequential executor; the \
             warm/cold work ratio is the portable part.\",\n",
        );
        s.push_str("    \"families\": [\n");
        for (i, r) in results.iter().enumerate() {
            let fields: Vec<String> = r
                .fields()
                .iter()
                .map(|(name, value, _)| format!("\"{name}\": {value}"))
                .collect();
            s.push_str(&format!(
                "      {{ \"id\": \"{}\", {} }}{}\n",
                r.id,
                fields.join(", "),
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }");
        s
    };
    let old = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let merged = ndg_bench::splice_bench_section(&old, "e16_sessions", &section);
    match std::fs::File::create(path).and_then(|mut f| f.write_all(merged.as_bytes())) {
        Ok(()) => println!("wrote {path} (e16_sessions section)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
