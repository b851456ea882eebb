//! The `metrics` method over the process-global `ndg_obs` registry.
//!
//! This file must hold exactly one test. The registry is one set of
//! statics per process, and this test asserts exact values
//! (`serve_sessions_open=1`, `serve_deltas_applied=2`, …) after installing
//! it. Any other test running in the same process that opens a session or
//! applies a delta bumps the same counters and breaks those values; as the
//! only test of its own integration-test binary, it has the process to
//! itself.

use ndg_exec::Executor;
use ndg_serve::{payload_of, Router};

fn cycle_game_spec(n: usize) -> String {
    // Unit cycle rooted at 0 with the path tree 0..n-1.
    let edges: Vec<String> = (0..n).map(|i| format!("{i}/{}/1", (i + 1) % n)).collect();
    format!("broadcast:{n}:0:{}", edges.join(","))
}

fn tree_ids(n: usize) -> String {
    (0..n - 1)
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn metrics_method_exposes_registry_counters_once_installed() {
    let mut r = Router::new(Executor::sequential(), 64);
    let resp = r.handle_line("ndg1;id=m;method=metrics");
    assert!(resp.starts_with("ok;id=m;cache=off;"), "{resp}");
    // Sole install site in this test binary (the registry is
    // process-global; concurrent tests must not toggle it).
    ndg_obs::install();
    let line = format!(
        "ndg1;id=d;method=dynamics;tree={};game={}",
        tree_ids(6),
        cycle_game_spec(6)
    );
    let _ = r.handle_line(&line);
    let _ = r.handle_line(&line);
    // Session traffic so the session gauge/counters register too:
    // one open, two deltas (audit_every=2 fires once and replays both),
    // one resync (an empty window after the audit's checkpoint).
    r.set_session_config(ndg_serve::SessionConfig {
        audit_every: 2,
        max_sessions: 8,
    });
    let open = r.handle_line(&format!(
        "ndg1;id=so;method=open;tree={};game={}",
        tree_ids(5),
        cycle_game_spec(5)
    ));
    let sid = open
        .split(';')
        .find_map(|f| f.strip_prefix("session="))
        .unwrap()
        .to_string();
    for epoch in 0..2 {
        let resp = r.handle_line(&format!(
            "ndg1;id=sd{epoch};method=delta;session={sid};epoch={epoch};\
             delta=patch;edge=4;w={}",
            epoch + 1
        ));
        assert!(resp.starts_with("ok;"), "{resp}");
    }
    let _ = r.handle_line(&format!("ndg1;id=sr;method=resync;session={sid}"));
    let resp = r.handle_line("ndg1;id=m2;method=metrics");
    let payload = payload_of(&resp);
    assert!(payload.starts_with("ok;enabled=1;"), "{payload}");
    for field in [
        ";serve_requests_total=",
        ";serve_request_us_count=",
        ";serve_request_us_p50=",
        ";serve_solve_us_count=",
        ";cache_misses_total=",
        ";canon_memo_hits_total=",
        ";serve_sessions_open=1;",
        ";serve_deltas_applied=2;",
        ";serve_session_resyncs=1;",
        ";serve_divergence_audits=1;",
        ";serve_divergence_audits_failed=0;",
        ";serve_session_replayed_solves=2;",
    ] {
        assert!(payload.contains(field), "missing {field}: {payload}");
    }
    // Exposition is a volatile-free payload: replaying the request id
    // changes nothing but the id.
    let again = r.handle_line("ndg1;id=m3;method=metrics");
    assert!(again.starts_with("ok;id=m3;cache=off;"), "{again}");
}
