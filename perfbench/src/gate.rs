//! The correctness gate and the exact work counts.
//!
//! Every answer must be `ok`, carry no `resynced=1`, and have the payload an
//! in-process sequential cache-off [`Router`] gives the same request (for
//! sessions: the same lifecycle script). Work counts are `ndg-obs` counter
//! deltas over a fixed-length in-process replay; they must repeat exactly
//! for a seed.

use crate::traffic::{close_line, delta_line, header, Key, Plan, SESSION_DELTAS};
use crate::wire::Arena;
use ndg_exec::Executor;
use ndg_serve::{payload_of, Router};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Reference payloads by key.
pub type Answers = HashMap<Key, String>;

/// A router configured like the benchmarked server (`--threads 1`, every
/// other setting at its default).
pub fn server_like_router() -> Router {
    Router::with_canon(
        Executor::sequential(),
        ndg_serve::router::DEFAULT_CACHE_CAPACITY,
        true,
    )
}

/// The reference payload of every key in `keys`, from a sequential
/// cache-off router. A stateless request is answered once per distinct
/// line; a session script is run once, open to close.
pub fn reference(plan: &Plan, keys: &BTreeSet<Key>) -> Answers {
    let r = Router::with_canon(Executor::sequential(), 0, true);
    let mut out = Answers::new();
    let scripts: BTreeSet<u32> = keys
        .iter()
        .filter_map(|k| match k {
            Key::Op { script, .. } => Some(*script),
            Key::Line(_) => None,
        })
        .collect();
    for k in keys {
        if let Key::Line(i) = *k {
            out.insert(*k, payload_of(&r.handle_line(&plan.lines[i as usize])));
        }
    }
    for script in scripts {
        for (pos, line) in run_script(&r, plan, script as usize)
            .into_iter()
            .enumerate()
        {
            out.insert(
                Key::Op {
                    script,
                    pos: pos as u32,
                },
                payload_of(&line),
            );
        }
    }
    out
}

/// Run one lifecycle script open to close on `r`, returning every answer.
pub fn run_script(r: &Router, plan: &Plan, script: usize) -> Vec<String> {
    let s = &plan.scripts[script];
    let mut answers = vec![r.handle_line(&s.open)];
    let sid = header(&answers[0], "session").unwrap_or("none").to_string();
    let mut epoch = 0u64;
    for (j, op) in s.deltas.iter().enumerate() {
        let a = r.handle_line(&delta_line(j + 1, &sid, epoch, *op));
        epoch = header(&a, "epoch")
            .and_then(|e| e.parse().ok())
            .unwrap_or(epoch);
        answers.push(a);
    }
    debug_assert_eq!(answers.len(), SESSION_DELTAS + 1);
    answers.push(r.handle_line(&close_line(&sid)));
    answers
}

/// Whether one answer passes the gate.
pub fn passes(answer: &str, want: Option<&String>) -> bool {
    answer.starts_with("ok;")
        && !answer.split(';').any(|f| f == "resynced=1")
        && want.is_some_and(|w| payload_of(answer) == *w)
}

/// Sent / succeeded / failed counts of one phase.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Phase name.
    pub phase: &'static str,
    /// Requests sent.
    pub sent: usize,
    /// Answers that passed the gate.
    pub ok: usize,
    /// Answers that failed it.
    pub failed: usize,
    /// The first failing answer, for the log.
    pub first_failure: Option<String>,
}

/// Check every answer of a phase against the reference.
pub fn tally(phase: &'static str, keys: &[Key], arena: &Arena, answers: &Answers) -> Tally {
    let mut t = Tally {
        phase,
        sent: keys.len(),
        ..Tally::default()
    };
    for (i, k) in keys.iter().enumerate() {
        let got = if i < arena.len() { arena.get(i) } else { "" };
        if passes(got, answers.get(k)) {
            t.ok += 1;
        } else {
            t.failed += 1;
            if t.first_failure.is_none() {
                t.first_failure = Some(format!(
                    "{k:?}: got `{}` want payload `{}`",
                    truncate(got),
                    truncate(answers.get(k).map_or("", String::as_str))
                ));
            }
        }
    }
    t
}

fn truncate(s: &str) -> &str {
    let end = (0..=s.len().min(200))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0);
    &s[..end]
}

/// The `ndg-obs` counters recorded as exact work counts.
pub const WORK_COUNTERS: [&str; 24] = [
    "dijkstra_runs_total",
    "dijkstra_relaxations_total",
    "astar_runs_total",
    "astar_relaxations_total",
    "lp_cut_solves_total",
    "lp_cut_rounds_total",
    "lp_cuts_added_total",
    "enum_trees_visited_total",
    "enum_orbit_reps_total",
    "recert_fresh_total",
    "recert_stale_total",
    "cache_ok_hits_total",
    "cache_canon_hits_total",
    "cache_err_hits_total",
    "cache_canon_err_hits_total",
    "cache_misses_total",
    "cache_evictions_total",
    "canon_memo_hits_total",
    "canon_memo_misses_total",
    "serve_deltas_applied",
    "serve_divergence_audits",
    "serve_divergence_audits_failed",
    "serve_session_resyncs",
    "exec_fanouts_total",
];

/// Counter values by name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Current values of [`WORK_COUNTERS`] (0 for a counter never touched).
pub fn read_counts() -> Counts {
    let exposed = ndg_obs::expose();
    let values: HashMap<&str, u64> = exposed
        .split(';')
        .filter_map(|f| f.split_once('='))
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect();
    WORK_COUNTERS
        .iter()
        .map(|&name| (name, values.get(name).copied().unwrap_or(0)))
        .collect()
}

/// `after - before`, per counter.
pub fn delta(before: &Counts, after: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Add `d` into `total`, per counter.
pub fn accumulate(total: &mut Counts, d: &Counts) {
    for (k, v) in d {
        *total.entry(k).or_insert(0) += v;
    }
}

/// Render counts as `name=value` lines.
pub fn render_counts(c: &Counts) -> String {
    c.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Compare `counts` with those an earlier run of the same seed and binary
/// stored at `path`, storing them if none did.
pub fn repeat_check(path: &std::path::Path, counts: &Counts) -> Result<(), String> {
    let earlier = std::fs::read_to_string(path).ok();
    compare_counts(earlier.as_deref(), counts)?;
    if earlier.is_none() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, render_counts(counts)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `Err` with both renderings when `earlier` exists and differs.
pub fn compare_counts(earlier: Option<&str>, counts: &Counts) -> Result<(), String> {
    let now = render_counts(counts);
    match earlier {
        Some(e) if e != now => Err(format!(
            "work counts differ from an earlier run of this seed:\nearlier:\n{e}now:\n{now}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{Workload, LIFECYCLE_OPS};

    #[test]
    fn gate_rejects_errors_resyncs_and_mismatches() {
        let want = "ok;eq=true".to_string();
        assert!(passes(
            "ok;id=a;cache=hit;hits=1;misses=0;evictions=0;eq=true",
            Some(&want)
        ));
        assert!(!passes(
            "ok;id=a;cache=hit;hits=1;misses=0;evictions=0;eq=false",
            Some(&want)
        ));
        assert!(!passes(
            "ok;id=a;session=s1;epoch=1;resynced=1;eq=true",
            Some(&want)
        ));
        assert!(!passes("err;id=a;code=internal;msg=x", Some(&want)));
        assert!(!passes("ok;id=a;eq=true", None));
    }

    #[test]
    fn session_reference_runs_whole_lifecycles() {
        let plan = Plan::build(Workload::SessionChurn, 11);
        let r = Router::with_canon(Executor::sequential(), 0, true);
        let answers = run_script(&r, &plan, 0);
        assert_eq!(answers.len(), LIFECYCLE_OPS);
        for (pos, a) in answers.iter().enumerate() {
            assert!(a.starts_with("ok;"), "op {pos}: {a}");
        }
        assert!(answers[LIFECYCLE_OPS - 1].ends_with("closed=1;deltas=32"));
    }

    #[test]
    fn counts_must_repeat_exactly() {
        let mut c = Counts::new();
        c.insert("dijkstra_runs_total", 5);
        let stored = render_counts(&c);
        assert!(
            compare_counts(None, &c).is_ok(),
            "a first run has nothing to match"
        );
        assert!(compare_counts(Some(&stored), &c).is_ok());
        c.insert("dijkstra_runs_total", 6);
        assert!(
            compare_counts(Some(&stored), &c).is_err(),
            "a changed count fails"
        );
    }

    #[test]
    fn counter_deltas_add_up() {
        let mut before = Counts::new();
        before.insert("a", 3);
        let mut after = Counts::new();
        after.insert("a", 10);
        let d = delta(&before, &after);
        assert_eq!(d["a"], 7);
        let mut total = Counts::new();
        accumulate(&mut total, &d);
        accumulate(&mut total, &d);
        assert_eq!(total["a"], 14);
    }
}
