//! `ndg-exec` — deterministic work distribution over scoped threads.
//!
//! The build container has no registry access, so instead of a work-stealing
//! pool this crate provides the *minimum* parallel substrate the workspace
//! needs: contiguous-chunk fan-out over [`std::thread::scope`] with results
//! stitched back together **in input order**. Every operation is specified
//! so that its result is identical to the sequential left-to-right
//! evaluation, for every thread count:
//!
//! * [`Executor::par_map`] / [`Executor::par_map_vec`] /
//!   [`Executor::par_map_with`] — element-wise, order-preserving: the output
//!   vector is byte-for-byte what the sequential `map` would produce.
//! * [`Executor::par_find_first`] — returns the match with the **minimum
//!   index** (the sequential `find_map` answer), even when a later match is
//!   discovered first by another worker.
//!
//! Reductions are not a primitive: a caller that needs one maps in
//! parallel and folds the in-order results sequentially, which keeps float
//! accumulation bit-identical across thread counts.
//!
//! `Executor::new(1)` (or `NDG_THREADS=1`) is an *exact-sequential* mode: no
//! thread is spawned and every closure runs on the caller's stack in input
//! order, so the parallel code paths can be pinned against it in tests.
//!
//! The worker count defaults to [`std::thread::available_parallelism`] and
//! is overridden by the `NDG_THREADS` environment variable (clamped to
//! ≥ 1; unparsable values fall back to the default).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Profiling counters (no-ops until `ndg_obs::install`): how often the
/// executor fanned out vs ran inline, how many chunks it spawned, and
/// how many items it distributed. Integer-only — instrumentation never
/// touches the values flowing through the map/fold closures.
static EXEC_FANOUTS: ndg_obs::Counter = ndg_obs::Counter::new("exec_fanouts_total");
static EXEC_SEQ_RUNS: ndg_obs::Counter = ndg_obs::Counter::new("exec_sequential_runs_total");
static EXEC_CHUNKS: ndg_obs::Counter = ndg_obs::Counter::new("exec_chunks_total");
static EXEC_ITEMS: ndg_obs::Counter = ndg_obs::Counter::new("exec_items_total");

/// A cooperative cancellation budget: an optional wall-clock deadline,
/// checked by long-running engines at chunk/round boundaries
/// (cutting-plane rounds, dynamics rounds, enumeration chunks). `Executor`
/// itself is `Copy` and carries no state, so the budget travels as an
/// explicit parameter through the `_budgeted` engine entry points.
///
/// Expiry is *detected* nondeterministically (it depends on wall-clock
/// time), but the error the engines surface for it is a fixed value, so
/// the serving layer can return a deterministic `deadline` response and
/// simply never cache it.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
}

impl Budget {
    /// The no-op budget: never expires, costs nothing to check.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget that expires `d` from now.
    pub fn with_deadline(d: Duration) -> Self {
        Budget {
            deadline: Instant::now().checked_add(d),
        }
    }

    /// Has the deadline passed?
    #[inline]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|t| Instant::now() >= t)
    }

    /// [`expired`](Self::expired) as a `Result` for `?`-style propagation.
    #[inline]
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.expired() {
            Err(BudgetExceeded)
        } else {
            Ok(())
        }
    }
}

/// The unit error raised when a [`Budget`] expires mid-computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded;

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "budget exceeded (deadline passed)")
    }
}

impl std::error::Error for BudgetExceeded {}

/// Hardware parallelism (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The workspace-wide default worker count: `NDG_THREADS` if set to a
/// positive integer, else [`available_threads`].
pub fn default_threads() -> usize {
    match std::env::var("NDG_THREADS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .unwrap_or_else(available_threads),
        Err(_) => available_threads(),
    }
}

/// A fixed-width fan-out executor. Cheap to construct and `Copy`: it is
/// only a thread-count policy, all scheduling state lives on the stack of
/// the operation that uses it.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Executor {
    /// Executor with an explicit worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Executor honouring `NDG_THREADS` / hardware parallelism.
    pub fn from_env() -> Self {
        Self::new(default_threads())
    }

    /// The exact-sequential executor (never spawns).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Configured worker count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Contiguous chunk length for `n` items (≥ 1): one chunk per worker,
    /// never more chunks than items.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil(self.threads.min(n).max(1))
    }

    /// Record one fan-out decision in the profiling counters. One
    /// relaxed load when the registry is not installed.
    #[inline]
    fn note_dispatch(&self, n: usize) {
        if !ndg_obs::installed() {
            return;
        }
        if self.threads == 1 || n <= 1 {
            EXEC_SEQ_RUNS.inc();
        } else {
            EXEC_FANOUTS.inc();
            EXEC_CHUNKS.add(n.div_ceil(self.chunk_len(n)) as u64);
        }
        EXEC_ITEMS.add(n as u64);
    }

    /// Order-preserving parallel map over borrowed items.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_with(items, || (), |(), x| f(x))
    }

    /// Order-preserving parallel map with per-worker scratch state: each
    /// worker calls `init` once and threads the resulting state through its
    /// chunk (the pattern for reusable Dijkstra workspaces). In sequential
    /// mode a single state serves all items, exactly like a hand-written
    /// loop.
    pub fn par_map_with<S, T, U, FI, F>(&self, items: &[T], init: FI, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        FI: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> U + Sync,
    {
        self.note_dispatch(items.len());
        if self.threads == 1 || items.len() <= 1 {
            let mut s = init();
            return items.iter().map(|x| f(&mut s, x)).collect();
        }
        let chunk = self.chunk_len(items.len());
        let parts = fan_out(items.chunks(chunk), |_, sub| {
            let mut s = init();
            sub.iter().map(|x| f(&mut s, x)).collect::<Vec<U>>()
        });
        concat(parts, items.len())
    }

    /// Order-preserving parallel map consuming an owned vector, for items
    /// the closure takes by value.
    pub fn par_map_vec<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        self.note_dispatch(items.len());
        if self.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let n = items.len();
        let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let chunk = self.chunk_len(n);
        let parts = fan_out(slots.chunks_mut(chunk), |_, sub| {
            sub.iter_mut()
                .map(|slot| f(slot.take().expect("each slot is drained once")))
                .collect::<Vec<U>>()
        });
        concat(parts, n)
    }

    /// First match in **input order**: the parallel equivalent of
    /// `items.iter().enumerate().find_map(|(i, x)| f(i, x))`. Workers scan
    /// ascending and abandon their chunk as soon as a lower-index match is
    /// known, so `f` may be evaluated speculatively on items *after* the
    /// returned one — it must be side-effect free.
    pub fn par_find_first<T, U, F>(&self, items: &[T], f: F) -> Option<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> Option<U> + Sync,
    {
        let n = items.len();
        self.note_dispatch(n);
        if self.threads == 1 || n <= 1 {
            return items.iter().enumerate().find_map(|(i, x)| f(i, x));
        }
        let chunk = self.chunk_len(n);
        let best = AtomicUsize::new(usize::MAX);
        fan_out(items.chunks(chunk), |c, sub| {
            let base = c * chunk;
            for (j, x) in sub.iter().enumerate() {
                let i = base + j;
                if best.load(Ordering::Relaxed) < i {
                    return None; // a lower-index match exists
                }
                if let Some(v) = f(i, x) {
                    best.fetch_min(i, Ordering::Relaxed);
                    return Some((i, v));
                }
            }
            None
        })
        .into_iter()
        .flatten()
        .min_by_key(|&(i, _)| i)
        .map(|(_, v)| v)
    }
}

/// The one fan-out: run `work(c, chunk)` for every chunk on its own scoped
/// thread and return the results in chunk order. Each worker inherits the
/// caller's flight-recorder context, so engine sub-events emitted inside
/// `work` keep the request's trace id.
fn fan_out<C, R, W>(chunks: impl Iterator<Item = C>, work: W) -> Vec<R>
where
    C: Send,
    R: Send,
    W: Fn(usize, C) -> R + Sync,
{
    let cur = ndg_obs::events::current();
    let (cur, work) = (&cur, &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    let _ctx = cur.clone().map(|(r, t)| ndg_obs::events::set_current(r, t));
                    work(c, chunk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ndg-exec worker panicked"))
            .collect()
    })
}

/// Stitch per-chunk outputs back into one vector of `n` items.
fn concat<U>(parts: Vec<Vec<U>>, n: usize) -> Vec<U> {
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let want: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for t in [1, 2, 3, 4, 7, 8, 64, 1000] {
            let ex = Executor::new(t);
            assert_eq!(ex.par_map(&items, |&x| x * 3 + 1), want, "threads={t}");
            let owned: Vec<usize> = items.clone();
            assert_eq!(ex.par_map_vec(owned, |x| x * 3 + 1), want, "threads={t}");
        }
    }

    #[test]
    fn par_map_with_reuses_per_worker_state() {
        let items: Vec<usize> = (0..100).collect();
        let ex = Executor::new(4);
        // State = a scratch counter; result must not depend on the sharing.
        let out = ex.par_map_with(
            &items,
            || 0usize,
            |calls, &x| {
                *calls += 1;
                x + (*calls - *calls) // scratch must not leak into results
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn par_find_first_returns_minimum_index_match() {
        let items: Vec<usize> = (0..1000).collect();
        for t in [1, 2, 4, 8] {
            let ex = Executor::new(t);
            // Matches at 900, 901, … and at 137: must return 137.
            let got = ex.par_find_first(
                &items,
                |_, &x| {
                    if x == 137 || x >= 900 {
                        Some(x)
                    } else {
                        None
                    }
                },
            );
            assert_eq!(got, Some(137), "threads={t}");
            let none = ex.par_find_first(&items, |_, &x| if x > 5000 { Some(x) } else { None });
            assert_eq!(none, None, "threads={t}");
        }
    }

    #[test]
    fn workers_inherit_the_callers_trace_context() {
        use ndg_obs::events::{current, set_current, Recorder};
        let clock = std::sync::Arc::new(ndg_obs::TestClock::new());
        let _ctx = set_current(std::sync::Arc::new(Recorder::new(4, clock)), 42);
        let trace = || current().map(|(_, id)| id);
        let items: Vec<usize> = (0..64).collect();
        for t in [1, 4] {
            let ex = Executor::new(t);
            assert!(ex
                .par_map(&items, |_| trace())
                .iter()
                .all(|&id| id == Some(42)));
            let owned = ex.par_map_vec(items.clone(), |_| trace());
            assert!(owned.iter().all(|&id| id == Some(42)), "threads={t}");
            let last = ex.par_find_first(&items, |i, _| (i == 63).then(trace));
            assert_eq!(last, Some(Some(42)), "threads={t}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(ex.par_map(&empty, |&x| x).is_empty());
        assert_eq!(ex.par_find_first(&empty, |_, &x: &u32| Some(x)), None);
        assert_eq!(ex.par_map(&[42u32], |&x| x + 1), vec![43]);
    }

    #[test]
    fn budget_unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.expired());
        assert!(b.check().is_ok());
    }

    #[test]
    fn budget_zero_deadline_expires_immediately() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert!(b.expired());
        assert_eq!(b.check(), Err(BudgetExceeded));
    }

    #[test]
    fn budget_long_deadline_not_expired_yet() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!b.expired());
    }

    #[test]
    fn histogram_totals_conserved_under_executor_recording() {
        // Satellite for ndg-obs: concurrent recording through the
        // executor conserves count/sum/max at threads ∈ {1, 8} (the
        // NDG_THREADS settings CI runs the whole suite under).
        let items: Vec<u64> = (0..4096).collect();
        let expect_sum: u64 = items.iter().sum();
        for t in [1usize, 8] {
            let h = ndg_obs::LogHistogram::new();
            let ex = Executor::new(t);
            ex.par_map(&items, |&v| h.record(v));
            let s = h.snapshot();
            assert_eq!(s.count, items.len() as u64, "threads={t}");
            assert_eq!(s.sum, expect_sum, "threads={t}");
            assert_eq!(s.max, 4095, "threads={t}");
            assert_eq!(s.buckets.iter().sum::<u64>(), s.count, "threads={t}");
        }
    }

    #[test]
    fn env_override_parses_defensively() {
        // Only the pure parser is testable without mutating the process
        // environment; clamping is covered through Executor::new.
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::sequential().threads(), 1);
        assert!(default_threads() >= 1);
    }
}
