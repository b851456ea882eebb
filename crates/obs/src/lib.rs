//! Observability substrate for the ndg workspace: a lock-free metrics
//! registry, log₂-bucket latency histograms, a bounded flight recorder
//! of structured wide events ([`events`]), and a swappable monotonic
//! clock for deterministic span timing.
//!
//! Design constraints, in order:
//!
//! 1. **Zero perturbation of the compute paths.** Every handle
//!    ([`Counter`], [`Gauge`], [`Histogram`]) is a no-op costing one
//!    relaxed atomic load until [`install`] is called. All recorded
//!    values are integers (counts, microseconds) — no float enters or
//!    leaves an engine through this crate, so the byte-identity
//!    contract of the serving stack is untouched by instrumentation.
//! 2. **Lock-free hot path.** Recording is relaxed `fetch_add` /
//!    `fetch_max` only. The single mutex in this crate guards the
//!    registry *list* and is taken once per metric per process
//!    lifetime (lazy registration on first touch).
//! 3. **Deterministic exposition.** [`expose`] emits `name=value`
//!    fields sorted by name, so the `metrics` wire method is a pure
//!    function of the counter values.
//!
//! Histograms are HDR-style with fixed log₂ buckets: bucket 0 holds
//! the value 0 and bucket `i ≥ 1` holds `v ∈ [2^(i-1), 2^i - 1]`, so
//! powers of two are exact lower bucket boundaries. Quantiles report
//! the rank bucket's upper bound clamped to the exact recorded maximum — at most 2× above the true rank value, monotone
//! in the requested quantile, and exact when all mass sits on one
//! recorded value.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global install flag + registry
// ---------------------------------------------------------------------------

static INSTALLED: AtomicBool = AtomicBool::new(false);

/// One registered metric. Handles are `'static` by construction (they
/// are declared as `static` items next to the code they instrument),
/// so the registry holds plain references.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

/// Turn the registry on. Until this is called every handle is a no-op
/// (one relaxed load). Idempotent.
pub fn install() {
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Turn the registry back off. Exists for experiments that measure
/// instrumented-vs-uninstrumented overhead in one process; production
/// code never calls this. Already-registered metrics keep their values
/// (and stay listed) — only *recording* stops.
pub fn uninstall() {
    INSTALLED.store(false, Ordering::SeqCst);
}

/// Whether [`install`] has been called (and not undone).
#[inline]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

fn registry_lock() -> std::sync::MutexGuard<'static, Vec<Metric>> {
    // A poisoned registry list is still structurally valid (push is the
    // only mutation); recover rather than cascade the panic.
    match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

/// Monotone event counter. Declare as a `static`, bump with
/// [`Counter::add`] / [`Counter::inc`].
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n`. No-op unless the registry is installed.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !installed() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1. No-op unless the registry is installed.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value (0 until first recorded touch).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            registry_lock().push(Metric::Counter(self));
        }
    }
}

/// Last-write-wins gauge (e.g. a current queue depth or config knob).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Set the gauge. No-op unless the registry is installed.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !installed() {
            return;
        }
        self.ensure_registered();
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            registry_lock().push(Metric::Gauge(self));
        }
    }
}

// ---------------------------------------------------------------------------
// Log₂ histogram
// ---------------------------------------------------------------------------

/// Number of histogram buckets: bucket 0 for the value 0, buckets
/// 1..=64 for `v ∈ [2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `1 + floor(log2 v)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of a bucket.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Concurrent fixed-bucket log₂ histogram. All operations are relaxed
/// atomics; `record` never locks. Unlike the registry handles this
/// type is freestanding (no global state), so it can be unit- and
/// property-tested in isolation and embedded per-instance where a
/// global metric would mix unrelated routers.
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// Const constructor (usable in `static` declarations).
    pub const fn new() -> Self {
        // The interior-mutable const is the array-repeat idiom: each of
        // the HIST_BUCKETS elements gets its own fresh AtomicU64.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LogHistogram {
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Count last: a concurrent snapshot that observes count > 0 is
        // guaranteed to also observe at least one full min/max update.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current state out. Individual loads are relaxed, so a
    /// snapshot taken concurrently with writers is a consistent *lower
    /// bound* per field; snapshot after joining writers for exact
    /// totals.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Immutable copy of a [`LogHistogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Exact minimum observed value (0 if empty).
    pub min: u64,
    /// Exact maximum observed value (0 if empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Exact integer mean (`sum / count`, 0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Quantile estimate for `q ∈ [0, 1]`: the upper bound of the
    /// bucket containing the rank-`ceil(q·count)` observation, clamped
    /// to the exact max. Returns 0 on an empty snapshot. The estimate
    /// is ≥ the true rank value and < 2× it, and is monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Registry-attached histogram handle. Declare as a `static`; records
/// are no-ops until [`install`].
pub struct Histogram {
    name: &'static str,
    hist: LogHistogram,
    registered: AtomicBool,
}

impl Histogram {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            hist: LogHistogram::new(),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one observation. No-op unless the registry is installed.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !installed() {
            return;
        }
        self.ensure_registered();
        self.hist.record(v);
    }

    /// Snapshot the underlying histogram (works whether or not the
    /// registry is installed; empty until first recorded touch).
    pub fn snapshot(&self) -> HistSnapshot {
        self.hist.snapshot()
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            registry_lock().push(Metric::Histogram(self));
        }
    }
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

/// Render every registered metric as `name=value` fields joined by
/// `;`, sorted by field name — a stable, fully deterministic function
/// of the counter values. Histograms expand to `_count`, `_sum`,
/// `_mean`, `_min`, `_max`, `_p50`, `_p90`, and `_p99` fields (the
/// first five exact, the quantiles bucket-bound). The first field is
/// always `enabled=0|1`; with the registry off no metrics follow.
pub fn expose() -> String {
    if !installed() {
        return "enabled=0".to_string();
    }
    let mut fields: Vec<(String, u64)> = Vec::new();
    {
        let reg = registry_lock();
        for m in reg.iter() {
            match m {
                Metric::Counter(c) => fields.push((c.name.to_string(), c.get())),
                Metric::Gauge(g) => fields.push((g.name.to_string(), g.get())),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    fields.push((format!("{}_count", h.name), s.count));
                    fields.push((format!("{}_sum", h.name), s.sum));
                    fields.push((format!("{}_mean", h.name), s.mean()));
                    fields.push((format!("{}_min", h.name), s.min));
                    fields.push((format!("{}_p50", h.name), s.p50()));
                    fields.push((format!("{}_p90", h.name), s.p90()));
                    fields.push((format!("{}_p99", h.name), s.p99()));
                    fields.push((format!("{}_max", h.name), s.max));
                }
            }
        }
    }
    fields.sort();
    let mut out = String::from("enabled=1");
    for (k, v) in fields {
        out.push(';');
        out.push_str(&k);
        out.push('=');
        out.push_str(&v.to_string());
    }
    out
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Microsecond clock abstraction so span timing can be driven by a
/// deterministic clock in tests.
pub trait Clock: Send + Sync {
    /// Microseconds since an arbitrary fixed origin; must be monotone.
    fn now_us(&self) -> u64;
}

/// Wall monotonic clock ([`Instant`]-based).
pub struct MonoClock {
    origin: Instant,
}

impl MonoClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonoClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock::new()
    }
}

impl Clock for MonoClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Deterministic test clock: time advances only via
/// [`TestClock::advance_us`].
pub struct TestClock {
    us: AtomicU64,
}

impl TestClock {
    /// A clock frozen at 0.
    pub fn new() -> Self {
        TestClock {
            us: AtomicU64::new(0),
        }
    }

    /// Advance by `n` microseconds.
    pub fn advance_us(&self, n: u64) {
        self.us.fetch_add(n, Ordering::SeqCst);
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Flight recorder: structured wide events
// ---------------------------------------------------------------------------

/// Bounded MPSC flight recorder of structured **wide events**.
///
/// A [`Recorder`](events::Recorder) is a fixed-capacity ring of
/// [`Event`](events::Event) records: one
/// wide event per served request (trace id, method, key hash, cache
/// outcome, stage laps, terminal classification) plus engine sub-events
/// (recertification verdicts, orbit-sweep caps, LP cut rounds, session
/// journal ops) linked by the same trace id. The shared cursor is a
/// single relaxed `fetch_add` — writers never contend on a global lock;
/// each slot carries its own latch taken only by the (rare) writer that
/// lands on it and by snapshots.
///
/// Recorders are per-instance (a router owns one), not global: unit
/// tests and the chaos harness each observe exactly the events their
/// own router emitted. Engine code deep below the router reaches the
/// recorder through a thread-local *current context*
/// ([`set_current`](events::set_current) / [`emit`](events::emit)) that
/// `ndg-exec` propagates across its scoped workers, so
/// sub-events land in the right ring with the right trace id without
/// any plumbing through engine signatures.
///
/// Under a [`TestClock`] every field of every event is deterministic,
/// so tests can assert exact causal sequences.
pub mod events {
    use super::Clock;
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Default ring capacity (events retained for `events` snapshots
    /// and fault dumps).
    pub const DEFAULT_RING_CAP: usize = 512;

    /// How many trailing events a fault dump prints.
    pub const DUMP_LAST_K: usize = 16;

    /// Fault dumps emitted per process before suppression (postmortem
    /// context without letting a panic storm flood stderr).
    pub const DEFAULT_DUMP_BUDGET: u64 = 8;

    static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

    /// Allocate a process-unique trace id (monotone from 1). Requests
    /// that arrive without a client-chosen `trace_id=` get one of these
    /// at parse time.
    pub fn next_trace_id() -> u64 {
        NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
    }

    /// One structured event. `fields` are name-sorted at push time so
    /// every rendering is deterministic.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Event {
        /// Ring-assigned sequence number (monotone per recorder).
        pub seq: u64,
        /// Recorder-clock timestamp (µs; deterministic under `TestClock`).
        pub t_us: u64,
        /// Trace id linking this event to its request.
        pub trace_id: u64,
        /// Event kind: `request` for the per-request wide event, else a
        /// sub-event family (`session`, `panic`, `shed`, `recert`,
        /// `enum`, `lp`, …).
        pub kind: &'static str,
        /// Name-sorted `(name, value)` payload fields.
        pub fields: Vec<(&'static str, String)>,
    }

    /// Keep field values wire- and row-safe: the event grammar reserves
    /// `;` (payload fields), `,` (row entries), and `:` (name/value).
    fn sanitize(v: &str) -> String {
        v.chars()
            .map(|c| {
                if matches!(c, ';' | ',' | ':' | '\n') {
                    '_'
                } else {
                    c
                }
            })
            .collect()
    }

    impl Event {
        /// Look up a payload field by name.
        pub fn field(&self, name: &str) -> Option<&str> {
            self.fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str())
        }

        /// Deterministic single-row rendering:
        /// `seq:S,t_us:T,trace:I,kind:K` followed by the name-sorted
        /// payload fields as `name:value`.
        pub fn render(&self) -> String {
            let mut out = format!(
                "seq:{},t_us:{},trace:{},kind:{}",
                self.seq, self.t_us, self.trace_id, self.kind
            );
            for (n, v) in &self.fields {
                out.push(',');
                out.push_str(n);
                out.push(':');
                out.push_str(v);
            }
            out
        }

        /// One JSON object per line (the `--log jsonl` sink format).
        /// Numeric header fields stay numbers; payload fields are
        /// strings (values are already sanitized tokens).
        pub fn render_jsonl(&self) -> String {
            let mut out = format!(
                "{{\"seq\":{},\"t_us\":{},\"trace_id\":{},\"kind\":\"{}\"",
                self.seq, self.t_us, self.trace_id, self.kind
            );
            for (n, v) in &self.fields {
                out.push_str(&format!(",\"{n}\":\"{v}\""));
            }
            out.push('}');
            out
        }
    }

    /// The bounded flight recorder. See the [module docs](self).
    pub struct Recorder {
        head: AtomicU64,
        slots: Vec<Mutex<Option<Event>>>,
        clock: Arc<dyn Clock>,
        sink: Mutex<Option<Box<dyn Write + Send>>>,
        sample_every: AtomicU64,
        wide_seen: AtomicU64,
        dump_budget: AtomicU64,
    }

    impl Recorder {
        /// A recorder with `cap` slots (clamped to ≥ 1) over `clock`.
        pub fn new(cap: usize, clock: Arc<dyn Clock>) -> Self {
            let cap = cap.max(1);
            Recorder {
                head: AtomicU64::new(0),
                slots: (0..cap).map(|_| Mutex::new(None)).collect(),
                clock,
                sink: Mutex::new(None),
                sample_every: AtomicU64::new(1),
                wide_seen: AtomicU64::new(0),
                dump_budget: AtomicU64::new(DEFAULT_DUMP_BUDGET),
            }
        }

        /// Default-capacity recorder over the wall monotonic clock.
        pub fn with_wall_clock() -> Self {
            Recorder::new(DEFAULT_RING_CAP, Arc::new(super::MonoClock::new()))
        }

        /// Ring capacity.
        pub fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Total events pushed so far (not bounded by capacity).
        pub fn pushed(&self) -> u64 {
            self.head.load(Ordering::Relaxed)
        }

        /// Attach a structured-log sink: every *wide* event that passes
        /// sampling is written to it as one JSON line.
        pub fn set_sink(&self, w: Box<dyn Write + Send>) {
            *lock(&self.sink) = Some(w);
        }

        /// Log every `n`th wide event (clamped to ≥ 1; errors and slow
        /// requests bypass sampling via the caller's `force` flag).
        pub fn set_sample_every(&self, n: u64) {
            self.sample_every.store(n.max(1), Ordering::Relaxed);
        }

        /// Cap the number of fault dumps this recorder may emit.
        pub fn set_dump_budget(&self, n: u64) {
            self.dump_budget.store(n, Ordering::Relaxed);
        }

        /// Push a sub-event. Returns its sequence number.
        pub fn push(
            &self,
            trace_id: u64,
            kind: &'static str,
            fields: Vec<(&'static str, String)>,
        ) -> u64 {
            self.push_inner(trace_id, kind, fields, None)
        }

        /// Push the per-request wide event. `force_log` bypasses the
        /// sink's sampling (errors and slow requests are always logged).
        pub fn push_wide(
            &self,
            trace_id: u64,
            kind: &'static str,
            fields: Vec<(&'static str, String)>,
            force_log: bool,
        ) -> u64 {
            self.push_inner(trace_id, kind, fields, Some(force_log))
        }

        fn push_inner(
            &self,
            trace_id: u64,
            kind: &'static str,
            mut fields: Vec<(&'static str, String)>,
            wide_force: Option<bool>,
        ) -> u64 {
            for (_, v) in fields.iter_mut() {
                if v.contains([';', ',', ':', '\n']) {
                    *v = sanitize(v);
                }
            }
            fields.sort_by(|a, b| a.0.cmp(b.0));
            let seq = self.head.fetch_add(1, Ordering::Relaxed);
            let ev = Event {
                seq,
                t_us: self.clock.now_us(),
                trace_id,
                kind,
                fields,
            };
            if let Some(force) = wide_force {
                let every = self.sample_every.load(Ordering::Relaxed).max(1);
                let nth = self.wide_seen.fetch_add(1, Ordering::Relaxed);
                if force || nth.is_multiple_of(every) {
                    let mut sink = lock(&self.sink);
                    if let Some(w) = sink.as_mut() {
                        let _ = writeln!(w, "{}", ev.render_jsonl());
                        let _ = w.flush();
                    }
                }
            }
            *lock(&self.slots[(seq % self.slots.len() as u64) as usize]) = Some(ev);
            seq
        }

        /// Deterministic snapshot of the ring: every retained event in
        /// sequence order.
        pub fn snapshot(&self) -> Vec<Event> {
            let mut out: Vec<Event> = self.slots.iter().filter_map(|s| lock(s).clone()).collect();
            out.sort_by_key(|e| e.seq);
            out
        }

        /// Retained events carrying `trace_id`, in sequence order.
        pub fn snapshot_trace(&self, trace_id: u64) -> Vec<Event> {
            let mut out = self.snapshot();
            out.retain(|e| e.trace_id == trace_id);
            out
        }

        /// Postmortem dump: the last [`DUMP_LAST_K`] retained events
        /// plus every retained event of the offending trace, rendered
        /// to one string (matching-trace rows marked `*`) and printed
        /// to stderr. Rate-limited by the dump budget; returns `None`
        /// once the budget is spent.
        pub fn dump_fault(&self, trace_id: u64, reason: &str) -> Option<String> {
            if self
                .dump_budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err()
            {
                return None;
            }
            let all = self.snapshot();
            let tail_from = all.len().saturating_sub(DUMP_LAST_K);
            let keep: Vec<&Event> = all
                .iter()
                .enumerate()
                .filter(|(i, e)| *i >= tail_from || e.trace_id == trace_id)
                .map(|(_, e)| e)
                .collect();
            let mut out = format!(
                "ndg-obs: fault dump reason={} trace_id={} events={}\n",
                sanitize(reason),
                trace_id,
                keep.len()
            );
            for e in keep {
                let mark = if e.trace_id == trace_id { '*' } else { ' ' };
                out.push_str(&format!("  {mark} {}\n", e.render()));
            }
            eprint!("{out}");
            Some(out)
        }
    }

    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    // -- thread-local current context --------------------------------------

    thread_local! {
        static CURRENT: std::cell::RefCell<Option<(Arc<Recorder>, u64)>> =
            const { std::cell::RefCell::new(None) };
    }

    /// RAII guard restoring the previous current context on drop.
    pub struct CurrentGuard {
        prev: Option<(Arc<Recorder>, u64)>,
    }

    impl Drop for CurrentGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }

    /// Make `(recorder, trace_id)` the calling thread's current context
    /// until the returned guard drops. Engine sub-events emitted below
    /// this frame ([`emit`]) land in `recorder` under `trace_id`.
    pub fn set_current(rec: Arc<Recorder>, trace_id: u64) -> CurrentGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace((rec, trace_id)));
        CurrentGuard { prev }
    }

    /// The calling thread's current context, if any — cloned so worker
    /// threads (`ndg-exec`) can re-establish it via [`set_current`].
    pub fn current() -> Option<(Arc<Recorder>, u64)> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Whether the calling thread has a recorder context. Hot engine
    /// paths check this before allocating event fields, so the
    /// recorder-off cost is one thread-local read.
    pub fn recording() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    /// Emit a sub-event into the current context. A few ns no-op when
    /// no recorder is current (the common production-off case).
    pub fn emit(kind: &'static str, fields: Vec<(&'static str, String)>) {
        if let Some((rec, trace)) = current() {
            rec.push(trace, kind, fields);
        }
    }

    /// Trigger a postmortem dump on the current context (no-op without
    /// one).
    pub fn dump_current(reason: &str) {
        if let Some((rec, trace)) = current() {
            rec.dump_fault(trace, reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        for k in 0..64u32 {
            let v = 1u64 << k;
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v, "2^{k} must open its bucket");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), i - 1, "2^{k}-1 in previous bucket");
            }
            assert!(bucket_upper(i) >= v);
            assert!(i < HIST_BUCKETS);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn single_value_mass_quantiles_are_exact() {
        // All mass on one value (powers of two are the interesting
        // case: the bucket upper bound alone would over-report, the
        // max clamp makes it exact).
        for &v in &[0u64, 1, 2, 4, 1024, 1 << 40, 12345] {
            let h = LogHistogram::new();
            for _ in 0..100 {
                h.record(v);
            }
            let s = h.snapshot();
            assert_eq!(s.count, 100);
            assert_eq!(s.max, v);
            assert_eq!(s.p50(), v);
            assert_eq!(s.p90(), v);
            assert_eq!(s.p99(), v);
            assert_eq!(s.quantile(1.0), v);
        }
    }

    #[test]
    fn quantile_is_within_2x_of_true_rank_value() {
        let h = LogHistogram::new();
        let mut vals: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 50_000).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        for &(q, _name) in &[(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let truth = vals[rank - 1];
            let est = s.quantile(q);
            assert!(est >= truth, "estimate {est} below true {truth}");
            assert!(est <= truth.max(1) * 2, "estimate {est} above 2x {truth}");
        }
    }

    #[test]
    fn min_max_mean_are_exact_and_empty_safe() {
        let h = LogHistogram::new();
        let empty = h.snapshot();
        assert_eq!((empty.min, empty.max, empty.mean()), (0, 0, 0));
        for v in [17u64, 3, 250, 3, 90] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 250);
        assert_eq!(s.sum, 363);
        assert_eq!(s.mean(), 363 / 5);
    }

    #[test]
    fn concurrent_recording_conserves_totals() {
        static H: LogHistogram = LogHistogram::new();
        let threads = 8;
        let per = 5000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per {
                        H.record(t * per + i);
                    }
                });
            }
        });
        let s = H.snapshot();
        assert_eq!(s.count, threads * per);
        let expect_sum: u64 = (0..threads * per).sum();
        assert_eq!(s.sum, expect_sum);
        assert_eq!(s.max, threads * per - 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    // The install flag is process-global; this is the only test in the
    // crate that touches it, so parallel test threads cannot race it.
    #[test]
    fn registry_install_exposition_and_noop_handles() {
        static C: Counter = Counter::new("test_events_total");
        static G: Gauge = Gauge::new("test_depth");
        static H: Histogram = Histogram::new("test_lat_us");
        assert!(!installed());
        C.add(5);
        G.set(9);
        H.record(7);
        assert_eq!(C.get(), 0, "handles are no-ops before install");
        assert_eq!(H.snapshot().count, 0);
        assert_eq!(expose(), "enabled=0");

        install();
        C.add(5);
        C.inc();
        G.set(9);
        H.record(4);
        H.record(4);
        assert_eq!(C.get(), 6);
        assert_eq!(G.get(), 9);
        let text = expose();
        assert!(text.starts_with("enabled=1;"));
        assert!(text.contains("test_events_total=6"));
        assert!(text.contains("test_depth=9"));
        assert!(text.contains("test_lat_us_count=2"));
        assert!(text.contains("test_lat_us_p50=4"));
        assert!(text.contains("test_lat_us_max=4"));
        assert!(text.contains("test_lat_us_min=4"));
        assert!(text.contains("test_lat_us_mean=4"));
        // Stable field order: sorted by name, deterministic re-render.
        assert_eq!(text, expose());
        let names: Vec<&str> = text
            .split(';')
            .skip(1)
            .map(|f| f.split('=').next().unwrap_or(""))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "exposition fields must be name-sorted");

        uninstall();
        C.add(100);
        assert_eq!(C.get(), 6, "recording stops after uninstall");
        assert_eq!(expose(), "enabled=0");
        install();
    }

    #[test]
    fn recorder_ring_wraps_and_snapshots_in_seq_order() {
        let clock = std::sync::Arc::new(TestClock::new());
        let rec = events::Recorder::new(4, clock.clone());
        for i in 0..7u64 {
            clock.advance_us(10);
            rec.push(100 + i, "request", vec![("m", format!("v{i}"))]);
        }
        assert_eq!(rec.pushed(), 7);
        let snap = rec.snapshot();
        // Capacity 4: only the last 4 events survive, in seq order.
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert_eq!(snap[0].trace_id, 103);
        assert_eq!(snap[0].t_us, 40, "TestClock timestamps are exact");
        assert_eq!(
            snap[3].render(),
            "seq:6,t_us:70,trace:106,kind:request,m:v6"
        );
    }

    #[test]
    fn recorder_fields_are_name_sorted_and_sanitized() {
        let rec = events::Recorder::new(8, std::sync::Arc::new(TestClock::new()));
        rec.push(
            1,
            "session",
            vec![("z", "last".into()), ("a", "fir;st,x:y".into())],
        );
        let ev = rec.snapshot_trace(1).pop().expect("event retained");
        assert_eq!(ev.field("a"), Some("fir_st_x_y"));
        assert_eq!(
            ev.fields.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec!["a", "z"]
        );
        assert_eq!(
            ev.render_jsonl(),
            "{\"seq\":0,\"t_us\":0,\"trace_id\":1,\"kind\":\"session\",\
             \"a\":\"fir_st_x_y\",\"z\":\"last\"}"
        );
    }

    /// A `Write` sink backed by a shared buffer, for asserting what the
    /// jsonl sink actually emitted.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_samples_wide_events_but_always_logs_forced_ones() {
        let rec = events::Recorder::new(64, std::sync::Arc::new(TestClock::new()));
        let buf = SharedBuf::default();
        rec.set_sink(Box::new(buf.clone()));
        rec.set_sample_every(3);
        for i in 0..9u64 {
            rec.push_wide(i, "request", vec![("outcome", "ok".into())], false);
        }
        // Errors/slow requests bypass sampling.
        rec.push_wide(99, "request", vec![("outcome", "internal".into())], true);
        // Sub-events never hit the sink.
        rec.push(99, "panic", Vec::new());
        let text = String::from_utf8(buf.0.lock().expect("buffer lock").clone()).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "wide 0,3,6 sampled + 1 forced: {text}");
        assert!(lines[3].contains("\"trace_id\":99"));
        assert!(lines.iter().all(|l| l.contains("\"kind\":\"request\"")));
        assert!(
            lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')),
            "every sink line is one JSON object: {text}"
        );
    }

    #[test]
    fn fault_dump_marks_the_trace_and_respects_its_budget() {
        let rec = events::Recorder::new(64, std::sync::Arc::new(TestClock::new()));
        for i in 0..30u64 {
            rec.push(i, "request", Vec::new());
        }
        rec.push(7, "panic", vec![("code", "internal".into())]);
        rec.set_dump_budget(2);
        let dump = rec
            .dump_fault(7, "panic isolated")
            .expect("budget available");
        assert!(dump.starts_with("ndg-obs: fault dump reason=panic isolated trace_id=7"));
        // The trace's own (older) event is kept despite falling outside
        // the tail window, and is the one marked with '*'.
        assert!(dump.contains("* seq:7,"), "{dump}");
        assert!(dump.contains("* seq:30,"), "{dump}");
        assert!(dump.contains("kind:panic,code:internal"), "{dump}");
        assert!(rec.dump_fault(7, "again").is_some());
        assert!(rec.dump_fault(7, "budget spent").is_none());
    }

    #[test]
    fn current_context_scopes_emit_and_restores_on_drop() {
        let rec = std::sync::Arc::new(events::Recorder::new(
            16,
            std::sync::Arc::new(TestClock::new()),
        ));
        events::emit("recert", vec![("fresh", "1".into())]); // no context: dropped
        assert_eq!(rec.pushed(), 0);
        {
            let _g = events::set_current(rec.clone(), 42);
            events::emit("recert", vec![("fresh", "1".into())]);
            {
                let _inner = events::set_current(rec.clone(), 43);
                events::emit("lp", vec![("rounds", "2".into())]);
            }
            // Inner guard dropped: back to trace 42.
            events::emit("enum", vec![("trees", "5".into())]);
            let (cur_rec, cur_trace) = events::current().expect("context set");
            assert!(std::sync::Arc::ptr_eq(&cur_rec, &rec));
            assert_eq!(cur_trace, 42);
        }
        assert!(events::current().is_none(), "guard restores no-context");
        let t42 = rec.snapshot_trace(42);
        assert_eq!(
            t42.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec!["recert", "enum"]
        );
        assert_eq!(rec.snapshot_trace(43).len(), 1);
        assert_eq!(rec.pushed(), 3);
    }

    #[test]
    fn trace_ids_are_process_unique_and_monotone() {
        let a = events::next_trace_id();
        let b = events::next_trace_id();
        assert!(b > a);
        assert!(a >= 1);
    }

    fn snap_of(vals: &[u64]) -> HistSnapshot {
        let h = LogHistogram::new();
        for &v in vals {
            h.record(v);
        }
        h.snapshot()
    }

    proptest! {
        #[test]
        fn quantiles_are_monotone_in_q(
            vals in proptest::collection::vec(0u64..10_000_000, 1..128),
            qs in proptest::collection::vec(0.0f64..=1.0, 2..8),
        ) {
            let s = snap_of(&vals);
            let mut sorted_q = qs.clone();
            sorted_q.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
            let mut prev = 0u64;
            for q in sorted_q {
                let v = s.quantile(q);
                prop_assert!(v >= prev, "quantile must be monotone in q");
                prev = v;
            }
            prop_assert!(s.quantile(1.0) == s.max);
        }

        #[test]
        fn sum_min_max_mean_are_exact(
            vals in proptest::collection::vec(0u64..5_000_000, 1..200),
        ) {
            let s = snap_of(&vals);
            let sum: u64 = vals.iter().sum();
            prop_assert_eq!(s.sum, sum);
            prop_assert_eq!(s.min, *vals.iter().min().expect("non-empty"));
            prop_assert_eq!(s.max, *vals.iter().max().expect("non-empty"));
            prop_assert_eq!(s.mean(), sum / vals.len() as u64);
            // The exact extremes bracket every bucket-bound quantile.
            for q in [0.0, 0.5, 0.99, 1.0] {
                let v = s.quantile(q);
                prop_assert!(v >= s.min && v <= s.max);
            }
        }
    }
}
