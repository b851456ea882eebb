//! `ndg-serve` — equilibrium-as-a-service.
//!
//! The paper frames subsidy enforcement as a decision an *authority* makes
//! over incoming network-design instances; this crate is that authority's
//! serving layer, turning the workspace's solver library into a request
//! engine:
//!
//! * [`codec`] — the `ndg1` line-oriented wire protocol: canonical
//!   serialization of games (broadcast/general/weighted), subsidies,
//!   states and results, structured decode errors, and the FNV-1a
//!   canonical-instance hash used as the cache key;
//! * [`cache`] — a sharded LRU instance/result cache with hit/miss/
//!   eviction counters surfaced in every response, `canon_hits` splitting
//!   isomorphism hits from literal ones;
//! * [`canon`] — canonical-form cache keying: requests are rewritten into
//!   [`ndg_canon`] canonical label space, solved there, and mapped back,
//!   so node-relabeled duplicates share one cache entry;
//! * [`router`] — named methods over the existing engines: `enforce`
//!   (SNE LPs (1)–(3), Theorem 6, weighted), `dynamics` (the incremental
//!   engine under all three move orders), `pos`, `aon`, `certify`
//!   (batched Lemma 2), `stats`, `metrics`;
//! * [`server`] — batched front ends over TCP and stdio, scheduling each
//!   batch onto a shared [`ndg_exec::Executor`] with per-worker pooled
//!   Dijkstra workspaces; bounded-in-flight admission with overload
//!   shedding, idle-connection reaping, and graceful drain;
//! * [`session`] — crash-safe delta sessions: `open`/`delta`/`resync`/
//!   `close` over a pinned instance, checkpointed write-ahead delta
//!   journals with replay-based recovery, sampled divergence audits, and
//!   bounded LRU admission;
//! * [`workload`] — the deterministic mixed-request generator behind
//!   the TCP contract test, the E12 load experiment and perfbench.
//!
//! The seeded fault-injection harness that drives this stack over TCP
//! lives in `ndg-bench` (`ndg_bench::chaos`), so no test harness ships
//! in this crate or its binary.
//!
//! # Robustness
//!
//! Requests can carry `deadline_ms=` (or inherit `--default-deadline-ms`),
//! enforced cooperatively at engine chunk boundaries via
//! [`ndg_exec::Budget`] and answered with `err;code=deadline` — never
//! cached. Engine panics are isolated per request (`err;code=internal`),
//! overload is shed (`err;code=overloaded;retry_ms=…`), and every
//! connection's end reason is counted in [`server::ConnStats`].
//!
//! The stack is std-only (the build container has no registry); the only
//! workspace-external code it touches is the vendored offline `rand` shim,
//! and only for workload generation.
//!
//! # Determinism
//!
//! Every response **payload** (the part after the volatile id/cache
//! fields, see [`codec::payload_of`]) is specified to be byte-identical to
//! what a fresh sequential `Router` would produce for the same canonical
//! request body — across thread counts, batch boundaries, connection
//! interleavings and cache states. That is the property that makes result
//! caching sound, and E12 plus the `serve_contract` TCP test assert it
//! end to end.
//!
//! # Observability
//!
//! The stack instruments itself through [`ndg_obs`]: relaxed-atomic
//! counters and log₂ latency histograms that are no-ops until a process
//! opts in with [`ndg_obs::install`] (`ndg-serve --metrics 1`). The
//! `metrics` method exposes every metric as deterministic sorted
//! `name=value` fields; `trace=1` on any request echoes per-stage µs
//! (`parse/canon/cache/delta/solve/unmap/write`) in the response *header* —
//! volatile, stripped by [`codec::payload_of`], never part of the cache
//! key — and `--log-slow-ms` retains the top-8 slowest requests for
//! `stats`. None of it perturbs response payloads.

// A serving layer must not die on a recoverable condition: production
// (non-test) code paths justify every panic site or handle the error.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod canon;
pub mod codec;
pub mod router;
pub mod server;
pub mod session;
pub mod workload;

pub use cache::{Cache, CacheStats};
pub use canon::{canonicalize_request, unapply_payload, CanonRequest};
pub use codec::{payload_of, DeltaOp, Method, Request, Solver, WireError, WireGame, WireOrder};
pub use router::{FaultHook, Router};
pub use server::{
    serve_stdio, serve_stdio_with, serve_stream, serve_stream_with, spawn_tcp, spawn_tcp_with,
    ConnEnd, ConnSnapshot, ConnStats, Gate, ServeOptions, ServerHandle, TcpOptions,
};
pub use session::{SessionConfig, SessionCountersSnapshot, SessionTable};
pub use workload::{build_workload, WorkloadSpec};
