//! Batched front ends: TCP (`std::net::TcpListener`) and stdio.
//!
//! Both speak the same framing: clients write request lines and flush a
//! **batch** with a blank line (or by closing the stream); the server runs
//! the whole batch on the shared [`Router`]'s executor via
//! [`Router::handle_batch`] and writes the responses back **in request
//! order**, one line each. Batches are additionally flushed at
//! [`MAX_BATCH`] lines so a stream of requests without blank lines cannot
//! buffer unboundedly.
//!
//! **Robustness.** The serving loop is built to keep one misbehaving
//! client (or one poisoned request) from taking the process down:
//!
//! * an **admission gate** ([`Gate`]) bounds in-flight solves; requests
//!   past capacity are *shed* with `err;code=overloaded;retry_ms=…` in
//!   request order, while admitted requests answer byte-identically to an
//!   unloaded server;
//! * per-connection **idle read timeouts** reap slow-loris peers: the
//!   framing state survives partial reads, a blank line
//!   counts as a keep-alive, and a connection that makes no framing
//!   progress (no complete line) for the idle window is closed without a
//!   response, whether its peer is silent or drip-feeds a line;
//! * a **write timeout** ([`WRITE_TIMEOUT`]) reaps a peer that sends
//!   requests but stops reading the answers;
//! * **graceful drain**: once the shutdown flag is set, already-buffered
//!   complete lines are processed and answered as a final batch, then the
//!   connection closes; the accept loop stops taking new connections;
//! * every connection's **end reason** is classified
//!   ([`ConnEnd`]) and counted in the router's [`ConnStats`], surfaced by
//!   `method=stats`.
//!
//! Every TCP thread blocks in the kernel until it has work: the accept
//! thread in `accept`, each connection in `read`, with the idle window as
//! its socket read timeout (none without one). [`ServerHandle::stop`]
//! sets the shutdown flag and wakes the accept thread with one loopback
//! connect; the accept thread then shuts down the read half of every live
//! connection, so each blocked read returns EOF and drains. A connection
//! still open [`DRAIN_GRACE`] later has its socket shut both ways, which
//! fails a write blocked on a peer that does not read. The server
//! spawns one OS thread per connection — the
//! parallelism *within* a batch comes from the router's executor, so a
//! single greedy connection already saturates the configured workers,
//! while multiple connections interleave at batch granularity and share
//! the one result cache.

use crate::codec::{err_line, WireError};
use crate::router::{recovered_id, Router};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lines per batch before an implicit flush.
pub const MAX_BATCH: usize = 64;

/// Longest accepted request line (bytes); longer lines are answered with a
/// `too_large` error and the connection keeps going.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Default `retry_ms` hint attached to shed responses.
pub const DEFAULT_RETRY_MS: u64 = 50;

/// How long one socket write may wait for a peer to take answer bytes
/// before the connection is reaped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long [`ServerHandle::stop`] lets connections drain before it cuts
/// every socket still open in both directions.
pub const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Robustness counters shared between the [`Router`] and the serving
/// front ends; reported by `method=stats`.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Connections ended by a clean client EOF.
    pub eof: AtomicU64,
    /// Connections ended by reset/abort/broken pipe.
    pub reset: AtomicU64,
    /// Connections ended by any other I/O error.
    pub errored: AtomicU64,
    /// Connections reaped because the peer stalled (see
    /// [`ConnEnd::Reaped`]).
    pub reaped: AtomicU64,
    /// Connections closed by graceful drain at shutdown.
    pub drained: AtomicU64,
    /// Requests refused by the admission gate.
    pub shed: AtomicU64,
    /// Engine panics isolated to `err;code=internal` responses.
    pub panics: AtomicU64,
    /// `err;code=deadline` responses returned.
    pub deadlines: AtomicU64,
}

impl ConnStats {
    /// One-pass relaxed read of every counter, so a `stats` response
    /// reports a single coherent view instead of interleaving loads
    /// with concurrent updates field by field.
    pub fn snapshot(&self) -> ConnSnapshot {
        let ld = Ordering::Relaxed;
        ConnSnapshot {
            eof: self.eof.load(ld),
            reset: self.reset.load(ld),
            errored: self.errored.load(ld),
            reaped: self.reaped.load(ld),
            drained: self.drained.load(ld),
            shed: self.shed.load(ld),
            panics: self.panics.load(ld),
            deadlines: self.deadlines.load(ld),
        }
    }
}

/// Plain-integer view of [`ConnStats`] taken by [`ConnStats::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Connections ended by a clean client EOF.
    pub eof: u64,
    /// Connections ended by reset/abort/broken pipe.
    pub reset: u64,
    /// Connections ended by any other I/O error.
    pub errored: u64,
    /// Connections reaped because the peer stalled.
    pub reaped: u64,
    /// Connections closed by graceful drain at shutdown.
    pub drained: u64,
    /// Requests refused by the admission gate.
    pub shed: u64,
    /// Engine panics isolated to `err;code=internal` responses.
    pub panics: u64,
    /// `err;code=deadline` responses returned.
    pub deadlines: u64,
}

/// Why a serving loop ended (the classification counted in
/// [`ConnStats`]). I/O errors are classified by the caller from the
/// `io::Error` kind instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEnd {
    /// Client closed the stream (EOF after a complete frame).
    Eof,
    /// The peer stalled: no framing progress for the idle window, or
    /// no answer bytes taken within [`WRITE_TIMEOUT`] or, at drain,
    /// [`DRAIN_GRACE`]. Closed without (the rest of) its responses.
    Reaped,
    /// Shutdown flag seen; buffered complete lines answered, then closed.
    Drained,
}

/// Bounded in-flight admission: at most `capacity` requests may be in
/// the solve stage at once, across all connections sharing the gate.
/// Requests that do not get a permit are shed with
/// `err;code=overloaded;retry_ms=…` — never queued, never solved.
#[derive(Debug)]
pub struct Gate {
    permits: AtomicUsize,
    capacity: usize,
    retry_ms: u64,
}

impl Gate {
    /// A gate admitting at most `capacity` concurrent requests.
    pub fn new(capacity: usize, retry_ms: u64) -> Self {
        Gate {
            permits: AtomicUsize::new(0),
            capacity,
            retry_ms,
        }
    }

    /// The `retry_ms` hint attached to shed responses.
    pub fn retry_ms(&self) -> u64 {
        self.retry_ms
    }

    /// Requests currently holding a permit (clamped to `capacity`: a
    /// racing acquire may briefly overshoot the load).
    pub fn inflight(&self) -> usize {
        self.permits.load(Ordering::Relaxed).min(self.capacity)
    }

    /// Maximum concurrent admissions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn try_acquire(&self) -> bool {
        let mut cur = self.permits.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return false;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    fn release(&self) {
        self.permits.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Per-stream serving options; [`ServeOptions::default`] reproduces the
/// plain blocking loop (no gate, no timeouts, no drain flag).
#[derive(Debug, Default, Clone)]
pub struct ServeOptions {
    /// Reap the connection after this long without framing progress (a
    /// complete line; blank keep-alive lines count). The idle clock is
    /// checked after every read that ends no line, so a drip-fed line
    /// cannot hold the connection. The TCP path sets this window as the
    /// socket read timeout, so a silent peer is reaped between one and two
    /// windows after its last complete line; a reader that blocks forever
    /// can only be reaped at its next read.
    pub idle_timeout: Option<Duration>,
    /// Admission gate shared across connections; `None` admits all.
    pub gate: Option<Arc<Gate>>,
    /// Graceful-drain flag: when it flips true, buffered complete lines
    /// are answered as a final batch and the stream closes.
    pub shutdown: Option<Arc<AtomicBool>>,
}

/// One framed request slot: a complete line, or the kept prefix of a
/// line that blew past [`MAX_LINE_BYTES`] (enough to recover the `id=`).
enum Framed {
    Line(String),
    Oversized(String),
}

/// Framing state that survives partial reads: a slow peer can deliver a
/// line byte by byte across many timeouts without desyncing the protocol.
#[derive(Default)]
struct FrameState {
    /// Bytes of the current (incomplete) line.
    line: Vec<u8>,
    /// Inside an oversized line, discarding up to its newline.
    discarding: bool,
}

/// What a batch read ended with.
enum BatchRead {
    /// A full batch (blank-line flush or [`MAX_BATCH`]): answer and keep
    /// reading.
    Batch(Vec<Framed>),
    /// EOF: answer the final partial batch, then close.
    Eof(Vec<Framed>),
    /// Shutdown flag seen: answer buffered complete lines, then close.
    Drained(Vec<Framed>),
    /// Idle past the timeout: close without a response.
    Reaped,
}

fn bytes_to_line(bytes: &[u8]) -> String {
    // The protocol is UTF-8; corrupted bytes are replaced so the line
    // still reaches the parser and is answered with a structured error
    // instead of killing the connection.
    String::from_utf8_lossy(bytes).into_owned()
}

/// Finish one complete line (newline already stripped of the buffer):
/// returns the framed slot, or `None` for a blank keep-alive line.
fn finish_line(st: &mut FrameState) -> Option<Framed> {
    let mut end = st.line.len();
    while end > 0 && (st.line[end - 1] == b'\n' || st.line[end - 1] == b'\r') {
        end -= 1;
    }
    let framed = if end == 0 {
        None
    } else {
        Some(Framed::Line(bytes_to_line(&st.line[..end])))
    };
    st.line.clear();
    framed
}

/// Truncate an oversized line's kept prefix to 512 bytes on a UTF-8
/// character boundary (enough to recover the `id=`), and reset the state
/// to discard the rest of the wire line.
fn oversize_slot(st: &mut FrameState) -> Framed {
    let text = bytes_to_line(&st.line);
    let cut = (0..=512.min(text.len()))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    st.line.clear();
    st.discarding = true;
    let mut prefix = text;
    prefix.truncate(cut);
    Framed::Oversized(prefix)
}

/// Read one batch, one step at a time. A step takes one line, or the
/// buffered part of one, from `reader`; the partial line survives in `st`
/// across steps and read timeouts. The shutdown flag is checked after
/// every step, and the idle clock after every step that ends no line, so
/// neither a silent peer nor one that drip-feeds a line can hold the
/// connection past the idle window or keep `stop` waiting.
fn read_batch(
    reader: &mut impl BufRead,
    st: &mut FrameState,
    opts: &ServeOptions,
) -> io::Result<BatchRead> {
    let mut batch = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        if draining(opts) {
            return Ok(BatchRead::Drained(batch));
        }
        let (len, eol) = match reader.fill_buf() {
            Ok([]) => {
                // EOF. After `ServerHandle::stop` shut the read half down
                // it is a drain, and a partial line is dropped; from the
                // client, a trailing line without newline still counts.
                if draining(opts) {
                    return Ok(BatchRead::Drained(batch));
                }
                batch.extend(finish_line(st));
                return Ok(BatchRead::Eof(batch));
            }
            Ok(chunk) => {
                let (len, eol) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => (i + 1, true),
                    None => (chunk.len(), false),
                };
                if !st.discarding {
                    st.line.extend_from_slice(&chunk[..len]);
                }
                (len, eol)
            }
            // A read timeout or a signal: no bytes, only the clock moved.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                (0, false)
            }
            Err(e) => return Err(e),
        };
        reader.consume(len);
        let ended_a_line = if st.discarding {
            // The rest of an oversized line, dropped up to its newline.
            st.discarding = !eol;
            eol
        } else if st.line.len() > MAX_LINE_BYTES + usize::from(eol) {
            // One length check guards memory: an over-limit line keeps a
            // short prefix (for id recovery), is answered `too_large`, and
            // the rest of it is discarded to keep the framing alive.
            batch.push(oversize_slot(st));
            st.discarding = !eol;
            true
        } else if eol {
            match finish_line(st) {
                Some(f) => batch.push(f),
                None if !batch.is_empty() => return Ok(BatchRead::Batch(batch)),
                None => {} // a blank keep-alive line
            }
            true
        } else {
            false
        };
        if ended_a_line {
            last_progress = Instant::now();
            if batch.len() >= MAX_BATCH {
                return Ok(BatchRead::Batch(batch));
            }
        } else if opts
            .idle_timeout
            .is_some_and(|t| last_progress.elapsed() >= t)
        {
            return Ok(BatchRead::Reaped);
        }
    }
}

/// Whether the graceful-drain flag is up.
fn draining(opts: &ServeOptions) -> bool {
    opts.shutdown
        .as_ref()
        .is_some_and(|flag| flag.load(Ordering::SeqCst))
}

/// Answer one batch: oversized slots locally, shed slots with
/// `overloaded`, the admitted rest through the router as one executor
/// batch. Response order = request order in every case.
fn answer_batch(
    router: &Router,
    writer: &mut impl Write,
    batch: Vec<Framed>,
    gate: Option<&Gate>,
) -> io::Result<()> {
    let mut responses: Vec<Option<String>> = batch.iter().map(|_| None).collect();
    let mut lines = Vec::with_capacity(batch.len());
    let mut line_slots = Vec::with_capacity(batch.len());
    let mut admitted = 0usize;
    for (i, item) in batch.into_iter().enumerate() {
        match item {
            Framed::Line(l) => {
                if let Some(g) = gate {
                    if !g.try_acquire() {
                        router.conn_stats().shed.fetch_add(1, Ordering::Relaxed);
                        let e = WireError::Overloaded {
                            retry_ms: g.retry_ms(),
                        };
                        // Shed before parse: the flight recorder still gets
                        // a wide event (always logged), under the wire's
                        // own trace id when the request carried one.
                        let tid = wire_trace_id(&l);
                        if let Some(rec) = router.recorder() {
                            let t = tid.unwrap_or_else(ndg_obs::events::next_trace_id);
                            rec.push_wide(
                                t,
                                "shed",
                                vec![
                                    ("id", recovered_id(&l).to_string()),
                                    ("retry_ms", g.retry_ms().to_string()),
                                ],
                                true,
                            );
                        }
                        let mut line = err_line(recovered_id(&l), &e);
                        if let Some(t) = tid {
                            line = crate::codec::insert_after_id(&line, &format!("trace_id={t}"));
                        }
                        responses[i] = Some(line);
                        continue;
                    }
                    admitted += 1;
                }
                line_slots.push(i);
                lines.push(l);
            }
            Framed::Oversized(prefix) => {
                let e = WireError::TooLarge {
                    what: "request line bytes (lower bound)",
                    got: MAX_LINE_BYTES,
                    max: MAX_LINE_BYTES,
                };
                responses[i] = Some(err_line(recovered_id(&prefix), &e));
            }
        }
    }
    let answers = router.handle_batch(&lines);
    if let Some(g) = gate {
        for _ in 0..admitted {
            g.release();
        }
    }
    for (slot, resp) in line_slots.into_iter().zip(answers) {
        responses[slot] = Some(resp);
    }
    for resp in responses {
        writer.write_all(resp.unwrap_or_default().as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

/// The wire's own `trace_id=` field on a raw (possibly unparseable)
/// request line, for attributing shed events that never reach the
/// parser. First occurrence wins; malformed values read as absent.
fn wire_trace_id(line: &str) -> Option<u64> {
    line.split(';')
        .find_map(|f| f.strip_prefix("trace_id="))
        .and_then(|v| v.parse().ok())
}

/// Serve a request stream to a response stream under explicit
/// [`ServeOptions`], returning how the stream ended.
pub fn serve_stream_with(
    router: &Router,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    opts: &ServeOptions,
) -> io::Result<ConnEnd> {
    let mut st = FrameState::default();
    loop {
        let (batch, end) = match read_batch(reader, &mut st, opts)? {
            BatchRead::Batch(b) => (b, None),
            BatchRead::Eof(b) => (b, Some(ConnEnd::Eof)),
            BatchRead::Drained(b) => (b, Some(ConnEnd::Drained)),
            BatchRead::Reaped => return Ok(ConnEnd::Reaped),
        };
        if !batch.is_empty() {
            if let Err(e) = answer_batch(router, writer, batch, opts.gate.as_deref()) {
                // A peer that stopped taking answers: the write timed
                // out, or the drain cut the socket after its grace.
                let stalled = matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                );
                return if stalled || draining(opts) {
                    Ok(ConnEnd::Reaped)
                } else {
                    Err(e)
                };
            }
        }
        if let Some(end) = end {
            return Ok(end);
        }
    }
}

/// Serve a request stream to a response stream until EOF (the stdio mode;
/// also the plain per-connection loop).
pub fn serve_stream(
    router: &Router,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<()> {
    serve_stream_with(router, reader, writer, &ServeOptions::default()).map(|_| ())
}

/// Serve stdin → stdout until EOF.
pub fn serve_stdio(router: &Router) -> io::Result<()> {
    serve_stdio_with(router, &ServeOptions::default())
}

/// [`serve_stdio`] under explicit options (the gate still applies; idle
/// reaping needs a timeout-capable reader, which stdin is not).
pub fn serve_stdio_with(router: &Router, opts: &ServeOptions) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = BufWriter::new(stdout.lock());
    serve_stream_with(router, &mut reader, &mut writer, opts).map(|_| ())
}

/// TCP server configuration.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Reap a connection after this long without framing progress.
    pub idle_timeout: Option<Duration>,
    /// Bound on concurrently solving requests (across connections);
    /// `None` admits everything.
    pub max_inflight: Option<usize>,
    /// `retry_ms` hint attached to shed responses.
    pub retry_ms: u64,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            idle_timeout: None,
            max_inflight: None,
            retry_ms: DEFAULT_RETRY_MS,
        }
    }
}

/// A running TCP server (accept loop + per-connection threads).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves the `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let every connection finish its
    /// buffered complete lines, and join all threads (dropping the handle
    /// does the same).
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The accept thread blocks in `accept`: one connect wakes it,
            // and it sees the flag.
            let _ = TcpStream::connect(wake_addr(self.addr));
            let _ = h.join();
        }
    }
}

/// Where `stop`'s wake-up connect goes: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) mapped to its family's loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn classify_io_end(stats: &ConnStats, e: &io::Error) {
    match e.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => {
            stats.reset.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            stats.errored.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(router: &Router, stream: &TcpStream, opts: &ServeOptions) {
    let stats = router.conn_stats();
    // Reads block until bytes arrive, the idle window passes, or `stop`
    // shuts the read half down. (A zero timeout is invalid for a socket,
    // so a zero window reads as 1 ms.)
    let _ = stream.set_read_timeout(opts.idle_timeout.map(|t| t.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    let end = serve_stream_with(router, &mut reader, &mut writer, opts);
    // Answers a failed write left buffered are dropped, not flushed into
    // a peer that stopped reading.
    drop(writer.into_parts());
    match end {
        Ok(ConnEnd::Eof) => {
            stats.eof.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ConnEnd::Reaped) => {
            stats.reaped.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ConnEnd::Drained) => {
            stats.drained.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            // A dropped connection is routine for a line service; count
            // it and move on.
            classify_io_end(stats, &e);
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:4321`, or port `0` for ephemeral) and
/// serve until the returned handle is stopped/dropped.
pub fn spawn_tcp(router: Arc<Router>, addr: &str) -> io::Result<ServerHandle> {
    spawn_tcp_with(router, addr, TcpOptions::default())
}

/// [`spawn_tcp`] with explicit robustness options.
pub fn spawn_tcp_with(
    router: Arc<Router>,
    addr: &str,
    topts: TcpOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let gate = topts
        .max_inflight
        .map(|cap| Arc::new(Gate::new(cap, topts.retry_ms)));
    if let Some(g) = &gate {
        router.register_gate(g.clone());
    }
    let conn_opts = ServeOptions {
        idle_timeout: topts.idle_timeout,
        gate,
        shutdown: Some(shutdown.clone()),
    };
    let accept_thread = std::thread::Builder::new()
        .name("ndg-serve-accept".into())
        .spawn(move || {
            // Each connection's worker beside a weak handle on its socket:
            // enough to shut the read half down at drain, while a finished
            // worker's socket still closes as soon as the worker drops it.
            let mut workers: Vec<(JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
            loop {
                let accepted = listener.accept();
                if flag.load(Ordering::SeqCst) {
                    // `stop`'s wake-up connect, or a client that raced it:
                    // closed unanswered, like the rest of the backlog.
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        workers.retain(|(h, _)| !h.is_finished());
                        let stream = Arc::new(stream);
                        let live = Arc::downgrade(&stream);
                        let router = router.clone();
                        let opts = conn_opts.clone();
                        if let Ok(h) = std::thread::Builder::new()
                            .name("ndg-serve-conn".into())
                            .spawn(move || handle_connection(&router, &stream, &opts))
                        {
                            workers.push((h, live));
                        }
                    }
                    // A real accept error (say, out of descriptors): back off.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // Drain: stop accepting (the listener drops at scope end), turn
            // every blocked read into EOF, and let each connection answer
            // its buffered complete lines. One still open after the grace
            // is blocked writing to a peer that does not read (or is
            // still solving): cutting its socket both ways fails the
            // write, so every join returns.
            let shut = |how| {
                for (_, live) in &workers {
                    if let Some(stream) = live.upgrade() {
                        let _ = stream.shutdown(how);
                    }
                }
            };
            shut(Shutdown::Read);
            let deadline = Instant::now() + DRAIN_GRACE;
            while Instant::now() < deadline && workers.iter().any(|(h, _)| !h.is_finished()) {
                std::thread::sleep(Duration::from_millis(1));
            }
            shut(Shutdown::Both);
            for (h, _) in workers {
                let _ = h.join();
            }
        })?;
    Ok(ServerHandle {
        addr: local,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_exec::Executor;
    use std::io::Cursor;

    fn router() -> Router {
        Router::new(Executor::new(2), 64)
    }

    const CYCLE4: &str = "broadcast:4:0:0/1/1,1/2/1,2/3/1,3/0/1";

    #[test]
    fn blank_line_flushes_a_batch_and_order_is_preserved() {
        let r = router();
        let input = format!(
            "ndg1;id=q1;method=certify;tree=0,1,2;game={CYCLE4}\n\
             ndg1;id=q2;method=stats\n\
             \n\
             ndg1;id=q3;method=stats\n"
        );
        let mut reader = Cursor::new(input.into_bytes());
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("ok;id=q1;"), "{}", lines[0]);
        assert!(lines[1].starts_with("ok;id=q2;"), "{}", lines[1]);
        assert!(lines[2].starts_with("ok;id=q3;"), "{}", lines[2]);
    }

    #[test]
    fn sessions_outlive_connections() {
        // The session table lives in the router, not the connection: a
        // client that disconnects mid-session resumes on a fresh stream
        // with the same session id, epoch intact.
        let r = router();
        let mut out = Vec::new();
        let open = format!("ndg1;id=s1;method=open;tree=0,1,2;game={CYCLE4}\n");
        serve_stream(&r, &mut Cursor::new(open.into_bytes()), &mut out).unwrap();
        let first = std::str::from_utf8(&out).unwrap().trim_end().to_string();
        assert!(first.starts_with("ok;id=s1;session=s1;epoch=0;"), "{first}");
        // A second, independent "connection" continues the session.
        let mut out2 = Vec::new();
        let cont = "ndg1;id=s2;method=delta;session=s1;epoch=0;delta=patch;edge=3;w=0.5\n\
                    ndg1;id=s3;method=close;session=s1\n";
        serve_stream(&r, &mut Cursor::new(cont.as_bytes().to_vec()), &mut out2).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out2).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("ok;id=s2;session=s1;epoch=1;"),
            "{}",
            lines[0]
        );
        assert!(lines[1].ends_with("closed=1;deltas=1"), "{}", lines[1]);
    }

    #[test]
    fn eof_without_blank_line_still_flushes() {
        let r = router();
        let mut reader = Cursor::new(b"ndg1;id=only;method=stats".to_vec());
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        assert!(std::str::from_utf8(&out)
            .unwrap()
            .starts_with("ok;id=only;"));
    }

    #[test]
    fn oversized_lines_answer_too_large_and_keep_the_id() {
        let r = router();
        let mut input = Vec::new();
        input.extend_from_slice(b"ndg1;id=big1;method=stats;");
        input.resize(MAX_LINE_BYTES + 64, b'x');
        input.extend_from_slice(b"\nndg1;id=after;method=stats\n\n");
        let mut reader = Cursor::new(input);
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("err;id=big1;code=too_large;"),
            "{}",
            lines[0]
        );
        assert!(lines[1].starts_with("ok;id=after;"), "{}", lines[1]);
    }

    #[test]
    fn malformed_lines_get_error_replies_in_place() {
        let r = router();
        let mut reader = Cursor::new(b"not-a-request\nndg1;id=ok1;method=stats\n\n".to_vec());
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("err;id=?;code=bad_tag;"),
            "{}",
            lines[0]
        );
        assert!(lines[1].starts_with("ok;id=ok1;"), "{}", lines[1]);
    }

    #[test]
    fn invalid_utf8_is_answered_structurally_not_fatally() {
        let r = router();
        let mut input = b"ndg1;id=u1;method=stats;junk=".to_vec();
        input.extend_from_slice(&[0xff, 0xfe]);
        input.extend_from_slice(b"\nndg1;id=u2;method=stats\n\n");
        let mut reader = Cursor::new(input);
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("err;id=u1;"), "{}", lines[0]);
        assert!(lines[1].starts_with("ok;id=u2;"), "{}", lines[1]);
    }

    #[test]
    fn gate_sheds_past_capacity_in_request_order() {
        let r = router();
        let opts = ServeOptions {
            gate: Some(Arc::new(Gate::new(2, 75))),
            ..Default::default()
        };
        let input = "ndg1;id=g1;method=stats\n\
                     ndg1;id=g2;method=stats\n\
                     ndg1;id=g3;method=stats\n\
                     ndg1;id=g4;method=stats\n\n";
        let mut reader = Cursor::new(input.as_bytes().to_vec());
        let mut out = Vec::new();
        let end = serve_stream_with(&r, &mut reader, &mut out, &opts).unwrap();
        assert_eq!(end, ConnEnd::Eof);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        // One batch of four against capacity 2: the first two admitted,
        // the last two shed — in request order, with the retry hint.
        assert!(lines[0].starts_with("ok;id=g1;"), "{}", lines[0]);
        assert!(lines[1].starts_with("ok;id=g2;"), "{}", lines[1]);
        for (i, id) in [(2usize, "g3"), (3, "g4")] {
            assert!(
                lines[i].starts_with(&format!("err;id={id};code=overloaded;retry_ms=75;")),
                "{}",
                lines[i]
            );
        }
        assert_eq!(r.conn_stats().shed.load(Ordering::Relaxed), 2);
        // Permits were released: a later batch is admitted again.
        let mut reader = Cursor::new(b"ndg1;id=g5;method=stats\n\n".to_vec());
        let mut out = Vec::new();
        serve_stream_with(&r, &mut reader, &mut out, &opts).unwrap();
        assert!(std::str::from_utf8(&out).unwrap().starts_with("ok;id=g5;"));
    }

    #[test]
    fn drain_flag_answers_buffered_lines_then_closes() {
        let r = router();
        let flag = Arc::new(AtomicBool::new(true)); // already draining
        let opts = ServeOptions {
            shutdown: Some(flag),
            ..Default::default()
        };
        let mut reader = Cursor::new(b"ndg1;id=d1;method=stats\n\n".to_vec());
        let mut out = Vec::new();
        let end = serve_stream_with(&r, &mut reader, &mut out, &opts).unwrap();
        assert_eq!(end, ConnEnd::Drained);
        // The flag was up before anything was buffered: close, no answer.
        assert!(out.is_empty());
        assert_eq!(r.conn_stats().shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn tcp_round_trip_on_ephemeral_port() {
        let handle = spawn_tcp(Arc::new(router()), "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(
            conn,
            "ndg1;id=t1;method=certify;tree=0,1,2;game={CYCLE4}\n\n"
        )
        .unwrap();
        conn.flush().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ok;id=t1;"), "{line}");
        assert!(line.contains("eq=false"), "{line}");
        drop(reader);
        drop(conn);
        handle.stop();
    }

    #[test]
    fn tcp_reaps_idle_connections_and_counts_them() {
        let r = Arc::new(router());
        let handle = spawn_tcp_with(
            r.clone(),
            "127.0.0.1:0",
            TcpOptions {
                idle_timeout: Some(Duration::from_millis(120)),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        // A half-written line with no newline: no framing progress.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"ndg1;id=slow;met").unwrap();
        conn.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while r.conn_stats().reaped.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(r.conn_stats().reaped.load(Ordering::Relaxed), 1);
        // The reaped socket is closed server-side, unanswered: reads return
        // EOF (or a reset, depending on timing), not a timeout.
        let mut buf = [0u8; 8];
        let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
        match io::Read::read(&mut conn, &mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("a reaped connection must read EOF or a reset: {other:?}"),
        }
        handle.stop();
    }

    /// One `stats` round trip on `conn`: afterwards the server has
    /// accepted it and its worker is reading.
    fn stats_round_trip(mut conn: &TcpStream) {
        conn.write_all(b"ndg1;id=rt;method=stats\n\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert!(line.starts_with("ok;id=rt;"), "{line}");
    }

    /// Connect, make one round trip (its blank line is the last complete
    /// line), and start a peer that sends the start of a request, then one
    /// byte every 10 ms and never a newline, until `stop_drip` is set or
    /// the server closes the connection.
    fn drip_feed<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        addr: SocketAddr,
        stop_drip: &'s AtomicBool,
    ) {
        let mut conn = TcpStream::connect(addr).unwrap();
        stats_round_trip(&conn);
        conn.write_all(b"ndg1;id=drip;met").unwrap();
        s.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !stop_drip.load(Ordering::SeqCst) && Instant::now() < deadline {
                if conn.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
    }

    #[test]
    fn tcp_reaps_a_drip_fed_line_within_two_idle_windows() {
        let r = Arc::new(router());
        let window = Duration::from_millis(200);
        let handle = spawn_tcp_with(
            r.clone(),
            "127.0.0.1:0",
            TcpOptions {
                idle_timeout: Some(window),
                ..Default::default()
            },
        )
        .unwrap();
        let stop_drip = AtomicBool::new(false);
        std::thread::scope(|s| {
            // The idle clock starts after the round trip's answer, so no
            // earlier than `sent`.
            let sent = Instant::now();
            drip_feed(s, handle.addr(), &stop_drip);
            let deadline = sent + Duration::from_secs(5);
            while r.conn_stats().reaped.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            let reaped_after = sent.elapsed();
            stop_drip.store(true, Ordering::SeqCst);
            assert_eq!(r.conn_stats().reaped.load(Ordering::Relaxed), 1);
            assert!(
                reaped_after >= window && reaped_after <= 2 * window,
                "reaped {reaped_after:?} after the last complete line"
            );
        });
        handle.stop();
    }

    #[test]
    fn tcp_stop_does_not_wait_for_a_drip_fed_line() {
        let r = Arc::new(router());
        let handle = spawn_tcp(r.clone(), "127.0.0.1:0").unwrap();
        let stop_drip = AtomicBool::new(false);
        std::thread::scope(|s| {
            drip_feed(s, handle.addr(), &stop_drip);
            std::thread::sleep(Duration::from_millis(100)); // mid-drip
            let t0 = Instant::now();
            handle.stop();
            let took = t0.elapsed();
            stop_drip.store(true, Ordering::SeqCst);
            assert!(took < Duration::from_secs(1), "stop took {took:?}");
        });
        // The partial line is dropped, and the connection counts as drained.
        let c = r.conn_stats().snapshot();
        assert_eq!((c.drained, c.eof, c.reaped), (1, 0, 0), "{c:?}");
    }

    #[test]
    fn tcp_stop_cuts_a_peer_that_never_reads() {
        let r = Arc::new(router());
        let handle = spawn_tcp(r.clone(), "127.0.0.1:0").unwrap();
        let conn = TcpStream::connect(handle.addr()).unwrap();
        stats_round_trip(&conn);
        // Send one-line batches whose error answers echo a 7 MiB unknown
        // field, and read none of them. The first answer overflows both
        // socket buffers, so the worker blocks in its write with megabytes
        // left and stops reading; five 200 ms write timeouts in a row
        // here show it.
        let batch = format!("ndg1;id=s;method=stats;{}=1\n\n", "z".repeat(7 << 20));
        conn.set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let (mut at, mut stalls) = (0, 0);
        while stalls < 5 {
            match (&conn).write(&batch.as_bytes()[at..]) {
                Ok(k) => (at, stalls) = ((at + k) % batch.len(), 0),
                Err(_) => stalls += 1,
            }
        }
        let t0 = Instant::now();
        handle.stop();
        let took = t0.elapsed();
        assert!(
            took < DRAIN_GRACE + Duration::from_secs(1),
            "stop took {took:?}"
        );
        let c = r.conn_stats().snapshot();
        assert_eq!(
            (c.reaped, c.drained, c.eof, c.reset, c.errored),
            (1, 0, 0, 0, 0),
            "{c:?}"
        );
    }

    #[test]
    fn tcp_blank_line_keepalive_survives_the_idle_window() {
        let r = Arc::new(router());
        let handle = spawn_tcp_with(
            r.clone(),
            "127.0.0.1:0",
            TcpOptions {
                idle_timeout: Some(Duration::from_millis(150)),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        // Heartbeat blank lines under the idle window, then a request.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(60));
            conn.write_all(b"\n").unwrap();
            conn.flush().unwrap();
        }
        write!(conn, "ndg1;id=alive;method=stats\n\n").unwrap();
        conn.flush().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ok;id=alive;"), "{line}");
        assert_eq!(r.conn_stats().reaped.load(Ordering::Relaxed), 0);
        drop(reader);
        drop(conn);
        handle.stop();
    }

    #[test]
    fn tcp_graceful_drain_counts_connections() {
        let r = Arc::new(router());
        let handle = spawn_tcp(r.clone(), "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let conn = TcpStream::connect(addr).unwrap();
        // A connection still in the backlog at `stop` is closed unanswered
        // and not counted; after a round trip this one has a worker.
        stats_round_trip(&conn);
        handle.stop(); // drains: the idle connection closes server-side
        let drained = r.conn_stats().drained.load(Ordering::Relaxed);
        assert_eq!(drained, 1, "open connection should drain on stop");
        drop(conn);
    }

    #[test]
    fn wake_addr_maps_an_unspecified_ip_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:4321"), "127.0.0.1:4321");
        assert_eq!(wake("[::]:4321"), "[::1]:4321");
        assert_eq!(wake("10.1.2.3:4321"), "10.1.2.3:4321");
    }

    #[test]
    fn concurrent_tcp_clients_share_the_cache() {
        let r = Arc::new(Router::new(Executor::new(2), 256));
        let handle = spawn_tcp(r.clone(), "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        std::thread::scope(|s| {
            for t in 0..3 {
                s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    for i in 0..4 {
                        write!(
                            conn,
                            "ndg1;id=c{t}-{i};method=dynamics;tree=0,1,2;game={CYCLE4}\n\n"
                        )
                        .unwrap();
                        conn.flush().unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        assert!(line.starts_with(&format!("ok;id=c{t}-{i};")), "{line}");
                    }
                });
            }
        });
        let stats = r.cache_stats();
        assert_eq!(stats.hits + stats.misses, 12);
        // Each client's first probe may race the others before any insert
        // lands (all three miss); every later probe must hit.
        assert!(stats.hits >= 9, "12 identical queries: {stats:?}");
        handle.stop();
    }

    #[test]
    fn crlf_terminated_lines_frame_and_a_bare_crlf_flushes() {
        let r = router();
        let mut reader =
            Cursor::new(b"ndg1;id=w1;method=stats\r\nndg1;id=w2;method=stats\r\n\r\n".to_vec());
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("ok;id=w1;"), "{}", lines[0]);
        assert!(lines[1].starts_with("ok;id=w2;"), "{}", lines[1]);
        // No stray carriage returns leak into the responses.
        assert!(!std::str::from_utf8(&out).unwrap().contains('\r'));
    }

    #[test]
    fn oversized_prefix_truncates_on_a_utf8_boundary() {
        // Arrange the 512-byte cut to fall mid-`é`: the head is 29 bytes
        // (odd), so the 2-byte chars start on odd offsets and 512 splits
        // one of them.
        let head = "ndg1;id=mb1;method=stats;pad=";
        assert_eq!(head.len(), 29);
        let mut st = FrameState::default();
        st.line.extend_from_slice(head.as_bytes());
        while st.line.len() < 600 {
            st.line.extend_from_slice("é".as_bytes());
        }
        let Framed::Oversized(prefix) = oversize_slot(&mut st) else {
            panic!("oversize_slot must produce an oversized slot");
        };
        assert_eq!(prefix.len(), 511, "backs up to the char boundary");
        assert!(prefix.is_char_boundary(prefix.len()));
        assert!(st.discarding && st.line.is_empty());
        // End to end: the id survives the truncation and the next request
        // is answered normally.
        let r = router();
        let mut input = head.as_bytes().to_vec();
        while input.len() < MAX_LINE_BYTES + 64 {
            input.extend_from_slice("é".as_bytes());
        }
        input.extend_from_slice(b"\nndg1;id=after;method=stats\n\n");
        let mut reader = Cursor::new(input);
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("err;id=mb1;code=too_large;"),
            "{}",
            lines[0]
        );
        assert!(lines[1].starts_with("ok;id=after;"), "{}", lines[1]);
    }

    #[test]
    fn corrupted_prefixes_still_recover_the_id() {
        // A mangled protocol tag cannot parse, but the intact `id=` field
        // later in the line must still ride on the error reply; an id
        // that is itself mangled falls back to `?`.
        let r = router();
        let mut reader =
            Cursor::new(b"ndgX;id=c9;method=stats\nndg1;id=!!bad!!;method=stats\n\n".to_vec());
        let mut out = Vec::new();
        serve_stream(&r, &mut reader, &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("err;id=c9;code=bad_tag;"),
            "{}",
            lines[0]
        );
        assert!(lines[1].starts_with("err;id=?;"), "{}", lines[1]);
    }
}
