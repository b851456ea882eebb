//! The system under test as a client sees it: a spawned `ndg-serve`
//! process and one TCP connection to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Server flags: an ephemeral port and one executor worker; every other
/// flag stays at its default.
pub const SERVER_ARGS: [&str; 4] = ["--tcp", "127.0.0.1:0", "--threads", "1"];

/// Longest wait for any one response line before the run is abandoned.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `ndg-serve --tcp` child process, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Keeps the server's stdout pipe open for the life of the process.
    _stdout: BufReader<ChildStdout>,
    /// The bound address the server announced.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `bin` with [`SERVER_ARGS`] and wait for its listening line.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(SERVER_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server._stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("ndg-serve: listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected server banner {line:?}")))?;
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Response lines of a phase, kept in one growing text buffer.
#[derive(Default)]
pub struct Arena {
    text: String,
    ends: Vec<usize>,
}

impl Arena {
    /// Number of lines held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Line `i`, without its newline.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        self.text[start..self.ends[i]].trim_end_matches(['\n', '\r'])
    }
}

/// One closed-loop client connection (`TCP_NODELAY`, one write per batch).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    wire: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            wire: Vec::new(),
        })
    }

    /// Send `lines` as one batch in a single write and read one response
    /// line per request into `arena`. `arrivals` gets, per line, the µs
    /// from the start of the write to the read of that line. A batch of
    /// [`ndg_serve::server::MAX_BATCH`] lines is flushed by the server on
    /// its own; shorter ones end with a blank line.
    pub fn exchange(
        &mut self,
        lines: &[String],
        arena: &mut Arena,
        arrivals: &mut Vec<f64>,
    ) -> io::Result<()> {
        self.wire.clear();
        for l in lines {
            self.wire.extend_from_slice(l.as_bytes());
            self.wire.push(b'\n');
        }
        if lines.len() < ndg_serve::server::MAX_BATCH {
            self.wire.push(b'\n');
        }
        let t0 = Instant::now();
        self.writer.write_all(&self.wire)?;
        for _ in lines {
            if self.reader.read_line(&mut arena.text)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-batch",
                ));
            }
            arrivals.push(t0.elapsed().as_secs_f64() * 1e6);
            arena.ends.push(arena.text.len());
        }
        Ok(())
    }
}
