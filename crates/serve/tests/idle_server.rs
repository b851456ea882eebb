//! An idle TCP server makes no wakeups: its accept thread and its
//! connection threads block in the kernel until there is work.
//!
//! This file must hold exactly one test. It reads the voluntary context
//! switches of the server's threads, by thread name, from
//! `/proc/self/task`; as the only test of its own integration-test binary
//! it has the process to itself, so no other test's server threads are
//! counted.
#![cfg(target_os = "linux")]

use ndg_exec::Executor;
use ndg_serve::{spawn_tcp, Router};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Voluntary context switches of every thread of this process, keyed by
/// thread name (the kernel keeps the first 15 bytes of it).
fn voluntary_switches() -> HashMap<String, Vec<u64>> {
    let mut by_name: HashMap<String, Vec<u64>> = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
                .unwrap()
                .to_string()
        };
        let switches = field("voluntary_ctxt_switches:").parse().unwrap();
        by_name.entry(field("Name:")).or_default().push(switches);
    }
    by_name
}

#[test]
fn an_idle_server_makes_no_wakeups() {
    let handle = spawn_tcp(
        Arc::new(Router::new(Executor::sequential(), 64)),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.write_all(b"ndg1;id=s;method=stats\n\n").unwrap();
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line).unwrap();
    assert!(line.starts_with("ok;id=s;"), "{line}");
    std::thread::sleep(Duration::from_millis(50));
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(300));
    let after = voluntary_switches();
    for name in ["ndg-serve-accep", "ndg-serve-conn"] {
        let (Some([b]), Some([a])) = (
            before.get(name).map(Vec::as_slice),
            after.get(name).map(Vec::as_slice),
        ) else {
            panic!("expected one `{name}` thread: {before:?} then {after:?}");
        };
        assert!(
            a - b <= 2,
            "idle `{name}` thread woke {} times in 300 ms",
            a - b
        );
    }
    drop(conn);
    handle.stop();
}
