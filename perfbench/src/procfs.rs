//! Readers for the Linux `/proc` files the benchmark samples: a
//! process's CPU time and peak RSS, and the host's stolen CPU time.

use std::fs;

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every architecture the server runs on).
pub const USER_HZ: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fields after the last ')' start at field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Host-wide CPU time from the aggregate `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Sum of every time field, ticks.
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl HostCpu {
    /// Share of the host's CPU time between `self` and `later` that was
    /// stolen by the hypervisor.
    pub fn steal_share_until(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parse the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user/nice, so it is left out.
    let total = values.iter().take(8).sum();
    Some(HostCpu {
        total,
        steal: *values.get(7)?,
    })
}

/// CPU seconds (user + system) a live process has used so far.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&text).map(|t| t as f64 / USER_HZ)
}

/// Peak resident set of a live process, MiB.
pub fn process_peak_rss_mib(pid: u32) -> Option<f64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&text).map(|k| k as f64 / 1024.0)
}

/// The host's CPU time counters right now.
pub fn host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_odd_command_names() {
        let stat = "4242 (ndg (serve) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 269 0 0 20 0 5 0 99 123456 789 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_cpu_ticks("7 (short) S 1"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tndg-serve\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn steal_share_is_a_share_of_all_time_fields() {
        let a = parse_host_cpu("cpu  100 0 50 800 0 0 0 50 7 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            a,
            HostCpu {
                total: 1000,
                steal: 50
            }
        );
        let b = parse_host_cpu("cpu  200 0 100 1500 0 0 0 200 9 0\n").unwrap();
        // 1000 more ticks in all, 150 of them stolen.
        assert!((a.steal_share_until(&b) - 0.15).abs() < 1e-12);
        assert_eq!(a.steal_share_until(&a), 0.0);
        assert_eq!(parse_host_cpu("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let pid = std::process::id();
        assert!(process_cpu_s(pid).is_some());
        assert!(process_peak_rss_mib(pid).unwrap() > 0.0);
        assert!(host_cpu().unwrap().total > 0);
    }
}
