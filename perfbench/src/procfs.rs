//! Readers for the Linux `/proc` files the benchmark's resource and
//! noise metrics come from. Each parser takes the file's text so the
//! tests can feed it fixed samples.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields. Linux
/// fixes `USER_HZ` at 100 on every architecture this runs on.
pub const TICKS_PER_SEC: f64 = 100.0;

/// Host-wide CPU tick counters from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostTicks {
    /// Ticks spent running anything (user, nice, system, irq, softirq).
    pub busy: u64,
    /// Ticks the hypervisor ran another guest while this one wanted
    /// to run.
    pub steal: u64,
    /// Every tick accounted, idle and iowait included.
    pub total: u64,
}

impl HostTicks {
    /// The counters accumulated between `self` and a later sample.
    pub fn delta(self, later: HostTicks) -> HostTicks {
        HostTicks {
            busy: later.busy.saturating_sub(self.busy),
            steal: later.steal.saturating_sub(self.steal),
            total: later.total.saturating_sub(self.total),
        }
    }

    /// Steal as a percentage of all ticks (0 when nothing elapsed).
    pub fn steal_pct(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.steal as f64 / self.total as f64
        }
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`: `user nice system
/// idle iowait irq softirq steal [guest guest_nice]`. Guest time is
/// already counted inside user/nice, so it is not added again.
pub fn parse_host_ticks(text: &str) -> Option<HostTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> =
        line.split_whitespace().skip(1).map(|v| v.parse().ok()).collect::<Option<_>>()?;
    if f.len() < 8 {
        return None;
    }
    let (user, nice, system, idle, iowait, irq, softirq, steal) =
        (f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]);
    let busy = user + nice + system + irq + softirq;
    Some(HostTicks { busy, steal, total: busy + idle + iowait + steal })
}

/// Parses `utime + stime` (fields 14 and 15, in ticks) of a
/// `/proc/<pid>/stat` line. The command name in field 2 may contain
/// spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_pid_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Parses the first field of a `schedstat` file: nanoseconds the task
/// has run on a CPU.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Parses a kernel CPU list such as `0-3,8,10-11` (the
/// `Cpus_allowed_list` line of `/proc/<pid>/status`).
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .filter(|cpus| !cpus.is_empty())
        .ok_or_else(|| "/proc/self/status: no Cpus_allowed_list".to_string())
}

/// Current host tick counters.
pub fn host_ticks() -> Result<HostTicks, String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_host_ticks(&text).ok_or_else(|| "/proc/stat: no parsable cpu line".to_string())
}

/// CPU seconds a process (all its threads, live and exited) has used.
pub fn process_cpu_secs(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = parse_pid_cpu_ticks(&text).ok_or_else(|| format!("{path}: unparsable"))?;
    Ok(ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set of a process, MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib = parse_vm_hwm_kib(&text).ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kib as f64 / 1024.0)
}

/// CPU seconds the calling thread has run, at nanosecond resolution.
/// The benchmark drives its client from one thread, so this is the
/// client's CPU without the 10 ms granularity of `/proc/self/stat`.
pub fn thread_cpu_secs() -> Result<f64, String> {
    let path = "/proc/thread-self/schedstat";
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ns = parse_schedstat_ns(&text).ok_or_else(|| format!("{path}: unparsable"))?;
    Ok(ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_ticks_sum_busy_and_total_and_diff_steal() {
        let before = parse_host_ticks(
            "cpu  100 5 50 1000 20 3 2 7 0 0\ncpu0 50 2 25 500 10 1 1 3 0 0\nintr 1\n",
        )
        .unwrap();
        assert_eq!(before, HostTicks { busy: 160, steal: 7, total: 1187 });
        let after = parse_host_ticks("cpu  150 5 70 1100 20 3 2 57 4 0\n").unwrap();
        let d = before.delta(after);
        assert_eq!(d, HostTicks { busy: 70, steal: 50, total: 220 });
        assert!((d.steal_pct() - 100.0 * 50.0 / 220.0).abs() < 1e-12);
        assert_eq!(HostTicks::default().steal_pct(), 0.0);
        // A counter that went backwards (a reset) never underflows.
        assert_eq!(after.delta(before).busy, 0);
    }

    #[test]
    fn host_ticks_reject_short_or_missing_lines() {
        assert_eq!(parse_host_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_ticks("cpu  1 2 x 4 5 6 7 8\n"), None);
    }

    #[test]
    fn pid_stat_cpu_counts_fields_after_the_command_name() {
        // The command name holds spaces and a ')' of its own.
        let line = "4242 (trajdp (serve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 9 0 777 100000 2000 18446744073709551615";
        assert_eq!(parse_pid_cpu_ticks(line), Some(1234 + 56));
        assert_eq!(parse_pid_cpu_ticks("4242 (short) S 1 2"), None);
        assert_eq!(parse_pid_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_and_schedstat_parse() {
        let status = "Name:\ttrajdp\nVmPeak:\t  90000 kB\nVmHWM:\t   41236 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(41236));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_schedstat_ns("841667 157078 2\n"), Some(841667));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5,7-8"), Some(vec![0, 1, 2, 5, 7, 8]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(!allowed_cpus().unwrap().is_empty());
        let pid = std::process::id();
        assert!(process_cpu_secs(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
        assert!(thread_cpu_secs().unwrap() > 0.0);
        let t = host_ticks().unwrap();
        assert!(t.total >= t.busy + t.steal);
    }
}
