//! `/proc` reader: CPU time per thread group (attributed by thread-name
//! prefix), the process's peak resident set and its open-file limit.
//!
//! Parsing is split from reading so the parsers can be tested against
//! captured fixtures. Every reader returns `None` where `/proc` is absent or
//! unreadable, so a metric is reported as `null` rather than as a false 0.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; std offers no
/// `sysconf` to ask.
const TICKS_PER_SECOND: u64 = 100;

/// Thread-name prefix of the service's own threads (`vaq-service-reactor`,
/// `vaq-service-accept`, `vaq-service-worker-N`). The kernel cuts `comm` to
/// 15 bytes, which keeps the 12-byte prefix intact.
pub const SERVER_PREFIX: &str = "vaq-service-";

/// Thread-name prefix of the benchmark's load threads.
pub const CLIENT_PREFIX: &str = "bench-client-";

/// One thread's name and accumulated CPU time.
#[derive(Debug, PartialEq, Eq)]
pub struct ThreadCpu {
    pub comm: String,
    pub cpu_ns: u64,
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line into the thread's `comm`
/// and `utime + stime`.
///
/// `comm` is wrapped in parentheses and may itself contain spaces and
/// parentheses, so the fields are counted from the *last* `)`: after it come
/// `state` (field 3) onwards, which puts `utime` and `stime` (fields 14 and
/// 15) at offsets 11 and 12.
pub fn parse_stat(line: &str) -> Option<ThreadCpu> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some(ThreadCpu {
        comm,
        cpu_ns: (utime + stime) * (1_000_000_000 / TICKS_PER_SECOND),
    })
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: its first field is the time
/// the thread has spent on a CPU, in nanoseconds. It is the same clock
/// `utime + stime` are scaled to, without their 10 ms granularity, which
/// matters when a one-second window of a lightly used thread is read.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Parses the `VmHWM` line of `/proc/<pid>/status` into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU nanoseconds accumulated so far by the live threads of this process
/// whose name starts with each prefix. Threads that have exited are not
/// listed by the kernel, so callers sample while the threads they care
/// about are alive, not after joining them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuSample {
    pub server_ns: u64,
    pub client_ns: u64,
}

impl CpuSample {
    /// Sums a set of parsed thread rows by name prefix.
    pub fn from_threads(threads: &[ThreadCpu]) -> CpuSample {
        let sum = |prefix: &str| -> u64 {
            threads
                .iter()
                .filter(|t| t.comm.starts_with(prefix))
                .map(|t| t.cpu_ns)
                .sum()
        };
        CpuSample {
            server_ns: sum(SERVER_PREFIX),
            client_ns: sum(CLIENT_PREFIX),
        }
    }

    /// What was spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            server_ns: self.server_ns.saturating_sub(earlier.server_ns),
            client_ns: self.client_ns.saturating_sub(earlier.client_ns),
        }
    }

    /// Reads every thread of this process; `None` where `/proc` is absent.
    pub fn read() -> Option<CpuSample> {
        let mut threads = Vec::new();
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let dir = entry.ok()?.path();
            // A thread may exit between the listing and the read.
            let Some(mut row) = fs::read_to_string(dir.join("stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
            else {
                continue;
            };
            // Kernels built without scheduler statistics keep the ticks.
            if let Some(ns) = fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| parse_schedstat(&s))
            {
                row.cpu_ns = ns;
            }
            threads.push(row);
        }
        Some(CpuSample::from_threads(&threads))
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; `None` where `/proc` is
/// absent.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string("/proc/self/status").ok()?)
}

/// The soft limit on open files, from `/proc/self/limits`.
pub fn open_file_limit() -> Option<usize> {
    let limits = fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_ascii_whitespace().nth(3)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a running `vaq_bench` (Linux 6.x): a service worker whose
    // 19-byte name the kernel cut to 15, a load thread, and the main thread.
    const STAT_WORKER: &str =
        "4121 (vaq-service-wor) S 4100 4121 4100 34816 4121 4194368 312 0 0 0 \
        187 45 0 0 20 0 9 0 8123456 512000000 9000 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 \
        0 -1 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
    const STAT_CLIENT: &str = "4125 (bench-client-1) R 4100 4121 4100 34816 4121 4194368 90 0 0 0 \
        260 71 0 0 20 0 9 0 8123460 512000000 9000 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 \
        0 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 0";
    const STAT_MAIN: &str = "4100 (vaq_bench) S 4000 4100 4000 34816 4100 4194304 5000 0 0 0 \
        620 12 0 0 20 0 9 0 8123400 512000000 9000 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 \
        0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
    const STATUS: &str = "Name:\tvaq_bench\nUmask:\t0022\nState:\tS (sleeping)\nVmPeak:\t  \
        512000 kB\nVmSize:\t  500000 kB\nVmHWM:\t   36864 kB\nVmRSS:\t   30000 kB\nThreads:\t9\n";

    #[test]
    fn stat_fields_are_counted_from_the_closing_parenthesis() {
        assert_eq!(
            parse_stat(STAT_WORKER),
            Some(ThreadCpu {
                comm: "vaq-service-wor".into(),
                cpu_ns: (187 + 45) * 10_000_000
            })
        );
        // A name holding spaces and a parenthesis must not shift the fields.
        let odd = STAT_CLIENT.replace("bench-client-1", "odd ) name");
        assert_eq!(
            parse_stat(&odd).map(|t| t.cpu_ns),
            Some((260 + 71) * 10_000_000)
        );
        assert_eq!(parse_stat("4100 (short) S 1 2"), None);
        assert_eq!(parse_stat(""), None);
    }

    #[test]
    fn cpu_is_attributed_by_name_prefix() {
        let threads: Vec<ThreadCpu> = [STAT_WORKER, STAT_CLIENT, STAT_MAIN]
            .iter()
            .filter_map(|l| parse_stat(l))
            .collect();
        let sample = CpuSample::from_threads(&threads);
        assert_eq!(sample.server_ns, (187 + 45) * 10_000_000);
        assert_eq!(sample.client_ns, (260 + 71) * 10_000_000);
    }

    #[test]
    fn schedstat_leads_with_on_cpu_nanoseconds() {
        assert_eq!(
            parse_schedstat("2319004721 81223346 18842\n"),
            Some(2_319_004_721)
        );
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn peak_rss_comes_from_vm_hwm() {
        assert_eq!(parse_vm_hwm_mib(STATUS), Some(36.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }
}
