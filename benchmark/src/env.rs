//! What the run ran on, and what the operating system says it cost.

use std::path::Path;

/// glibc malloc settings every measuring process runs under.
///
/// Left to itself glibc moves its mmap and trim thresholds as the program
/// frees large blocks, and where they settle differs from run to run: the
/// same `result-heavy` code measured 42-48 q/s with ~3.3 M minor faults in
/// one process and 101-128 q/s with ~12 k in the next. Fixed thresholds
/// make a run repeat; the churn that remains shows in
/// `proc.minor_faults_per_op`.
pub const ALLOCATOR_ENV: [(&str, &str); 3] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "268435456"),
    ("MALLOC_TOP_PAD_", "16777216"),
];

/// True when this process already runs under [`ALLOCATOR_ENV`].
pub fn allocator_pinned() -> bool {
    ALLOCATOR_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
}

/// Cumulative cost counters of this process, from procfs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User CPU seconds, all threads, exited ones included.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Minor page faults, all threads.
    pub minor_faults: u64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
}

/// Kernel clock ticks per second: `USER_HZ`, 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

impl ProcSample {
    /// Reads `/proc/self`. Take both samples of a window while the same
    /// threads are alive: context switches are summed over live threads.
    pub fn now() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may itself
        // hold spaces: state is field 3, so minflt(10), utime(14) and
        // stime(15) sit at 7, 11 and 12 of the remainder.
        let rest: Vec<&str> = stat
            .rsplit_once(") ")
            .map(|(_, r)| r.split_whitespace().collect())
            .unwrap_or_default();
        let num = |i: usize| rest.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        let mut ctx = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                let text = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
                ctx += status_field(&text, "voluntary_ctxt_switches").unwrap_or(0)
                    + status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
        ProcSample {
            user_s: num(11) as f64 / TICKS_PER_S,
            sys_s: num(12) as f64 / TICKS_PER_S,
            minor_faults: num(7),
            ctx_switches: ctx,
        }
    }

    /// Counter-wise difference since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => total += dir_bytes(&e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| t.lines().next().map(|l| l.trim().to_owned()))
}

/// The commit the checkout is at, when it is a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// The machine half of the run record: commit, cores, host, allocator.
pub fn host_record() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown cpu".to_owned());
    let kernel = first_line("/proc/sys/kernel/osrelease").unwrap_or_default();
    let hostname = first_line("/proc/sys/kernel/hostname").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let allocator = ALLOCATOR_ENV
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        ("commit".to_owned(), commit()),
        ("nproc".to_owned(), nproc.to_string()),
        (
            "host".to_owned(),
            format!("{hostname}, {cpu}, Linux {kernel}"),
        ),
        (
            "allocator".to_owned(),
            format!(
                "glibc malloc, {allocator}{}",
                if allocator_pinned() {
                    ""
                } else {
                    " (NOT in effect)"
                }
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(text, "VmHWM"), Some(204_800));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(text, "VmRSS"), None);
    }

    #[test]
    fn proc_sample_reads_this_process() {
        let a = ProcSample::now();
        let mut v = vec![0u8; 8 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = 1;
        }
        std::hint::black_box(&v);
        let d = ProcSample::now().since(&a);
        assert!(d.minor_faults > 0, "touching 8 MiB faults pages in");
        assert!(peak_rss_mib() > 1.0);
    }
}
