//! Counters the kernel keeps for free: per-thread CPU and run-queue wait
//! (`/proc/self/task/*/schedstat`), the calling thread's CPU clock,
//! block-device writes (`/proc/self/io`), peak resident memory (`VmHWM`),
//! and the filesystem a path lives on.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::stats::{parse_schedstat, SchedStat};

/// Per-thread scheduler counters of this process, keyed by thread id.
#[derive(Clone, Debug, Default)]
pub struct ThreadSnapshot {
    threads: BTreeMap<u64, (String, SchedStat)>,
}

/// CPU and run-queue wait of one group of threads over a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCpu {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl ThreadSnapshot {
    /// Reads every thread of this process.  Fails when schedstat is
    /// missing: the benchmark refuses to report CPU it cannot measure.
    pub fn take() -> Result<ThreadSnapshot, String> {
        let mut threads = BTreeMap::new();
        let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        for entry in dir {
            let entry = entry.map_err(|e| format!("/proc/self/task: {e}"))?;
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
                continue;
            };
            // A thread may exit between the listing and the reads.
            let (Ok(comm), Ok(line)) = (
                fs::read_to_string(entry.path().join("comm")),
                fs::read_to_string(entry.path().join("schedstat")),
            ) else {
                continue;
            };
            let stat = parse_schedstat(&line)
                .ok_or_else(|| format!("unparsable schedstat for thread {tid}: {line:?}"))?;
            threads.insert(tid, (comm.trim().to_string(), stat));
        }
        if threads.is_empty() {
            return Err("no thread has a readable /proc/self/task/*/schedstat".into());
        }
        Ok(ThreadSnapshot { threads })
    }

    /// Counter deltas since `earlier` of the threads whose name satisfies
    /// `pick`.  A thread born inside the window counts from zero.
    pub fn since(&self, earlier: &ThreadSnapshot, pick: impl Fn(&str) -> bool) -> GroupCpu {
        let mut sum = GroupCpu::default();
        for (tid, (name, stat)) in &self.threads {
            if !pick(name) {
                continue;
            }
            let base = match earlier.threads.get(tid) {
                Some((old_name, old)) if old_name == name => *old,
                _ => SchedStat::default(),
            };
            let d = stat.since(&base);
            sum.run_ns += d.run_ns;
            sum.wait_ns += d.wait_ns;
        }
        sum
    }

    /// Number of threads whose name satisfies `pick`.
    pub fn count(&self, pick: impl Fn(&str) -> bool) -> usize {
        self.threads.values().filter(|(name, _)| pick(name)).count()
    }
}

/// Thread-name classes of the deployed stack.
pub fn is_worker(name: &str) -> bool {
    name.starts_with("abcast-tcp-p") && name != "abcast-tcp-poll"
}

pub fn is_poller(name: &str) -> bool {
    name == "abcast-tcp-poll"
}

pub fn is_compactor(name: &str) -> bool {
    name == "wal-compactor"
}

/// CPU time of the calling thread so far, in ns
/// (`CLOCK_THREAD_CPUTIME_ID`): the same clock schedstat's run time
/// counts, so handler CPU and thread CPU compare like with like.
pub fn thread_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and this clock id exists on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Machine-wide CPU time stolen by the hypervisor, in clock ticks
/// (`/proc/stat`): other tenants' load shows up here, not in schedstat.
pub fn steal_ticks() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no steal field in /proc/stat".into())
}

/// Bytes this process caused to be written to the block layer.
pub fn io_write_bytes() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    field(&text, "write_bytes:").ok_or_else(|| "no write_bytes in /proc/self/io".into())
}

/// Peak resident set size of this process, in KiB.
pub fn vm_hwm_kb() -> Result<u64, String> {
    status_kb("VmHWM:")
}

/// Current resident set size of this process, in KiB.
pub fn vm_rss_kb() -> Result<u64, String> {
    status_kb("VmRSS:")
}

fn status_kb(name: &str) -> Result<u64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    field(&text, name).ok_or_else(|| format!("no {name} in /proc/self/status"))
}

fn field(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> Result<String, String> {
    let path = fs::canonicalize(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let info = fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("/proc/self/mountinfo: {e}"))?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> <src> <opts>"
        let mut halves = line.splitn(2, " - ");
        let (Some(head), Some(tail)) = (halves.next(), halves.next()) else {
            continue;
        };
        let Some(mount) = head.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split_whitespace().next() else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .ok_or_else(|| format!("no mount holds {}", path.display()))
}
