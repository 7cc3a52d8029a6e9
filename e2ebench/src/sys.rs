//! Readings of the process and its host: resident memory, the noise
//! diagnostics printed beside every run (run-queue wait, host steal and
//! minor faults from `/proc`).
//!
//! Every reader returns 0 when its file is missing or malformed, so the
//! benchmark still runs (with empty diagnostics) off Linux.

use std::collections::BTreeMap;

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Current resident set size, KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Resident set size after the allocator has returned its free pages to
/// the OS, KiB: live memory, without the megabytes a just-freed buffer
/// may still hold.
pub fn settled_rss_kb() -> u64 {
    // SAFETY: glibc's `malloc_trim` takes a byte count, returns an int,
    // and only releases memory no allocation is using; it is safe to
    // call from any thread at any time.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    rss_kb()
}

/// Peak resident set size of the process, KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Minor page faults of the whole process so far.
fn minor_faults() -> u64 {
    // Field 10 of /proc/self/stat; the command name (field 2) may hold
    // spaces, so count from the closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(7)).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// (steal ticks, total ticks) of the host's aggregate `cpu` line.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user/nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Run-queue wait (ns) of every thread of this process, by thread id.
fn thread_waits() -> BTreeMap<u64, u64> {
    let mut waits = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return waits;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let sched = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        if let Some(wait) = sched.split_whitespace().nth(1).and_then(|v| v.parse().ok()) {
            waits.insert(tid, wait);
        }
    }
    waits
}

/// Run-queue wait (ns) of the calling thread so far. Threads that exit
/// before the end of a measured phase report their own wait with this.
pub fn own_runq_wait_ns() -> u64 {
    let sched = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    sched.split_whitespace().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// A point-in-time reading of the noise sources.
#[derive(Debug, Clone, Default)]
pub struct NoiseMark {
    waits: BTreeMap<u64, u64>,
    steal: u64,
    ticks: u64,
    minflt: u64,
}

impl NoiseMark {
    /// Read every noise source now.
    pub fn now() -> Self {
        let (steal, ticks) = host_ticks();
        NoiseMark { waits: thread_waits(), steal, ticks, minflt: minor_faults() }
    }

    /// What happened between `self` and a later `end` reading.
    ///
    /// Threads that started after `self` count from zero; threads that
    /// already exited are missing from `end` and must report their own
    /// wait (`exited_wait_ns`, see [`own_runq_wait_ns`]).
    pub fn until(&self, end: &NoiseMark, exited_wait_ns: u64) -> Noise {
        let runq_wait_ns = end
            .waits
            .iter()
            .map(|(tid, wait)| wait.saturating_sub(self.waits.get(tid).copied().unwrap_or(0)))
            .sum::<u64>()
            + exited_wait_ns;
        let ticks = end.ticks.saturating_sub(self.ticks);
        let steal = end.steal.saturating_sub(self.steal);
        Noise {
            runq_wait_ms: runq_wait_ns as f64 / 1e6,
            steal_share: if ticks == 0 { 0.0 } else { steal as f64 / ticks as f64 },
            minor_faults: end.minflt.saturating_sub(self.minflt),
        }
    }
}

/// Noise over one measured phase: diagnostics, not metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// Time this process's threads spent runnable but not running.
    pub runq_wait_ms: f64,
    /// Share of the host's CPU ticks stolen by the hypervisor.
    pub steal_share: f64,
    /// Minor page faults taken by this process.
    pub minor_faults: u64,
}
