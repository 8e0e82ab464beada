//! The environment a run records: host, commit and program defaults.

use std::hint::black_box;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Variables that move the program off its defaults. A run refuses them,
/// so every run measures the same kernel configuration.
const OVERRIDES: [&str; 2] = ["PERFORMA_THREADS", "PERFORMA_PAR_MIN_FLOPS"];

pub fn refuse_overrides() -> Result<(), String> {
    match OVERRIDES.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!(
            "{v} is set; the benchmark runs the program at its defaults"
        )),
        None => Ok(()),
    }
}

/// One line naming the host, the commit and the kernel configuration.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env nproc={nproc} cpu=\"{}\" git={} kernel_threads={} par_min_flops={}",
        cpu_model(),
        git_sha(),
        performa_linalg::threading::threads(),
        performa_linalg::threading::par_min_flops(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git.
fn git_sha() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A set of CPUs the calling thread may run on (`cpu_set_t`).
#[derive(Debug, Clone, Copy)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The calling thread's affinity, if the kernel reports it.
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `sched_getaffinity` writes at most `size` bytes, the
        // size of the local array it is given.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// The CPUs in the set, in order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 64)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// The set holding `cpu` alone.
    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set
    }

    /// Restricts the calling thread to the set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `sched_setaffinity` reads `size` bytes from a valid
        // pointer to the set's array.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!("sched_setaffinity failed ({rc})"))
        }
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the process has run, summed over its threads.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a valid pointer to a local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall-clock seconds since the first call.
pub fn wall_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The clock a workload's set-ups, ops and spans are timed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// CPU seconds of the process. On a shared VM the hypervisor takes
    /// the vCPU away (steal time) for a share of the wall clock that
    /// changes from minute to minute; the guest kernel leaves that time
    /// out of the CPU clock. For an op that runs on the client thread
    /// alone and does no I/O, this is its latency less steal.
    Cpu,
    /// Wall-clock seconds: latency as a caller sees it, with I/O waits
    /// and the work of every thread the op fans out to.
    Wall,
}

impl Clock {
    pub fn now(self) -> f64 {
        match self {
            Clock::Cpu => cpu_s(),
            Clock::Wall => wall_s(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Clock::Cpu => "CPU",
            Clock::Wall => "wall",
        }
    }
}

/// Wall-clock milliseconds of a fixed scalar loop that calls no program
/// code. Timed at the start and end of every run, so a run on a slow or
/// oversubscribed host shows as one.
pub fn host_probe_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
