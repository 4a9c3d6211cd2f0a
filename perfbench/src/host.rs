//! What the benchmark knows about the machine it runs on, and the process
//! resources it reads from `/proc`.
//!
//! Results carry the host's shape so that numbers from hosts of different
//! shapes are never compared as if they were alike.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every architecture the repo builds for).
const TICKS_PER_SEC: u64 = 100;

/// The host stamp printed with every result.
pub struct Host {
    /// Cores the process may use.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or why it is unknown.
    pub git_rev: String,
}

impl Host {
    /// Probe the host.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev(),
        }
    }
}

/// Commit of the working directory's own `.git`, if it has one. `GIT_DIR`
/// pins the lookup so a checkout nested in another repository does not
/// report that repository's commit.
fn git_rev() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown (not a git checkout)".to_string(),
    }
}

/// User plus system CPU time of the whole process so far (all threads,
/// including exited ones), at the kernel's 10 ms tick resolution.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated. utime and stime are fields 14, 15.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = after.split(' ').collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 1000 / TICKS_PER_SEC)
}

/// CPU accounting at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    /// When it was read.
    pub at: Instant,
    /// Ticks, summed over the machine's CPUs, in which a CPU wanted to run
    /// but the hypervisor ran another guest (`steal` in `/proc/stat`).
    pub steal: u64,
    /// All ticks summed over the machine's CPUs.
    pub total: u64,
    /// This process's CPU time.
    pub process: Duration,
}

/// Read the machine's and the process's CPU accounting now.
pub fn cpu_sample() -> CpuSample {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("/proc/stat starts with the cpu line")
        .split_whitespace()
        .map(|t| t.parse().expect("tick count"))
        .collect();
    CpuSample {
        at: Instant::now(),
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().take(8).sum(),
        process: process_cpu(),
    }
}

/// Interval between [`CpuSampler`] readings.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Reads [`cpu_sample`] every [`SAMPLE_EVERY`] on a background thread,
/// so a run can tell which of its windows the hypervisor stole CPU from.
pub struct CpuSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<CpuSample>>,
}

impl CpuSampler {
    /// Start sampling.
    pub fn start() -> CpuSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-cpu-sampler".into())
            .spawn(move || {
                let mut samples = vec![cpu_sample()];
                // Relaxed: the flag publishes no other data; the join
                // below orders the samples.
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    samples.push(cpu_sample());
                }
                samples
            })
            .expect("spawn the CPU sampler");
        CpuSampler { stop, handle }
    }

    /// Stop sampling and return the samples, oldest first.
    pub fn finish(self) -> Vec<CpuSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("CPU sampler thread")
    }
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_resources_are_readable_and_monotone() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() >= before);
        assert!(peak_rss_mb() > 0.0);
    }
}
