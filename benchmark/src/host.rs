//! The host: what machine produced a number, and whether it held still
//! while producing it.

use ddc_server::Json;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// A calibration reading after a workload further than this from the one
/// before it (as a share of the faster) stamps the run `host_unstable`.
pub const MAX_CALIB_DRIFT: f64 = 0.10;

pub struct Host {
    /// CPU the whole process is pinned to, when pinning worked.
    pub pinned_cpu: Option<usize>,
    pub nproc: usize,
    pub backend: &'static str,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    /// Pins the process, then looks around. Call before any thread exists.
    pub fn probe() -> Host {
        // CPUs the host offers, counted before the mask shrinks to one.
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        Host {
            pinned_cpu: pin_to_one_cpu(),
            nproc,
            backend: ddc_linalg::kernels::backend_name(),
            rustc: tool_line("rustc", &["--version"]),
            git_rev: tool_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("pinned_cpu", self.pinned_cpu.map_or(Json::Null, Json::from)),
            ("nproc", Json::from(self.nproc)),
            ("backend", Json::from(self.backend)),
            ("rustc", Json::from(self.rustc.as_str())),
            ("git_rev", Json::from(self.git_rev.as_str())),
        ])
    }
}

/// Pins the calling thread — and every thread spawned after it, which
/// inherit the mask — to the first CPU it is allowed on.
///
/// With the load generator, the reactor, the collector and the worker
/// spread over two shared vCPUs, every request pays four cross-CPU wake-ups
/// whose cost the hypervisor sets: `deep256_hnsw_snap` measured a p50 of
/// 198–215 µs unpinned against 126–137 µs pinned. On one CPU a hand-off is
/// a plain context switch.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write exactly `size` bytes of `mask`.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().position(|&w| w != 0)?;
        let bit = mask[word].trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        (sched_setaffinity(0, size, one.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// First output line of a short-lived tool, or `unknown` (the driver's
/// checkout is not a git repository).
fn tool_line(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `host.calib_ns`: a fixed loop that owes nothing to the code under test,
/// timed on the calling thread before a workload's first set-up and after
/// its last pass, when no server exists. It only stamps a run
/// `host_unstable`; no metric is corrected by it.
///
/// One round walks sixteen 4 KB blocks, picked by a fixed recurrence, of a
/// 32 MB table (larger than the caches) and sums them, so the reading moves
/// with memory speed as well as with clock speed, as a search does.
pub struct Calib {
    table: Vec<u64>,
}

/// Rounds per sample (about 3 ms), and samples per reading (their median
/// is the reading).
const ROUNDS: usize = 1024;
const SAMPLES: usize = 15;

impl Calib {
    pub fn new() -> Calib {
        Calib {
            table: (0..4 << 20).collect(),
        }
    }

    /// Nanoseconds per round.
    pub fn reading(&self) -> f64 {
        let mut samples = [0.0; SAMPLES];
        for s in &mut samples {
            let (mut at, mut sum) = (0usize, 0u64);
            let started = Instant::now();
            for _ in 0..ROUNDS * 16 {
                at = (at * 31 + 7919) % (self.table.len() - 512);
                sum = sum.wrapping_add(self.table[at..at + 512].iter().sum::<u64>());
            }
            black_box(sum);
            *s = started.elapsed().as_nanos() as f64 / ROUNDS as f64;
        }
        samples.sort_by(f64::total_cmp);
        samples[SAMPLES / 2]
    }
}
