//! The calibration loop: a fixed CPU- and allocator-bound workload the
//! benchmark owns, run between work slices to measure how fast this
//! machine is *right now*.
//!
//! On a shared two-vCPU machine the same binary's raw compile rate moves
//! by tens of percent between processes, while the ratio of compile work
//! to calibration work stays within a few percent. Every timing is
//! therefore reported twice: raw, and with its CPU-bound share scaled by
//! `rate / REFERENCE_PER_S` (`phase::calibration_factor`): the time the
//! work would have taken on a machine running this loop at the reference
//! rate.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration units per second on the reference machine: the median
/// rate of the pinned calibration loop over 60 in-process runs on the
/// shared two-vCPU VM the bounds were set on. Calibrated timings are in
/// "reference microseconds"; only ratios between runs matter.
pub const REFERENCE_PER_S: f64 = 7_000_000.0;

/// Distinct keys per map: a fixed working set, so every unit does the
/// same kind of work (hash, allocate, free, tree walk) forever.
const KEYS: u64 = 4096;

/// Units run between two clock reads.
const BATCH: u64 = 256;

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on, so the calibration loop and a single-threaded
/// workload share one core (and whatever else contends for it). On a
/// shared two-core machine an unpinned compile thread alternates between
/// a fast and a slow core that the calibration thread does not see.
/// Returns whether the process is now pinned (never, off Linux).
pub fn pin_to_current_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // SAFETY: `sched_getcpu` takes no arguments and only reports the
        // calling thread's current CPU number.
        let cpu = unsafe { sched_getcpu() };
        let Ok(cpu) = usize::try_from(cpu) else { return false };
        let mut mask = [0u64; 16]; // a 1024-bit `cpu_set_t`
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialized buffer of exactly the
        // size passed, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// CPU time every thread of this process has used so far (user and
/// system), in nanoseconds. `None` off 64-bit Linux, which calibrates
/// every slice in full.
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the duration of the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        let ns = u64::try_from(ts.sec).ok()? * 1_000_000_000 + u64::try_from(ts.nsec).ok()?;
        (rc == 0).then_some(ns)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// splitmix64: the benchmark's one pseudo-random generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calibration workload: splitmix64 keys into a `HashMap` of short
/// vectors and a `BTreeMap` of boxed strings.
pub struct Calibrator {
    state: u64,
    map: HashMap<u64, Vec<u32>>,
    tree: BTreeMap<u64, Box<str>>,
}

impl Calibrator {
    /// A calibrator with a fixed key stream (independent of `--seed`, so
    /// every run calibrates against the same work).
    pub fn new() -> Self {
        Calibrator { state: 0xCA11_B8A7_E000_0001, map: HashMap::new(), tree: BTreeMap::new() }
    }

    fn unit(&mut self) {
        let k = splitmix64(&mut self.state);
        let slot = self.map.entry(k % KEYS).or_default();
        if slot.len() >= 8 {
            slot.clear();
        }
        slot.push(k as u32);
        self.tree.insert((k >> 32) % KEYS, format!("{k:016x}").into_boxed_str());
    }

    /// Runs the loop for `dur` and returns the rate in units per second.
    pub fn rate(&mut self, dur: Duration) -> f64 {
        let start = Instant::now();
        let mut units = 0u64;
        loop {
            for _ in 0..BATCH {
                self.unit();
            }
            units += BATCH;
            let elapsed = start.elapsed();
            if elapsed >= dur {
                black_box(self.tree.len() + self.map.len());
                return units as f64 / elapsed.as_secs_f64();
            }
        }
    }
}
