//! Clocks, and the host-speed calibration every timed interval is held
//! against.
//!
//! The reference host is a 2-vCPU guest whose speed swings by ±25 % over
//! seconds to minutes (neighbours on the sibling hyperthreads, stolen
//! time). A 15-s run can sit entirely inside a slow phase, so no statistic
//! of wall-clock repetition times repeats across runs: over ten runs the
//! p25's interquartile range was 0.12–0.29 of its median, and the minimum
//! was no better. Two things bring that to 0.03–0.07 (see `README.md`):
//!
//! * intervals are measured in **CPU time of this process** (all threads),
//!   which leaves out time the hypervisor stole or another task ran;
//! * each interval is divided by the host's speed while it ran, taken from
//!   a fixed **calibration loop** run on the timing thread immediately
//!   before and after it. The loop is pure register arithmetic and
//!   unpredictable branches — the same resources the simulator is bound
//!   by, and code no change to the simulator touches.
//!
//! A normalised interval reads in seconds on a host where the calibration
//! loop takes [`CALIBRATION_REFERENCE_SECONDS`]; raw wall-clock times are
//! kept beside it in every result file.

use std::hint::black_box;
use std::time::Instant;

/// CPU time the calibration loop takes on the undisturbed reference host.
pub const CALIBRATION_REFERENCE_SECONDS: f64 = 2.5e-3;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU clocks and /proc: 64-bit Linux only");

mod cpu {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    fn read(clock_id: i32) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer, which points at a live, properly aligned `Timespec`
        // with the C layout of 64-bit Linux (two 64-bit fields); both
        // clock ids are defined on every Linux kernel this can run on.
        let status = unsafe { clock_gettime(clock_id, &mut ts) };
        assert_eq!(status, 0, "clock_gettime({clock_id}) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }

    pub fn process() -> f64 {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }

    pub fn thread() -> f64 {
        read(CLOCK_THREAD_CPUTIME_ID)
    }
}

/// CPU seconds this process (all threads, exited ones included) has used.
pub fn process_cpu_seconds() -> f64 {
    cpu::process()
}

/// Wall-clock and process-CPU time since [`Stopwatch::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

/// One reading of a [`Stopwatch`], in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    pub wall: f64,
    pub cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu::process(),
        }
    }

    pub fn lap(&self) -> Lap {
        Lap {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: cpu::process() - self.cpu,
        }
    }
}

/// Eight independent multiply–xorshift chains: high instruction-level
/// parallelism, no memory traffic.
fn arithmetic(steps: u64) -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..steps {
        for (j, x) in lanes.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ j as u64);
            *x ^= *x >> 29;
        }
    }
    lanes.iter().fold(0, |a, b| a ^ b)
}

/// A xorshift stream steering a three-way branch no predictor can learn.
fn branches(steps: u64) -> u64 {
    let (mut x, mut acc) = (88_172_645_463_325_252u64, 0u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else if x & 2 == 0 {
            acc ^= x;
        } else {
            acc = acc.rotate_left(3);
        }
    }
    acc
}

/// Runs the calibration loop on the calling thread and returns the CPU
/// seconds it took.
pub fn calibrate() -> f64 {
    let start = cpu::thread();
    black_box(arithmetic(black_box(300_000)));
    black_box(branches(black_box(300_000)));
    cpu::thread() - start
}

/// `seconds`, measured between two calibrations, as it would read on the
/// reference host.
pub fn normalise(seconds: f64, calibration_before: f64, calibration_after: f64) -> f64 {
    let calibration = (calibration_before + calibration_after) / 2.0;
    seconds * CALIBRATION_REFERENCE_SECONDS / calibration
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let watch = Stopwatch::start();
        let spent = calibrate();
        let lap = watch.lap();
        assert!(spent > 0.0);
        assert!(lap.cpu >= spent * 0.9, "process CPU covers the thread's");
        assert!(lap.wall > 0.0);
    }

    #[test]
    fn normalising_scales_by_the_mean_calibration() {
        let r = CALIBRATION_REFERENCE_SECONDS;
        assert_eq!(normalise(2.0, r, r), 2.0);
        // A host at half speed takes twice as long for both.
        assert_eq!(normalise(4.0, 2.0 * r, 2.0 * r), 2.0);
        assert_eq!(normalise(3.0, r, 3.0 * r), 1.5);
    }
}
