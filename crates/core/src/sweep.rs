//! Parallel batch execution of independent simulation jobs.
//!
//! Everything above the single-SM pipeline that wants host-level
//! parallelism — the multi-SM [`crate::machine::Machine`], the benchmark
//! harness's `workload × frontend × config` grids — funnels through
//! [`SweepRunner::run`]: a deterministic parallel map that returns
//! results in job order regardless of how many worker threads execute
//! them.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// True while this thread executes a runner's jobs: a spawned worker
    /// for its whole life, the calling thread for the length of a batch it
    /// runs inline.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a batch until dropped (also on
/// unwind, so a panicking job cannot leave the caller's thread marked).
struct BatchScope(bool);

impl BatchScope {
    fn enter() -> BatchScope {
        BatchScope(IN_BATCH.replace(true))
    }
}

impl Drop for BatchScope {
    fn drop(&mut self) {
        IN_BATCH.set(self.0);
    }
}

/// Why one isolated job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job panicked; the payload rendered to a string.
    Panic(String),
    /// The job returned an error, rendered via `Display`.
    Error(String),
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Panic(msg) => write!(f, "panic: {msg}"),
            JobFailure::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

/// Renders a caught panic payload (the `&str` / `String` payloads
/// `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A parallel job runner with an optional thread cap.
///
/// The ordered parallel map behind it is part of the determinism contract
/// and owned here: scoped workers pull job indices off one atomic cursor
/// and write each result into that job's own slot, so the output order is
/// the input order whatever the worker count or the host's scheduling.
///
/// # Examples
/// ```
/// use warpweave_core::SweepRunner;
///
/// let jobs: Vec<u64> = (0..64).collect();
/// let squares = SweepRunner::with_threads(4).run(&jobs, |&j| j * j);
/// assert_eq!(squares[9], 81);
/// ```
#[derive(Debug, Default)]
pub struct SweepRunner {
    cap: Option<usize>,
}

impl SweepRunner {
    /// An uncapped runner: one worker per available core — or, when used
    /// from inside another runner's job (a [`crate::Machine`] simulated by
    /// a sweep cell), none at all: the batch runs inline on the worker it
    /// was called from, whose runner already spent the thread budget.
    pub fn new() -> SweepRunner {
        SweepRunner { cap: None }
    }

    /// A runner capped at `threads` workers, honoured wherever it is used.
    /// `run` results are identical for every cap — only wall-clock time
    /// changes.
    pub fn with_threads(threads: usize) -> SweepRunner {
        SweepRunner {
            cap: Some(threads.max(1)),
        }
    }

    /// The worker budget `run` will use on this thread.
    pub fn threads(&self) -> usize {
        match self.cap {
            Some(n) => n,
            None if IN_BATCH.get() => 1,
            None => {
                // Asked once: the query reads cgroup files (~16 µs), and a
                // machine asks before every epoch.
                static CORES: OnceLock<usize> = OnceLock::new();
                *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }

    /// Maps `f` over `jobs` in parallel, returning results in job order.
    ///
    /// `f` must be a pure function of its job for the output to be
    /// deterministic — every simulation entry point that goes through
    /// here (seeded SMs, prepared workloads) satisfies that.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync + Send,
        R: Send,
        F: Fn(&J) -> R + Sync + Send,
    {
        let workers = self.threads().min(jobs.len());
        if workers <= 1 {
            let _batch = BatchScope::enter();
            return jobs.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _batch = BatchScope::enter();
                    loop {
                        // Relaxed: the cursor only hands out indices; the
                        // scope's join publishes the slots.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { return };
                        let result = f(job);
                        *slots[i].lock().expect("no job panics holding its slot") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no job panics holding its slot")
                    .expect("the scope joined, so every job ran")
            })
            .collect()
    }

    /// Fault-isolated parallel map: each job runs exactly once, under
    /// `catch_unwind`, and a job that panics or returns `Err` is
    /// quarantined as a [`JobFailure`] instead of aborting the batch. A
    /// job is a pure function of its input, so running it again could
    /// only repeat the failure. Healthy jobs produce results bit-identical
    /// to [`SweepRunner::run`] at any thread count, because containment
    /// never reorders or re-seeds work — it only wraps each closure call.
    ///
    /// `on_done(index, &result)` fires on the worker thread the moment
    /// job `index` settles (success or quarantine), **in completion
    /// order** (nondeterministic), while the returned vector stays in job
    /// order as always. This is the incremental-persistence hook of the
    /// sweep driver: it appends each `Ok` result to its
    /// [`crate::checkpoint::SweepCheckpoint`] from `on_done`, so an
    /// interrupted sweep loses at most the jobs still in flight.
    /// `on_done` runs concurrently from many workers — synchronise any
    /// shared state it touches (a mutex around the checkpoint store).
    pub fn run_isolated_reporting<J, R, E, F, P>(
        &self,
        jobs: &[J],
        f: F,
        on_done: P,
    ) -> Vec<Result<R, JobFailure>>
    where
        J: Sync + Send,
        R: Send,
        E: fmt::Display,
        F: Fn(&J) -> Result<R, E> + Sync + Send,
        P: Fn(usize, &Result<R, JobFailure>) + Sync + Send,
    {
        let indexed: Vec<(usize, &J)> = jobs.iter().enumerate().collect();
        self.run(&indexed, |&(i, job)| {
            let result = match catch_unwind(AssertUnwindSafe(|| f(job))) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(JobFailure::Error(e.to_string())),
                Err(payload) => Err(JobFailure::Panic(panic_message(payload.as_ref()))),
            };
            on_done(i, &result);
            result
        })
    }

    /// Maps `f` over `jobs` in parallel **in place**, returning results in
    /// job order. This is the epoch-step primitive of the shared-channel
    /// [`crate::Machine`]: each SM advances to the next barrier on its own
    /// worker. Each job is touched by exactly one worker per call (the
    /// per-job mutex only proves that to the borrow checker), so `f` sees
    /// no contention and the same determinism contract as [`SweepRunner::run`]
    /// applies.
    pub fn run_mut<J, R, F>(&self, jobs: &mut [J], f: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(&mut J) -> R + Sync + Send,
    {
        let cells: Vec<Mutex<&mut J>> = jobs.iter_mut().map(Mutex::new).collect();
        // Poison-tolerant: a panic elsewhere in the batch must not turn
        // into a second, spurious mutex abort here.
        self.run(&cells, |cell| {
            f(&mut cell.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        let out = SweepRunner::new().run(&jobs, |&j| 2 * j);
        assert_eq!(out, (0..200).step_by(2).collect::<Vec<usize>>());
    }

    #[test]
    fn identical_results_across_thread_caps() {
        let jobs: Vec<u64> = (0..57).collect();
        let hash = |&j: &u64| j.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
        let reference = SweepRunner::with_threads(1).run(&jobs, hash);
        for threads in [2, 3, 8] {
            assert_eq!(
                SweepRunner::with_threads(threads).run(&jobs, hash),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn run_mut_mutates_in_place_and_orders_results() {
        let mut jobs: Vec<u64> = (0..40).collect();
        let doubled = SweepRunner::with_threads(4).run_mut(&mut jobs, |j| {
            *j *= 2;
            *j
        });
        assert_eq!(jobs, (0..80).step_by(2).collect::<Vec<u64>>());
        assert_eq!(doubled, jobs);
    }

    #[test]
    fn reports_thread_budget() {
        assert_eq!(SweepRunner::with_threads(3).threads(), 3);
        assert!(SweepRunner::new().threads() >= 1);
    }

    #[test]
    fn nested_uncapped_runner_runs_inline_and_an_explicit_cap_is_honoured() {
        let seen = SweepRunner::with_threads(2).run(&[(); 4], |()| {
            let worker = std::thread::current().id();
            let nested = SweepRunner::new();
            let ran_on = nested.run(&[(); 8], |()| std::thread::current().id());
            (
                nested.threads(),
                ran_on.iter().all(|&id| id == worker),
                SweepRunner::with_threads(3).threads(),
            )
        });
        assert_eq!(seen, [(1, true, 3); 4]);
        // A one-worker batch runs on the caller and is a batch all the
        // same — for its duration only.
        let inline = SweepRunner::with_threads(1).run(&[()], |()| SweepRunner::new().threads());
        assert_eq!(inline, [1]);
        assert!(!IN_BATCH.get());
    }

    #[test]
    fn isolated_contains_panics_and_errors() {
        let jobs: Vec<u64> = (0..12).collect();
        let out = SweepRunner::with_threads(4).run_isolated_reporting(
            &jobs,
            |&j| match j {
                3 => panic!("injected panic on job {j}"),
                7 => Err(format!("bad job {j}")),
                _ => Ok(j * 10),
            },
            |_, _| {},
        );
        assert_eq!(out.len(), 12);
        for (i, o) in out.iter().enumerate() {
            match i {
                3 => assert_eq!(*o, Err(JobFailure::Panic("injected panic on job 3".into()))),
                7 => assert_eq!(*o, Err(JobFailure::Error("bad job 7".into()))),
                _ => assert_eq!(*o, Ok(i as u64 * 10)),
            }
        }
    }

    #[test]
    fn a_failing_job_runs_exactly_once() {
        let jobs: Vec<u64> = (0..6).collect();
        let calls: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = SweepRunner::with_threads(2).run_isolated_reporting(
            &jobs,
            |&j| {
                calls[j as usize].fetch_add(1, Ordering::Relaxed);
                match j {
                    1 => panic!("poison job"),
                    4 => Err("bad job".to_string()),
                    _ => Ok(j),
                }
            },
            |_, _| {},
        );
        assert!(out[1].is_err() && out[4].is_err());
        let calls: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(
            calls, [1; 6],
            "the panicking and the erring job ran once each"
        );
    }

    #[test]
    fn isolated_healthy_results_identical_across_thread_caps() {
        let jobs: Vec<u64> = (0..41).collect();
        let f = |&j: &u64| -> Result<u64, String> {
            if j == 13 {
                panic!("poison job");
            }
            Ok(j.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 9)
        };
        let run = |threads| {
            SweepRunner::with_threads(threads).run_isolated_reporting(&jobs, f, |_, _| {})
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "{threads} threads");
        }
    }

    #[test]
    fn isolated_reporting_fires_once_per_job() {
        use std::sync::Mutex;
        let jobs: Vec<u64> = (0..9).collect();
        let seen = Mutex::new(Vec::new());
        SweepRunner::with_threads(3).run_isolated_reporting(
            &jobs,
            |&j| if j == 2 { Err("x".to_string()) } else { Ok(j) },
            |i, o| seen.lock().unwrap().push((i, o.is_ok())),
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..9).map(|i| (i, i != 2)).collect::<Vec<_>>());
    }
}
