//! Parallel batch execution of independent simulation jobs.
//!
//! Everything above the single-SM pipeline that wants host-level
//! parallelism funnels through a [`SweepRunner`], in one of two shapes:
//!
//! * [`SweepRunner::run`], and [`SweepRunner::run_isolated`] around it —
//!   every sweep grid, run locally or served: a deterministic parallel map
//!   that returns results in job order regardless of how many worker
//!   threads execute them, the caller acting on them once all have come
//!   back;
//! * `SweepRunner::with_pool` — the multi-SM [`crate::machine::Machine`]:
//!   items stepped in lock-step rounds by workers spawned once, each owning
//!   a fixed shard, with the caller's serial phase between rounds.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
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
/// Its stepped form, `with_pool`, serves a [`crate::Machine`]: it spawns
/// `T - 1` workers once for a whole run (the caller is worker 0), gives
/// item `i` to worker `i % T` for every round, and each round sends every
/// worker its shard over a channel and receives it back over another — no
/// thread or channel at all when `T` is 1. What an item computes never
/// depends on `T`.
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
                // Asked once per process: the query reads cgroup files
                // (~16 µs), and every machine run and sweep batch asks.
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
    pub fn run_isolated<J, R, E, F>(&self, jobs: &[J], f: F) -> Vec<Result<R, JobFailure>>
    where
        J: Sync + Send,
        R: Send,
        E: fmt::Display,
        F: Fn(&J) -> Result<R, E> + Sync + Send,
    {
        self.run(jobs, |job| {
            match catch_unwind(AssertUnwindSafe(|| f(job))) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(JobFailure::Error(e.to_string())),
                Err(payload) => Err(JobFailure::Panic(panic_message(payload.as_ref()))),
            }
        })
    }

    /// Runs `body` with a [`Pool`] that steps `items` in lock-step rounds:
    /// each [`Pool::step`] applies `step(item, arg)` to every item, and
    /// between rounds the caller has all of them as one ordered slice
    /// ([`Pool::items`]). This is the epoch loop of a [`crate::Machine`]:
    /// SMs advance in parallel, the barrier's serial phase runs on the
    /// caller.
    ///
    /// With `T = threads().min(items.len())` above 1 the runner spawns
    /// `T - 1` scoped workers once, for the length of `body`; worker `k`
    /// steps items `k, k + T, …` every round and the caller steps shard 0
    /// itself. A round sends each worker its shard over a channel and
    /// receives it back over another. When `body` returns or unwinds the
    /// pool is dropped, which closes every worker's inbox: the workers'
    /// loops end and the scope joins them. With `T` of 1 every round runs
    /// inline on the caller: no thread, channel or allocation.
    pub(crate) fn with_pool<J, A, E, F, R>(
        &self,
        items: &mut Vec<J>,
        step: F,
        body: impl FnOnce(&mut Pool<'_, J, A, E, F>) -> R,
    ) -> R
    where
        J: Send,
        A: Copy + Send,
        E: Send,
        F: Fn(&mut J, A) -> Result<(), E> + Sync,
    {
        let threads = self.threads().min(items.len());
        let mut pool = Pool {
            items,
            step: &step,
            shards: Vec::new(),
            workers: Vec::new(),
        };
        if threads <= 1 {
            return body(&mut pool);
        }
        std::thread::scope(|scope| {
            // Moved into the scope, so it is dropped — and the workers told
            // to exit — before the scope waits to join them.
            let mut pool = pool;
            pool.shards = (0..threads).map(|_| Vec::new()).collect();
            for k in 1..threads {
                // One shard is in flight each way at most: a bounded
                // channel of one never blocks its sender.
                let (to_worker, inbox) = mpsc::sync_channel::<(Vec<J>, A)>(1);
                let (outbox, from_worker) = mpsc::sync_channel(1);
                let step = &step;
                scope.spawn(move || {
                    for (mut shard, arg) in inbox {
                        let failure = step_shard(&mut shard, k, threads, arg, step);
                        if outbox.send((shard, failure)).is_err() {
                            return;
                        }
                    }
                });
                pool.workers.push((to_worker, from_worker));
            }
            body(&mut pool)
        })
    }
}

/// How one item's step failed inside a [`Pool`] round.
enum StepFailure<E> {
    Err(E),
    Panic(Box<dyn Any + Send>),
}

/// A shard's first failure of a round, with its item index.
type Failure<E> = Option<(usize, StepFailure<E>)>;

/// The caller's ends of one worker's channels: its shard goes out with the
/// round's argument and comes back with the shard's first failure.
type Worker<J, A, E> = (SyncSender<(Vec<J>, A)>, Receiver<(Vec<J>, Failure<E>)>);

/// Steps shard `k` of `threads` (stored in descending item order) in
/// ascending item order, stopping at its first failure — which is then
/// the shard's lowest-indexed one, whatever the shard size. A panicking
/// step is caught, so a worker always sends its shard back.
fn step_shard<J, A: Copy, E>(
    shard: &mut [J],
    k: usize,
    threads: usize,
    arg: A,
    step: &impl Fn(&mut J, A) -> Result<(), E>,
) -> Failure<E> {
    let _batch = BatchScope::enter();
    shard.iter_mut().rev().enumerate().find_map(|(j, item)| {
        let failure = match catch_unwind(AssertUnwindSafe(|| step(item, arg))) {
            Ok(Ok(())) => return None,
            Ok(Err(e)) => StepFailure::Err(e),
            Err(payload) => StepFailure::Panic(payload),
        };
        Some((k + j * threads, failure))
    })
}

/// The caller's handle on a [`SweepRunner::with_pool`] run.
pub(crate) struct Pool<'a, J, A, E, F> {
    items: &'a mut Vec<J>,
    step: &'a F,
    /// Shard `k`: items `k, k + T, …` in descending order, so a round
    /// deals them out and gathers them back with `push` and `pop` alone.
    /// Empty between rounds; a shard's buffer travels to its worker and
    /// back, so rounds after the first allocate nothing.
    shards: Vec<Vec<J>>,
    /// Workers `1..T`; none when every round runs inline on the caller.
    workers: Vec<Worker<J, A, E>>,
}

impl<J, A: Copy, E, F: Fn(&mut J, A) -> Result<(), E>> Pool<'_, J, A, E, F> {
    /// The items, in their original order, as the last round left them.
    pub(crate) fn items(&mut self) -> &mut [J] {
        self.items
    }

    /// One round: `step(item, arg)` on every item, in parallel across the
    /// pool's workers, returning once all are stepped.
    ///
    /// # Errors
    /// The first failure in item order, whatever the worker count: an
    /// `Err` is returned; a panic's payload is re-raised here, on the
    /// caller, and [`SweepRunner::with_pool`] re-raises it again once every
    /// worker has been joined. Items after the first failure of a shard
    /// may be left unstepped.
    pub(crate) fn step(&mut self, arg: A) -> Result<(), E> {
        if self.workers.is_empty() {
            let _batch = BatchScope::enter();
            return self
                .items
                .iter_mut()
                .try_for_each(|item| (self.step)(item, arg));
        }
        let threads = self.shards.len();
        let n = self.items.len();
        while let Some(item) = self.items.pop() {
            self.shards[self.items.len() % threads].push(item);
        }
        for ((to_worker, _), shard) in self.workers.iter().zip(&mut self.shards[1..]) {
            to_worker
                .send((mem::take(shard), arg))
                .expect("a worker lives as long as its pool");
        }
        let mut first = step_shard(&mut self.shards[0], 0, threads, arg, self.step);
        for ((_, from_worker), shard) in self.workers.iter().zip(&mut self.shards[1..]) {
            let (stepped, failure) = from_worker.recv().expect("a worker sends its shard back");
            *shard = stepped;
            first = first.into_iter().chain(failure).min_by_key(|&(i, _)| i);
        }
        for i in 0..n {
            let item = self.shards[i % threads].pop();
            self.items.push(item.expect("every shard comes back whole"));
        }
        match first {
            None => Ok(()),
            Some((_, StepFailure::Err(e))) => Err(e),
            Some((_, StepFailure::Panic(payload))) => resume_unwind(payload),
        }
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
        let out = SweepRunner::with_threads(4).run_isolated(&jobs, |&j| match j {
            3 => panic!("injected panic on job {j}"),
            7 => Err(format!("bad job {j}")),
            _ => Ok(j * 10),
        });
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
        let out = SweepRunner::with_threads(2).run_isolated(&jobs, |&j| {
            calls[j as usize].fetch_add(1, Ordering::Relaxed);
            match j {
                1 => panic!("poison job"),
                4 => Err("bad job".to_string()),
                _ => Ok(j),
            }
        });
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
        let run = |threads| SweepRunner::with_threads(threads).run_isolated(&jobs, f);
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "{threads} threads");
        }
    }

    /// Runs `f` on a thread of its own and fails the test if it has not
    /// finished within a minute: a pool that loses a wakeup hangs.
    fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the pool finished (a panic here means it hung)")
    }

    /// A counter per item: `(index, rounds stepped, the thread that stepped it)`.
    type Counter = (usize, u32, Option<std::thread::ThreadId>);

    fn counters(n: usize) -> Vec<Counter> {
        (0..n).map(|i| (i, 0, None)).collect()
    }

    #[test]
    fn pool_steps_every_item_in_place_on_a_fixed_worker() {
        for threads in [1, 2, 3, 8] {
            let (items, caller) = within_a_minute(move || {
                let mut items = counters(13);
                let step = |(_, n, on): &mut Counter, round: u32| {
                    let here = std::thread::current().id();
                    assert!(on.is_none_or(|t| t == here), "an item changed workers");
                    *on = Some(here);
                    *n += round;
                    Ok::<(), ()>(())
                };
                SweepRunner::with_threads(threads)
                    .with_pool(&mut items, step, |pool| {
                        for round in 1..=20 {
                            pool.step(round)?;
                            let items = pool.items();
                            assert!(items.iter().enumerate().all(|(i, item)| item.0 == i));
                        }
                        Ok::<(), ()>(())
                    })
                    .unwrap();
                (items, std::thread::current().id())
            });
            assert!(items.iter().all(|&(_, n, _)| n == 210), "{threads} threads");
            // Item `i` belongs to worker `i % T`; worker 0 is the caller.
            let t = threads.min(items.len());
            for (i, item) in items.iter().enumerate() {
                assert_eq!(item.2, items[i % t].2, "{threads} threads, item {i}");
                assert_eq!(item.2 == Some(caller), i % t == 0, "{threads} threads");
            }
        }
    }

    #[test]
    fn pool_runs_inline_inside_a_batch() {
        let seen = SweepRunner::with_threads(2).run(&[(); 2], |()| {
            let worker = std::thread::current().id();
            let mut items = counters(8);
            let step = |(_, _, on): &mut Counter, ()| {
                *on = Some(std::thread::current().id());
                Ok::<(), ()>(())
            };
            SweepRunner::new()
                .with_pool(&mut items, step, |pool| pool.step(()))
                .unwrap();
            items.iter().all(|item| item.2 == Some(worker))
        });
        assert_eq!(seen, [true, true]);
    }

    #[derive(Debug, PartialEq)]
    struct Token(usize);

    #[test]
    fn a_worker_panic_is_reraised_on_the_caller_and_never_hangs() {
        const BAD: usize = 3;
        const AT: u32 = 5;
        for threads in [2, 8] {
            let (counts, payload, off_caller) = within_a_minute(move || {
                let caller = std::thread::current().id();
                let panicked_on = Mutex::new(None);
                let mut items = counters(16);
                let step = |(i, n, _): &mut Counter, round: u32| {
                    if *i == BAD && round == AT {
                        *panicked_on.lock().unwrap() = Some(std::thread::current().id());
                        std::panic::panic_any(Token(BAD));
                    }
                    *n += 1;
                    Ok::<(), ()>(())
                };
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    SweepRunner::with_threads(threads).with_pool(&mut items, step, |pool| {
                        (0..10).try_for_each(|round| pool.step(round))
                    })
                }));
                let payload = caught.expect_err("the panic reached the caller");
                let counts: Vec<u32> = items.iter().map(|item| item.1).collect();
                let off_caller = panicked_on.into_inner().unwrap() != Some(caller);
                (counts, payload.downcast::<Token>().ok(), off_caller)
            });
            assert!(off_caller, "{threads} threads: item {BAD} ran on a worker");
            assert_eq!(payload.as_deref(), Some(&Token(BAD)), "the same payload");
            // Every round before `AT` ran whole; in round `AT` only the
            // items after `BAD` in its own shard went unstepped.
            for (i, &n) in counts.iter().enumerate() {
                let skipped = i >= BAD && i % threads == BAD % threads;
                assert_eq!(n, AT + u32::from(!skipped), "{threads} threads, item {i}");
            }
        }
    }

    #[test]
    fn a_panic_on_the_caller_or_between_rounds_never_hangs() {
        for threads in [2, 8] {
            let caught = within_a_minute(move || {
                let mut items = counters(16);
                let step = |(i, _, _): &mut Counter, round: u32| {
                    if *i == 0 && round == 2 {
                        std::panic::panic_any(Token(0));
                    }
                    Ok::<(), ()>(())
                };
                let runner = SweepRunner::with_threads(threads);
                let in_step = catch_unwind(AssertUnwindSafe(|| {
                    runner.with_pool(&mut items, step, |pool| {
                        (0..5).try_for_each(|round| pool.step(round))
                    })
                }));
                let between = catch_unwind(AssertUnwindSafe(|| {
                    runner.with_pool(&mut items, step, |pool| {
                        pool.step(0).unwrap();
                        std::panic::panic_any(Token(99))
                    })
                }));
                [in_step, between].map(|r| r.unwrap_err().downcast::<Token>().ok())
            });
            assert_eq!(
                caught.each_ref().map(Option::as_deref),
                [Some(&Token(0)), Some(&Token(99))]
            );
        }
    }

    #[test]
    fn the_first_failure_in_item_order_wins_at_every_thread_count() {
        // (erring items, panicking items, the item whose failure surfaces).
        let cases: [(&'static [usize], &'static [usize], usize); 3] =
            [(&[5, 2, 11], &[], 2), (&[1], &[6], 1), (&[9], &[12, 4], 4)];
        for (errs, panics, first) in cases {
            for threads in [1, 2, 3, 8] {
                let outcome = within_a_minute(move || {
                    let mut items = counters(14);
                    let step = |&mut (i, _, _): &mut Counter, ()| {
                        if panics.contains(&i) {
                            std::panic::panic_any(Token(i));
                        }
                        if errs.contains(&i) {
                            return Err(i);
                        }
                        Ok(())
                    };
                    let runner = SweepRunner::with_threads(threads);
                    catch_unwind(AssertUnwindSafe(|| {
                        runner.with_pool(&mut items, step, |pool| pool.step(()))
                    }))
                    .map_err(|payload| payload.downcast::<Token>().ok())
                });
                match outcome {
                    Ok(result) => assert_eq!(result, Err(first), "{threads} threads"),
                    Err(payload) => {
                        assert_eq!(payload.as_deref(), Some(&Token(first)), "{threads} threads")
                    }
                }
            }
        }
    }
}
