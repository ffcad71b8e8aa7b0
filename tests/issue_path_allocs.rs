//! "Nothing on the issue path allocates" (ARCHITECTURE.md, register-file
//! and scheduler sections), as a test: once a launch is warm, `Sm::step`
//! performs **zero** heap allocations — issue, commit, the frontier
//! heap's re-sort, writeback scheduling and retirement, fetch, barrier
//! release and block relaunch included.
//!
//! A counting `#[global_allocator]` sees every allocation of the test
//! thread. Two things allocate legitimately and are kept out of the
//! window rather than excused inside it: the simulated memory's first
//! write to a 4 KiB page (each launch here starts from a memory whose
//! pages a reference run already made resident), and the MSHR-merge
//! hand-off of `merged_waits` (the presets run without MSHRs, the default).
//!
//! This file lives beside the facade's tests, not in `crates/core/tests/`:
//! it needs the paper kernels, and `warpweave-core` cannot name
//! `warpweave-workloads` without a new manifest edge.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use warpweave::mem::Memory;
use warpweave::workloads::runner::MAX_CYCLES_PER_LAUNCH;
use warpweave::workloads::{by_name, Prepared, Scale};
use warpweave::{Sm, SmConfig};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-
    /// initialised and without a destructor, so touching it from inside
    /// the allocator neither allocates nor outlives the thread's TLS.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is plain thread-local
// data and the hooks never allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn load_inputs(mem: &mut Memory, prepared: &Prepared) {
    for (addr, words) in &prepared.inputs {
        mem.write_words(*addr, words);
    }
}

/// Runs `workload` (test scale) under `cfg` twice: a reference pass that
/// records each launch's length and leaves every page the kernels write
/// resident, then — inputs reloaded over that memory — a measured pass
/// that warms each launch up for the first half of its cycles and counts
/// the allocations of the remaining `Sm::step` calls. Returns `(steps
/// measured, allocations)`.
fn steady_state_allocs(cfg: &SmConfig, workload: &str) -> (u64, u64) {
    let w = by_name(workload).expect("registered workload");
    let prepared = w.prepare(Scale::Test);
    let mut mem = Memory::new();
    load_inputs(&mut mem, &prepared);
    let mut lengths = Vec::new();
    for launch in prepared.launches {
        let mut sm = Sm::new(cfg.clone(), launch).expect("valid launch");
        sm.set_memory(mem);
        let stats = sm.run(MAX_CYCLES_PER_LAUNCH).expect("kernel completes");
        lengths.push(stats.cycles);
        mem = sm.into_memory();
    }
    (prepared.verify)(&mem).expect("reference pass verifies");

    let prepared = w.prepare(Scale::Test);
    load_inputs(&mut mem, &prepared);
    let (mut steps, mut counted) = (0, 0);
    for (launch, length) in prepared.launches.into_iter().zip(lengths) {
        let mut sm = Sm::new(cfg.clone(), launch).expect("valid launch");
        sm.set_memory(mem);
        while !sm.is_done() && sm.cycle() < length / 2 {
            sm.step().expect("no deadlock");
        }
        let before = allocs();
        while !sm.is_done() {
            sm.step().expect("no deadlock");
            steps += 1;
        }
        counted += allocs() - before;
        mem = sm.into_memory();
    }
    (prepared.verify)(&mem).expect("measured pass verifies");
    (steps, counted)
}

#[test]
fn warm_issue_path_allocates_nothing() {
    for (cfg, workload) in [
        (SmConfig::sbi_swi(), "SortingNetworks"),
        (SmConfig::sbi_swi(), "TMD1"),
        (SmConfig::baseline(), "MatrixMul"),
    ] {
        let (steps, counted) = steady_state_allocs(&cfg, workload);
        assert!(steps > 100, "{workload}: only {steps} steps measured");
        assert_eq!(
            counted, 0,
            "{workload} on {}: {counted} allocations in {steps} warm steps",
            cfg.name
        );
    }
}
