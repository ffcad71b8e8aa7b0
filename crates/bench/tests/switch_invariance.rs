//! Optimisations are behaviour-invariant: the idle fast-forward changes how
//! a cycle is computed, never what it computes — every job of a grid run
//! with it off must equal its default run on every counter. It is the one
//! engine switch: nothing writes the three `superblock_*` counters, which
//! the frozen `benchmark/` crate still reads, so they read 0 in every job.
//!
//! The quick grid (17 jobs) and the generated kernel that exposed the SWI
//! cascade's bubble run in the default suite; the 112-job golden grid, the
//! benchmark's 2 400 fuzz launches and its bench-scale shared-channel
//! machine are `#[ignore]`d and run by CI's `golden` job in release — every
//! scale the repository simulates at.

use warpweave_bench::grid::{figure7_configs, grid_jobs, probe_l2, sweep_workloads, GridJob};
use warpweave_core::checkpoint::CellRecord;
use warpweave_core::fuzzing::FUZZ_CYCLE_BUDGET;
use warpweave_core::{Launch, PolicyRegistry, Sm, SmConfig, Stats, SweepRunner};
use warpweave_isa::fuzz::{self, FuzzProfile, INPUT_BASE};
use warpweave_mem::Memory;
use warpweave_workloads::{by_name, run_prepared_multi_sm, Scale};

/// Every job of the grid with the idle fast-forward on or off, in job order.
fn run_with(jobs: &[GridJob], fast_forward: bool) -> Vec<CellRecord> {
    let jobs: Vec<GridJob> = jobs
        .iter()
        .cloned()
        .map(|mut job| {
            job.config = job.config.with_fast_forward(fast_forward);
            job
        })
        .collect();
    SweepRunner::new().run(&jobs, |job| {
        job.run(Scale::Test, true)
            .unwrap_or_else(|e| panic!("{}: {e}", job.key))
    })
}

fn assert_fast_forward_is_invisible(full: bool) {
    let jobs = grid_jobs(&figure7_configs(), &sweep_workloads(full));
    let default = run_with(&jobs, true);
    let ticked = run_with(&jobs, false);
    for ((job, a), b) in jobs.iter().zip(&default).zip(&ticked) {
        assert_eq!(a.stats, b.stats, "{}: fast-forward off", job.key);
        assert_eq!(
            a.channel, b.channel,
            "{}: fast-forward off (channel)",
            job.key
        );
    }
    for (job, record) in jobs.iter().zip(&default) {
        let s = &record.stats;
        let engine = [
            s.superblock_enters,
            s.superblock_covered,
            s.superblock_aborts,
        ];
        assert_eq!(engine, [0; 3], "{}: superblock_* counters", job.key);
    }
}

#[test]
fn quick_grid_is_invariant_under_fast_forward() {
    assert_fast_forward_is_invisible(false);
}

#[test]
#[ignore = "112 jobs x 2 runs: seconds in release, minutes in a dev build (CI golden job)"]
fn golden_grid_is_invariant_under_fast_forward() {
    assert_fast_forward_is_invisible(true);
}

/// One launch of the generated kernel `(seed, profile)` under `cfg`, as
/// `core::fuzzing::check_policies` and the benchmark's `fuzz_kernels`
/// perform it.
fn fuzz_launch(seed: u64, profile: &FuzzProfile, cfg: SmConfig) -> Stats {
    let program = fuzz::generate(seed, profile).lower().expect("lowers");
    let launch = Launch::new(program, profile.grid_blocks, profile.block_threads)
        .with_params(fuzz::launch_params(seed));
    let mut sm = Sm::new(cfg, launch).expect("registry presets validate");
    let mut mem = Memory::new();
    mem.write_words(INPUT_BASE, &fuzz::input_words(seed));
    sm.set_memory(mem);
    sm.run(FUZZ_CYCLE_BUDGET).expect("kernel finishes").clone()
}

/// Whole `Stats` of `(seed, profile)` are equal with the fast-forward off,
/// under every registry policy.
fn assert_fuzz_kernel_is_invariant(seed: u64, profile: &FuzzProfile) {
    for name in PolicyRegistry::global_names() {
        let cfg = SmConfig::with_policy(name).expect("registered policy");
        let ticked = fuzz_launch(seed, profile, cfg.clone().with_fast_forward(false));
        let jumped = fuzz_launch(seed, profile, cfg);
        assert_eq!(jumped, ticked, "{}/{seed:#x}/{name}", profile.name);
    }
}

/// A pending SWI primary that evaporates leaves a bubble, not an idle SM:
/// this kernel jumped over the cycle in which the secondary scheduler's
/// solo pick would have issued (7 062 cycles against 7 058 under SBI+SWI).
#[test]
fn cascade_bubble_is_not_an_idle_cycle() {
    assert_fuzz_kernel_is_invariant(0x65a4_7abe_4e83_43bf, &FuzzProfile::pathological());
}

#[test]
#[ignore = "2 400 launches x 2: seconds in release (CI golden job)"]
fn fuzz_kernels_are_invariant_under_fast_forward() {
    // The benchmark's `fuzz_kernels` at its default seed: 100 kernels per
    // profile on `fuzz_smoke`'s seed stride, every registry policy.
    let profiles = FuzzProfile::all();
    let kernels: Vec<usize> = (0..100 * profiles.len()).collect();
    SweepRunner::new().run(&kernels, |&index| {
        let seed = 0xb1e55edu64.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_fuzz_kernel_is_invariant(seed, &profiles[index / 100]);
    });
}

#[test]
#[ignore = "bench-scale 4-SM machines: seconds in release (CI golden job)"]
fn bench_scale_shared_machine_is_invariant_under_fast_forward() {
    // The benchmark's `mem_hierarchy` machine, on the two workloads whose
    // epochs an overshooting SM used to stretch.
    let cfg = SmConfig::sbi_swi()
        .with_shared_dram()
        .with_dram_channels(2)
        .with_mshrs(32)
        .with_l2(probe_l2());
    for name in ["Transpose", "BFS"] {
        let workload = by_name(name).expect("registered workload");
        let run = |cfg: &SmConfig| {
            run_prepared_multi_sm(cfg, 4, workload.prepare(Scale::Bench), true)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (jumped, ticked) = (run(&cfg), run(&cfg.clone().with_fast_forward(false)));
        // Whole `MachineStats`; the cycle counts are the readable part.
        assert!(
            jumped == ticked,
            "{name}: {} cycles, {} with the fast-forward off",
            jumped.total.cycles,
            ticked.total.cycles
        );
    }
}
