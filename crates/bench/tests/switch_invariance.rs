//! Optimisations are behaviour-invariant: the idle fast-forward changes how
//! a cycle is computed, never what it computes — every job of a grid run
//! with it off must equal its default run on every counter. The second
//! switch, `SmConfig::with_superblocks`, is an inert shim since the trace
//! engine left the issue path (kept because the frozen `benchmark/` crate
//! names it): on or off, whole `Stats` are equal and the three
//! `superblock_*` counters read 0.
//!
//! The quick grid (17 jobs) runs in the default suite; the 112-job golden
//! grid is `#[ignore]`d and run by CI's `golden` job in release.

use warpweave_bench::grid::{figure7_configs, grid_jobs, sweep_workloads, GridJob};
use warpweave_core::checkpoint::CellRecord;
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::Scale;

/// One engine switch, as a config rewrite.
type Switch = fn(SmConfig) -> SmConfig;

/// Every job of the grid under `switch`, in job order.
fn run_with(jobs: &[GridJob], switch: Switch) -> Vec<CellRecord> {
    let jobs: Vec<GridJob> = jobs
        .iter()
        .cloned()
        .map(|mut job| {
            job.config = switch(job.config);
            job
        })
        .collect();
    SweepRunner::new().run(&jobs, |job| {
        job.run(Scale::Test, true)
            .unwrap_or_else(|e| panic!("{}: {e}", job.key))
    })
}

fn assert_switches_are_invisible(full: bool) {
    let jobs = grid_jobs(&figure7_configs(), &sweep_workloads(full));
    let default = run_with(&jobs, |cfg| cfg);
    let switches: [(&str, Switch); 3] = [
        ("superblocks on", |cfg| cfg.with_superblocks(true)),
        ("superblocks off", |cfg| cfg.with_superblocks(false)),
        ("fast-forward off", |cfg| cfg.with_fast_forward(false)),
    ];
    for (label, switch) in switches {
        let switched = run_with(&jobs, switch);
        for ((job, a), b) in jobs.iter().zip(&default).zip(&switched) {
            assert_eq!(a.stats, b.stats, "{}: {label}", job.key);
            assert_eq!(a.channel, b.channel, "{}: {label} (channel)", job.key);
        }
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
fn quick_grid_is_invariant_under_both_switches() {
    assert_switches_are_invisible(false);
}

#[test]
#[ignore = "112 jobs x 4 runs: seconds in release, minutes in a dev build (CI golden job)"]
fn golden_grid_is_invariant_under_both_switches() {
    assert_switches_are_invisible(true);
}
