//! Optimisations are behaviour-invariant: the two engine switches that
//! exist — the superblock trace engine and the idle fast-forward — change
//! how a cycle is computed, never what it computes. Every job of a grid
//! run with a switch off must equal its default run on every counter
//! except the three that count the superblock engine's own work.
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

/// The counters a switch may not move: all of them but the superblock
/// engine's own bookkeeping.
fn pinned(record: &CellRecord) -> Vec<(&'static str, u64)> {
    let mut fields = record.stats.to_fields();
    fields.retain(|(name, _)| !name.starts_with("superblock_"));
    fields
}

fn assert_switches_are_invisible(full: bool) {
    let jobs = grid_jobs(&figure7_configs(), &sweep_workloads(full));
    let default = run_with(&jobs, |cfg| cfg);
    let switches: [(&str, Switch); 2] = [
        ("superblocks off", |cfg| cfg.with_superblocks(false)),
        ("fast-forward off", |cfg| cfg.with_fast_forward(false)),
    ];
    for (label, switch) in switches {
        let switched = run_with(&jobs, switch);
        for ((job, a), b) in jobs.iter().zip(&default).zip(&switched) {
            assert_eq!(pinned(a), pinned(b), "{}: {label}", job.key);
            assert_eq!(a.channel, b.channel, "{}: {label} (channel)", job.key);
        }
    }
    // The exemption is exactly three counters wide.
    let exempt = default[0].stats.to_fields().len() - pinned(&default[0]).len();
    assert_eq!(exempt, 3, "superblock_* counters");
}

#[test]
fn quick_grid_is_invariant_under_both_switches() {
    assert_switches_are_invisible(false);
}

#[test]
#[ignore = "112 jobs x 3 runs: seconds in release, minutes in a dev build (CI golden job)"]
fn golden_grid_is_invariant_under_both_switches() {
    assert_switches_are_invisible(true);
}
