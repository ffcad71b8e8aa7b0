//! Failure containment at the harness level: a job that really fails — a
//! matrix cell or a machine probe naming an unregistered workload —
//! is quarantined after its one run with its key and seed, is never
//! recorded, and leaves every healthy job of the sweep bit-identical to a
//! clean run at 1 and 8 host threads. (Panic containment is
//! `core::sweep`'s own unit tests.)

use std::sync::OnceLock;

use warpweave_bench::grid::{self, grid_jobs, GridJob};
use warpweave_bench::harness::run_grid;
use warpweave_bench::report::{matrix_from_store, probes_from_store, render_golden_json};
use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::{JobFailure, SmConfig, SweepRunner};
use warpweave_workloads::{Scale, Workload};

const SCALE: Scale = Scale::Test;

/// A small but non-trivial grid: 2 workloads × 3 front-ends, plus the
/// machine probes every grid carries.
fn test_grid() -> (Vec<SmConfig>, Vec<Box<dyn Workload>>) {
    let configs = grid::figure7_configs().into_iter().take(3).collect();
    (configs, grid::quick_workloads())
}

fn test_jobs() -> Vec<GridJob> {
    let (configs, workloads) = test_grid();
    grid_jobs(&configs, &workloads)
}

/// Runs `jobs` into a fresh in-memory store on `threads` host threads.
fn sweep(threads: usize, jobs: &[GridJob]) -> (SweepCheckpoint, Vec<warpweave_bench::CellFailure>) {
    let (configs, workloads) = test_grid();
    let mut store = SweepCheckpoint::in_memory(grid::grid_id(&configs, &workloads, SCALE));
    let runner = SweepRunner::with_threads(threads);
    let failures = run_grid(&runner, jobs, SCALE, false, &mut store)
        .expect("an in-memory store records infallibly");
    (store, failures)
}

/// Renders the results document of a store that holds the whole test grid.
fn render(store: &SweepCheckpoint) -> String {
    let (configs, workloads) = test_grid();
    let matrix = matrix_from_store(&configs, &workloads, store).expect("every cell stored");
    let probes = probes_from_store(store).expect("every probe stored");
    render_golden_json("test", store.grid_id(), &matrix, &probes)
}

/// The clean reference, computed once on one thread: every job's record
/// in job order, and the document rendered from them.
fn reference() -> &'static (Vec<CellRecord>, String) {
    static REF: OnceLock<(Vec<CellRecord>, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let jobs = test_jobs();
        let (store, failures) = sweep(1, &jobs);
        assert!(failures.is_empty(), "{failures:?}");
        let records = jobs
            .iter()
            .map(|job| store.get(&job.key).expect("reference job").clone())
            .collect();
        (records, render(&store))
    })
}

/// `template` re-pointed at a workload no registry entry carries: the same
/// config, seed and kind of job, under its own key.
fn unregistered(template: &GridJob) -> GridJob {
    GridJob {
        key: template.key.replace(template.workload, "Unregistered"),
        workload: "Unregistered",
        ..template.clone()
    }
}

#[test]
fn a_failing_job_is_contained_to_itself() {
    let jobs = test_jobs();
    assert_eq!(jobs.len(), 6 + grid::machine_probes().len());
    let (ref_records, ref_json) = reference();
    let first_probe = jobs.iter().position(GridJob::is_probe).expect("a probe");

    // One broken matrix cell among the cells, one broken probe among the
    // probes: each sits between healthy jobs of its own kind.
    for at in [3, first_probe + 1] {
        let bad = unregistered(&jobs[at]);
        assert_eq!(bad.is_probe(), at > first_probe);
        let mut run = jobs.clone();
        run.insert(at, bad.clone());
        for threads in [1usize, 8] {
            let what = format!("{} at {threads} threads", bad.key);
            let (store, failures) = sweep(threads, &run);

            // Exactly the broken job is listed, with its key and seed.
            assert_eq!(failures.len(), 1, "{what}: {failures:?}");
            let failure = &failures[0];
            assert_eq!(
                (failure.key.as_str(), failure.seed),
                (bad.key.as_str(), bad.config.seed),
                "{what}"
            );
            assert_eq!(failure.workload, "Unregistered", "{what}");
            assert_eq!(failure.config, bad.config.name, "{what}");
            assert_eq!(
                failure.reason,
                JobFailure::Error("workload `Unregistered` unregistered".into()),
                "{what}"
            );
            assert!(failure.to_string().contains(&bad.key), "{what}");

            // It is never recorded; every healthy record is the clean
            // run's, so the document is too.
            assert!(store.get(&bad.key).is_none(), "{what}: failed job recorded");
            assert_eq!(store.len(), jobs.len(), "{what}");
            for (job, expected) in jobs.iter().zip(ref_records) {
                assert_eq!(store.get(&job.key), Some(expected), "{what}: {}", job.key);
            }
            assert_eq!(&render(&store), ref_json, "{what}: document");
        }
    }
}
