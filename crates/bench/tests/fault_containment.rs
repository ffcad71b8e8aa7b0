//! Fault-containment drills at the harness level: a fault injected into
//! **any** job of a sweep grid — matrix cell or machine probe, addressed
//! by index or by key — quarantines exactly that job, every healthy job
//! completes bit-identical to a fault-free run at 1 and 8 host threads,
//! and the healed re-run renders a **byte-identical** `BENCH_sweep.json`;
//! so does a checkpoint torn by an injected partial write, once salvaged
//! and resumed.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use warpweave_bench::grid::{self, grid_jobs, GridJob};
use warpweave_bench::harness::{run_grid, FaultPolicy};
use warpweave_bench::report::{probes_from_store, render_sweep_json};
use warpweave_bench::shard::matrix_from_store;
use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::faultinject::FaultPlan;
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::{Scale, Workload};

const SCALE: Scale = Scale::Test;

/// A small but non-trivial grid: 2 workloads × 3 front-ends, plus the
/// machine probes every grid carries.
fn test_grid() -> (Vec<SmConfig>, Vec<Box<dyn Workload>>) {
    let configs = grid::figure7_configs().into_iter().take(3).collect();
    (configs, grid::quick_workloads())
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-fault-cont-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Runs `jobs` into `store` on `threads` host threads, without a budget.
fn sweep(
    threads: usize,
    jobs: &[GridJob],
    policy: &FaultPolicy,
    store: &mut SweepCheckpoint,
) -> Result<Vec<warpweave_bench::CellFailure>, warpweave_core::CheckpointError> {
    let runner = SweepRunner::with_threads(threads);
    run_grid(&runner, jobs, SCALE, false, policy, None, store)
}

/// Renders the sweep payload of a store that holds the whole test grid.
fn render(store: &SweepCheckpoint) -> String {
    let (configs, workloads) = test_grid();
    let matrix = matrix_from_store(&configs, &workloads, store).expect("every cell stored");
    let probes = probes_from_store(store).expect("every probe stored");
    render_sweep_json("test", &matrix, &probes)
}

/// The fault-free reference, computed once on one thread: every job's
/// record in job order, and the payload rendered from them.
fn reference() -> &'static (Vec<CellRecord>, String) {
    static REF: OnceLock<(Vec<CellRecord>, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let (configs, workloads) = test_grid();
        let jobs = grid_jobs(&configs, &workloads);
        let mut store = SweepCheckpoint::in_memory(grid::grid_id(&configs, &workloads, SCALE));
        let failures = sweep(1, &jobs, &FaultPolicy::none(), &mut store).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        let records = jobs
            .iter()
            .map(|job| store.get(&job.key).expect("reference job").clone())
            .collect();
        (records, render(&store))
    })
}

/// Exhaustive drill (every job × 1 and 8 threads, both fault kinds, both
/// addressing modes): the faulted job is retried once and quarantined
/// with full provenance, every other job is bit-identical to the
/// fault-free reference, and a follow-up run on the same store with
/// injection disabled heals the grid to the byte-identical payload.
#[test]
fn fault_in_any_job_contains_to_that_job() {
    let (configs, workloads) = test_grid();
    let id = grid::grid_id(&configs, &workloads, SCALE);
    let jobs = grid_jobs(&configs, &workloads);
    assert_eq!(jobs.len(), 6 + grid::machine_probes().len());
    let (ref_records, ref_json) = reference();

    for target in &jobs {
        // Alternate kind and addressing per job: every index is drilled,
        // every form is drilled repeatedly, and the drill stays fast.
        let spec = match (target.index % 2 == 0, target.is_probe()) {
            (true, _) => format!("panic@cell:{}", target.index),
            (false, false) => format!("sim@cell:{}", target.index),
            (false, true) => format!("panic@key:{}", target.key),
        };
        for threads in [1usize, 8] {
            let what = format!("{spec} at {threads} threads");
            let plan = FaultPlan::parse(&spec).unwrap();
            let policy = FaultPolicy {
                max_retries: 1,
                injector: Some(Arc::new(plan.arm())),
            };
            let mut store = SweepCheckpoint::in_memory(id);
            let failures = sweep(threads, &jobs, &policy, &mut store).unwrap();

            // Exactly the targeted job is quarantined, with provenance.
            assert_eq!(failures.len(), 1, "{what}: one quarantined job");
            let failure = &failures[0];
            assert_eq!(failure.key, target.key, "{what}");
            assert_eq!(failure.workload, target.workload, "{what}");
            assert_eq!(failure.config, target.config.name, "{what}");
            assert_eq!(failure.seed, target.config.seed, "{what}: seed provenance");
            assert_eq!(failure.attempts, 2, "{what}: one retry before quarantine");
            assert!(failure.to_string().contains(&target.key), "{what}");

            // Every healthy job is stored bit-identical to the reference;
            // the quarantined one is not stored at all.
            assert_eq!(store.len(), jobs.len() - 1, "{what}");
            for (job, expected) in jobs.iter().zip(ref_records) {
                let stored = store.get(&job.key);
                if job.index == target.index {
                    assert!(stored.is_none(), "{what}: quarantined job recorded");
                } else {
                    assert_eq!(stored, Some(expected), "{what}: {} drifted", job.key);
                }
            }

            // Healing run: same store, injection off — re-attempts only
            // the gap and completes the grid.
            let healed = sweep(threads, &jobs, &FaultPolicy::none(), &mut store).unwrap();
            assert!(healed.is_empty(), "{what}: heals cleanly");
            assert_eq!(&render(&store), ref_json, "{what}: healed payload");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An injected torn write at any record index / cut length crashes
    /// the sweep mid-checkpoint; `salvage` + a resumed run then renders a
    /// `BENCH_sweep.json` payload **byte-identical** to an uninterrupted
    /// run's.
    #[test]
    fn torn_checkpoint_salvages_and_resumes_byte_identical(
        record in 0usize..5,
        keep in 0usize..60,
    ) {
        let (configs, workloads) = test_grid();
        let id = grid::grid_id(&configs, &workloads, SCALE);
        let jobs = grid_jobs(&configs, &workloads);
        let (_, ref_json) = reference();

        let path = scratch(&format!("torn-{record}-{keep}.checkpoint"));
        let _ = std::fs::remove_file(&path);

        // Phase 1: sweep crashes on the injected torn write.
        let plan = FaultPlan::parse(&format!("torn@record:{record}:{keep}")).unwrap();
        let mut store = SweepCheckpoint::resume(&path, id).unwrap();
        store.arm_faults(Arc::new(plan.arm()));
        let crash = sweep(1, &jobs, &FaultPolicy::none(), &mut store);
        prop_assert!(crash.is_err(), "torn write must surface as a checkpoint error");
        drop(store);

        // Phase 2: salvage the torn file, then resume to completion.
        let report = SweepCheckpoint::salvage(&path).unwrap();
        prop_assert_eq!(report.kept_cells, record, "records before the tear survive");
        if let Some(sidecar) = &report.quarantine {
            let _ = std::fs::remove_file(sidecar);
        }
        let mut store = SweepCheckpoint::resume(&path, id).unwrap();
        prop_assert_eq!(store.len(), record);
        let resumed = sweep(1, &jobs, &FaultPolicy::none(), &mut store).unwrap();
        prop_assert!(resumed.is_empty());
        prop_assert_eq!(&render(&store), ref_json, "salvaged-and-resumed payload");
        let _ = std::fs::remove_file(&path);
    }
}
