//! Integration test of the checkpointable sweep engine: a sweep killed
//! mid-grid resumes from its checkpoint and produces results — and a
//! rendered `BENCH_sweep.json` payload — **bit-identical** to an
//! uninterrupted run, at 1 and 8 host threads alike.

use warpweave_bench::grid::{self, grid_jobs};
use warpweave_bench::harness::{
    run_grid, run_machine_probes, run_matrix_at, run_matrix_checkpointed, FaultPolicy,
};
use warpweave_bench::report::{probes_from_store, render_sweep_json};
use warpweave_bench::{matrix_from_store, MatrixResult};
use warpweave_core::checkpoint::{CheckpointError, SweepCheckpoint};
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::{Scale, Workload};

/// A small but non-trivial grid: 2 workloads × 3 front-ends.
fn test_grid() -> (Vec<SmConfig>, Vec<Box<dyn Workload>>) {
    let configs = grid::figure7_configs().into_iter().take(3).collect();
    (configs, grid::quick_workloads())
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-sweep-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn assert_matrices_bit_identical(a: &MatrixResult, b: &MatrixResult, what: &str) {
    assert_eq!(a.workloads, b.workloads, "{what}: workload rows");
    assert_eq!(a.configs, b.configs, "{what}: config columns");
    for (w, (ra, rb)) in a.cells.iter().zip(&b.cells).enumerate() {
        for (c, (ca, cb)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                ca.stats, cb.stats,
                "{what}: cell ({}, {}) drifted",
                a.workloads[w], a.configs[c]
            );
        }
    }
}

#[test]
fn interrupted_sweep_resumes_bit_identical_across_thread_counts() {
    let (configs, workloads) = test_grid();
    let scale = Scale::Test;
    let id = grid::grid_id(&configs, &workloads, scale);
    let total_cells = configs.len() * workloads.len();

    // The uninterrupted reference, computed once on one thread.
    let reference = run_matrix_at(
        &SweepRunner::with_threads(1),
        &configs,
        &workloads,
        scale,
        false,
    );
    let reference_probes = run_machine_probes(scale, None).unwrap();
    let reference_json = render_sweep_json("test", &reference, &reference_probes);

    for threads in [1usize, 8] {
        let runner = SweepRunner::with_threads(threads);
        let path = scratch(&format!("resume-{threads}.checkpoint"));
        let _ = std::fs::remove_file(&path);

        // Phase 1: "kill" the sweep after 2 cells — run with a cell
        // budget and drop the store, as a SIGKILL at a cell boundary
        // would leave it.
        let mut store = SweepCheckpoint::resume(&path, id).unwrap();
        let partial = run_matrix_checkpointed(
            &runner,
            &configs,
            &workloads,
            scale,
            false,
            &mut store,
            Some(2),
        )
        .unwrap();
        assert!(partial.is_none(), "{threads} threads: grid cannot be done");
        assert_eq!(store.len(), 2, "{threads} threads: budget respected");
        drop(store);

        // Phase 2: resume from disk and finish.
        let mut store = SweepCheckpoint::resume(&path, id).unwrap();
        assert_eq!(store.len(), 2, "{threads} threads: resume sees both cells");
        let resumed = run_matrix_checkpointed(
            &runner, &configs, &workloads, scale, false, &mut store, None,
        )
        .unwrap()
        .expect("grid completes without a budget");
        assert_eq!(store.len(), total_cells);

        assert_matrices_bit_identical(
            &reference,
            &resumed,
            &format!("{threads} host threads, resumed vs uninterrupted"),
        );

        // The rendered JSON payload — the artifact CI diffs — must be
        // byte-identical too, machine probes included (resumed from the
        // same checkpoint file).
        let probes = run_machine_probes(scale, Some(&mut store)).unwrap();
        let json = render_sweep_json("test", &resumed, &probes);
        assert_eq!(
            json, reference_json,
            "{threads} threads: resumed JSON payload must be byte-identical"
        );

        // Phase 3: a third invocation re-simulates nothing (every cell and
        // probe is already in the store) and still agrees.
        let replay = run_matrix_checkpointed(
            &runner,
            &configs,
            &workloads,
            scale,
            false,
            &mut store,
            Some(0),
        )
        .unwrap()
        .expect("fully-checkpointed grid assembles under a zero budget");
        assert_matrices_bit_identical(&reference, &replay, "replay from checkpoint only");

        let _ = std::fs::remove_file(&path);
    }
}

/// The budget counts *jobs*, probes included: a sweep stopped two probes
/// into the probe tail has simulated exactly the budgeted jobs, and the
/// resumed run fills the rest into a byte-identical payload.
#[test]
fn cell_budget_counts_probes_and_the_resumed_sweep_is_byte_identical() {
    let (configs, workloads) = test_grid();
    let scale = Scale::Test;
    let id = grid::grid_id(&configs, &workloads, scale);
    let jobs = grid_jobs(&configs, &workloads);
    let cells = configs.len() * workloads.len();
    let render = |store: &SweepCheckpoint| {
        let matrix = matrix_from_store(&configs, &workloads, store).expect("every cell stored");
        let probes = probes_from_store(store).expect("every probe stored");
        render_sweep_json("test", &matrix, &probes)
    };

    let mut reference = SweepCheckpoint::in_memory(id);
    let serial = SweepRunner::with_threads(1);
    let none = FaultPolicy::none();
    run_grid(&serial, &jobs, scale, false, &none, None, &mut reference).unwrap();
    let reference_json = render(&reference);

    for threads in [1usize, 8] {
        let runner = SweepRunner::with_threads(threads);
        let path = scratch(&format!("budget-{threads}.checkpoint"));
        let _ = std::fs::remove_file(&path);

        let mut store = SweepCheckpoint::resume(&path, id).unwrap();
        let budget = Some(cells + 2);
        let failures = run_grid(&runner, &jobs, scale, false, &none, budget, &mut store).unwrap();
        assert!(failures.is_empty());
        assert_eq!(
            store.len(),
            cells + 2,
            "{threads} threads: budget respected"
        );
        assert!(matrix_from_store(&configs, &workloads, &store).is_ok());
        let missing = probes_from_store(&store).expect_err("probes fall outside the budget");
        assert_eq!(missing.len(), jobs.len() - cells - 2, "{threads} threads");
        drop(store);

        let mut store = SweepCheckpoint::resume(&path, id).unwrap();
        run_grid(&runner, &jobs, scale, false, &none, None, &mut store).unwrap();
        assert_eq!(store.len(), jobs.len());
        assert_eq!(render(&store), reference_json, "{threads} threads: resumed");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn checkpoint_refuses_a_different_grid() {
    let (configs, workloads) = test_grid();
    let id = grid::grid_id(&configs, &workloads, Scale::Test);
    let other = grid::grid_id(&configs, &workloads, Scale::Bench);
    assert_ne!(id, other);

    let path = scratch("grid-mismatch.checkpoint");
    let _ = std::fs::remove_file(&path);
    let mut store = SweepCheckpoint::resume(&path, id).unwrap();
    let runner = SweepRunner::with_threads(1);
    run_matrix_checkpointed(
        &runner,
        &configs,
        &workloads,
        Scale::Test,
        false,
        &mut store,
        Some(1),
    )
    .unwrap();
    drop(store);

    assert!(matches!(
        SweepCheckpoint::resume(&path, other),
        Err(CheckpointError::GridMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_checkpoint_never_resumes() {
    let (configs, workloads) = test_grid();
    let id = grid::grid_id(&configs, &workloads, Scale::Test);
    let path = scratch("corrupt.checkpoint");
    let _ = std::fs::remove_file(&path);

    let mut store = SweepCheckpoint::resume(&path, id).unwrap();
    let runner = SweepRunner::with_threads(1);
    run_matrix_checkpointed(
        &runner,
        &configs,
        &workloads,
        Scale::Test,
        false,
        &mut store,
        Some(2),
    )
    .unwrap();
    drop(store);

    // Tear the final record the way a crash mid-append would.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 7]).unwrap();
    assert!(matches!(
        SweepCheckpoint::resume(&path, id),
        Err(CheckpointError::Corrupt { .. })
    ));
    let _ = std::fs::remove_file(&path);
}
