//! Resume smoke test for the checkpointed figure grids (fig8a/fig8b/fig9):
//! the figure binaries route through `harness::run_matrix_figure`, so an
//! interrupted figure run must resume from its checkpoint file and finish
//! with results bit-identical to an uninterrupted in-memory run — and a
//! checkpoint recorded for one figure's grid must be refused by another's.

use warpweave_bench::grid;
use warpweave_bench::harness::{run_matrix_at, run_matrix_checkpointed, run_matrix_figure};
use warpweave_bench::MatrixResult;
use warpweave_core::checkpoint::{CheckpointError, SweepCheckpoint};
use warpweave_core::SweepRunner;
use warpweave_workloads::{by_name, Scale, Workload};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-fig-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// One cheap workload keeps the smoke test fast; the config columns are
/// the real fig. 8(a) grid.
fn fig8a_test_grid() -> (Vec<warpweave_core::SmConfig>, Vec<Box<dyn Workload>>) {
    let configs = grid::constraint_configs();
    let workloads = vec![by_name("Hotspot").expect("registered workload")];
    (configs, workloads)
}

fn assert_matrices_bit_identical(a: &MatrixResult, b: &MatrixResult, what: &str) {
    assert_eq!(a.workloads, b.workloads, "{what}: workload rows");
    assert_eq!(a.configs, b.configs, "{what}: config columns");
    for (ra, rb) in a.cells.iter().zip(&b.cells) {
        for (ca, cb) in ra.iter().zip(rb) {
            assert_eq!(
                ca.stats, cb.stats,
                "{what}: cell {}/{}",
                ca.workload, ca.config
            );
        }
    }
}

#[test]
fn interrupted_figure_grid_resumes_bit_identical() {
    let (configs, workloads) = fig8a_test_grid();
    let scale = Scale::Test;
    let id = grid::grid_id(&configs, &workloads, scale);
    let runner = SweepRunner::with_threads(1);
    let path = scratch("fig8a.checkpoint");
    let _ = std::fs::remove_file(&path);

    // The uninterrupted in-memory reference.
    let reference = run_matrix_at(&runner, &configs, &workloads, scale, false);

    // Phase 1: "kill" the figure run after 2 of its 4 cells (a cell
    // budget stands in for SIGKILL at a cell boundary).
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
    assert!(partial.is_none(), "grid cannot be complete after 2 cells");
    assert_eq!(store.len(), 2, "cell budget respected");
    drop(store);

    // Phase 2: the figure entry point resumes from disk and completes.
    let resumed = run_matrix_figure(
        &runner,
        &configs,
        &workloads,
        scale,
        false,
        Some(path.to_str().expect("utf-8 scratch path")),
    );
    assert_matrices_bit_identical(&reference, &resumed, "resumed fig8a grid");

    // The checkpoint now holds the full grid; a re-run simulates nothing
    // new and still reproduces the same matrix from the store.
    let replayed = run_matrix_figure(
        &runner,
        &configs,
        &workloads,
        scale,
        false,
        Some(path.to_str().expect("utf-8 scratch path")),
    );
    assert_matrices_bit_identical(&reference, &replayed, "replayed fig8a grid");
}

#[test]
fn figure_checkpoints_are_grid_bound() {
    // A checkpoint recorded for the fig8a grid must be refused when
    // resumed against the fig9 grid (different configs → different id).
    let (configs_a, workloads) = fig8a_test_grid();
    let scale = Scale::Test;
    let id_a = grid::grid_id(&configs_a, &workloads, scale);
    let path = scratch("cross-figure.checkpoint");
    let _ = std::fs::remove_file(&path);
    let mut store = SweepCheckpoint::resume(&path, id_a).unwrap();
    let _ = run_matrix_checkpointed(
        &SweepRunner::with_threads(1),
        &configs_a,
        &workloads,
        scale,
        false,
        &mut store,
        Some(1),
    )
    .unwrap();
    drop(store);

    let configs_9 = grid::associativity_configs();
    let id_9 = grid::grid_id(&configs_9, &workloads, scale);
    assert_ne!(id_a, id_9, "distinct figure grids must have distinct ids");
    match SweepCheckpoint::resume(&path, id_9) {
        Err(CheckpointError::GridMismatch { .. }) => {}
        other => panic!("expected grid-mismatch refusal, got {other:?}"),
    }
}
