//! Checkpoint merging (`merge_checkpoints`, which the frozen `benchmark/`
//! crate times): it refuses mismatched grids, torn files and conflicting
//! duplicates, and `matrix_from_store` lists the cells a union misses.
//! Inputs are written with `SweepCheckpoint::create`; a record's counters
//! do not matter to a merge, so nothing is simulated.

use warpweave_bench::grid::{self, grid_jobs};
use warpweave_bench::{matrix_from_store, merge_checkpoints};
use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::Stats;
use warpweave_workloads::Scale;

/// The quick grid's id.
fn grid_id() -> u64 {
    grid::grid_id(
        &grid::figure7_configs(),
        &grid::sweep_workloads(false),
        Scale::Test,
    )
}

/// The quick grid's `i`-th job key, with a record of `cycles` cycles.
fn cell(i: usize, cycles: u64) -> (String, CellRecord) {
    let jobs = grid_jobs(&grid::figure7_configs(), &grid::sweep_workloads(false));
    let stats = Stats {
        cycles,
        ..Stats::default()
    };
    (jobs[i].key.clone(), CellRecord::new(stats))
}

/// A unique on-disk checkpoint path for one file of one test case.
fn path(case: usize, file: usize) -> String {
    std::env::temp_dir()
        .join(format!(
            "ww-shard-merge-{}-{case}-{file}.ckpt",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Writes the quick grid's jobs at `indices` into a checkpoint of `grid`.
fn write(path: &str, grid: u64, indices: &[usize]) {
    let mut store = SweepCheckpoint::create(path, grid).expect("create checkpoint file");
    for &i in indices {
        let (key, record) = cell(i, 100 + i as u64);
        store.record(&key, record).expect("record cell");
    }
}

#[test]
fn merge_refuses_a_mismatched_grid_id() {
    let path = path(0, 0);
    write(&path, grid_id() ^ 1, &[0]);
    let err = merge_checkpoints(std::slice::from_ref(&path), grid_id()).unwrap_err();
    assert!(err.contains("grid"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn merge_refuses_a_torn_file() {
    let path = path(1, 0);
    write(&path, grid_id(), &[0, 1, 2]);
    // Tear the last record mid-line, as a crashed writer would.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 7]).unwrap();
    let err = merge_checkpoints(std::slice::from_ref(&path), grid_id()).unwrap_err();
    assert!(err.contains(&path), "error names the file: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn merge_refuses_conflicting_duplicate_cells() {
    let (a, b) = (path(2, 0), path(2, 1));
    write(&a, grid_id(), &[0]);
    let mut conflicting = SweepCheckpoint::create(&b, grid_id()).unwrap();
    let (key, record) = cell(0, 101);
    conflicting.record(&key, record).unwrap();
    let err = merge_checkpoints(&[a.clone(), b.clone()], grid_id()).unwrap_err();
    assert!(err.contains("conflicts"), "{err}");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn incomplete_unions_list_their_missing_cells() {
    let path = path(3, 0);
    write(&path, grid_id(), &[0, 1]);
    let union = merge_checkpoints(std::slice::from_ref(&path), grid_id()).unwrap();
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(false);
    let missing = matrix_from_store(&configs, &workloads, &union).unwrap_err();
    assert_eq!(missing.len(), 8, "10 matrix cells minus the 2 present");
    assert!(missing.iter().all(|k| k.contains('/')));
    let _ = std::fs::remove_file(&path);
}
