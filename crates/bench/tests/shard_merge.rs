//! Shard-merge determinism: for ANY partition of the sweep grid into
//! shard checkpoints — contiguous, round-robin, overlapping, or with
//! empty shards — the merged payload is byte-identical to the
//! single-host `BENCH_sweep.json`, and merge refuses mismatched grids,
//! torn files and conflicting duplicates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use warpweave_bench::grid::{self, grid_jobs, GridJob};
use warpweave_bench::{
    matrix_from_store, merge_checkpoints, probes_from_store, render_sweep_json, run_grid,
    FaultPolicy, ShardSpec,
};
use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::SweepRunner;
use warpweave_workloads::Scale;

/// The quick grid simulated once: every job's `(key, record)` in
/// canonical order, the grid id, and the reference single-host payload.
struct Reference {
    records: Vec<(String, CellRecord)>,
    grid_id: u64,
    json: String,
}

/// Runs `jobs` of the quick grid into `store`; nothing may fail.
fn sweep(jobs: &[GridJob], store: &mut SweepCheckpoint) {
    let runner = SweepRunner::with_threads(2);
    let policy = FaultPolicy::none();
    let failures =
        run_grid(&runner, jobs, Scale::Test, false, &policy, None, store).expect("sweep records");
    assert!(failures.is_empty(), "{failures:?}");
}

/// Renders the sweep payload from a store holding (part of) the quick grid.
fn render(store: &SweepCheckpoint) -> Result<String, String> {
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(false);
    let matrix = matrix_from_store(&configs, &workloads, store)
        .map_err(|missing| format!("missing cells: {missing:?}"))?;
    let probes =
        probes_from_store(store).map_err(|missing| format!("missing probes: {missing:?}"))?;
    Ok(render_sweep_json("test", &matrix, &probes))
}

fn quick_jobs() -> Vec<GridJob> {
    grid_jobs(&grid::figure7_configs(), &grid::sweep_workloads(false))
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let configs = grid::figure7_configs();
        let workloads = grid::sweep_workloads(false);
        let id = grid::grid_id(&configs, &workloads, Scale::Test);
        let jobs = quick_jobs();
        let mut store = SweepCheckpoint::in_memory(id);
        sweep(&jobs, &mut store);
        // Canonical job order: matrix cells workload-major, then probes.
        let records = jobs
            .iter()
            .map(|job| (job.key.clone(), store.get(&job.key).expect("job").clone()))
            .collect();
        Reference {
            records,
            grid_id: id,
            json: render(&store).expect("full grid"),
        }
    })
}

/// A unique on-disk checkpoint path for one shard of one test case.
fn shard_path(case: usize, shard: usize) -> String {
    std::env::temp_dir()
        .join(format!(
            "ww-shard-merge-{}-{case}-{shard}.ckpt",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Writes the jobs at `indices` into a file-backed shard checkpoint.
fn write_shard(path: &str, indices: &[usize]) {
    let reference = reference();
    let _ = std::fs::remove_file(path);
    let mut shard = SweepCheckpoint::resume(path, reference.grid_id).expect("create shard file");
    for &i in indices {
        let (key, record) = &reference.records[i];
        shard.record(key, record.clone()).expect("record cell");
    }
}

/// Renders the sweep payload from a merged union store.
fn render_union(paths: &[String]) -> Result<String, String> {
    render(&merge_checkpoints(paths, reference().grid_id)?)
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ANY covering partition — each job in one primary shard plus an
    /// arbitrary overlap set, shards possibly empty — merges to the
    /// byte-identical single-host payload, in any merge order.
    #[test]
    fn any_partition_merges_byte_identical(
        primaries in proptest::collection::vec(0usize..4, 17..18),
        overlaps in proptest::collection::vec(0usize..16, 17..18),
        order_seed in 0usize..24,
    ) {
        let reference = reference();
        prop_assert_eq!(reference.records.len(), 17, "quick grid: 10 cells + 7 probes");
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); 4];
        for (job, (&primary, &overlap)) in primaries.iter().zip(&overlaps).enumerate() {
            shards[primary].push(job);
            for (s, jobs) in shards.iter_mut().enumerate() {
                if s != primary && overlap & (1 << s) != 0 {
                    jobs.push(job);
                }
            }
        }
        // The merge order is an arbitrary permutation of the shards
        // (Lehmer-decoded from the seed): union must be order-free.
        let mut avail: Vec<usize> = (0..4).collect();
        let mut order = Vec::new();
        let mut seed = order_seed;
        for radix in (1..=4usize).rev() {
            order.push(avail.remove(seed % radix));
            seed /= radix;
        }
        let paths: Vec<String> = order
            .iter()
            .map(|&s| {
                let path = shard_path(case, s);
                write_shard(&path, &shards[s]);
                path
            })
            .collect();
        let merged = render_union(&paths);
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
        prop_assert_eq!(merged.as_deref(), Ok(reference.json.as_str()));
    }
}

#[test]
fn round_robin_sharded_execution_reproduces_the_single_host_payload() {
    // The real execution path: three `--jobs-from shard:K/3` runs into
    // three stores, unioned, rendered — against the same reference the
    // partition property uses.
    let reference = reference();
    let jobs = quick_jobs();
    let mut union = SweepCheckpoint::in_memory(reference.grid_id);
    for k in 0..3 {
        let spec = ShardSpec::parse(&format!("shard:{k}/3")).unwrap();
        let indices = spec.select(jobs.len()).unwrap();
        let shard: Vec<GridJob> = indices.iter().map(|&i| jobs[i].clone()).collect();
        let mut store = SweepCheckpoint::in_memory(reference.grid_id);
        sweep(&shard, &mut store);
        assert_eq!(store.len(), shard.len(), "a shard runs exactly its slice");
        for key in store.keys() {
            union
                .record(key, store.get(key).unwrap().clone())
                .expect("union record");
        }
    }
    assert_eq!(
        render(&union).as_deref(),
        Ok(reference.json.as_str()),
        "sharded execution must be byte-identical to single-host"
    );
}

#[test]
fn merge_refuses_a_mismatched_grid_id() {
    let reference = reference();
    let path = shard_path(9000, 0);
    let _ = std::fs::remove_file(&path);
    let mut alien = SweepCheckpoint::resume(&path, reference.grid_id ^ 1).unwrap();
    let (key, record) = &reference.records[0];
    alien.record(key, record.clone()).unwrap();
    let err = merge_checkpoints(std::slice::from_ref(&path), reference.grid_id).unwrap_err();
    assert!(err.contains("grid"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn merge_refuses_a_torn_shard_file() {
    let reference = reference();
    let path = shard_path(9001, 0);
    write_shard(&path, &[0, 1, 2]);
    // Tear the last record mid-line, as a crashed writer would.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 7]).unwrap();
    let err = merge_checkpoints(std::slice::from_ref(&path), reference.grid_id).unwrap_err();
    assert!(err.contains(&path), "error names the file: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn merge_refuses_conflicting_duplicate_cells() {
    let reference = reference();
    let a = shard_path(9002, 0);
    let b = shard_path(9002, 1);
    write_shard(&a, &[0]);
    let _ = std::fs::remove_file(&b);
    let mut conflicting = SweepCheckpoint::resume(&b, reference.grid_id).unwrap();
    let (key, record) = &reference.records[0];
    let mut tampered = record.clone();
    tampered.stats.cycles += 1;
    conflicting.record(key, tampered).unwrap();
    let err = merge_checkpoints(&[a.clone(), b.clone()], reference.grid_id).unwrap_err();
    assert!(err.contains("conflicts"), "{err}");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn incomplete_unions_list_their_missing_cells() {
    let reference = reference();
    let path = shard_path(9003, 0);
    write_shard(&path, &[0, 1]);
    let union = merge_checkpoints(std::slice::from_ref(&path), reference.grid_id).unwrap();
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(false);
    let missing = matrix_from_store(&configs, &workloads, &union).unwrap_err();
    assert_eq!(missing.len(), 8, "10 matrix cells minus the 2 present");
    assert!(missing.iter().all(|k| k.contains('/')));
    let _ = std::fs::remove_file(&path);
}
