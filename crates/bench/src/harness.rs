//! The sweep driver ([`run_grid`]): a selection of the canonical job list
//! ([`grid_jobs`]) fanned out across host cores via [`SweepRunner`], with
//! per-job failure containment and every result recorded into a
//! [`SweepCheckpoint`] — plus the matrix result types the figures
//! ([`crate::figure`]) and the sweep payloads render from.

use warpweave_core::checkpoint::{CheckpointError, SweepCheckpoint};
use warpweave_core::sweep::JobFailure;
use warpweave_core::{SmConfig, Stats, SweepRunner};
use warpweave_workloads::{Scale, Workload};

use crate::grid::{grid_id, grid_jobs, GridJob};
use crate::report::{matrix_from_store, probes_from_store, ProbeResult};

/// Seed used by every benchmark configuration (determinism across figures).
pub const BENCH_SEED: u64 = 0xb1e55ed;

/// One (workload, config) measurement.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload label.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// Collected statistics.
    pub stats: Stats,
}

impl CellResult {
    /// Thread-instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// All measurements of a matrix run, in `(workload-major, config-minor)`
/// order.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Configuration labels (column order).
    pub configs: Vec<String>,
    /// Workload labels (row order).
    pub workloads: Vec<String>,
    /// `cells[w][c]` — the run of workload `w` under config `c`.
    pub cells: Vec<Vec<CellResult>>,
}

impl MatrixResult {
    /// IPC of workload row `w` under config column `c`.
    pub fn ipc(&self, w: usize, c: usize) -> f64 {
        self.cells[w][c].ipc()
    }

    /// Geometric-mean IPC per config over the given workload rows.
    pub fn gmean_ipc(&self, rows: &[usize]) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| gmean(rows.iter().map(|&w| self.ipc(w, c))))
            .collect()
    }

    /// The rows of `rows` a mean is taken over: every one but TMD1 and
    /// TMD2, as in the paper — "as the TMD application reflects properties
    /// of thread-frontier based reconvergence rather than SBI and SWI, we
    /// do not take it into account when computing the performance means"
    /// (§5.1).
    pub fn mean_rows(&self, rows: &[usize]) -> Vec<usize> {
        rows.iter()
            .copied()
            .filter(|&w| !self.workloads[w].starts_with("TMD"))
            .collect()
    }
}

/// Geometric mean of an iterator of positive values.
pub fn gmean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// The checkpoint key of one matrix cell: `workload/config`. Workload and
/// config labels never contain `|`, `#` or newlines (the characters the
/// checkpoint line format reserves), so the key is always recordable.
pub fn cell_key(workload: &str, config: &str) -> String {
    format!("{workload}/{config}")
}

/// One quarantined sweep job, with full provenance: which job, under
/// which seed, and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The job's grid key (`workload/config`, or `machine/...` for a probe).
    pub key: String,
    /// Workload label.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// The configuration's RNG seed (reproduce with exactly this).
    pub seed: u64,
    /// Why the job failed.
    pub reason: JobFailure,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: seed {:#x}: {}", self.key, self.seed, self.reason)
    }
}

/// Renders the human-readable failures block the bench binaries print to
/// stderr when cells were quarantined.
pub fn format_failures(failures: &[CellFailure]) -> String {
    let mut out = format!("FAILURES: {} cell(s) quarantined\n", failures.len());
    for f in failures {
        out.push_str(&format!("  {f}\n"));
    }
    out
}

/// **The** sweep driver: runs a selection of the canonical job list
/// ([`grid_jobs`]) — matrix cells and machine probes alike — into `store`.
///
/// Every job runs [`GridJob::run`] once, under `catch_unwind` (a job is a
/// pure function of its inputs, so a second run could only repeat a
/// failure); a panicking or erroring job is quarantined while every other
/// job still completes. Once every job has settled, each success is
/// recorded in job order, so the store is the same at any host thread
/// count. Results are read back from the store ([`matrix_from_store`],
/// [`probes_from_store`]), never from this call.
///
/// # Errors
/// The first [`CheckpointError`] hit while recording. A failed job does
/// **not** error: it comes back with its provenance in the returned list
/// (in job order), and is never recorded.
pub fn run_grid(
    runner: &SweepRunner,
    jobs: &[GridJob],
    scale: Scale,
    verify: bool,
    store: &mut SweepCheckpoint,
) -> Result<Vec<CellFailure>, CheckpointError> {
    let outcomes = runner.run_isolated(jobs, |job| job.run(scale, verify));
    let mut failures = Vec::new();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            Ok(record) => store.record(&job.key, record)?,
            Err(reason) => failures.push(job.failure(reason)),
        }
    }
    Ok(failures)
}

/// The matrix cells of a grid (its job list without the machine probes).
pub(crate) fn matrix_jobs(configs: &[SmConfig], workloads: &[Box<dyn Workload>]) -> Vec<GridJob> {
    let mut jobs = grid_jobs(configs, workloads);
    jobs.retain(|job| !job.is_probe());
    jobs
}

/// [`run_grid`] for callers to whom a half-measured grid is useless: the
/// first quarantined job panics.
fn run_strict(
    runner: &SweepRunner,
    jobs: &[GridJob],
    scale: Scale,
    verify: bool,
    store: &mut SweepCheckpoint,
) -> Result<(), CheckpointError> {
    let failures = run_grid(runner, jobs, scale, verify, store)?;
    if let Some(first) = failures.first() {
        panic!("{}: {}", first.key, first.reason);
    }
    Ok(())
}

/// Runs the full `workloads × configs` matrix in memory, fanning the
/// cells out across `runner`'s host threads. Each cell stays a single-SM
/// simulation (the paper's figures model one SM), so per-cell statistics
/// are independent of the host thread count. Callers: `benchmark/` and one
/// unit test.
///
/// # Panics
/// Simulation failures and (when `verify`) wrong results — benchmark
/// numbers from a broken run would be meaningless.
pub fn run_matrix_at(
    runner: &SweepRunner,
    configs: &[SmConfig],
    workloads: &[Box<dyn Workload>],
    scale: Scale,
    verify: bool,
) -> MatrixResult {
    let mut store = SweepCheckpoint::in_memory(grid_id(configs, workloads, scale));
    run_matrix_checkpointed(runner, configs, workloads, scale, verify, &mut store, None)
        .expect("an in-memory store records infallibly")
        .expect("no cell budget, so the grid completes")
}

/// [`run_matrix_at`] into a caller-supplied store: the matrix cells not
/// yet in `store`, at most `cell_budget` of them (`None` = all), are
/// simulated and recorded. Returns `Ok(None)` while the matrix is still
/// incomplete; the completed matrix is assembled from the store. Only
/// `benchmark/` calls it.
///
/// # Errors
/// The first [`CheckpointError`] hit while recording.
///
/// # Panics
/// Simulation failures, as in [`run_matrix_at`].
pub fn run_matrix_checkpointed(
    runner: &SweepRunner,
    configs: &[SmConfig],
    workloads: &[Box<dyn Workload>],
    scale: Scale,
    verify: bool,
    store: &mut SweepCheckpoint,
    cell_budget: Option<usize>,
) -> Result<Option<MatrixResult>, CheckpointError> {
    let mut jobs = matrix_jobs(configs, workloads);
    jobs.retain(|job| !store.contains(&job.key));
    jobs.truncate(cell_budget.unwrap_or(usize::MAX));
    run_strict(runner, &jobs, scale, verify, store)?;
    Ok(matrix_from_store(configs, workloads, store).ok())
}

/// Runs every machine probe of the sweep grid at `scale` into `store`
/// (or a scratch store), one after the other on the calling host thread,
/// without result verification. Only `benchmark/` calls it.
///
/// # Errors
/// Checkpoint recording failures.
///
/// # Panics
/// Simulation failures — a sweep with a broken probe has no value.
pub fn run_machine_probes(
    scale: Scale,
    store: Option<&mut SweepCheckpoint>,
) -> Result<Vec<ProbeResult>, CheckpointError> {
    let mut scratch = SweepCheckpoint::in_memory(0);
    let store = store.unwrap_or(&mut scratch);
    // An empty matrix leaves exactly the probes in the job list.
    let probes = grid_jobs(&[], &[]);
    run_strict(&SweepRunner::with_threads(1), &probes, scale, false, store)?;
    Ok(probes_from_store(store).expect("no failures, so every probe is stored"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean([4.0f64, 16.0].into_iter()) - 8.0).abs() < 1e-9);
        assert_eq!(gmean(std::iter::empty()), 0.0);
        let one = gmean([5.0f64].into_iter());
        assert!((one - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_matrix_runs() {
        // One cheap workload × two configs, verified.
        let configs = vec![SmConfig::baseline(), SmConfig::sbi()];
        let workloads = vec![warpweave_workloads::by_name("Hotspot").expect("registered")];
        let m = run_matrix_at(
            &SweepRunner::with_threads(2),
            &configs,
            &workloads,
            Scale::Test,
            true,
        );
        assert_eq!(m.workloads, ["Hotspot"]);
        assert_eq!(m.configs, ["Baseline", "SBI"]);
        assert!(m.ipc(0, 0) > 0.0 && m.ipc(0, 1) > 0.0);
    }
}
