//! The sweep driver ([`run_grid`]): a selection of the canonical job list
//! ([`grid_jobs`]) fanned out across host cores via [`SweepRunner`], with
//! per-job checkpointing through [`SweepCheckpoint`] and per-job failure
//! containment — plus the matrix result types and table formatters the
//! figure binaries share.

use std::sync::{Arc, Mutex};

use warpweave_core::checkpoint::{CheckpointError, SweepCheckpoint};
use warpweave_core::faultinject::{FaultInjector, FaultKind, FaultPlan, FAULTS_ENV};
use warpweave_core::sweep::JobFailure;
use warpweave_core::{SmConfig, Stats, SweepRunner};
use warpweave_mem::DramConfig;
use warpweave_workloads::{Scale, Workload};

use crate::grid::{grid_id, grid_jobs, GridJob};
use crate::report::{probes_from_store, ProbeResult};
use crate::shard::matrix_from_store;

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

    /// DRAM bandwidth saturation of the run: fraction of the channel's
    /// byte budget actually moved (see [`Stats::dram_utilization`]).
    pub fn dram_utilization(&self, dram: &DramConfig) -> f64 {
        self.stats.dram_utilization(dram)
    }

    /// Mean cycles each DRAM load queued behind the channel.
    pub fn avg_dram_queue_delay(&self) -> f64 {
        self.stats.avg_dram_queue_delay()
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

    /// Row index of a workload by name.
    pub fn row(&self, workload: &str) -> Option<usize> {
        self.workloads.iter().position(|w| w == workload)
    }

    /// Mean DRAM bandwidth saturation per config over the given rows.
    pub fn mean_dram_utilization(&self, rows: &[usize], dram: &DramConfig) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| {
                if rows.is_empty() {
                    0.0
                } else {
                    rows.iter()
                        .map(|&w| self.cells[w][c].dram_utilization(dram))
                        .sum::<f64>()
                        / rows.len() as f64
                }
            })
            .collect()
    }

    /// Mean per-load DRAM queue delay per config over the given rows.
    pub fn mean_dram_queue_delay(&self, rows: &[usize]) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| {
                if rows.is_empty() {
                    0.0
                } else {
                    rows.iter()
                        .map(|&w| self.cells[w][c].avg_dram_queue_delay())
                        .sum::<f64>()
                        / rows.len() as f64
                }
            })
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
/// which seed, how many attempts were made, and why the last one failed.
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
    /// Attempts made before quarantine.
    pub attempts: u32,
    /// The final attempt's failure.
    pub reason: JobFailure,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: seed {:#x}, {} attempt(s): {}",
            self.key, self.seed, self.attempts, self.reason
        )
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

/// Containment policy of a [`run_grid`] run: how often a failing job is
/// retried, and an optional armed fault plan (tests/CI).
#[derive(Debug, Default)]
pub struct FaultPolicy {
    /// Retries per job after its first failed attempt.
    pub max_retries: u32,
    /// Deterministic fault injection, when armed.
    pub injector: Option<Arc<FaultInjector>>,
}

impl FaultPolicy {
    /// No retries, no injection.
    pub fn none() -> FaultPolicy {
        FaultPolicy::default()
    }

    /// Reads a fault plan from the [`FAULTS_ENV`] environment variable
    /// (no plan set means no injection).
    ///
    /// # Errors
    /// A malformed spec, rendered as a human-readable message.
    pub fn from_env(max_retries: u32) -> Result<FaultPolicy, String> {
        Ok(FaultPolicy {
            max_retries,
            injector: FaultPlan::from_env()?.map(|plan| Arc::new(plan.arm())),
        })
    }
}

/// **The** sweep driver: runs a selection of the canonical job list
/// ([`grid_jobs`]) — matrix cells and machine probes alike — into `store`.
///
/// * Jobs whose key is already in `store` are skipped, so the same call
///   resumes an interrupted sweep; `budget` caps how many *new* jobs this
///   call attempts (`None` = all of them).
/// * Every attempt first consults `policy.injector` with the job's
///   full-grid index and key, then runs [`GridJob::run`] under
///   `catch_unwind`; a panicking or erroring job is retried up to
///   `policy.max_retries` times and then quarantined as a [`CellFailure`]
///   while every other job still completes.
/// * Each success is recorded (and, for a file-backed store, flushed)
///   the moment it settles, from whichever worker ran it; quarantined
///   jobs are never recorded, so a later run re-attempts exactly those.
///
/// Results are read back from the store ([`matrix_from_store`],
/// [`probes_from_store`]), never from this call: a job is a pure function
/// of `(workload, config, scale)`, so it does not matter which run, host
/// thread or shard computed it, and a resumed or sharded sweep is
/// bit-identical to an uninterrupted single-host one. A job missing from
/// the store afterwards either failed (it is in the returned list, which
/// is in job order) or fell outside the budget.
///
/// # Errors
/// The first [`CheckpointError`] hit while recording. Simulation
/// failures do **not** error — they come back as the failure list.
pub fn run_grid(
    runner: &SweepRunner,
    jobs: &[GridJob],
    scale: Scale,
    verify: bool,
    policy: &FaultPolicy,
    budget: Option<usize>,
    store: &mut SweepCheckpoint,
) -> Result<Vec<CellFailure>, CheckpointError> {
    let remaining: Vec<&GridJob> = jobs
        .iter()
        .filter(|job| !store.contains(&job.key))
        .take(budget.unwrap_or(usize::MAX))
        .collect();

    // The store is appended to from worker threads in completion order;
    // the mutex serialises the appends, the Option keeps the first
    // recording error (later jobs still simulate, they just stop
    // persisting). Lock recovery is poison-tolerant: a job panic is caught
    // *inside* the isolated closure, but belt-and-braces beats a second
    // abort.
    let recorder: Mutex<(&mut SweepCheckpoint, Option<CheckpointError>)> =
        Mutex::new((store, None));
    let outcomes = runner.run_isolated_reporting(
        &remaining,
        policy.max_retries,
        |job| {
            let (index, key) = (job.index, &job.key);
            let fault = policy
                .injector
                .as_ref()
                .and_then(|injector| injector.cell_fault(index, key));
            match fault {
                Some(FaultKind::Panic) => panic!("injected fault: panic in cell {index} ({key})"),
                Some(FaultKind::SimError) => Err(format!(
                    "injected fault: simulation error in cell {index} ({key})"
                )),
                None => job.run(scale, verify),
            }
        },
        |i, outcome| {
            if let Ok(record) = &outcome.result {
                let mut guard = recorder
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if guard.1.is_none() {
                    if let Err(e) = guard.0.record(&remaining[i].key, record.clone()) {
                        guard.1 = Some(e);
                    }
                }
            }
        },
    );
    let (_, error) = recorder
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(e) = error {
        return Err(e);
    }
    Ok(remaining
        .iter()
        .zip(outcomes)
        .filter_map(|(job, outcome)| {
            let reason = outcome.result.err()?;
            Some(job.failure(outcome.attempts, reason))
        })
        .collect())
}

/// The matrix cells of a grid (its job list without the machine probes).
fn matrix_jobs(configs: &[SmConfig], workloads: &[Box<dyn Workload>]) -> Vec<GridJob> {
    let mut jobs = grid_jobs(configs, workloads);
    jobs.retain(|job| !job.is_probe());
    jobs
}

/// [`run_grid`] for callers to whom a half-measured grid is useless: no
/// retries, no injection, and the first quarantined job panics.
fn run_strict(
    runner: &SweepRunner,
    jobs: &[GridJob],
    scale: Scale,
    verify: bool,
    budget: Option<usize>,
    store: &mut SweepCheckpoint,
) -> Result<(), CheckpointError> {
    let failures = run_grid(
        runner,
        jobs,
        scale,
        verify,
        &FaultPolicy::none(),
        budget,
        store,
    )?;
    if let Some(first) = failures.first() {
        panic!("{}: {}", first.key, first.reason);
    }
    Ok(())
}

/// Runs the full `workloads × configs` matrix in memory, fanning the
/// cells out across `runner`'s host threads. Each cell stays a single-SM
/// simulation (the paper's figures model one SM), so per-cell statistics
/// are independent of the host thread count.
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

/// [`run_matrix_at`] into a caller-supplied store: cells already present
/// in `store` are not re-simulated, every freshly completed cell is
/// recorded the moment it finishes, and `cell_budget` caps how many *new*
/// cells this call runs. Returns `Ok(None)` while the matrix is still
/// incomplete (resume later); the completed matrix is assembled from the
/// store, so a resumed sweep is bit-identical to an uninterrupted one.
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
    let jobs = matrix_jobs(configs, workloads);
    run_strict(runner, &jobs, scale, verify, cell_budget, store)?;
    Ok(matrix_from_store(configs, workloads, store).ok())
}

/// Runs (or resumes from `store`) every machine probe of the sweep grid
/// at `scale`, one after the other on the calling host thread, without
/// result verification.
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
    run_strict(
        &SweepRunner::with_threads(1),
        &probes,
        scale,
        false,
        None,
        store,
    )?;
    Ok(probes_from_store(store).expect("no budget and no failures, so every probe is stored"))
}

/// The figure binaries' entry point: runs a figure's matrix through
/// [`run_grid`], fault-isolated under the policy from [`FAULTS_ENV`] (no
/// env var means no injection; one retry either way). With a `checkpoint`
/// path the grid resumes from (and records into) that file — bound via
/// [`grid_id`] to this exact config/workload set, so a stale file from a
/// different figure can never be resumed against it; without one it runs
/// purely in memory.
///
/// Quarantined cells print a failures block to stderr and **exit the
/// process with code 4** — every healthy cell is already persisted to the
/// checkpoint, so nothing is lost.
///
/// # Panics
/// Checkpoint failures or a malformed fault spec — a partial figure is
/// useless.
pub fn run_matrix_figure(
    runner: &SweepRunner,
    configs: &[SmConfig],
    workloads: &[Box<dyn Workload>],
    scale: Scale,
    verify: bool,
    checkpoint: Option<&str>,
) -> MatrixResult {
    let policy =
        FaultPolicy::from_env(1).unwrap_or_else(|e| panic!("bad {FAULTS_ENV} fault spec: {e}"));
    let id = grid_id(configs, workloads, scale);
    let mut store = match checkpoint {
        Some(path) => {
            let store = SweepCheckpoint::resume(path, id)
                .unwrap_or_else(|e| panic!("checkpoint {path}: {e}"));
            if !store.is_empty() {
                eprintln!(
                    "checkpoint {path}: resuming with {} completed cell(s)",
                    store.len()
                );
            }
            store
        }
        None => SweepCheckpoint::in_memory(id),
    };
    if let Some(injector) = &policy.injector {
        store.arm_faults(Arc::clone(injector));
    }
    let jobs = matrix_jobs(configs, workloads);
    let failures = run_grid(runner, &jobs, scale, verify, &policy, None, &mut store)
        .unwrap_or_else(|e| panic!("figure grid: {e}"));
    if !failures.is_empty() {
        eprint!("{}", format_failures(&failures));
        eprintln!("completed cells are persisted; fix the fault and re-run to fill the gaps");
        std::process::exit(4);
    }
    matrix_from_store(configs, workloads, &store)
        .expect("no budget and no failures, so the grid completes")
}

/// Formats an IPC table: one row per workload, one column per config, plus
/// a geometric-mean row over `mean_rows`.
pub fn format_ipc_table(m: &MatrixResult, mean_rows: &[usize], mean_label: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<22}", "benchmark"));
    for c in &m.configs {
        out.push_str(&format!("{c:>12}"));
    }
    out.push('\n');
    for (w, name) in m.workloads.iter().enumerate() {
        out.push_str(&format!("{name:<22}"));
        for c in 0..m.configs.len() {
            out.push_str(&format!("{:>12.1}", m.ipc(w, c)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{mean_label:<22}"));
    for g in m.gmean_ipc(mean_rows) {
        out.push_str(&format!("{g:>12.1}"));
    }
    out.push('\n');
    out
}

/// Formats the bandwidth-saturation companion table: one row per workload,
/// one column per config, each cell the run's DRAM utilization in percent,
/// plus mean-utilization and mean-queue-delay summary rows over
/// `mean_rows`. This is how every figure binary records how close its
/// configurations run to the memory wall.
pub fn format_bandwidth_table(m: &MatrixResult, dram: &DramConfig, mean_rows: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<22}", "dram util %"));
    for c in &m.configs {
        out.push_str(&format!("{c:>12}"));
    }
    out.push('\n');
    for (w, name) in m.workloads.iter().enumerate() {
        out.push_str(&format!("{name:<22}"));
        for c in 0..m.configs.len() {
            out.push_str(&format!(
                "{:>12.1}",
                m.cells[w][c].dram_utilization(dram) * 100.0
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<22}", "Mean util %"));
    for u in m.mean_dram_utilization(mean_rows, dram) {
        out.push_str(&format!("{:>12.1}", u * 100.0));
    }
    out.push('\n');
    out.push_str(&format!("{:<22}", "Queue delay (cy)"));
    for d in m.mean_dram_queue_delay(mean_rows) {
        out.push_str(&format!("{d:>12.1}"));
    }
    out.push('\n');
    out
}

/// Formats the compact per-config bandwidth summary (mean DRAM
/// saturation and queue delay over `rows`) the fig8/fig9 binaries append
/// below their speedup tables.
pub fn format_bandwidth_summary(m: &MatrixResult, dram: &DramConfig, rows: &[usize]) -> String {
    let utils = m.mean_dram_utilization(rows, dram);
    let delays = m.mean_dram_queue_delay(rows);
    let width = m.configs.iter().map(String::len).max().unwrap_or(0).max(14);
    let mut out = String::from("DRAM saturation (mean over shown rows):\n");
    for (c, name) in m.configs.iter().enumerate() {
        out.push_str(&format!(
            "  {:<width$} {:5.1}% of bandwidth, {:6.1} cy avg queue delay\n",
            name,
            utils[c] * 100.0,
            delays[c]
        ));
    }
    out
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
