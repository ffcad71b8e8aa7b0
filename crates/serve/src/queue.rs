//! The server's cell queue: request → canonical job list → fault-isolated
//! parallel execution through the content-addressed cache.
//!
//! A `run` request resolves to the canonical job list the sweep harness
//! enumerates ([`grid_jobs`]: workload-major matrix cells, then machine
//! probes), so a served grid and a locally-run grid name identical cells.
//! Each job then flows through [`run_jobs`]: a cache [`acquire`]
//! (serve-or-claim), and for claimed cells the **same cell body the local
//! sweep driver runs** ([`GridJob::run`] under
//! [`SweepRunner::run_isolated_reporting`]'s catch-unwind + retry loop).
//! A cell that exhausts its retries becomes a [`CellFailure`] with full
//! provenance, never a dead server — and is never cached, so a later
//! request re-attempts it fresh.
//!
//! [`acquire`]: crate::cache::CellCache::acquire

use warpweave_bench::grid::{figure7_configs, grid_id, sweep_workloads};
use warpweave_bench::{grid_jobs, CellFailure, GridJob};
use warpweave_core::checkpoint::encode_cell;
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::{by_name, Scale};

use crate::cache::{cell_digest, Acquired, CellCache};
use crate::protocol::RunRequest;

/// The grid a request resolved to: its jobs in canonical order plus the
/// identity and scale they run under.
pub struct ResolvedGrid {
    /// Jobs in canonical order (matrix cells workload-major, probes last).
    pub jobs: Vec<GridJob>,
    /// The request's grid identity (binds the response to the grid).
    pub grid_id: u64,
    /// Problem scale of every job.
    pub scale: Scale,
}

/// Resolves a [`RunRequest`] against the policy and workload registries.
///
/// # Errors
/// Unknown front-end or workload names (one-line, for the `error|` wire
/// line).
pub fn resolve(req: &RunRequest) -> Result<ResolvedGrid, String> {
    let configs: Vec<SmConfig> = if req.frontends.is_empty() {
        figure7_configs()
    } else {
        req.frontends
            .iter()
            .map(|n| SmConfig::with_policy(n))
            .collect::<Result<_, _>>()?
    };
    let workloads = if req.workloads.is_empty() {
        sweep_workloads(req.full)
    } else {
        req.workloads
            .iter()
            .map(|n| by_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .collect::<Result<Vec<_>, String>>()?
    };
    let scale = if req.full { Scale::Bench } else { Scale::Test };
    let mut jobs = grid_jobs(&configs, &workloads);
    if !req.probes {
        jobs.retain(|job| !job.is_probe());
    }
    Ok(ResolvedGrid {
        jobs,
        grid_id: grid_id(&configs, &workloads, scale),
        scale,
    })
}

/// How one job of a request settled.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Served from the cache (memory, disk, or another client's
    /// just-finished simulation) — the encoded checkpoint line.
    Hit(String),
    /// Simulated by this request — the encoded checkpoint line.
    Simulated(String),
    /// Quarantined after its retry budget, with provenance.
    Failed(CellFailure),
}

impl Outcome {
    /// The wire line this outcome streams as.
    pub fn line(&self) -> String {
        match self {
            Outcome::Hit(line) | Outcome::Simulated(line) => line.clone(),
            Outcome::Failed(f) => crate::protocol::fail_line(f),
        }
    }
}

/// The cache address of `job` at `scale`.
pub fn job_digest(scale: Scale, job: &GridJob) -> u64 {
    cell_digest(scale, job.config.seed, &job.key, &job.config.name)
}

/// Runs `jobs` through the cache and the fault-isolated parallel runner:
/// the cache-claim wrapper around [`GridJob::run`] (pure simulation, no
/// verify, as in every timing sweep). `on_done(index, outcome)` fires in
/// **completion order** on worker threads; the returned vector is in job
/// order. A worker that finds a cell `Pending` under another requester
/// blocks (only that worker) until the cell settles — its outcome is
/// then a [`Outcome::Hit`], since someone else paid for the simulation.
pub fn run_jobs(
    runner: &SweepRunner,
    cache: &CellCache,
    scale: Scale,
    max_retries: u32,
    jobs: &[GridJob],
    on_done: impl Fn(usize, &Outcome) + Sync + Send,
) -> Vec<Outcome> {
    let outcomes = runner.run_isolated_reporting(
        jobs,
        max_retries,
        |job| -> Result<Outcome, String> {
            match cache.acquire(job_digest(scale, job)) {
                Acquired::Ready(line) => Ok(Outcome::Hit(line)),
                Acquired::Claimed(claim) => {
                    // A failure (Err or panic) drops the claim, which
                    // abandons the slot — failures are never cached.
                    let line = encode_cell(&job.key, &job.run(scale, false)?);
                    claim.fulfill(line.clone());
                    Ok(Outcome::Simulated(line))
                }
            }
        },
        |i, isolated| on_done(i, &settle(&jobs[i], isolated)),
    );
    jobs.iter()
        .zip(&outcomes)
        .map(|(job, isolated)| settle(job, isolated))
        .collect()
}

/// Converts one isolated outcome into the wire-facing [`Outcome`],
/// attaching the job's provenance to failures.
fn settle(job: &GridJob, isolated: &warpweave_core::IsolatedOutcome<Outcome>) -> Outcome {
    match &isolated.result {
        Ok(outcome) => outcome.clone(),
        Err(reason) => Outcome::Failed(job.failure(isolated.attempts, reason.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RunRequest;

    fn quick_pair() -> RunRequest {
        RunRequest {
            full: false,
            frontends: vec!["Baseline".into(), "SWI".into()],
            workloads: vec!["MatrixMul".into()],
            probes: false,
        }
    }

    #[test]
    fn resolve_orders_jobs_canonically() {
        let grid = resolve(&RunRequest::quick()).unwrap();
        // 2 quick workloads × 5 fig-7 configs, then the probes.
        let probes = warpweave_bench::grid::machine_probes().len();
        assert_eq!(grid.jobs.len(), 10 + probes);
        assert_eq!(grid.jobs[0].key, "MatrixMul/Baseline");
        assert_eq!(grid.jobs[9].key, "SortingNetworks/Warp64");
        assert!(grid.jobs[10].key.starts_with("machine/"));
    }

    #[test]
    fn resolve_rejects_unknown_names() {
        let mut bad = RunRequest::quick();
        bad.frontends = vec!["NoSuchPolicy".into()];
        assert!(resolve(&bad).is_err());
        let mut bad = RunRequest::quick();
        bad.workloads = vec!["NoSuchWorkload".into()];
        assert!(resolve(&bad).is_err());
    }

    #[test]
    fn repeat_requests_are_served_entirely_from_cache() {
        let cache = CellCache::in_memory(64);
        let runner = SweepRunner::with_threads(2);
        let grid = resolve(&quick_pair()).unwrap();
        let first = run_jobs(&runner, &cache, grid.scale, 0, &grid.jobs, |_, _| {});
        assert!(first.iter().all(|o| matches!(o, Outcome::Simulated(_))));
        let second = run_jobs(&runner, &cache, grid.scale, 0, &grid.jobs, |_, _| {});
        assert!(second.iter().all(|o| matches!(o, Outcome::Hit(_))));
        // Byte-identical lines either way.
        let a: Vec<String> = first.iter().map(Outcome::line).collect();
        let b: Vec<String> = second.iter().map(Outcome::line).collect();
        assert_eq!(a, b);
    }
}
