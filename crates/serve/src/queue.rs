//! The server's cell queue: request → canonical job list → fault-isolated
//! parallel execution through the content-addressed cache.
//!
//! A `run` request resolves ([`resolve`], a pure function of the request)
//! to the canonical job list the sweep harness enumerates ([`grid_jobs`]:
//! workload-major matrix cells, then machine probes), so a served grid and
//! a locally-run grid name identical cells, together with each job's cache
//! address. The server resolves a repeated request once: a `GridMemo`
//! keeps the last resolved grid, so the same request sent again neither
//! rebuilds its jobs nor hashes a cell again. When the memory tier
//! holds every cell, the server answers from
//! [`acquire_all_ready`](crate::cache::CellCache::acquire_all_ready)
//! alone. Otherwise the jobs flow through [`run_jobs`]: each through a
//! cache [`acquire`] (serve-or-claim) and, for claimed cells, the **same
//! cell body the local sweep driver runs** ([`GridJob::run`], once, under
//! [`SweepRunner::run_isolated`]'s catch-unwind). The outcomes come back
//! in job order, once every job has settled.
//! A cell that fails becomes a [`CellFailure`] with full provenance, never
//! a dead server — and is never cached, so a later request runs it fresh.
//!
//! **Identity.** A policy or workload name names one configuration for
//! the life of the process: [`cell_digest`] addresses a cell by its names,
//! and the memo keys a grid by the request's text. The memo holds the
//! resolved jobs themselves, each with its [`SmConfig`], not only their
//! addresses: a memoised cell that was evicted is simulated again under
//! the configuration its name had when the request was first resolved.
//! So a `PolicyRegistry::register_global` that replaces a preset under a
//! running server is seen by neither the cache nor the memo; restart the
//! server (and clear its disk tier) after changing what a name means.
//!
//! [`acquire`]: crate::cache::CellCache::acquire

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use warpweave_bench::grid::{figure7_configs, grid_id, sweep_workloads};
use warpweave_bench::{grid_jobs, CellFailure, GridJob};
use warpweave_core::checkpoint::encode_cell;
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::{by_name, Scale};

use crate::cache::{cell_digest, Acquired, CellCache, CellLine};
use crate::protocol::RunRequest;

/// The grid a request resolved to: its jobs in canonical order, their
/// cache addresses, and the identity and scale they run under.
pub struct ResolvedGrid {
    /// Jobs in canonical order (matrix cells workload-major, probes last).
    pub jobs: Vec<GridJob>,
    /// Each job's cache address ([`job_digest`]), in job order.
    pub digests: Vec<u64>,
    /// The request's grid identity (binds the response to the grid).
    pub grid_id: u64,
    /// Problem scale of every job.
    pub scale: Scale,
}

/// Resolves a [`RunRequest`] against the policy and workload registries.
///
/// # Errors
/// Unknown front-end or workload names, or a front-end or workload listed
/// twice (one-line, for the `error|` wire line).
pub fn resolve(req: &RunRequest) -> Result<ResolvedGrid, String> {
    let configs = if req.frontends.is_empty() {
        figure7_configs()
    } else {
        SmConfig::with_policies(req.frontends.iter().map(String::as_str))?
    };
    let workloads = if req.workloads.is_empty() {
        sweep_workloads(req.full)
    } else {
        let mut workloads = Vec::new();
        for (i, n) in req.workloads.iter().enumerate() {
            if req.workloads[..i].contains(n) {
                return Err(format!("workload `{n}` is listed twice"));
            }
            workloads.push(by_name(n).ok_or_else(|| format!("unknown workload `{n}`"))?);
        }
        workloads
    };
    let scale = if req.full { Scale::Bench } else { Scale::Test };
    let mut jobs = grid_jobs(&configs, &workloads);
    if !req.probes {
        jobs.retain(|job| !job.is_probe());
    }
    Ok(ResolvedGrid {
        digests: jobs.iter().map(|job| job_digest(scale, job)).collect(),
        jobs,
        grid_id: grid_id(&configs, &workloads, scale),
        scale,
    })
}

/// The server's memo of the last resolved request. The traffic it is
/// sized for repeats one request (`serve_warm` in `benchmark/`, the CI
/// warm full-grid request), so it holds one entry, and a different
/// request replaces it. A request [`resolve`] refuses is never kept, so its error
/// is computed afresh every time it is sent.
#[derive(Default)]
pub(crate) struct GridMemo {
    last: Mutex<Option<(RunRequest, Arc<ResolvedGrid>)>>,
}

impl GridMemo {
    /// The grid `req` resolves to: the memoised one when `req` is the last
    /// request resolved, otherwise a fresh [`resolve`] (outside the lock),
    /// which then replaces it.
    ///
    /// # Errors
    /// As [`resolve`].
    pub(crate) fn resolve(&self, req: &RunRequest) -> Result<Arc<ResolvedGrid>, String> {
        if let Some((last, grid)) = &*self.last.lock().expect("memo lock") {
            if last == req {
                return Ok(Arc::clone(grid));
            }
        }
        let grid = Arc::new(resolve(req)?);
        *self.last.lock().expect("memo lock") = Some((req.clone(), Arc::clone(&grid)));
        Ok(grid)
    }
}

/// How one job of a request settled.
#[derive(Debug)]
pub enum Outcome {
    /// Served from the cache (memory, disk, or another client's
    /// just-finished simulation) — the encoded checkpoint line.
    Hit(CellLine),
    /// Simulated by this request — the encoded checkpoint line.
    Simulated(CellLine),
    /// Quarantined, with provenance.
    Failed(CellFailure),
}

impl Outcome {
    /// The wire line this outcome is answered with: the shared cell line,
    /// borrowed, or a failure's `fail|` line, rendered.
    pub fn line(&self) -> Cow<'_, str> {
        match self {
            Outcome::Hit(line) | Outcome::Simulated(line) => Cow::Borrowed(line),
            Outcome::Failed(failure) => Cow::Owned(crate::protocol::fail_line(failure)),
        }
    }
}

/// The cache address of `job` at `scale`.
pub fn job_digest(scale: Scale, job: &GridJob) -> u64 {
    cell_digest(scale, job.config.seed, &job.key, &job.config.name)
}

/// Runs `grid`'s jobs through the cache and returns their outcomes in job
/// order. Each job runs, fault-isolated, as the cache-claim wrapper around
/// [`GridJob::run`] (pure simulation, no verify) under the address
/// `grid.digests` holds for it. A worker that finds a cell `Pending` under
/// another requester blocks (only that worker) until it settles — its
/// outcome is then a [`Outcome::Hit`], since someone else paid for the
/// simulation.
pub fn run_jobs(runner: &SweepRunner, cache: &CellCache, grid: &ResolvedGrid) -> Vec<Outcome> {
    let work: Vec<(&GridJob, u64)> = grid.jobs.iter().zip(grid.digests.iter().copied()).collect();
    let isolated = runner.run_isolated(&work, |&(job, digest)| -> Result<Outcome, String> {
        match cache.acquire(digest) {
            Acquired::Ready(line) => Ok(Outcome::Hit(line)),
            Acquired::Claimed(claim) => {
                // A failure (Err or panic) drops the claim, which
                // abandons the slot — failures are never cached.
                let line = CellLine::from(encode_cell(&job.key, &job.run(grid.scale, false)?));
                claim.fulfill(line.clone());
                Ok(Outcome::Simulated(line))
            }
        }
    });
    isolated
        .into_iter()
        .zip(&grid.jobs)
        .map(|(result, job)| result.unwrap_or_else(|reason| Outcome::Failed(job.failure(reason))))
        .collect()
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
        let mut bad = RunRequest::quick();
        bad.frontends = vec!["SBI".into(), "SBI".into()];
        assert!(resolve(&bad).is_err_and(|e| e.contains("listed twice")));
        let mut bad = RunRequest::quick();
        bad.workloads = vec!["MatrixMul".into(), "MatrixMul".into()];
        assert!(resolve(&bad).is_err_and(|e| e.contains("listed twice")));
    }

    #[test]
    fn resolve_addresses_every_job() {
        let grid = resolve(&quick_pair()).unwrap();
        let expect: Vec<u64> = grid
            .jobs
            .iter()
            .map(|j| job_digest(grid.scale, j))
            .collect();
        assert_eq!(grid.digests, expect);
    }

    #[test]
    fn the_memo_keeps_the_last_request_and_no_errors() {
        let memo = GridMemo::default();
        let first = memo.resolve(&quick_pair()).unwrap();
        assert!(Arc::ptr_eq(&first, &memo.resolve(&quick_pair()).unwrap()));
        let mut bad = quick_pair();
        bad.workloads = vec!["NoSuchWorkload".into()];
        assert!(memo.resolve(&bad).is_err());
        assert!(
            Arc::ptr_eq(&first, &memo.resolve(&quick_pair()).unwrap()),
            "an error displaces nothing"
        );
        let mut other = quick_pair();
        other.workloads = vec!["SortingNetworks".into()];
        let second = memo.resolve(&other).unwrap();
        assert!(Arc::ptr_eq(&second, &memo.resolve(&other).unwrap()));
        let again = memo.resolve(&quick_pair()).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "resolved afresh");
        assert_eq!(again.digests, first.digests);
    }

    #[test]
    fn repeat_requests_are_served_entirely_from_cache() {
        let cache = CellCache::in_memory(64);
        let runner = SweepRunner::with_threads(2);
        let grid = resolve(&quick_pair()).unwrap();
        let first = run_jobs(&runner, &cache, &grid);
        assert!(first.iter().all(|o| matches!(o, Outcome::Simulated(_))));
        let second = run_jobs(&runner, &cache, &grid);
        assert!(second.iter().all(|o| matches!(o, Outcome::Hit(_))));
        // Byte-identical lines either way.
        let a: Vec<_> = first.iter().map(Outcome::line).collect();
        let b: Vec<_> = second.iter().map(Outcome::line).collect();
        assert_eq!(a, b);
    }
}
