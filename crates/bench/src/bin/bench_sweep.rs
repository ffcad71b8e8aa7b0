//! The sweep engine's CLI: runs a `workload × frontend` grid and writes
//! its results document, and records/checks the golden baseline — the
//! same document for the golden grid.
//!
//! Usage (`warpweave_bench::cli::bench_sweep` is the parser):
//!
//! * `bench_sweep [sweep] [--full] [--frontend NAMES] [--out PATH]
//!   [--threads N]` — the quick test-scale sweep (2 workloads × 5
//!   front-ends) plus the 7 machine probes, run once in memory; its
//!   results document (`render_results`, the format of
//!   `BENCH_golden.json`) is written to `--out` (default
//!   `BENCH_sweep.json`, an uncommitted file).
//!   * `--full` — the fig. 7 grid (all 21 workloads) at bench scale.
//!   * `--frontend NAMES` — replace the fig. 7 columns with the named
//!     issue policies (comma-separated registry names, e.g.
//!     `Baseline,GTO`).
//! * `bench_sweep golden check|record [--golden PATH] [--threads N]` — run
//!   the golden grid (all 21 workloads × 5 front-ends at test scale plus
//!   the probes) and diff its document against the baseline (default
//!   `BENCH_golden.json`) with **zero tolerance**, writing
//!   `PATH.diff` on drift, or record it.
//! * `bench_sweep frontends` — print every registered policy name.
//!
//! `sweep` and `golden` run their grid the same way, through `run_grid`,
//! each job once: a job that panics or fails is listed with its key and
//! seed, every other job still completes, and the command exits 4 with no
//! document or verdict. Exit codes: 0 done; 1 a file that cannot be read
//! or written (the document or the baseline) or golden drift; 2 usage
//! (one stderr line); 4 jobs quarantined. All wall-clock timing goes to
//! stderr, so the document is byte-identical at any `--threads`.

use std::process::ExitCode;
use std::time::Instant;

use warpweave_bench::cli::{self, Args, Sweep};
use warpweave_bench::grid::{self, grid_jobs};
use warpweave_bench::harness::{format_failures, run_grid};
use warpweave_bench::report::{check_golden, render_results};
use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::{PolicyRegistry, SmConfig, SweepRunner};
use warpweave_workloads::{Scale, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let s = match cli::bench_sweep(&args) {
        Ok(s) => s,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let run = match s.args.command.as_str() {
        "frontends" => {
            for name in PolicyRegistry::global_names() {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "golden check" | "golden record" => golden(&s.args),
        _ => sweep(&s),
    };
    run.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn runner(a: &Args) -> SweepRunner {
    let threads = a.number("--threads");
    threads.map_or_else(SweepRunner::new, SweepRunner::with_threads)
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

/// Runs the golden grid (full workload matrix + machine probes at test
/// scale), then checks its document against `--golden` or records it
/// there.
fn golden(a: &Args) -> Result<ExitCode, String> {
    let path = a.value("--golden").unwrap_or("BENCH_golden.json");
    let committed = (a.command == "golden check")
        .then(|| std::fs::read_to_string(path))
        .transpose()
        .map_err(|e| format!("read {path}: {e} (record one with `golden record`)"))?;
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(true);
    let Some(current) = run(&runner(a), &configs, &workloads, (Scale::Test, "test")) else {
        return Ok(ExitCode::from(4));
    };
    let Some(committed) = committed else {
        write(path, &current)?;
        eprintln!("recorded golden baseline: {path}");
        return Ok(ExitCode::SUCCESS);
    };
    let Err(report) = check_golden(&committed, &current) else {
        eprintln!("golden baseline {path}: OK (bit-exact)");
        return Ok(ExitCode::SUCCESS);
    };
    let diff_path = format!("{path}.diff");
    if let Err(e) = write(&diff_path, &report) {
        eprintln!("{e}");
    }
    eprint!("{report}");
    eprintln!("golden baseline {path}: DRIFT — report written to {diff_path}");
    Ok(ExitCode::FAILURE)
}

/// One in-memory run of the grid's canonical job list, its document
/// written to `--out`.
fn sweep(s: &Sweep) -> Result<ExitCode, String> {
    let a = &s.args;
    // The scale every job runs at, and its name in the document.
    let scale = match a.has("--full") {
        true => (Scale::Bench, "bench"),
        false => (Scale::Test, "test"),
    };
    let workloads = grid::sweep_workloads(a.has("--full"));
    let Some(document) = run(&runner(a), &s.configs, &workloads, scale) else {
        return Ok(ExitCode::from(4));
    };
    let out = a.value("--out").unwrap_or("BENCH_sweep.json");
    write(out, &document)?;
    eprintln!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}

/// Runs the canonical job list of `configs × workloads` (machine probes
/// included) at `scale` (named `label`) through [`run_grid`], pure
/// simulation with no result verification, and renders the grid's
/// results document from its store in job order. A quarantined job
/// prints the failures block instead, and the command exits 4.
fn run(
    runner: &SweepRunner,
    configs: &[SmConfig],
    workloads: &[Box<dyn Workload>],
    (scale, label): (Scale, &str),
) -> Option<String> {
    let id = grid::grid_id(configs, workloads, scale);
    let mut store = SweepCheckpoint::in_memory(id);
    let jobs = grid_jobs(configs, workloads);
    let t0 = Instant::now();
    // The front-end list holds no policy twice, so no key repeats.
    let failures = run_grid(runner, &jobs, scale, false, &mut store)
        .expect("an in-memory store records distinct keys infallibly");
    eprintln!(
        "sweep: {} grid jobs at {label} scale in {:.1} s on {} worker threads",
        jobs.len(),
        t0.elapsed().as_secs_f64(),
        runner.threads(),
    );
    if !failures.is_empty() {
        eprint!("{}", format_failures(&failures));
        return None;
    }
    // No job failed, so every job is in the store.
    let records = jobs.iter().map(|job| {
        let record = store.get(&job.key).expect("every job stored");
        (&job.key, &record.stats, record.channel.as_ref())
    });
    Some(render_results(label, id, records))
}
