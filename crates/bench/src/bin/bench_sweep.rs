//! The sweep engine's CLI: runs the `workload × frontend` grid, emits the
//! deterministic `BENCH_sweep.json` payload, and records/checks the golden
//! IPC baseline.
//!
//! Usage (`warpweave_bench::cli::bench_sweep` is the parser):
//!
//! * `bench_sweep [sweep] [--full] [--frontend NAMES] [--out PATH]
//!   [--threads N]` — the quick test-scale sweep (2 workloads × 5
//!   front-ends) plus the 7 machine probes, run once in memory and written
//!   to `--out` (default `BENCH_sweep.json`).
//!   * `--full` — the fig. 7 grid (all 21 workloads) at bench scale.
//!   * `--frontend NAMES` — replace the fig. 7 columns with the named
//!     issue policies (comma-separated registry names, e.g.
//!     `Baseline,GTO`).
//! * `bench_sweep golden check|record [--golden PATH] [--threads N]` — run
//!   the golden grid (all 21 workloads × 5 front-ends at test scale plus
//!   the probes) and diff it against the baseline (default
//!   `BENCH_golden.json`) with **zero tolerance**, writing
//!   `PATH.diff` on drift, or record it.
//! * `bench_sweep frontends` — print every registered policy name.
//!
//! Each job runs once: a job that panics or fails is listed with its key
//! and seed, every other job still completes, and the sweep exits 4
//! without a payload. Exit codes: 0 done; 1 a file that cannot be read or
//! written (the payload or the baseline) or golden drift; 2 usage (one
//! stderr line); 4 jobs quarantined. All wall-clock timing goes to
//! stderr; the JSON artifacts carry only deterministic simulation
//! results, so the payload is byte-identical at any `--threads`.

use std::process::ExitCode;
use std::time::Instant;

use warpweave_bench::cli::{self, Args, Sweep};
use warpweave_bench::grid::{self, grid_jobs};
use warpweave_bench::harness::{format_failures, run_grid, run_machine_probes, run_matrix_at};
use warpweave_bench::report::{
    check_golden, matrix_from_store, probes_from_store, render_golden_json, render_sweep_json,
};
use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::{PolicyRegistry, SweepRunner};
use warpweave_workloads::Scale;

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
/// scale), then checks it against `--golden` or records it there.
fn golden(a: &Args) -> Result<ExitCode, String> {
    let path = a.value("--golden").unwrap_or("BENCH_golden.json");
    let committed = (a.command == "golden check")
        .then(|| std::fs::read_to_string(path))
        .transpose()
        .map_err(|e| format!("read {path}: {e} (record one with `golden record`)"))?;
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(true);
    let id = grid::grid_id(&configs, &workloads, Scale::Test);
    let t = Instant::now();
    let m = run_matrix_at(&runner(a), &configs, &workloads, Scale::Test, false);
    let probes = run_machine_probes(Scale::Test, None).expect("probes without a store cannot fail");
    eprintln!(
        "golden grid: {} cells + {} probes in {:.1} s",
        configs.len() * workloads.len(),
        probes.len(),
        t.elapsed().as_secs_f64()
    );
    let current = render_golden_json("test", id, &m, &probes);
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

/// One in-memory run of the grid's canonical job list, rendered to
/// `--out`.
fn sweep(s: &Sweep) -> Result<ExitCode, String> {
    let (a, runner) = (&s.args, runner(&s.args));
    // The scale every job runs at, and its name in the payload.
    let (scale, label) = match a.has("--full") {
        true => (Scale::Bench, "bench"),
        false => (Scale::Test, "test"),
    };
    let workloads = grid::sweep_workloads(a.has("--full"));
    let mut store = SweepCheckpoint::in_memory(grid::grid_id(&s.configs, &workloads, scale));
    let jobs = grid_jobs(&s.configs, &workloads);
    let probe_count = jobs.iter().filter(|job| job.is_probe()).count();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "sweep: {} grid jobs ({} matrix cells + {probe_count} probes) on \
         {host_threads} host threads ({} worker threads, {label} scale)",
        jobs.len(),
        jobs.len() - probe_count,
        runner.threads(),
    );
    let t0 = Instant::now();
    // Timing/baseline runs stay pure simulation: no result verification.
    let failures =
        run_grid(&runner, &jobs, scale, false, &mut store).map_err(|e| format!("sweep: {e}"))?;
    if !failures.is_empty() {
        eprint!("{}", format_failures(&failures));
        return Ok(ExitCode::from(4));
    }
    eprintln!(
        "sweep complete: {} jobs in {:.1} s",
        jobs.len(),
        t0.elapsed().as_secs_f64()
    );
    // No job failed, so every job is in the store.
    let matrix = matrix_from_store(&s.configs, &workloads, &store).expect("every cell stored");
    let probes = probes_from_store(&store).expect("every probe stored");
    for p in &probes {
        eprintln!(
            "machine {}sm/{}: makespan {} cycles, ipc {:.1}, channel util {:.1}%",
            p.probe.num_sms,
            p.probe.cfg.mem_model.name(),
            p.total.cycles,
            p.ipc(),
            p.channel_utilization() * 100.0
        );
    }
    let out = a.value("--out").unwrap_or("BENCH_sweep.json");
    write(out, &render_sweep_json(label, &matrix, &probes))?;
    eprintln!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
