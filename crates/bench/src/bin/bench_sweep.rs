//! The sweep engine's CLI: runs the `workload × frontend` grid, emits the
//! deterministic `BENCH_sweep.json` payload, merges shard checkpoints, and
//! records/checks the golden IPC baseline.
//!
//! Usage (`warpweave_bench::cli::bench_sweep` is the parser):
//!
//! * `bench_sweep [sweep] [--full] [--frontend NAMES] [--out PATH]
//!   [--threads N] [--checkpoint PATH --jobs-from SPEC]` — the quick
//!   test-scale sweep (2 workloads × 5 front-ends) plus the 7 machine
//!   probes, run once in memory and written to `--out` (default
//!   `BENCH_sweep.json`).
//!   * `--full` — the fig. 7 grid (all 21 workloads) at bench scale.
//!   * `--frontend NAMES` — replace the fig. 7 columns with the named
//!     issue policies (comma-separated registry names, e.g.
//!     `Baseline,GTO`).
//!   * `--jobs-from SPEC --checkpoint PATH` — run one slice of the full job
//!     grid (matrix cells in workload-major order, then the probes):
//!     `shard:K/N` is the K-th of N round-robin slices (0-based),
//!     `cells:3,7,10-14` an explicit index list. The slice's jobs are
//!     recorded in job order into `PATH`, created fresh; it is the only
//!     output, byte-identical at any `--threads`. Each flag needs the other.
//! * `bench_sweep merge SHARD... [--full] [--frontend NAMES] [--out PATH]`
//!   — union shard checkpoints of that grid (each intact and carrying its
//!   id; overlapping jobs bit-identical) and render the payload
//!   **byte-identical** to a single-host run. It never simulates: an
//!   incomplete union lists its missing jobs and exits 3.
//! * `bench_sweep golden check|record [--golden PATH] [--threads N]` — run
//!   the golden grid (all 21 workloads × 5 front-ends at test scale plus
//!   the probes) and diff it against the baseline (default
//!   `BENCH_golden.json`) with **zero tolerance**, writing
//!   `PATH.diff` on drift, or record it.
//! * `bench_sweep frontends` — print every registered policy name.
//!
//! Each job runs once: a job that panics or fails is listed with its key
//! and seed, every other job still completes, and the sweep exits 4
//! without a payload. Exit codes: 0 done; 1 a file that cannot be read,
//! written or trusted (a shard or baseline) or golden drift; 2 usage (one
//! stderr line); 3 a merge that misses jobs; 4 jobs quarantined. All
//! wall-clock timing goes to stderr; the JSON artifacts carry only
//! deterministic simulation results.

use std::process::ExitCode;
use std::time::Instant;

use warpweave_bench::cli::{self, Args, Sweep};
use warpweave_bench::grid::{self, grid_jobs};
use warpweave_bench::harness::{format_failures, run_grid, run_machine_probes, run_matrix_at};
use warpweave_bench::report::{
    check_golden, probes_from_store, render_golden_json, render_sweep_json,
};
use warpweave_bench::shard::{matrix_from_store, merge_checkpoints};
use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::{PolicyRegistry, SweepRunner};
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
        "merge" => merge(&s),
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

/// The scale every job runs at, and its name in the payload.
fn scale(a: &Args) -> (Scale, &'static str) {
    match a.has("--full") {
        true => (Scale::Bench, "bench"),
        false => (Scale::Test, "test"),
    }
}

fn out(a: &Args) -> &str {
    a.value("--out").unwrap_or("BENCH_sweep.json")
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

/// Unions shard checkpoints and renders them — never simulates. The
/// output is byte-identical to a single-host run of the same grid because
/// both render from the same per-job records.
fn merge(s: &Sweep) -> Result<ExitCode, String> {
    let workloads = grid::sweep_workloads(s.args.has("--full"));
    let id = grid::grid_id(&s.configs, &workloads, scale(&s.args).0);
    let union = merge_checkpoints(&s.args.operands, id).map_err(|e| format!("merge: {e}"))?;
    let shards = s.args.operands.len();
    eprintln!("merge: {shards} shard(s) cover {} job(s)", union.len());
    render(s, &workloads, &union)
}

/// Writes the payload of the grid's jobs in `store` to `--out`; a store
/// that misses jobs lists them and exits 3 instead.
fn render(
    s: &Sweep,
    workloads: &[Box<dyn Workload>],
    store: &SweepCheckpoint,
) -> Result<ExitCode, String> {
    // Check matrix cells AND probes before refusing, so the missing list
    // (and its count) covers the whole job grid.
    let (matrix, probes) = match (
        matrix_from_store(&s.configs, workloads, store),
        probes_from_store(store),
    ) {
        (Ok(matrix), Ok(probes)) => (matrix, probes),
        (matrix, probes) => {
            let missing: Vec<String> = matrix
                .err()
                .into_iter()
                .chain(probes.err())
                .flatten()
                .collect();
            let shown = missing[..missing.len().min(5)].join(", ");
            let more = if missing.len() > 5 { ", ..." } else { "" };
            eprintln!("{} job(s) missing: {shown}{more}", missing.len());
            eprintln!("run the missing slice with --jobs-from and merge again");
            return Ok(ExitCode::from(3));
        }
    };
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
    write(
        out(&s.args),
        &render_sweep_json(scale(&s.args).1, &matrix, &probes),
    )?;
    eprintln!("wrote {}", out(&s.args));
    Ok(ExitCode::SUCCESS)
}

/// One run of the selected jobs of the canonical job list into the store:
/// a shard's `--checkpoint` file, or memory.
fn sweep(s: &Sweep) -> Result<ExitCode, String> {
    let (a, runner, (scale, label)) = (&s.args, runner(&s.args), scale(&s.args));
    let workloads = grid::sweep_workloads(a.has("--full"));
    let id = grid::grid_id(&s.configs, &workloads, scale);
    let shard = a.value("--checkpoint");
    let mut store = match shard {
        Some(path) => {
            SweepCheckpoint::create(path, id).map_err(|e| format!("checkpoint {path}: {e}"))?
        }
        None => SweepCheckpoint::in_memory(id),
    };
    let probe_count = s.jobs.iter().filter(|job| job.is_probe()).count();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "{}: {} of {} grid jobs ({} matrix cells + {probe_count} probes) on \
         {host_threads} host threads ({} worker threads, {} scale)",
        a.value("--jobs-from")
            .map_or("sweep".into(), |spec| format!("shard {spec}")),
        s.jobs.len(),
        grid_jobs(&s.configs, &workloads).len(),
        s.jobs.len() - probe_count,
        runner.threads(),
        label,
    );
    let t0 = Instant::now();
    // Timing/baseline runs stay pure simulation: no result verification.
    let failures =
        run_grid(&runner, &s.jobs, scale, false, &mut store).map_err(|e| format!("sweep: {e}"))?;
    if !failures.is_empty() {
        eprint!("{}", format_failures(&failures));
        return Ok(ExitCode::from(4));
    }
    eprintln!(
        "sweep complete: {} jobs in {:.1} s",
        s.jobs.len(),
        t0.elapsed().as_secs_f64()
    );
    match shard {
        Some(path) => {
            eprintln!("merge with `bench_sweep merge {path} ...`");
            Ok(ExitCode::SUCCESS)
        }
        None => render(s, &workloads, &store),
    }
}
