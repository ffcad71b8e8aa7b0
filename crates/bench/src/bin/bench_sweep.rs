//! The sweep engine's CLI: runs the `workload × frontend` grid, emits the
//! deterministic `BENCH_sweep.json` payload, checkpoints per-cell progress,
//! and records/checks the golden IPC baseline.
//!
//! Usage:
//! `bench_sweep [--full] [--out PATH] [--checkpoint PATH] [--no-checkpoint]
//!              [--cell-budget N] [--threads N] [--frontend NAMES]
//!              [--list-frontends] [--salvage] [--inject SPEC]
//!              [--jobs-from SPEC] [--merge SHARD...]
//!              [--record-golden] [--check-golden] [--golden PATH]`
//!
//! * default — a quick test-scale sweep (2 workloads × 5 front-ends) plus
//!   the 7 machine probes.
//! * `--frontend NAMES` — replace the fig. 7 columns with the named
//!   issue policies (comma-separated; any name the policy registry
//!   resolves, e.g. `GreedyThenOldest` or `Baseline,GTO`).
//! * `--list-frontends` — print every registered policy name and exit.
//! * `--full` — the fig. 7 sweep (all 21 workloads × 5 front-ends) at
//!   bench scale. Minutes of work, which is why it checkpoints: every
//!   completed cell is flushed to `--checkpoint` (default
//!   `BENCH_sweep.checkpoint`), and a re-run resumes from the last cell
//!   instead of restarting. The resumed JSON is **byte-identical** to an
//!   uninterrupted run's.
//! * `--cell-budget N` — stop after N newly simulated jobs, matrix cells
//!   and machine probes alike (exit code 3); combined with the checkpoint
//!   this splits a long sweep across runs.
//! * `--salvage` — before resuming, truncate a torn/corrupt checkpoint to
//!   its last checksum-valid record (the damaged tail is preserved as a
//!   `.quarantine` sidecar) instead of refusing to load it.
//! * `--inject SPEC` — inject the deterministic faults of `SPEC` (grammar:
//!   `warpweave_core::faultinject`); used by the CI fault drills. Every
//!   `cell:IDX` / `key:KEY` rule must name a job of the full grid. Each job
//!   runs once: a sweep with quarantined jobs completes every healthy job,
//!   prints a failures block with per-job provenance, writes a partial
//!   `--out` payload and exits 4.
//! * `--jobs-from SPEC` — shard mode, one slice of the distributed sweep
//!   fabric: run only the selected slice of the full job grid (matrix
//!   cells in workload-major order, then the machine probes) into the
//!   checkpoint file. `shard:K/N` is the K-th of N round-robin slices
//!   (0-based); `cells:3,7,10-14` is an explicit job-index list. Shard
//!   mode writes **no JSON** — the checkpoint is the output; merge the
//!   shards afterwards.
//! * `--merge A.ckpt B.ckpt ...` — union shard checkpoints (every file
//!   must be intact and carry this grid's id; overlapping cells must be
//!   bit-identical) and render `--out` **byte-identical** to a
//!   single-host run of the same grid. Merging never simulates: an
//!   incomplete union lists its missing cells and exits 3.
//! * `--record-golden` — run the golden grid (test scale: full matrix +
//!   machine probes under both bandwidth models) and write the baseline
//!   (default `BENCH_golden.json`).
//! * `--check-golden` — re-run the golden grid and diff against the
//!   committed baseline with **zero tolerance**; any drift writes
//!   `BENCH_golden.json.diff` and exits 1.
//!
//! Usage errors are rejected up front with a one-line error and exit code
//! 2: a malformed `--cell-budget`, `--threads`, `--inject` or `--jobs-from`
//! value, an unknown `--frontend` name, an `--inject` rule that names no
//! job, and contradictory flag combinations (e.g. `--check-golden` with
//! `--inject`, `--jobs-from` with `--merge`) — silently preferring one of
//! the two would run something other than what was asked for.
//!
//! All wall-clock timing goes to stderr; the JSON artifacts carry only
//! deterministic simulation results.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use warpweave_bench::arg_value;
use warpweave_bench::grid::{self, grid_jobs, GridJob};
use warpweave_bench::harness::{
    format_failures, run_grid, run_machine_probes, run_matrix_at, CellResult,
};
use warpweave_bench::report::{
    check_golden, probes_from_store, render_faulted_sweep_json, render_golden_json,
    render_sweep_json,
};
use warpweave_bench::shard::{matrix_from_store, merge_checkpoints, ShardSpec};
use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::faultinject::{CellTarget, FaultPlan};
use warpweave_core::{PolicyRegistry, SmConfig, SweepRunner};
use warpweave_workloads::Scale;

/// A usage error: one line on stderr, exit code 2.
fn usage(message: String) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

/// The value following `flag`, parsed; a malformed one is a usage error.
fn parsed<T: FromStr>(args: &[String], flag: &str, takes: &str) -> Result<Option<T>, ExitCode> {
    arg_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| usage(format!("{flag} takes {takes}, got `{v}`")))
        })
        .transpose()
}

/// The first cell rule of `plan` that names no job of the full grid `all`,
/// as written. Rules address full-grid indices, so a `--jobs-from` slice
/// is checked against the grid it was cut from.
fn stray_rule(plan: &FaultPlan, all: &[GridJob]) -> Option<String> {
    plan.cells.iter().find_map(|rule| match &rule.target {
        CellTarget::Index(i) if *i >= all.len() => Some(format!("cell:{i}")),
        CellTarget::Key(k) if all.iter().all(|job| &job.key != k) => Some(format!("key:{k}")),
        _ => None,
    })
}

/// Writes `contents` to `path`, reporting I/O failure on stderr instead
/// of panicking (the sweep results are already safe in the checkpoint).
fn write_artifact(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// The flag pairs that contradict each other. Each is rejected up front
/// with a one-line error instead of silently preferring one side:
///
/// * golden modes are fixed-grid, injection-free reference runs, so
///   `--inject`, `--frontend`, `--full` and each other are meaningless;
/// * `--merge` is a pure union/validation step — nothing may simulate,
///   checkpoint or inject during it;
/// * `--jobs-from` *is* a checkpointed run (the checkpoint is its only
///   output) and is itself an input to `--merge`, never combined with it;
/// * `--no-checkpoint` contradicts every flag whose effect lives in the
///   checkpoint (`--checkpoint`, `--salvage`, and `--cell-budget`, whose
///   saved progress would be silently discarded).
const FLAG_CONFLICTS: &[(&str, &str)] = &[
    ("--jobs-from", "--merge"),
    ("--jobs-from", "--no-checkpoint"),
    ("--jobs-from", "--check-golden"),
    ("--jobs-from", "--record-golden"),
    ("--merge", "--check-golden"),
    ("--merge", "--record-golden"),
    ("--merge", "--inject"),
    ("--merge", "--cell-budget"),
    ("--merge", "--salvage"),
    ("--merge", "--checkpoint"),
    ("--merge", "--no-checkpoint"),
    ("--check-golden", "--record-golden"),
    ("--check-golden", "--inject"),
    ("--check-golden", "--frontend"),
    ("--check-golden", "--full"),
    ("--record-golden", "--inject"),
    ("--record-golden", "--frontend"),
    ("--record-golden", "--full"),
    ("--no-checkpoint", "--checkpoint"),
    ("--no-checkpoint", "--salvage"),
    ("--no-checkpoint", "--cell-budget"),
];

/// Returns the first contradictory flag pair present in `args`, if any.
fn flag_conflict(args: &[String]) -> Option<(&'static str, &'static str)> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    FLAG_CONFLICTS
        .iter()
        .find(|(a, b)| has(a) && has(b))
        .copied()
}

/// The shard-checkpoint paths following `--merge` (every argument up to
/// the next `--flag`); `None` when `--merge` is absent.
fn merge_shard_paths(args: &[String]) -> Option<Vec<String>> {
    let at = args.iter().position(|a| a == "--merge")?;
    Some(
        args[at + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .cloned()
            .collect(),
    )
}

/// Runs the golden grid (full workload matrix + machine probes at test
/// scale) and renders the baseline JSON.
fn render_golden(runner: &SweepRunner) -> String {
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(true);
    let scale = Scale::Test;
    let id = grid::grid_id(&configs, &workloads, scale);
    let t = Instant::now();
    let m = run_matrix_at(runner, &configs, &workloads, scale, false);
    let probes = run_machine_probes(scale, None).expect("probes without a store cannot fail");
    eprintln!(
        "golden grid: {} cells + {} probes in {:.1} s",
        configs.len() * workloads.len(),
        probes.len(),
        t.elapsed().as_secs_f64()
    );
    render_golden_json("test", id, &m, &probes)
}

fn main() -> ExitCode {
    sweep().unwrap_or_else(|code| code)
}

/// The whole CLI; `Err` is an early exit (a usage error, a failed write).
fn sweep() -> Result<ExitCode, ExitCode> {
    let args: Vec<String> = std::env::args().collect();
    if let Some((a, b)) = flag_conflict(&args) {
        return Err(usage(format!(
            "conflicting flags: {a} cannot be combined with {b}"
        )));
    }
    let full = args.iter().any(|a| a == "--full");
    let record_golden = args.iter().any(|a| a == "--record-golden");
    let do_check_golden = args.iter().any(|a| a == "--check-golden");
    let no_checkpoint = args.iter().any(|a| a == "--no-checkpoint");
    let salvage = args.iter().any(|a| a == "--salvage");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_sweep.json".into());
    let golden_path = arg_value(&args, "--golden").unwrap_or_else(|| "BENCH_golden.json".into());
    let checkpoint_path =
        arg_value(&args, "--checkpoint").unwrap_or_else(|| "BENCH_sweep.checkpoint".into());
    let cell_budget: Option<usize> = parsed(&args, "--cell-budget", "a job count")?;
    let faults = arg_value(&args, "--inject")
        .map(|spec| FaultPlan::parse(&spec).map_err(|e| usage(format!("--inject: {e}"))))
        .transpose()?;
    let runner = match parsed(&args, "--threads", "a worker count")? {
        Some(n) => SweepRunner::with_threads(n),
        None => SweepRunner::new(),
    };

    if args.iter().any(|a| a == "--list-frontends") {
        for name in PolicyRegistry::global_names() {
            println!("{name}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    if record_golden {
        write_artifact(&golden_path, &render_golden(&runner))?;
        eprintln!("recorded golden baseline: {golden_path}");
        return Ok(ExitCode::SUCCESS);
    }
    if do_check_golden {
        let committed = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("read {golden_path}: {e} (record one with --record-golden)")
        });
        let current = render_golden(&runner);
        return Ok(match check_golden(&committed, &current) {
            Ok(()) => {
                eprintln!("golden baseline {golden_path}: OK (bit-exact)");
                ExitCode::SUCCESS
            }
            Err(report) => {
                let diff_path = format!("{golden_path}.diff");
                if let Err(e) = std::fs::write(&diff_path, &report) {
                    eprintln!("write {diff_path}: {e}");
                }
                eprint!("{report}");
                eprintln!("golden baseline {golden_path}: DRIFT — report written to {diff_path}");
                ExitCode::FAILURE
            }
        });
    }

    // Sweep, shard and merge modes all run on the same grid definition.
    let configs: Vec<_> = match arg_value(&args, "--frontend") {
        Some(names) => names
            .split(',')
            .map(|n| SmConfig::with_policy(n.trim()))
            .collect::<Result<_, _>>()
            .map_err(|e| usage(format!("--frontend: {e}")))?,
        None => grid::figure7_configs(),
    };
    let workloads = grid::sweep_workloads(full);
    let scale = if full { Scale::Bench } else { Scale::Test };
    let scale_label = if full { "bench" } else { "test" };
    let verify = false; // timing/baseline runs stay pure simulation
    let jobs = configs.len() * workloads.len();

    // Merge mode: union shard checkpoints, validate, render — never
    // simulate. The output is byte-identical to a single-host run of the
    // same grid because both render from the same per-cell records.
    if let Some(shards) = merge_shard_paths(&args) {
        let id = grid::grid_id(&configs, &workloads, scale);
        let union = merge_checkpoints(&shards, id).map_err(|e| {
            eprintln!("--merge: {e}");
            ExitCode::FAILURE
        })?;
        let incomplete = |missing: Vec<String>| {
            eprintln!(
                "--merge: union of {} shard(s) covers {} job(s) but misses {}: {}{}",
                shards.len(),
                union.len(),
                missing.len(),
                missing
                    .iter()
                    .take(5)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", "),
                if missing.len() > 5 { ", ..." } else { "" }
            );
            eprintln!("run the missing slice with --jobs-from and merge again");
            ExitCode::from(3)
        };
        // Check matrix cells AND probes before refusing, so the missing
        // list (and its count) covers the whole job grid.
        let matrix = matrix_from_store(&configs, &workloads, &union);
        let probes = probes_from_store(&union);
        let mut missing = Vec::new();
        if let Err(m) = &matrix {
            missing.extend(m.iter().cloned());
        }
        if let Err(m) = &probes {
            missing.extend(m.iter().cloned());
        }
        if !missing.is_empty() {
            return Ok(incomplete(missing));
        }
        let (matrix, probes) = (matrix.unwrap(), probes.unwrap());
        write_artifact(&out_path, &render_sweep_json(scale_label, &matrix, &probes))?;
        eprintln!(
            "merged {} shard(s): {} matrix cells + {} probes -> {out_path}",
            shards.len(),
            jobs,
            probes.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    // Everything else is one run of the canonical job list. `--jobs-from`
    // only narrows the selection and makes the checkpoint the sole output.
    let all = grid_jobs(&configs, &workloads);
    if let Some(rule) = faults.as_ref().and_then(|plan| stray_rule(plan, &all)) {
        let jobs = all.len();
        return Err(usage(format!(
            "--inject: {rule} names no job of this {jobs}-job grid"
        )));
    }
    let shard = arg_value(&args, "--jobs-from")
        .map(|spec| {
            let spec = ShardSpec::parse(&spec)?;
            let indices = spec.select(all.len())?;
            Ok((spec, indices))
        })
        .transpose()
        .map_err(|e: String| usage(format!("--jobs-from: {e}")))?;
    let total = all.len();
    let selected: Vec<GridJob> = match &shard {
        Some((_, indices)) => indices.iter().map(|&i| all[i].clone()).collect(),
        None => all,
    };
    let probe_count = selected.iter().filter(|job| job.is_probe()).count();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "{}: {} of {total} grid jobs ({} matrix cells + {probe_count} probes) on \
         {host_threads} host threads ({} worker threads, {scale_label} scale)",
        shard
            .as_ref()
            .map_or("sweep".into(), |(spec, _)| format!("shard {spec}")),
        selected.len(),
        selected.len() - probe_count,
        runner.threads(),
    );

    // `--full` checkpoints by default (it is minutes of work) and a shard's
    // checkpoint is its output; the quick sweep runs into an in-memory
    // store unless `--checkpoint` is passed explicitly.
    let use_checkpoint =
        shard.is_some() || (!no_checkpoint && (full || args.iter().any(|a| a == "--checkpoint")));
    let id = grid::grid_id(&configs, &workloads, scale);
    let mut store = if use_checkpoint {
        if salvage {
            match SweepCheckpoint::salvage(&checkpoint_path) {
                Ok(report) => eprintln!("checkpoint {checkpoint_path}: salvage: {report}"),
                Err(e) => {
                    eprintln!("checkpoint {checkpoint_path}: salvage skipped: {e} (resuming as-is)")
                }
            }
        }
        SweepCheckpoint::resume(&checkpoint_path, id)
            .unwrap_or_else(|e| panic!("checkpoint {checkpoint_path}: {e}"))
    } else {
        SweepCheckpoint::in_memory(id)
    };
    if let Some(plan) = &faults {
        store.arm_faults(plan.clone());
    }
    let done_before = store.len();
    if done_before > 0 {
        eprintln!("checkpoint {checkpoint_path}: resuming with {done_before} completed job(s)");
    }
    let t0 = Instant::now();
    let failures = run_grid(
        &runner,
        &selected,
        scale,
        verify,
        faults.as_ref(),
        cell_budget,
        &mut store,
    )
    .unwrap_or_else(|e| panic!("checkpointed sweep: {e}"));
    if !failures.is_empty() {
        eprint!("{}", format_failures(&failures));
        eprintln!("healthy jobs are persisted; fix the fault and re-run to fill the gaps");
        if shard.is_none() {
            let healthy: Vec<CellResult> = selected
                .iter()
                .filter(|job| !job.is_probe())
                .filter_map(|job| {
                    store.get(&job.key).map(|record| CellResult {
                        workload: job.workload.to_string(),
                        config: job.config.name.clone(),
                        stats: record.stats.clone(),
                    })
                })
                .collect();
            let json = render_faulted_sweep_json(scale_label, jobs, &healthy, &failures);
            write_artifact(&out_path, &json)?;
            eprintln!("wrote {out_path} (partial: quarantined cells listed under \"failures\")");
        }
        return Ok(ExitCode::from(4));
    }
    let done = selected
        .iter()
        .filter(|job| store.contains(&job.key))
        .count();
    if done < selected.len() {
        eprintln!(
            "cell budget exhausted after {done} of {} jobs ({:.1} s); re-run to resume from \
             {checkpoint_path}",
            selected.len(),
            t0.elapsed().as_secs_f64()
        );
        return Ok(ExitCode::from(3));
    }
    eprintln!(
        "sweep complete: {} jobs ({done_before} resumed) in {:.1} s",
        selected.len(),
        t0.elapsed().as_secs_f64()
    );
    if shard.is_some() {
        eprintln!("merge with `bench_sweep --merge {checkpoint_path} ...`");
        return Ok(ExitCode::SUCCESS);
    }

    let complete = "every job of the grid is in the store";
    let matrix = matrix_from_store(&configs, &workloads, &store).expect(complete);
    let probes = probes_from_store(&store).expect(complete);
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

    write_artifact(&out_path, &render_sweep_json(scale_label, &matrix, &probes))?;
    eprintln!("wrote {out_path}");
    Ok(ExitCode::SUCCESS)
}
