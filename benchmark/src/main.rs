//! `warpweave-benchmark`: run one workload, or compare two sets of runs.
//!
//! ```text
//! warpweave-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! warpweave-benchmark compare A B
//! ```
//!
//! A run prints its metrics as one JSON object on the last line of
//! standard output and exits non-zero if any operation failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use warpweave_bench::arg_value;
use warpweave_benchmark::compare::{compare, Spec};
use warpweave_benchmark::run::{run, WORKLOADS};
use warpweave_benchmark::{Ctx, DEFAULT_SEED};
use warpweave_isa::fuzz::parse_seed;

/// Default `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// The checkout root: the first of `.` and `..` holding `BENCHMARK.json`
/// (the driver runs from the root, `cargo test` from `benchmark/`).
fn find_root() -> Result<PathBuf, String> {
    [".", ".."]
        .iter()
        .map(PathBuf::from)
        .find(|dir| dir.join("BENCHMARK.json").is_file() && dir.join("benchmark").is_dir())
        .ok_or_else(|| "run from the repository root (BENCHMARK.json not found)".into())
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let root = find_root()?;
    let workload = arg_value(args, "--workload")
        .ok_or_else(|| format!("--workload takes one of {}", WORKLOADS.join(", ")))?;
    let seconds = match arg_value(args, "--seconds") {
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && s.is_finite())
            .ok_or("--seconds takes a positive number")?,
        None => DEFAULT_SECONDS,
    };
    let ctx = Ctx {
        seed: match arg_value(args, "--seed") {
            Some(v) => parse_seed(&v).ok_or("--seed takes a decimal or 0x-hex number")?,
            None => DEFAULT_SEED,
        },
        seconds,
        trace: match arg_value(args, "--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return Err("--trace takes 0 or 1".into()),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
        out: root.join("benchmark").join("out"),
        root,
    };
    let outcome = run(&workload, &ctx)?;
    println!("{}", outcome.result_line());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files or directories: compare A B".into());
    };
    let spec = Spec::load(&find_root()?.join("BENCHMARK.json"))?;
    Ok(if compare(&spec, Path::new(a), Path::new(b))? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        _ => run_command(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("warpweave-benchmark: {e}");
        ExitCode::from(2)
    })
}
