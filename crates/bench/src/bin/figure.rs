//! Regenerates one of the paper's figures or tables at bench scale:
//! `figure <name> [--set regular|irregular|all] [--no-verify]
//! [--frontend NAMES]`. The names, and the flags each takes, are the table
//! in `warpweave_bench::figure`.
//!
//! Exit codes: 2 usage (one stderr line), 4 jobs quarantined.

use std::process::ExitCode;

use warpweave_bench::figure::parse;
use warpweave_bench::format_failures;
use warpweave_core::SweepRunner;
use warpweave_workloads::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse(&args) {
        Ok(inv) => inv,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match inv.matrix(&SweepRunner::new(), Scale::Bench, &inv.workloads()) {
        Ok(m) => {
            print!("{}", (inv.figure.report)(&inv, &m));
            ExitCode::SUCCESS
        }
        Err(failures) => {
            eprint!("{}", format_failures(&failures));
            ExitCode::from(4)
        }
    }
}
