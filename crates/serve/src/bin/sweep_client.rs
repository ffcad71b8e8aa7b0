//! The sweep service client CLI.
//!
//! Usage (`warpweave_serve::cli::sweep_client` is the parser):
//!
//! * `sweep_client [run] --addr HOST:PORT [--full] [--frontend NAMES]
//!   [--workloads NAMES] [--no-probes] [--out PATH] [--json PATH]` — issue
//!   a `run` request for the quick sweep grid and print the per-request
//!   stats line to stderr.
//!   * `--full` — request the bench-scale grid instead.
//!   * `--frontend NAMES` / `--workloads NAMES` — restrict the grid
//!     (comma-separated registry names).
//!   * `--no-probes` — matrix cells only.
//!   * `--out PATH` — write the deterministic response transcript (cell
//!     and fail lines, checksum-verified) to `PATH`. Two clients issuing
//!     the same request get byte-identical transcripts — `cmp` them.
//!   * `--json PATH` — render the response to its grid's results
//!     document (the format of `BENCH_golden.json`), byte-identical to a
//!     local run of the same grid; for any request without `fail|` lines.
//! * `sweep_client stats --addr HOST:PORT` — print the server's
//!   cumulative cache stats line to stdout.
//! * `sweep_client shutdown --addr HOST:PORT` — stop the server.
//!
//! Exit codes: 0 done, 1 refused or a protocol or write failure, 2 usage
//! (one stderr line), 4 the server quarantined cells.

use std::process::ExitCode;

use warpweave_serve::{
    cli, render_response_json, request_run, request_shutdown, request_stats, RunRequest,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (a, request) = match cli::sweep_client(&args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let addr = a.value("--addr").unwrap_or_default();
    let run = match a.command.as_str() {
        "shutdown" => request_shutdown(addr)
            .map(|()| {
                eprintln!("server at {addr} asked to shut down");
                ExitCode::SUCCESS
            })
            .map_err(|e| format!("shutdown: {e}")),
        "stats" => request_stats(addr)
            .map(|line| {
                println!("{line}");
                ExitCode::SUCCESS
            })
            .map_err(|e| format!("stats: {e}")),
        _ => run(addr, &request, a.value("--out"), a.value("--json")),
    };
    run.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run(
    addr: &str,
    request: &RunRequest,
    out: Option<&str>,
    json: Option<&str>,
) -> Result<ExitCode, String> {
    let response = request_run(addr, request).map_err(|e| format!("run request: {e}"))?;
    eprintln!(
        "grid {:016x}: {} cell(s), {} failure(s); hits={} misses={} simulated={}",
        response.grid_id,
        response.cell_lines.len(),
        response.fail_lines.len(),
        response.stats.hits,
        response.stats.misses,
        response.stats.simulated
    );
    let write = |path: &str, contents: String| {
        std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
    };
    if let Some(path) = out {
        write(path, response.transcript())?;
        eprintln!("wrote transcript: {path}");
    }
    for line in &response.fail_lines {
        eprintln!("{line}");
    }
    let failed = !response.fail_lines.is_empty();
    if let Some(path) = json {
        match render_response_json(request, &response) {
            Ok(document) => {
                write(path, document)?;
                eprintln!("wrote results document: {path}");
            }
            // Quarantined cells are reported above and by the exit code.
            Err(e) if failed => eprintln!("--json: {path} not written: {e}"),
            Err(e) => return Err(format!("--json: {e}")),
        }
    }
    Ok(if failed {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    })
}
