//! The command lines of `sweep_serve` and `sweep_client`, read with the
//! workspace's one parser ([`warpweave_bench::cli`]): an unknown flag, a
//! flag the command does not take, a missing `--addr`, or a missing,
//! repeated or malformed value is a one-line error and exit 2.

use warpweave_bench::cli::{parse, Args};

use crate::{RunRequest, ServeConfig};

const SWEEP_SERVE: [&str; 1] =
    ["[--addr HOST:PORT] [--threads N] [--cache-entries N] [--cache-dir PATH]"];

/// Parses `sweep_serve`'s arguments (without the program name) into the
/// bind address (default `127.0.0.1:0`) and the server's configuration.
///
/// # Errors
/// The one-line usage error.
pub fn sweep_serve(args: &[String]) -> Result<(String, ServeConfig), String> {
    let a = parse(&SWEEP_SERVE, args)?;
    let cfg = ServeConfig {
        threads: a.number("--threads"),
        cache_entries: (a.number("--cache-entries"))
            .unwrap_or(ServeConfig::default().cache_entries),
        cache_dir: a.value("--cache-dir").map(Into::into),
    };
    Ok((a.value("--addr").unwrap_or("127.0.0.1:0").into(), cfg))
}

const SWEEP_CLIENT: [&str; 3] = [
    "[run] --addr HOST:PORT [--full] [--frontend NAMES] [--workloads NAMES] [--no-probes] \
     [--out PATH] [--json PATH]",
    "stats --addr HOST:PORT",
    "shutdown --addr HOST:PORT",
];

/// Parses `sweep_client`'s arguments (without the program name) into the
/// command line and the grid a `run` asks for.
///
/// # Errors
/// The one-line usage error.
pub fn sweep_client(args: &[String]) -> Result<(Args, RunRequest), String> {
    let a = parse(&SWEEP_CLIENT, args)?;
    let names = |flag| {
        a.value(flag).map_or_else(Vec::new, |v| {
            v.split(',').map(|n| n.trim().into()).collect()
        })
    };
    let request = RunRequest {
        full: a.has("--full"),
        frontends: names("--frontend"),
        workloads: names("--workloads"),
        probes: !a.has("--no-probes"),
    };
    Ok((a, request))
}
