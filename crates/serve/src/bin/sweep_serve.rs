//! The sweep service daemon.
//!
//! Usage:
//! `sweep_serve [--addr HOST:PORT] [--threads N] [--cache-entries N]
//!              [--cache-dir PATH]`
//!
//! * `--addr` — bind address (default `127.0.0.1:0`; port 0 picks an
//!   ephemeral port). The resolved address is printed to **stdout** as
//!   `listening <host:port>` so scripts can capture it.
//! * `--threads N` — cap the simulation worker pool (default: all cores).
//! * `--cache-entries N` — memory-tier capacity of the content-addressed
//!   cell cache (default 1024 entries).
//! * `--cache-dir PATH` — enable the on-disk cache tier (one
//!   checksummed `.cell` file per entry; survives restarts).
//!
//! Each missing cell of a request is simulated once; one that fails is
//! answered as a `fail|` line and never cached. The server runs until a
//! client sends `shutdown` (see `sweep_client shutdown`). Wire protocol:
//! `warpweave_serve::protocol`. A usage error (`warpweave_serve::cli` is
//! the parser) is one stderr line and exit 2.

use std::process::ExitCode;

use warpweave_serve::{cli, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, cfg) = match cli::sweep_serve(&args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(&addr, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Scripts parse this line; keep it stable and flushed.
            println!("listening {addr}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("serve loop: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("sweep_serve: shutdown complete");
    ExitCode::SUCCESS
}
