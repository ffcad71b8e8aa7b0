//! # warpweave-bench
//!
//! The experiment harness regenerating every table and figure of the paper's
//! evaluation (§5): one table of artefacts ([`figure::FIGURES`]) behind one
//! `figure <name>` binary, all built on one canonical job list
//! ([`grid_jobs`]), one driver ([`run_grid`]) and one results document
//! ([`render_results`]). Every binary reads its command line with one
//! parser, [`cli`].

#![forbid(unsafe_code)]

pub mod cli;
pub mod figure;
pub mod grid;
pub mod harness;
pub mod report;

pub use grid::{grid_jobs, GridJob};
pub use harness::{
    cell_key, format_failures, gmean, run_grid, run_machine_probes, run_matrix_at,
    run_matrix_checkpointed, CellFailure, CellResult, MatrixResult, BENCH_SEED,
};
pub use report::{
    check_golden, matrix_from_store, merge_checkpoints, parse_golden_cells, probes_from_store,
    render_golden_json, render_results, Json, ProbeResult, GOLDEN_SCHEMA,
};

/// Returns the value following `flag` in an argument list; `None` when the
/// flag is absent or is the last argument. No binary of the workspace
/// uses it ([`cli`] parses every command line); it stays for the
/// benchmark crate's own flags.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
