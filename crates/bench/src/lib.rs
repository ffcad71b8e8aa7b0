//! # warpweave-bench
//!
//! The experiment harness regenerating every table and figure of the paper's
//! evaluation (§5). One binary per figure/table (see `src/bin/`), all built
//! on one canonical job list ([`grid_jobs`]) and one driver ([`run_grid`]).

#![forbid(unsafe_code)]

pub mod grid;
pub mod harness;
pub mod report;
pub mod shard;

pub use grid::{grid_jobs, GridJob};
pub use harness::{
    cell_key, format_bandwidth_summary, format_bandwidth_table, format_failures, format_ipc_table,
    gmean, run_grid, run_machine_probes, run_matrix_at, run_matrix_checkpointed, run_matrix_figure,
    CellFailure, CellResult, FaultPolicy, MatrixResult, BENCH_SEED,
};
pub use report::{
    check_golden, parse_golden_cells, probes_from_store, render_faulted_sweep_json,
    render_golden_json, render_sweep_json, Json, ProbeResult, FAULTED_SWEEP_SCHEMA, GOLDEN_SCHEMA,
    SWEEP_SCHEMA,
};
pub use shard::{matrix_from_store, merge_checkpoints, ShardSpec};

/// Returns the value following `flag` in an argument list — the one
/// CLI-parsing helper every bench binary shares (`--flag VALUE` style).
/// `None` when the flag is absent or is the last argument.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
