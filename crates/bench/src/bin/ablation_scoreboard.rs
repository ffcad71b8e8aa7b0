//! Ablation: SBI dependence-tracking schemes (DESIGN.md §6).
//!
//! Compares the paper's 3×3 dependency-matrix scoreboard (§3.4) against an
//! exact per-instruction thread-mask oracle and the baseline warp-level
//! scheme, on the irregular set under SBI. The paper argues the matrix
//! scheme's storage is warp-size independent while staying close to exact
//! tracking — this quantifies the IPC cost of its conservatism.
//!
//! Usage: `ablation_scoreboard [--no-verify]`

use warpweave_bench::harness::{format_ipc_table, run_matrix_figure};
use warpweave_core::{ScoreboardMode, SmConfig, SweepRunner};
use warpweave_workloads::Scale;

fn with_mode(mode: ScoreboardMode, name: &str) -> SmConfig {
    let mut cfg = SmConfig::sbi().named(name);
    cfg.scoreboard_mode = mode;
    cfg
}

fn main() {
    let verify = !std::env::args().any(|a| a == "--no-verify");
    let configs = vec![
        with_mode(ScoreboardMode::Matrix, "Matrix"),
        with_mode(ScoreboardMode::Exact, "Exact"),
    ];
    let workloads = warpweave_workloads::irregular();
    let m = run_matrix_figure(
        &SweepRunner::new(),
        &configs,
        &workloads,
        Scale::Bench,
        verify,
        None,
    );
    let rows: Vec<usize> = (0..m.workloads.len())
        .filter(|&w| !m.workloads[w].starts_with("TMD"))
        .collect();
    println!("== Ablation: SBI scoreboard scheme (IPC, irregular) ==");
    print!("{}", format_ipc_table(&m, &rows, "Gmean (excl. TMD)"));
    let g = m.gmean_ipc(&rows);
    println!(
        "\nmatrix-scheme conservatism costs {:.2}% vs an exact-mask oracle",
        (1.0 - g[0] / g[1]) * 100.0
    );
}
