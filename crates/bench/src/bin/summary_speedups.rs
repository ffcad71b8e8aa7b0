//! Regenerates the paper's headline numbers (§1/§5.1/§7): geometric-mean
//! speedups of SBI, SWI and SBI+SWI over the baseline on the regular and
//! irregular sets (paper: SBI +15%/+41%, SWI +25%/+33%, SBI+SWI +23%/+40%).
//!
//! Usage: `summary_speedups [--no-verify]`
use warpweave_bench::harness::run_matrix_figure;
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::Scale;

fn main() {
    let verify = !std::env::args().any(|a| a == "--no-verify");
    let configs = SmConfig::figure7_set();
    for (label, workloads) in [
        ("regular", warpweave_workloads::regular()),
        ("irregular", warpweave_workloads::irregular()),
    ] {
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
        let g = m.gmean_ipc(&rows);
        println!("== {label} (gmean IPC, TMD excluded) ==");
        for (c, name) in m.configs.iter().enumerate() {
            if c == 0 {
                println!("  {:<10} {:6.1} IPC", name, g[c]);
            } else {
                println!(
                    "  {:<10} {:6.1} IPC  ({:+.1}% vs baseline)",
                    name,
                    g[c],
                    (g[c] / g[0] - 1.0) * 100.0
                );
            }
        }
    }
}
