//! Regenerates **figure 7**: IPC of Baseline, SBI, SWI, SBI+SWI and the
//! thread-frontier Warp64 reference on the regular (7a) and irregular (7b)
//! application sets.
//!
//! Usage: `fig7_performance [--set regular|irregular|all] [--no-verify]
//!                          [--frontend NAMES]`
//!
//! `--frontend NAMES` replaces the five fig. 7 columns with the named
//! issue policies (comma-separated registry names, e.g.
//! `Baseline,GreedyThenOldest`).
//!
//! As in the paper, TMD1/TMD2 are excluded from the irregular geometric mean
//! ("as the TMD application reflects properties of thread-frontier based
//! reconvergence rather than SBI and SWI, we do not take it into account
//! when computing the performance means", §5.1).

use warpweave_bench::grid;
use warpweave_bench::harness::{format_bandwidth_table, format_ipc_table, run_matrix_figure};
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let set = args
        .iter()
        .position(|a| a == "--set")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let verify = !args.iter().any(|a| a == "--no-verify");
    let configs = match warpweave_bench::arg_value(&args, "--frontend") {
        Some(names) => names
            .split(',')
            .map(|n| SmConfig::with_policy(n.trim()).unwrap_or_else(|e| panic!("--frontend: {e}")))
            .collect(),
        None => grid::figure7_configs(),
    };

    if set == "regular" || set == "all" {
        let workloads = warpweave_workloads::regular();
        let m = run_matrix_figure(
            &SweepRunner::new(),
            &configs,
            &workloads,
            Scale::Bench,
            verify,
            None,
        );
        let rows: Vec<usize> = (0..m.workloads.len()).collect();
        println!("== Figure 7(a): regular applications (IPC) ==");
        print!("{}", format_ipc_table(&m, &rows, "Gmean"));
        println!();
        println!("== DRAM bandwidth saturation (regular) ==");
        print!("{}", format_bandwidth_table(&m, &configs[0].dram, &rows));
        println!();
    }
    if set == "irregular" || set == "all" {
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
        println!("== Figure 7(b): irregular applications (IPC) ==");
        print!("{}", format_ipc_table(&m, &rows, "Gmean (excl. TMD)"));
        println!();
        // Headline speedups vs the baseline (paper §5.1 / §7).
        let g = m.gmean_ipc(&rows);
        let base = g[0];
        println!("speedup vs baseline (irregular):");
        for (c, name) in m.configs.iter().enumerate().skip(1) {
            println!("  {:<10} {:+.1}%", name, (g[c] / base - 1.0) * 100.0);
        }
        println!();
        println!("== DRAM bandwidth saturation (irregular) ==");
        print!("{}", format_bandwidth_table(&m, &configs[0].dram, &rows));
    }
}
