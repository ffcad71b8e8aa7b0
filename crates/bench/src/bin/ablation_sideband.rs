//! Ablation: the CCT sideband sorter (DESIGN.md §6, paper §3.4).
//!
//! "In case the sideband sorter is unable to keep up with insertions of new
//! warp-splits, the sorted heap will be degraded into a stack." This
//! compares the modelled sorter (walks one node per cycle; degrades under
//! pressure) against an ideal always-sorted CCT, under SBI on the
//! irregular set, and reports how often the degraded path fired.
//!
//! Usage: `ablation_sideband [--no-verify]`

use warpweave_bench::harness::{format_ipc_table, run_matrix_figure};
use warpweave_core::{SmConfig, SweepRunner};
use warpweave_workloads::Scale;

fn main() {
    let verify = !std::env::args().any(|a| a == "--no-verify");
    let mut modelled = SmConfig::sbi().named("Sideband");
    modelled.model_sideband_sorter = true;
    let mut ideal = SmConfig::sbi().named("Ideal");
    ideal.model_sideband_sorter = false;
    let configs = vec![modelled, ideal];
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
    println!("== Ablation: CCT sideband sorter vs ideal sorted CCT (IPC, irregular) ==");
    print!("{}", format_ipc_table(&m, &rows, "Gmean (excl. TMD)"));
    println!("\nspills and degraded (stack-order) inserts under the modelled sorter:");
    for w in 0..m.workloads.len() {
        let s = &m.cells[w][0].stats;
        if s.heap.spills > 0 {
            println!(
                "  {:<22} spills {:>6}   degraded {:>6} ({:.1}%)",
                m.workloads[w],
                s.heap.spills,
                s.heap.degraded_inserts,
                s.heap.degraded_inserts as f64 / s.heap.spills as f64 * 100.0
            );
        }
    }
    println!("\npaper: heap order is an optimisation only; degraded mode matches today's");
    println!("divergence stacks, and hot heap occupancy rarely exceeds 3 entries.");
}
