//! Regenerates **figure 2**: the contents of the execution pipeline when an
//! if-then-else block runs over 8 threads, under classic SIMT, SBI (with
//! and without reconvergence constraints), SWI, and SBI+SWI — every
//! front-end on the same 4 MAD lanes ([`warpweave_bench::grid::fig2_shrink`]).
//!
//! Instruction numbering follows the paper: 1 = the divergent branch,
//! 2–4 = the `if` side, 5 = the `else` side, 6 = the reconverged tail.
//!
//! `--frontend NAMES` (comma-separated registry names) renders the
//! timeline under the named issue policies instead of the paper's five
//! variants — e.g. `--frontend Baseline,GreedyThenOldest` to compare
//! scheduling orders on the toy kernel.

use warpweave_bench::arg_value;
use warpweave_bench::grid::{fig2_configs, fig2_launch, fig2_shrink};
use warpweave_core::{render_timeline, Sm, SmConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let configs = match arg_value(&args, "--frontend") {
        Some(names) => names
            .split(',')
            .map(|name| {
                let cfg = SmConfig::with_policy(name.trim())
                    .unwrap_or_else(|e| panic!("--frontend: {e}"));
                fig2_shrink(cfg)
            })
            .collect(),
        None => fig2_configs(),
    };
    for cfg in configs {
        let (name, warps, width) = (cfg.name.clone(), cfg.num_warps, cfg.warp_width);
        let mut sm = Sm::new(cfg, fig2_launch()).expect("valid configuration");
        sm.enable_trace();
        sm.run(10_000).expect("toy kernel finishes");
        println!("== {name} ==");
        println!("(cells show the issued PC per thread; '.' = lane idle)\n");
        println!("{}", render_timeline(sm.trace_events(), warps, width));
        println!(
            "cycles: {}  thread-instructions: {}  IPC: {:.2}\n",
            sm.stats().cycles,
            sm.stats().thread_instructions,
            sm.stats().ipc()
        );
    }
}
