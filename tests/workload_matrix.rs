//! Every registered workload, verified against its host reference on every
//! architecture (test-scale inputs).
//!
//! All configuration sets come from `warpweave::bench::grid` — the same
//! canonical grid the golden baseline pins — so the test matrix and the
//! committed `BENCH_golden.json` can never silently diverge.

use warpweave::bench::grid;
use warpweave::core::SmConfig;
use warpweave::workloads::{all_workloads, run_prepared, Scale};

#[test]
fn all_workloads_verify_on_all_architectures() {
    let configs = grid::figure7_configs();
    for w in all_workloads() {
        for cfg in &configs {
            run_prepared(cfg, w.prepare(Scale::Test), true).unwrap_or_else(|e| {
                panic!("{} on {}: {e}", w.name(), cfg.name);
            });
        }
    }
}

#[test]
fn lane_shuffles_and_associativity_preserve_results() {
    // The fig. 8(b) and fig. 9 columns, exactly as `figure fig8b` and
    // `figure fig9` run them.
    let w = warpweave::by_name("SortingNetworks").expect("registered");
    for cfg in grid::lane_shuffle_configs()
        .iter()
        .chain(&grid::associativity_configs())
    {
        run_prepared(cfg, w.prepare(Scale::Test), true)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
    }
}

#[test]
fn constraint_study_configs_preserve_results() {
    // The fig. 8(a) columns (constraints off/on) on one loop-carried
    // irregular workload.
    let w = warpweave::by_name("BFS").expect("registered");
    for cfg in &grid::constraint_configs() {
        run_prepared(cfg, w.prepare(Scale::Test), true)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
    }
}

#[test]
fn all_workloads_verify_on_multi_sm_machine() {
    // Every kernel's result must survive the parallel machine's
    // snapshot-and-merge memory model (disjoint stores in SM order,
    // atomic deltas summed) — the semantic contract of `Machine`.
    use warpweave::workloads::run_prepared_multi_sm;
    let cfg = SmConfig::sbi_swi();
    for w in all_workloads() {
        run_prepared_multi_sm(&cfg, 4, w.prepare(Scale::Test), true).unwrap_or_else(|e| {
            panic!("{} on 4-SM {}: {e}", w.name(), cfg.name);
        });
    }
}

#[test]
fn registry_matches_paper_layout() {
    use warpweave::workloads::{irregular, regular};
    // Fig. 7a order.
    let names: Vec<&str> = regular().iter().map(|w| w.name()).collect();
    assert_eq!(
        names,
        [
            "3DFD",
            "Backprop",
            "BinomialOptions",
            "BlackScholes",
            "DWTHaar1D",
            "FastWalshTransform",
            "Hotspot",
            "MatrixMul",
            "MonteCarlo",
            "Transpose"
        ]
    );
    // Fig. 7b order.
    let names: Vec<&str> = irregular().iter().map(|w| w.name()).collect();
    assert_eq!(
        names,
        [
            "BFS",
            "ConvolutionSeparable",
            "Eigenvalues",
            "Histogram",
            "LUD",
            "Mandelbrot",
            "Needleman-Wunsch",
            "SortingNetworks",
            "SRAD",
            "TMD1",
            "TMD2"
        ]
    );
}
