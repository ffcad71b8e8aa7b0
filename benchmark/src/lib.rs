//! # warpweave-benchmark
//!
//! One seeded, verified, layer-attributed benchmark for the simulator and
//! the sweep fabric. Every layer is measured **from outside**: spans
//! around calls into public functions, isolated timings of public layer
//! kernels, and ablations through the two switches that already exist
//! (`SmConfig::with_superblocks`, `SmConfig::with_fast_forward`). Nothing
//! outside this directory changes. See `README.md` for the workloads, the
//! timing rule and the table of which layer should move which number.

pub mod clock;
pub mod compare;
pub mod fabric;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod run;
pub mod sim;
pub mod timing;
pub mod trace;

use std::path::PathBuf;

use warpweave_core::Stats;
use warpweave_mem::ChannelStats;

use crate::trace::Tracer;

/// Default `--seed`: the harness's `BENCH_SEED`.
pub const DEFAULT_SEED: u64 = warpweave_bench::BENCH_SEED;

/// Everything one benchmark run is parameterised by.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Drives only generated inputs: the fuzz kernels and the
    /// isolated-kernel address streams. The 21 paper kernels have fixed
    /// inputs.
    pub seed: u64,
    /// Length of the measuring phase, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
    /// Test-scale inputs and a handful of repetitions: the preset the
    /// crate's own tests run.
    pub smoke: bool,
    /// Root of the repository checkout (holds `BENCH_golden.json`).
    pub root: PathBuf,
    /// Scratch and result directory (`benchmark/out`).
    pub out: PathBuf,
}

impl Ctx {
    /// A scratch path under [`Ctx::out`] no other run or workload uses:
    /// `<stem>-<pid>-<n>`.
    pub fn scratch(&self, stem: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.out.join(format!("{stem}-{}-{n}", std::process::id()))
    }
}

/// The simulated outcome of one cell: a workload on an SM or a machine,
/// a fuzz-kernel launch, or a cell of a served grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStat {
    pub key: String,
    /// SM counters (machine totals, with `cycles` the makespan, for
    /// machine cells).
    pub stats: Stats,
    /// Shared-channel counters, for machine cells.
    pub channel: Option<ChannelStats>,
    /// Aggregate channel byte budget per cycle (`bytes_per_cycle ×
    /// channels`); 0 when it is not known from outside.
    pub channel_budget: f64,
    /// Σ per-SM cycles — the denominator of the idle share. Equals
    /// `stats.cycles` on one SM; `None` when per-SM figures are not
    /// visible from outside (probes run inside the sweep harness).
    pub sm_cycles: Option<u64>,
}

impl CellStat {
    pub fn single_sm(key: String, stats: Stats) -> CellStat {
        CellStat {
            key,
            sm_cycles: Some(stats.cycles),
            stats,
            channel: None,
            channel_budget: 0.0,
        }
    }
}

/// Which of the simulator's two existing switches a repetition turns off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Full,
    NoSuperblocks,
    NoFastForward,
}

/// One timed repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Wall-clock and process-CPU seconds of the timed window.
    pub time: clock::Lap,
    /// Operations (cells, launches or requests) attempted and verified.
    pub attempted: u64,
    /// Operations that failed: a simulation error, a failed host-reference
    /// check, a golden byte-diff, a checksum failure, or simulated
    /// counters that differ from the reference repetition.
    pub failed: u64,
    /// Σ |cycles − reference cycles| over the cells of an ablated
    /// repetition: how far a switch that should be timing-invisible moved
    /// simulated time. Always 0 with both switches on (there, any
    /// difference is a failure).
    pub cycle_drift: u64,
}

/// A workload: set up once, then repeated in a closed loop by one
/// generator (this process), one repetition at a time.
pub trait Bench {
    /// Runs one repetition, verifying every result against the reference.
    fn rep(&mut self, tracer: &mut Tracer, variant: Variant) -> Rep;

    /// The simulated results of one repetition — established during set-up
    /// and confirmed bit-identical by every repetition since.
    fn cells(&self) -> &[CellStat];

    /// Static instructions decoded per repetition (0 when the programs are
    /// not visible from outside).
    fn static_instrs(&self) -> u64 {
        0
    }

    /// Whether `rep` honours [`Variant`] (the simulator workloads do; the
    /// fabric workloads reach the simulator only through the harness).
    fn has_ablations(&self) -> bool {
        false
    }

    /// Secondary timing series gathered across repetitions, in seconds
    /// (e.g. the disk-hit request of `serve_cold`).
    fn side_series(&self) -> Vec<(&'static str, Vec<f64>)> {
        Vec::new()
    }

    /// Workload-specific per-layer numbers, gathered in traced runs after
    /// the repetitions.
    fn layer_metrics(&mut self, _ctx: &Ctx, _out: &mut metrics::Metrics) {}

    /// Stops anything the workload started and removes its scratch files.
    fn finish(&mut self) {}
}
