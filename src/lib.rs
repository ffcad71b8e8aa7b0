//! # warpweave
//!
//! A cycle-level SIMT GPU simulator reproducing *"Simultaneous Branch and
//! Warp Interweaving for Sustained GPU Performance"* (Brunie, Collange,
//! Diamos — ISCA 2012), built entirely from scratch in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — the SASS-like instruction set, assembler and CFG analyses.
//! * [`mem`] — coalescer, L1 cache and DRAM models.
//! * [`core`] — the SM pipeline with the Baseline / Warp64 / SBI / SWI /
//!   SBI+SWI front-ends (the paper's contribution).
//! * [`workloads`] — the 21 benchmark kernels of the paper's evaluation.
//! * [`hwcost`] — storage and area models (tables 3 and 4).
//! * [`mod@bench`] — the experiment harness regenerating every figure.
//! * [`serve`] — the distributed sweep fabric: the `sweep_serve` daemon,
//!   its client, and the content-addressed cell cache.
//!
//! # Examples
//! ```
//! use warpweave::core::{Launch, Sm, SmConfig};
//! use warpweave::isa::{KernelBuilder, r, SpecialReg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut k = KernelBuilder::new("hello");
//! k.mov(r(0), SpecialReg::Tid);
//! k.exit();
//! let mut sm = Sm::new(SmConfig::sbi_swi(), Launch::new(k.build()?, 4, 256))?;
//! let stats = sm.run(100_000)?;
//! assert!(stats.thread_instructions >= 2048);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use warpweave_bench as bench;
pub use warpweave_core as core;
pub use warpweave_hwcost as hwcost;
pub use warpweave_isa as isa;
pub use warpweave_mem as mem;
pub use warpweave_serve as serve;
pub use warpweave_workloads as workloads;

// Convenience re-exports of the most common entry points.
pub use warpweave_core::{
    LaneShuffle, Launch, Machine, MachineStats, Sm, SmConfig, Stats, SweepRunner,
};
pub use warpweave_workloads::{all_workloads, by_name, run_prepared, run_prepared_multi_sm, Scale};
