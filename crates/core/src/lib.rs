//! # warpweave-core
//!
//! A cycle-level simulator of a GPU streaming multiprocessor (SM)
//! reproducing *"Simultaneous Branch and Warp Interweaving for Sustained GPU
//! Performance"* (Brunie, Collange, Diamos — ISCA 2012).
//!
//! The crate models the paper's baseline Fermi-like SM and its two proposed
//! front-ends:
//!
//! * **SBI** (§3) — co-issues the two minimal-PC divergent paths of one warp
//!   using thread-frontier reconvergence ([`divergence::frontier`]), the
//!   HCT/CCT sorted heap, optional reconvergence constraints, and the
//!   dependency-matrix [`scoreboard`].
//! * **SWI** (§4) — a cascaded secondary scheduler that fills the primary
//!   instruction's idle lanes with a non-overlapping instruction from
//!   another warp, using [`lane`] shuffling and a set-associative mask
//!   lookup.
//!
//! # Examples
//! ```
//! use warpweave_core::{Launch, Sm, SmConfig};
//! use warpweave_isa::{KernelBuilder, CmpOp, SpecialReg, r, p};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A divergent toy kernel: odd threads do extra work.
//! let mut k = KernelBuilder::new("demo");
//! k.mov(r(0), SpecialReg::Tid);
//! k.and_(r(1), r(0), 1i32);
//! k.isetp(p(0), CmpOp::Eq, r(1), 0i32);
//! k.bra_if(p(0), "even");
//! k.imul(r(2), r(0), 3i32);
//! k.label("even");
//! k.exit();
//!
//! let launch = Launch::new(k.build()?, 8, 256);
//! let mut sm = Sm::new(SmConfig::sbi(), launch)?;
//! let stats = sm.run(1_000_000)?;
//! assert!(stats.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod digest;
pub mod divergence;
pub mod exec;
pub mod faultinject;
pub mod fuzzing;
pub mod groups;
pub mod lane;
pub mod launch;
pub mod lsu;
pub mod machine;
pub mod mask;
pub mod pipeline;
pub mod policy;
pub mod regfile;
pub mod rng;
pub mod scoreboard;
pub mod stats;
pub mod sweep;
pub mod trace;

pub use checkpoint::{
    CellRecord, CheckpointError, SalvageReport, SweepCheckpoint, CHECKPOINT_VERSION,
};
pub use config::{Associativity, DivergenceModel, MemModel, ScoreboardMode, SmConfig};
pub use divergence::frontier::{FrontierHeap, HeapStats};
pub use divergence::stack::PdomStack;
pub use divergence::Transition;
/// [`execute_warp`], under the name the frozen `benchmark/` crate times: a
/// superblock's ops are the program's own instructions, so running one is
/// running them (ROADMAP item 3 retires the name).
pub use exec::execute_warp as execute_fused;
pub use exec::{execute_warp, ThreadInfo, ThreadRegs};
pub use faultinject::{FaultKind, FaultPlan};
pub use fuzzing::{CaseOutcome, FuzzFailure, FuzzTarget};
pub use lane::{LaneShuffle, LaneTable};
pub use launch::{Launch, WarpInfo};
pub use machine::{Machine, MachineStats, MemJournal};
pub use mask::Mask;
#[cfg(debug_assertions)]
pub use pipeline::EventAudit;
pub use pipeline::{SimError, SlotState, Sm, WarpDiagnosis};
pub use policy::{Dispatch, IssueCtx, IssuePolicy, Pick, PolicyInfo, PolicyRegistry, Ready};
pub use regfile::WarpRegFile;
pub use scoreboard::{DepMatrix, Scoreboard};
pub use stats::Stats;
pub use sweep::{JobFailure, SweepRunner};
pub use trace::{render_timeline, IssueSlot, TraceEvent};
