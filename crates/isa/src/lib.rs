//! # warpweave-isa
//!
//! The instruction set, assembler and control-flow analyses underlying the
//! warpweave SIMT simulator — a from-scratch reproduction of the substrate
//! required by *"Simultaneous Branch and Warp Interweaving for Sustained GPU
//! Performance"* (Brunie, Collange, Diamos — ISCA 2012).
//!
//! The crate provides:
//!
//! * a compact SASS-like ISA ([`Op`], [`Instruction`], [`Reg`], [`Pred`],
//!   [`SpecialReg`]) with MAD / SFU / LSU / control unit classes,
//! * a fluent assembler ([`KernelBuilder`]) with symbolic labels,
//! * control-flow analysis ([`mod@cfg`]) that annotates divergent branches with
//!   their immediate-post-dominator reconvergence points (used by the
//!   baseline PDOM stack) and inserts the paper's `SYNC` markers carrying
//!   `PCdiv` payloads (used by SBI reconvergence constraints, §3.3).
//!
//! # Examples
//! ```
//! use warpweave_isa::{KernelBuilder, CmpOp, SpecialReg, r, p};
//!
//! # fn main() -> Result<(), String> {
//! // if (tid < 16) r1 = 1 else r1 = 2
//! let mut k = KernelBuilder::new("demo");
//! k.mov(r(0), SpecialReg::Tid);
//! k.isetp(p(0), CmpOp::Lt, r(0), 16i32);
//! k.bra_ifn(p(0), "else");
//! k.mov(r(1), 1i32);
//! k.bra("join");
//! k.label("else");
//! k.mov(r(1), 2i32);
//! k.label("join");
//! k.exit();
//! let program = k.build()?;
//! println!("{}", program.disassemble());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod cfg;
pub mod fuzz;
pub mod instr;
pub mod op;
pub mod program;
pub mod reg;
pub mod superblock;

pub use asm::{program_from_text, program_to_text, KernelBuilder};
pub use cfg::{build_cfg, dominators, postdominators, Cfg, LayoutReport};
pub use fuzz::{FuzzProfile, KernelPlan, Reproducer};
pub use instr::{Guard, Instruction, Operand};
pub use op::{CmpOp, MemSpace, Op, UnitClass};
pub use program::{Pc, Program};
pub use reg::{p, r, Pred, Reg, SpecialReg, NUM_PREDS, NUM_REGS};
pub use superblock::{Superblock, SuperblockSet};
