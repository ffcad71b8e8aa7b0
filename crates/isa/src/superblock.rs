//! Superblock trace IR: straight-line fusion of decoded programs.
//!
//! A **superblock** is a maximal straight-line run of non-control
//! instructions — everything except `BRA`, `SYNC`, `BAR` and `EXIT` is
//! eligible — fused at program-decode time into a sequence of
//! [`FusedOp`] micro-ops with operands pre-resolved: immediates and
//! kernel parameters become splat descriptors, warp-uniform special
//! registers are tagged for a one-load-per-warp splat, and register
//! operands carry their precomputed row index into the SoA register
//! file. Guards stay symbolic (a predicate + sense pair) because the
//! executing core folds them into a single predicate-bitmask AND per
//! micro-op.
//!
//! Fusion also respects basic-block structure (via [`crate::cfg`]): a run
//! may only cross a block leader when the entered block has exactly one
//! predecessor and is reached from it by fall-through — the classic
//! single-entry chain-fuse rule. (With this ISA's leader construction a
//! fall-through successor with a single predecessor is never a leader in
//! the first place, so the rule is a guard against future CFG shapes
//! rather than a load-bearing filter today.) Runs shorter than
//! [`MIN_SUPERBLOCK_LEN`] are not worth a table entry and are left to the
//! interpreter.
//!
//! The timing model is untouched by design: a superblock never changes
//! *when* an instruction executes, only *how* its operands are resolved
//! (see `warpweave-core`'s `superblock` module for the execution
//! contract — and for the module's status: the simulator's pipeline no
//! longer builds or runs superblocks; this IR is library code awaiting
//! deletion with ROADMAP item 3).

use crate::cfg::{build_cfg, Cfg};
use crate::instr::{Guard, Instruction, Operand};
use crate::op::{CmpOp, MemSpace, Op};
use crate::program::{Pc, Program};
use crate::reg::{Pred, Reg, SpecialReg};

/// Minimum number of fused instructions that justify a superblock entry.
pub const MIN_SUPERBLOCK_LEN: usize = 2;

/// A pre-resolved source operand of a [`FusedOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedSrc {
    /// Operand slot not present.
    None,
    /// A register operand: the precomputed row index into the SoA file.
    Row(u8),
    /// An immediate, splat across the warp.
    Imm(u32),
    /// A kernel parameter index (the launch resolves it to a splat).
    Param(u8),
    /// A special register: warp-uniform ones splat once per warp, `Tid`
    /// is affine in the lane index and `LaneId` reads the shuffle row.
    Special(SpecialReg),
}

impl FusedSrc {
    fn from_operand(op: Option<Operand>) -> FusedSrc {
        match op {
            None => FusedSrc::None,
            Some(Operand::Reg(r)) => FusedSrc::Row(r.index() as u8),
            Some(Operand::Imm(v)) => FusedSrc::Imm(v),
            Some(Operand::Param(i)) => FusedSrc::Param(i),
            Some(Operand::Special(s)) => FusedSrc::Special(s),
        }
    }
}

/// One fused micro-op: the decoded fields of an eligible instruction with
/// operand resolution done ahead of time.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedOp {
    /// The opcode (never `Bra`/`Sync`/`Bar`/`Exit`).
    pub op: Op,
    /// Guard predicate, folded into one bitmask AND at execute time.
    pub guard: Option<Guard>,
    /// Destination register (row index = `Reg::index`).
    pub dst: Option<Reg>,
    /// Destination predicate for `ISetP`/`FSetP`.
    pub pdst: Option<Pred>,
    /// Pre-resolved source operands.
    pub srcs: [FusedSrc; 3],
    /// Comparison for the set-predicate ops.
    pub cmp: Option<CmpOp>,
    /// Selector predicate for `Sel`.
    pub sel_pred: Option<Pred>,
    /// Address space for memory ops.
    pub space: MemSpace,
    /// Byte offset for memory ops.
    pub offset: i32,
}

impl FusedOp {
    fn from_instruction(ins: &Instruction) -> FusedOp {
        debug_assert!(fusible(ins));
        FusedOp {
            op: ins.op,
            guard: ins.guard,
            dst: ins.dst,
            pdst: ins.pdst,
            srcs: [
                FusedSrc::from_operand(ins.srcs[0]),
                FusedSrc::from_operand(ins.srcs[1]),
                FusedSrc::from_operand(ins.srcs[2]),
            ],
            cmp: ins.cmp,
            sel_pred: ins.sel_pred,
            space: ins.space,
            offset: ins.offset,
        }
    }
}

/// A fused straight-line region covering instructions `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Superblock {
    /// First covered instruction.
    pub start: Pc,
    /// One past the last covered instruction.
    pub end: Pc,
    /// One fused micro-op per covered instruction, in address order
    /// (`ops[i]` corresponds to pc `start + i`).
    pub ops: Vec<FusedOp>,
}

impl Superblock {
    /// Number of instructions this superblock covers.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: superblocks are at least [`MIN_SUPERBLOCK_LEN`] long.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The fused op for `pc`, if this superblock covers it.
    pub fn op_at(&self, pc: Pc) -> Option<&FusedOp> {
        if pc.0 >= self.start.0 && pc.0 < self.end.0 {
            Some(&self.ops[(pc.0 - self.start.0) as usize])
        } else {
            None
        }
    }
}

/// The superblocks of one decoded program, with a per-pc entry index.
#[derive(Debug, Clone, Default)]
pub struct SuperblockSet {
    sbs: Vec<Superblock>,
    /// `entry[pc]` = superblock index if `pc` is a superblock start.
    entry: Vec<Option<u32>>,
}

impl SuperblockSet {
    /// Fuses `program`'s straight-line regions. See the module docs for
    /// the fusion rules.
    pub fn build(program: &Program) -> SuperblockSet {
        build_superblocks(program.instructions())
    }

    /// All superblocks, in address order.
    pub fn superblocks(&self) -> &[Superblock] {
        &self.sbs
    }

    /// Index of the superblock starting exactly at `pc`, if any.
    pub fn entry_index_at(&self, pc: Pc) -> Option<u32> {
        self.entry.get(pc.index()).copied().flatten()
    }

    /// The superblock starting exactly at `pc`, if any.
    pub fn entry_at(&self, pc: Pc) -> Option<&Superblock> {
        match self.entry.get(pc.index()) {
            Some(&Some(i)) => Some(&self.sbs[i as usize]),
            _ => None,
        }
    }

    /// Total instructions covered by some superblock (static count).
    pub fn covered_instructions(&self) -> usize {
        self.sbs.iter().map(Superblock::len).sum()
    }
}

/// Whether an instruction may live inside a superblock: everything except
/// the control class (`BRA` redirects flow, `SYNC`/`BAR` are
/// reconvergence/barrier boundaries, `EXIT` retires threads). `NOP` is
/// control-unit but flow-neutral, so it fuses.
pub fn fusible(ins: &Instruction) -> bool {
    !matches!(ins.op, Op::Bra | Op::Sync | Op::Bar | Op::Exit)
}

/// Whether the block whose leader is instruction `j` may be chain-fused
/// onto the preceding run: single predecessor, reached by fall-through.
fn chain_fusible(cfg: &Cfg, instrs: &[Instruction], j: usize) -> bool {
    let b = cfg.block_containing(j);
    let preds = &cfg.blocks[b].preds;
    if preds.len() != 1 || preds[0] + 1 != b {
        return false;
    }
    // Fall-through means the predecessor's terminator is not a jump.
    let term = &instrs[cfg.blocks[preds[0]].end - 1];
    !matches!(term.op, Op::Bra | Op::Exit)
}

/// Fuses maximal eligible runs of `instrs` into superblocks.
pub fn build_superblocks(instrs: &[Instruction]) -> SuperblockSet {
    let mut set = SuperblockSet {
        sbs: Vec::new(),
        entry: vec![None; instrs.len()],
    };
    if instrs.is_empty() {
        return set;
    }
    let cfg = build_cfg(instrs);
    let mut i = 0;
    while i < instrs.len() {
        if !fusible(&instrs[i]) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 1;
        while j < instrs.len() && fusible(&instrs[j]) {
            if cfg.is_leader(j) && !chain_fusible(&cfg, instrs, j) {
                break;
            }
            j += 1;
        }
        if j - start >= MIN_SUPERBLOCK_LEN {
            let ops = instrs[start..j]
                .iter()
                .map(FusedOp::from_instruction)
                .collect();
            set.entry[start] = Some(set.sbs.len() as u32);
            set.sbs.push(Superblock {
                start: Pc(start as u32),
                end: Pc(j as u32),
                ops,
            });
        }
        i = j;
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::KernelBuilder;
    use crate::op::CmpOp;
    use crate::reg::{p, r};

    /// Straight-line kernel: one superblock covering everything but EXIT.
    #[test]
    fn straight_line_fuses_to_one_superblock() {
        let mut k = KernelBuilder::new("straight");
        k.mov(r(0), SpecialReg::Tid);
        k.iadd(r(1), r(0), 7i32);
        k.imul(r(2), r(1), r(1));
        k.st(r(2), 0, r(1));
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        assert_eq!(set.superblocks().len(), 1);
        let sb = &set.superblocks()[0];
        assert_eq!((sb.start, sb.end), (Pc(0), Pc(4)));
        assert_eq!(set.covered_instructions(), 4);
        assert!(set.entry_at(Pc(0)).is_some());
        assert!(set.entry_at(Pc(1)).is_none());
        // Operand pre-resolution: row indices and splats.
        assert_eq!(sb.ops[0].srcs[0], FusedSrc::Special(SpecialReg::Tid));
        assert_eq!(
            sb.ops[1].srcs,
            [FusedSrc::Row(0), FusedSrc::Imm(7), FusedSrc::None]
        );
        assert_eq!(sb.ops[3].op, Op::St);
        assert_eq!(sb.ops[3].srcs[0], FusedSrc::Row(2));
    }

    /// Barriers split runs even inside one basic block (BAR is not a CFG
    /// leader in this ISA).
    #[test]
    fn barrier_splits_runs_mid_block() {
        let mut k = KernelBuilder::new("bar");
        k.mov(r(0), 1i32);
        k.iadd(r(1), r(0), r(0));
        k.bar();
        k.imul(r(2), r(1), r(1));
        k.iadd(r(3), r(2), 1i32);
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        assert_eq!(set.superblocks().len(), 2);
        assert_eq!(set.superblocks()[0].end, Pc(2));
        assert_eq!(set.superblocks()[1].start, Pc(3));
        assert_eq!(set.superblocks()[1].end, Pc(5));
    }

    /// Runs shorter than MIN_SUPERBLOCK_LEN are skipped; branch targets
    /// start fresh runs.
    #[test]
    fn divergent_kernel_respects_leaders_and_min_len() {
        let mut k = KernelBuilder::new("div");
        k.mov(r(0), SpecialReg::Tid);
        k.isetp(p(0), CmpOp::Lt, r(0), 16i32);
        k.bra_ifn(p(0), "else");
        k.mov(r(1), 1i32); // lone eligible op: too short to fuse
        k.bra("join");
        k.label("else");
        k.mov(r(1), 2i32);
        k.mov(r(2), 3i32);
        k.label("join");
        k.iadd(r(3), r(1), r(2));
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        // Run 1: [0,2) prologue. Run 2: the else block's two movs. The
        // single mov on the then path and the post-join iadd (cut short
        // by the inserted SYNC and EXIT) stay uncovered.
        assert_eq!(set.superblocks().len(), 2);
        assert_eq!(set.superblocks()[0].start, Pc(0));
        assert_eq!(set.superblocks()[0].end, Pc(2));
        assert_eq!(set.superblocks()[1].len(), 2);
        for sb in set.superblocks() {
            for op in &sb.ops {
                assert!(!matches!(op.op, Op::Bra | Op::Sync | Op::Bar | Op::Exit));
            }
        }
    }

    #[test]
    fn op_at_maps_pcs_to_fused_ops() {
        let mut k = KernelBuilder::new("map");
        k.mov(r(0), 1i32);
        k.iadd(r(1), r(0), 2i32);
        k.imul(r(2), r(1), 3i32);
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        let sb = &set.superblocks()[0];
        assert_eq!(sb.op_at(Pc(1)).unwrap().op, Op::IAdd);
        assert!(sb.op_at(Pc(3)).is_none());
        assert!(!sb.is_empty());
    }
}
