//! Superblocks: the straight-line runs of a decoded program.
//!
//! A **superblock** is a maximal run of at least two consecutive
//! non-control instructions — everything except `BRA`, `SYNC`, `BAR` and
//! `EXIT` — that no branch enters except at its first instruction. Its
//! ops are the program's own instructions: there is no fused form and no
//! operand pre-resolution, so executing one is executing its instructions
//! (`warpweave-core`'s `execute_fused` is `execute_warp` under another
//! name).
//!
//! Nothing in the simulator builds superblocks. The partition stays only
//! because the frozen `benchmark/` crate times [`SuperblockSet::build`] and
//! executes a superblock's ops; both go with ROADMAP item 3.

use crate::instr::Instruction;
use crate::op::Op;
use crate::program::{Pc, Program};

/// Shortest run that counts as a superblock.
const MIN_LEN: usize = 2;

/// A straight-line region of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Superblock {
    /// First covered instruction.
    pub start: Pc,
    /// The covered instructions, in address order (`ops[i]` is the
    /// instruction at pc `start + i`).
    pub ops: Vec<Instruction>,
}

/// The superblocks of one decoded program, in address order.
#[derive(Debug, Clone)]
pub struct SuperblockSet {
    sbs: Vec<Superblock>,
}

impl SuperblockSet {
    /// Splits `program` into its superblocks (see the module docs).
    pub fn build(program: &Program) -> SuperblockSet {
        let instrs = program.instructions();
        // A branch target is the only way into the middle of a run, so it
        // opens a new one.
        let mut target = vec![false; instrs.len()];
        for ins in instrs.iter().filter(|i| i.op == Op::Bra) {
            target[ins.target.expect("validated branch has target").index()] = true;
        }
        let mut sbs = Vec::new();
        let mut i = 0;
        while i < instrs.len() {
            let start = i;
            i += 1;
            if !fusible(&instrs[start]) {
                continue;
            }
            while i < instrs.len() && fusible(&instrs[i]) && !target[i] {
                i += 1;
            }
            if i - start >= MIN_LEN {
                sbs.push(Superblock {
                    start: Pc(start as u32),
                    ops: instrs[start..i].to_vec(),
                });
            }
        }
        SuperblockSet { sbs }
    }

    /// All superblocks, in address order.
    pub fn superblocks(&self) -> &[Superblock] {
        &self.sbs
    }
}

/// Whether an instruction may sit inside a superblock: everything except
/// the control class (`BRA` redirects flow, `SYNC`/`BAR` are
/// reconvergence/barrier boundaries, `EXIT` retires threads). `NOP` is
/// control-unit but flow-neutral, so it counts.
fn fusible(ins: &Instruction) -> bool {
    !matches!(ins.op, Op::Bra | Op::Sync | Op::Bar | Op::Exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::KernelBuilder;
    use crate::op::CmpOp;
    use crate::reg::{p, r, SpecialReg};

    /// Each superblock as `[start, end)`.
    fn spans(set: &SuperblockSet) -> Vec<(usize, usize)> {
        set.superblocks()
            .iter()
            .map(|sb| (sb.start.index(), sb.start.index() + sb.ops.len()))
            .collect()
    }

    /// Straight-line kernel: one superblock covering everything but EXIT,
    /// whose ops are the program's instructions.
    #[test]
    fn straight_line_is_one_superblock() {
        let mut k = KernelBuilder::new("straight");
        k.mov(r(0), SpecialReg::Tid);
        k.iadd(r(1), r(0), 7i32);
        k.imul(r(2), r(1), r(1));
        k.st(r(2), 0, r(1));
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        assert_eq!(spans(&set), [(0, 4)]);
        assert_eq!(set.superblocks()[0].ops, prog.instructions()[..4]);
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
        assert_eq!(spans(&SuperblockSet::build(&prog)), [(0, 2), (3, 5)]);
    }

    /// Runs shorter than two instructions are skipped; branch targets
    /// start fresh runs.
    #[test]
    fn divergent_kernel_respects_targets_and_min_len() {
        let mut k = KernelBuilder::new("div");
        k.mov(r(0), SpecialReg::Tid);
        k.isetp(p(0), CmpOp::Lt, r(0), 16i32);
        k.bra_ifn(p(0), "else");
        k.mov(r(1), 1i32); // lone eligible op: too short
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
        assert_eq!(spans(&set), [(0, 2), (5, 7)]);
        for sb in set.superblocks() {
            assert!(sb.ops.iter().all(fusible));
        }
    }

    /// A loop head in the middle of straight-line code is entered by the
    /// back edge, so the run before it ends there.
    #[test]
    fn loop_head_opens_a_new_run() {
        let mut k = KernelBuilder::new("loop");
        k.mov(r(0), 4i32);
        k.mov(r(1), 0i32);
        k.label("head");
        k.iadd(r(1), r(1), 3i32);
        k.iadd(r(0), r(0), -1i32);
        k.isetp(p(0), CmpOp::Gt, r(0), 0i32);
        k.bra_if(p(0), "head");
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        let head = set.superblocks()[1].start;
        assert_eq!(spans(&set)[0].1, head.index());
        assert!(prog
            .instructions()
            .iter()
            .any(|i| i.op == Op::Bra && i.target == Some(head)));
    }
}
