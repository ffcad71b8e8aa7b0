//! TMD (Fortin, Gouicem, Graillat — PDP'12): the Table Maker's Dilemma
//! search, the paper's showcase of *unstructured control flow* (§5.1).
//!
//! Each thread classifies one argument of `2^x` and then runs a web of
//! data-dependent refinement stages. A stage `k` is taken iff bit `k` of
//! the result's mantissa is set; inside a stage, an overflow test can jump
//! *into the middle of the next stage* — a goto-style edge that gives one
//! reconvergence point several divergence points. Stack-based (PDOM)
//! reconvergence must defer merging to each stage's far post-dominator and
//! re-executes shared tail blocks once per incoming path, while
//! thread-frontier reconvergence merges opportunistically at equal PCs —
//! this is why "TMD2 shows vastly improved performance compared to
//! stack-based execution".
//!
//! Two variants, as in the paper:
//!
//! * [`Tmd2`] lays blocks out in thread-frontier (program) order.
//! * [`Tmd1`] lays the *same CFG* out in reverse — every reconvergence
//!   point sits below its divergence points ("improper code layout", the
//!   one kernel the authors found violating frontier order), which starves
//!   laggard splits under min-PC scheduling and erases the frontier
//!   advantage.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, emit_gtid, region};
use crate::{Category, Workload};

/// Frontier-ordered variant (see the [module docs](self)).
pub struct Tmd2;
/// Mis-laid-out variant (see the [module docs](self)).
pub struct Tmd1;

/// Refinement stages.
const STAGES: usize = 8;
const STEP: f32 = 1.0 / 4096.0;
/// Overflow threshold for the unstructured skip edge.
const THRESH: f32 = 1.5;
const P_OUT: u8 = 0;

/// Per-stage constants (kept in (0,1) so `c` stays bounded).
fn wa(k: usize) -> f32 {
    0.1 + 0.07 * k as f32
}

fn wb(k: usize) -> f32 {
    0.05 + 0.09 * k as f32
}

/// Emits one block of the stage web. Blocks end in explicit branches so the
/// two variants can lay them out in any order with identical instruction
/// mixes. Register map: r2 = mantissa bits `m`, r5 = working value `c`.
fn emit_block(k: &mut KernelBuilder, block: &str, stage: usize) {
    match block {
        // t_k: take stage k iff bit k of m is set.
        "t" => {
            k.shr(r(6), r(2), stage as i32);
            k.and_(r(6), r(6), 1i32);
            k.isetp(p(0), CmpOp::Eq, r(6), 0i32);
            let next = if stage + 1 == STAGES {
                "done".to_string()
            } else {
                format!("t{}", stage + 1)
            };
            k.bra_if(p(0), next);
            k.bra(format!("a{stage}"));
        }
        // a_k: stage work, then the unstructured overflow edge into the
        // middle of stage k+1.
        "a" => {
            k.ffma(r(5), r(5), 0.75f32, wa(stage));
            k.fmul(r(7), r(5), r(5));
            k.fadd(r(5), r(5), wa(stage) * 0.5);
            k.fsub(r(7), r(7), r(5));
            if stage + 1 < STAGES {
                k.fsetp(p(1), CmpOp::Gt, r(5), THRESH);
                k.bra_if(p(1), format!("m{}", stage + 1));
            }
            k.bra(format!("m{stage}"));
        }
        // m_k: shared tail — reached from a_k *and* from a_{k-1}'s
        // overflow edge.
        "m" => {
            k.ffma(r(5), r(5), 0.5f32, wb(stage));
            k.fadd(r(5), r(5), wb(stage));
            k.fmul(r(5), r(5), 0.9375f32);
            let next = if stage + 1 == STAGES {
                "done".to_string()
            } else {
                format!("t{}", stage + 1)
            };
            k.bra(next);
        }
        _ => unreachable!("unknown block"),
    }
}

fn emit_entry(k: &mut KernelBuilder) {
    emit_gtid(k, r(0));
    // x = gtid·STEP ; y = 2^x ; m = mantissa bits ; c = y
    k.i2f(r(3), r(0));
    k.fmul(r(3), r(3), STEP);
    k.ex2(r(4), r(3));
    k.and_(r(2), r(4), 0xffffi32);
    k.mov(r(5), r(4));
}

fn emit_done(k: &mut KernelBuilder) {
    k.shl(r(8), r(0), 2i32);
    k.iadd(r(8), Operand::Param(P_OUT), r(8));
    k.st(r(8), 0, r(5));
    k.exit();
}

fn program(frontier_ordered: bool) -> Program {
    let mut k = KernelBuilder::new(if frontier_ordered { "tmd2" } else { "tmd1" });
    emit_entry(&mut k);
    if frontier_ordered {
        // Natural order: t0 a0 m0 t1 … done.
        for stage in 0..STAGES {
            for block in ["t", "a", "m"] {
                k.label(format!("{block}{stage}"));
                emit_block(&mut k, block, stage);
            }
        }
        k.label("done");
        emit_done(&mut k);
    } else {
        // Reversed order: done first, stages descending — every
        // reconvergence point lies below its divergence points.
        k.bra("t0");
        k.label("done");
        emit_done(&mut k);
        for stage in (0..STAGES).rev() {
            for block in ["m", "a", "t"] {
                k.label(format!("{block}{stage}"));
                emit_block(&mut k, block, stage);
            }
        }
    }
    k.build().expect("tmd assembles")
}

/// Host mirror: a little state machine over the same blocks, with identical
/// f32 operation order → bit-exact results.
fn host_tmd(gtid: u32) -> f32 {
    let x = gtid as f32 * STEP;
    let y = x.exp2();
    let m = y.to_bits() & 0xffff;
    let mut c = y;
    let mut stage = 0usize;
    #[derive(Clone, Copy, PartialEq)]
    enum Block {
        T,
        A,
        M,
    }
    let mut block = Block::T;
    while stage < STAGES {
        match block {
            Block::T => {
                if (m >> stage) & 1 == 0 {
                    stage += 1;
                    block = Block::T;
                } else {
                    block = Block::A;
                }
            }
            Block::A => {
                c = c.mul_add(0.75, wa(stage));
                let mut t7 = c * c;
                c += wa(stage) * 0.5;
                t7 -= c;
                let _ = t7;
                if stage + 1 < STAGES && c > THRESH {
                    stage += 1; // unstructured: skip t_{stage+1}
                }
                block = Block::M;
            }
            Block::M => {
                c = c.mul_add(0.5, wb(stage));
                c += wb(stage);
                c *= 0.9375;
                stage += 1;
                block = Block::T;
            }
        }
    }
    c
}

fn prepare(frontier_ordered: bool, scale: Scale) -> Prepared {
    let threads: u32 = match scale {
        Scale::Test => 1024,
        Scale::Bench => 16384,
    };
    let expected: Vec<f32> = (0..threads).map(host_tmd).collect();
    let pout = region(0);
    let launch = Launch::new(program(frontier_ordered), threads / 256, 256).with_params(vec![pout]);
    Prepared {
        launches: vec![launch],
        inputs: vec![],
        verify: Box::new(move |mem| {
            assert_exact(&mem.read_f32s(pout, threads as usize), &expected)
        }),
    }
}

impl Workload for Tmd2 {
    fn name(&self) -> &'static str {
        "TMD2"
    }

    fn category(&self) -> Category {
        Category::Irregular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        prepare(true, scale)
    }
}

impl Workload for Tmd1 {
    fn name(&self) -> &'static str {
        "TMD1"
    }

    fn category(&self) -> Category {
        Category::Irregular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        prepare(false, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_prepared;
    use warpweave_core::SmConfig;

    #[test]
    fn layouts_differ_in_frontier_order() {
        assert!(program(true).is_frontier_ordered());
        assert!(!program(false).is_frontier_ordered());
    }

    #[test]
    fn stage_participation_is_data_dependent() {
        // Mantissa bits split threads roughly evenly per stage.
        let taken: usize = (0..256u32)
            .filter(|&t| (host_tmd(t).to_bits()) != host_tmd(0).to_bits())
            .count();
        assert!(taken > 64, "results should vary across threads: {taken}");
    }

    #[test]
    fn tmd2_verifies_on_baseline_and_sbi() {
        run_prepared(&SmConfig::baseline(), Tmd2.prepare(Scale::Test), true).unwrap();
        run_prepared(&SmConfig::sbi(), Tmd2.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn tmd1_verifies_on_baseline_and_sbi() {
        run_prepared(&SmConfig::baseline(), Tmd1.prepare(Scale::Test), true).unwrap();
        run_prepared(&SmConfig::sbi(), Tmd1.prepare(Scale::Test), true).unwrap();
    }
}
