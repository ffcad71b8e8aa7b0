//! Fused execution of superblock micro-ops.
//!
//! [`execute_fused`] is the execute-stage twin of
//! [`execute_warp`](crate::exec::execute_warp) for instructions covered by
//! a [`SuperblockSet`](warpweave_isa::SuperblockSet): same architectural
//! semantics, same access-list contract, same return value — but driven by
//! a pre-resolved [`FusedOp`] instead of a raw `Instruction`, so the hot
//! path skips the interpreter's per-instruction operand snapshot (three
//! 64-lane scratch rows zeroed and filled per op) and instead reads source
//! rows *in place* through the flat SoA storage. Each op dispatches once on
//! the resolved source kinds (register row vs warp-uniform value) and runs
//! a monomorphic lane loop for that combination, computing into a single
//! stack row that is then committed under the execution mask — so a
//! destination aliasing a source reads only pre-instruction state, and the
//! compute loop carries no per-lane branches for the autovectoriser to
//! trip over.
//!
//! **Status: library code, off the issue path.** The pipeline issued
//! covered grants through [`execute_fused`] until the benchmark showed the
//! second execute path cost host time on the divergent kernels
//! (`core.superblock_gain` 0.83–0.91); `Sm` now executes every grant with
//! [`execute_rows`](crate::exec::execute_rows). The function stays,
//! bit-exact against both other execute functions
//! (`tests/exec_differential.rs`, `fuzzing::check_differential`), until
//! the frozen `benchmark/` crate stops naming it (ROADMAP item 3).

use warpweave_isa::{FusedOp, FusedSrc, Op, SpecialReg};

use crate::exec::{commit_pred, f1, f2, f3};
use crate::launch::WarpInfo;
use crate::mask::Mask;
use crate::regfile::WarpRegFile;

/// A source operand resolved against one warp's launch state: either a
/// flat base index into the register storage or a per-warp constant.
#[derive(Clone, Copy)]
enum Rs<'a> {
    /// Register row: flat base index (`row * width`).
    Base(usize),
    /// Warp-uniform value (immediate, param, uniform special).
    Splat(u32),
    /// `Tid`: `base_tid + t`.
    Affine(u32),
    /// `LaneId`: the shuffle row.
    Lanes(&'a [u32]),
}

#[inline]
fn resolve<'a>(src: FusedSrc, width: usize, info: &'a WarpInfo, params: &[u32]) -> Rs<'a> {
    match src {
        FusedSrc::None => Rs::Splat(0), // never read on validated programs
        FusedSrc::Row(r) => Rs::Base(r as usize * width),
        FusedSrc::Imm(v) => Rs::Splat(v),
        FusedSrc::Param(i) => Rs::Splat(params.get(i as usize).copied().unwrap_or(0)),
        FusedSrc::Special(s) => match info.splat(s) {
            Some(v) => Rs::Splat(v),
            None if s == SpecialReg::Tid => Rs::Affine(info.base_tid),
            None => Rs::Lanes(info.lanes()),
        },
    }
}

/// Lane `t`'s value of a resolved source — the generic (branch-per-lane)
/// path, used only for the rare source kinds (`Affine`, `Lanes`) and
/// combinations the specialised loops below don't cover.
#[inline(always)]
fn val(rs: Rs<'_>, regs: &[u32], t: usize) -> u32 {
    match rs {
        Rs::Base(b) => regs[b + t],
        Rs::Splat(v) => v,
        Rs::Affine(base) => base + t as u32,
        Rs::Lanes(l) => l[t],
    }
}

/// One result row, computed full-width on the stack and committed under
/// the execution mask. Computing disabled lanes is harmless (every op is
/// pure at this point) and keeps the compute loops branch-free.
type OutRow = [u32; 64];

/// Commits a computed row into register `d`: every lane on a full mask
/// (one memcpy), executing lanes only otherwise.
#[inline]
fn commit_row(rf: &mut WarpRegFile, d: usize, out: &OutRow, exec: Mask, full: bool) {
    let row = rf.row_mut(d);
    if full {
        let w = row.len();
        row.copy_from_slice(&out[..w]);
    } else {
        for t in exec.iter() {
            row[t] = out[t];
        }
    }
}

#[inline]
fn apply1(rf: &mut WarpRegFile, d: usize, a: Rs, exec: Mask, full: bool, f: impl Fn(u32) -> u32) {
    let w = rf.width();
    let mut out: OutRow = [0; 64];
    {
        let regs = rf.flat();
        let out = &mut out[..w];
        match a {
            Rs::Base(ab) => {
                for (o, &x) in out.iter_mut().zip(&regs[ab..ab + w]) {
                    *o = f(x);
                }
            }
            Rs::Splat(v) => out.fill(f(v)),
            aa => {
                for (t, o) in out.iter_mut().enumerate() {
                    *o = f(val(aa, regs, t));
                }
            }
        }
    }
    commit_row(rf, d, &out, exec, full);
}

#[inline]
fn apply2(
    rf: &mut WarpRegFile,
    d: usize,
    a: Rs,
    b: Rs,
    exec: Mask,
    full: bool,
    f: impl Fn(u32, u32) -> u32,
) {
    let w = rf.width();
    let mut out: OutRow = [0; 64];
    {
        let regs = rf.flat();
        let out = &mut out[..w];
        match (a, b) {
            (Rs::Base(ab), Rs::Base(bb)) => {
                for ((o, &x), &y) in out.iter_mut().zip(&regs[ab..ab + w]).zip(&regs[bb..bb + w]) {
                    *o = f(x, y);
                }
            }
            (Rs::Base(ab), Rs::Splat(y)) => {
                for (o, &x) in out.iter_mut().zip(&regs[ab..ab + w]) {
                    *o = f(x, y);
                }
            }
            (Rs::Splat(x), Rs::Base(bb)) => {
                for (o, &y) in out.iter_mut().zip(&regs[bb..bb + w]) {
                    *o = f(x, y);
                }
            }
            (aa, bb) => {
                for (t, o) in out.iter_mut().enumerate() {
                    *o = f(val(aa, regs, t), val(bb, regs, t));
                }
            }
        }
    }
    commit_row(rf, d, &out, exec, full);
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn apply3(
    rf: &mut WarpRegFile,
    d: usize,
    a: Rs,
    b: Rs,
    c: Rs,
    exec: Mask,
    full: bool,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let w = rf.width();
    let mut out: OutRow = [0; 64];
    {
        let regs = rf.flat();
        let out = &mut out[..w];
        match (a, b, c) {
            (Rs::Base(ab), Rs::Base(bb), Rs::Base(cb)) => {
                for (((o, &x), &y), &z) in out
                    .iter_mut()
                    .zip(&regs[ab..ab + w])
                    .zip(&regs[bb..bb + w])
                    .zip(&regs[cb..cb + w])
                {
                    *o = f(x, y, z);
                }
            }
            (Rs::Base(ab), Rs::Base(bb), Rs::Splat(z)) => {
                for ((o, &x), &y) in out.iter_mut().zip(&regs[ab..ab + w]).zip(&regs[bb..bb + w]) {
                    *o = f(x, y, z);
                }
            }
            (Rs::Base(ab), Rs::Splat(y), Rs::Base(cb)) => {
                for ((o, &x), &z) in out.iter_mut().zip(&regs[ab..ab + w]).zip(&regs[cb..cb + w]) {
                    *o = f(x, y, z);
                }
            }
            (Rs::Splat(x), Rs::Base(bb), Rs::Base(cb)) => {
                for ((o, &y), &z) in out.iter_mut().zip(&regs[bb..bb + w]).zip(&regs[cb..cb + w]) {
                    *o = f(x, y, z);
                }
            }
            (aa, bb, cc) => {
                for (t, o) in out.iter_mut().enumerate() {
                    *o = f(val(aa, regs, t), val(bb, regs, t), val(cc, regs, t));
                }
            }
        }
    }
    commit_row(rf, d, &out, exec, full);
}

/// `ISetP`/`FSetP`: evaluates the comparison full-width into a bitmask,
/// masks it to the executing lanes and merges through
/// [`commit_pred`] — same hoisted-dispatch scheme as the value ops.
#[inline]
fn setp(rf: &mut WarpRegFile, pd: usize, a: Rs, b: Rs, exec: Mask, g: impl Fn(u32, u32) -> bool) {
    let w = rf.width();
    let mut res = 0u64;
    {
        let regs = rf.flat();
        match (a, b) {
            (Rs::Base(ab), Rs::Base(bb)) => {
                for (t, (&x, &y)) in regs[ab..ab + w].iter().zip(&regs[bb..bb + w]).enumerate() {
                    res |= (g(x, y) as u64) << t;
                }
            }
            (Rs::Base(ab), Rs::Splat(y)) => {
                for (t, &x) in regs[ab..ab + w].iter().enumerate() {
                    res |= (g(x, y) as u64) << t;
                }
            }
            (Rs::Splat(x), Rs::Base(bb)) => {
                for (t, &y) in regs[bb..bb + w].iter().enumerate() {
                    res |= (g(x, y) as u64) << t;
                }
            }
            (aa, bb) => {
                for t in 0..w {
                    res |= (g(val(aa, regs, t), val(bb, regs, t)) as u64) << t;
                }
            }
        }
    }
    commit_pred(rf, pd, exec, res & exec.bits());
}

/// Executes one fused micro-op for every thread of a warp, committing
/// register/predicate writes in place.
///
/// Same contract as [`execute_warp`](crate::exec::execute_warp): `active`
/// is the issue mask already restricted to populated threads, the guard is
/// folded in as one bitmask operation, memory ops append
/// `(thread, address, data)` triples to `accesses` in ascending thread
/// order without touching memory, and the return value is the taken mask
/// (always empty — branches are never fused). The `exec_differential` and
/// fuzzer differential suites pin this bit-for-bit against both the scalar
/// reference and the SoA interpreter.
pub fn execute_fused(
    fop: &FusedOp,
    rf: &mut WarpRegFile,
    info: &WarpInfo,
    params: &[u32],
    active: Mask,
    accesses: &mut Vec<(usize, u32, u32)>,
) -> Mask {
    accesses.clear();
    let width = rf.width();
    let exec = active & rf.guard_mask(fop.guard);
    if exec.is_empty() {
        return Mask::EMPTY;
    }
    let full = exec == Mask::full(width);

    let a = resolve(fop.srcs[0], width, info, params);
    let b = resolve(fop.srcs[1], width, info, params);
    let c = resolve(fop.srcs[2], width, info, params);
    let d = || fop.dst.expect("validated dst").index();

    match fop.op {
        Op::Mov => apply1(rf, d(), a, exec, full, |x| x),
        Op::IAdd => apply2(rf, d(), a, b, exec, full, |x, y| {
            (x as i32).wrapping_add(y as i32) as u32
        }),
        Op::ISub => apply2(rf, d(), a, b, exec, full, |x, y| {
            (x as i32).wrapping_sub(y as i32) as u32
        }),
        Op::IMul => apply2(rf, d(), a, b, exec, full, |x, y| {
            (x as i32).wrapping_mul(y as i32) as u32
        }),
        Op::IMad => apply3(rf, d(), a, b, c, exec, full, |x, y, z| {
            (x as i32).wrapping_mul(y as i32).wrapping_add(z as i32) as u32
        }),
        Op::IMin => apply2(rf, d(), a, b, exec, full, |x, y| {
            (x as i32).min(y as i32) as u32
        }),
        Op::IMax => apply2(rf, d(), a, b, exec, full, |x, y| {
            (x as i32).max(y as i32) as u32
        }),
        Op::And => apply2(rf, d(), a, b, exec, full, |x, y| x & y),
        Op::Or => apply2(rf, d(), a, b, exec, full, |x, y| x | y),
        Op::Xor => apply2(rf, d(), a, b, exec, full, |x, y| x ^ y),
        Op::Not => apply1(rf, d(), a, exec, full, |x| !x),
        Op::Shl => apply2(rf, d(), a, b, exec, full, |x, y| x << (y & 31)),
        Op::Shr => apply2(rf, d(), a, b, exec, full, |x, y| x >> (y & 31)),
        Op::Sra => apply2(rf, d(), a, b, exec, full, |x, y| {
            ((x as i32) >> (y & 31)) as u32
        }),
        Op::FAdd => apply2(rf, d(), a, b, exec, full, f2(|x, y| x + y)),
        Op::FSub => apply2(rf, d(), a, b, exec, full, f2(|x, y| x - y)),
        Op::FMul => apply2(rf, d(), a, b, exec, full, f2(|x, y| x * y)),
        Op::FFma => apply3(rf, d(), a, b, c, exec, full, f3(|x, y, z| x.mul_add(y, z))),
        Op::FMin => apply2(rf, d(), a, b, exec, full, f2(f32::min)),
        Op::FMax => apply2(rf, d(), a, b, exec, full, f2(f32::max)),
        Op::I2F => apply1(rf, d(), a, exec, full, |x| (x as i32 as f32).to_bits()),
        Op::F2I => apply1(rf, d(), a, exec, full, |x| f32::from_bits(x) as i32 as u32),
        Op::ISetP => {
            let cmp = fop.cmp.expect("validated cmp");
            let pd = fop.pdst.expect("validated pdst").index();
            setp(rf, pd, a, b, exec, |x, y| cmp.eval_i32(x as i32, y as i32));
        }
        Op::FSetP => {
            let cmp = fop.cmp.expect("validated cmp");
            let pd = fop.pdst.expect("validated pdst").index();
            setp(rf, pd, a, b, exec, |x, y| {
                cmp.eval_f32(f32::from_bits(x), f32::from_bits(y))
            });
        }
        Op::Sel => {
            let pm = rf.pred_bits(fop.sel_pred.expect("validated sel_pred").index());
            let mut out: OutRow = [0; 64];
            {
                let regs = rf.flat();
                for (t, o) in out[..width].iter_mut().enumerate() {
                    *o = if (pm >> t) & 1 == 1 {
                        val(a, regs, t)
                    } else {
                        val(b, regs, t)
                    };
                }
            }
            commit_row(rf, d(), &out, exec, full);
        }
        Op::Rcp => apply1(rf, d(), a, exec, full, f1(|x| 1.0 / x)),
        Op::Sqrt => apply1(rf, d(), a, exec, full, f1(f32::sqrt)),
        Op::Rsqrt => apply1(rf, d(), a, exec, full, f1(|x| 1.0 / x.sqrt())),
        Op::Sin => apply1(rf, d(), a, exec, full, f1(f32::sin)),
        Op::Cos => apply1(rf, d(), a, exec, full, f1(f32::cos)),
        Op::Ex2 => apply1(rf, d(), a, exec, full, f1(f32::exp2)),
        Op::Lg2 => apply1(rf, d(), a, exec, full, f1(f32::log2)),
        Op::Ld => {
            let off = fop.offset as u32;
            let regs = rf.flat();
            match a {
                Rs::Base(ab) => {
                    let ar = &regs[ab..ab + width];
                    for t in exec.iter() {
                        accesses.push((t, ar[t].wrapping_add(off), 0));
                    }
                }
                aa => {
                    for t in exec.iter() {
                        accesses.push((t, val(aa, regs, t).wrapping_add(off), 0));
                    }
                }
            }
        }
        Op::St | Op::AtomAdd => {
            let off = fop.offset as u32;
            let regs = rf.flat();
            match (a, b) {
                (Rs::Base(ab), Rs::Base(bb)) => {
                    let ar = &regs[ab..ab + width];
                    let br = &regs[bb..bb + width];
                    for t in exec.iter() {
                        accesses.push((t, ar[t].wrapping_add(off), br[t]));
                    }
                }
                (aa, bb) => {
                    for t in exec.iter() {
                        accesses.push((t, val(aa, regs, t).wrapping_add(off), val(bb, regs, t)));
                    }
                }
            }
        }
        Op::Nop => {}
        Op::Bra | Op::Sync | Op::Bar | Op::Exit => {
            unreachable!("control ops are never fused into superblocks")
        }
    }
    Mask::EMPTY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_warp;
    use warpweave_isa::{p, r, CmpOp, KernelBuilder, Program, SuperblockSet};

    fn info(width: usize) -> WarpInfo {
        let mut i = WarpInfo::new(width);
        i.seed(64, 3, 256, 16, 1, crate::LaneShuffle::Identity, width, 16);
        i
    }

    fn build(buildfn: impl FnOnce(&mut KernelBuilder)) -> (Program, SuperblockSet) {
        let mut k = KernelBuilder::new("t");
        buildfn(&mut k);
        k.exit();
        let prog = k.build().unwrap();
        let set = SuperblockSet::build(&prog);
        (prog, set)
    }

    /// Fused execution of a whole covered region matches the interpreter
    /// op-for-op on the same initial state, including in-place aliasing
    /// (r1 = r1 + r2) and partial masks.
    #[test]
    fn fused_matches_interpreter_with_aliasing_and_partial_mask() {
        let width = 8;
        let (prog, set) = build(|k| {
            k.mov(r(1), warpweave_isa::SpecialReg::Tid);
            k.iadd(r(1), r(1), r(1)); // dst aliases both sources
            k.imad(r(2), r(1), 3i32, r(1));
            k.isetp(p(1), CmpOp::Gt, r(2), 10i32);
            k.sel(r(3), p(1), r(2), 0i32);
            k.ld(r(4), r(3), 4);
            k.st(r(3), 8, r(2));
        });
        let sb = &set.superblocks()[0];
        assert_eq!(sb.len(), 7);

        let wi = info(width);
        let params: Vec<u32> = vec![5, 9];
        let mut rf_i = WarpRegFile::new(width);
        let mut rf_f = WarpRegFile::new(width);
        for t in 0..width {
            for ri in 0..8 {
                rf_i.set_reg(t, ri, (t * 17 + ri) as u32);
                rf_f.set_reg(t, ri, (t * 17 + ri) as u32);
            }
        }
        let active = Mask::from_bits(0b1011_0110);
        let (mut acc_i, mut acc_f) = (Vec::new(), Vec::new());
        for (j, fop) in sb.ops.iter().enumerate() {
            let instr = &prog.instructions()[j];
            let ti = execute_warp(instr, &mut rf_i, &wi, &params, active, &mut acc_i);
            let tf = execute_fused(fop, &mut rf_f, &wi, &params, active, &mut acc_f);
            assert_eq!(ti, tf, "taken mask of op {j}");
            assert_eq!(acc_i, acc_f, "access list of op {j}");
            assert_eq!(rf_i, rf_f, "register state after op {j}");
        }
    }

    /// Params and warp-uniform specials resolve identically to the
    /// interpreter's splats.
    #[test]
    fn splats_match_interpreter() {
        let width = 4;
        let (prog, set) = build(|k| {
            k.mov(r(0), warpweave_isa::Operand::Param(1));
            k.iadd(r(1), r(0), warpweave_isa::SpecialReg::CtaId);
            k.imul(r(2), r(1), warpweave_isa::Operand::Param(7)); // missing → 0
        });
        let sb = &set.superblocks()[0];
        let wi = info(width);
        let params = vec![11, 22];
        let mut rf_i = WarpRegFile::new(width);
        let mut rf_f = WarpRegFile::new(width);
        let active = Mask::full(width);
        let (mut acc_i, mut acc_f) = (Vec::new(), Vec::new());
        for (j, fop) in sb.ops.iter().enumerate() {
            execute_warp(
                &prog.instructions()[j],
                &mut rf_i,
                &wi,
                &params,
                active,
                &mut acc_i,
            );
            execute_fused(fop, &mut rf_f, &wi, &params, active, &mut acc_f);
        }
        assert_eq!(rf_i, rf_f);
        assert_eq!(rf_f.reg(0, 0), 22);
        assert_eq!(rf_f.reg(0, 2), 0);
    }

    /// A guarded fused op executes only the guard-passing lanes.
    #[test]
    fn guard_folds_into_exec_mask() {
        let width = 4;
        let (prog, set) = build(|k| {
            k.guard_t(p(0)).mov(r(0), 7i32);
            k.mov(r(1), 1i32);
        });
        let sb = &set.superblocks()[0];
        let wi = info(width);
        let mut rf_i = WarpRegFile::new(width);
        let mut rf_f = WarpRegFile::new(width);
        rf_i.set_pred_bits(0, 0b0101);
        rf_f.set_pred_bits(0, 0b0101);
        let active = Mask::full(width);
        let (mut acc_i, mut acc_f) = (Vec::new(), Vec::new());
        for (j, fop) in sb.ops.iter().enumerate() {
            execute_warp(
                &prog.instructions()[j],
                &mut rf_i,
                &wi,
                &[],
                active,
                &mut acc_i,
            );
            execute_fused(fop, &mut rf_f, &wi, &[], active, &mut acc_f);
        }
        assert_eq!(rf_i, rf_f);
        assert_eq!(rf_f.reg(0, 0), 7);
        assert_eq!(rf_f.reg(1, 0), 0); // guard failed on lane 1
    }
}
