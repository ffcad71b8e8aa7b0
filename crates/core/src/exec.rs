//! Functional (architectural) execution of single instructions.
//!
//! The pipeline executes instructions functionally at issue time and models
//! timing separately. Two implementations of the same architectural
//! semantics live here:
//!
//! * [`execute_rows`] — the **hot path**: matches the opcode once per warp,
//!   hoists operand resolution (immediates, params, warp-uniform specials)
//!   out of the lane loop, evaluates guards as one mask AND/ANDN against
//!   the [`WarpRegFile`] predicate bitmasks,
//!   and runs tight per-op lane loops over contiguous register rows. A
//!   memory instruction's accesses come back as lane rows in the caller's
//!   [`LaneScratch`] ([`MemRows`]); [`execute_warp`] is the same call with
//!   the rows listed as `(thread, address, data)` triples.
//! * [`execute_thread`] (with [`ThreadRegs`], [`operand_value`],
//!   [`guard_passes`]) — the **scalar reference path**, retained only so
//!   the differential test suite can check `execute_warp` lane-by-lane
//!   against an independent, obviously-sequential implementation.

use warpweave_isa::{Instruction, Op, Operand, SpecialReg, NUM_PREDS, NUM_REGS};
use warpweave_mem::LaneRow;

use crate::launch::WarpInfo;
use crate::mask::Mask;
use crate::regfile::WarpRegFile;

/// Architectural state of one thread: general registers and predicates.
#[derive(Debug, Clone)]
pub struct ThreadRegs {
    regs: Vec<u32>,
    preds: [bool; NUM_PREDS],
}

impl Default for ThreadRegs {
    fn default() -> Self {
        ThreadRegs {
            regs: vec![0; NUM_REGS],
            preds: [false; NUM_PREDS],
        }
    }
}

impl ThreadRegs {
    /// Zero-initialised registers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads register `i`.
    pub fn reg(&self, i: usize) -> u32 {
        self.regs[i]
    }

    /// Writes register `i`.
    pub fn set_reg(&mut self, i: usize, v: u32) {
        self.regs[i] = v;
    }

    /// Reads predicate `i`.
    pub fn pred(&self, i: usize) -> bool {
        self.preds[i]
    }

    /// Writes predicate `i`.
    pub fn set_pred(&mut self, i: usize, v: bool) {
        self.preds[i] = v;
    }
}

/// A thread's launch coordinates, feeding the special registers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadInfo {
    /// Thread index within its block.
    pub tid: u32,
    /// Block index within the grid.
    pub ctaid: u32,
    /// Threads per block.
    pub ntid: u32,
    /// Blocks in the grid.
    pub nctaid: u32,
    /// Physical lane (after lane shuffling).
    pub lane: u32,
    /// Warp identifier.
    pub warp: u32,
}

impl ThreadInfo {
    /// The value of a special register for this thread.
    pub fn special(&self, s: SpecialReg) -> u32 {
        match s {
            SpecialReg::Tid => self.tid,
            SpecialReg::CtaId => self.ctaid,
            SpecialReg::NTid => self.ntid,
            SpecialReg::NCtaId => self.nctaid,
            SpecialReg::LaneId => self.lane,
            SpecialReg::WarpId => self.warp,
        }
    }
}

/// Resolves an operand to its 32-bit value for one thread.
///
/// Scalar reference path — the pipeline resolves operands warp-wide inside
/// [`execute_warp`]; this survives only for the differential tests.
#[doc(hidden)]
pub fn operand_value(op: Operand, regs: &ThreadRegs, info: &ThreadInfo, params: &[u32]) -> u32 {
    match op {
        Operand::Reg(r) => regs.reg(r.index()),
        Operand::Imm(v) => v,
        Operand::Special(s) => info.special(s),
        Operand::Param(i) => params.get(i as usize).copied().unwrap_or(0),
    }
}

/// The architectural outcome of one thread executing one instruction
/// (memory operations report their address; the LSU applies the access).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadOutcome {
    /// Register write to commit.
    pub reg_write: Option<(usize, u32)>,
    /// Predicate write to commit.
    pub pred_write: Option<(usize, bool)>,
    /// For `Bra`: whether this thread takes the branch.
    pub branch_taken: bool,
    /// For memory ops: the effective byte address.
    pub mem_addr: Option<u32>,
    /// For stores/atomics: the data value.
    pub mem_data: Option<u32>,
}

/// Evaluates whether the guard passes for one thread.
///
/// Scalar reference path — the pipeline evaluates guards as a single mask
/// operation ([`WarpRegFile::guard_mask`]); this survives only for the
/// differential tests.
#[doc(hidden)]
pub fn guard_passes(instr: &Instruction, regs: &ThreadRegs) -> bool {
    match instr.guard {
        None => true,
        Some(g) => regs.pred(g.pred.index()) == g.sense,
    }
}

/// Executes `instr` for one thread, returning the outcome. Does **not**
/// commit anything: the caller applies register writes (so that all threads
/// of a warp read pre-instruction state) and routes memory effects through
/// the LSU.
///
/// The guard must already have been checked with [`guard_passes`]; a failed
/// guard means the instruction has no architectural effect for the thread
/// (except that an unguarded-path `Bra` thread simply falls through).
///
/// Scalar reference path — the pipeline executes whole warps through
/// [`execute_warp`]; this survives only for the differential tests that
/// prove the two implementations bit-identical.
pub fn execute_thread(
    instr: &Instruction,
    regs: &ThreadRegs,
    info: &ThreadInfo,
    params: &[u32],
) -> ThreadOutcome {
    let mut out = ThreadOutcome::default();
    let v = |i: usize| {
        operand_value(
            instr.srcs[i].expect("validated operand"),
            regs,
            info,
            params,
        )
    };
    let f = |i: usize| f32::from_bits(v(i));
    let dst = instr.dst.map(|r| r.index());
    let wr = |val: u32| Some((dst.expect("validated dst"), val));
    let wf = |val: f32| Some((dst.expect("validated dst"), val.to_bits()));

    match instr.op {
        Op::Mov => out.reg_write = wr(v(0)),
        Op::IAdd => out.reg_write = wr((v(0) as i32).wrapping_add(v(1) as i32) as u32),
        Op::ISub => out.reg_write = wr((v(0) as i32).wrapping_sub(v(1) as i32) as u32),
        Op::IMul => out.reg_write = wr((v(0) as i32).wrapping_mul(v(1) as i32) as u32),
        Op::IMad => {
            let r = (v(0) as i32)
                .wrapping_mul(v(1) as i32)
                .wrapping_add(v(2) as i32);
            out.reg_write = wr(r as u32);
        }
        Op::IMin => out.reg_write = wr((v(0) as i32).min(v(1) as i32) as u32),
        Op::IMax => out.reg_write = wr((v(0) as i32).max(v(1) as i32) as u32),
        Op::And => out.reg_write = wr(v(0) & v(1)),
        Op::Or => out.reg_write = wr(v(0) | v(1)),
        Op::Xor => out.reg_write = wr(v(0) ^ v(1)),
        Op::Not => out.reg_write = wr(!v(0)),
        Op::Shl => out.reg_write = wr(v(0) << (v(1) & 31)),
        Op::Shr => out.reg_write = wr(v(0) >> (v(1) & 31)),
        Op::Sra => out.reg_write = wr(((v(0) as i32) >> (v(1) & 31)) as u32),
        Op::FAdd => out.reg_write = wf(f(0) + f(1)),
        Op::FSub => out.reg_write = wf(f(0) - f(1)),
        Op::FMul => out.reg_write = wf(f(0) * f(1)),
        Op::FFma => out.reg_write = wf(f(0).mul_add(f(1), f(2))),
        Op::FMin => out.reg_write = wf(f(0).min(f(1))),
        Op::FMax => out.reg_write = wf(f(0).max(f(1))),
        Op::I2F => out.reg_write = wf(v(0) as i32 as f32),
        Op::F2I => out.reg_write = wr(f(0) as i32 as u32),
        Op::ISetP => {
            let c = instr.cmp.expect("validated cmp");
            out.pred_write = Some((
                instr.pdst.expect("validated pdst").index(),
                c.eval_i32(v(0) as i32, v(1) as i32),
            ));
        }
        Op::FSetP => {
            let c = instr.cmp.expect("validated cmp");
            out.pred_write = Some((
                instr.pdst.expect("validated pdst").index(),
                c.eval_f32(f(0), f(1)),
            ));
        }
        Op::Sel => {
            let p = instr.sel_pred.expect("validated sel_pred");
            let val = if regs.pred(p.index()) { v(0) } else { v(1) };
            out.reg_write = wr(val);
        }
        Op::Rcp => out.reg_write = wf(1.0 / f(0)),
        Op::Sqrt => out.reg_write = wf(f(0).sqrt()),
        Op::Rsqrt => out.reg_write = wf(1.0 / f(0).sqrt()),
        Op::Sin => out.reg_write = wf(f(0).sin()),
        Op::Cos => out.reg_write = wf(f(0).cos()),
        Op::Ex2 => out.reg_write = wf(f(0).exp2()),
        Op::Lg2 => out.reg_write = wf(f(0).log2()),
        Op::Ld => {
            out.mem_addr = Some(v(0).wrapping_add(instr.offset as u32));
        }
        Op::St | Op::AtomAdd => {
            out.mem_addr = Some(v(0).wrapping_add(instr.offset as u32));
            out.mem_data = Some(v(1));
        }
        Op::Bra => out.branch_taken = true, // caller gates on guard
        Op::Sync | Op::Bar | Op::Exit | Op::Nop => {}
    }
    out
}

// --- warp-level execute path ------------------------------------------------

/// The lane rows one issue event works in, sized for the widest warp and
/// held by the caller (one per SM) so that an instruction neither
/// allocates nor zero-fills them: the three resolved operand rows, and the
/// address row of the last memory instruction.
#[derive(Debug)]
pub struct LaneScratch {
    /// One resolved 32-bit value per lane for each present source; only
    /// `..width` of a row is ever written or read.
    ops: [LaneRow; 3],
    /// The threads that executed the last instruction if it was a memory
    /// instruction, empty otherwise.
    mem_mask: Mask,
    addr: LaneRow,
}

impl Default for LaneScratch {
    fn default() -> Self {
        LaneScratch {
            ops: [[0; 64]; 3],
            mem_mask: Mask::EMPTY,
            addr: [0; 64],
        }
    }
}

/// The accesses of one executed memory instruction: thread `t` accesses
/// iff `mask` holds `t`, at `addr[t]`, storing or adding `data[t]` (the
/// second operand row — meaningless for a load). Entries of threads
/// outside `mask` are stale. Walking `mask` from bit 0 is the
/// ascending-thread order every consumer's tie rules are defined over.
#[derive(Debug, Clone, Copy)]
pub struct MemRows<'a> {
    /// The executing threads.
    pub mask: Mask,
    /// Effective address per thread.
    pub addr: &'a LaneRow,
    /// Store / atomic operand per thread.
    pub data: &'a LaneRow,
}

impl LaneScratch {
    /// The accesses [`execute_rows`] last left here (an empty mask after
    /// anything but a memory instruction).
    pub fn mem_rows(&self) -> MemRows<'_> {
        MemRows {
            mask: self.mem_mask,
            addr: &self.addr,
            data: &self.ops[1],
        }
    }
}

/// Resolves one operand for every lane of the warp into `buf[..width]`:
/// register operands copy a contiguous [`WarpRegFile`] row, immediates and
/// params splat one value, and of the specials only `tid` (affine:
/// `base_tid + t`) and `laneid` (the shuffle row) need per-lane values.
#[inline]
fn resolve_operand(
    op: Operand,
    rf: &WarpRegFile,
    info: &WarpInfo,
    params: &[u32],
    buf: &mut LaneRow,
) {
    let width = rf.width();
    match op {
        Operand::Reg(r) => buf[..width].copy_from_slice(rf.row(r.index())),
        Operand::Imm(v) => buf[..width].fill(v),
        Operand::Param(i) => buf[..width].fill(params.get(i as usize).copied().unwrap_or(0)),
        Operand::Special(s) => match info.splat(s) {
            Some(v) => buf[..width].fill(v),
            None if s == SpecialReg::Tid => {
                for (t, b) in buf[..width].iter_mut().enumerate() {
                    *b = info.base_tid + t as u32;
                }
            }
            None => buf[..width].copy_from_slice(info.lanes()),
        },
    }
}

/// Writes `f(a[t])` into register row `d` for every executing lane. The
/// sources were snapshotted into scratch rows, so the destination row may
/// alias a source register without hazard, and the full-mask fast path is
/// a straight slice loop the compiler can autovectorise.
#[inline]
fn apply1(
    rf: &mut WarpRegFile,
    d: usize,
    a: &LaneRow,
    exec: Mask,
    full: bool,
    f: impl Fn(u32) -> u32,
) {
    let row = rf.row_mut(d);
    if full {
        for (o, &x) in row.iter_mut().zip(a.iter()) {
            *o = f(x);
        }
    } else {
        for t in exec.iter() {
            row[t] = f(a[t]);
        }
    }
}

/// Two-source variant of [`apply1`].
#[inline]
fn apply2(
    rf: &mut WarpRegFile,
    d: usize,
    a: &LaneRow,
    b: &LaneRow,
    exec: Mask,
    full: bool,
    f: impl Fn(u32, u32) -> u32,
) {
    let row = rf.row_mut(d);
    if full {
        for ((o, &x), &y) in row.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = f(x, y);
        }
    } else {
        for t in exec.iter() {
            row[t] = f(a[t], b[t]);
        }
    }
}

/// Three-source variant of [`apply1`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn apply3(
    rf: &mut WarpRegFile,
    d: usize,
    a: &LaneRow,
    b: &LaneRow,
    c: &LaneRow,
    exec: Mask,
    full: bool,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let row = rf.row_mut(d);
    if full {
        for (((o, &x), &y), &z) in row.iter_mut().zip(a.iter()).zip(b.iter()).zip(c.iter()) {
            *o = f(x, y, z);
        }
    } else {
        for t in exec.iter() {
            row[t] = f(a[t], b[t], c[t]);
        }
    }
}

/// Merges a freshly computed predicate bitmask into predicate `p`:
/// executing lanes take `res`, all others keep their old bit.
#[inline]
fn commit_pred(rf: &mut WarpRegFile, p: usize, exec: Mask, res: u64) {
    debug_assert_eq!(res & !exec.bits(), 0);
    let bits = (rf.pred_bits(p) & !exec.bits()) | res;
    rf.set_pred_bits(p, bits);
}

/// Bit-casting adapters for the f32 op families.
#[inline]
fn f1(f: impl Fn(f32) -> f32) -> impl Fn(u32) -> u32 {
    move |x| f(f32::from_bits(x)).to_bits()
}
#[inline]
fn f2(f: impl Fn(f32, f32) -> f32) -> impl Fn(u32, u32) -> u32 {
    move |x, y| f(f32::from_bits(x), f32::from_bits(y)).to_bits()
}
#[inline]
fn f3(f: impl Fn(f32, f32, f32) -> f32) -> impl Fn(u32, u32, u32) -> u32 {
    move |x, y, z| f(f32::from_bits(x), f32::from_bits(y), f32::from_bits(z)).to_bits()
}

/// Executes `instr` for every thread of a warp in one pass over the SoA
/// register file, committing register/predicate writes in place.
///
/// `active` is the issue mask already restricted to populated threads; the
/// guard is folded in here as a single bitmask operation. Memory
/// operations do **not** touch memory: they leave their accesses in
/// `scratch` ([`LaneScratch::mem_rows`]) — the executing mask, the address
/// row `(base[t] + offset) & addr_align` computed over the whole row, and
/// the data operand row — and the caller (the LSU/pipeline, which passes
/// `!3`: it moves aligned words) applies the effects. Returns the taken
/// mask: the executing lanes for `Bra`, empty otherwise.
///
/// Architecturally equivalent to running [`guard_passes`] +
/// [`execute_thread`] per lane and committing each outcome — the property
/// the `exec_differential` proptest suite pins down bit-for-bit.
pub fn execute_rows(
    instr: &Instruction,
    rf: &mut WarpRegFile,
    info: &WarpInfo,
    params: &[u32],
    active: Mask,
    addr_align: u32,
    scratch: &mut LaneScratch,
) -> Mask {
    scratch.mem_mask = Mask::EMPTY;
    let width = rf.width();
    // Guard evaluation: one AND (`@p`) or ANDN (`@!p`) against the
    // predicate bitmask, instead of `width` boolean loads.
    let exec = active & rf.guard_mask(instr.guard);
    if exec.is_empty() {
        return Mask::EMPTY;
    }
    let full = exec == Mask::full(width);

    // Operand resolution, hoisted out of the lane loop: every present
    // source becomes one contiguous scratch row (register rows are
    // snapshots, so a destination aliasing a source is hazard-free and all
    // lanes read pre-instruction state). Rows of absent sources keep
    // whatever an earlier instruction left; no arm reads them.
    for (s, buf) in instr.srcs.iter().zip(scratch.ops.iter_mut()) {
        if let Some(op) = s {
            resolve_operand(*op, rf, info, params, buf);
        }
    }
    let [a, b, c] = &scratch.ops;
    let d = || instr.dst.expect("validated dst").index();

    match instr.op {
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
            let cmp = instr.cmp.expect("validated cmp");
            let mut res = 0u64;
            for t in exec.iter() {
                if cmp.eval_i32(a[t] as i32, b[t] as i32) {
                    res |= 1 << t;
                }
            }
            commit_pred(rf, instr.pdst.expect("validated pdst").index(), exec, res);
        }
        Op::FSetP => {
            let cmp = instr.cmp.expect("validated cmp");
            let mut res = 0u64;
            for t in exec.iter() {
                if cmp.eval_f32(f32::from_bits(a[t]), f32::from_bits(b[t])) {
                    res |= 1 << t;
                }
            }
            commit_pred(rf, instr.pdst.expect("validated pdst").index(), exec, res);
        }
        Op::Sel => {
            // `Sel` reads its predicate per lane, which the value-only
            // apply helpers hide; write the row directly.
            let pm = rf.pred_bits(instr.sel_pred.expect("validated sel_pred").index());
            let row = rf.row_mut(d());
            if full {
                for (t, o) in row.iter_mut().enumerate() {
                    *o = if (pm >> t) & 1 == 1 { a[t] } else { b[t] };
                }
            } else {
                for t in exec.iter() {
                    row[t] = if (pm >> t) & 1 == 1 { a[t] } else { b[t] };
                }
            }
        }
        Op::Rcp => apply1(rf, d(), a, exec, full, f1(|x| 1.0 / x)),
        Op::Sqrt => apply1(rf, d(), a, exec, full, f1(f32::sqrt)),
        Op::Rsqrt => apply1(rf, d(), a, exec, full, f1(|x| 1.0 / x.sqrt())),
        Op::Sin => apply1(rf, d(), a, exec, full, f1(f32::sin)),
        Op::Cos => apply1(rf, d(), a, exec, full, f1(f32::cos)),
        Op::Ex2 => apply1(rf, d(), a, exec, full, f1(f32::exp2)),
        Op::Lg2 => apply1(rf, d(), a, exec, full, f1(f32::log2)),
        Op::Ld | Op::St | Op::AtomAdd => {
            // The whole row, not the executing lanes: straight-line
            // arithmetic the compiler vectorises. The data row is `b` as
            // resolved above.
            let off = instr.offset as u32;
            for (o, &base) in scratch.addr[..width].iter_mut().zip(&a[..width]) {
                *o = base.wrapping_add(off) & addr_align;
            }
            scratch.mem_mask = exec;
        }
        Op::Bra => return exec, // caller gates on guard
        Op::Sync | Op::Bar | Op::Exit | Op::Nop => {}
    }
    Mask::EMPTY
}

/// [`execute_rows`] with the accesses of a memory instruction listed as
/// `(thread, effective byte address, store data)` triples in ascending
/// thread order (data 0 for loads) — the form the differential suites
/// compare with the scalar reference. `accesses` is cleared first. Off
/// the issue path: the pipeline reads the rows.
pub fn execute_warp(
    instr: &Instruction,
    rf: &mut WarpRegFile,
    info: &WarpInfo,
    params: &[u32],
    active: Mask,
    accesses: &mut Vec<(usize, u32, u32)>,
) -> Mask {
    // Fresh, so a load's absent data operand lists as zeros.
    let mut scratch = LaneScratch::default();
    let taken = execute_rows(instr, rf, info, params, active, !0, &mut scratch);
    let rows = scratch.mem_rows();
    accesses.clear();
    accesses.extend(rows.mask.iter().map(|t| (t, rows.addr[t], rows.data[t])));
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_isa::{p, r, CmpOp, Guard, KernelBuilder};

    fn setup() -> (ThreadRegs, ThreadInfo) {
        let mut regs = ThreadRegs::new();
        regs.set_reg(1, 6);
        regs.set_reg(2, 7);
        regs.set_reg(3, (-3i32) as u32);
        (regs, ThreadInfo::default())
    }

    fn run_one(build: impl FnOnce(&mut KernelBuilder)) -> ThreadOutcome {
        let mut k = KernelBuilder::new("t");
        build(&mut k);
        k.exit();
        let prog = k.build().unwrap();
        let (regs, info) = setup();
        execute_thread(&prog.instructions()[0], &regs, &info, &[])
    }

    #[test]
    fn integer_alu() {
        assert_eq!(
            run_one(|k| {
                k.imad(r(0), r(1), r(2), 1i32);
            })
            .reg_write,
            Some((0, 43))
        );
        assert_eq!(
            run_one(|k| {
                k.imin(r(0), r(1), r(3));
            })
            .reg_write,
            Some((0, (-3i32) as u32))
        );
        assert_eq!(
            run_one(|k| {
                k.sra(r(0), r(3), 1i32);
            })
            .reg_write,
            Some((0, (-2i32) as u32))
        );
        assert_eq!(
            run_one(|k| {
                k.shr(r(0), r(3), 1i32);
            })
            .reg_write,
            Some((0, 0x7fff_fffe))
        );
    }

    #[test]
    fn float_ops_bitcast() {
        let out = run_one(|k| {
            k.ffma(r(0), 2.0f32, 3.0f32, 1.0f32);
        });
        let (_, bits) = out.reg_write.unwrap();
        assert_eq!(f32::from_bits(bits), 7.0);
    }

    #[test]
    fn sfu_ops() {
        let out = run_one(|k| {
            k.rsqrt(r(0), 4.0f32);
        });
        assert_eq!(f32::from_bits(out.reg_write.unwrap().1), 0.5);
        let out = run_one(|k| {
            k.ex2(r(0), 3.0f32);
        });
        assert_eq!(f32::from_bits(out.reg_write.unwrap().1), 8.0);
    }

    #[test]
    fn setp_and_sel() {
        let out = run_one(|k| {
            k.isetp(p(0), CmpOp::Lt, r(1), r(2));
        });
        assert_eq!(out.pred_write, Some((0, true)));

        // Sel reads p0 (false by default) → second source.
        let out = run_one(|k| {
            k.sel(r(0), p(0), 11i32, 22i32);
        });
        assert_eq!(out.reg_write, Some((0, 22)));
    }

    #[test]
    fn memory_addresses() {
        let out = run_one(|k| {
            k.ld(r(0), r(1), 8);
        });
        assert_eq!(out.mem_addr, Some(14));
        let out = run_one(|k| {
            k.st(r(1), -4, r(2));
        });
        assert_eq!(out.mem_addr, Some(2));
        assert_eq!(out.mem_data, Some(7));
    }

    #[test]
    fn guard_evaluation() {
        let mut i = warpweave_isa::Instruction::new(Op::Nop);
        let (mut regs, _) = setup();
        assert!(guard_passes(&i, &regs));
        i.guard = Some(Guard::if_true(p(1)));
        assert!(!guard_passes(&i, &regs));
        regs.set_pred(1, true);
        assert!(guard_passes(&i, &regs));
        i.guard = Some(Guard::if_false(p(1)));
        assert!(!guard_passes(&i, &regs));
    }

    #[test]
    fn special_registers() {
        let info = ThreadInfo {
            tid: 3,
            ctaid: 5,
            ntid: 256,
            nctaid: 12,
            lane: 9,
            warp: 2,
        };
        assert_eq!(info.special(SpecialReg::Tid), 3);
        assert_eq!(info.special(SpecialReg::NTid), 256);
        assert_eq!(info.special(SpecialReg::LaneId), 9);
    }

    #[test]
    fn params_resolve() {
        let regs = ThreadRegs::new();
        let info = ThreadInfo::default();
        assert_eq!(
            operand_value(Operand::Param(1), &regs, &info, &[10, 20]),
            20
        );
        assert_eq!(operand_value(Operand::Param(9), &regs, &info, &[10]), 0);
    }
}
