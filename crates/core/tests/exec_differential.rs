//! Differential fuzzing of the warp-level SoA execute path.
//!
//! `execute_warp` replaced the per-thread loop on the simulator's hottest
//! path; the scalar implementation (`guard_passes` + `execute_thread` over
//! `ThreadRegs`) is retained purely as the reference. These properties pin
//! the implementations **bit-identical**: random instruction sequences
//! over random initial register state must produce the same architectural
//! state (registers, predicates), the same taken masks and the same access
//! lists — at warp widths 4, 32 and 64, under partial `populated` masks,
//! random guards and every operand kind.

use proptest::prelude::*;
use warpweave_core::exec::{
    execute_rows, execute_thread, execute_warp, guard_passes, LaneScratch, ThreadRegs,
};
use warpweave_core::{LaneShuffle, Mask, WarpInfo, WarpRegFile};
use warpweave_isa::fuzz::splitmix64;
use warpweave_isa::{
    p, r, CmpOp, Guard, Instruction, Op, Operand, Pc, SpecialReg, NUM_PREDS, NUM_REGS,
};

/// Launch parameters both paths resolve `Operand::Param` against.
const PARAMS: [u32; 4] = [0x40, 7, 123, 0xdead_beef];

/// Registers the generator draws from — a small set so RAW/WAW chains and
/// destination-aliases-source cases occur often.
const GEN_REGS: u64 = 8;

const OPS: [Op; 35] = [
    Op::Mov,
    Op::IAdd,
    Op::ISub,
    Op::IMul,
    Op::IMad,
    Op::IMin,
    Op::IMax,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::Shl,
    Op::Shr,
    Op::Sra,
    Op::FAdd,
    Op::FSub,
    Op::FMul,
    Op::FFma,
    Op::FMin,
    Op::FMax,
    Op::I2F,
    Op::F2I,
    Op::ISetP,
    Op::FSetP,
    Op::Sel,
    Op::Rcp,
    Op::Sqrt,
    Op::Rsqrt,
    Op::Sin,
    Op::Cos,
    Op::Ex2,
    Op::Lg2,
    Op::Ld,
    Op::St,
    Op::AtomAdd,
];

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

const SPECIALS: [SpecialReg; 6] = [
    SpecialReg::Tid,
    SpecialReg::CtaId,
    SpecialReg::NTid,
    SpecialReg::NCtaId,
    SpecialReg::LaneId,
    SpecialReg::WarpId,
];

/// Decodes one source operand from 10 bits of entropy plus a 32-bit
/// immediate pool.
fn decode_operand(bits: u64, imm: u32) -> Operand {
    match bits & 3 {
        0 => Operand::Reg(r(((bits >> 2) % GEN_REGS) as u8)),
        1 => Operand::Imm(imm),
        2 => Operand::Special(SPECIALS[((bits >> 2) % 6) as usize]),
        _ => Operand::Param(((bits >> 2) % 6) as u8), // may be out of range
    }
}

/// Builds a random-but-valid instruction from two entropy words. Includes
/// a branch (taken-mask coverage), the full control set (`Bar`, `Exit`,
/// `Sync`, `Nop` — all architectural no-ops on both paths) and an extra
/// memory-op band so `AtomAdd`/`Ld`/`St` are sampled well above their
/// uniform share.
fn decode_instruction(a: u64, b: u64) -> Instruction {
    // Weight Bra in explicitly so taken masks are exercised; a dedicated
    // memory band boosts atomics; control ops ride along at low weight.
    let sel = (a & 0xff) as usize;
    let op = match sel {
        0..=199 => OPS[sel % OPS.len()],
        200..=223 => [Op::Ld, Op::St, Op::AtomAdd][sel % 3],
        224..=239 => Op::Bra,
        240..=245 => Op::Nop,
        246..=249 => Op::Bar,
        250..=252 => Op::Exit,
        _ => Op::Sync,
    };
    let mut i = Instruction::new(op);
    // Guards are structurally invalid on Exit/Bar/Sync.
    if !matches!(op, Op::Exit | Op::Bar | Op::Sync) {
        i.guard = match (a >> 8) & 3 {
            0 => None,
            1 => Some(Guard::if_true(p(((a >> 10) % NUM_PREDS as u64) as u8))),
            _ => Some(Guard::if_false(p(((a >> 10) % NUM_PREDS as u64) as u8))),
        };
    }
    let nsrc = match op {
        Op::Mov
        | Op::Not
        | Op::I2F
        | Op::F2I
        | Op::Rcp
        | Op::Sqrt
        | Op::Rsqrt
        | Op::Sin
        | Op::Cos
        | Op::Ex2
        | Op::Lg2
        | Op::Ld => 1,
        Op::IMad | Op::FFma => 3,
        Op::Bra | Op::Sync | Op::Bar | Op::Exit | Op::Nop => 0,
        _ => 2,
    };
    for s in 0..nsrc {
        let imm = (a.rotate_left(17 + 13 * s as u32) ^ b) as u32;
        i.srcs[s] = Some(decode_operand(b >> (10 * s), imm));
    }
    let needs_dst = !matches!(
        op,
        Op::ISetP
            | Op::FSetP
            | Op::St
            | Op::AtomAdd
            | Op::Bra
            | Op::Sync
            | Op::Bar
            | Op::Exit
            | Op::Nop
    );
    if needs_dst {
        i.dst = Some(r(((a >> 13) % GEN_REGS) as u8));
    }
    // AtomAdd optionally captures the old value (dst is optional on it).
    if op == Op::AtomAdd && (a >> 26) & 1 == 1 {
        i.dst = Some(r(((a >> 13) % GEN_REGS) as u8));
    }
    if matches!(op, Op::ISetP | Op::FSetP) {
        i.pdst = Some(p(((a >> 16) % NUM_PREDS as u64) as u8));
        i.cmp = Some(CMPS[((a >> 19) % 6) as usize]);
    }
    if op == Op::Sel {
        i.sel_pred = Some(p(((a >> 22) % NUM_PREDS as u64) as u8));
    }
    if op == Op::Bra {
        i.target = Some(Pc(0));
    }
    if op == Op::Sync {
        i.sync_pcdiv = Some(Pc(0));
    }
    if matches!(op, Op::Ld | Op::St | Op::AtomAdd) {
        i.offset = ((b >> 40) & 0xff) as i32 - 128;
    }
    i.validate()
        .expect("generator must build valid instructions");
    i
}

/// The scalar reference: the exact per-thread loop the pipeline ran before
/// the SoA refactor — guard check, execute, commit, in ascending thread
/// order, skipping unpopulated threads.
fn scalar_step(
    instr: &Instruction,
    regs: &mut [ThreadRegs],
    info: &WarpInfo,
    mask: Mask,
    populated: Mask,
) -> (Mask, Vec<(usize, u32, u32)>) {
    let mut taken = Mask::EMPTY;
    let mut accesses = Vec::new();
    for t in mask.iter() {
        if !populated.get(t) {
            continue;
        }
        if !guard_passes(instr, &regs[t]) {
            continue;
        }
        let ti = info.thread_info(t);
        let out = execute_thread(instr, &regs[t], &ti, &PARAMS);
        if out.branch_taken {
            taken = taken.with(t);
        }
        if let Some(addr) = out.mem_addr {
            accesses.push((t, addr, out.mem_data.unwrap_or(0)));
        }
        if let Some((ri, v)) = out.reg_write {
            regs[t].set_reg(ri, v);
        }
        if let Some((pi, v)) = out.pred_write {
            regs[t].set_pred(pi, v);
        }
    }
    (taken, accesses)
}

/// Asserts every architectural bit matches between the two layouts.
#[allow(clippy::needless_range_loop)] // (t, reg) indexing mirrors the layout
fn assert_state_eq(rf: &WarpRegFile, regs: &[ThreadRegs], width: usize, ctx: &str) {
    for t in 0..width {
        for ri in 0..NUM_REGS {
            assert_eq!(
                rf.reg(t, ri),
                regs[t].reg(ri),
                "{ctx}: r{ri} of lane {t} diverged"
            );
        }
        for pi in 0..NUM_PREDS {
            assert_eq!(
                rf.pred(t, pi),
                regs[t].pred(pi),
                "{ctx}: p{pi} of lane {t} diverged"
            );
        }
    }
}

/// Runs one random instruction sequence at `width` through the SoA path —
/// listed (`execute_warp`) and in the pipeline's row form
/// (`execute_rows`) — and the scalar reference, asserting bit-identity
/// after every instruction.
#[allow(clippy::needless_range_loop)] // (t, reg) indexing mirrors the layout
fn run_differential(width: usize, seq: &[(u64, u64)], state_seed: u64, mask_bits: u64) {
    let full = Mask::full(width);
    let populated = Mask::from_bits(mask_bits) & full;
    let shuffle = LaneShuffle::ALL[(state_seed % 5) as usize];

    let mut info = WarpInfo::new(width);
    info.seed(
        ((state_seed >> 3) % 64) as u32 * width as u32,
        (state_seed >> 9) as u32 & 0xff,
        256,
        16,
        (state_seed >> 17) as u32 % 16,
        shuffle,
        width,
        16,
    );

    let instrs: Vec<Instruction> = seq.iter().map(|&(a, b)| decode_instruction(a, b)).collect();

    // Identical random initial state in both layouts.
    let mut rf = WarpRegFile::new(width);
    let mut regs: Vec<ThreadRegs> = (0..width).map(|_| ThreadRegs::new()).collect();
    let mut s = state_seed;
    for t in 0..width {
        for ri in 0..NUM_REGS {
            let v = splitmix64(&mut s) as u32;
            rf.set_reg(t, ri, v);
            regs[t].set_reg(ri, v);
        }
        for pi in 0..NUM_PREDS {
            let v = splitmix64(&mut s) & 1 == 1;
            rf.set_pred(t, pi, v);
            regs[t].set_pred(pi, v);
        }
    }
    // The pipeline's form of the SoA path: one scratch kept across the
    // whole sequence (rows carry whatever earlier instructions left),
    // word-aligned addresses, the rows read directly.
    let mut rf_rows = rf.clone();
    let mut scratch = LaneScratch::default();

    let mut soa_accesses: Vec<(usize, u32, u32)> = Vec::new();
    let mut mask_entropy = state_seed ^ 0x5eed;
    for (n, instr) in instrs.iter().enumerate() {
        // A fresh (possibly partial) issue mask per instruction.
        let mask = Mask::from_bits(splitmix64(&mut mask_entropy)) & full;
        let active = mask & populated;

        let soa_taken = execute_warp(instr, &mut rf, &info, &PARAMS, active, &mut soa_accesses);
        let (ref_taken, ref_accesses) = scalar_step(instr, &mut regs, &info, mask, populated);

        let ctx = format!("instr #{n} ({}) width {width}", instr.op);
        assert_eq!(soa_taken, ref_taken, "{ctx}: taken mask diverged");
        assert_eq!(soa_accesses, ref_accesses, "{ctx}: access list diverged");
        assert_state_eq(&rf, &regs, width, &ctx);

        let rows_taken = execute_rows(
            instr,
            &mut rf_rows,
            &info,
            &PARAMS,
            active,
            !3,
            &mut scratch,
        );
        assert_eq!(rows_taken, ref_taken, "{ctx}: rows taken mask diverged");
        let rows = scratch.mem_rows();
        let ref_mask: Mask = ref_accesses.iter().map(|&(t, ..)| t).collect();
        assert_eq!(rows.mask, ref_mask, "{ctx}: access mask diverged");
        for &(t, addr, data) in &ref_accesses {
            assert_eq!(rows.addr[t], addr & !3, "{ctx}: address row, lane {t}");
            if instr.op != Op::Ld {
                assert_eq!(rows.data[t], data, "{ctx}: data row, lane {t}");
            }
        }
        assert_state_eq(&rf_rows, &regs, width, &format!("{ctx} (rows)"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random instruction sequences at the three paper warp widths, with
    /// random populated masks, must keep the SoA path (listed and as rows)
    /// and the scalar reference bit-identical after every instruction.
    #[test]
    fn soa_matches_scalar_reference(
        seq in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..32),
        state_seed in any::<u64>(),
        mask_bits in any::<u64>(),
    ) {
        for width in [4usize, 32, 64] {
            run_differential(width, &seq, state_seed, mask_bits);
        }
    }

    /// Fully-unpopulated and fully-masked-off warps must leave all state
    /// untouched and report nothing.
    #[test]
    fn masked_off_is_inert(
        a in any::<u64>(),
        b in any::<u64>(),
        state_seed in any::<u64>(),
    ) {
        for width in [4usize, 32, 64] {
            run_differential(width, &[(a, b)], state_seed, 0);
        }
    }
}

/// One deterministic anchor: a guarded branch over a divergent predicate
/// must report exactly the guard-true populated lanes as taken (kills a
/// hypothetical all-or-nothing guard implementation the fuzzer could in
/// principle miss).
#[test]
fn guarded_branch_taken_mask_exact() {
    let width = 32;
    let mut rf = WarpRegFile::new(width);
    let mut regs: Vec<ThreadRegs> = (0..width).map(|_| ThreadRegs::new()).collect();
    for t in (0..width).step_by(3) {
        rf.set_pred(t, 2, true);
        regs[t].set_pred(2, true);
    }
    let info = WarpInfo::new(width);
    let mut bra = Instruction::new(Op::Bra);
    bra.target = Some(Pc(7));
    bra.guard = Some(Guard::if_true(p(2)));
    let populated = Mask::from_bits(0x0000_ffff);
    let mut acc = Vec::new();
    let taken = execute_warp(&bra, &mut rf, &info, &PARAMS, populated, &mut acc);
    let (ref_taken, _) = scalar_step(&bra, &mut regs, &info, Mask::full(width), populated);
    assert_eq!(taken, ref_taken);
    assert_eq!(
        taken,
        (0..16).step_by(3).collect::<Mask>(),
        "every third populated lane has p2 set"
    );
    assert!(acc.is_empty());
}

/// Second anchor: `Bar` and `Exit` are architectural no-ops on both paths
/// (no writes, no accesses, empty taken mask), and an `AtomAdd` emits the
/// same access list from both paths under a partial mask.
#[test]
#[allow(clippy::needless_range_loop)] // (t, reg) indexing mirrors the layout
fn barrier_exit_inert_and_atomic_access_parity() {
    let width = 32;
    let mut state = 0x0b42_ee17u64;
    let mut rf = WarpRegFile::new(width);
    let mut regs: Vec<ThreadRegs> = (0..width).map(|_| ThreadRegs::new()).collect();
    for t in 0..width {
        for ri in 0..GEN_REGS as usize {
            let v = splitmix64(&mut state) as u32;
            rf.set_reg(t, ri, v);
            regs[t].set_reg(ri, v);
        }
    }
    let info = WarpInfo::new(width);
    let populated = Mask::from_bits(0x5555_5555);

    for op in [Op::Bar, Op::Exit] {
        let instr = Instruction::new(op);
        let mut acc = Vec::new();
        let taken = execute_warp(&instr, &mut rf, &info, &PARAMS, populated, &mut acc);
        let (ref_taken, ref_acc) =
            scalar_step(&instr, &mut regs, &info, Mask::full(width), populated);
        assert_eq!(taken, Mask::EMPTY, "{op} must not report taken lanes");
        assert_eq!(taken, ref_taken);
        assert!(
            acc.is_empty() && ref_acc.is_empty(),
            "{op} must not access memory"
        );
    }

    let mut atom = Instruction::new(Op::AtomAdd);
    atom.srcs[0] = Some(Operand::Reg(r(1)));
    atom.srcs[1] = Some(Operand::Reg(r(2)));
    atom.dst = Some(r(3)); // old-value capture form
    atom.offset = -8;
    atom.validate().unwrap();
    let mut acc = Vec::new();
    execute_warp(&atom, &mut rf, &info, &PARAMS, populated, &mut acc);
    let (_, ref_acc) = scalar_step(&atom, &mut regs, &info, Mask::full(width), populated);
    assert_eq!(acc, ref_acc, "atomic access lists diverged");
    assert_eq!(acc.len(), populated.iter().count());
    assert_state_eq(&rf, &regs, width, "atom.add with dst");
}
