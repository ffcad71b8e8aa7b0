//! Integration tests: whole kernels through every architecture, checking
//! functional results and coarse timing behaviour.

use warpweave_core::{LaneShuffle, Launch, Sm, SmConfig};
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Program, SpecialReg};

/// All five fig. 7 configurations.
fn all_configs() -> Vec<SmConfig> {
    SmConfig::figure7_set()
}

/// Builds `dst[gtid] = a[gtid] + b[gtid]`.
fn vecadd_program() -> Program {
    let mut k = KernelBuilder::new("vecadd");
    // r0 = ctaid * ntid + tid (global thread id)
    k.mov(r(0), SpecialReg::CtaId);
    k.mov(r(1), SpecialReg::NTid);
    k.imad(r(0), r(0), r(1), SpecialReg::Tid);
    // r2 = byte offset
    k.shl(r(2), r(0), 2i32);
    // addresses: a = param0 + off, b = param1 + off, c = param2 + off
    k.iadd(r(3), warpweave_isa::Operand::Param(0), r(2));
    k.iadd(r(4), warpweave_isa::Operand::Param(1), r(2));
    k.iadd(r(5), warpweave_isa::Operand::Param(2), r(2));
    k.ld(r(6), r(3), 0);
    k.ld(r(7), r(4), 0);
    k.iadd(r(8), r(6), r(7));
    k.st(r(5), 0, r(8));
    k.exit();
    k.build().unwrap()
}

const A: u32 = 0x10000;
const B: u32 = 0x30000;
const C: u32 = 0x50000;

fn run_vecadd(cfg: SmConfig, n: u32) -> (Vec<u32>, warpweave_core::Stats) {
    let launch = Launch::new(vecadd_program(), n / 256, 256).with_params(vec![A, B, C]);
    let mut sm = Sm::new(cfg, launch).unwrap();
    for i in 0..n {
        sm.memory_mut().write_u32(A + 4 * i, i);
        sm.memory_mut().write_u32(B + 4 * i, 1000 + i);
    }
    let stats = sm.run(10_000_000).unwrap().clone();
    let out = sm.memory().read_words(C, n as usize);
    (out, stats)
}

#[test]
fn vecadd_correct_on_all_architectures() {
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let (out, stats) = run_vecadd(cfg, 4096);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 1000 + 2 * i as u32, "{name}: wrong c[{i}]");
        }
        assert!(stats.ipc() > 1.0, "{name}: unreasonably low IPC");
        assert_eq!(stats.blocks_completed, 16, "{name}");
    }
}

/// Divergent if/else: odd threads compute 3·tid+1, even threads tid/2.
fn collatz_step_program() -> Program {
    let mut k = KernelBuilder::new("collatz_step");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.shl(r(2), r(0), 2i32);
    k.iadd(r(3), warpweave_isa::Operand::Param(0), r(2));
    k.and_(r(4), r(0), 1i32);
    k.isetp(p(0), CmpOp::Eq, r(4), 0i32);
    k.bra_if(p(0), "even");
    // odd: 3*tid + 1
    k.imad(r(5), r(0), 3i32, 1i32);
    k.bra("join");
    k.label("even");
    k.shr(r(5), r(0), 1i32);
    k.label("join");
    k.st(r(3), 0, r(5));
    k.exit();
    k.build().unwrap()
}

#[test]
fn divergent_if_else_correct_everywhere() {
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let launch = Launch::new(collatz_step_program(), 8, 256).with_params(vec![C]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        sm.run(10_000_000).unwrap();
        let out = sm.memory().read_words(C, 2048);
        for (i, &v) in out.iter().enumerate() {
            let expect = if i % 2 == 1 {
                3 * i as u32 + 1
            } else {
                i as u32 / 2
            };
            assert_eq!(v, expect, "{name}: wrong out[{i}]");
        }
    }
}

/// Data-dependent loop: out[tid] = sum(0..=tid % 17).
fn tri_loop_program() -> Program {
    let mut k = KernelBuilder::new("tri_loop");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    // r1 = tid % 17 (via repeated subtract-free trick: tid - (tid/17)*17)
    k.mov(r(6), 17i32);
    // integer division by repeated subtraction is slow; emulate tid%17 by
    // loop: r1 = tid; while r1 >= 17: r1 -= 17
    k.mov(r(1), r(0));
    k.label("mod");
    k.isetp(p(0), CmpOp::Ge, r(1), r(6));
    k.guard_t(p(0)).isub(r(1), r(1), r(6));
    k.bra_if(p(0), "mod");
    // r2 = sum 0..=r1
    k.mov(r(2), 0i32);
    k.mov(r(3), 0i32);
    k.label("loop");
    k.iadd(r(2), r(2), r(3));
    k.iadd(r(3), r(3), 1i32);
    k.isetp(p(1), CmpOp::Le, r(3), r(1));
    k.bra_if(p(1), "loop");
    k.shl(r(4), r(0), 2i32);
    k.iadd(r(5), warpweave_isa::Operand::Param(0), r(4));
    k.st(r(5), 0, r(2));
    k.exit();
    k.build().unwrap()
}

#[test]
fn data_dependent_loop_correct_everywhere() {
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let launch = Launch::new(tri_loop_program(), 4, 256).with_params(vec![C]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        sm.run(10_000_000).unwrap();
        let out = sm.memory().read_words(C, 1024);
        for (i, &v) in out.iter().enumerate() {
            let m = (i % 17) as u32;
            assert_eq!(v, m * (m + 1) / 2, "{name}: wrong out[{i}]");
        }
    }
}

/// Barrier test: thread t writes shared[t] = t², barrier, reads neighbour
/// (t+1 mod ntid), stores to global.
fn barrier_program() -> Program {
    let mut k = KernelBuilder::new("barrier_swap");
    k.mov(r(0), SpecialReg::Tid);
    k.imul(r(1), r(0), r(0));
    k.shl(r(2), r(0), 2i32);
    k.st_shared(r(2), 0, r(1));
    k.bar();
    // neighbour = (tid + 1) % ntid
    k.iadd(r(3), r(0), 1i32);
    k.isetp(p(0), CmpOp::Ge, r(3), SpecialReg::NTid);
    k.guard_t(p(0)).mov(r(3), 0i32);
    k.shl(r(4), r(3), 2i32);
    k.ld_shared(r(5), r(4), 0);
    // global out index
    k.mov(r(6), SpecialReg::CtaId);
    k.imad(r(6), r(6), SpecialReg::NTid, r(0));
    k.shl(r(7), r(6), 2i32);
    k.iadd(r(8), warpweave_isa::Operand::Param(0), r(7));
    k.st(r(8), 0, r(5));
    k.exit();
    k.build().unwrap()
}

#[test]
fn barrier_correct_everywhere() {
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let launch = Launch::new(barrier_program(), 4, 256).with_params(vec![C]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        let stats = sm.run(10_000_000).unwrap().clone();
        assert!(stats.barrier_releases >= 4, "{name}: no barrier releases");
        let out = sm.memory().read_words(C, 1024);
        for (i, &v) in out.iter().enumerate() {
            let t = (i % 256) as u32;
            let n = (t + 1) % 256;
            assert_eq!(v, n * n, "{name}: wrong out[{i}]");
        }
    }
}

/// A balanced if/else with substantial work on both sides: SBI should beat
/// the sequential-branch Warp64 reference clearly (fig. 2b vs 2a).
fn balanced_divergence_program(work: usize) -> Program {
    let mut k = KernelBuilder::new("balanced");
    k.mov(r(0), SpecialReg::Tid);
    k.and_(r(1), r(0), 1i32);
    k.isetp(p(0), CmpOp::Eq, r(1), 0i32);
    k.mov(r(2), 1i32);
    k.bra_if(p(0), "even");
    for _ in 0..work {
        k.imad(r(2), r(2), 3i32, 7i32);
    }
    k.bra("join");
    k.label("even");
    for _ in 0..work {
        k.imad(r(2), r(2), 5i32, 11i32);
    }
    k.label("join");
    k.shl(r(3), r(0), 2i32);
    k.iadd(r(4), warpweave_isa::Operand::Param(0), r(3));
    k.st(r(4), 0, r(2));
    k.exit();
    k.build().unwrap()
}

fn ipc_of(cfg: SmConfig, prog: Program, blocks: u32) -> f64 {
    let launch = Launch::new(prog, blocks, 256).with_params(vec![C]);
    let mut sm = Sm::new(cfg, launch).unwrap();
    sm.run(50_000_000).unwrap().ipc()
}

#[test]
fn sbi_beats_warp64_on_balanced_divergence() {
    let sbi = ipc_of(SmConfig::sbi(), balanced_divergence_program(40), 16);
    let w64 = ipc_of(SmConfig::warp64(), balanced_divergence_program(40), 16);
    assert!(
        sbi > w64 * 1.3,
        "SBI ({sbi:.1}) should clearly beat Warp64 ({w64:.1}) on balanced divergence"
    );
}

/// Imbalanced work (if with no else): SWI should beat Warp64 by filling the
/// idle lanes with other warps.
fn imbalanced_program(work: usize) -> Program {
    let mut k = KernelBuilder::new("imbalanced");
    k.mov(r(0), SpecialReg::Tid);
    k.and_(r(1), r(0), 63i32);
    k.isetp(p(0), CmpOp::Ge, r(1), 8i32);
    k.mov(r(2), 1i32);
    k.bra_if(p(0), "join"); // only threads 0..8 of each 64 work
    for _ in 0..work {
        k.imad(r(2), r(2), 3i32, 7i32);
    }
    k.label("join");
    k.shl(r(3), r(0), 2i32);
    k.iadd(r(4), warpweave_isa::Operand::Param(0), r(3));
    k.st(r(4), 0, r(2));
    k.exit();
    k.build().unwrap()
}

#[test]
fn swi_beats_warp64_on_imbalanced_work() {
    let swi = ipc_of(SmConfig::swi(), imbalanced_program(60), 16);
    let w64 = ipc_of(SmConfig::warp64(), imbalanced_program(60), 16);
    assert!(
        swi > w64 * 1.2,
        "SWI ({swi:.1}) should beat Warp64 ({w64:.1}) on imbalanced work"
    );
}

/// Identical runs must be bit-identical (deterministic simulation).
#[test]
fn simulation_is_deterministic() {
    let a = run_vecadd(SmConfig::sbi_swi(), 2048);
    let b = run_vecadd(SmConfig::sbi_swi(), 2048);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1.cycles, b.1.cycles);
    assert_eq!(a.1.thread_instructions, b.1.thread_instructions);
}

/// A straight-line compute kernel should reach a healthy fraction of peak
/// IPC on the baseline (issue-bound at 64).
#[test]
fn straight_line_ipc_sanity() {
    let mut k = KernelBuilder::new("stream");
    k.mov(r(0), SpecialReg::Tid);
    for i in 0..6 {
        k.mov(r(2 + i), 1i32);
    }
    for _ in 0..30 {
        for i in 0..6 {
            k.imad(r(2 + i), r(2 + i), 3i32, 1i32);
        }
    }
    k.exit();
    let prog = k.build().unwrap();
    let ipc = ipc_of(SmConfig::baseline(), prog, 16);
    assert!(
        ipc > 40.0,
        "baseline straight-line IPC {ipc:.1} too far from peak 64"
    );
}

/// Lane shuffling must not change functional results.
#[test]
fn lane_shuffle_is_functionally_transparent() {
    for shuffle in LaneShuffle::ALL {
        let cfg = SmConfig::swi().with_lane_shuffle(shuffle);
        let (out, _) = run_vecadd(cfg, 2048);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 1000 + 2 * i as u32, "{shuffle:?}");
        }
    }
}

/// SBI reconvergence constraints must not change results either.
#[test]
fn constraints_are_functionally_transparent() {
    let base = {
        let launch = Launch::new(tri_loop_program(), 4, 256).with_params(vec![C]);
        let mut sm = Sm::new(SmConfig::sbi().with_constraints(false), launch).unwrap();
        sm.run(10_000_000).unwrap();
        sm.memory().read_words(C, 1024)
    };
    let constrained = {
        let launch = Launch::new(tri_loop_program(), 4, 256).with_params(vec![C]);
        let mut sm = Sm::new(SmConfig::sbi().with_constraints(true), launch).unwrap();
        sm.run(10_000_000).unwrap();
        sm.memory().read_words(C, 1024)
    };
    assert_eq!(base, constrained);
}

/// More blocks than resident slots: multi-wave block scheduling.
#[test]
fn grid_larger_than_resident_capacity() {
    let (out, stats) = run_vecadd(SmConfig::baseline(), 16384);
    assert_eq!(stats.blocks_completed, 64);
    assert_eq!(out[16383], 1000 + 2 * 16383);
}

/// Partial warps: a 96-thread block on 64-wide warps leaves lanes empty but
/// must still compute correctly.
#[test]
fn partial_warp_blocks() {
    for cfg in [SmConfig::sbi(), SmConfig::baseline()] {
        let launch = Launch::new(vecadd_program(), 4, 96).with_params(vec![A, B, C]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        for i in 0..384 {
            sm.memory_mut().write_u32(A + 4 * i, i);
            sm.memory_mut().write_u32(B + 4 * i, 7);
        }
        sm.run(10_000_000).unwrap();
        let out = sm.memory().read_words(C, 384);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 7);
        }
    }
}

/// Atomic adds: every thread increments a shared counter set.
#[test]
fn atomics_are_exact() {
    let mut k = KernelBuilder::new("atom");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.and_(r(1), r(0), 7i32); // 8 counters
    k.shl(r(2), r(1), 2i32);
    k.iadd(r(3), warpweave_isa::Operand::Param(0), r(2));
    k.atom_add(r(3), 0, 1i32);
    k.exit();
    let prog = k.build().unwrap();
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let launch = Launch::new(prog.clone(), 8, 256).with_params(vec![C]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        sm.run(10_000_000).unwrap();
        let out = sm.memory().read_words(C, 8);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 256, "{name}: counter {i}");
        }
    }
}

// --- memory effects in thread order -----------------------------------------

/// Commits one SM's journal into an empty memory: what it recorded.
fn journaled(sm: &mut Sm) -> warpweave_mem::Memory {
    let journal = sm.take_mem_journal().expect("journal was enabled");
    let mut mem = warpweave_mem::Memory::new();
    warpweave_core::MemJournal::commit_all([&journal], &mut mem);
    mem
}

/// Threads 1, 3, 17 and 19 of one warp store different values to one word:
/// the highest thread's value is what memory, the journal and a later
/// shared-memory load see — the mask walk from bit 0 is what orders them.
#[test]
fn a_words_last_writer_is_the_highest_thread() {
    let mut k = KernelBuilder::new("last_writer");
    k.mov(r(0), SpecialReg::Tid);
    k.and_(r(1), r(0), 13i32);
    k.isetp(p(0), CmpOp::Eq, r(1), 1i32);
    k.iadd(r(2), r(0), 100i32);
    k.mov(r(3), warpweave_isa::Operand::Param(0));
    k.guard_t(p(0)).st(r(3), 0, r(2));
    k.mov(r(4), 64i32);
    k.guard_t(p(0)).st_shared(r(4), 0, r(2));
    k.bar();
    k.ld_shared(r(5), r(4), 0);
    k.shl(r(6), r(0), 2i32);
    k.iadd(r(6), warpweave_isa::Operand::Param(1), r(6));
    k.st(r(6), 0, r(5));
    k.exit();
    let prog = k.build().unwrap();
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let launch = Launch::new(prog.clone(), 1, 32).with_params(vec![A, C]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        sm.enable_mem_journal();
        sm.run(1_000_000).unwrap();
        assert_eq!(sm.memory().read_u32(A), 119, "{name}: global word");
        assert_eq!(
            sm.memory().read_words(C, 32),
            vec![119; 32],
            "{name}: shared word, as every thread read it back"
        );
        let journal = journaled(&mut sm);
        assert_eq!(journal.read_u32(A), 119, "{name}: journal");
        assert_eq!(journal.read_words(C, 32), vec![119; 32], "{name}: journal");
    }
}

/// Dense-run loads and stores that straddle a 4 KiB page, reach into a page
/// nothing ever wrote, and read shared memory past its grown end: missing
/// words read 0 (over whatever the register held), present ones arrive in
/// lane order.
#[test]
fn dense_runs_cross_pages_and_unwritten_memory_reads_zero() {
    const IN: u32 = 0x0002_0000 - 4 * 10; // threads 0..10 in a written page
    const OUT: u32 = 0x0007_0000 - 4 * 50; // threads 50.. in the next page
    const BLANK: u32 = 0x0040_0000; // a page of its own, never written
    let mut k = KernelBuilder::new("page_straddle");
    k.mov(r(0), SpecialReg::Tid);
    k.shl(r(1), r(0), 2i32);
    k.iadd(r(2), warpweave_isa::Operand::Param(0), r(1));
    k.iadd(r(3), warpweave_isa::Operand::Param(1), r(1));
    k.iadd(r(4), warpweave_isa::Operand::Param(2), r(1));
    k.mov(r(5), 77i32);
    k.mov(r(6), 77i32);
    k.mov(r(7), 77i32);
    k.ld(r(5), r(2), 0); // straddles into an unwritten page
    k.ld(r(6), r(4), 0); // inside an unwritten page
    k.ld_shared(r(7), r(1), 0x4000); // past the end of the shared space
    k.iadd(r(8), r(5), r(6));
    k.iadd(r(8), r(8), r(7));
    k.st_shared(r(1), 0x100, r(8)); // grows the space by a dense run
    k.ld_shared(r(9), r(1), 0x100);
    k.st(r(3), 0, r(9)); // straddles a page boundary
    k.exit();
    let prog = k.build().unwrap();
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let launch = Launch::new(prog.clone(), 1, 64).with_params(vec![IN, OUT, BLANK]);
        let mut sm = Sm::new(cfg, launch).unwrap();
        for i in 0..10 {
            sm.memory_mut().write_u32(IN + 4 * i, 1000 + i);
        }
        sm.run(1_000_000).unwrap();
        let expect: Vec<u32> = (0..64).map(|t| if t < 10 { 1000 + t } else { 0 }).collect();
        assert_eq!(sm.memory().read_words(OUT, 64), expect, "{name}");
        assert_eq!(sm.memory().read_u32(OUT - 4), 0, "{name}: nothing before");
        assert_eq!(
            sm.memory().read_u32(OUT + 4 * 64),
            0,
            "{name}: nothing after"
        );
    }
}

/// A memory instruction whose guard turns every lane off touches nothing
/// and plans nothing: a global load adds no transaction, a shared load its
/// one (empty) pass, neither a replay, and the destination keeps its value.
#[test]
fn fully_guarded_off_memory_instructions_plan_nothing() {
    let build = |shared: bool| {
        let mut k = KernelBuilder::new("guarded_off");
        k.mov(r(0), SpecialReg::Tid);
        k.shl(r(1), r(0), 2i32);
        k.iadd(r(2), warpweave_isa::Operand::Param(0), r(1));
        k.isetp(p(0), CmpOp::Lt, r(0), 0i32); // no thread
        k.mov(r(3), 55i32);
        if shared {
            k.guard_t(p(0)).ld_shared(r(3), r(1), 0);
            k.guard_t(p(0)).st_shared(r(1), 0, r(0));
        } else {
            k.guard_t(p(0)).ld(r(3), r(2), 0);
            k.guard_t(p(0)).st(r(2), 0, r(0));
        }
        k.st(r(2), 0x1000, r(3));
        k.exit();
        k.build().unwrap()
    };
    for cfg in all_configs() {
        let name = cfg.name.clone();
        let mut lsu = Vec::new();
        for shared in [false, true] {
            let launch = Launch::new(build(shared), 1, 32).with_params(vec![A]);
            let mut sm = Sm::new(cfg.clone(), launch).unwrap();
            let stats = sm.run(1_000_000).unwrap().clone();
            assert_eq!(sm.memory().read_words(A, 32), vec![0; 32], "{name}");
            assert_eq!(
                sm.memory().read_words(A + 0x1000, 32),
                vec![55; 32],
                "{name}"
            );
            lsu.push((stats.lsu_transactions, stats.lsu_replays));
        }
        // The final store is one 128-byte block; the two guarded-off shared
        // instructions add a pass each.
        assert_eq!(lsu, vec![(1, 0), (3, 0)], "{name}");
    }
}
