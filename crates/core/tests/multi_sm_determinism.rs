//! Determinism guarantees of the parallel multi-SM engine:
//!
//! * the same machine produces **bit-identical** statistics and memory for
//!   1, 2, 3, 5 and 8 host simulation threads, under both memory models;
//! * a 1-SM machine reproduces a standalone [`Sm`] exactly;
//! * idle-cycle fast-forwarding is exact with respect to cycle-by-cycle
//!   simulation;
//! * cross-SM atomic merging is count-exact.

use warpweave_core::{Launch, Machine, MachineStats, Sm, SmConfig};
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program, SpecialReg};

const OUT: u32 = 0x10_0000;
const BINS: u32 = 0x20_0000;

/// A divergent kernel with data-dependent loop trip counts:
/// `out[gtid] = collatz_steps(gtid % 37)` — heavy intra-warp divergence,
/// which exercises the frontier heap, SBI co-issue and the idle windows
/// the fast-forward path skips.
fn collatz_program() -> Program {
    let mut k = KernelBuilder::new("collatz");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.mov(r(1), r(0));
    k.label("mod");
    k.isetp(p(0), CmpOp::Ge, r(1), 37i32);
    k.guard_t(p(0)).isub(r(1), r(1), 37i32);
    k.bra_if(p(0), "mod");
    k.iadd(r(1), r(1), 1i32);
    k.mov(r(2), 0i32);
    k.label("loop");
    k.isetp(p(1), CmpOp::Le, r(1), 1i32);
    k.bra_if(p(1), "done");
    k.and_(r(3), r(1), 1i32);
    k.isetp(p(2), CmpOp::Eq, r(3), 0i32);
    k.bra_if(p(2), "even");
    k.imad(r(1), r(1), 3i32, 1i32);
    k.bra("next");
    k.label("even");
    k.shr(r(1), r(1), 1i32);
    k.label("next");
    k.iadd(r(2), r(2), 1i32);
    k.bra("loop");
    k.label("done");
    k.shl(r(4), r(0), 2i32);
    k.iadd(r(4), Operand::Param(0), r(4));
    k.st(r(4), 0, r(2));
    k.exit();
    k.build().expect("collatz assembles")
}

/// Every thread atomically bumps `bins[gtid % 16]` — cross-SM contention
/// on shared words, merged through the journal's commutative delta path.
fn histogram_program() -> Program {
    let mut k = KernelBuilder::new("atomic_bins");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.and_(r(1), r(0), 15i32);
    k.shl(r(1), r(1), 2i32);
    k.iadd(r(1), Operand::Param(0), r(1));
    k.atom_add(r(1), 0, 1i32);
    k.exit();
    k.build().expect("histogram assembles")
}

fn collatz_launch(grid: u32) -> Launch {
    Launch::new(collatz_program(), grid, 256).with_params(vec![OUT])
}

fn run_machine(
    cfg: &SmConfig,
    num_sms: usize,
    threads: usize,
    grid: u32,
) -> (MachineStats, Vec<u32>) {
    let mut machine = Machine::new(cfg.clone(), num_sms, collatz_launch(grid))
        .expect("machine builds")
        .with_threads(threads);
    let stats = machine.run(50_000_000).expect("machine runs").clone();
    let words = machine.memory().read_words(OUT, (grid * 256) as usize);
    (stats, words)
}

/// On 4 SMs, 3 threads give one worker two SMs and 5 or 8 threads more
/// workers than SMs; under both memory models none may change a result.
#[test]
fn stats_identical_across_1_2_8_threads() {
    for cfg in [
        SmConfig::baseline(),
        SmConfig::sbi_swi(),
        SmConfig::baseline().with_shared_dram(),
        SmConfig::sbi_swi().with_shared_dram(),
    ] {
        let (reference, ref_mem) = run_machine(&cfg, 4, 1, 12);
        for threads in [2, 3, 5, 8] {
            let (stats, mem) = run_machine(&cfg, 4, threads, 12);
            assert_eq!(
                stats, reference,
                "{} {:?}: stats diverged at {threads} threads",
                cfg.name, cfg.mem_model
            );
            assert_eq!(
                mem, ref_mem,
                "{} {:?}: memory diverged at {threads} threads",
                cfg.name, cfg.mem_model
            );
        }
        // Per-SM breakdown must be populated and cycles must be the makespan.
        assert_eq!(reference.per_sm.len(), 4);
        let max = reference.per_sm.iter().map(|s| s.cycles).max().unwrap();
        assert_eq!(reference.total.cycles, max);
    }
}

#[test]
fn one_sm_machine_reproduces_standalone_sm() {
    for cfg in [SmConfig::baseline(), SmConfig::swi()] {
        let mut sm = Sm::new(cfg.clone(), collatz_launch(6)).expect("sm builds");
        let solo = sm.run(50_000_000).expect("sm runs").clone();
        let (stats, mem) = run_machine(&cfg, 1, 4, 6);
        assert_eq!(stats.per_sm[0], solo, "{}", cfg.name);
        assert_eq!(stats.total, solo, "{}", cfg.name);
        assert_eq!(mem, sm.memory().read_words(OUT, 6 * 256), "{}", cfg.name);
    }
}

#[test]
fn fast_forward_is_exact() {
    // Same simulation with and without idle fast-forwarding must agree on
    // every statistic — cycles, idle cycles, cache/DRAM counters included.
    for cfg in [SmConfig::baseline(), SmConfig::sbi(), SmConfig::sbi_swi()] {
        let mut ticked =
            Sm::new(cfg.clone().with_fast_forward(false), collatz_launch(4)).expect("sm builds");
        let slow = ticked.run(50_000_000).expect("runs").clone();
        let mut jumped =
            Sm::new(cfg.clone().with_fast_forward(true), collatz_launch(4)).expect("sm builds");
        let fast = jumped.run(50_000_000).expect("runs").clone();
        assert_eq!(
            fast, slow,
            "{}: fast-forward changed observable behaviour",
            cfg.name
        );
    }
}

#[test]
fn atomics_merge_exactly_across_sms_and_threads() {
    let grid = 10u32;
    let launch = || Launch::new(histogram_program(), grid, 128).with_params(vec![BINS]);
    let expected = grid * 128 / 16;
    let mut reference: Option<Vec<u32>> = None;
    for (num_sms, threads) in [(1, 1), (4, 1), (4, 8), (3, 2)] {
        let mut machine = Machine::new(SmConfig::baseline(), num_sms, launch())
            .expect("machine builds")
            .with_threads(threads);
        machine.run(50_000_000).expect("machine runs");
        let bins = machine.memory().read_words(BINS, 16);
        assert!(
            bins.iter().all(|&b| b == expected),
            "{num_sms} SMs / {threads} threads: bins {bins:?} != {expected}"
        );
        match &reference {
            None => reference = Some(bins),
            Some(r) => assert_eq!(&bins, r),
        }
    }
}

#[test]
fn sharding_never_lengthens_the_makespan() {
    let (one, _) = run_machine(&SmConfig::baseline(), 1, 1, 12);
    let (four, _) = run_machine(&SmConfig::baseline(), 4, 1, 12);
    assert!(
        four.total.cycles <= one.total.cycles,
        "4-SM makespan {} vs 1-SM {}",
        four.total.cycles,
        one.total.cycles
    );
    // Work (thread-instructions) is conserved exactly: the same grid runs.
    assert_eq!(
        four.total.thread_instructions,
        one.total.thread_instructions
    );
}
