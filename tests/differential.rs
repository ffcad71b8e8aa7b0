//! Differential testing: randomly generated structured kernels must produce
//! bit-identical architectural results on every front-end (Baseline stack,
//! Warp64, SBI, SWI, SBI+SWI) — the strongest cross-cutting correctness
//! property of the simulator.

use warpweave::core::rng::TieBreakRng;
use warpweave::core::{Launch, Sm, SmConfig};
use warpweave::isa::{p, r, CmpOp, KernelBuilder, Operand, Program, SpecialReg};

const OUT: u32 = 0x40_0000;

/// Generates a random structured kernel: straight-line ALU, divergent
/// if/else nests and bounded data-dependent loops, finishing with a store
/// of the working registers.
fn random_program(seed: u64) -> Program {
    let mut rng = TieBreakRng::new(seed);
    let mut k = KernelBuilder::new(format!("fuzz{seed}"));
    let mut label = 0usize;
    // r0 = gtid; r1 = &out[gtid]; r8..r12 = working registers seeded from tid.
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.shl(r(1), r(0), 2i32);
    k.iadd(r(1), Operand::Param(0), r(1));
    for i in 0..5u8 {
        k.imad(r(8 + i), r(0), 2654435761u32 as i32, (i as i32) * 97 + 13);
    }
    gen_block(&mut k, &mut rng, 0, &mut label);
    // Fold the working registers and store.
    k.mov(r(2), 0i32);
    for i in 0..5u8 {
        k.xor(r(2), r(2), r(8 + i));
    }
    k.st(r(1), 0, r(2));
    k.exit();
    k.build().expect("random program assembles")
}

fn gen_block(k: &mut KernelBuilder, rng: &mut TieBreakRng, depth: usize, label: &mut usize) {
    let stmts = 2 + rng.below(3);
    for _ in 0..stmts {
        let wr = |rng: &mut TieBreakRng| r(8 + rng.below(5) as u8);
        match rng.below(if depth < 3 { 10 } else { 6 }) {
            0..=3 => {
                // ALU statement.
                let (d, a, b) = (wr(rng), wr(rng), wr(rng));
                match rng.below(5) {
                    0 => k.iadd(d, a, b),
                    1 => k.imul(d, a, b),
                    2 => k.xor(d, a, b),
                    3 => k.imad(d, a, b, rng.below(18) as i32 - 9),
                    _ => k.shr(d, a, rng.below(5) as i32),
                };
            }
            4 | 5 => {
                // Predicated statement (no branch).
                let c = wr(rng);
                k.isetp(p(0), CmpOp::Gt, c, rng.below(200) as i32 - 100);
                let (d, a) = (wr(rng), wr(rng));
                k.guard_t(p(0)).iadd(d, a, 1i32);
            }
            6 | 7 => {
                // Divergent if/else.
                let id = *label;
                *label += 1;
                let c = wr(rng);
                k.and_(r(3), c, 1 << rng.below(4));
                k.isetp(p(1), CmpOp::Eq, r(3), 0i32);
                k.bra_if(p(1), format!("else{id}"));
                gen_block(k, rng, depth + 1, label);
                k.bra(format!("join{id}"));
                k.label(format!("else{id}"));
                gen_block(k, rng, depth + 1, label);
                k.label(format!("join{id}"));
                k.nop();
            }
            _ => {
                // Bounded, data-dependent loop (1..=4 iterations).
                let id = *label;
                *label += 1;
                let c = wr(rng);
                k.and_(r(4), c, 3i32);
                k.iadd(r(4), r(4), 1i32);
                k.label(format!("loop{id}"));
                gen_block(k, rng, depth + 1, label);
                k.iadd(r(4), r(4), -1i32);
                k.isetp(p(2), CmpOp::Gt, r(4), 0i32);
                k.bra_if(p(2), format!("loop{id}"));
            }
        }
    }
}

fn run_on(cfg: SmConfig, prog: Program, n: u32) -> Vec<u32> {
    let launch = Launch::new(prog, n / 256, 256).with_params(vec![OUT]);
    let mut sm = Sm::new(cfg, launch).expect("valid config");
    sm.run(50_000_000).expect("kernel finishes");
    sm.memory().read_words(OUT, n as usize)
}

#[test]
fn random_kernels_agree_across_architectures() {
    // The config set comes from the shared grid module — the same
    // front-end list the sweep and the golden baseline exercise — so the
    // fuzzer's coverage tracks the canonical grid by construction.
    for seed in 0..12u64 {
        let prog = random_program(seed);
        let n = 1024;
        let reference = run_on(SmConfig::baseline(), prog.clone(), n);
        for cfg in warpweave::bench::grid::differential_configs() {
            let name = cfg.name.clone();
            let got = run_on(cfg, prog.clone(), n);
            assert_eq!(
                got, reference,
                "seed {seed}: {name} diverged from the baseline"
            );
        }
    }
}

#[test]
fn random_kernels_are_deterministic() {
    let prog = random_program(99);
    let a = run_on(SmConfig::sbi_swi(), prog.clone(), 512);
    let b = run_on(SmConfig::sbi_swi(), prog, 512);
    assert_eq!(a, b);
}
