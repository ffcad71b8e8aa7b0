//! DWTHaar1D (CUDA SDK): 1-D Haar wavelet decomposition in shared memory —
//! thread participation halves every level, producing tid-correlated
//! imbalance (but still regular per the paper's IPC split).

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program, SpecialReg};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct DwtHaar1d;

/// Signal elements per block.
const CHUNK: u32 = 512;
const LEVELS: u32 = 9;
const P_IN: u8 = 0;
const P_OUT: u8 = 1;

fn program() -> Program {
    let mut k = KernelBuilder::new("dwt_haar1d");
    k.mov(r(0), SpecialReg::Tid);
    k.mov(r(1), SpecialReg::CtaId);
    // Global element index base = ctaid·512 + tid.
    k.imad(r(2), r(1), CHUNK as i32, r(0));
    k.shl(r(3), r(2), 2i32);
    k.iadd(r(4), Operand::Param(P_IN), r(3));
    k.ld(r(5), r(4), 0);
    k.ld(r(6), r(4), 256 * 4);
    k.shl(r(7), r(0), 2i32);
    k.st_shared(r(7), 0, r(5));
    k.st_shared(r(7), 256 * 4, r(6));
    k.bar();
    // Output base address for this block.
    k.iadd(r(8), Operand::Param(P_OUT), r(3));
    k.isub(r(8), r(8), r(7)); // block-start address
    for l in 0..LEVELS {
        let half = (CHUNK >> (l + 1)) as i32; // active threads this level
        let join1 = format!("jread{l}");
        let join2 = format!("jwrite{l}");
        k.isetp(p(0), CmpOp::Lt, r(0), half);
        // Read phase.
        k.bra_ifn(p(0), join1.clone());
        k.shl(r(9), r(0), 3i32); // 2·tid·4
        k.ld_shared(r(10), r(9), 0);
        k.ld_shared(r(11), r(9), 4);
        k.fadd(r(12), r(10), r(11));
        k.fmul(r(12), r(12), 0.5f32); // approx
        k.fsub(r(13), r(10), r(11));
        k.fmul(r(13), r(13), 0.5f32); // detail
        k.label(join1);
        k.bar();
        // Write phase: approx back to shared, detail to out[half + tid].
        k.bra_ifn(p(0), join2.clone());
        k.st_shared(r(7), 0, r(12));
        k.iadd(r(14), r(0), half);
        k.shl(r(14), r(14), 2i32);
        k.iadd(r(14), r(8), r(14));
        k.st(r(14), 0, r(13));
        k.label(join2);
        k.bar();
    }
    // Thread 0 stores the final approximation coefficient.
    k.isetp(p(1), CmpOp::Eq, r(0), 0i32);
    k.bra_ifn(p(1), "done");
    k.ld_shared(r(15), r(7), 0);
    k.st(r(8), 0, r(15));
    k.label("done");
    k.exit();
    k.build().expect("dwt_haar1d assembles")
}

/// Host reference: per-chunk Haar DWT with the standard coefficient layout
/// (final approximation at 0, level-`l` details at `[chunk>>l+1 ..)`).
fn host_dwt(input: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    for (c, chunk) in input.chunks(CHUNK as usize).enumerate() {
        let base = c * CHUNK as usize;
        let mut cur = chunk.to_vec();
        for l in 0..LEVELS {
            let half = (CHUNK >> (l + 1)) as usize;
            let mut next = vec![0.0f32; half];
            for t in 0..half {
                let (a, b) = (cur[2 * t], cur[2 * t + 1]);
                next[t] = (a + b) * 0.5;
                out[base + half + t] = (a - b) * 0.5;
            }
            cur = next;
        }
        out[base] = cur[0];
    }
    out
}

impl Workload for DwtHaar1d {
    fn name(&self) -> &'static str {
        "DWTHaar1D"
    }

    fn category(&self) -> Category {
        Category::Regular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let blocks: u32 = match scale {
            Scale::Test => 4,
            Scale::Bench => 48,
        };
        let n = blocks * CHUNK;
        let mut rng = Lcg(0xd3a7);
        // Even integers: every Haar average/difference stays exact in f32.
        let input: Vec<f32> = (0..n).map(|_| (rng.below(512) * 2) as f32).collect();
        let expected = host_dwt(&input);
        let (pin, pout) = (region(0), region(1));
        let launch = Launch::new(program(), blocks, 256).with_params(vec![pin, pout]);
        Prepared {
            launches: vec![launch],
            inputs: vec![(pin, input.iter().map(|v| v.to_bits()).collect())],
            verify: Box::new(move |mem| assert_exact(&mem.read_f32s(pout, n as usize), &expected)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_prepared;
    use warpweave_core::SmConfig;

    #[test]
    fn host_dwt_constant_signal() {
        let sig = vec![8.0f32; CHUNK as usize];
        let out = host_dwt(&sig);
        assert_eq!(out[0], 8.0);
        assert!(out[1..].iter().all(|&d| d == 0.0));
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), DwtHaar1d.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_sbi_swi() {
        run_prepared(&SmConfig::sbi_swi(), DwtHaar1d.prepare(Scale::Test), true).unwrap();
    }
}
