//! FastWalshTransform (CUDA SDK): in-shared-memory Walsh–Hadamard butterfly
//! — uniform full-warp participation in every stage, barriers between
//! stages; regular.

use warpweave_core::Launch;
use warpweave_isa::{r, KernelBuilder, Operand, Program, SpecialReg};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct FastWalshTransform;

/// Elements per block (256 threads × 2).
const CHUNK: u32 = 512;
const P_DATA: u8 = 0;

fn program() -> Program {
    let mut k = KernelBuilder::new("fast_walsh");
    k.mov(r(0), SpecialReg::Tid);
    // Global base of this block's chunk: ctaid·512 + tid (element index).
    k.mov(r(1), SpecialReg::CtaId);
    k.imad(r(2), r(1), CHUNK as i32, r(0));
    k.shl(r(3), r(2), 2i32);
    k.iadd(r(3), Operand::Param(P_DATA), r(3));
    // Load two elements (tid and tid+256) into shared.
    k.ld(r(4), r(3), 0);
    k.ld(r(5), r(3), 256 * 4);
    k.shl(r(6), r(0), 2i32);
    k.st_shared(r(6), 0, r(4));
    k.st_shared(r(6), 256 * 4, r(5));
    k.bar();
    // 9 butterfly stages over 512 elements; each thread owns one pair.
    for lh in 0..9 {
        let h: i32 = 1 << lh;
        // idx = ((tid >> lh) << (lh+1)) + (tid & (h-1))
        k.shr(r(7), r(0), lh);
        k.shl(r(7), r(7), lh + 1);
        k.and_(r(8), r(0), h - 1);
        k.iadd(r(7), r(7), r(8));
        k.shl(r(7), r(7), 2i32);
        k.ld_shared(r(9), r(7), 0);
        k.ld_shared(r(10), r(7), h * 4);
        k.iadd(r(11), r(9), r(10));
        k.isub(r(12), r(9), r(10));
        k.st_shared(r(7), 0, r(11));
        k.st_shared(r(7), h * 4, r(12));
        k.bar();
    }
    // Store back.
    k.ld_shared(r(4), r(6), 0);
    k.ld_shared(r(5), r(6), 256 * 4);
    k.st(r(3), 0, r(4));
    k.st(r(3), 256 * 4, r(5));
    k.exit();
    k.build().expect("fast_walsh assembles")
}

/// Host reference: in-place WHT per 512-element chunk (wrapping i32).
fn host_fwht(data: &mut [u32]) {
    for chunk in data.chunks_mut(CHUNK as usize) {
        for lh in 0..9 {
            let h = 1usize << lh;
            for t in 0..chunk.len() / 2 {
                let idx = ((t >> lh) << (lh + 1)) + (t & (h - 1));
                let a = chunk[idx];
                let b = chunk[idx + h];
                chunk[idx] = a.wrapping_add(b);
                chunk[idx + h] = a.wrapping_sub(b);
            }
        }
    }
}

impl Workload for FastWalshTransform {
    fn name(&self) -> &'static str {
        "FastWalshTransform"
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
        let mut rng = Lcg(0xfa57);
        let input: Vec<u32> = (0..n).map(|_| rng.below(1 << 16)).collect();
        let mut expected = input.clone();
        host_fwht(&mut expected);
        let pdata = region(0);
        let launch = Launch::new(program(), blocks, 256).with_params(vec![pdata]);
        Prepared {
            launches: vec![launch],
            inputs: vec![(pdata, input)],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_words(pdata, n as usize), &expected)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_prepared;
    use warpweave_core::SmConfig;

    #[test]
    fn host_fwht_involution_scaled() {
        // WHT applied twice = 512 × identity.
        let mut rng = Lcg(9);
        let orig: Vec<u32> = (0..512).map(|_| rng.below(1000)).collect();
        let mut d = orig.clone();
        host_fwht(&mut d);
        host_fwht(&mut d);
        for (a, b) in d.iter().zip(&orig) {
            assert_eq!(*a, b.wrapping_mul(512));
        }
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(
            &SmConfig::baseline(),
            FastWalshTransform.prepare(Scale::Test),
            true,
        )
        .unwrap();
    }

    #[test]
    fn verifies_on_sbi_swi() {
        run_prepared(
            &SmConfig::sbi_swi(),
            FastWalshTransform.prepare(Scale::Test),
            true,
        )
        .unwrap();
    }
}
