//! SortingNetworks (CUDA SDK): bitonic sort of 512 keys per block in shared
//! memory — compare-exchange direction depends on thread-ID bits and data,
//! giving patterned branch divergence across 45 barrier-separated passes.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program, SpecialReg};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct SortingNetworks;

/// Keys per block (256 threads × 2).
const CHUNK: u32 = 512;
const P_DATA: u8 = 0;

fn program() -> Program {
    let mut k = KernelBuilder::new("bitonic_sort");
    k.mov(r(0), SpecialReg::Tid);
    k.mov(r(1), SpecialReg::CtaId);
    k.imad(r(2), r(1), CHUNK as i32, r(0));
    k.shl(r(3), r(2), 2i32);
    k.iadd(r(3), Operand::Param(P_DATA), r(3));
    k.ld(r(4), r(3), 0);
    k.ld(r(5), r(3), 256 * 4);
    k.shl(r(6), r(0), 2i32);
    k.st_shared(r(6), 0, r(4));
    k.st_shared(r(6), 256 * 4, r(5));
    k.bar();
    let mut pass = 0;
    let mut size = 2u32;
    while size <= CHUNK {
        let mut stride = size / 2;
        while stride >= 1 {
            let skip = format!("skip{pass}");
            // pos = 2·tid − (tid & (stride−1))
            k.shl(r(7), r(0), 1i32);
            k.and_(r(8), r(0), (stride - 1) as i32);
            k.isub(r(7), r(7), r(8));
            k.shl(r(7), r(7), 2i32);
            k.ld_shared(r(9), r(7), 0);
            k.ld_shared(r(10), r(7), (stride * 4) as i32);
            // ascending = (tid & size/2) == 0 → asc ∈ {0,1}
            k.and_(r(11), r(0), (size / 2) as i32);
            k.isetp(p(0), CmpOp::Eq, r(11), 0i32);
            k.sel(r(11), p(0), 1i32, 0i32);
            // gt = a > b
            k.isetp(p(1), CmpOp::Gt, r(9), r(10));
            k.sel(r(12), p(1), 1i32, 0i32);
            // swap iff gt == ascending (out of order for this direction)
            k.isetp(p(2), CmpOp::Eq, r(12), r(11));
            k.bra_ifn(p(2), skip.clone());
            k.st_shared(r(7), 0, r(10));
            k.st_shared(r(7), (stride * 4) as i32, r(9));
            k.label(skip);
            k.bar();
            stride /= 2;
            pass += 1;
        }
        size *= 2;
    }
    k.ld_shared(r(4), r(6), 0);
    k.ld_shared(r(5), r(6), 256 * 4);
    k.st(r(3), 0, r(4));
    k.st(r(3), 256 * 4, r(5));
    k.exit();
    k.build().expect("bitonic assembles")
}

impl Workload for SortingNetworks {
    fn name(&self) -> &'static str {
        "SortingNetworks"
    }

    fn category(&self) -> Category {
        Category::Irregular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let blocks: u32 = match scale {
            Scale::Test => 4,
            Scale::Bench => 32,
        };
        let n = blocks * CHUNK;
        let mut rng = Lcg(0x5047);
        // Keys below 2³⁰ keep signed comparisons equivalent to unsigned.
        let data: Vec<u32> = (0..n).map(|_| rng.below(1 << 30)).collect();
        let mut expected = data.clone();
        for chunk in expected.chunks_mut(CHUNK as usize) {
            chunk.sort_unstable();
        }
        let pdata = region(0);
        let launch = Launch::new(program(), blocks, 256).with_params(vec![pdata]);
        Prepared {
            launches: vec![launch],
            inputs: vec![(pdata, data)],
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
    fn verifies_on_baseline() {
        run_prepared(
            &SmConfig::baseline(),
            SortingNetworks.prepare(Scale::Test),
            true,
        )
        .unwrap();
    }

    #[test]
    fn verifies_on_sbi_swi() {
        run_prepared(
            &SmConfig::sbi_swi(),
            SortingNetworks.prepare(Scale::Test),
            true,
        )
        .unwrap();
    }
}
