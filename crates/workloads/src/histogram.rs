//! Histogram (CUDA SDK): 256-bin histogram with per-block shared
//! sub-histograms — data-dependent atomic conflicts make it irregular.

use warpweave_core::Launch;
use warpweave_isa::{r, KernelBuilder, Operand, Program, SpecialReg};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct Histogram;

const BINS: u32 = 256;
const P_DATA: u8 = 0;
const P_HIST: u8 = 1;
const P_TOTAL: u8 = 2; // total thread count (grid stride)

/// Skewed bin function (products concentrate near zero, creating hot bins):
/// `bin = ((x & 0xff) * ((x >> 8) & 0xff)) >> 8`.
fn bin_of(x: u32) -> u32 {
    ((x & 0xff) * ((x >> 8) & 0xff)) >> 8
}

fn program(elems_per_thread: u32) -> Program {
    let mut k = KernelBuilder::new("histogram");
    k.mov(r(0), SpecialReg::Tid);
    k.mov(r(1), SpecialReg::CtaId);
    k.imad(r(2), r(1), SpecialReg::NTid, r(0)); // gtid
                                                // Zero this block's shared sub-histogram (256 bins, 256 threads).
    k.shl(r(3), r(0), 2i32);
    k.st_shared(r(3), 0, 0i32);
    k.bar();
    // Grid-stride loop over elements.
    k.mov(r(4), elems_per_thread as i32);
    k.shl(r(5), r(2), 2i32);
    k.iadd(r(5), Operand::Param(P_DATA), r(5)); // &data[gtid]
    k.shl(r(6), Operand::Param(P_TOTAL), 2i32); // byte stride
    k.label("loop");
    k.ld(r(7), r(5), 0);
    // bin = ((x & 0xff) · ((x >> 8) & 0xff)) >> 8
    k.and_(r(8), r(7), 0xffi32);
    k.shr(r(9), r(7), 8i32);
    k.and_(r(9), r(9), 0xffi32);
    k.imul(r(8), r(8), r(9));
    k.shr(r(8), r(8), 8i32);
    k.shl(r(8), r(8), 2i32);
    k.atom_add_shared(r(8), 0, 1i32);
    k.iadd(r(5), r(5), r(6));
    k.iadd(r(4), r(4), -1i32);
    k.isetp(warpweave_isa::p(0), warpweave_isa::CmpOp::Gt, r(4), 0i32);
    k.bra_if(warpweave_isa::p(0), "loop");
    k.bar();
    // Merge: thread t adds shared bin t into the global histogram.
    k.ld_shared(r(10), r(3), 0);
    k.iadd(r(11), Operand::Param(P_HIST), r(3));
    k.atom_add(r(11), 0, r(10));
    k.exit();
    k.build().expect("histogram assembles")
}

impl Workload for Histogram {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn category(&self) -> Category {
        Category::Irregular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (blocks, ept): (u32, u32) = match scale {
            Scale::Test => (4, 8),
            Scale::Bench => (32, 24),
        };
        let total_threads = blocks * 256;
        let n = total_threads * ept;
        let mut rng = Lcg(0x415);
        let data: Vec<u32> = (0..n).map(|_| rng.next()).collect();
        let mut expected = vec![0u32; BINS as usize];
        for &x in &data {
            expected[bin_of(x) as usize] += 1;
        }
        let (pdata, phist) = (region(0), region(1));
        let launch =
            Launch::new(program(ept), blocks, 256).with_params(vec![pdata, phist, total_threads]);
        Prepared {
            launches: vec![launch],
            inputs: vec![(pdata, data)],
            verify: Box::new(move |mem| {
                let hist = mem.read_words(phist, BINS as usize);
                let total: u64 = hist.iter().map(|&h| h as u64).sum();
                if total != n as u64 {
                    return Err(format!("histogram sums to {total}, expected {n}"));
                }
                assert_exact(&hist, &expected)
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
    fn bin_function_is_skewed() {
        let mut rng = Lcg(1);
        let mut counts = [0u32; 256];
        for _ in 0..10_000 {
            counts[bin_of(rng.next()) as usize] += 1;
        }
        // Low bins should be much hotter than high bins.
        let low: u32 = counts[..32].iter().sum();
        let high: u32 = counts[224..].iter().sum();
        assert!(low > 4 * high, "low {low} vs high {high}");
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), Histogram.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_swi() {
        run_prepared(&SmConfig::swi(), Histogram.prepare(Scale::Test), true).unwrap();
    }
}
