//! Transpose (CUDA SDK): tiled matrix transpose through shared memory —
//! pure data movement, fully regular, memory-bandwidth bound.

use warpweave_core::Launch;
use warpweave_isa::{r, KernelBuilder, Operand, Program, SpecialReg};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct Transpose;

const TILE: u32 = 16;
const P_IN: u8 = 0;
const P_OUT: u8 = 1;

/// One 256-thread block transposes one 16×16 tile of a `w × h` matrix
/// (`w` columns, `h` rows; both powers of two).
fn program(w: u32, h: u32) -> Program {
    assert!(w.is_power_of_two() && h.is_power_of_two());
    let nbx = w / TILE;
    let mut k = KernelBuilder::new("transpose");
    k.mov(r(0), SpecialReg::CtaId);
    k.shr(r(1), r(0), nbx.trailing_zeros() as i32); // by
    k.and_(r(2), r(0), (nbx - 1) as i32); // bx
    k.mov(r(3), SpecialReg::Tid);
    k.and_(r(4), r(3), (TILE - 1) as i32); // tx
    k.shr(r(5), r(3), 4i32); // ty
                             // in[(by·16+ty)·w + bx·16+tx]
    k.imad(r(6), r(1), TILE as i32, r(5));
    k.imul(r(6), r(6), w as i32);
    k.imad(r(7), r(2), TILE as i32, r(4));
    k.iadd(r(6), r(6), r(7));
    k.shl(r(6), r(6), 2i32);
    k.iadd(r(6), Operand::Param(P_IN), r(6));
    k.ld(r(8), r(6), 0);
    // shared[ty][tx]
    k.shl(r(9), r(3), 2i32);
    k.st_shared(r(9), 0, r(8));
    k.bar();
    // shared[tx][ty]
    k.imad(r(10), r(4), TILE as i32, r(5));
    k.shl(r(10), r(10), 2i32);
    k.ld_shared(r(11), r(10), 0);
    // out[(bx·16+ty)·h + by·16+tx]
    k.imad(r(12), r(2), TILE as i32, r(5));
    k.imul(r(12), r(12), h as i32);
    k.imad(r(13), r(1), TILE as i32, r(4));
    k.iadd(r(12), r(12), r(13));
    k.shl(r(12), r(12), 2i32);
    k.iadd(r(12), Operand::Param(P_OUT), r(12));
    k.st(r(12), 0, r(11));
    k.exit();
    k.build().expect("transpose assembles")
}

impl Workload for Transpose {
    fn name(&self) -> &'static str {
        "Transpose"
    }

    fn category(&self) -> Category {
        Category::Regular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (w, h): (u32, u32) = match scale {
            Scale::Test => (64, 32),
            Scale::Bench => (256, 128),
        };
        let mut rng = Lcg(0x7a05);
        let input: Vec<u32> = (0..w * h).map(|_| rng.next()).collect();
        let (pin, pout) = (region(0), region(1));
        let blocks = (w / TILE) * (h / TILE);
        let launch = Launch::new(program(w, h), blocks, 256).with_params(vec![pin, pout]);
        let expected: Vec<u32> = (0..w * h)
            .map(|i| {
                let (x, y) = (i % h, i / h); // out is w columns × ... transposed
                input[(x * w + y) as usize]
            })
            .collect();
        Prepared {
            launches: vec![launch],
            inputs: vec![(pin, input)],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_words(pout, (w * h) as usize), &expected)
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
        run_prepared(&SmConfig::baseline(), Transpose.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_warp64() {
        run_prepared(&SmConfig::warp64(), Transpose.prepare(Scale::Test), true).unwrap();
    }
}
