//! MatrixMul (CUDA SDK): tiled shared-memory matrix multiply — regular
//! control flow, barrier-synchronised tiles, fully coalesced loads.

use warpweave_core::Launch;
use warpweave_isa::{r, KernelBuilder, Operand, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct MatrixMul;

const TILE: u32 = 16;
const P_A: u8 = 0;
const P_B: u8 = 1;
const P_C: u8 = 2;

/// Builds the kernel for square `n × n` matrices (n a power of two ≥ 16).
/// One 256-thread block computes one 16×16 tile of C.
fn program(n: u32) -> Program {
    assert!(n.is_power_of_two() && n >= TILE);
    let log_nbx = (n / TILE).trailing_zeros() as i32;
    let mut k = KernelBuilder::new("matrix_mul");
    // Tile coordinates from the 1-D block index.
    k.mov(r(0), warpweave_isa::SpecialReg::CtaId);
    k.shr(r(1), r(0), log_nbx); // by
    k.and_(r(2), r(0), ((n / TILE) - 1) as i32); // bx
    k.mov(r(3), warpweave_isa::SpecialReg::Tid);
    k.and_(r(4), r(3), (TILE - 1) as i32); // tx
    k.shr(r(5), r(3), 4i32); // ty
                             // row = by·16 + ty, col = bx·16 + tx
    k.imad(r(6), r(1), TILE as i32, r(5));
    k.imad(r(7), r(2), TILE as i32, r(4));
    // A-row base: pA + (row·n + tx)·4 ; per-tile offset kt·64 bytes.
    k.imul(r(8), r(6), n as i32);
    k.iadd(r(8), r(8), r(4));
    k.shl(r(8), r(8), 2i32);
    k.iadd(r(8), Operand::Param(P_A), r(8));
    // B base: pB + (ty·n + col)·4 ; per-tile offset kt·16·n·4 bytes.
    k.imul(r(9), r(5), n as i32);
    k.iadd(r(9), r(9), r(7));
    k.shl(r(9), r(9), 2i32);
    k.iadd(r(9), Operand::Param(P_B), r(9));
    // Shared addresses: sA at tid·4, sB at 1024 + tid·4.
    k.shl(r(10), r(3), 2i32);
    // Inner-product shared bases: sA row = ty·64, sB col = 1024 + tx·4.
    k.shl(r(11), r(5), 6i32);
    k.shl(r(12), r(4), 2i32);
    k.mov(r(13), 0i32); // acc
    for kt in 0..(n / TILE) {
        k.ld(r(14), r(8), (kt * TILE * 4) as i32);
        k.ld(r(15), r(9), (kt * TILE * n * 4) as i32);
        k.st_shared(r(10), 0, r(14));
        k.st_shared(r(10), 1024, r(15));
        k.bar();
        for i in 0..TILE {
            k.ld_shared(r(16), r(11), (i * 4) as i32);
            k.ld_shared(r(17), r(12), (1024 + i * TILE * 4) as i32);
            k.imad(r(13), r(16), r(17), r(13));
        }
        k.bar();
    }
    // C[row][col]
    k.imul(r(18), r(6), n as i32);
    k.iadd(r(18), r(18), r(7));
    k.shl(r(18), r(18), 2i32);
    k.iadd(r(18), Operand::Param(P_C), r(18));
    k.st(r(18), 0, r(13));
    k.exit();
    k.build().expect("matrix_mul assembles")
}

fn host_matmul(a: &[u32], b: &[u32], n: usize) -> Vec<u32> {
    let mut c = vec![0u32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0u32;
            for kk in 0..n {
                acc = acc.wrapping_add(a[i * n + kk].wrapping_mul(b[kk * n + j]));
            }
            c[i * n + j] = acc;
        }
    }
    c
}

impl Workload for MatrixMul {
    fn name(&self) -> &'static str {
        "MatrixMul"
    }

    fn category(&self) -> Category {
        Category::Regular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let n: u32 = match scale {
            Scale::Test => 32,
            Scale::Bench => 128,
        };
        let mut rng = Lcg(0x3a7_1234);
        let a: Vec<u32> = (0..n * n).map(|_| rng.below(16)).collect();
        let b: Vec<u32> = (0..n * n).map(|_| rng.below(16)).collect();
        let expected = host_matmul(&a, &b, n as usize);
        let (pa, pb, pc) = (region(0), region(1), region(2));
        let blocks = (n / TILE) * (n / TILE);
        let launch = Launch::new(program(n), blocks, 256).with_params(vec![pa, pb, pc]);
        Prepared {
            launches: vec![launch],
            inputs: vec![(pa, a), (pb, b)],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_words(pc, (n * n) as usize), &expected)
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
    fn host_matmul_identity() {
        // 16×16 identity times arbitrary equals itself.
        let n = 16;
        let mut eye = vec![0u32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1;
        }
        let mut rng = Lcg(5);
        let m: Vec<u32> = (0..n * n).map(|_| rng.below(100)).collect();
        assert_eq!(host_matmul(&eye, &m, n), m);
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), MatrixMul.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_swi() {
        run_prepared(&SmConfig::swi(), MatrixMul.prepare(Scale::Test), true).unwrap();
    }
}
