//! 3DFD (CUDA SDK): 3-D finite-difference stencil — one thread per (x, y)
//! column sweeping z; uniform loop, boundary branch per plane; regular.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, emit_gtid, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct ThreeDfd;

const P_IN: u8 = 0;
const P_OUT: u8 = 1;

/// 7-point stencil over an `nx × ny × nz` volume; `nx` a power of two.
fn program(nx: u32, ny: u32, nz: u32) -> Program {
    let plane4 = (nx * ny * 4) as i32;
    let mut k = KernelBuilder::new("threedfd");
    emit_gtid(&mut k, r(0));
    k.and_(r(1), r(0), (nx - 1) as i32); // x
    k.shr(r(2), r(0), nx.trailing_zeros() as i32); // y
                                                   // interior(x, y) via the sign trick
    k.iadd(r(3), r(1), -1i32);
    k.isub(r(4), (nx - 2) as i32, r(1));
    k.or_(r(3), r(3), r(4));
    k.iadd(r(4), r(2), -1i32);
    k.or_(r(3), r(3), r(4));
    k.isub(r(4), (ny - 2) as i32, r(2));
    k.or_(r(3), r(3), r(4));
    k.isetp(p(0), CmpOp::Ge, r(3), 0i32);
    // Column addresses at z = 1.
    k.shl(r(5), r(0), 2i32);
    k.iadd(r(6), Operand::Param(P_IN), r(5));
    k.iadd(r(6), r(6), plane4);
    k.iadd(r(7), Operand::Param(P_OUT), r(5));
    k.iadd(r(7), r(7), plane4);
    // Copy the z = 0 and z = nz−1 planes (all threads).
    k.ld(r(8), r(6), -plane4);
    k.st(r(7), -plane4, r(8));
    k.ld(r(8), r(6), ((nz - 2) * nx * ny * 4) as i32);
    k.st(r(7), ((nz - 2) * nx * ny * 4) as i32, r(8));
    // Sweep z = 1 .. nz−2.
    k.mov(r(9), nz as i32 - 2);
    k.label("zloop");
    k.ld(r(10), r(6), 0); // centre
    k.bra_ifn(p(0), "border");
    k.ld(r(11), r(6), -4);
    k.ld(r(12), r(6), 4);
    k.fadd(r(11), r(11), r(12));
    k.ld(r(12), r(6), -((nx * 4) as i32));
    k.ld(r(13), r(6), (nx * 4) as i32);
    k.fadd(r(12), r(12), r(13));
    k.ld(r(13), r(6), -plane4);
    k.ld(r(14), r(6), plane4);
    k.fadd(r(13), r(13), r(14));
    k.fadd(r(11), r(11), r(12));
    k.fadd(r(11), r(11), r(13));
    k.fmul(r(15), r(10), 0.25f32);
    k.ffma(r(15), r(11), 0.125f32, r(15));
    k.bra("store");
    k.label("border");
    k.mov(r(15), r(10));
    k.label("store");
    k.st(r(7), 0, r(15));
    k.iadd(r(6), r(6), plane4);
    k.iadd(r(7), r(7), plane4);
    k.iadd(r(9), r(9), -1i32);
    k.isetp(p(1), CmpOp::Gt, r(9), 0i32);
    k.bra_if(p(1), "zloop");
    k.exit();
    k.build().expect("threedfd assembles")
}

fn host_stencil(input: &[f32], nx: usize, ny: usize, nz: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let border =
                    x == 0 || x == nx - 1 || y == 0 || y == ny - 1 || z == 0 || z == nz - 1;
                out[i] = if border {
                    input[i]
                } else {
                    let sx = input[i - 1] + input[i + 1];
                    let sy = input[i - nx] + input[i + nx];
                    let sz = input[i - nx * ny] + input[i + nx * ny];
                    let s = sx + sy + sz;
                    s.mul_add(0.125, input[i] * 0.25)
                };
            }
        }
    }
    out
}

impl Workload for ThreeDfd {
    fn name(&self) -> &'static str {
        "3DFD"
    }

    fn category(&self) -> Category {
        Category::Regular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (nx, ny, nz): (u32, u32, u32) = match scale {
            Scale::Test => (32, 16, 8),
            Scale::Bench => (64, 32, 32),
        };
        let mut rng = Lcg(0x3dfd);
        let input: Vec<f32> = (0..nx * ny * nz).map(|_| rng.below(64) as f32).collect();
        let expected = host_stencil(&input, nx as usize, ny as usize, nz as usize);
        let (pin, pout) = (region(0), region(1));
        let launch =
            Launch::new(program(nx, ny, nz), nx * ny / 256, 256).with_params(vec![pin, pout]);
        Prepared {
            launches: vec![launch],
            inputs: vec![(pin, input.iter().map(|v| v.to_bits()).collect())],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_f32s(pout, (nx * ny * nz) as usize), &expected)
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
    fn host_constant_volume_is_stationary() {
        // With c0 + 6·c1 = 0.25 + 0.75 = 1, a constant field is unchanged.
        let v = vec![8.0f32; 16 * 16 * 4];
        assert_eq!(host_stencil(&v, 16, 16, 4), v);
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), ThreeDfd.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_warp64() {
        run_prepared(&SmConfig::warp64(), ThreeDfd.prepare(Scale::Test), true).unwrap();
    }
}
