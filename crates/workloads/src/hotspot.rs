//! Hotspot (Rodinia): 2-D thermal stencil with boundary handling — mostly
//! regular; only the border warps diverge.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, emit_gtid, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct Hotspot;

const P_T: u8 = 0;
const P_POWER: u8 = 1;
const P_OUT: u8 = 2;

/// One thread per cell of a `w × h` grid (w a power of two).
fn program(w: u32, h: u32) -> Program {
    let mut k = KernelBuilder::new("hotspot");
    emit_gtid(&mut k, r(0));
    k.and_(r(1), r(0), (w - 1) as i32); // x
    k.shr(r(2), r(0), w.trailing_zeros() as i32); // y
                                                  // interior iff (x-1)|(w-2-x)|(y-1)|(h-2-y) ≥ 0 (signed).
    k.iadd(r(3), r(1), -1i32);
    k.isub(r(4), (w - 2) as i32, r(1));
    k.or_(r(3), r(3), r(4));
    k.iadd(r(4), r(2), -1i32);
    k.or_(r(3), r(3), r(4));
    k.isub(r(4), (h - 2) as i32, r(2));
    k.or_(r(3), r(3), r(4));
    k.isetp(p(0), CmpOp::Ge, r(3), 0i32);
    // Cell addresses.
    k.shl(r(5), r(0), 2i32);
    k.iadd(r(6), Operand::Param(P_T), r(5));
    k.ld(r(7), r(6), 0); // t (center)
    k.iadd(r(8), Operand::Param(P_OUT), r(5));
    k.bra_ifn(p(0), "border");
    // Interior: t + 0.25·((n+s)+(e+w') − 4t) + 0.125·p
    k.ld(r(9), r(6), -((w * 4) as i32)); // north
    k.ld(r(10), r(6), (w * 4) as i32); // south
    k.ld(r(11), r(6), -4); // west
    k.ld(r(12), r(6), 4); // east
    k.iadd(r(13), Operand::Param(P_POWER), r(5));
    k.ld(r(13), r(13), 0);
    k.fadd(r(9), r(9), r(10));
    k.fadd(r(11), r(11), r(12));
    k.fadd(r(9), r(9), r(11));
    k.fmul(r(10), r(7), 4.0f32);
    k.fsub(r(9), r(9), r(10));
    k.ffma(r(9), r(9), 0.25f32, r(7));
    k.ffma(r(9), r(13), 0.125f32, r(9));
    k.st(r(8), 0, r(9));
    k.exit();
    k.label("border");
    k.st(r(8), 0, r(7)); // boundary keeps its temperature
    k.exit();
    k.build().expect("hotspot assembles")
}

fn host_step(t: &[f32], pw: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x == 0 || x == w - 1 || y == 0 || y == h - 1 {
                out[i] = t[i];
            } else {
                let ns = t[i - w] + t[i + w];
                let ew = t[i - 1] + t[i + 1];
                let sum = ns + ew - t[i] * 4.0;
                out[i] = pw[i].mul_add(0.125, sum.mul_add(0.25, t[i]));
            }
        }
    }
    out
}

impl Workload for Hotspot {
    fn name(&self) -> &'static str {
        "Hotspot"
    }

    fn category(&self) -> Category {
        Category::Regular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (w, h, steps): (u32, u32, usize) = match scale {
            Scale::Test => (32, 32, 2),
            Scale::Bench => (64, 64, 6),
        };
        let mut rng = Lcg(0x407);
        // Small integers keep every f32 op exact (coefficients are dyadic).
        let t: Vec<f32> = (0..w * h).map(|_| rng.below(64) as f32).collect();
        let pw: Vec<f32> = (0..w * h).map(|_| rng.below(16) as f32).collect();
        let mut expected = t.clone();
        for _ in 0..steps {
            expected = host_step(&expected, &pw, w as usize, h as usize);
        }
        let (pt, ppow, pout) = (region(0), region(1), region(2));
        // Ping-pong between the two buffers, one launch per time step.
        let launches = (0..steps)
            .map(|s| {
                let (src, dst) = if s % 2 == 0 { (pt, pout) } else { (pout, pt) };
                Launch::new(program(w, h), w * h / 256, 256).with_params(vec![src, ppow, dst])
            })
            .collect::<Vec<_>>();
        let final_buf = if steps % 2 == 1 { pout } else { pt };
        Prepared {
            launches,
            inputs: vec![
                (pt, t.iter().map(|v| v.to_bits()).collect()),
                (ppow, pw.iter().map(|v| v.to_bits()).collect()),
            ],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_f32s(final_buf, (w * h) as usize), &expected)
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
    fn host_uniform_field_is_stationary() {
        let t = vec![5.0f32; 16 * 16];
        let pw = vec![0.0f32; 16 * 16];
        assert_eq!(host_step(&t, &pw, 16, 16), t);
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), Hotspot.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_sbi() {
        run_prepared(&SmConfig::sbi(), Hotspot.prepare(Scale::Test), true).unwrap();
    }
}
