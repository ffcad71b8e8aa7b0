//! ConvolutionSeparable (CUDA SDK): separable 2-D convolution as a row pass
//! followed by a column pass — interior threads run uniformly but image-edge
//! warps diverge on every boundary tap, which together with 64-wide warps
//! pushes it into the paper's irregular set.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, emit_gtid, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct ConvolutionSeparable;

/// Kernel radius (17 taps).
const RADIUS: i32 = 8;
const P_IN: u8 = 0;
const P_OUT: u8 = 1;

/// Dyadic tap weights: exact in f32 for small-integer images.
fn weight(t: i32) -> f32 {
    1.0 / (1u32 << (t.unsigned_abs() + 1)) as f32
}

/// `dir = 0`: row pass (taps along x); `dir = 1`: column pass (along y).
fn program(w: u32, h: u32, dir: u32) -> Program {
    let name = if dir == 0 { "conv_rows" } else { "conv_cols" };
    let mut k = KernelBuilder::new(name);
    emit_gtid(&mut k, r(0));
    k.and_(r(1), r(0), (w - 1) as i32); // x
    k.shr(r(2), r(0), w.trailing_zeros() as i32); // y
    k.shl(r(3), r(0), 2i32);
    k.iadd(r(4), Operand::Param(P_IN), r(3)); // &in[pixel]
    k.mov(r(5), 0.0f32); // acc
    let (coord, limit, stride) = if dir == 0 {
        (r(1), w as i32, 4i32)
    } else {
        (r(2), h as i32, (w * 4) as i32)
    };
    for t in -RADIUS..=RADIUS {
        let skip = format!("skip{}", t + RADIUS);
        // ct = coord + t ; in range iff ct | (limit-1-ct) ≥ 0
        k.iadd(r(6), coord, t);
        k.isub(r(7), limit - 1, r(6));
        k.or_(r(7), r(7), r(6));
        k.isetp(p(0), CmpOp::Lt, r(7), 0i32);
        k.bra_if(p(0), skip.clone());
        k.ld(r(8), r(4), t * stride);
        k.ffma(r(5), r(8), weight(t), r(5));
        k.label(skip);
    }
    k.iadd(r(9), Operand::Param(P_OUT), r(3));
    k.st(r(9), 0, r(5));
    k.exit();
    k.build().expect("convolution assembles")
}

fn host_pass(input: &[f32], w: usize, h: usize, dir: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for t in -RADIUS..=RADIUS {
                let (cx, cy) = if dir == 0 {
                    (x as i32 + t, y as i32)
                } else {
                    (x as i32, y as i32 + t)
                };
                if cx >= 0 && (cx as usize) < w && cy >= 0 && (cy as usize) < h {
                    acc = input[cy as usize * w + cx as usize].mul_add(weight(t), acc);
                }
            }
            out[y * w + x] = acc;
        }
    }
    out
}

impl Workload for ConvolutionSeparable {
    fn name(&self) -> &'static str {
        "ConvolutionSeparable"
    }

    fn category(&self) -> Category {
        Category::Irregular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (w, h): (u32, u32) = match scale {
            Scale::Test => (32, 32),
            Scale::Bench => (32, 256),
        };
        let mut rng = Lcg(0xc0a7);
        let input: Vec<f32> = (0..w * h).map(|_| rng.below(256) as f32).collect();
        let rows = host_pass(&input, w as usize, h as usize, 0);
        let expected = host_pass(&rows, w as usize, h as usize, 1);
        let (pin, pmid) = (region(0), region(1));
        let blocks = w * h / 256;
        let launches = vec![
            Launch::new(program(w, h, 0), blocks, 256).with_params(vec![pin, pmid]),
            Launch::new(program(w, h, 1), blocks, 256).with_params(vec![pmid, pin]),
        ];
        Prepared {
            launches,
            inputs: vec![(pin, input.iter().map(|v| v.to_bits()).collect())],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_f32s(pin, (w * h) as usize), &expected)
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
    fn weights_are_symmetric() {
        for t in 1..=RADIUS {
            assert_eq!(weight(t), weight(-t));
        }
        assert_eq!(weight(0), 0.5);
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(
            &SmConfig::baseline(),
            ConvolutionSeparable.prepare(Scale::Test),
            true,
        )
        .unwrap();
    }

    #[test]
    fn verifies_on_sbi() {
        run_prepared(
            &SmConfig::sbi(),
            ConvolutionSeparable.prepare(Scale::Test),
            true,
        )
        .unwrap();
    }
}
