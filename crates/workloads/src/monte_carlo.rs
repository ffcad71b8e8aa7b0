//! MonteCarlo (CUDA SDK): per-thread pseudo-random sampling (π estimation
//! variant) — uniform loop trip counts, SFU square roots, predicated
//! accumulation; regular.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{emit_elem_addr, emit_gtid, emit_lcg_step, region, LCG_A, LCG_C};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct MonteCarlo;

const P_OUT: u8 = 0;
const SEED_MIX: u32 = 0x9e37_79b9;
const INV_2_24: f32 = 1.0 / (1 << 24) as f32;

fn program(samples: u32) -> Program {
    let mut k = KernelBuilder::new("monte_carlo");
    emit_gtid(&mut k, r(0));
    // state = gtid · SEED_MIX + 1
    k.imad(r(1), r(0), SEED_MIX as i32, 1i32);
    k.mov(r(2), 0i32); // hits
    k.mov(r(3), samples as i32); // remaining
    k.label("loop");
    emit_lcg_step(&mut k, r(1));
    k.shr(r(4), r(1), 8i32);
    k.i2f(r(4), r(4));
    k.fmul(r(4), r(4), INV_2_24); // x ∈ [0,1)
    emit_lcg_step(&mut k, r(1));
    k.shr(r(5), r(1), 8i32);
    k.i2f(r(5), r(5));
    k.fmul(r(5), r(5), INV_2_24); // y
    k.fmul(r(6), r(4), r(4));
    k.ffma(r(6), r(5), r(5), r(6)); // x² + y²
    k.sqrt(r(6), r(6)); // SFU exercise
    k.fsetp(p(0), CmpOp::Le, r(6), 1.0f32);
    k.guard_t(p(0)).iadd(r(2), r(2), 1i32);
    k.iadd(r(3), r(3), -1i32);
    k.isetp(p(1), CmpOp::Gt, r(3), 0i32);
    k.bra_if(p(1), "loop");
    emit_elem_addr(&mut k, r(7), P_OUT, r(0));
    k.st(r(7), 0, r(2));
    k.exit();
    k.build().expect("monte_carlo assembles")
}

/// Host mirror: identical integer LCG and f32 arithmetic → exact counts.
fn host_hits(gtid: u32, samples: u32) -> u32 {
    let mut state = gtid.wrapping_mul(SEED_MIX).wrapping_add(1);
    let mut step = || {
        state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        state
    };
    let mut hits = 0;
    for _ in 0..samples {
        let x = (step() >> 8) as f32 * INV_2_24;
        let y = (step() >> 8) as f32 * INV_2_24;
        let d = y.mul_add(y, x * x).sqrt();
        if d <= 1.0 {
            hits += 1;
        }
    }
    hits
}

impl Workload for MonteCarlo {
    fn name(&self) -> &'static str {
        "MonteCarlo"
    }

    fn category(&self) -> Category {
        Category::Regular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (threads, samples): (u32, u32) = match scale {
            Scale::Test => (1024, 16),
            Scale::Bench => (4096, 96),
        };
        let pout = region(0);
        let launch = Launch::new(program(samples), threads / 256, 256).with_params(vec![pout]);
        Prepared {
            launches: vec![launch],
            inputs: vec![],
            verify: Box::new(move |mem| {
                let out = mem.read_words(pout, threads as usize);
                let mut total = 0u64;
                for (i, &got) in out.iter().enumerate() {
                    let want = host_hits(i as u32, samples);
                    if got != want {
                        return Err(format!("thread {i}: {got} hits, expected {want}"));
                    }
                    total += got as u64;
                }
                // Sanity: the estimate should approximate π/4.
                let ratio = total as f64 / (threads as u64 * samples as u64) as f64;
                if (ratio - std::f64::consts::FRAC_PI_4).abs() > 0.05 {
                    return Err(format!("hit ratio {ratio:.3} far from π/4"));
                }
                Ok(())
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
    fn host_hits_estimates_pi() {
        let total: u64 = (0..256).map(|t| host_hits(t, 64) as u64).sum();
        let ratio = total as f64 / (256.0 * 64.0);
        assert!((ratio - std::f64::consts::FRAC_PI_4).abs() < 0.05);
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), MonteCarlo.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_sbi() {
        run_prepared(&SmConfig::sbi(), MonteCarlo.prepare(Scale::Test), true).unwrap();
    }
}
