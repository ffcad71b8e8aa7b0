//! Shared helpers for workload kernels: address-space layout, common
//! assembler idioms, a deterministic input generator and the two result
//! comparisons (exact and within a tolerance).

use std::fmt;

use warpweave_isa::{r, KernelBuilder, Operand, Reg, SpecialReg};

/// Byte address of data region `i` (regions are 4 MiB apart — workloads
/// place each array in its own region so layouts can never overlap).
pub const fn region(i: u32) -> u32 {
    0x0040_0000 * (i + 1)
}

/// Emits `dst = ctaid * ntid + tid` (the global thread index).
pub fn emit_gtid(k: &mut KernelBuilder, dst: Reg) {
    k.mov(dst, SpecialReg::CtaId);
    k.imad(dst, dst, SpecialReg::NTid, SpecialReg::Tid);
}

/// Emits `dst = param[p] + (index << 2)` — the byte address of element
/// `index` of the array whose base is launch parameter `p`.
pub fn emit_elem_addr(k: &mut KernelBuilder, dst: Reg, p: u8, index: Reg) {
    k.shl(dst, index, 2i32);
    k.iadd(dst, Operand::Param(p), dst);
}

/// A tiny deterministic 32-bit LCG used both to generate inputs on the host
/// and (instruction-by-instruction) inside kernels, so results verify
/// exactly.
#[derive(Debug, Clone, Copy)]
pub struct Lcg(pub u32);

/// The LCG multiplier (Numerical Recipes).
pub const LCG_A: u32 = 1664525;
/// The LCG increment.
pub const LCG_C: u32 = 1013904223;

impl Lcg {
    /// Advances and returns the next state.
    #[allow(clippy::should_implement_trait)] // an RNG step, not an Iterator
    pub fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        self.0
    }

    /// Next value reduced to `0..bound`.
    pub fn below(&mut self, bound: u32) -> u32 {
        self.next() % bound.max(1)
    }

    /// Next value as an `f32` in `[0, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next() >> 8) as f32 / (1u32 << 24) as f32
    }
}

/// Emits one LCG step in-place on register `state`:
/// `state = state * LCG_A + LCG_C`.
pub fn emit_lcg_step(k: &mut KernelBuilder, state: Reg) {
    k.imad(state, state, LCG_A as i32, LCG_C as i32);
}

/// Compares two `f32` slices within a relative tolerance.
///
/// # Errors
/// Describes the first mismatching element.
pub fn assert_close(actual: &[f32], expected: &[f32], rel_tol: f32) -> Result<(), String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        ));
    }
    for (i, (&a, &e)) in actual.iter().zip(expected).enumerate() {
        let scale = e.abs().max(1.0);
        if !(a - e).abs().le(&(rel_tol * scale)) {
            return Err(format!("element {i}: got {a}, expected {e}"));
        }
    }
    Ok(())
}

/// Compares two slices exactly: the twin of [`assert_close`] for results
/// the host reference reproduces bit for bit.
///
/// # Errors
/// A length mismatch, or the first mismatching element.
pub fn assert_exact<T: PartialEq + fmt::Display>(
    actual: &[T],
    expected: &[T],
) -> Result<(), String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "length mismatch: {} vs {}",
            actual.len(),
            expected.len()
        ));
    }
    match actual.iter().zip(expected).position(|(a, e)| a != e) {
        Some(i) => Err(format!(
            "element {i}: got {}, expected {}",
            actual[i], expected[i]
        )),
        None => Ok(()),
    }
}

/// Shorthand register constructor re-exported for kernels.
pub use warpweave_isa::reg::p as pr;

/// Returns registers `r0..` as a convenience array.
pub fn regs<const N: usize>() -> [Reg; N] {
    std::array::from_fn(|i| r(i as u8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        for i in 0..16 {
            assert_eq!(region(i) % 128, 0);
            assert!(region(i + 1) - region(i) == 0x0040_0000);
        }
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        assert!(Lcg(1).below(10) < 10);
        let u = Lcg(7).unit_f32();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn close_comparison() {
        assert!(assert_close(&[1.0, 2.0], &[1.0, 2.0 + 1e-6], 1e-4).is_ok());
        assert!(assert_close(&[1.0], &[1.1], 1e-4).is_err());
        assert!(assert_close(&[1.0], &[1.0, 2.0], 1e-4).is_err());
        // NaNs never pass.
        assert!(assert_close(&[f32::NAN], &[1.0], 1e-4).is_err());
    }

    #[test]
    fn exact_comparison() {
        assert!(assert_exact(&[1u32, 2], &[1, 2]).is_ok());
        assert_eq!(
            assert_exact(&[1u32, 3], &[1, 2]),
            Err("element 1: got 3, expected 2".into())
        );
        assert!(assert_exact(&[1u32], &[1, 2]).is_err());
        assert!(assert_exact(&[f32::NAN], &[f32::NAN]).is_err());
    }
}
