//! Struct-of-arrays warp register file.
//!
//! The per-thread layout ([`crate::exec::ThreadRegs`], one heap `Vec<u32>`
//! per lane) scattered every architectural register across `width`
//! allocations, so the execute path touched `width` cache lines per operand
//! and the compiler could not vectorise anything. [`WarpRegFile`] stores the
//! same state register-major instead:
//!
//! ```text
//!            lane 0   lane 1   lane 2  …  lane w-1
//! r0      [  u32   |  u32   |  u32   | … |  u32  ]   ← one contiguous row
//! r1      [  u32   |  u32   |  u32   | … |  u32  ]
//! …
//! r63     [  u32   |  u32   |  u32   | … |  u32  ]
//! ```
//!
//! One flat `Vec<u32>` of `NUM_REGS × width` words: register `r` of lane `t`
//! lives at index `r * width + t`, so a warp-level operation reads and
//! writes contiguous rows the compiler can autovectorise. Predicates are
//! bitmasks — `preds[p]` holds predicate `p` of every lane, bit `t` = lane
//! `t` — so a guard evaluates as a single AND/ANDN against the active mask
//! instead of `width` boolean loads (warps go up to 64 wide, hence `u64`
//! rows, matching [`Mask`]).
//!
//! The scalar per-thread path in [`crate::exec`] is retained purely as the
//! differential-test reference; the pipeline executes through
//! [`crate::exec::execute_rows`] on this layout.

use warpweave_isa::{Guard, NUM_PREDS, NUM_REGS};

use crate::mask::Mask;

/// Struct-of-arrays architectural state of one warp: `NUM_REGS` lane-
/// contiguous register rows plus `NUM_PREDS` predicate bitmasks.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpRegFile {
    width: usize,
    /// Register-major storage: row `r` is `regs[r*width .. (r+1)*width]`.
    regs: Vec<u32>,
    /// Predicate bitmasks: bit `t` of `preds[p]` is predicate `p` of lane
    /// `t`. Bits at and above `width` are always zero.
    preds: [u64; NUM_PREDS],
}

impl WarpRegFile {
    /// A zero-initialised register file for a `width`-lane warp.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds 64 (the [`Mask`] limit).
    pub fn new(width: usize) -> WarpRegFile {
        assert!(width > 0 && width <= 64, "warp width {width} out of range");
        WarpRegFile {
            width,
            regs: vec![0; NUM_REGS * width],
            preds: [0; NUM_PREDS],
        }
    }

    /// The warp width this file was sized for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Zero-fills every register row and predicate bitmask **in place** —
    /// the block-launch reset, reusing the existing allocation.
    pub fn reset(&mut self) {
        self.regs.fill(0);
        self.preds = [0; NUM_PREDS];
    }

    /// Register row `r` across all lanes (lane `t` at index `t`).
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.regs[r * self.width..(r + 1) * self.width]
    }

    /// Mutable register row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u32] {
        &mut self.regs[r * self.width..(r + 1) * self.width]
    }

    /// Reads register `r` of lane `t`.
    #[inline]
    pub fn reg(&self, t: usize, r: usize) -> u32 {
        self.regs[r * self.width + t]
    }

    /// Writes register `r` of lane `t`.
    #[inline]
    pub fn set_reg(&mut self, t: usize, r: usize, v: u32) {
        self.regs[r * self.width + t] = v;
    }

    /// The bitmask of predicate `p` across all lanes.
    #[inline]
    pub fn pred_bits(&self, p: usize) -> u64 {
        self.preds[p]
    }

    /// Replaces the bitmask of predicate `p`. Bits at and above the warp
    /// width must be zero (callers mask writes with the active mask).
    #[inline]
    pub fn set_pred_bits(&mut self, p: usize, bits: u64) {
        debug_assert_eq!(
            bits & !Mask::full(self.width).bits(),
            0,
            "predicate bits beyond warp width"
        );
        self.preds[p] = bits;
    }

    /// Reads predicate `p` of lane `t`.
    #[inline]
    pub fn pred(&self, t: usize, p: usize) -> bool {
        (self.preds[p] >> t) & 1 == 1
    }

    /// Writes predicate `p` of lane `t`.
    #[inline]
    pub fn set_pred(&mut self, t: usize, p: usize, v: bool) {
        if v {
            self.preds[p] |= 1 << t;
        } else {
            self.preds[p] &= !(1 << t);
        }
    }

    /// The lanes whose state passes `guard`: the full warp for an
    /// unguarded instruction, otherwise one AND (sense `@p`) or ANDN
    /// (sense `@!p`) against the predicate bitmask.
    #[inline]
    pub fn guard_mask(&self, guard: Option<Guard>) -> Mask {
        match guard {
            None => Mask::full(self.width),
            Some(g) => {
                let bits = self.preds[g.pred.index()];
                if g.sense {
                    Mask::from_bits(bits)
                } else {
                    Mask::full(self.width) - Mask::from_bits(bits)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_isa::p;

    #[test]
    fn rows_are_lane_contiguous() {
        let mut rf = WarpRegFile::new(8);
        for t in 0..8 {
            rf.set_reg(t, 3, 100 + t as u32);
        }
        assert_eq!(rf.row(3), &[100, 101, 102, 103, 104, 105, 106, 107]);
        assert_eq!(rf.reg(5, 3), 105);
        assert!(rf.row(2).iter().all(|&v| v == 0));
    }

    #[test]
    fn predicate_bitmask_roundtrip() {
        let mut rf = WarpRegFile::new(32);
        rf.set_pred(0, 1, true);
        rf.set_pred(7, 1, true);
        assert_eq!(rf.pred_bits(1), 0b1000_0001);
        assert!(rf.pred(7, 1));
        rf.set_pred(7, 1, false);
        assert_eq!(rf.pred_bits(1), 1);
    }

    #[test]
    fn guard_mask_and_andn() {
        let mut rf = WarpRegFile::new(4);
        rf.set_pred_bits(2, 0b0101);
        assert_eq!(rf.guard_mask(None), Mask::full(4));
        assert_eq!(
            rf.guard_mask(Some(Guard::if_true(p(2)))),
            Mask::from_bits(0b0101)
        );
        assert_eq!(
            rf.guard_mask(Some(Guard::if_false(p(2)))),
            Mask::from_bits(0b1010)
        );
    }

    #[test]
    fn reset_zero_fills_in_place() {
        let mut rf = WarpRegFile::new(16);
        rf.set_reg(9, 60, 7);
        rf.set_pred(9, 6, true);
        let cap = {
            rf.reset();
            rf.row(60).as_ptr()
        };
        assert_eq!(rf.reg(9, 60), 0);
        assert_eq!(rf.pred_bits(6), 0);
        // Same backing storage after reset (no reallocation).
        assert_eq!(cap, rf.row(60).as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_over_64_rejected() {
        WarpRegFile::new(65);
    }
}
