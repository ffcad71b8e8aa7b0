//! Static lane-shuffling policies (paper §4, table 1).
//!
//! Many kernels exhibit *correlated* imbalance: thread 0 of every warp gets
//! the most work, so the free-lane gaps of different warps line up and SWI
//! finds no non-overlapping partner. Lane shuffling permutes the
//! thread→lane mapping per warp — "it requires no additional hardware nor
//! data migration" — so gaps of different warps fall on different lanes.
//! Memory coalescing is unaffected: addresses depend on thread IDs, not
//! lanes.

use crate::mask::Mask;

/// The five static thread→lane mappings of table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneShuffle {
    /// `lane = tid` (the paper's "Linear" reference).
    #[default]
    Identity,
    /// `lane = n - tid` for odd warps, `tid` otherwise (n = width-1).
    MirrorOdd,
    /// `lane = n - tid` for warps in the upper half of the pool.
    MirrorHalf,
    /// `lane = tid ⊕ wid` (warp id folded into the lane-index bits).
    Xor,
    /// `lane = tid ⊕ bitrev(wid)` — bit-reversed warp id; the paper's most
    /// consistent policy.
    XorRev,
}

impl LaneShuffle {
    /// All policies, in table 1 order.
    pub const ALL: [LaneShuffle; 5] = [
        LaneShuffle::Identity,
        LaneShuffle::MirrorOdd,
        LaneShuffle::MirrorHalf,
        LaneShuffle::Xor,
        LaneShuffle::XorRev,
    ];

    /// The paper's label for this policy.
    pub fn name(self) -> &'static str {
        match self {
            LaneShuffle::Identity => "Identity",
            LaneShuffle::MirrorOdd => "MirrorOdd",
            LaneShuffle::MirrorHalf => "MirrorHalf",
            LaneShuffle::Xor => "Xor",
            LaneShuffle::XorRev => "XorRev",
        }
    }

    /// The per-warp XOR key: every policy of table 1 is `lane = tid ⊕
    /// key(wid)` (a mirror `n - tid` is `tid ⊕ n` for `n = width - 1`).
    ///
    /// `width` must be a power of two; `num_warps` is the pool size `m` used
    /// by `MirrorHalf`.
    pub fn key(self, wid: usize, width: usize, num_warps: usize) -> usize {
        debug_assert!(width.is_power_of_two());
        let n = width - 1;
        match self {
            LaneShuffle::Identity => 0,
            LaneShuffle::MirrorOdd => n * (wid % 2),
            LaneShuffle::MirrorHalf => n * usize::from(wid > num_warps / 2),
            LaneShuffle::Xor => wid & n,
            LaneShuffle::XorRev => bitrev(wid, width.trailing_zeros()) & n,
        }
    }

    /// Maps thread-in-warp `tid` of warp `wid` to a physical lane. The
    /// mapping is a bijection on `0..width` for every `wid`.
    pub fn lane(self, tid: usize, wid: usize, width: usize, num_warps: usize) -> usize {
        debug_assert!(tid < width);
        tid ^ self.key(wid, width, num_warps)
    }

    /// Writes the thread→lane mapping of warp `wid` into `out` (index =
    /// thread-in-warp, value = physical lane), reusing the allocation.
    /// This is the SoA row the launch path seeds into
    /// [`crate::launch::WarpInfo`] and `execute_rows` reads when it
    /// materialises the `laneid` special register.
    pub fn fill_lanes(self, out: &mut Vec<u32>, wid: usize, width: usize, num_warps: usize) {
        out.clear();
        out.extend((0..width).map(|t| self.lane(t, wid, width, num_warps) as u32));
    }

    /// Translates a thread-space mask into lane space for warp `wid`.
    ///
    /// This is the per-bit reference; the pipeline uses the closed-form
    /// [`LaneTable::mask_to_lanes`] instead — the SWI mask lookup
    /// translates a mask per ready instruction, which made the per-bit walk
    /// a measurable hot path.
    pub fn mask_to_lanes(self, mask: Mask, wid: usize, width: usize, num_warps: usize) -> Mask {
        mask.iter()
            .map(|tid| self.lane(tid, wid, width, num_warps))
            .collect()
    }

    /// Precomputes the per-warp XOR keys for a pool of `num_warps` warps of
    /// `width` threads (built once at SM construction).
    pub fn table(self, width: usize, num_warps: usize) -> LaneTable {
        LaneTable {
            keys: (0..num_warps)
                .map(|wid| self.key(wid, width, num_warps) as u8)
                .collect(),
        }
    }
}

/// One XOR key per warp. Because every policy is `lane = tid ⊕ key`,
/// translating a whole mask is a butterfly: for each set key bit `b`, swap
/// the mask's adjacent `2^b`-bit blocks — at most six masked shifts on the
/// `u64`, independent of the population. Exactly equivalent to the per-bit
/// [`LaneShuffle::mask_to_lanes`] (asserted by `table_matches_reference`).
#[derive(Debug, Clone)]
pub struct LaneTable {
    keys: Vec<u8>,
}

impl LaneTable {
    /// Translates a thread-space `mask` of warp `wid` into lane space.
    pub fn mask_to_lanes(&self, mask: Mask, wid: usize) -> Mask {
        /// Bits whose index has bit `b` clear (the low block of each pair).
        const LOW: [u64; 6] = [
            0x5555_5555_5555_5555,
            0x3333_3333_3333_3333,
            0x0f0f_0f0f_0f0f_0f0f,
            0x00ff_00ff_00ff_00ff,
            0x0000_ffff_0000_ffff,
            0x0000_0000_ffff_ffff,
        ];
        let mut key = self.keys[wid];
        let mut x = mask.bits();
        while key != 0 {
            let b = key.trailing_zeros() as usize;
            key &= key - 1;
            x = ((x & LOW[b]) << (1 << b)) | ((x >> (1 << b)) & LOW[b]);
        }
        Mask::from_bits(x)
    }
}

/// Reverses the low `bits` bits of `v` (higher bits are discarded).
pub fn bitrev(v: usize, bits: u32) -> usize {
    let mut out = 0usize;
    for i in 0..bits {
        if (v >> i) & 1 == 1 {
            out |= 1 << (bits - 1 - i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitrev_examples() {
        assert_eq!(bitrev(0b001, 3), 0b100);
        assert_eq!(bitrev(0b110, 3), 0b011);
        assert_eq!(bitrev(0b1, 1), 0b1);
        assert_eq!(bitrev(0b1011, 4), 0b1101);
    }

    #[test]
    fn all_policies_are_bijections() {
        for policy in LaneShuffle::ALL {
            for width in [4usize, 32, 64] {
                for wid in 0..16 {
                    let mut seen = vec![false; width];
                    for tid in 0..width {
                        let l = policy.lane(tid, wid, width, 16);
                        assert!(l < width, "{policy:?} out of range");
                        assert!(!seen[l], "{policy:?} not injective (w={wid})");
                        seen[l] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn identity_is_noop() {
        let m = Mask::from_bits(0b1011);
        assert_eq!(LaneShuffle::Identity.mask_to_lanes(m, 7, 32, 16), m);
    }

    #[test]
    fn mirror_odd_flips_odd_warps_only() {
        let p = LaneShuffle::MirrorOdd;
        assert_eq!(p.lane(0, 0, 4, 16), 0);
        assert_eq!(p.lane(0, 1, 4, 16), 3);
        assert_eq!(p.lane(3, 1, 4, 16), 0);
    }

    #[test]
    fn xor_decorrelates_leader_lane() {
        // Thread 0 of each warp lands on lane wid under Xor — distinct lanes
        // for warps 0..width, which is exactly the decorrelation SWI needs.
        let p = LaneShuffle::Xor;
        let lanes: Vec<usize> = (0..4).map(|w| p.lane(0, w, 4, 16)).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn xorrev_differs_from_xor_for_wide_pools() {
        let a = LaneShuffle::Xor.lane(0, 1, 32, 16);
        let b = LaneShuffle::XorRev.lane(0, 1, 32, 16);
        assert_eq!(a, 1);
        assert_eq!(b, 16); // bitrev(1) over 5 bits = 0b10000
    }

    #[test]
    fn mask_translation_preserves_population() {
        for policy in LaneShuffle::ALL {
            let m = Mask::from_bits(0xdead_beef);
            let t = policy.mask_to_lanes(m, 5, 32, 16);
            assert_eq!(m.count(), t.count());
        }
    }

    proptest::proptest! {
        /// The closed-form block swap translates every mask exactly as the
        /// per-bit reference, for every policy, width and warp id.
        #[test]
        fn table_matches_reference(bits in proptest::prelude::any::<u64>(), wid in 0usize..64) {
            for policy in LaneShuffle::ALL {
                for width in [4usize, 32, 64] {
                    let table = policy.table(width, 64);
                    for bits in [bits, 0, 1, u64::MAX] {
                        let m = Mask::from_bits(bits) & Mask::full(width);
                        proptest::prop_assert_eq!(
                            table.mask_to_lanes(m, wid),
                            policy.mask_to_lanes(m, wid, width, 64),
                            "{:?} w={} width={}", policy, wid, width
                        );
                    }
                }
            }
        }
    }
}
