//! The simulator's tie-break stream: xoshiro256++ seeded by SplitMix64.
//!
//! SWI's secondary scheduler breaks ties between equally good lane fits
//! with a draw from this generator ([`crate::IssueCtx::rand_below`]), and
//! [`crate::SmConfig::for_sm`] derives one independent stream per SM from
//! it — so the exact sequence is part of the *model*: the golden baseline,
//! the sweep artifacts, the trace hashes and every cell-cache digest pin
//! it with zero tolerance. Like [`crate::digest`] it therefore lives here
//! exactly once, owned, its first outputs pinned by a known-answer test.
//! Replacing it with another generator (a crates.io `SmallRng` included)
//! re-draws every SWI and multi-SM result: a golden re-record, never a
//! dependency bump.

use warpweave_isa::fuzz::splitmix64;

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct TieBreakRng {
    s: [u64; 4],
}

impl TieBreakRng {
    /// The stream of `seed`: the state is four SplitMix64 steps from it
    /// (never all zero, xoshiro's one fixed point, for any seed).
    pub fn new(seed: u64) -> TieBreakRng {
        let mut sm = seed;
        TieBreakRng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// An index in `0..n` (`n > 0`): one draw, reduced modulo `n` — the
    /// bias is below 2⁻⁵⁷ for the `n ≤ 128` tie sets it serves.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream every committed artifact was recorded against, and the
    /// per-SM seeds of a multi-SM machine that hang off it.
    #[test]
    fn known_answers() {
        let mut r = TieBreakRng::new(0xb1e55ed);
        let words: [u64; 4] = std::array::from_fn(|_| r.next_u64());
        let expected = [
            0x93f4_6847_0d91_821f,
            0x54bb_80ae_7da2_239f,
            0xf8e2_ff5d_4298_410a,
            0x4ac2_afa8_5c49_5297,
        ];
        assert_eq!(words, expected);
        let mut r = TieBreakRng::new(0xb1e55ed);
        let picks: [usize; 8] = std::array::from_fn(|_| r.below(7));
        assert_eq!(picks, [1, 4, 3, 3, 2, 0, 1, 3]);

        let cfg = crate::SmConfig::swi();
        assert_eq!(cfg.for_sm(0).seed, cfg.seed);
        assert_eq!(cfg.for_sm(1).seed, 0xebfb_29fd_8b4a_6141);
        assert_eq!(cfg.for_sm(3).seed, 0x61de_272f_87f5_a22b);
    }
}
