//! Thread/lane activity masks (up to 64-wide warps).

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not, Sub};

/// An activity mask over the threads (or lanes) of a warp.
///
/// Bit `i` set means thread/lane `i` participates. Warps are at most 64 wide
/// (the paper's SBI/SWI configurations), so a `u64` suffices.
///
/// # Examples
/// ```
/// use warpweave_core::Mask;
/// let m = Mask::full(4);
/// let (lo, hi) = (Mask::from_bits(0b0011), Mask::from_bits(0b1100));
/// assert_eq!(lo | hi, m);
/// assert!(lo.is_disjoint(hi));
/// assert!(lo.is_subset(m));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mask(u64);

impl Mask {
    /// The empty mask.
    pub const EMPTY: Mask = Mask(0);

    /// Mask with the low `width` bits set.
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn full(width: usize) -> Mask {
        assert!(width <= 64, "warp width {width} exceeds 64");
        if width == 64 {
            Mask(u64::MAX)
        } else {
            Mask((1u64 << width) - 1)
        }
    }

    /// Mask from raw bits.
    pub fn from_bits(bits: u64) -> Mask {
        Mask(bits)
    }

    /// Mask with a single bit set.
    pub fn single(lane: usize) -> Mask {
        assert!(lane < 64);
        Mask(1 << lane)
    }

    /// The raw bits.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// True if no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of set bits (active threads).
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if bit `i` is set.
    pub fn get(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// Returns `self` with bit `i` set.
    pub fn with(self, i: usize) -> Mask {
        Mask(self.0 | (1 << i))
    }

    /// Returns `self` with bit `i` cleared.
    pub fn without(self, i: usize) -> Mask {
        Mask(self.0 & !(1 << i))
    }

    /// True if the two masks share no bit.
    pub fn is_disjoint(self, other: Mask) -> bool {
        self.0 & other.0 == 0
    }

    /// True if all of `self`'s bits are in `other`.
    pub fn is_subset(self, other: Mask) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the masks share at least one bit.
    pub fn intersects(self, other: Mask) -> bool {
        self.0 & other.0 != 0
    }

    /// The lowest and highest set bit, `None` for the empty mask.
    pub fn span(self) -> Option<(usize, usize)> {
        (self.0 != 0).then(|| {
            (
                self.0.trailing_zeros() as usize,
                63 - self.0.leading_zeros() as usize,
            )
        })
    }

    /// Iterator over set bit indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }
}

impl BitAnd for Mask {
    type Output = Mask;
    fn bitand(self, rhs: Mask) -> Mask {
        Mask(self.0 & rhs.0)
    }
}

impl BitOr for Mask {
    type Output = Mask;
    fn bitor(self, rhs: Mask) -> Mask {
        Mask(self.0 | rhs.0)
    }
}

impl BitXor for Mask {
    type Output = Mask;
    fn bitxor(self, rhs: Mask) -> Mask {
        Mask(self.0 ^ rhs.0)
    }
}

impl Not for Mask {
    type Output = Mask;
    fn not(self) -> Mask {
        Mask(!self.0)
    }
}

/// Set difference: `a - b` keeps the bits of `a` not in `b`.
impl Sub for Mask {
    type Output = Mask;
    fn sub(self, rhs: Mask) -> Mask {
        Mask(self.0 & !rhs.0)
    }
}

impl BitAndAssign for Mask {
    fn bitand_assign(&mut self, rhs: Mask) {
        self.0 &= rhs.0;
    }
}

impl BitOrAssign for Mask {
    fn bitor_assign(&mut self, rhs: Mask) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mask({:#x})", self.0)
    }
}

impl fmt::Display for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl FromIterator<usize> for Mask {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut m = Mask::EMPTY;
        for i in iter {
            m = m.with(i);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_widths() {
        assert_eq!(Mask::full(0), Mask::EMPTY);
        assert_eq!(Mask::full(4).bits(), 0b1111);
        assert_eq!(Mask::full(64).bits(), u64::MAX);
        assert_eq!(Mask::full(64).count(), 64);
    }

    #[test]
    fn set_ops() {
        let a = Mask::from_bits(0b0110);
        let b = Mask::from_bits(0b0011);
        assert_eq!((a | b).bits(), 0b0111);
        assert_eq!((a & b).bits(), 0b0010);
        assert_eq!((a - b).bits(), 0b0100);
        assert_eq!((a ^ b).bits(), 0b0101);
        assert!(!a.is_disjoint(b));
        assert!(Mask::from_bits(0b100).is_disjoint(b));
        assert!(Mask::from_bits(0b10).is_subset(a));
    }

    #[test]
    fn iteration_ascending() {
        let m = Mask::from_bits(0b1010_0001);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(m.iter().collect::<Mask>(), m);
    }

    #[test]
    fn bit_accessors() {
        let m = Mask::EMPTY.with(3).with(5).without(3);
        assert!(!m.get(3));
        assert!(m.get(5));
        assert_eq!(Mask::single(63).bits(), 1 << 63);
    }
}
