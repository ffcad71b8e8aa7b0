//! The workspace's one content digest: FNV-1a 64.
//!
//! Three subsystems need a cheap, deterministic, dependency-free digest of
//! a canonical byte string: the checkpoint format (per-line checksums and
//! the grid id a [`crate::checkpoint::SweepCheckpoint`] binds to), the
//! sweep-fabric result cache (the content address of a `(config, workload,
//! seed)` cell), and the bench grid registry. They must all agree — a cache
//! keyed with a different hash than the grid id would silently decouple —
//! so the function lives here exactly once and everything else imports it.
//!
//! FNV-1a is **not** cryptographic. It is used for torn-write/bit-flip
//! detection and content addressing among trusted cooperating processes,
//! where 64 bits of avalanche is plenty and speed plus zero dependencies
//! matter more than collision resistance against an adversary.

/// FNV-1a 64 offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64 over a byte string — the checkpoint line checksum, the sweep
/// grid id and the cell-cache content address.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64 hasher, for digests assembled from several
/// sections without concatenating them into a scratch string first.
///
/// # Examples
/// ```
/// use warpweave_core::digest::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::new();
/// h.update(b"cell-v1;");
/// h.update(b"MatrixMul/SBI");
/// assert_eq!(h.finish(), fnv1a(b"cell-v1;MatrixMul/SBI"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds formatted text in as it is written, so `write!(hasher, ...)`
/// digests exactly the bytes `format!(...)` would build, without building
/// them.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot_at_any_split() {
        let text = b"warpweave-sweep-fabric canonical cell encoding";
        let whole = fnv1a(text);
        for split in 0..=text.len() {
            let mut h = Fnv1a::new();
            h.update(&text[..split]);
            h.update(&text[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn formatted_writes_digest_the_formatted_bytes() {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        write!(h, "seed={:#018x};scale={:?}", 0xb1e55ed_u64, Some(3)).unwrap();
        assert_eq!(
            h.finish(),
            fnv1a(format!("seed={:#018x};scale={:?}", 0xb1e55ed_u64, Some(3)).as_bytes())
        );
    }
}
