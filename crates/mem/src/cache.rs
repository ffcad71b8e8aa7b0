//! Set-associative L1 data cache (tag-only model).
//!
//! Matches table 2 of the paper: 48 KiB, 6-way, 128-byte blocks, 3-cycle
//! hits. Data itself lives in [`crate::Memory`]; the cache tracks tags and
//! LRU state to classify accesses. Loads allocate on miss; stores are
//! write-through and do not allocate (Fermi-style global store behaviour)
//! but update a present line's recency.

use crate::coalesce::BLOCK_BYTES;

/// L1 geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's L1: 48 K, 6-way, 128 B lines, 3 cycles (table 2).
    pub fn paper_l1() -> Self {
        CacheConfig {
            capacity_bytes: 48 * 1024,
            ways: 6,
            line_bytes: BLOCK_BYTES,
            hit_latency: 3,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// Checks the geometry is realisable: non-zero dimensions, capacity an
    /// exact multiple of `ways × line_bytes` (integer division would
    /// otherwise silently truncate capacity — or round it to **zero** sets,
    /// making set indexing divide by zero), and a power-of-two set count.
    ///
    /// # Errors
    /// A description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.line_bytes == 0 || self.capacity_bytes == 0 {
            return Err(format!(
                "cache geometry has a zero dimension: {} B, {} ways, {} B lines",
                self.capacity_bytes, self.ways, self.line_bytes
            ));
        }
        let way_bytes = self
            .ways
            .checked_mul(self.line_bytes)
            .ok_or_else(|| format!("cache ways × line_bytes overflows: {self:?}"))?;
        if !self.capacity_bytes.is_multiple_of(way_bytes) {
            return Err(format!(
                "cache capacity {} B is not a multiple of ways × line_bytes = {} B",
                self.capacity_bytes, way_bytes
            ));
        }
        let sets = self.capacity_bytes / way_bytes;
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!(
                "cache set count {sets} (capacity {} / {} B per way-slice) \
                 must be a non-zero power of two",
                self.capacity_bytes, way_bytes
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Line present.
    Hit,
    /// Line absent; for loads a fill was allocated.
    Miss,
}

/// Where a load landed, for state kept per line beside a [`Cache`] (the
/// owner SMs of [`crate::SharedL2`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoadOutcome {
    /// Hit, or a miss that allocated `slot`.
    pub kind: AccessKind,
    /// The line slot (set base + way) that now holds the block.
    pub slot: usize,
    /// The fill replaced a valid line (false on a hit).
    pub evicted: bool,
}

crate::counter_table! {
    /// Hit/miss statistics of the L1 (serialised as `l1_*`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats, prefix "l1_" {
        /// Load accesses that hit.
        load_hits: u64 = sum,
        /// Load accesses that missed.
        load_misses: u64 = sum,
        /// Store accesses (write-through; hit/miss does not change traffic).
        stores: u64 = sum,
    }
}

impl CacheStats {
    /// Load hit rate in `[0, 1]`; 1.0 when no loads were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.load_hits + self.load_misses;
        if total == 0 {
            1.0
        } else {
            self.load_hits as f64 / total as f64
        }
    }
}

/// A set-associative, true-LRU, tag-only L1 cache model.
///
/// # Examples
/// ```
/// use warpweave_mem::{Cache, CacheConfig, AccessKind};
/// let mut c = Cache::new(CacheConfig::paper_l1());
/// assert_eq!(c.access_load(0), AccessKind::Miss);
/// assert_eq!(c.access_load(0), AccessKind::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.num_sets() > 0, "degenerate cache");
        Cache {
            cfg,
            lines: vec![Line::default(); (cfg.num_sets() * cfg.ways) as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, addr: u32) -> (usize, u32) {
        let block = addr / self.cfg.line_bytes;
        let set = block % self.cfg.num_sets();
        let tag = block / self.cfg.num_sets();
        ((set * self.cfg.ways) as usize, tag)
    }

    fn probe(&self, addr: u32) -> Option<usize> {
        let (base, tag) = self.set_range(addr);
        (base..base + self.cfg.ways as usize)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Performs a load access to the block containing `addr`: allocates on
    /// miss (LRU victim) and returns the access classification.
    pub fn access_load(&mut self, addr: u32) -> AccessKind {
        self.load(addr).kind
    }

    /// [`Cache::access_load`], also reporting the slot the block hit or
    /// filled and whether the fill evicted a valid line.
    pub(crate) fn load(&mut self, addr: u32) -> LoadOutcome {
        self.tick += 1;
        if let Some(slot) = self.probe(addr) {
            self.lines[slot].lru = self.tick;
            self.stats.load_hits += 1;
            return LoadOutcome {
                kind: AccessKind::Hit,
                slot,
                evicted: false,
            };
        }
        self.stats.load_misses += 1;
        let (base, tag) = self.set_range(addr);
        let slot = (base..base + self.cfg.ways as usize)
            .min_by_key(|&i| {
                if self.lines[i].valid {
                    self.lines[i].lru
                } else {
                    0
                }
            })
            .expect("non-empty set");
        let evicted = self.lines[slot].valid;
        self.lines[slot] = Line {
            tag,
            valid: true,
            lru: self.tick,
        };
        LoadOutcome {
            kind: AccessKind::Miss,
            slot,
            evicted,
        }
    }

    /// Performs a store access: write-through, no allocate; refreshes LRU on
    /// hit.
    pub fn access_store(&mut self, addr: u32) -> AccessKind {
        self.tick += 1;
        self.stats.stores += 1;
        match self.probe(addr) {
            Some(i) => {
                self.lines[i].lru = self.tick;
                AccessKind::Hit
            }
            None => AccessKind::Miss,
        }
    }

    /// Invalidates all lines (keeps statistics).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 128 B = 512 B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 128,
            hit_latency: 3,
        })
    }

    #[test]
    fn paper_geometry() {
        let c = CacheConfig::paper_l1();
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.hit_latency, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_geometry() {
        let ok = CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 128,
            hit_latency: 3,
        };
        assert!(ok.validate().is_ok());
        // Zero sets: capacity smaller than one way-slice.
        let tiny = CacheConfig {
            capacity_bytes: 128,
            ..ok
        };
        assert!(tiny.validate().unwrap_err().contains("multiple"));
        // Truncating division: 640 / 256 = 2 sets but 128 B silently lost.
        let trunc = CacheConfig {
            capacity_bytes: 640,
            ..ok
        };
        assert!(trunc.validate().unwrap_err().contains("multiple"));
        // Non-power-of-two set count (3 sets).
        let npot = CacheConfig {
            capacity_bytes: 768,
            ..ok
        };
        assert!(npot.validate().unwrap_err().contains("power of two"));
        // Zero dimensions.
        for bad in [
            CacheConfig { ways: 0, ..ok },
            CacheConfig {
                line_bytes: 0,
                ..ok
            },
            CacheConfig {
                capacity_bytes: 0,
                ..ok
            },
        ] {
            assert!(bad.validate().unwrap_err().contains("zero dimension"));
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access_load(0), AccessKind::Miss);
        assert_eq!(c.access_load(64), AccessKind::Hit); // same 128B line
        assert_eq!(c.stats().load_hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds blocks where (addr/128) % 2 == 0: 0, 256, 512…
        c.access_load(0); // A
        c.access_load(256); // B — set full
        c.access_load(0); // touch A (B becomes LRU)
        c.access_load(512); // C evicts B
        assert_eq!(c.access_load(0), AccessKind::Hit);
        assert_eq!(c.access_load(256), AccessKind::Miss);
    }

    #[test]
    fn load_reports_its_slot_and_eviction() {
        let mut c = tiny();
        let a = c.load(0);
        assert_eq!((a.kind, a.evicted), (AccessKind::Miss, false));
        assert_eq!(
            c.load(0),
            LoadOutcome {
                kind: AccessKind::Hit,
                ..a
            }
        );
        assert!(!c.load(256).evicted, "the set's second way was empty");
        // Set 0 is full: block 512 replaces the LRU line, block 0.
        let c_fill = c.load(512);
        assert_eq!((c_fill.slot, c_fill.evicted), (a.slot, true));
    }

    #[test]
    fn store_does_not_allocate() {
        let mut c = tiny();
        assert_eq!(c.access_store(0), AccessKind::Miss);
        assert_eq!(c.access_load(0), AccessKind::Miss); // still absent
        assert_eq!(c.access_store(0), AccessKind::Hit); // now filled by load
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access_load(0);
        c.flush();
        assert_eq!(c.access_load(0), AccessKind::Miss);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access_load(0); // set 0
        c.access_load(128); // set 1
        assert_eq!(c.access_load(0), AccessKind::Hit);
        assert_eq!(c.access_load(128), AccessKind::Hit);
    }
}
