//! Machine-shared L2 cache between the per-SM L1s and the DRAM channels.
//!
//! A [`SharedL2`] is a tag-only, true-LRU, set-associative cache probed by
//! the machine's epoch loop *before* channel arbitration: L1 misses that
//! hit in L2 are granted locally (issue + hit latency, no queueing) and
//! never reach a channel; misses allocate and fall through. Stores stay
//! write-through/no-allocate end to end — they refresh a present line's
//! recency but always consume channel bandwidth, mirroring the L1 policy.
//!
//! Every line remembers which SM last filled it, so evictions where the
//! evictor and the victim's filler differ are counted as **cross-SM
//! evictions** — the CIAO-style interference statistic that separates
//! capacity pressure an SM inflicts on itself from pressure inflicted by
//! its neighbours.
//!
//! Determinism: the machine probes the L2 in the epoch's deterministic
//! grant order ([`crate::channel::sort_epoch_order`]), so LRU state — and
//! therefore every hit/miss classification — is a pure function of the
//! request set, independent of host threading.

use crate::cache::{AccessKind, CacheConfig};
use crate::channel::ChannelStats;

#[derive(Debug, Clone, Copy, Default)]
struct L2Line {
    tag: u32,
    owner_sm: u32,
    valid: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// A machine-shared, set-associative, true-LRU tag-only L2 model.
///
/// # Examples
/// ```
/// use warpweave_mem::{AccessKind, CacheConfig, SharedL2};
///
/// let mut l2 = SharedL2::new(CacheConfig::paper_l1());
/// assert_eq!(l2.access_load(0x80, 0), AccessKind::Miss); // SM 0 fills
/// assert_eq!(l2.access_load(0x80, 1), AccessKind::Hit);  // SM 1 reuses
/// assert_eq!(l2.stats().l2_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SharedL2 {
    cfg: CacheConfig,
    lines: Vec<L2Line>,
    tick: u64,
    hits: u64,
    misses: u64,
    cross_sm_evictions: u64,
}

impl SharedL2 {
    /// Creates an empty L2 with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets or ways) — machine
    /// construction validates via [`CacheConfig::validate`] first.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.num_sets() > 0, "degenerate L2");
        SharedL2 {
            cfg,
            lines: vec![L2Line::default(); (cfg.num_sets() * cfg.ways) as usize],
            tick: 0,
            hits: 0,
            misses: 0,
            cross_sm_evictions: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated hit / miss / interference counters, as the `l2_*` rows
    /// of a [`ChannelStats`] the machine folds into its channel totals.
    /// (Kept as three words here: a whole `ChannelStats` inside the L2
    /// measured 2 % of `mem_hierarchy` host time.)
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            l2_hits: self.hits,
            l2_misses: self.misses,
            l2_cross_sm_evictions: self.cross_sm_evictions,
            ..ChannelStats::default()
        }
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

    /// A load fill from SM `sm_id`: allocates on miss (LRU victim,
    /// recording interference when the victim belonged to another SM).
    pub fn access_load(&mut self, addr: u32, sm_id: u32) -> AccessKind {
        self.tick += 1;
        if let Some(i) = self.probe(addr) {
            self.lines[i].lru = self.tick;
            self.hits += 1;
            return AccessKind::Hit;
        }
        self.misses += 1;
        let (base, tag) = self.set_range(addr);
        let victim = (base..base + self.cfg.ways as usize)
            .min_by_key(|&i| {
                if self.lines[i].valid {
                    self.lines[i].lru
                } else {
                    0
                }
            })
            .expect("non-empty set");
        if self.lines[victim].valid && self.lines[victim].owner_sm != sm_id {
            self.cross_sm_evictions += 1;
        }
        self.lines[victim] = L2Line {
            tag,
            owner_sm: sm_id,
            valid: true,
            lru: self.tick,
        };
        AccessKind::Miss
    }

    /// A write-through store: no allocation, refreshes recency on hit.
    /// Channel traffic is unaffected either way.
    pub fn access_store(&mut self, addr: u32) {
        self.tick += 1;
        if let Some(i) = self.probe(addr) {
            self.lines[i].lru = self.tick;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SharedL2 {
        // 2 sets × 2 ways × 128 B = 512 B.
        SharedL2::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 128,
            hit_latency: 10,
        })
    }

    #[test]
    fn cross_sm_reuse_hits() {
        let mut l2 = tiny();
        assert_eq!(l2.access_load(0, 0), AccessKind::Miss);
        assert_eq!(l2.access_load(0, 1), AccessKind::Hit);
        assert_eq!(
            l2.stats(),
            ChannelStats {
                l2_hits: 1,
                l2_misses: 1,
                ..ChannelStats::default()
            }
        );
    }

    #[test]
    fn cross_sm_eviction_counted() {
        let mut l2 = tiny();
        // Set 0 holds blocks 0, 256, 512… Fill both ways as SM 0, then
        // SM 1 evicts the LRU way: one interference event.
        l2.access_load(0, 0);
        l2.access_load(256, 0);
        l2.access_load(512, 1);
        assert_eq!(l2.stats().l2_cross_sm_evictions, 1);
        // SM 1 evicting its own line is not interference.
        l2.access_load(768, 1); // evicts 256 (SM 0): interference again
        l2.access_load(1024, 1); // evicts 512 (SM 1's own): not counted
        assert_eq!(l2.stats().l2_cross_sm_evictions, 2);
    }

    #[test]
    fn stores_do_not_allocate_but_refresh() {
        let mut l2 = tiny();
        l2.access_store(0);
        assert_eq!(
            l2.access_load(0, 0),
            AccessKind::Miss,
            "store must not allocate"
        );
        l2.access_load(256, 0);
        l2.access_store(0); // refresh block 0: block 256 is now LRU
        l2.access_load(512, 0);
        assert_eq!(l2.access_load(0, 0), AccessKind::Hit);
        assert_eq!(l2.access_load(256, 0), AccessKind::Miss);
    }
}
