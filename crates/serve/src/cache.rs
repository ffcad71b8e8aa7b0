//! The content-addressed result cache: identical cells are simulated
//! once, served many times.
//!
//! Every sweep cell is a pure function of `(config, workload, seed,
//! scale)`, so its result can be addressed by content: [`cell_digest`]
//! folds the canonical cell encoding through the shared FNV-1a digest
//! (the same hash the checkpoint uses for line checksums and grid ids),
//! and the cache maps that digest to the cell's **encoded checkpoint
//! line** — checksummed bytes that can be streamed to a client or
//! persisted verbatim.
//!
//! Two tiers:
//!
//! * **memory** — a bounded LRU map. `Pending` slots coordinate
//!   concurrent clients: the first requester claims the cell and
//!   simulates it, later requesters block until the line is ready (or
//!   the claim is abandoned, in which case one of them claims next).
//!   Failures are **never** cached — a failed claim is abandoned so
//!   every later request re-simulates with its own provenance.
//! * **disk** (optional) — one `<digest:016x>.cell` file per entry,
//!   written through on fulfilment and consulted on memory misses.
//!   Checksums are verified on the way back in, so a torn or tampered
//!   file is ignored rather than served. Disk entries survive eviction
//!   and server restarts; the directory is unbounded by design (it is
//!   the archive tier).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

use warpweave_core::checkpoint::{decode_cell, CHECKPOINT_VERSION};
use warpweave_core::digest::Fnv1a;
use warpweave_workloads::Scale;

/// The content address of one sweep cell: the FNV-1a digest of its
/// canonical encoding — checkpoint format version, scale, seed, the
/// checkpoint cell key (`workload/config` or `machine/...`), and the
/// configuration label. Any change to what a cell *means* (a format
/// bump, a re-seeded config, a renamed policy) changes the address, so
/// stale entries can never be served for a new grid. The text is folded
/// into the hasher piece by piece as it is formatted, never built; the
/// disk tier names its files by this value, so it is pinned by a test.
pub fn cell_digest(scale: Scale, seed: u64, cell_key: &str, config_label: &str) -> u64 {
    let mut hasher = Fnv1a::new();
    write!(
        hasher,
        "cell-v{CHECKPOINT_VERSION};scale={scale:?};seed={seed:#018x};\
         cell={cell_key};config={config_label}"
    )
    .expect("hashing cannot fail");
    hasher.finish()
}

/// Cumulative cache counters (server lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without simulating (memory, disk, or a wait on
    /// another client's in-flight cell).
    pub hits: u64,
    /// Lookups that had to claim the cell for simulation.
    pub misses: u64,
    /// Ready entries dropped from memory to respect the capacity bound.
    pub evictions: u64,
    /// The subset of `hits` that came back from the disk tier.
    pub disk_hits: u64,
    /// Ready entries currently held in memory.
    pub entries: usize,
}

/// One memory slot: a result line, or a promise that someone is
/// computing it.
enum Slot {
    /// Claimed by a requester that is simulating the cell right now.
    Pending,
    /// The encoded checkpoint line, with its LRU touch tick.
    Ready { line: String, tick: u64 },
}

struct Inner {
    slots: HashMap<u64, Slot>,
    tick: u64,
    stats: CacheStats,
}

/// The two-tier content-addressed cell cache. All methods take `&self`;
/// the cache is shared across connection handlers behind an `Arc`.
pub struct CellCache {
    inner: Mutex<Inner>,
    settled: Condvar,
    capacity: usize,
    disk: Option<PathBuf>,
}

/// What [`CellCache::acquire`] hands back.
pub enum Acquired<'a> {
    /// The cell's encoded line, served from the cache.
    Ready(String),
    /// This requester owns the cell: simulate it, then
    /// [`fulfill`](Claim::fulfill) (dropping the claim un-fulfilled
    /// abandons it, waking any waiters to try again).
    Claimed(Claim<'a>),
}

/// Ownership of one `Pending` slot (RAII: abandoned on drop).
pub struct Claim<'a> {
    cache: &'a CellCache,
    digest: u64,
    fulfilled: bool,
}

impl CellCache {
    /// A memory-only cache holding at most `capacity` ready entries.
    pub fn in_memory(capacity: usize) -> CellCache {
        CellCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            settled: Condvar::new(),
            capacity: capacity.max(1),
            disk: None,
        }
    }

    /// A cache backed by `dir` (created if missing).
    ///
    /// # Errors
    /// Directory creation failures.
    pub fn with_disk(capacity: usize, dir: PathBuf) -> std::io::Result<CellCache> {
        std::fs::create_dir_all(&dir)?;
        let mut cache = CellCache::in_memory(capacity);
        cache.disk = Some(dir);
        Ok(cache)
    }

    /// Looks up `digest`, blocking while another requester holds its
    /// claim. Returns the cached line, or a [`Claim`] making this caller
    /// responsible for simulating the cell.
    pub fn acquire(&self, digest: u64) -> Acquired<'_> {
        enum State {
            Hit(String),
            Pending,
            Absent,
        }
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            let state = match inner.slots.get(&digest) {
                Some(Slot::Ready { line, .. }) => State::Hit(line.clone()),
                Some(Slot::Pending) => State::Pending,
                None => State::Absent,
            };
            match state {
                State::Hit(line) => {
                    inner.tick += 1;
                    let touched = inner.tick;
                    if let Some(Slot::Ready { tick, .. }) = inner.slots.get_mut(&digest) {
                        *tick = touched;
                    }
                    inner.stats.hits += 1;
                    return Acquired::Ready(line);
                }
                State::Pending => {
                    inner = self.settled.wait(inner).expect("cache lock");
                }
                State::Absent => {
                    if let Some(line) = self.read_disk(digest) {
                        inner.tick += 1;
                        let tick = inner.tick;
                        inner.slots.insert(
                            digest,
                            Slot::Ready {
                                line: line.clone(),
                                tick,
                            },
                        );
                        inner.stats.hits += 1;
                        inner.stats.disk_hits += 1;
                        Self::evict_over_capacity(&mut inner, self.capacity);
                        return Acquired::Ready(line);
                    }
                    inner.slots.insert(digest, Slot::Pending);
                    inner.stats.misses += 1;
                    return Acquired::Claimed(Claim {
                        cache: self,
                        digest,
                        fulfilled: false,
                    });
                }
            }
        }
    }

    /// Serves a whole request from the memory tier, or none of it: when
    /// every digest is ready in memory, touches and counts each as a hit
    /// (as that many [`acquire`](Self::acquire) calls in order would) and
    /// returns the lines in order; otherwise changes nothing and returns
    /// `None`. One lock hold and no waiting, so an all-hit request costs
    /// the same however its threads are scheduled.
    pub fn acquire_all_ready(&self, digests: &[u64]) -> Option<Vec<String>> {
        let mut inner = self.inner.lock().expect("cache lock");
        let lines = digests
            .iter()
            .map(|d| match inner.slots.get(d) {
                Some(Slot::Ready { line, .. }) => Some(line.clone()),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        for d in digests {
            inner.tick += 1;
            let touched = inner.tick;
            if let Some(Slot::Ready { tick, .. }) = inner.slots.get_mut(d) {
                *tick = touched;
            }
        }
        inner.stats.hits += digests.len() as u64;
        Some(lines)
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        let mut stats = inner.stats;
        stats.entries = inner
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count();
        stats
    }

    /// Drops least-recently-touched ready entries until the bound holds.
    /// Pending slots are never evicted — a claim must settle first.
    fn evict_over_capacity(inner: &mut Inner, capacity: usize) {
        loop {
            let ready = inner
                .slots
                .iter()
                .filter_map(|(d, s)| match s {
                    Slot::Ready { tick, .. } => Some((*d, *tick)),
                    Slot::Pending => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= capacity {
                return;
            }
            let (coldest, _) = ready
                .into_iter()
                .min_by_key(|&(_, tick)| tick)
                .expect("non-empty over-capacity set");
            inner.slots.remove(&coldest);
            inner.stats.evictions += 1;
        }
    }

    /// Reads (and checksum-verifies) one disk entry; `None` on any
    /// defect — a damaged archive file must never be served.
    fn read_disk(&self, digest: u64) -> Option<String> {
        let dir = self.disk.as_ref()?;
        let text = std::fs::read_to_string(dir.join(format!("{digest:016x}.cell"))).ok()?;
        let line = text.trim_end_matches('\n');
        decode_cell(line).ok()?;
        Some(line.to_string())
    }

    /// Writes one disk entry via temp-file + rename, so a concurrent
    /// writer or a crash never leaves a torn visible file. Best-effort:
    /// the memory tier already holds the line, so disk I/O failures are
    /// reported but not fatal.
    fn write_disk(&self, digest: u64, line: &str) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        let tmp = dir.join(format!("{digest:016x}.tmp"));
        let dst = dir.join(format!("{digest:016x}.cell"));
        let result =
            std::fs::write(&tmp, format!("{line}\n")).and_then(|()| std::fs::rename(&tmp, &dst));
        if let Err(e) = result {
            eprintln!("cell cache: persist {}: {e}", dst.display());
        }
    }

    fn settle(&self, digest: u64, line: Option<String>) {
        let mut inner = self.inner.lock().expect("cache lock");
        match line {
            Some(line) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.slots.insert(digest, Slot::Ready { line, tick });
                Self::evict_over_capacity(&mut inner, self.capacity);
            }
            None => {
                inner.slots.remove(&digest);
            }
        }
        drop(inner);
        self.settled.notify_all();
    }
}

impl Claim<'_> {
    /// Publishes the cell's encoded line: waiters wake with a hit, and
    /// the disk tier (if any) gets a write-through copy.
    pub fn fulfill(mut self, line: String) {
        self.fulfilled = true;
        self.cache.write_disk(self.digest, &line);
        self.cache.settle(self.digest, Some(line));
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if !self.fulfilled {
            // Abandon: the simulation failed (or panicked — this runs
            // during unwind too). Waiters re-contend; the next one
            // claims and re-simulates with its own provenance.
            self.cache.settle(self.digest, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_core::checkpoint::{encode_cell, CellRecord};
    use warpweave_core::Stats;

    fn line(key: &str, cycles: u64) -> String {
        let stats = Stats {
            cycles,
            ..Stats::default()
        };
        encode_cell(key, &CellRecord::new(stats))
    }

    #[test]
    fn digest_separates_every_dimension() {
        let base = cell_digest(Scale::Test, 1, "a/b", "b");
        assert_ne!(base, cell_digest(Scale::Bench, 1, "a/b", "b"), "scale");
        assert_ne!(base, cell_digest(Scale::Test, 2, "a/b", "b"), "seed");
        assert_ne!(base, cell_digest(Scale::Test, 1, "a/c", "c"), "cell");
        assert_eq!(base, cell_digest(Scale::Test, 1, "a/b", "b"), "stable");
    }

    /// Disk entries are named by these addresses: a change of any of them
    /// orphans every cache directory written before it.
    #[test]
    fn cell_addresses_are_pinned() {
        let seed = 0xb1e55ed;
        assert_eq!(
            [
                cell_digest(Scale::Test, seed, "MatrixMul/SBI", "SBI"),
                cell_digest(Scale::Bench, seed, "MatrixMul/SBI+SWI", "SBI+SWI"),
                cell_digest(
                    Scale::Test,
                    seed,
                    "machine/MatrixMul/4sm/shared+2ch+mshr32+l2",
                    "SBI+SWI"
                ),
            ],
            [
                0x6908_ee66_1e7b_bb1b,
                0x4a29_3600_5781_9727,
                0xa7b7_2143_24b1_2f50
            ]
        );
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = CellCache::in_memory(8);
        let d = cell_digest(Scale::Test, 1, "w/c", "c");
        match cache.acquire(d) {
            Acquired::Claimed(claim) => claim.fulfill(line("w/c", 100)),
            Acquired::Ready(_) => panic!("first acquire must miss"),
        }
        match cache.acquire(d) {
            Acquired::Ready(l) => assert_eq!(l, line("w/c", 100)),
            Acquired::Claimed(_) => panic!("second acquire must hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn acquire_all_ready_is_all_or_nothing() {
        let cache = CellCache::in_memory(8);
        let digests: Vec<u64> = (0..3)
            .map(|i| cell_digest(Scale::Test, i, "w/c", "c"))
            .collect();
        for (i, &d) in digests[..2].iter().enumerate() {
            let Acquired::Claimed(claim) = cache.acquire(d) else {
                panic!("must miss");
            };
            claim.fulfill(line("w/c", i as u64));
        }
        // One absent cell: nothing is served, counted or claimed.
        assert_eq!(cache.acquire_all_ready(&digests), None);
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 2));
        let Acquired::Claimed(claim) = cache.acquire(digests[2]) else {
            panic!("the absent cell must still be claimable");
        };
        // Nor while it is pending under another requester.
        assert_eq!(cache.acquire_all_ready(&digests), None);
        claim.fulfill(line("w/c", 2));
        let lines = cache.acquire_all_ready(&digests).expect("all ready");
        let expect: Vec<String> = (0..3).map(|i| line("w/c", i)).collect();
        assert_eq!(lines, expect);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn abandoned_claim_lets_the_next_requester_claim() {
        let cache = CellCache::in_memory(8);
        let d = cell_digest(Scale::Test, 1, "w/c", "c");
        match cache.acquire(d) {
            Acquired::Claimed(claim) => drop(claim), // simulated failure
            Acquired::Ready(_) => panic!("must miss"),
        }
        assert!(matches!(cache.acquire(d), Acquired::Claimed(_)));
        assert_eq!(cache.stats().misses, 2, "failures are never cached");
    }

    #[test]
    fn waiters_block_until_the_claim_settles() {
        use std::sync::Arc;
        let cache = Arc::new(CellCache::in_memory(8));
        let d = cell_digest(Scale::Test, 7, "w/c", "c");
        let Acquired::Claimed(claim) = cache.acquire(d) else {
            panic!("must miss");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.acquire(d) {
                Acquired::Ready(l) => l,
                Acquired::Claimed(_) => panic!("waiter must see the fulfilled line"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        claim.fulfill(line("w/c", 5));
        assert_eq!(waiter.join().unwrap(), line("w/c", 5));
    }

    #[test]
    fn lru_evicts_the_coldest_ready_entry() {
        let cache = CellCache::in_memory(2);
        let digests: Vec<u64> = (0..3)
            .map(|i| cell_digest(Scale::Test, i, "w/c", "c"))
            .collect();
        for (i, &d) in digests.iter().enumerate() {
            let Acquired::Claimed(claim) = cache.acquire(d) else {
                panic!("must miss");
            };
            claim.fulfill(line("w/c", i as u64));
            // Touch the first entry so it stays warm.
            if i > 0 {
                assert!(matches!(cache.acquire(digests[0]), Acquired::Ready(_)));
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // digest[1] was the coldest; it must be the one gone.
        assert!(matches!(cache.acquire(digests[1]), Acquired::Claimed(_)));
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("ww-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = cell_digest(Scale::Test, 3, "w/c", "c");
        {
            let cache = CellCache::with_disk(4, dir.clone()).unwrap();
            let Acquired::Claimed(claim) = cache.acquire(d) else {
                panic!("must miss");
            };
            claim.fulfill(line("w/c", 42));
        }
        // A brand-new cache instance (fresh memory tier) finds it on disk.
        let cache = CellCache::with_disk(4, dir.clone()).unwrap();
        match cache.acquire(d) {
            Acquired::Ready(l) => assert_eq!(l, line("w/c", 42)),
            Acquired::Claimed(_) => panic!("disk tier must hit"),
        }
        assert_eq!(cache.stats().disk_hits, 1);
        // Corrupt the file: the checksum check must turn it into a miss.
        std::fs::write(
            dir.join(format!("{d:016x}.cell")),
            "cell|w/c|s:cycles=9|#bad",
        )
        .unwrap();
        let cache = CellCache::with_disk(4, dir).unwrap();
        assert!(matches!(cache.acquire(d), Acquired::Claimed(_)));
    }
}
