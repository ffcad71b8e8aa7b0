//! Load-store unit planning: coalesced global access through the L1 and
//! shared-memory bank-conflict modelling.
//!
//! Since the event-driven memory rework the LSU no longer charges DRAM
//! latency inline. [`plan_global_into`] walks an instruction's transactions
//! through the L1 port and *classifies* them: hits (and stores) resolve to
//! an inline ready cycle, misses become [`warpweave_mem::MemRequest`]
//! issue slots the pipeline enqueues on the (private or machine-shared)
//! DRAM channel. The warp then blocks on its scoreboard entry until every
//! outstanding transaction's grant arrives.
//!
//! Shared-memory accesses cost passes, counted from the instruction's lane
//! rows (the executing [`Mask`] and one word-aligned address per lane):
//! [`waves_touched`] where the access's shape rules conflicts out,
//! [`shared_passes`] — a branch-free walk per 32-lane wave — otherwise.

use warpweave_mem::{AccessKind, Cache, LaneRow, MshrFile, MshrLookup, Transaction};

use crate::mask::Mask;

/// The LSU's plan for one global-memory instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalPlan {
    /// Cycles the LSU's single 128-byte port is occupied (replay count).
    pub port_cycles: u64,
    /// Completion cycle of the inline part (L1 hits, MSHR merges whose
    /// data is already scheduled to land; the port-release cycle for
    /// stores). For a load with no outstanding requests this is the
    /// writeback time; otherwise it floors the eventual completion.
    pub inline_ready: u64,
    /// DRAM transactions to enqueue: `(issue_cycle, block_addr, is_write)`,
    /// one per unmerged L1 miss (loads) or per transaction (write-through
    /// stores/atomics), in port order.
    pub dram_requests: Vec<(u64, u32, bool)>,
    /// Sequence numbers of *other* warps' in-flight transactions this
    /// instruction merged onto (MSHR hits on pending misses): the warp
    /// additionally blocks until those grants arrive.
    pub merged_waits: Vec<u64>,
    /// Misses merged onto an in-flight transaction (no new DRAM traffic).
    pub mshr_merges: u64,
    /// Misses that found the MSHR file full and issued unmerged.
    pub mshr_bypasses: u64,
}

impl GlobalPlan {
    /// True when the instruction completes without waiting on a DRAM grant
    /// (hit-only load, store, or atomic — write traffic never blocks).
    pub fn resolves_inline(&self, is_store: bool) -> bool {
        is_store || (self.dram_requests.is_empty() && self.merged_waits.is_empty())
    }
}

/// Plans a list of global-memory transactions starting at `start`: one
/// transaction per cycle through the L1 port; hits complete after the L1
/// latency, misses consult the MSHR file and either merge onto an in-flight
/// fill or are handed back as DRAM requests. `seq_base` is the sequence
/// number the *first* enqueued request will receive (the pipeline's
/// transaction counter), so allocated MSHR entries know their owner.
/// Stores are write-through (every transaction becomes a write request;
/// completion is the port-release cycle — the pipeline does not wait, and
/// the MSHR file is never consulted).
///
/// The plan is written into `plan`, reusing its request/merge vectors —
/// the pipeline keeps one scratch plan per SM so the per-instruction
/// planning allocates nothing in steady state.
pub fn plan_global_into(
    plan: &mut GlobalPlan,
    l1: &mut Cache,
    mshr: &mut MshrFile,
    start: u64,
    txs: &[Transaction],
    is_store: bool,
    seq_base: u64,
) {
    plan.port_cycles = txs.len().max(1) as u64;
    plan.inline_ready = start;
    plan.dram_requests.clear();
    plan.merged_waits.clear();
    plan.mshr_merges = 0;
    plan.mshr_bypasses = 0;
    for (i, tx) in txs.iter().enumerate() {
        let t_issue = start + i as u64;
        if is_store {
            l1.access_store(tx.block_addr);
            plan.dram_requests.push((t_issue, tx.block_addr, true));
            plan.inline_ready = plan.inline_ready.max(t_issue);
            continue;
        }
        match l1.access_load(tx.block_addr) {
            AccessKind::Hit => {
                plan.inline_ready = plan
                    .inline_ready
                    .max(t_issue + l1.config().hit_latency as u64);
            }
            AccessKind::Miss => {
                let seq = seq_base + plan.dram_requests.len() as u64;
                match mshr.lookup(tx.block_addr, t_issue, seq) {
                    MshrLookup::Allocated => {
                        plan.dram_requests.push((t_issue, tx.block_addr, false));
                    }
                    MshrLookup::Bypassed => {
                        if mshr.is_enabled() {
                            plan.mshr_bypasses += 1;
                        }
                        plan.dram_requests.push((t_issue, tx.block_addr, false));
                    }
                    MshrLookup::MergedPending { owner_seq } => {
                        plan.mshr_merges += 1;
                        if !plan.merged_waits.contains(&owner_seq) {
                            plan.merged_waits.push(owner_seq);
                        }
                    }
                    MshrLookup::MergedReady { ready_cycle } => {
                        plan.mshr_merges += 1;
                        plan.inline_ready = plan.inline_ready.max(ready_cycle);
                    }
                }
            }
        }
    }
}

/// Number of 32-lane waves `mask` touches: the shared-memory pass count of
/// an access whose every wave is conflict-free by shape — one word
/// (a broadcast) or a dense run (consecutive words, so distinct banks).
pub fn waves_touched(mask: Mask) -> u64 {
    let bits = mask.bits();
    (bits as u32 != 0) as u64 + (bits >> 32 != 0) as u64
}

/// Shared-memory access cost in passes: per 32-lane wave, lanes hitting
/// distinct banks proceed together; lanes hitting different words in the
/// same bank serialise (Fermi-style 32-bank scratchpad; broadcast of the
/// same word is free). An access no thread executes still takes one pass.
///
/// `addr` holds word-aligned byte addresses (the pipeline's rows are), and
/// conflicts are counted at word granularity. This is the walk that
/// assumes nothing about the row; the pipeline answers
/// [`AccessShape::OneWord`](warpweave_mem::AccessShape) and `DenseRun`
/// accesses with [`waves_touched`] instead.
pub fn shared_passes(mask: Mask, addr: &LaneRow) -> u64 {
    let mut total = 0u64;
    for wave in 0..2 {
        let lanes = (mask.bits() >> (32 * wave)) as u32;
        if lanes == 0 {
            continue;
        }
        // The wave's words, a lane that does not access standing in with
        // the first accessing lane's word — a broadcast costs nothing, so
        // the loops below need no mask and no branch.
        let addr = &addr[32 * wave..32 * wave + 32];
        let first = addr[lanes.trailing_zeros() as usize];
        let mut words = [0u32; 32];
        for (l, w) in words.iter_mut().enumerate() {
            *w = (if lanes >> l & 1 == 1 { addr[l] } else { first }) >> 2;
        }
        // Every lane drops its word into its bank's slot, the last writer
        // staying; a lane that then finds another word there shares its
        // bank with a different word. No lane does in the common wave —
        // one pass, a lane each or one word broadcast to several.
        let mut slot = [0u32; 32];
        for &w in &words {
            slot[(w & 31) as usize] = w;
        }
        let mut conflict = false;
        for &w in &words {
            conflict |= slot[(w & 31) as usize] != w;
        }
        if !conflict {
            total += 1;
            continue;
        }
        // Distinct words per bank; the wave's cost is the worst bank
        // (broadcast of one word counts once).
        words.sort_unstable();
        let mut per_bank = [0u64; 32];
        let mut worst = 1u64;
        let mut prev = None;
        for &w in words.iter() {
            if prev == Some(w) {
                continue;
            }
            prev = Some(w);
            let b = (w % 32) as usize;
            per_bank[b] += 1;
            worst = worst.max(per_bank[b]);
        }
        total += worst;
    }
    total.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_mem::{CacheConfig, DramConfig, MemRequest, SharedDramChannel};

    fn setup() -> (Cache, SharedDramChannel) {
        (
            Cache::new(CacheConfig::paper_l1()),
            SharedDramChannel::new(DramConfig::paper()),
        )
    }

    fn tx(block: u32) -> Transaction {
        Transaction {
            block_addr: block,
            lanes: 1,
        }
    }

    /// [`plan_global_into`] a fresh plan.
    fn planned(
        l1: &mut Cache,
        mshr: &mut MshrFile,
        start: u64,
        txs: &[Transaction],
        is_store: bool,
        seq_base: u64,
    ) -> GlobalPlan {
        let mut plan = GlobalPlan::default();
        plan_global_into(&mut plan, l1, mshr, start, txs, is_store, seq_base);
        plan
    }

    /// Plans with MSHRs disabled — the historical single-miss model.
    fn plan(l1: &mut Cache, start: u64, txs: &[Transaction], is_store: bool) -> GlobalPlan {
        planned(l1, &mut MshrFile::disabled(), start, txs, is_store, 0)
    }

    /// Drives a plan's requests through a channel the way the pipeline's
    /// private-mode immediate-grant path does, returning the data-ready
    /// cycle.
    fn resolve(plan: &GlobalPlan, channel: &mut SharedDramChannel) -> u64 {
        let mut ready = plan.inline_ready;
        for (seq, &(issue_cycle, addr, is_write)) in plan.dram_requests.iter().enumerate() {
            let grant = channel.grant(&MemRequest {
                issue_cycle,
                sm_id: 0,
                seq: seq as u64,
                addr,
                is_write,
            });
            if !is_write {
                ready = ready.max(grant.ready_cycle);
            }
        }
        ready
    }

    #[test]
    fn single_hit_latency() {
        let (mut l1, _) = setup();
        l1.access_load(0); // warm
        let plan = plan(&mut l1, 100, &[tx(0)], false);
        assert_eq!(plan.port_cycles, 1);
        assert_eq!(plan.inline_ready, 103);
        assert!(plan.resolves_inline(false));
    }

    #[test]
    fn miss_goes_to_dram() {
        let (mut l1, mut ch) = setup();
        let plan = plan(&mut l1, 0, &[tx(0)], false);
        assert_eq!(plan.dram_requests, vec![(0, 0, false)]);
        assert!(!plan.resolves_inline(false));
        assert_eq!(resolve(&plan, &mut ch), 330);
        assert_eq!(ch.stats().read_transfers, 1);
    }

    #[test]
    fn replays_occupy_port_serially() {
        let (mut l1, _) = setup();
        for b in 0..4 {
            l1.access_load(b * 128);
        }
        let txs: Vec<Transaction> = (0..4).map(|b| tx(b * 128)).collect();
        let plan = plan(&mut l1, 10, &txs, false);
        assert_eq!(plan.port_cycles, 4);
        // Last hit issues at 13, ready at 16.
        assert_eq!(plan.inline_ready, 16);
    }

    #[test]
    fn mixed_hit_miss_takes_the_slower_path() {
        let (mut l1, mut ch) = setup();
        l1.access_load(0); // warm block 0 only
        let plan = plan(&mut l1, 0, &[tx(0), tx(128)], false);
        assert_eq!(plan.dram_requests, vec![(1, 128, false)]);
        assert_eq!(plan.inline_ready, 3, "hit part");
        assert_eq!(resolve(&plan, &mut ch), 331, "miss dominates");
    }

    #[test]
    fn store_does_not_block() {
        let (mut l1, mut ch) = setup();
        let plan = plan(&mut l1, 5, &[tx(0)], true);
        assert_eq!(plan.inline_ready, 5);
        assert!(plan.resolves_inline(true));
        resolve(&plan, &mut ch);
        assert_eq!(ch.stats().write_transfers, 1);
    }

    #[test]
    fn mshr_merges_evicted_inflight_line() {
        // A line misses, is evicted by set pressure, then re-misses while
        // its fill is still in flight: with an MSHR file the re-miss
        // merges onto the owner's seq instead of issuing a second fill.
        let mut l1 = Cache::new(CacheConfig {
            capacity_bytes: 256, // 1 set × 2 ways
            ways: 2,
            line_bytes: 128,
            hit_latency: 3,
        });
        let mut mshr = MshrFile::new(8);
        // Three distinct blocks thrash the single 2-way set.
        let p1 = planned(&mut l1, &mut mshr, 0, &[tx(0), tx(256), tx(512)], false, 0);
        assert_eq!(p1.dram_requests.len(), 3);
        assert_eq!(p1.mshr_merges, 0);
        // Block 0 was evicted by block 512 → L1 re-miss, but seq 0's fill
        // is still outstanding: merged, no new request.
        let p2 = planned(&mut l1, &mut mshr, 10, &[tx(0)], false, 3);
        assert!(p2.dram_requests.is_empty());
        assert_eq!(p2.merged_waits, vec![0]);
        assert_eq!(p2.mshr_merges, 1);
        assert!(!p2.resolves_inline(false));
        // Once the owner's grant lands, later re-misses resolve inline at
        // the fill's ready cycle. (The p2 re-miss re-allocated block 0's
        // L1 tag, so evict it again first — straight through the cache,
        // which leaves the MSHR file untouched.)
        mshr.on_grant(0, 330);
        l1.access_load(256);
        l1.access_load(512);
        let p3 = planned(&mut l1, &mut mshr, 20, &[tx(0)], false, 3);
        assert!(p3.dram_requests.is_empty() && p3.merged_waits.is_empty());
        assert_eq!(p3.inline_ready, 330);
        assert!(p3.resolves_inline(false));
    }

    #[test]
    fn l1_hit_under_miss_answers_at_hit_latency_so_mshrs_never_merge() {
        // Pins a gap, not a design: the L1 marks a missed line valid at the
        // miss, so a load of the same line one cycle later is an L1 hit
        // that completes at the hit latency — long before the fill lands —
        // and never reaches the MSHR file. Only a line evicted while its
        // fill is in flight merges (`mshr_merges_evicted_inflight_line`).
        // Fixing it moves golden cycles (ROADMAP item 5's re-record).
        let (mut l1, mut ch) = setup();
        let mut mshr = MshrFile::new(8);
        let t = 100;
        let miss = planned(&mut l1, &mut mshr, t, &[tx(0)], false, 0);
        assert_eq!(miss.dram_requests, vec![(t, 0, false)]);
        let fill = resolve(&miss, &mut ch);
        assert_eq!(fill, t + 330);
        let again = planned(&mut l1, &mut mshr, t + 1, &[tx(0)], false, 1);
        assert!(again.dram_requests.is_empty() && again.merged_waits.is_empty());
        assert_eq!((again.mshr_merges, again.mshr_bypasses), (0, 0));
        assert!(again.resolves_inline(false));
        assert_eq!(again.inline_ready, t + 1 + 3);
        assert!(again.inline_ready < fill);
    }

    #[test]
    fn mshr_full_file_bypasses_and_counts() {
        let mut l1 = Cache::new(CacheConfig::paper_l1());
        let mut mshr = MshrFile::new(1);
        let p = planned(&mut l1, &mut mshr, 0, &[tx(0), tx(128)], false, 0);
        assert_eq!(p.dram_requests.len(), 2, "bypass still issues");
        assert_eq!(p.mshr_bypasses, 1);
        assert_eq!(p.mshr_merges, 0);
    }

    /// Every lane of a `width`-wide warp at `word(lane)`.
    fn passes(width: usize, word: impl Fn(usize) -> u32) -> u64 {
        let mut addr = [0u32; 64];
        for (l, a) in addr.iter_mut().enumerate() {
            *a = 4 * word(l);
        }
        shared_passes(Mask::full(width), &addr)
    }

    #[test]
    fn shared_conflict_free() {
        // 32 lanes, consecutive words: one pass.
        assert_eq!(passes(32, |l| l as u32), 1);
    }

    #[test]
    fn shared_two_way_conflict() {
        // Stride 2 words: lanes pair up on 16 banks, 2 distinct words each.
        assert_eq!(passes(32, |l| 2 * l as u32), 2);
    }

    #[test]
    fn shared_broadcast_is_free() {
        // Everyone reads word 0: same word, one pass.
        assert_eq!(passes(32, |_| 0), 1);
    }

    #[test]
    fn shared_two_waves() {
        // 64 lanes conflict-free = 2 waves.
        assert_eq!(passes(64, |l| l as u32), 2);
        assert_eq!(waves_touched(Mask::full(64)), 2);
        assert_eq!(waves_touched(Mask::single(40)), 1);
        assert_eq!(waves_touched(Mask::EMPTY), 0);
    }

    #[test]
    fn shared_empty_mask_is_one_pass() {
        assert_eq!(shared_passes(Mask::EMPTY, &[0; 64]), 1);
    }
}
