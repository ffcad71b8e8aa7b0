//! Direct coverage of `lsu::plan_global_into` edge cases that workloads only
//! exercise indirectly: unaligned accesses, cross-line straddles,
//! fully-masked-off warps, and replay trains under a zero-capacity epoch
//! (a channel so slow the whole epoch grants nothing on time) — and the
//! shared-memory pass count of an access's lane rows against its
//! definition.

use std::collections::BTreeSet;

use proptest::prelude::*;

use warpweave_core::lsu::{plan_global_into, shared_passes, waves_touched, GlobalPlan};
use warpweave_core::Mask;
use warpweave_mem::{
    coalesce_into, AccessShape, Cache, CacheConfig, DramConfig, MemRequest, MshrFile,
    SharedDramChannel, Transaction, TxScratch, BLOCK_BYTES,
};

fn l1() -> Cache {
    Cache::new(CacheConfig::paper_l1())
}

/// `plan_global_into` a fresh plan with MSHRs disabled — the configuration
/// every test here exercises (MSHR merge behaviour has its own coverage in
/// `lsu`).
fn plan(l1: &mut Cache, start: u64, txs: &[Transaction], is_store: bool) -> GlobalPlan {
    let mut plan = GlobalPlan::default();
    plan_global_into(
        &mut plan,
        l1,
        &mut MshrFile::disabled(),
        start,
        txs,
        is_store,
        0,
    );
    plan
}

/// The coalesced transactions of a `(lane, byte address)` list.
fn coalesced(accesses: &[(usize, u32)]) -> Vec<Transaction> {
    let mut scratch = TxScratch::new();
    coalesce_into(accesses, &mut scratch);
    scratch.txs().to_vec()
}

/// Replays a plan's DRAM requests through a channel the way the
/// private-mode pipeline does, returning the final data-ready cycle.
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
fn fully_masked_off_warp_occupies_the_port_one_cycle() {
    // A load whose active mask is empty contributes no transactions but
    // still occupies the LSU port for its issue slot.
    let mut l1 = l1();
    let plan = plan(&mut l1, 42, &[], false);
    assert_eq!(plan.port_cycles, 1, "empty plan still holds the port");
    assert_eq!(plan.inline_ready, 42, "nothing to wait for");
    assert!(plan.dram_requests.is_empty());
    assert!(plan.resolves_inline(false), "no grant to block on");
    // Same for a fully-masked store.
    let plan = self::plan(&mut l1, 42, &[], true);
    assert_eq!((plan.port_cycles, plan.inline_ready), (1, 42));
    assert!(plan.resolves_inline(true));
}

#[test]
fn unaligned_accesses_coalesce_by_containing_block() {
    // Byte-unaligned lane addresses (1, 5, 127) share block 0; 129 falls
    // into block 128 — the coalescer keys on the containing 128 B block,
    // not on word alignment.
    let txs = coalesced(&[(0, 1), (1, 5), (2, 127), (3, 129)]);
    assert_eq!(txs.len(), 2);
    assert_eq!(txs[0].block_addr, 0);
    assert_eq!(txs[0].lanes, 0b0111);
    assert_eq!(txs[1].block_addr, BLOCK_BYTES);
    assert_eq!(txs[1].lanes, 0b1000);

    // Cold cache: both blocks miss, one replay slot each, in port order.
    let mut l1 = l1();
    let plan = plan(&mut l1, 10, &txs, false);
    assert_eq!(plan.port_cycles, 2);
    assert_eq!(
        plan.dram_requests,
        vec![(10, 0, false), (11, BLOCK_BYTES, false)]
    );
    assert!(!plan.resolves_inline(false));
}

#[test]
fn cross_line_straddle_replays_once_per_line() {
    // A warp whose consecutive word accesses straddle a line boundary:
    // lanes 0..31 at 100 + 4·lane cross from block 0 into block 128.
    let accesses: Vec<(usize, u32)> = (0..32).map(|l| (l, 100 + 4 * l as u32)).collect();
    let txs = coalesced(&accesses);
    assert_eq!(txs.len(), 2, "one transaction per touched line");
    assert_eq!(txs[0].block_addr, 0);
    assert_eq!(txs[1].block_addr, BLOCK_BYTES);
    // Lanes 0..6 (addresses 100..127) stay in line 0; 7.. straddle over.
    assert_eq!(txs[0].lanes, 0x0000_007f);
    assert_eq!(txs[1].lanes, 0xffff_ff80);

    // Warm both lines: the straddle costs one replay but stays inline.
    let mut l1 = l1();
    l1.access_load(0);
    l1.access_load(BLOCK_BYTES);
    let plan = plan(&mut l1, 50, &txs, false);
    assert_eq!(plan.port_cycles, 2, "replayed once for the second line");
    assert!(plan.dram_requests.is_empty());
    // Second transaction issues at 51 and completes after the hit latency.
    let hit = CacheConfig::paper_l1().hit_latency as u64;
    assert_eq!(plan.inline_ready, 51 + hit);
}

#[test]
fn replay_train_under_a_zero_capacity_epoch_serialises_cleanly() {
    // A channel provisioned at 1/8 byte per cycle needs 1024 cycles per
    // 128 B transfer — an entire DRAM-latency epoch (330 cycles) grants
    // nothing beyond the transfer already in flight. A 4-transaction
    // replay train issued back-to-back must queue deterministically, not
    // drop or reorder.
    let starved = DramConfig {
        bytes_per_cycle: 0.125,
        ..DramConfig::paper()
    };
    let mut l1 = l1();
    let txs: Vec<Transaction> = (0..4)
        .map(|b| Transaction {
            block_addr: b * BLOCK_BYTES,
            lanes: 1 << b,
        })
        .collect();
    let plan = plan(&mut l1, 0, &txs, false);
    assert_eq!(plan.port_cycles, 4);
    assert_eq!(plan.dram_requests.len(), 4, "cold cache: all four miss");

    let mut channel = SharedDramChannel::new(starved);
    let ready = resolve(&plan, &mut channel);
    // Transfers serialise at 1024 cycles each: starts at 0, 1024, 2048,
    // 3072; the train completes at 3072 + 330.
    assert_eq!(ready, 3402);
    let stats = channel.stats();
    assert_eq!(stats.read_transfers, 4);
    assert_eq!(stats.queued_requests, 3, "all but the first waited");
    assert_eq!(
        stats.max_queue_delay,
        3072 - 3,
        "last issued at 3, started at 3072"
    );
    assert_eq!(stats.bytes_transferred, 4 * 128);

    // The same train through epoch arbitration (the machine path) keeps
    // per-SM sequence order even though the whole batch lands in one
    // zero-capacity epoch, and matches the immediate-grant timings.
    let mut epoch_channel = SharedDramChannel::new(starved);
    let batch: Vec<MemRequest> = plan
        .dram_requests
        .iter()
        .enumerate()
        .map(|(seq, &(issue_cycle, addr, is_write))| MemRequest {
            issue_cycle,
            sm_id: 0,
            seq: seq as u64,
            addr,
            is_write,
        })
        .collect();
    let grants = epoch_channel.arbitrate_epoch(7, 4, batch);
    let seqs: Vec<u64> = grants.iter().map(|g| g.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3], "seq order survives arbitration");
    assert_eq!(grants.last().unwrap().ready_cycle, 3402);
    assert_eq!(epoch_channel.stats(), stats, "both paths agree exactly");

    // An epoch with no requests grants nothing and records nothing.
    assert!(epoch_channel.arbitrate_epoch(8, 4, Vec::new()).is_empty());
    assert_eq!(epoch_channel.stats(), stats);
}

/// `shared_passes` from its definition: per 32-lane wave, the most
/// distinct words any one bank serves — no conflict-free shortcut, no
/// sort.
fn shared_passes_reference(accesses: &[(usize, u32)]) -> u64 {
    let mut total = 0;
    for wave in 0..2 {
        let mut banks: [BTreeSet<u32>; 32] = Default::default();
        for &(_, a) in accesses.iter().filter(|&&(l, _)| l / 32 == wave) {
            banks[(a / 4 % 32) as usize].insert(a / 4);
        }
        total += banks.iter().map(BTreeSet::len).max().unwrap_or(0) as u64;
    }
    total.max(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The row walk (a slot per bank, then one read-back per lane; a sort
    /// only for a wave that conflicts) returns the pass count of the
    /// definition on every access pattern — one word, dense runs, the 2-D
    /// tile's two 16-lane runs per wave, strided (conflict-free at odd
    /// strides, 2-/4-/…-way conflicts at even ones), broadcast-heavy and
    /// scattered — under full, empty, holed and tail masks at widths 4, 32
    /// and 64; and where the shape says one word or a dense run, the O(1)
    /// answer the pipeline uses instead is the same number.
    #[test]
    fn shared_passes_rows_count_like_the_definition(
        bits in any::<u64>(),
        set in 0u8..4,
        width in 0usize..3,
        stride in 0u32..34,
        base in 0u32..64,
        scatter in proptest::collection::vec(0u32..4096, 64..65),
        mode in 0u8..4,
    ) {
        let full = Mask::full([4, 32, 64][width]);
        let mask = full & Mask::from_bits(match set {
            0 => u64::MAX,
            1 => 0,
            2 => u64::MAX << (bits % 64),
            _ => bits,
        });
        let mut addr = [0xdead_beef_u32; 64];
        for (l, a) in addr.iter_mut().enumerate() {
            let word = match mode {
                0 => base + l as u32 * stride,
                // Few distinct words: broadcasts and same-bank pairs.
                1 => base + scatter[l] % 5 * stride,
                // Rows of a 16-wide tile, `stride` words of padding apart.
                2 => base + (l as u32 / 16) * (16 + stride) + l as u32 % 16,
                _ => scatter[l],
            };
            *a = word * 4;
        }
        let list: Vec<(usize, u32)> = mask.iter().map(|l| (l, addr[l])).collect();
        let passes = shared_passes(mask, &addr);
        prop_assert_eq!(passes, shared_passes_reference(&list));
        if AccessShape::of(mask.bits(), &addr) != AccessShape::Other {
            prop_assert_eq!(waves_touched(mask), passes);
        }
    }
}
