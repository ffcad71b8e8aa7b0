//! Property-based verification of the shared channel's determinism
//! contract: the grant schedule of one epoch is a pure function of the
//! *set* of requests — any permutation of the batch (i.e. any SM polling
//! order the machine might use) produces bit-identical grants — and the
//! single-SM schedule reproduces the private [`Dram`] model exactly.

use proptest::prelude::*;

use warpweave_mem::{
    ChannelStats, Dram, DramConfig, MemGrant, MemRequest, SharedDramChannel, BLOCK_BYTES,
};

const NUM_SMS: u32 = 6;

/// Builds a well-formed request batch from raw samples: per-SM sequence
/// numbers are assigned in list order (monotonic per SM, as a real SM's
/// transaction counter guarantees).
fn batch(raw: &[(u64, u32, bool)]) -> Vec<MemRequest> {
    let mut next_seq = [0u64; NUM_SMS as usize];
    raw.iter()
        .map(|&(issue_cycle, sm, is_write)| {
            let sm_id = sm % NUM_SMS;
            let seq = next_seq[sm_id as usize];
            next_seq[sm_id as usize] += 1;
            MemRequest {
                issue_cycle,
                sm_id,
                seq,
                addr: (seq as u32) * 128,
                is_write,
            }
        })
        .collect()
}

fn arbitrate(epoch: u64, requests: Vec<MemRequest>) -> Vec<MemGrant> {
    SharedDramChannel::new(DramConfig::paper()).arbitrate_epoch(epoch, NUM_SMS, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grants_invariant_under_polling_order(
        raw in proptest::collection::vec((0u64..512, 0u32..NUM_SMS, any::<bool>()), 1..48),
        epoch in 0u64..16,
        rot in 1usize..17,
    ) {
        let reqs = batch(&raw);
        let reference = arbitrate(epoch, reqs.clone());

        // Permutation 1: rotation (models a different SM polling start).
        let mut rotated = reqs.clone();
        let k = rot % rotated.len().max(1);
        rotated.rotate_left(k);
        prop_assert_eq!(&arbitrate(epoch, rotated), &reference);

        // Permutation 2: full reversal (worst-case poll inversion).
        let mut reversed = reqs.clone();
        reversed.reverse();
        prop_assert_eq!(&arbitrate(epoch, reversed), &reference);

        // Permutation 3: interleave halves (odd/even SM-major gather).
        let mid = reqs.len() / 2;
        let mut interleaved: Vec<MemRequest> = Vec::with_capacity(reqs.len());
        for i in 0..mid {
            interleaved.push(reqs[mid + i]);
            interleaved.push(reqs[i]);
        }
        if reqs.len() % 2 == 1 {
            interleaved.push(reqs[reqs.len() - 1]);
        }
        prop_assert_eq!(&arbitrate(epoch, interleaved), &reference);
    }

    #[test]
    fn grant_schedule_is_physical(
        raw in proptest::collection::vec((0u64..512, 0u32..NUM_SMS, any::<bool>()), 1..48),
        epoch in 0u64..16,
    ) {
        let cfg = DramConfig::paper();
        let grants = arbitrate(epoch, batch(&raw));
        prop_assert_eq!(grants.len(), raw.len());
        // Completion never beats the fixed latency, and the channel
        // serialises: ready cycles are non-decreasing in grant order.
        let mut last_ready = 0u64;
        for g in &grants {
            prop_assert!(g.ready_cycle >= cfg.latency);
            prop_assert!(g.ready_cycle >= last_ready);
            last_ready = g.ready_cycle;
        }
    }

    #[test]
    fn completions_leave_in_grant_order(
        raw in proptest::collection::vec((0u64..2048, 0u32..NUM_SMS, any::<bool>()), 1..48),
        t in 0u64..4096,
    ) {
        // Requests granted one by one in list order — issue cycles in any
        // order, as across channels' epochs — still complete in grant
        // order, which is what lets the in-flight record be a queue.
        let mut ch = SharedDramChannel::new(DramConfig::paper());
        let reqs = batch(&raw);
        let grants: Vec<MemGrant> = reqs.iter().map(|r| ch.grant(r)).collect();
        for pair in grants.windows(2) {
            prop_assert!(pair[0].ready_cycle <= pair[1].ready_cycle);
        }
        // Every grant also prunes what completed before its issue cycle,
        // so the count is of completions at or after the latest of those
        // and `t`.
        ch.retire_completions_before(t);
        let from = reqs.iter().map(|r| r.issue_cycle).fold(t, u64::max);
        let outstanding = grants.iter().filter(|g| g.ready_cycle >= from).count();
        prop_assert_eq!(ch.outstanding_transfers(), outstanding);
    }

    #[test]
    fn single_sm_schedule_matches_private_dram(
        raw in proptest::collection::vec((0u64..64, 0u32..1, any::<bool>()), 1..32),
    ) {
        // One SM's requests sorted by issue order through the shared
        // channel == the same stream through the inline Dram model.
        let cfg = DramConfig::paper();
        let reqs = batch(&raw);
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|r| (r.issue_cycle, r.seq));
        let mut dram = Dram::new(cfg);
        let expected: Vec<u64> = sorted
            .iter()
            .map(|r| if r.is_write { dram.write(r.issue_cycle) } else { dram.read(r.issue_cycle) })
            .collect();
        let grants = arbitrate(3, sorted);
        let got: Vec<u64> = grants.iter().map(|g| g.ready_cycle).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn every_participant_eventually_holds_top_priority(
        raw_ids in proptest::collection::vec(0u32..24, 1..8),
        num_sms in 24u32..32,
    ) {
        // Over one full rotation of epochs, every SM of an arbitrary —
        // possibly non-contiguous — participant set must be granted first
        // at least once (the starvation-freedom the position-based rank
        // restores; `sm % n` collapsed distinct ids onto one rank).
        let ids: Vec<u32> = raw_ids.into_iter()
            .collect::<std::collections::BTreeSet<u32>>().into_iter().collect();
        let mut been_first: std::collections::BTreeSet<u32> = Default::default();
        for epoch in 0..num_sms as u64 {
            let reqs: Vec<MemRequest> = ids.iter().map(|&sm_id| MemRequest {
                issue_cycle: 0, sm_id, seq: 0, addr: 0, is_write: false,
            }).collect();
            let grants = SharedDramChannel::new(DramConfig::paper())
                .arbitrate_epoch(epoch, num_sms, reqs);
            been_first.insert(grants[0].sm_id);
        }
        prop_assert_eq!(been_first.len(), ids.len(),
            "some SM never held top priority: {:?}", been_first);
    }

    #[test]
    fn utilization_stays_in_unit_interval(
        raw in proptest::collection::vec((0u64..512, 0u32..NUM_SMS, any::<bool>()), 1..48),
        epoch in 0u64..16,
        slack in 0u64..10_000,
    ) {
        let cfg = DramConfig::paper();
        let mut ch = SharedDramChannel::new(cfg);
        let grants = ch.arbitrate_epoch(epoch, NUM_SMS, batch(&raw));
        // The channel is busy until the last transfer drains: its start
        // (ready − latency) plus the transfer occupancy, rounded up.
        let occupancy = (f64::from(BLOCK_BYTES) / cfg.bytes_per_cycle).ceil() as u64 + 1;
        let makespan = grants.iter().map(|g| g.ready_cycle).max().unwrap()
            - cfg.latency + occupancy;
        let util = ch.stats().utilization(makespan + slack, cfg.bytes_per_cycle);
        prop_assert!((0.0..=1.0).contains(&util), "utilization {util} at horizon");
        // Degenerate horizons clamp to 0 rather than dividing by zero.
        prop_assert_eq!(ch.stats().utilization(0, cfg.bytes_per_cycle), 0.0);
        prop_assert_eq!(ch.stats().utilization(makespan, 0.0), 0.0);
    }

    #[test]
    fn channel_stats_accumulate_is_associative_and_commutative(
        raw in proptest::collection::vec(0u64..1_000_000, 27..28),
    ) {
        // 27 draws = 3 ChannelStats × 9 canonical fields.
        let width = ChannelStats::default().to_fields().len();
        let stats: Vec<ChannelStats> = raw.chunks(width).take(3).map(|f| {
            let named: Vec<(&str, u64)> = ChannelStats::default()
                .to_fields().iter().zip(f).map(|(&(n, _), &v)| (n, v)).collect();
            ChannelStats::from_fields(&named).unwrap()
        }).collect();
        let (a, b, c) = (stats[0], stats[1], stats[2]);
        let fold = |x: ChannelStats, y: &ChannelStats| { let mut x = x; x.accumulate(y); x };
        // Commutative: a+b == b+a.
        prop_assert_eq!(fold(a, &b), fold(b, &a));
        // Associative: (a+b)+c == a+(b+c).
        prop_assert_eq!(fold(fold(a, &b), &c), fold(a, &fold(b, &c)));
    }
}
