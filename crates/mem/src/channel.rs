//! The machine-shared DRAM channel with deterministic epoch arbitration.
//!
//! A [`SharedDramChannel`] replaces per-SM [`crate::Dram`] instances with
//! one bandwidth pool: every SM's off-chip transactions pass through a
//! single serialising channel, so whole-GPU IPC saturates at the configured
//! bandwidth the way the paper's multi-SM platform does, instead of scaling
//! each SM's private 10 GB/s.
//!
//! # Arbitration
//!
//! Transactions are granted in **epochs** (fixed windows of core cycles).
//! Within one epoch the channel serves requests in the total order
//! `(issue_cycle, epoch-rotated SM priority, per-SM sequence number)`:
//! earlier requests first; ties at the same cycle go to the SM whose id is
//! closest (mod `num_sms`) to the epoch's priority holder, which rotates
//! every epoch so no SM is structurally starved; the per-SM sequence number
//! makes the order total. Because the order is total, the grant schedule is
//! a pure function of the *set* of requests — independent of the order SMs
//! were polled in, of host thread count and of scheduling jitter. This is
//! the channel-level half of the machine's determinism contract
//! (`crates/core/tests/shared_channel.rs` pins the other half).
//!
//! # Timing
//!
//! A granted request starts at `max(channel_free, issue_cycle)`, occupies
//! the channel for `BLOCK_BYTES / bytes_per_cycle` cycles and completes
//! a fixed `latency` after its start — the same arithmetic as the private
//! [`crate::Dram`] model, so a single-SM machine on the shared channel
//! reproduces the inline-latency timings exactly.

use std::collections::VecDeque;

use crate::coalesce::BLOCK_BYTES;
use crate::dram::DramConfig;

/// One off-chip transaction awaiting a grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Cycle the requesting SM's LSU put the transaction on the wire.
    pub issue_cycle: u64,
    /// Requesting SM.
    pub sm_id: u32,
    /// Per-SM monotonic transaction number (total-order tie-break).
    pub seq: u64,
    /// Block-aligned byte address of the transfer — routes the request to
    /// an interleaved channel and indexes the shared L2.
    pub addr: u32,
    /// Write-through store / atomic (true) or load fill (false).
    pub is_write: bool,
}

/// The channel's answer to one [`MemRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGrant {
    /// SM the grant belongs to.
    pub sm_id: u32,
    /// The request's per-SM sequence number.
    pub seq: u64,
    /// Cycle the transferred data is available (start + latency).
    pub ready_cycle: u64,
    /// Cycles the request waited behind earlier transfers (start − issue).
    pub queue_delay: u64,
    /// Copied from the request: write traffic never blocks a warp.
    pub is_write: bool,
}

crate::counter_table! {
    /// Traffic and contention counters of one channel, or — summed by the
    /// machine — of the whole memory side: every channel plus the shared
    /// L2, which reports its counters as the `l2_*` rows.
    ///
    /// All fields are integers so aggregate [`ChannelStats`] stay
    /// `Eq`-comparable in the determinism tests; derived ratios
    /// ([`ChannelStats::utilization`], [`ChannelStats::avg_queue_delay`])
    /// are computed on demand.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChannelStats {
        /// Load (fill) transfers granted.
        read_transfers: u64 = sum,
        /// Write-through transfers granted.
        write_transfers: u64 = sum,
        /// Total bytes moved.
        bytes_transferred: u64 = sum,
        /// Requests that found the channel busy (queue_delay > 0).
        queued_requests: u64 = sum,
        /// Total cycles requests spent queued behind earlier transfers.
        queue_delay_cycles: u64 = sum,
        /// Worst single-request queue delay.
        max_queue_delay: u64 = max,
        /// Load fills intercepted by the shared L2 (never reached a channel).
        l2_hits: u64 = sum,
        /// Load fills that missed the shared L2 and went off-chip.
        l2_misses: u64 = sum,
        /// CIAO-style interference counter: L2 evictions where the victim
        /// line was last filled by a *different* SM than the evictor.
        l2_cross_sm_evictions: u64 = sum,
    }
}

impl ChannelStats {
    /// Total transfers granted.
    pub fn total_transfers(&self) -> u64 {
        self.read_transfers + self.write_transfers
    }

    /// Fraction of the theoretical byte budget (`bytes_per_cycle × cycles`)
    /// actually moved — 1.0 means the channel is saturated.
    pub fn utilization(&self, cycles: u64, bytes_per_cycle: f64) -> f64 {
        if cycles == 0 || bytes_per_cycle <= 0.0 {
            0.0
        } else {
            self.bytes_transferred as f64 / (bytes_per_cycle * cycles as f64)
        }
    }

    /// Mean queue delay per granted request, in cycles.
    pub fn avg_queue_delay(&self) -> f64 {
        let n = self.total_transfers();
        if n == 0 {
            0.0
        } else {
            self.queue_delay_cycles as f64 / n as f64
        }
    }
}

/// Sorts `requests` into the deterministic epoch grant order
/// `(issue_cycle, rotated SM priority, sm_id, seq)`.
///
/// Priority ranks SMs by **position in the sorted participating-SM set**,
/// anchored at the epoch's priority holder `epoch % num_sms` (the first
/// participant whose id is ≥ the holder, wrapping). Ranking by position
/// rather than by `sm_id % num_sms` keeps the rotation fair when the
/// participant set is non-contiguous — e.g. when channels shard requests
/// by address — instead of collapsing several SMs onto one rank; for
/// contiguous ids `0..num_sms` it is the rotation by id. The order depends
/// only on the *set* of requests (plus `epoch` and `num_sms`), which is
/// what makes every consumer — channel arbitration, the shared-L2 probe
/// pass — deterministic under any polling order.
pub fn sort_epoch_order(epoch: u64, num_sms: u32, requests: &mut [MemRequest]) {
    let n = num_sms.max(1);
    let holder = (epoch % n as u64) as u32;
    let mut sms: Vec<u32> = requests.iter().map(|r| r.sm_id).collect();
    sms.sort_unstable();
    sms.dedup();
    if sms.is_empty() {
        return;
    }
    let m = sms.len() as u32;
    let holder_pos = sms.partition_point(|&id| id < holder) as u32 % m;
    let rank = |sm: u32| {
        let pos = sms.partition_point(|&id| id < sm) as u32;
        (pos + m - holder_pos) % m
    };
    requests.sort_unstable_by_key(|r| (r.issue_cycle, rank(r.sm_id), r.sm_id, r.seq));
}

/// A single DRAM channel shared by every SM of a machine.
///
/// # Examples
/// ```
/// use warpweave_mem::{DramConfig, MemRequest, SharedDramChannel};
///
/// let mut ch = SharedDramChannel::new(DramConfig::paper());
/// let reqs = vec![
///     MemRequest { issue_cycle: 0, sm_id: 1, seq: 0, addr: 0x80, is_write: false },
///     MemRequest { issue_cycle: 0, sm_id: 0, seq: 0, addr: 0x00, is_write: false },
/// ];
/// let grants = ch.arbitrate_epoch(0, 2, reqs);
/// // Epoch 0 gives SM 0 priority: it goes first, SM 1 queues behind it.
/// assert_eq!(grants[0].sm_id, 0);
/// assert_eq!(grants[0].ready_cycle, 330);
/// assert_eq!(grants[1].queue_delay, 12); // 128 B / 10 B-per-cycle
/// ```
#[derive(Debug, Clone)]
pub struct SharedDramChannel {
    cfg: DramConfig,
    /// Fractional cycle at which the channel next becomes free.
    free: f64,
    stats: ChannelStats,
    /// Ready cycles of completions granted but not yet retired as past —
    /// the traffic the machine's livelock watchdog asks about — in grant
    /// order, hence non-decreasing: `free` only grows.
    inflight: VecDeque<u64>,
}

impl SharedDramChannel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        SharedDramChannel {
            cfg,
            free: 0.0,
            stats: ChannelStats::default(),
            inflight: VecDeque::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated traffic/contention statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Grants one request immediately (single-SM / private-channel mode):
    /// identical arithmetic to [`crate::Dram::read`] / [`crate::Dram::write`].
    pub fn grant(&mut self, req: &MemRequest) -> MemGrant {
        // Issue cycles are non-decreasing across epochs, so completions
        // before this request's issue can never be queried again — drain
        // them to keep the in-flight queue bounded by true outstanding work.
        self.retire_completions_before(req.issue_cycle);
        let start = self.free.max(req.issue_cycle as f64);
        self.free = start + f64::from(BLOCK_BYTES) / self.cfg.bytes_per_cycle;
        let start_cycle = start as u64;
        let ready_cycle = start_cycle + self.cfg.latency;
        let queue_delay = start_cycle - req.issue_cycle;
        if req.is_write {
            self.stats.write_transfers += 1;
        } else {
            self.stats.read_transfers += 1;
        }
        self.stats.bytes_transferred += u64::from(BLOCK_BYTES);
        if queue_delay > 0 {
            self.stats.queued_requests += 1;
        }
        self.stats.queue_delay_cycles += queue_delay;
        self.stats.max_queue_delay = self.stats.max_queue_delay.max(queue_delay);
        debug_assert!(self.inflight.back().is_none_or(|&last| last <= ready_cycle));
        self.inflight.push_back(ready_cycle);
        MemGrant {
            sm_id: req.sm_id,
            seq: req.seq,
            ready_cycle,
            queue_delay,
            is_write: req.is_write,
        }
    }

    /// Grants every request of one epoch in the deterministic total order
    /// `(issue_cycle, rotated SM priority, seq)`; see the module docs. The
    /// result is invariant under any permutation of `requests` — the
    /// polling-order property `crates/mem/tests/channel_properties.rs`
    /// pins — and is returned in grant order.
    pub fn arbitrate_epoch(
        &mut self,
        epoch: u64,
        num_sms: u32,
        mut requests: Vec<MemRequest>,
    ) -> Vec<MemGrant> {
        let mut grants = Vec::with_capacity(requests.len());
        self.arbitrate_into(epoch, num_sms, &mut requests, &mut grants);
        grants
    }

    /// [`SharedDramChannel::arbitrate_epoch`] over buffers the caller
    /// keeps: drains `requests` and appends their grants to `grants`, so a
    /// machine's epoch loop reuses both from epoch to epoch.
    pub fn arbitrate_into(
        &mut self,
        epoch: u64,
        num_sms: u32,
        requests: &mut Vec<MemRequest>,
        grants: &mut Vec<MemGrant>,
    ) {
        sort_epoch_order(epoch, num_sms, requests);
        grants.extend(requests.drain(..).map(|r| self.grant(&r)));
    }

    /// Discards granted completions strictly before `now` so
    /// [`SharedDramChannel::outstanding_transfers`] stays a tight bound on
    /// work still in flight (they are also pruned lazily on every
    /// [`SharedDramChannel::grant`]). Never changes a later grant. Callers
    /// with a monotonic clock (the machine's epoch loop) invoke it at each
    /// barrier.
    pub fn retire_completions_before(&mut self, now: u64) {
        let past = self.inflight.partition_point(|&ready| ready < now);
        self.inflight.drain(..past);
    }

    /// Number of granted completions not yet pruned as past — a cheap
    /// upper bound on outstanding transfers. The machine's epoch-livelock
    /// watchdog reports it so a hang can be told apart from a long DRAM
    /// queue (this non-zero means traffic is still in flight and the
    /// stall counter must not advance).
    pub fn outstanding_transfers(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_field_codec_round_trips() {
        // A distinct value per counter, so a swapped assignment shows.
        let fields: Vec<(&str, u64)> = ChannelStats::FIELD_NAMES.into_iter().zip(1..).collect();
        let stats = ChannelStats::from_fields(&fields).unwrap();
        assert_eq!((stats.read_transfers, stats.write_transfers), (1, 2));
        assert_eq!(stats.to_fields(), fields);
        let mut bad = fields.clone();
        bad.swap(0, 1);
        assert!(ChannelStats::from_fields(&bad).is_err());
        assert!(ChannelStats::from_fields(&bad[..2]).is_err());
    }

    fn read(issue_cycle: u64, sm_id: u32, seq: u64) -> MemRequest {
        MemRequest {
            issue_cycle,
            sm_id,
            seq,
            addr: 0,
            is_write: false,
        }
    }

    #[test]
    fn matches_private_dram_arithmetic() {
        // The shared channel serving one SM must reproduce Dram exactly.
        let mut shared = SharedDramChannel::new(DramConfig::paper());
        let mut private = crate::Dram::new(DramConfig::paper());
        for (i, issue) in [0u64, 0, 0, 100, 10_000].into_iter().enumerate() {
            let grant = shared.grant(&read(issue, 0, i as u64));
            assert_eq!(grant.ready_cycle, private.read(issue), "request {i}");
        }
    }

    #[test]
    fn epoch_priority_rotates() {
        let cfg = DramConfig::paper();
        // Epoch 0: SM 0 first; epoch 1: SM 1 first.
        let mut ch = SharedDramChannel::new(cfg);
        let g0 = ch.arbitrate_epoch(0, 2, vec![read(0, 1, 0), read(0, 0, 0)]);
        assert_eq!((g0[0].sm_id, g0[1].sm_id), (0, 1));
        let mut ch = SharedDramChannel::new(cfg);
        let g1 = ch.arbitrate_epoch(1, 2, vec![read(0, 1, 0), read(0, 0, 0)]);
        assert_eq!((g1[0].sm_id, g1[1].sm_id), (1, 0));
    }

    #[test]
    fn earlier_issue_beats_priority() {
        let mut ch = SharedDramChannel::new(DramConfig::paper());
        let g = ch.arbitrate_epoch(0, 2, vec![read(5, 0, 0), read(3, 1, 0)]);
        assert_eq!(g[0].sm_id, 1, "issue cycle dominates SM priority");
    }

    #[test]
    fn contention_stats_accumulate() {
        let mut ch = SharedDramChannel::new(DramConfig::paper());
        let grants = ch.arbitrate_epoch(0, 4, (0..4).map(|s| read(0, s, 0)).collect());
        let st = ch.stats();
        assert_eq!(st.read_transfers, 4);
        assert_eq!(st.bytes_transferred, 4 * 128);
        assert_eq!(st.queued_requests, 3, "all but the first wait");
        assert_eq!(st.max_queue_delay, grants[3].queue_delay);
        assert!(st.utilization(52, 10.0) > 0.98, "back-to-back saturates");
        assert!(st.avg_queue_delay() > 0.0);
    }

    #[test]
    fn retiring_discards_past_completions_only() {
        let mut ch = SharedDramChannel::new(DramConfig::paper());
        ch.grant(&read(0, 0, 0)); // completes at 330
        ch.grant(&read(0, 0, 1)); // completes at 342
        assert_eq!(ch.outstanding_transfers(), 2);
        ch.retire_completions_before(330);
        assert_eq!(ch.outstanding_transfers(), 2, "330 is not before 330");
        ch.retire_completions_before(331);
        assert_eq!(ch.outstanding_transfers(), 1);
        ch.retire_completions_before(343);
        assert_eq!(ch.outstanding_transfers(), 0);
    }

    #[test]
    fn rotation_ranks_by_position_for_non_contiguous_ids() {
        // Participants {1, 5}: a `sm % n` rank with n = 2 maps both to odd
        // ranks (1 % 2 == 5 % 2), collapsing the rotation. Position
        // ranking keeps them distinct and rotates.
        let cfg = DramConfig::paper();
        let mut ch = SharedDramChannel::new(cfg);
        let g0 = ch.arbitrate_epoch(0, 8, vec![read(0, 5, 0), read(0, 1, 0)]);
        assert_eq!((g0[0].sm_id, g0[1].sm_id), (1, 5), "holder 0 → SM 1 first");
        let mut ch = SharedDramChannel::new(cfg);
        let g1 = ch.arbitrate_epoch(3, 8, vec![read(0, 5, 0), read(0, 1, 0)]);
        assert_eq!((g1[0].sm_id, g1[1].sm_id), (5, 1), "holder 3 → SM 5 first");
    }
}
