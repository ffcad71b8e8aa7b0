//! The parallel multi-SM machine.
//!
//! A [`Machine`] simulates a kernel launch on `num_sms` streaming
//! multiprocessors at once, the way the paper's evaluation platform (and
//! any real GPU) runs a grid: blocks are distributed over SMs and each SM
//! executes its share independently. Per-SM simulations run concurrently
//! on host threads, which is where the wall-clock speedup of the engine
//! comes from.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of host thread count**:
//!
//! * the block→SM assignment is a pure function of `(block_id, num_sms)`
//!   (round-robin), never of host scheduling;
//! * each SM's tie-breaking RNG is seeded from `(seed, sm_id)` via
//!   [`SmConfig::for_sm`];
//! * global-memory side effects are collected in per-SM [`MemJournal`]s
//!   and merged in SM-id order after every SM finishes;
//! * per-SM [`Stats`] are merged in SM-id order.
//!
//! `tests/multi_sm_determinism.rs` pins all four properties.
//!
//! # Memory model
//!
//! Every SM starts a launch from a snapshot of global memory and runs
//! against its private copy; cross-SM effects commit at launch boundaries
//! (stores in SM order, atomic-add deltas summed). This is the bulk-
//! synchronous approximation CUDA itself licenses inside one kernel —
//! blocks may not rely on the order of other blocks' same-launch writes —
//! and it is exact for the disjoint-store and commutative-atomic patterns
//! the benchmarked workloads use. A kernel that both plain-stores *and*
//! atomically updates the same word in one launch is outside the model
//! (the merge applies stores before deltas).
//!
//! # Bandwidth model
//!
//! Under [`MemModel::PrivatePerSm`] (default) each SM owns a channel of
//! [`SmConfig::dram`] bandwidth and runs to completion independently.
//! Under [`MemModel::SharedChannel`] all SMs share a pool of
//! [`DramConfig::num_channels`](warpweave_mem::DramConfig) address-
//! interleaved [`SharedDramChannel`]s (and, when [`SmConfig::l2`] is set,
//! one [`SharedL2`] in front of them): the machine advances SMs in
//! parallel to epoch barriers (one DRAM latency wide), collects each
//! epoch's [`warpweave_mem::MemRequest`]s, sorts the whole batch into the
//! deterministic total order `(issue_cycle, rotating SM priority, seq)`,
//! probes the L2 in that order (hits are granted locally at the L2 hit
//! latency), partitions the remainder by
//! [`DramConfig::channel_of`](warpweave_mem::DramConfig::channel_of) and
//! arbitrates each channel independently — the per-channel rotation is
//! de-phased by the channel index. Grants return before the next epoch.
//! Barriers fall every [`SmConfig::mem_epoch_cycles`] cycles whatever the
//! SMs do — an idle SM fast-forwards *to* its barrier, never across it —
//! so the epoch index a batch is ranked by means the same cycle window in
//! every run. Because the epoch is never longer than the DRAM latency, a
//! transaction issued inside epoch *k* cannot complete before the barrier
//! that grants it — the co-simulation is exact, and bit-identical across
//! host thread counts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use warpweave_isa::Program;
use warpweave_mem::{
    sort_epoch_order, AccessKind, ChannelStats, MemGrant, MemRequest, Memory, SharedDramChannel,
    SharedL2,
};

use crate::config::{MemModel, SmConfig};
use crate::launch::{check_launch, Launch};
use crate::pipeline::{SimError, Sm};
use crate::stats::Stats;
use crate::sweep::SweepRunner;

/// Epochs of total silence — no SM progress, no new requests, no pending
/// channel completions — before [`Machine::run_shared`] declares an epoch
/// livelock. Epochs are [`SmConfig::mem_epoch_cycles`] wide (at most 256
/// cycles), so this fires well before the per-SM watchdog's 100k-cycle
/// stall threshold and can report cross-SM state the SM-local watchdog
/// cannot see.
const LIVELOCK_EPOCHS: u32 = 128;

/// The epoch-livelock state machine of [`Machine::run_shared`], factored
/// out so the stall/reset logic is unit-testable without building a
/// multi-SM deadlock. Each epoch the machine reports whether anything
/// moved; `LIVELOCK_EPOCHS` consecutive silent epochs trip the detector.
#[derive(Debug)]
struct LivelockDetector {
    threshold: u32,
    stalled: u32,
    last_progress_sum: Option<u64>,
}

impl LivelockDetector {
    fn new(threshold: u32) -> LivelockDetector {
        LivelockDetector {
            threshold,
            stalled: 0,
            last_progress_sum: None,
        }
    }

    /// Feeds one epoch's observation; true means the machine is livelocked.
    /// `progress_sum` is the sum of every SM's last-progress cycle (any
    /// forward progress changes it), `had_traffic` whether the epoch
    /// arbitrated any requests, and `mem_pending` whether the channel
    /// still holds completions the SMs have not consumed.
    fn observe(&mut self, progress_sum: u64, had_traffic: bool, mem_pending: bool) -> bool {
        let moved = had_traffic || mem_pending || self.last_progress_sum != Some(progress_sum);
        self.last_progress_sum = Some(progress_sum);
        if moved {
            self.stalled = 0;
            return false;
        }
        self.stalled += 1;
        self.stalled >= self.threshold
    }
}

/// The journal's hasher: one multiply per word address instead of the
/// default SipHash, which every stored word of a machine run paid for.
/// Addresses come from the simulated kernel, not from outside the process,
/// so there is no collision attack to defend against; folding the
/// product's high half down keeps the table's low index bits spread for
/// the 4-byte-aligned keys.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(self.0 as u32 ^ u32::from(b));
        }
    }

    fn write_u32(&mut self, addr: u32) {
        let h = u64::from(addr).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ h >> 32;
    }
}

/// Word address → value (or summed delta).
type AddrMap = HashMap<u32, u32, BuildHasherDefault<AddrHasher>>;

/// Global-memory side effects of one SM over one launch, recorded so a
/// [`Machine`] can merge shards deterministically.
///
/// Stores keep the last value written per word; atomic adds keep the
/// wrapping sum of deltas per word (commutative, so the cross-SM merge
/// is order-independent for atomics).
#[derive(Debug, Clone, Default)]
pub struct MemJournal {
    stores: AddrMap,
    atomic_deltas: AddrMap,
}

impl MemJournal {
    /// Records a plain store of `value` at word-aligned `addr`.
    #[inline]
    pub fn record_store(&mut self, addr: u32, value: u32) {
        self.stores.insert(addr, value);
    }

    /// Records an atomic add of `delta` at word-aligned `addr`.
    #[inline]
    pub fn record_atomic_add(&mut self, addr: u32, delta: u32) {
        let slot = self.atomic_deltas.entry(addr).or_insert(0);
        *slot = slot.wrapping_add(delta);
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty() && self.atomic_deltas.is_empty()
    }

    /// Commits a sequence of journals to `mem`: every journal's stores in
    /// the order given (so the caller's SM-id ordering decides write-write
    /// races deterministically), then the atomic deltas summed across all
    /// journals (commutative, hence order-independent). This is the single
    /// authoritative merge used by [`Machine::run`].
    ///
    /// The result does not depend on the iteration order *within* a
    /// journal, so neither on the maps' hasher: a journal holds one value
    /// per distinct address, and writes to distinct words commute, as do
    /// the wrapping sums of the deltas.
    pub fn commit_all<'a>(journals: impl IntoIterator<Item = &'a MemJournal>, mem: &mut Memory) {
        let mut summed_deltas = AddrMap::default();
        for journal in journals {
            for (&addr, &value) in &journal.stores {
                mem.write_u32(addr, value);
            }
            for (&addr, &delta) in &journal.atomic_deltas {
                let slot = summed_deltas.entry(addr).or_insert(0);
                *slot = slot.wrapping_add(delta);
            }
        }
        for (&addr, &delta) in &summed_deltas {
            let old = mem.read_u32(addr);
            mem.write_u32(addr, old.wrapping_add(delta));
        }
    }
}

/// Statistics of one [`Machine::run`]: the per-SM breakdown plus the
/// aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// One entry per simulated SM, in SM-id order (empty shards included
    /// as default stats so indices always equal SM ids).
    pub per_sm: Vec<Stats>,
    /// Counters summed across SMs with `cycles` = the makespan
    /// (see [`Stats::merge_parallel`]).
    pub total: Stats,
    /// Shared-channel traffic/contention counters. All-zero under
    /// [`MemModel::PrivatePerSm`] (per-SM traffic still appears in each
    /// [`Stats::dram`]).
    pub channel: ChannelStats,
}

impl MachineStats {
    /// Whole-machine thread-instructions per makespan cycle.
    pub fn ipc(&self) -> f64 {
        self.total.ipc()
    }

    /// Shared-channel bandwidth saturation over the makespan: fraction of
    /// the channel's byte budget actually moved (0 under
    /// [`MemModel::PrivatePerSm`]).
    pub fn channel_utilization(&self, bytes_per_cycle: f64) -> f64 {
        self.channel.utilization(self.total.cycles, bytes_per_cycle)
    }

    /// Folds a subsequent launch's machine stats into this one (summing,
    /// like [`Stats::accumulate`], launch after launch).
    pub fn accumulate(&mut self, other: &MachineStats) {
        if self.per_sm.len() < other.per_sm.len() {
            self.per_sm.resize(other.per_sm.len(), Stats::default());
        }
        for (mine, theirs) in self.per_sm.iter_mut().zip(&other.per_sm) {
            mine.accumulate(theirs);
        }
        self.total.accumulate(&other.total);
        self.channel.accumulate(&other.channel);
    }
}

/// A whole simulated GPU: `num_sms` SMs sharing a kernel and a global
/// memory, simulated in parallel on host threads.
///
/// # Examples
/// ```
/// use warpweave_core::{Launch, Machine, SmConfig};
/// use warpweave_isa::{KernelBuilder, SpecialReg, r};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut k = KernelBuilder::new("demo");
/// k.mov(r(0), SpecialReg::Tid);
/// k.exit();
/// let launch = Launch::new(k.build()?, 16, 256);
/// let mut machine = Machine::new(SmConfig::sbi(), 4, launch)?;
/// let stats = machine.run(1_000_000)?;
/// assert_eq!(stats.per_sm.len(), 4);
/// assert!(stats.ipc() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: SmConfig,
    num_sms: usize,
    runner: SweepRunner,
    program: Arc<Program>,
    grid_blocks: u32,
    block_threads: u32,
    params: Vec<u32>,
    mem: Memory,
    stats: MachineStats,
}

impl Machine {
    /// Builds a machine of `num_sms` SMs for `launch` under `cfg`.
    ///
    /// # Errors
    /// What [`Sm::for_blocks`] refuses of a launch, and zero SMs.
    pub fn new(cfg: SmConfig, num_sms: usize, launch: Launch) -> Result<Machine, String> {
        check_launch(
            &cfg,
            &launch.program,
            launch.grid_blocks,
            launch.block_threads,
        )?;
        if num_sms == 0 {
            return Err("machine needs at least one SM".into());
        }
        Ok(Machine {
            cfg,
            num_sms,
            runner: SweepRunner::new(),
            program: Arc::new(launch.program),
            grid_blocks: launch.grid_blocks,
            block_threads: launch.block_threads,
            params: launch.params,
            mem: Memory::new(),
            stats: MachineStats::default(),
        })
    }

    /// Caps the host threads used to simulate SMs (builder style). The
    /// default is [`SweepRunner::new`]'s: one thread per available core,
    /// or the caller's own when the machine is itself a sweep job.
    ///
    /// With `T` threads (at most one per SM), [`Machine::run`] spawns
    /// `T - 1` workers once and keeps them for the whole run: SM `i` is
    /// stepped by worker `i % T`, the calling thread being worker 0, and a
    /// worker sleeps on a condition variable between epochs. With one
    /// thread the run spawns nothing. Results never depend on this
    /// setting — only wall-clock time does.
    pub fn with_threads(mut self, n: usize) -> Machine {
        self.runner = SweepRunner::with_threads(n);
        self
    }

    /// Number of simulated SMs.
    pub fn num_sms(&self) -> usize {
        self.num_sms
    }

    /// The block ids SM `sm_id` simulates: round-robin over the grid, a
    /// pure function of the ids so results cannot depend on host timing.
    pub fn shard(&self, sm_id: usize) -> Vec<u32> {
        (0..self.grid_blocks)
            .filter(|b| (*b as usize) % self.num_sms == sm_id)
            .collect()
    }

    /// Global memory (for writing inputs before `run` and reading results
    /// after).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Global memory, read-only.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Consumes the machine and hands back its global memory (to seed the
    /// next launch of a multi-kernel workload).
    pub fn into_memory(self) -> Memory {
        self.mem
    }

    /// Replaces global memory wholesale.
    pub fn set_memory(&mut self, mem: Memory) {
        self.mem = mem;
    }

    /// Statistics of the last [`Machine::run`].
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Runs the launch to completion, simulating SMs in parallel, and
    /// merges per-SM statistics and memory effects deterministically.
    /// Dispatches on [`SmConfig::mem_model`]: private channels run each
    /// shard to completion independently; the shared channel co-simulates
    /// the shards in epochs around one arbitrated bandwidth pool.
    ///
    /// # Errors
    /// The first (by SM id) [`SimError`] any SM hits.
    pub fn run(&mut self, max_cycles: u64) -> Result<&MachineStats, SimError> {
        match self.cfg.mem_model {
            MemModel::PrivatePerSm => self.run_private(max_cycles),
            MemModel::SharedChannel => self.run_shared(max_cycles),
        }
    }

    /// One SM per non-empty shard of the grid, in SM-id order: seeded for
    /// its id, holding a snapshot of global memory, journaling its stores.
    fn build_sms(&self) -> Result<Vec<Sm>, SimError> {
        (0..self.num_sms)
            .map(|sm_id| (sm_id, self.shard(sm_id)))
            .filter(|(_, blocks)| !blocks.is_empty())
            .map(|(sm_id, blocks)| {
                let mut sm = Sm::for_blocks(
                    self.cfg.for_sm(sm_id),
                    Arc::clone(&self.program),
                    self.grid_blocks,
                    self.block_threads,
                    self.params.clone(),
                    blocks,
                )
                .map_err(|e| SimError::Setup {
                    detail: format!("SM {sm_id} setup: {e}"),
                })?;
                sm.set_sm_id(sm_id as u32);
                sm.set_memory(self.mem.clone());
                sm.enable_mem_journal();
                Ok(sm)
            })
            .collect()
    }

    /// Folds the finished SMs' statistics and journals into
    /// `self.stats`/`self.mem`, in SM-id order.
    fn merge_shards(&mut self, sms: &mut [Sm], channel: ChannelStats) -> &MachineStats {
        let mut per_sm = vec![Stats::default(); self.num_sms];
        let mut journals: Vec<MemJournal> = Vec::with_capacity(sms.len());
        for sm in sms {
            per_sm[sm.sm_id() as usize] = sm.stats().clone();
            journals.push(sm.take_mem_journal().expect("journal was enabled"));
        }
        MemJournal::commit_all(&journals, &mut self.mem);
        let mut total = Stats::default();
        for stats in &per_sm {
            total.merge_parallel(stats);
        }
        self.stats = MachineStats {
            per_sm,
            total,
            channel,
        };
        &self.stats
    }

    /// Private-channel mode: every shard runs to completion on its own,
    /// as one round of the runner's pool.
    fn run_private(&mut self, max_cycles: u64) -> Result<&MachineStats, SimError> {
        let mut sms = self.build_sms()?;
        let step = |sm: &mut Sm, ()| sm.run(max_cycles).map(drop);
        // First error in SM-id order.
        self.runner
            .with_pool(&mut sms, step, |pool| pool.step(()))?;
        Ok(self.merge_shards(&mut sms, ChannelStats::default()))
    }

    /// Shared-channel mode: epoch-barriered co-simulation around one
    /// arbitrated bandwidth pool (see the module docs for the contract).
    fn run_shared(&mut self, max_cycles: u64) -> Result<&MachineStats, SimError> {
        let mut sms = self.build_sms()?;
        for sm in &mut sms {
            sm.attach_shared_channel();
        }
        let num_channels = self.cfg.dram.num_channels.max(1) as usize;
        let mut channels: Vec<SharedDramChannel> = (0..num_channels)
            .map(|_| SharedDramChannel::new(self.cfg.dram))
            .collect();
        let mut l2 = self.cfg.l2.map(SharedL2::new);
        let epoch_len = self.cfg.mem_epoch_cycles();
        let num_sms = self.num_sms as u32;
        let mut epoch = 0u64;
        let mut epoch_end = epoch_len;
        let mut livelock = LivelockDetector::new(LIVELOCK_EPOCHS);
        // One epoch's traffic, cleared at every barrier, never reallocated.
        let mut batch: Vec<MemRequest> = Vec::new();
        let mut grants: Vec<MemGrant> = Vec::new();
        let mut per_channel: Vec<Vec<MemRequest>> = vec![Vec::new(); num_channels];
        let step = |sm: &mut Sm, limit| sm.run_until(limit, max_cycles).map(drop);
        self.runner.with_pool(&mut sms, step, |pool| loop {
            // Parallel phase: every SM advances to the barrier (or to
            // completion) on the worker that owns it.
            pool.step(epoch_end)?; // first error in SM-id order
            let sms = pool.items();
            // Serial phase: arbitrate this epoch's transactions in the
            // deterministic total order and hand the grants back.
            for sm in sms.iter_mut() {
                batch.extend(sm.drain_mem_requests());
            }
            let had_traffic = !batch.is_empty();
            if had_traffic {
                // One machine-wide deterministic order first: the L2 sees
                // probes in the exact sequence a single channel would grant
                // them, so its replacement state — and every hit/miss — is
                // a pure function of the request set.
                sort_epoch_order(epoch, num_sms, &mut batch);
                for req in batch.drain(..) {
                    if let Some(l2) = &mut l2 {
                        if req.is_write {
                            // Write-through/no-allocate: refresh recency,
                            // still pay the off-chip transfer.
                            l2.access_store(req.addr);
                        } else if l2.access_load(req.addr, req.sm_id) == AccessKind::Hit {
                            grants.push(MemGrant {
                                sm_id: req.sm_id,
                                seq: req.seq,
                                ready_cycle: req.issue_cycle + l2.config().hit_latency as u64,
                                queue_delay: 0,
                                is_write: false,
                            });
                            continue;
                        }
                    }
                    per_channel[self.cfg.dram.channel_of(req.addr) as usize].push(req);
                }
                for (ch_idx, reqs) in per_channel.iter_mut().enumerate() {
                    // Offsetting the epoch by the channel index de-phases
                    // the priority rotations so no SM holds top priority
                    // on every channel of the same epoch.
                    channels[ch_idx].arbitrate_into(
                        epoch + ch_idx as u64,
                        num_sms,
                        reqs,
                        &mut grants,
                    );
                }
                for grant in grants.drain(..) {
                    let idx = sms
                        .binary_search_by_key(&grant.sm_id, Sm::sm_id)
                        .expect("grant routed to a known SM");
                    sms[idx].deliver_mem_grants(std::slice::from_ref(&grant));
                }
            }
            if sms.iter().all(Sm::is_done) {
                return Ok(());
            }
            epoch += 1;
            // Epoch-livelock watchdog: epochs keep ticking but no SM
            // progresses, no requests arrive and the channel holds no
            // undelivered completion — cross-SM silence the per-SM
            // watchdog would only report 100k cycles later, without the
            // machine-wide view. (Every SM still running stands at the
            // barrier exactly: `Sm::run_until` never crosses it.)
            let progress_sum: u64 = sms.iter().map(Sm::last_progress_cycle).sum();
            for channel in &mut channels {
                channel.retire_completions_before(epoch_end);
            }
            let mem_pending = channels.iter().any(|ch| ch.outstanding_transfers() > 0);
            if livelock.observe(progress_sum, had_traffic, mem_pending) {
                return Err(Self::livelock_error(sms, epoch, &channels));
            }
            epoch_end += epoch_len;
        })?;

        let mut channel_total = ChannelStats::default();
        for channel in &channels {
            channel_total.accumulate(&channel.stats());
        }
        if let Some(l2) = &l2 {
            channel_total.accumulate(&l2.stats());
        }
        Ok(self.merge_shards(&mut sms, channel_total))
    }

    /// The [`SimError::Deadlock`] reported when the epoch-livelock
    /// watchdog fires: machine-wide summary plus every stuck SM's
    /// per-warp diagnosis.
    fn livelock_error(sms: &[Sm], epoch: u64, channels: &[SharedDramChannel]) -> SimError {
        let stuck: Vec<&Sm> = sms.iter().filter(|sm| !sm.is_done()).collect();
        let outstanding: usize = channels
            .iter()
            .map(SharedDramChannel::outstanding_transfers)
            .sum();
        let mut detail = format!(
            "shared-channel epoch livelock: {LIVELOCK_EPOCHS} consecutive silent epochs \
             (through epoch {epoch}, {outstanding} outstanding channel transfer(s) \
             across {} channel(s)); stuck SMs:",
            channels.len()
        );
        for sm in &stuck {
            detail.push_str(&format!(
                " sm{} at cycle {} (last progress {})",
                sm.sm_id(),
                sm.cycle(),
                sm.last_progress_cycle()
            ));
        }
        SimError::Deadlock {
            cycle: sms.iter().map(Sm::cycle).max().unwrap_or(0),
            last_progress: stuck
                .iter()
                .map(|sm| sm.last_progress_cycle())
                .max()
                .unwrap_or(0),
            kernel: stuck
                .first()
                .map_or_else(String::new, |sm| sm.program_name().to_string()),
            detail,
            warps: stuck.iter().flat_map(|sm| sm.warp_diagnosis()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_isa::{r, KernelBuilder, SpecialReg};

    fn store_tid_launch(grid: u32) -> Launch {
        let mut k = KernelBuilder::new("store_tid");
        k.mov(r(0), SpecialReg::CtaId);
        k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
        k.shl(r(1), r(0), 2i32);
        k.st(r(1), 0x1000, r(0));
        k.exit();
        Launch::new(k.build().unwrap(), grid, 128)
    }

    #[test]
    fn shards_partition_the_grid() {
        let m = Machine::new(SmConfig::baseline(), 3, store_tid_launch(10)).unwrap();
        let mut seen: Vec<u32> = (0..3).flat_map(|s| m.shard(s)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
        assert_eq!(m.shard(0), vec![0, 3, 6, 9]);
    }

    #[test]
    fn empty_launch_grid_is_refused_at_construction() {
        // `Launch`'s fields are pub, so `Launch::new`'s assert can be
        // bypassed; the machine refuses what `Sm::for_blocks` refuses.
        for (grid_blocks, block_threads) in [(0, 128), (4, 0)] {
            let launch = Launch {
                grid_blocks,
                block_threads,
                ..store_tid_launch(4)
            };
            for cfg in [
                SmConfig::baseline(),
                SmConfig::baseline().with_shared_dram(),
            ] {
                let err = Machine::new(cfg, 2, launch.clone()).unwrap_err();
                assert_eq!(err, "empty launch grid", "{grid_blocks} x {block_threads}");
            }
        }
    }

    #[test]
    fn single_sm_machine_matches_standalone_sm() {
        let launch = store_tid_launch(4);
        let mut sm = Sm::new(SmConfig::baseline(), launch.clone()).unwrap();
        let solo = sm.run(1_000_000).unwrap().clone();
        let mut m = Machine::new(SmConfig::baseline(), 1, launch).unwrap();
        let stats = m.run(1_000_000).unwrap();
        assert_eq!(stats.per_sm[0], solo);
        assert_eq!(stats.total, solo);
        for i in 0..4 * 128u32 {
            assert_eq!(
                m.memory().read_u32(0x1000 + 4 * i),
                sm.memory().read_u32(0x1000 + 4 * i)
            );
        }
    }

    #[test]
    fn multi_sm_merges_disjoint_stores() {
        let mut m = Machine::new(SmConfig::sbi(), 4, store_tid_launch(8)).unwrap();
        m.run(1_000_000).unwrap();
        for i in 0..8 * 128u32 {
            assert_eq!(m.memory().read_u32(0x1000 + 4 * i), i, "word {i}");
        }
        assert!(m.stats().ipc() > 0.0);
        assert_eq!(m.stats().per_sm.len(), 4);
    }

    #[test]
    fn livelock_detector_requires_sustained_silence() {
        let mut d = LivelockDetector::new(3);
        // First observation establishes the baseline — never a trip.
        assert!(!d.observe(100, false, false));
        // Progress resets the stall counter.
        assert!(!d.observe(150, false, false));
        // Pure silence accumulates...
        assert!(!d.observe(150, false, false));
        assert!(!d.observe(150, false, false));
        // ...and trips at the threshold.
        assert!(d.observe(150, false, false));
    }

    #[test]
    fn livelock_detector_resets_on_traffic_or_pending_memory() {
        let mut d = LivelockDetector::new(2);
        assert!(!d.observe(9, false, false));
        assert!(!d.observe(9, true, false), "traffic resets");
        assert!(!d.observe(9, false, true), "pending completion resets");
        assert!(!d.observe(9, false, false));
        assert!(
            d.observe(9, false, false),
            "silence after resets still trips"
        );
    }

    #[test]
    fn journal_commit_all_merges_stores_and_atomics() {
        let mut j1 = MemJournal::default();
        let mut j2 = MemJournal::default();
        j1.record_atomic_add(0x40, 5);
        j2.record_atomic_add(0x40, 7);
        j1.record_store(0x80, 1);
        j2.record_store(0x80, 2); // later journal wins write-write races
        assert!(!j1.is_empty());

        let mut mem = Memory::new();
        mem.write_u32(0x40, 100);
        MemJournal::commit_all([&j1, &j2], &mut mem);
        assert_eq!(mem.read_u32(0x40), 112, "base + summed deltas");
        assert_eq!(mem.read_u32(0x80), 2, "stores applied in journal order");

        // Commit order of the journals must not matter for atomics.
        let mut mem2 = Memory::new();
        mem2.write_u32(0x40, 100);
        MemJournal::commit_all([&j2, &j1], &mut mem2);
        assert_eq!(mem2.read_u32(0x40), 112);
        assert_eq!(mem2.read_u32(0x80), 1);
    }
}
