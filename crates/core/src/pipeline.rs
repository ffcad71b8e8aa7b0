//! The cycle-level SM pipeline.
//!
//! One [`Sm`] simulates a single streaming multiprocessor running one kernel
//! launch, following the paper's methodology (§5.1): functional execution at
//! issue, back-end timing via group occupancy, an L1 + throughput-limited
//! memory, and a pluggable issue front-end.
//!
//! The front-end is an [`crate::policy::IssuePolicy`] trait object
//! resolved by name from the [`crate::policy::PolicyRegistry`] at
//! construction — the baseline dual-pool scheduler, SBI's CPC1/CPC2
//! co-issue, SWI's cascaded lane-filling, their combination, and any
//! registered extension all drive this pipeline through the narrow
//! [`crate::policy::IssueCtx`] view; the pipeline itself carries no
//! policy-specific issue logic.
//!
//! Here: the [`Sm`] record, its construction and accessors, and the clock.
//! Each phase `tick` runs has its own file — `pipeline/backend.rs`
//! (writebacks, execute, LSU timing, DRAM grants), `readiness.rs` (the
//! [`SlotState`] partition, ibuf re-association, the ready checks),
//! `commit.rs` (what a pick does), `blocks.rs` (barriers, the block
//! lifecycle) and `fetch.rs` — and `check.rs` holds the debug cross-checks.

mod backend;
mod blocks;
#[cfg(debug_assertions)]
mod check;
mod commit;
mod fetch;
mod readiness;

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::sync::Arc;

use warpweave_isa::{Pc, Program};
use warpweave_mem::{
    Cache, CacheConfig, CalendarQueue, MemGrant, MemRequest, Memory, MshrFile, SharedDramChannel,
    SharedMem, TxScratch,
};

use crate::config::SmConfig;
use crate::divergence::frontier::{Ctx, FrontierHeap};
use crate::divergence::stack::PdomStack;
use crate::exec::LaneScratch;
use crate::groups::ExecGroups;
use crate::lane::LaneTable;
use crate::launch::{check_launch, Launch, WarpInfo};
use crate::lsu::GlobalPlan;
use crate::machine::MemJournal;
use crate::mask::Mask;
use crate::policy::{IssueCtx, IssuePolicy, PolicyRegistry};
use crate::regfile::WarpRegFile;
use crate::rng::TieBreakRng;
use crate::scoreboard::Scoreboard;
use crate::stats::Stats;
use crate::trace::TraceEvent;

use backend::{PendingMemOp, WbSlot};
#[cfg(debug_assertions)]
pub use check::EventAudit;
use readiness::{Partition, PcMeta};
pub use readiness::{SlotState, WarpDiagnosis};

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Construction or configuration failed before any cycle ran.
    Setup {
        /// What failed to validate.
        detail: String,
    },
    /// No forward progress for a long time — a deadlock in the simulated
    /// machine (or a kernel bug).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Cycle of the last forward progress (issue/writeback/block event).
        last_progress: u64,
        /// Name of the kernel that hung.
        kernel: String,
        /// The census: per slot, how many warps stand in each non-empty
        /// [`SlotState`] (or the machine's epoch-livelock summary).
        detail: String,
        /// Structured stall snapshot of every alive warp.
        warps: Vec<WarpDiagnosis>,
    },
    /// `run` hit its cycle budget before the kernel finished.
    CyclesExhausted {
        /// The exhausted budget.
        budget: u64,
        /// Cycle at which the budget ran out.
        cycle: u64,
        /// Cycle of the last forward progress — distinguishes "slow but
        /// alive" (recent) from "wedged long before the budget" (stale).
        last_progress: u64,
        /// Name of the kernel that blew the budget.
        kernel: String,
        /// `(index, total)` of the launch within its workload, when the
        /// workload runner attached it via [`SimError::with_launch`].
        launch: Option<(usize, usize)>,
    },
}

impl SimError {
    /// Attaches launch provenance (`index` out of `total`) to a budget
    /// blowout; other variants pass through unchanged. Used by the
    /// workload runners, which know which launch of a multi-kernel
    /// workload was executing.
    #[must_use]
    pub fn with_launch(mut self, index: usize, total: usize) -> SimError {
        if let SimError::CyclesExhausted { launch, .. } = &mut self {
            *launch = Some((index, total));
        }
        self
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Setup { detail } => write!(f, "setup failed: {detail}"),
            SimError::Deadlock {
                cycle,
                last_progress,
                kernel,
                detail,
                warps,
            } => {
                write!(
                    f,
                    "deadlock in kernel `{kernel}` at cycle {cycle} \
                     (last progress at cycle {last_progress}): {detail}"
                )?;
                for w in warps {
                    write!(f, "\n  {w}")?;
                }
                Ok(())
            }
            SimError::CyclesExhausted {
                budget,
                cycle,
                last_progress,
                kernel,
                launch,
            } => {
                write!(f, "cycle budget {budget} exhausted in kernel `{kernel}`")?;
                if let Some((i, n)) = launch {
                    write!(f, " (launch {}/{n})", i + 1)?;
                }
                write!(
                    f,
                    " at cycle {cycle}, last progress at cycle {last_progress}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-warp divergence tracking (selected by the configuration).
#[derive(Debug, Clone)]
enum Divergence {
    Stack(PdomStack),
    Frontier(FrontierHeap),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IbufEntry {
    pc: Pc,
    seq: u64,
}

// Cache-line aligned so every warp's hot fields sit at the same line
// offsets whatever the record's size: at a 416-byte stride (6.5 lines)
// `mem_hierarchy` and `dense_alu` ran 3-4 % slower than at 432 or 448.
#[derive(Debug)]
#[repr(align(64))]
struct Warp {
    alive: bool,
    block_slot: usize,
    /// SoA architectural state: register rows + predicate bitmasks,
    /// allocated once and zero-filled in place on every block launch.
    regs: WarpRegFile,
    /// SoA launch coordinates (warp-uniform splats + the lane row).
    info: WarpInfo,
    div: Divergence,
    scoreboard: Scoreboard,
    ibuf: [Option<IbufEntry>; 2],
    exited: Mask,
    /// Thread-space mask of threads that exist in this warp (partial last
    /// warp of a block).
    populated: Mask,
}

#[derive(Debug, Clone, Copy)]
struct BlockSlot {
    active: bool,
    block_id: u32,
    first_warp: usize,
    num_warps: usize,
    alive_threads: u32,
    barrier_arrived: u32,
}

/// A single simulated streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    cfg: SmConfig,
    /// Decoded instructions, shared (not cloned) with every other SM
    /// simulating the same kernel and borrowed on the issue path.
    program: Arc<Program>,
    params: Vec<u32>,
    mem: Memory,
    shared: Vec<SharedMem>,
    l1: Cache,
    /// Per-SM miss-status holding registers: merges same-line misses into
    /// one in-flight transaction. Disabled (capacity 0) by default.
    mshr: MshrFile,
    /// The SM's private DRAM channel. Grants transactions immediately at
    /// issue unless a machine-shared channel is attached
    /// ([`Sm::attach_shared_channel`]), in which case it is bypassed.
    dram: SharedDramChannel,
    /// This SM's id inside a [`crate::machine::Machine`] (0 standalone);
    /// stamps outgoing [`MemRequest`]s for deterministic arbitration.
    sm_id: u32,
    /// Monotonic per-SM DRAM transaction counter.
    mem_seq: u64,
    /// Transactions issued but not yet arbitrated; drained every epoch by
    /// the machine (shared mode) or at the end of each issue event
    /// (private mode).
    mem_outbox: Vec<MemRequest>,
    /// Scoreboard entries blocked on outstanding DRAM grants.
    pending_mem: Vec<PendingMemOp>,
    /// True when a machine owns arbitration (never self-grant).
    external_mem: bool,
    finalized: bool,
    cycle: u64,
    warps: Vec<Warp>,
    /// Where every `(warp, slot)` stands; moved only by its own writers.
    partition: Partition,
    /// The SWI lookup's associativity sets (fig. 9) as warp bitmasks,
    /// indexed by `warp % sets`.
    lookup_sets: Vec<u64>,
    /// Bit `w` set ⇔ a context of warp `w` moved away from an entry the
    /// warp still buffers since `validate_ibufs` last ran for it (or a
    /// policy reserves one of its entries). [`Sm::rearm_warp`] decides it at
    /// every context move; clean warps are fixed points of the
    /// re-association pass, which walks only set bits. A fetch fill is
    /// tagged with its own context's pc and keeps a clean warp clean.
    ctx_dirty: u64,
    /// Bit `w` of `[slot]` set ⇔ a context feeds warp `w`'s `slot` and
    /// `ibuf[slot]` is empty — exactly the warps a fetch channel can fill.
    /// Re-derived by [`Sm::rearm_warp`]; a fill clears its own bit.
    fetchable: [u64; 2],
    /// Block slots whose barrier or retirement condition may have changed
    /// since [`Sm::block_events`] last looked: an issue moved
    /// `barrier_arrived` or `alive_threads`, or a finished block's
    /// scoreboard entry retired.
    block_flags: u64,
    /// Block slots currently running a block.
    active_blocks: usize,
    blocks: Vec<BlockSlot>,
    /// Index of the next entry of `block_ids` to assign to a free slot.
    next_block: u32,
    /// The grid blocks this SM simulates (the whole grid for a standalone
    /// SM; a fixed shard under [`crate::machine::Machine`]).
    block_ids: Vec<u32>,
    grid_blocks: u32,
    block_threads: u32,
    /// Optional journal of global-memory effects, enabled by the parallel
    /// machine so shards can be merged deterministically.
    journal: Option<MemJournal>,
    groups: ExecGroups,
    sideband_busy_until: u64,
    /// Timed writebacks, drained in `(cycle, push order)` every cycle.
    pending_wb: CalendarQueue<WbSlot>,
    /// The issue front-end, resolved by name from the
    /// [`PolicyRegistry`] at construction. Always `Some` outside the
    /// issue call itself (taken out to let the policy borrow the SM
    /// through an [`IssueCtx`]).
    policy: Option<Box<dyn IssuePolicy>>,
    /// Per-warp XOR keys of the configured [`crate::lane::LaneShuffle`].
    lane_table: LaneTable,
    rng: TieBreakRng,
    stats: Stats,
    trace: Option<Vec<TraceEvent>>,
    fetch_rr: [usize; 2],
    next_seq: u64,
    last_progress: u64,
    /// Persistent transaction list for the coalescer.
    tx_scratch: TxScratch,
    /// The generic walk's transactions, which every shape shortcut of
    /// [`Sm::time_pick`] is held to.
    #[cfg(debug_assertions)]
    tx_check: TxScratch,
    /// Persistent LSU plan for [`crate::lsu::plan_global_into`] — its
    /// request/merge vectors keep their capacity across issue events.
    plan_scratch: GlobalPlan,
    /// Persistent candidate buffer for the frontier heap's re-sort when a
    /// warp has cold contexts (see [`FrontierHeap::apply_pair_with`]).
    /// Here rather than in the heap so the per-warp record stays small.
    frontier_scratch: Vec<Ctx>,
    /// Per-pc pre-decoded issue metadata, parallel to `program`.
    pc_meta: Vec<PcMeta>,
    #[cfg(debug_assertions)]
    audit: Cell<EventAudit>,
    /// The lane rows the issued instruction executes in: its operand rows
    /// and, for a memory instruction, the access rows `apply_memory_effects`
    /// and `time_pick` read. Boxed: 1 KB inline would push the scheduler's
    /// hot words apart.
    lanes: Box<LaneScratch>,
}

/// Cycles without any issue or writeback before the deadlock watchdog fires.
const WATCHDOG_CYCLES: u64 = 100_000;

/// Lanes of the SM's one SFU group (table 2: 8).
pub(crate) const SFU_LANES: usize = 8;

/// Lanes of the SM's one LSU group (table 2: 32).
pub(crate) const LSU_LANES: usize = 32;

/// In-flight instructions the scoreboard tracks per warp (table 2: 6).
pub(crate) const SCOREBOARD_ENTRIES: usize = 6;

impl Sm {
    /// Builds an SM for `launch` under `cfg`.
    ///
    /// # Errors
    /// Configuration validation failures and empty programs.
    pub fn new(cfg: SmConfig, launch: Launch) -> Result<Sm, String> {
        let blocks = (0..launch.grid_blocks).collect();
        Sm::for_blocks(
            cfg,
            Arc::new(launch.program),
            launch.grid_blocks,
            launch.block_threads,
            launch.params,
            blocks,
        )
    }

    /// Builds an SM that simulates only `block_ids` of a
    /// `grid_blocks × block_threads` launch whose decoded program is shared
    /// between SMs. This is the constructor the parallel
    /// [`crate::machine::Machine`] uses to shard a grid.
    ///
    /// # Errors
    /// Configuration validation failures, empty programs and out-of-range
    /// block ids.
    pub fn for_blocks(
        cfg: SmConfig,
        program: Arc<Program>,
        grid_blocks: u32,
        block_threads: u32,
        params: Vec<u32>,
        block_ids: Vec<u32>,
    ) -> Result<Sm, String> {
        let warps_per_block = check_launch(&cfg, &program, grid_blocks, block_threads)?;
        if let Some(&bad) = block_ids.iter().find(|&&b| b >= grid_blocks) {
            return Err(format!("block id {bad} outside grid of {grid_blocks}"));
        }
        let num_slots = cfg.num_warps / warps_per_block;
        let blocks = (0..num_slots)
            .map(|i| BlockSlot {
                active: false,
                block_id: 0,
                first_warp: i * warps_per_block,
                num_warps: warps_per_block,
                alive_threads: 0,
                barrier_arrived: 0,
            })
            .collect();
        // Rows up to the highest register any instruction reads or writes.
        let footprint = program
            .instructions()
            .iter()
            .fold(0, |m, i| m | i.reg_footprint());
        let num_regs = (u64::BITS - footprint.leading_zeros()) as usize;
        let warps = (0..cfg.num_warps)
            .map(|_| Warp {
                alive: false,
                block_slot: 0,
                regs: WarpRegFile::with_regs(cfg.warp_width, num_regs),
                info: WarpInfo::new(cfg.warp_width),
                // A placeholder until `assign_block` — under either model:
                // a warp that never receives a block reports a stack of
                // depth 1 to `finalize_stats`, which the golden grid pins.
                div: Divergence::Stack(PdomStack::new(Mask::EMPTY)),
                scoreboard: Scoreboard::new(cfg.scoreboard_mode, SCOREBOARD_ENTRIES),
                ibuf: [None, None],
                exited: Mask::EMPTY,
                populated: Mask::EMPTY,
            })
            .collect();
        let l1 = Cache::new(CacheConfig::paper_l1());
        let mshr = MshrFile::new(cfg.mshr_entries as usize);
        let dram = SharedDramChannel::new(cfg.dram);
        let seed = cfg.seed;
        let policy = PolicyRegistry::resolve_global(&cfg.policy)
            .ok_or_else(|| format!("unknown issue policy '{}'", cfg.policy))?
            .build(&cfg);
        let lane_table = cfg.lane_shuffle.table(cfg.warp_width, cfg.num_warps);
        let pc_meta = program.instructions().iter().map(PcMeta::of).collect();
        let sets = cfg.swi_assoc.num_sets(cfg.num_warps);
        let mut sm = Sm {
            program,
            params,
            mem: Memory::new(),
            shared: vec![SharedMem::new(); num_slots],
            l1,
            mshr,
            dram,
            sm_id: 0,
            mem_seq: 0,
            mem_outbox: Vec::new(),
            pending_mem: Vec::new(),
            external_mem: false,
            finalized: false,
            cycle: 0,
            partition: Partition::new(cfg.num_warps),
            lookup_sets: (0..sets)
                .map(|s| {
                    (s..cfg.num_warps)
                        .step_by(sets)
                        .fold(0, |m, w| m | 1u64 << w)
                })
                .collect(),
            ctx_dirty: 0,
            fetchable: [0, 0],
            // `validate` bounds the pool — hence the block slots — at 64,
            // the width of every warp and block set. Flagged: all free.
            block_flags: u64::MAX >> (64 - num_slots),
            active_blocks: 0,
            warps,
            blocks,
            next_block: 0,
            block_ids,
            grid_blocks,
            block_threads,
            journal: None,
            groups: ExecGroups::new(&cfg),
            sideband_busy_until: 0,
            // One event per in-flight scoreboard instruction at most, so
            // the queue never grows after construction.
            pending_wb: CalendarQueue::with_capacity(cfg.num_warps * SCOREBOARD_ENTRIES * 2),
            policy: Some(policy),
            lane_table,
            rng: TieBreakRng::new(seed),
            stats: Stats::default(),
            trace: None,
            fetch_rr: [0, 0],
            next_seq: 0,
            last_progress: 0,
            tx_scratch: TxScratch::default(),
            #[cfg(debug_assertions)]
            tx_check: TxScratch::default(),
            plan_scratch: GlobalPlan::default(),
            frontier_scratch: Vec::new(),
            pc_meta,
            cfg,
            #[cfg(debug_assertions)]
            audit: Cell::default(),
            lanes: Box::default(),
        };
        sm.block_events();
        Ok(sm)
    }

    /// Enables issue-event tracing (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded trace (empty unless [`Sm::enable_trace`] was called).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
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

    /// Consumes the SM and hands back its global memory (to seed the next
    /// launch of a multi-kernel workload).
    pub fn into_memory(self) -> Memory {
        self.mem
    }

    /// Replaces global memory wholesale (multi-launch workloads carry state
    /// between kernels this way).
    pub fn set_memory(&mut self, mem: Memory) {
        self.mem = mem;
    }

    /// The active configuration.
    pub fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Starts journaling global-memory stores and atomics so a parallel
    /// machine can merge this SM's effects with its siblings'.
    pub fn enable_mem_journal(&mut self) {
        self.journal = Some(MemJournal::default());
    }

    /// Takes the accumulated journal (if journaling was enabled).
    pub fn take_mem_journal(&mut self) -> Option<MemJournal> {
        self.journal.take()
    }

    /// Sets this SM's machine-wide id: stamps outgoing [`MemRequest`]s so
    /// the shared channel's arbitration order is well-defined across SMs.
    pub(crate) fn set_sm_id(&mut self, sm_id: u32) {
        self.sm_id = sm_id;
    }

    /// Hands DRAM arbitration to an external machine-shared channel: the
    /// SM stops self-granting, leaves its transactions in the outbox for
    /// [`Sm::drain_mem_requests`] and blocks the issuing warps until
    /// [`Sm::deliver_mem_grants`] supplies the completion times.
    pub(crate) fn attach_shared_channel(&mut self) {
        self.external_mem = true;
    }

    /// Drains the transactions issued since the last drain (machine epoch
    /// barrier). Empty unless [`Sm::attach_shared_channel`] was called.
    pub(crate) fn drain_mem_requests(&mut self) -> std::vec::Drain<'_, MemRequest> {
        self.mem_outbox.drain(..)
    }

    /// Delivers arbitration grants from the machine-shared channel,
    /// unblocking the scoreboard entries that were waiting on them.
    pub(crate) fn deliver_mem_grants(&mut self, grants: &[MemGrant]) {
        for grant in grants {
            debug_assert_eq!(grant.sm_id, self.sm_id, "grant routed to wrong SM");
            self.apply_grant(grant);
        }
    }

    /// True when every assigned block has completed.
    pub fn is_done(&self) -> bool {
        self.next_block as usize >= self.block_ids.len() && self.active_blocks == 0
    }

    /// Runs until the kernel finishes or `max_cycles` elapse; returns the
    /// final statistics on success.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] if the watchdog detects no forward progress;
    /// [`SimError::CyclesExhausted`] if the budget runs out.
    pub fn run(&mut self, max_cycles: u64) -> Result<&Stats, SimError> {
        // A standalone SM's barrier never comes.
        self.run_until(u64::MAX, max_cycles)?;
        Ok(&self.stats)
    }

    /// Runs until the kernel finishes or the clock reaches `limit`
    /// (an epoch barrier of the shared-channel machine), whichever comes
    /// first; returns whether the SM is done. An SM that is not done
    /// stops at `limit` exactly — the idle fast-forward never crosses it —
    /// so every SM of a machine sees the same sequence of barriers.
    ///
    /// # Errors
    /// As [`Sm::run`], with `budget` as the cycle budget.
    pub fn run_until(&mut self, limit: u64, budget: u64) -> Result<bool, SimError> {
        // One refcount bump per call buys every issue event below borrowed
        // access to the decoded instructions.
        let program = Arc::clone(&self.program);
        while !self.is_done() && self.cycle < limit {
            if self.cycle >= budget {
                return Err(self.cycles_exhausted(budget));
            }
            self.step_capped(&program, limit)?;
        }
        let done = self.is_done();
        if done {
            self.finalize_stats();
        }
        Ok(done)
    }

    fn finalize_stats(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.stats.cycles = self.cycle;
        self.stats.l1 = self.l1.stats();
        for w in &self.warps {
            match &w.div {
                Divergence::Stack(s) => {
                    self.stats.max_stack_depth = self.stats.max_stack_depth.max(s.max_depth());
                }
                Divergence::Frontier(h) => self.stats.heap.accumulate(&h.stats()),
            }
        }
    }

    /// Advances one cycle.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] from the watchdog.
    pub fn step(&mut self) -> Result<(), SimError> {
        let program = Arc::clone(&self.program);
        self.step_capped(&program, u64::MAX)
    }

    /// One cycle of the pipeline proper — writebacks, ibuf re-association,
    /// issue, block events, fetch, in that order; returns whether anything
    /// was fetched. `last_progress` tells whether anything else happened.
    #[inline]
    fn tick(&mut self, program: &Program) -> bool {
        self.cycle += 1;
        self.process_writebacks();
        self.validate_ibufs();
        #[cfg(debug_assertions)]
        self.assert_event_state();
        // §5.1: one per parked secondary per cycle, whatever the policy.
        // Empty unless SBI constraints park a split: skip the popcount.
        let parked = self.partition.warps(1, SlotState::Constraint);
        if parked != 0 {
            self.stats.constraint_suspensions += u64::from(parked.count_ones());
        }
        // The policy is taken out for the call so it can borrow the SM
        // mutably through the `IssueCtx` view; it is always restored.
        let mut policy = self.policy.take().expect("policy present outside issue");
        let issued = policy.issue(&mut IssueCtx { sm: self, program });
        self.policy = Some(policy);
        if issued == 0 {
            self.stats.idle_cycles += 1;
        } else {
            self.last_progress = self.cycle;
        }
        self.block_events();
        self.fetch()
    }

    /// [`Sm::step`] capped at the cycle the idle fast-forward must not
    /// cross: a machine's next epoch barrier, `u64::MAX` for an SM alone.
    /// `program` is the caller's borrow of `self.program`, held across the
    /// call so the issue path never touches the refcount.
    fn step_capped(&mut self, program: &Program, limit: u64) -> Result<(), SimError> {
        let fetched = self.tick(program);
        // Idle fast-forward: if this whole cycle did nothing (no writeback,
        // no issue, no barrier/block event, no fetch) and nothing is
        // eligible with a free port — all a policy can ever commit, whatever
        // it carries between cycles — the machine state is frozen until the
        // next timed event: jump straight to it instead of ticking.
        if self.cfg.fast_forward
            && !fetched
            && self.last_progress < self.cycle
            && (0..2).all(|slot| self.ready_set(slot, !0, !0) == 0)
        {
            self.fast_forward_idle(limit);
        }
        if self.cycle - self.last_progress > WATCHDOG_CYCLES {
            return Err(SimError::Deadlock {
                cycle: self.cycle,
                last_progress: self.last_progress,
                kernel: self.program.name().to_string(),
                detail: self.census(),
                warps: self.warp_diagnosis(),
            });
        }
        Ok(())
    }

    /// The [`SimError::CyclesExhausted`] for this SM right now (launch
    /// provenance is attached later by the workload runner).
    fn cycles_exhausted(&self, budget: u64) -> SimError {
        SimError::CyclesExhausted {
            budget,
            cycle: self.cycle,
            last_progress: self.last_progress,
            kernel: self.program.name().to_string(),
            launch: None,
        }
    }

    /// Jumps the clock to one cycle before the next event that can unfreeze
    /// the machine — the earliest pending writeback or issue-port release —
    /// and never past `limit`, a machine-driven SM's epoch barrier: grants
    /// arrive there, and the machine ranks a batch of requests by the epoch
    /// it was drained in, so an SM that crossed a barrier would move every
    /// later one and change the arbitration. Exact with respect to
    /// cycle-by-cycle simulation — every skipped cycle would have issued
    /// nothing, fetched nothing and retired nothing, so only `cycle`, the
    /// per-cycle counters and the fetch round-robin pointers (which rotate
    /// 1/cycle while no warp is fetchable) need advancing. Debug builds
    /// hold the jump to that: they tick through the window first.
    fn fast_forward_idle(&mut self, limit: u64) {
        let now = self.cycle;
        let mut next_event = self.pending_wb.next_ready_cycle().unwrap_or(u64::MAX);
        if let Some(t) = self.groups.next_release_after(now) {
            next_event = next_event.min(t);
        }
        if next_event == u64::MAX {
            // Nothing in flight at all: this is a deadlock — jump to where
            // the watchdog fires so it is reported without 100k idle ticks.
            next_event = self.last_progress + WATCHDOG_CYCLES + 1;
        }
        let target = next_event.min(limit);
        if target > now + 1 {
            let skipped = target - now - 1;
            #[cfg(debug_assertions)]
            let ticked = self.tick_through_idle_window(&Arc::clone(&self.program), skipped);
            self.cycle += skipped;
            self.stats.idle_cycles += skipped;
            let parked = self.partition.warps(1, SlotState::Constraint);
            self.stats.constraint_suspensions += skipped * u64::from(parked.count_ones());
            let nw = self.cfg.num_warps as u64;
            for rr in &mut self.fetch_rr {
                *rr = ((*rr as u64 + skipped) % nw) as usize;
            }
            #[cfg(debug_assertions)]
            assert_eq!(
                (self.cycle, &self.stats, self.fetch_rr),
                (ticked.0, &ticked.1, ticked.2),
                "the jump over {skipped} idle cycles from cycle {now} is not what ticking computes"
            );
        }
    }

    /// The active issue policy (always present outside the issue call).
    fn policy(&self) -> &dyn IssuePolicy {
        self.policy
            .as_deref()
            .expect("policy present outside issue")
    }

    /// Cycle of the most recent forward progress (issue, writeback or
    /// block event) — the reference point of the deadlock watchdog.
    pub fn last_progress_cycle(&self) -> u64 {
        self.last_progress
    }

    /// This SM's id within its machine (0 for a standalone SM).
    pub fn sm_id(&self) -> u32 {
        self.sm_id
    }

    /// Name of the kernel this SM is executing.
    pub fn program_name(&self) -> &str {
        self.program.name()
    }

    // --- divergence-state accessors -------------------------------------------

    /// `(pc, mask, at_barrier)` of the context feeding ibuf `slot` of `w`.
    pub(crate) fn ctx(&self, w: usize, slot: usize) -> Option<(Pc, Mask, bool)> {
        let warp = &self.warps[w];
        if !warp.alive {
            return None;
        }
        match &warp.div {
            Divergence::Stack(s) => {
                if slot == 0 {
                    s.current().map(|(pc, m)| (pc, m, s.at_barrier()))
                } else {
                    None
                }
            }
            Divergence::Frontier(h) => {
                let c = if slot == 0 {
                    h.primary()
                } else {
                    h.secondary()
                };
                c.map(|c| (c.pc, c.mask, c.at_barrier))
            }
        }
    }

    pub(crate) fn slot_masks(&self, w: usize) -> [Mask; 3] {
        match &self.warps[w].div {
            Divergence::Stack(_) => [Mask::EMPTY; 3],
            Divergence::Frontier(h) => {
                let m0 = h.primary().map_or(Mask::EMPTY, |c| c.mask);
                let m1 = h.secondary().map_or(Mask::EMPTY, |c| c.mask);
                [m0, m1, h.alive_mask() - m0 - m1]
            }
        }
    }
}
