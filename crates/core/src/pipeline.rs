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

#[cfg(debug_assertions)]
mod check;

use std::cell::Cell;
use std::sync::Arc;

use warpweave_isa::{Instruction, MemSpace, Op, Pc, Program, UnitClass};
use warpweave_mem::{
    atomic_transactions_rows, coalesce_rows, AccessShape, Cache, CacheConfig, CalendarQueue,
    MemGrant, MemRequest, Memory, MshrFile, SharedDramChannel, SharedMem, TxScratch,
};

use crate::config::{DivergenceModel, ScoreboardMode, SmConfig};
use crate::divergence::frontier::{Ctx, FrontierHeap};
use crate::divergence::stack::PdomStack;
use crate::divergence::Transition;
use crate::exec::{execute_rows, LaneScratch, MemRows};
use crate::groups::ExecGroups;
use crate::lane::LaneTable;
use crate::launch::{check_launch, Launch, WarpInfo};
use crate::lsu::{plan_global_into, shared_passes, waves_touched, GlobalPlan};
use crate::machine::MemJournal;
use crate::mask::Mask;
use crate::policy::{Dispatch, IssueCtx, IssuePolicy, Pick, PolicyRegistry, Ready};
use crate::regfile::WarpRegFile;
use crate::rng::TieBreakRng;
use crate::scoreboard::{SbToken, Scoreboard};
use crate::stats::Stats;
use crate::trace::{IssueSlot, TraceEvent};

#[cfg(debug_assertions)]
pub use check::EventAudit;

/// One alive warp's stall snapshot: where its two slots stand and why, how
/// deep its divergence state is, what it has in flight. The deadlock
/// watchdog embeds one per alive warp in [`SimError::Deadlock`], so a hang
/// is diagnosable from the error alone — no re-run under a tracer needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpDiagnosis {
    /// SM owning the warp.
    pub sm: u32,
    /// Warp index within its SM.
    pub warp: usize,
    /// Per slot (0 = primary split, 1 = secondary): the pc of the context
    /// feeding it, when one exists, and the slot's settled [`SlotState`].
    pub slots: [(Option<u32>, SlotState); 2],
    /// Divergence depth: reconvergence-stack depth (stack model) or live
    /// splits (frontier model).
    pub divergence_depth: usize,
    /// Occupied scoreboard entries the warp's dependants stall on.
    pub scoreboard_in_flight: usize,
    /// Destination registers of those in-flight entries.
    pub blocked_dst_regs: Vec<u8>,
    /// Shared-channel DRAM grants the warp is still waiting on.
    pub pending_grants: u32,
}

impl std::fmt::Display for WarpDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sm{} w{}:", self.sm, self.warp)?;
        for (slot, (pc, state)) in self.slots.iter().enumerate() {
            let pc = pc.map_or_else(|| "-".to_string(), |pc| pc.to_string());
            write!(f, " slot {slot} pc {pc} {state},")?;
        }
        write!(
            f,
            " div depth {}, sb in-flight {} (dst regs {:?}), pending grants {}",
            self.divergence_depth,
            self.scoreboard_in_flight,
            self.blocked_dst_regs,
            self.pending_grants
        )
    }
}

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

/// Pre-decoded per-pc issue metadata: everything the per-cycle ready
/// checks need, packed into 16 bytes so they never touch the full
/// [`Instruction`] record (which spans two cache lines).
#[derive(Debug, Clone, Copy)]
struct PcMeta {
    /// [`Instruction::reg_footprint`] — registers read or written.
    regs: u64,
    /// [`Instruction::pred_footprint`] — predicates read or written.
    preds: u8,
    /// The instruction writes a register or predicate (needs a scoreboard
    /// entry).
    writes: bool,
    /// `op == Op::Sync` (SBI reconvergence-constraint park).
    is_sync: bool,
    /// Issue unit class.
    unit: UnitClass,
}

impl PcMeta {
    fn of(instr: &Instruction) -> PcMeta {
        PcMeta {
            regs: instr.reg_footprint(),
            preds: instr.pred_footprint(),
            writes: instr.dst.is_some() || instr.pdst.is_some(),
            is_sync: instr.op == Op::Sync,
            unit: instr.op.unit(),
        }
    }
}

/// Where a `(warp, slot)` stands: blocked — on the first check of the
/// readiness evaluation that failed, in its order — woken, or eligible.
/// Which event wakes a blocked slot follows from its reason: a retired
/// scoreboard entry only [`SlotState::Scoreboard`] and
/// [`SlotState::ScoreboardFull`], a fetch fill only [`SlotState::IbufEmpty`],
/// a context move any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// No divergence context feeds the slot (dead warp, no secondary split).
    NoContext,
    /// The slot's context waits at a block barrier.
    AtBarrier,
    /// An SBI reconvergence constraint parks the secondary split (§3.3).
    Constraint,
    /// No buffered instruction at the context's pc (empty or stale entry).
    IbufEmpty,
    /// An in-flight instruction writes a register or predicate it touches.
    Scoreboard,
    /// It needs a scoreboard entry and every entry is occupied.
    ScoreboardFull,
    /// An event that can clear its reason happened; the next check
    /// re-evaluates.
    Woken,
    /// Eligible — holds a ready instruction, port free or not — for
    /// [`UnitClass::Mad`]; the next three likewise, in `UnitClass` order.
    EligibleMad,
    /// Eligible for [`UnitClass::Sfu`].
    EligibleSfu,
    /// Eligible for [`UnitClass::Lsu`].
    EligibleLsu,
    /// Eligible [`UnitClass::Control`] instruction (it needs no port).
    EligibleControl,
}

impl SlotState {
    /// Every state, at its discriminant.
    const ALL: [SlotState; 11] = [
        SlotState::NoContext,
        SlotState::AtBarrier,
        SlotState::Constraint,
        SlotState::IbufEmpty,
        SlotState::Scoreboard,
        SlotState::ScoreboardFull,
        SlotState::Woken,
        SlotState::EligibleMad,
        SlotState::EligibleSfu,
        SlotState::EligibleLsu,
        SlotState::EligibleControl,
    ];

    /// The eligible state of an instruction of class `unit`.
    pub fn eligible(unit: UnitClass) -> SlotState {
        SlotState::ALL[SlotState::EligibleMad as usize + unit as usize]
    }

    /// The state an evaluation's outcome settles its slot in.
    fn of(outcome: &Result<Ready, SlotState>) -> SlotState {
        outcome.map_or_else(|reason| reason, |r| SlotState::eligible(r.unit))
    }
}

/// The variant's name, as the documentation spells it.
impl std::fmt::Display for SlotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
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

/// Payload of a pending-writeback event: which warp's scoreboard entry
/// retires when the event fires.
#[derive(Debug, Clone, Copy)]
struct WbSlot {
    warp: usize,
    token: SbToken,
}

/// A scoreboard entry blocked on outstanding DRAM transactions: the warp's
/// dependants stay stalled until every grant in `first_seq..=last_seq` —
/// plus every MSHR-merged owner grant in `merged` — arrives, at which
/// point the entry becomes a timed writeback at
/// `max(floor, latest grant) + delivery`.
#[derive(Debug, Clone)]
struct PendingMemOp {
    /// Own transaction range; empty (`first_seq > last_seq`) when the
    /// instruction's every miss merged onto other warps' transactions.
    first_seq: u64,
    last_seq: u64,
    /// Other warps' transaction seqs this entry merged onto (MSHR waits).
    merged: Vec<u64>,
    /// Grants still outstanding (own range + merged).
    remaining: u32,
    /// Completion floor from the instruction's L1-hit transactions.
    floor: u64,
    /// Latest grant completion seen so far.
    max_done: u64,
    warp: usize,
    token: SbToken,
}

/// When a pick's scoreboard entry retires.
#[derive(Debug, Clone)]
enum WbTiming {
    /// At a cycle known at issue (includes delivery latency).
    At(u64),
    /// When DRAM transactions `first_seq..first_seq+count` and the merged
    /// owner transactions are granted (`floor` = the inline L1-hit
    /// completion, before delivery latency).
    Mem {
        first_seq: u64,
        count: u32,
        merged: Vec<u64>,
        floor: u64,
    },
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
    /// Where every `(warp, slot)` stands: one warp set per [`SlotState`]
    /// per slot (`[slot][state as usize]`); per slot the eleven sets
    /// partition the pool. In a reason's set no event that can clear the
    /// reason has happened since, so `ready_check(w, slot)` is `None` and a
    /// scan skips the slot at no cost; in an eligible set the exact record
    /// is in `ready`. Both are stable under pure clock advance: only the
    /// three events — [`Sm::rearm_warp`] (a context move), [`Sm::retired`]
    /// and a fetch fill — and the evaluation in
    /// [`Sm::ready_check_nogroup`] move a warp between sets. `Cell` keeps
    /// the check `&self`.
    states: [[Cell<u64>; SlotState::ALL.len()]; 2],
    /// The evaluated [`Ready`] per `(warp, slot)`, valid exactly while the
    /// warp is in an eligible set — the one its `unit` names. A dense side
    /// array (not in [`Warp`]) so the schedulers' scans stay inside a few
    /// hot cache lines and never touch the big per-warp records.
    ready: Vec<[Cell<Ready>; 2]>,
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

/// Cycles from an ALU / SFU instruction's last wave to its writeback
/// (table 2: 8), before the configured delivery latency.
pub(crate) const EXEC_LATENCY: u64 = 8;

/// Lanes of the SM's one SFU group (table 2: 8).
pub(crate) const SFU_LANES: usize = 8;

/// Lanes of the SM's one LSU group (table 2: 32).
pub(crate) const LSU_LANES: usize = 32;

/// Shared-memory latency: cycles from an access's last pass to its
/// writeback, before the configured delivery latency (not a table-2 row).
pub(crate) const SHARED_LATENCY: u64 = 10;

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
        let warps = (0..cfg.num_warps)
            .map(|_| Warp {
                alive: false,
                block_slot: 0,
                regs: WarpRegFile::new(cfg.warp_width),
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
        // Placeholder: a record is read only for a warp in an eligible set.
        let unset = Ready {
            warp: 0,
            slot: 0,
            pc: Pc(0),
            mask: Mask::EMPTY,
            lanes: Mask::EMPTY,
            unit: UnitClass::Control,
            seq: 0,
        };
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
            states: Default::default(),
            ready: (0..cfg.num_warps)
                .map(|_| [Cell::new(unset), Cell::new(unset)])
                .collect(),
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
        // No warp holds a block yet: every slot goes to `NoContext`.
        (0..sm.cfg.num_warps).for_each(|w| sm.rearm_warp(w));
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
        self.stats.constraint_suspensions += self.parked();
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
            self.stats.constraint_suspensions += skipped * self.parked();
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

    /// Structured stall snapshot of every alive warp — what the deadlock
    /// watchdog embeds in [`SimError::Deadlock`]. Exposed so the
    /// shared-channel machine can aggregate diagnoses across SMs when it
    /// detects an epoch livelock.
    pub fn warp_diagnosis(&self) -> Vec<WarpDiagnosis> {
        self.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive)
            .map(|(i, w)| WarpDiagnosis {
                sm: self.sm_id,
                warp: i,
                slots: [0, 1].map(|slot| {
                    // Settled: a woken slot is evaluated first.
                    let _ = self.ready_check_nogroup(i, slot);
                    let pc = self.ctx(i, slot).map(|(pc, _, _)| pc.0);
                    (pc, self.state_of(i, slot))
                }),
                divergence_depth: match &w.div {
                    Divergence::Stack(s) => s.depth(),
                    Divergence::Frontier(h) => h.live_splits(),
                },
                scoreboard_in_flight: w.scoreboard.in_flight(),
                blocked_dst_regs: w.scoreboard.in_flight_dsts(),
                pending_grants: self
                    .pending_mem
                    .iter()
                    .filter(|op| op.warp == i)
                    .map(|op| op.remaining)
                    .sum(),
            })
            .collect()
    }

    /// The state whose set holds `(w, slot)`.
    fn state_of(&self, w: usize, slot: usize) -> SlotState {
        let holds = |state: &&SlotState| self.warps_in(slot, **state).get() >> w & 1 != 0;
        *SlotState::ALL
            .iter()
            .find(holds)
            .expect("sets partition the pool")
    }

    /// Per slot, the warps in each non-empty state, the woken evaluated.
    fn census(&self) -> String {
        let line = |slot: usize| {
            let _ = self.ready_set(slot, !0, !0);
            let count = |s: &SlotState| (self.warps_in(slot, *s).get().count_ones(), *s);
            let held = SlotState::ALL.iter().map(count).filter(|(n, _)| *n != 0);
            let held: Vec<String> = held.map(|(n, s)| format!("{n} {s}")).collect();
            format!("slot {slot}: {}", held.join(", "))
        };
        format!("{}; {}", line(0), line(1))
    }

    /// Secondary splits an SBI reconvergence constraint parks (§3.3): read
    /// off contexts alone by [`Sm::rearm_warp`], so exact between events.
    fn parked(&self) -> u64 {
        u64::from(self.warps_in(1, SlotState::Constraint).get().count_ones())
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

    // --- pipeline stages -------------------------------------------------------

    fn process_writebacks(&mut self) {
        let now = self.cycle;
        let mut progressed = false;
        while let Some((_, wb)) = self.pending_wb.pop_ready(now) {
            self.warps[wb.warp].scoreboard.retire(wb.token);
            self.retired(wb.warp);
            progressed = true;
        }
        if progressed {
            self.last_progress = now;
        }
    }

    // --- event-driven memory system -------------------------------------------

    /// Schedules a writeback at `time` retiring `token` of warp `warp`.
    fn push_wb(&mut self, time: u64, warp: usize, token: SbToken) {
        self.pending_wb.push(time, WbSlot { warp, token });
    }

    /// Enqueues the DRAM transactions of one instruction (`(issue_cycle,
    /// block_addr, is_write)` triples, in port order) and returns the
    /// sequence number of the first.
    fn enqueue_dram(&mut self, requests: &[(u64, u32, bool)]) -> u64 {
        let first = self.mem_seq;
        for &(issue_cycle, addr, is_write) in requests {
            let seq = self.mem_seq;
            self.mem_seq += 1;
            if is_write {
                self.stats.dram.write_transfers += 1;
            } else {
                self.stats.dram.read_transfers += 1;
            }
            self.mem_outbox.push(MemRequest {
                issue_cycle,
                sm_id: self.sm_id,
                seq,
                addr,
                is_write,
            });
        }
        first
    }

    /// Grants every outbox transaction against the SM's private channel
    /// (the non-machine-driven mode): arbitration degenerates to
    /// issue-order service.
    fn drain_local_grants(&mut self) {
        // Take/put-back (rather than consume) so the outbox keeps its
        // allocation across issue events.
        let mut outbox = std::mem::take(&mut self.mem_outbox);
        for req in outbox.drain(..) {
            let grant = self.dram.grant(&req);
            self.apply_grant(&grant);
        }
        self.mem_outbox = outbox;
    }

    /// Applies one arbitration grant: finds every pending scoreboard entry
    /// waiting on the transaction — its issuer plus any warps the MSHR
    /// file merged onto it — folds in the completion time and — once an
    /// entry's last outstanding transaction lands — converts it into a
    /// timed writeback. Write grants only account bandwidth; they never
    /// block a warp.
    fn apply_grant(&mut self, grant: &MemGrant) {
        if grant.is_write {
            return;
        }
        self.mshr.on_grant(grant.seq, grant.ready_cycle);
        let mut matched = false;
        let mut i = 0;
        while i < self.pending_mem.len() {
            let op = &mut self.pending_mem[i];
            let own = op.first_seq <= grant.seq && grant.seq <= op.last_seq;
            if !own && !op.merged.contains(&grant.seq) {
                i += 1;
                continue;
            }
            matched = true;
            op.remaining -= 1;
            op.max_done = op.max_done.max(grant.ready_cycle);
            if op.remaining == 0 {
                let op = self.pending_mem.swap_remove(i);
                let wb = op.floor.max(op.max_done) + self.cfg.delivery_latency();
                self.push_wb(wb, op.warp, op.token);
                // swap_remove moved a fresh op into slot i: revisit it.
            } else {
                i += 1;
            }
        }
        if matched {
            self.stats.dram_queue_delay += grant.queue_delay;
            if grant.queue_delay > 0 {
                self.stats.dram_queued_loads += 1;
            }
            self.stats.dram_max_queue_delay =
                self.stats.dram_max_queue_delay.max(grant.queue_delay);
        }
    }

    /// Re-associates instruction-buffer entries with the warp-splits they
    /// were fetched for (entries are tagged by PC, so when the HCT sorter
    /// swaps the hot contexts the buffered instructions follow), and
    /// squashes entries whose split moved under them (the redundant-fetch
    /// cost of desynchronisation).
    fn validate_ibufs(&mut self) {
        // `rearm_warp` marks a warp in `ctx_dirty` when a context moved
        // away from an entry it buffers; a clean warp is already a fixed
        // point of this re-association, so the pass walks the set bits and
        // never touches a clean `Warp` at all.
        let mut dirty = std::mem::take(&mut self.ctx_dirty);
        while dirty != 0 {
            let w = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            #[cfg(debug_assertions)]
            self.audit(|a| a.validations += 1);
            let before = self.warps[w].ibuf;
            if before.iter().all(Option::is_none) {
                continue;
            }
            // A policy-reserved entry (the SWI cascade's pending primary)
            // is validated at issue instead.
            let reserved = self.policy().reserved_slot(w);
            let (after, squashed) = self.reassociated(w, reserved);
            self.stats.fetch_squashes += squashed;
            if after != before {
                self.warps[w].ibuf = after;
                self.rearm_warp(w);
                #[cfg(debug_assertions)]
                self.audit(|a| a.changed_validations += 1);
            }
            // A reserved slot was skipped, so the warp is not yet a fixed
            // point — keep it marked and revisit next cycle.
            if reserved.is_some() {
                self.ctx_dirty |= 1u64 << w;
            }
        }
    }

    /// Warp `w`'s ibuf as re-association leaves it — every entry outside
    /// the `reserved` slot handed to the slot whose context sits at its pc
    /// — and the number of entries no context claims (squashed). A fixed
    /// two-slot pool: this runs per dirty warp per cycle, so it must not
    /// allocate.
    fn reassociated(&self, w: usize, reserved: Option<usize>) -> ([Option<IbufEntry>; 2], u64) {
        let mut ibuf = self.warps[w].ibuf;
        let mut pool: [Option<IbufEntry>; 2] = [None, None];
        let free = |slot: &usize| reserved != Some(*slot);
        for slot in (0..2).filter(free) {
            pool[slot] = ibuf[slot].take();
        }
        for slot in (0..2).filter(free) {
            if let Some((pc, _, _)) = self.ctx(w, slot) {
                if let Some(i) = pool.iter().position(|e| e.is_some_and(|e| e.pc == pc)) {
                    ibuf[slot] = pool[i].take();
                }
            }
        }
        (ibuf, pool.iter().flatten().count() as u64)
    }

    /// Checks whether `(w, slot)` holds a ready instruction whose execution
    /// group has a free issue port (schedulers pick the oldest *eligible*
    /// instruction — a busy unit does not stall the whole slot). Pure — no
    /// statistics are updated here.
    pub(crate) fn ready_check(&self, w: usize, slot: usize) -> Option<Ready> {
        let r = self.ready_check_nogroup(w, slot)?;
        if r.unit != UnitClass::Control && self.groups.find_free(r.unit, self.cycle).is_none() {
            return None;
        }
        Some(r)
    }

    /// [`Sm::ready_check`] without the free-group requirement (used by the
    /// SWI cascade to *hold* a pending primary while its port drains).
    ///
    /// Evaluated once per waking event: an eligible slot answers from its
    /// record and a blocked one from not being in `Woken`; only a woken
    /// slot runs [`Sm::ready_check_slow`], which moves it to the set of the
    /// reason it failed for or of the class it is eligible in.
    pub(crate) fn ready_check_nogroup(&self, w: usize, slot: usize) -> Option<Ready> {
        let bit = 1u64 << w;
        // An eligible warp's record is valid and names its set; any other
        // warp is in no eligible set, whichever a stale record points at.
        let held = self.ready[w][slot].get();
        if self.warps_in(slot, SlotState::eligible(held.unit)).get() & bit != 0 {
            return Some(held);
        }
        let woken = self.warps_in(slot, SlotState::Woken);
        if woken.get() & bit == 0 {
            return None;
        }
        #[cfg(debug_assertions)]
        self.audit(|a| a.evaluations += 1);
        let outcome = self.ready_check_slow(w, slot);
        woken.set(woken.get() & !bit);
        let settled = self.warps_in(slot, SlotState::of(&outcome));
        settled.set(settled.get() | bit);
        outcome.ok().inspect(|&r| self.ready[w][slot].set(r))
    }

    /// The set of warps whose `slot` stands in `state`.
    fn warps_in(&self, slot: usize, state: SlotState) -> &Cell<u64> {
        &self.states[slot][state as usize]
    }

    /// The context-move event: warp `w`'s divergence contexts, liveness or
    /// buffered entries changed — an issue, a barrier release, a block
    /// launch or teardown, a re-association that moved an entry. Walks the
    /// two hot contexts once and re-derives from them `fetchable`, whether
    /// re-association is due, and where both slots stand: one the
    /// context-and-buffer checks fail (just emptied by an issue, a missing
    /// or parked secondary) goes to its reason's set on the spot, one that
    /// gets as far as the scoreboard to `Woken` for the next scan.
    fn rearm_warp(&mut self, w: usize) {
        let bit = 1u64 << w;
        let ctxs = [self.ctx(w, 0), self.ctx(w, 1)];
        let pcs = ctxs.map(|c| c.map(|(pc, _, _)| pc));
        let ibuf = self.warps[w].ibuf;
        for slot in 0..2 {
            let state = match self.front_check(w, slot, ctxs[slot], || pcs[0]) {
                Err(reason) => reason,
                Ok(_) => SlotState::Woken,
            };
            for set in &self.states[slot] {
                set.set(set.get() & !bit);
            }
            let set = self.warps_in(slot, state);
            set.set(set.get() | bit);
            let fetch = pcs[slot].is_some() && ibuf[slot].is_none();
            self.fetchable[slot] = self.fetchable[slot] & !bit | u64::from(fetch) << w;
        }
        // Re-association is a no-op while every buffered entry sits in the
        // slot whose context is at its pc and the primary context would not
        // claim the secondary's (twin pcs, one of them at a barrier).
        let placed = |slot: usize| ibuf[slot].is_none_or(|e| Some(e.pc) == pcs[slot]);
        let claimed = ibuf[0].is_none() && ibuf[1].is_some_and(|e| Some(e.pc) == pcs[0]);
        if !(placed(0) && placed(1)) || claimed {
            self.ctx_dirty |= bit;
        }
        #[cfg(debug_assertions)]
        self.assert_clean_warp_is_fixed_point(w);
    }

    /// The retire event: a scoreboard entry of warp `w` was freed. That can
    /// only turn `depends_masks` false and `has_free` true, so it wakes the
    /// slots blocked on the scoreboard — an eligible record carries nothing
    /// of it and stands — and flags the warp's block if it waits to drain.
    fn retired(&mut self, w: usize) {
        let bit = 1u64 << w;
        for slot in 0..2 {
            let on = self.warps_in(slot, SlotState::Scoreboard);
            let full = self.warps_in(slot, SlotState::ScoreboardFull);
            let woken = self.warps_in(slot, SlotState::Woken);
            woken.set(woken.get() | (on.get() | full.get()) & bit);
            on.set(on.get() & !bit);
            full.set(full.get() & !bit);
        }
        let b = self.warps[w].block_slot;
        if self.blocks[b].alive_threads == 0 {
            self.block_flags |= 1 << b;
        }
    }

    /// The scan primitive behind [`IssueCtx::ready_set`]: the warps of
    /// `among` for which `ready_check(w, slot)` returns an instruction of a
    /// unit class in `classes` (a bitmask over `UnitClass as u8`).
    ///
    /// *Settle, then OR the free classes' sets.* Only the warps in `Woken`
    /// — slots some event re-armed since the last scan — run the check
    /// itself; the eligible warps already stand sorted by unit class, so
    /// the answer is the union of the wanted port-free classes' sets — no
    /// per-warp read at all. A blocked warp costs nothing per cycle.
    pub(crate) fn ready_set(&self, slot: usize, among: u64, classes: u8) -> u64 {
        let mut woken = self.warps_in(slot, SlotState::Woken).get() & among;
        while woken != 0 {
            let w = woken.trailing_zeros() as usize;
            woken &= woken - 1;
            let _ = self.ready_check_nogroup(w, slot);
        }
        // Control needs no port, so it is always free.
        let free =
            classes & (self.groups.free_class_mask(self.cycle) | 1 << UnitClass::Control as u8);
        let mut set = 0;
        let eligible = &self.states[slot][SlotState::EligibleMad as usize..];
        for (class, warps) in eligible.iter().enumerate() {
            if free >> class & 1 != 0 {
                set |= warps.get();
            }
        }
        set & among
    }

    /// The evaluated `Ready` of `(w, slot)` — only meaningful for warps
    /// [`Sm::ready_set`] just returned.
    pub(crate) fn ready_info(&self, w: usize, slot: usize) -> Ready {
        let r = self.ready[w][slot].get();
        debug_assert!(self.warps_in(slot, SlotState::eligible(r.unit)).get() >> w & 1 != 0);
        r
    }

    /// The context-and-buffer half of the readiness evaluation: the checks
    /// only a context move or a fetch fill can change. `ctx` is the context
    /// feeding `(w, slot)`; `cpc1` looks up the primary context's pc and is
    /// called for a secondary at a SYNC only. Passes on the context's pc
    /// and mask, its buffered entry and its instruction's metadata.
    fn front_check(
        &self,
        w: usize,
        slot: usize,
        ctx: Option<(Pc, Mask, bool)>,
        cpc1: impl FnOnce() -> Option<Pc>,
    ) -> Result<(Pc, Mask, IbufEntry, PcMeta), SlotState> {
        let (pc, mask, at_barrier) = ctx.ok_or(SlotState::NoContext)?;
        if at_barrier {
            return Err(SlotState::AtBarrier);
        }
        // The pre-decoded metadata covers every check below, so the hot
        // per-cycle path never loads the full `Instruction` record.
        let meta = self.pc_meta[pc.index()];
        // SBI reconvergence constraints (§3.3, conservative form): the
        // secondary split never executes past a SYNC marker — it parks
        // there until the primary catches up and the HCT sorter merges
        // them. (The paper's (PCdiv, PCrec) window with PCdiv = the
        // immediate dominator's last instruction degenerates for loop-exit
        // joins, whose immediate dominator is the loop-back block itself,
        // so loop-carried run-ahead would never suspend.) Tested before the
        // buffer so that it reads contexts only: parked is parked whether
        // or not the SYNC has been fetched.
        if slot == 1 && self.cfg.sbi_constraints && meta.is_sync && cpc1().is_some_and(|p| p < pc) {
            return Err(SlotState::Constraint);
        }
        // No "fetched this cycle" test: an entry is never evaluated in its
        // fetch cycle. Readiness is evaluated inside `policy.issue` — before
        // `fetch` in `tick` — and by `step_capped`'s idle probe, reached
        // only when this cycle's `fetch` filled nothing.
        let entry = self.warps[w].ibuf[slot].filter(|e| e.pc == pc);
        Ok((pc, mask, entry.ok_or(SlotState::IbufEmpty)?, meta))
    }

    /// The uncached evaluation behind [`Sm::ready_check_nogroup`], and the
    /// reference the debug cross-checks derive from. Every failure lasts
    /// until one of the three events re-arms the slot: none clears by the
    /// clock alone.
    fn ready_check_slow(&self, w: usize, slot: usize) -> Result<Ready, SlotState> {
        let cpc1 = || self.ctx(w, 0).map(|(pc, _, _)| pc);
        let (pc, mask, entry, meta) = self.front_check(w, slot, self.ctx(w, slot), cpc1)?;
        let scoreboard = &self.warps[w].scoreboard;
        if scoreboard.depends_masks(meta.regs, meta.preds, mask, slot) {
            return Err(SlotState::Scoreboard);
        }
        if meta.writes && !scoreboard.has_free() {
            return Err(SlotState::ScoreboardFull);
        }
        Ok(Ready {
            warp: w,
            slot,
            pc,
            mask,
            lanes: self.lane_table.mask_to_lanes(mask, w),
            unit: meta.unit,
            seq: entry.seq,
        })
    }

    // --- the narrow policy-facing queries (see `crate::policy::IssueCtx`) ------

    /// Mutable statistics access for the dedicated policy counters.
    pub(crate) fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// True if the decoded instruction at `pc` is a branch.
    pub(crate) fn is_branch(&self, pc: Pc) -> bool {
        self.program[pc].op.is_branch()
    }

    /// Warps sharing warp `w`'s SWI lookup set (`w` included).
    pub(crate) fn lookup_set(&self, w: usize) -> u64 {
        self.lookup_sets[w % self.lookup_sets.len()]
    }

    /// A pseudo-random index below `n` from the seeded tie-breaking RNG.
    pub(crate) fn rand_below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    // --- back-end resource planning (policy-facing port queries) ---------------

    /// Dispatch plan for a lone instruction.
    pub(crate) fn plan_dispatch(&self, unit: UnitClass) -> Option<Dispatch> {
        if unit == UnitClass::Control {
            return Some(Dispatch::None);
        }
        self.groups.find_free(unit, self.cycle).map(Dispatch::Group)
    }

    /// Dispatch plan for a secondary co-issued with `r1` (same warp, SBI):
    /// ride the same group pass for MAD/SFU, otherwise another free group.
    /// Enforces the one-divergence-per-cycle and single-LSU-port rules.
    pub(crate) fn plan_coissue(&self, r1: &Ready, d1: Dispatch, r2: &Ready) -> Option<Dispatch> {
        let i1 = &self.program[r1.pc];
        let i2 = &self.program[r2.pc];
        // "At most one divergence (branch or memory) can happen each cycle."
        if i1.op.is_branch() && i2.op.is_branch() {
            return None;
        }
        if r1.unit == UnitClass::Lsu && r2.unit == UnitClass::Lsu {
            return None; // single 128-byte L1 port
        }
        if r2.unit == UnitClass::Control {
            return Some(Dispatch::None);
        }
        if r2.unit == r1.unit && matches!(r1.unit, UnitClass::Mad | UnitClass::Sfu) {
            if let Dispatch::Group(g) = d1 {
                return Some(Dispatch::Ride(g));
            }
        }
        // Different class (or primary was control): needs its own free group.
        self.groups
            .find_free(r2.unit, self.cycle)
            .map(Dispatch::Group)
    }

    // --- issue commit ----------------------------------------------------------

    /// Issues `picks` (1 or 2 instructions) for warp `w`: functional
    /// execution, back-end timing, divergence update, scoreboard event.
    /// This is the only mutation path a policy has
    /// ([`crate::policy::IssueCtx::commit`]).
    pub(crate) fn commit_warp_issue(&mut self, program: &Program, w: usize, picks: &[Pick]) {
        debug_assert!(!picks.is_empty() && picks.len() <= 2);
        // Only the matrix scoreboard consumes the slot partition (the
        // cold remainder walks the whole CCT).
        let before =
            (self.cfg.scoreboard_mode == ScoreboardMode::Matrix).then(|| self.slot_masks(w));
        let mut transitions: [Option<Transition>; 2] = [None, None];
        // At most two picks per event: fixed slots, no per-issue heap churn.
        let mut sb_alloc: [Option<(&Instruction, Mask)>; 2] = [None, None];
        let mut wb_times: [Option<WbTiming>; 2] = [None, None]; // parallel to sb_alloc
        let mut n_alloc = 0usize;

        for pick in picks {
            let r = pick.ready;
            let instr = &program[r.pc];
            let (taken, shape) = self.execute_functional(w, instr, r.mask);
            let transition = self.transition_for(instr, r.pc, r.mask, taken);
            transitions[r.slot] = Some(transition);

            // Back-end timing (a memory instruction's rows are still in
            // `self.lanes`).
            let wb_time = self.time_pick(instr, shape, pick.dispatch);

            // Statistics & trace.
            self.stats.warp_instructions += 1;
            self.stats.thread_instructions += r.mask.count() as u64;
            if pick.secondary {
                self.stats.secondary_issues += 1;
                match pick.dispatch {
                    Dispatch::Ride(_) => self.stats.same_group_coissues += 1,
                    _ => self.stats.other_group_coissues += 1,
                }
            } else {
                self.stats.primary_issues += 1;
            }
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent {
                    cycle: self.cycle,
                    warp: w,
                    slot: if pick.secondary {
                        IssueSlot::Secondary
                    } else {
                        IssueSlot::Primary
                    },
                    pc: r.pc,
                    mask: r.mask,
                    lanes: r.lanes,
                    unit: r.unit,
                });
            }

            if instr.dst.is_some() || instr.pdst.is_some() {
                sb_alloc[n_alloc] = Some((instr, r.mask));
                wb_times[n_alloc] = Some(wb_time);
                n_alloc += 1;
            }

            // Consume the instruction-buffer entry.
            self.warps[w].ibuf[r.slot] = None;

            // Handle exits & barriers at block level.
            match transition {
                Transition::Exit => self.thread_exit(w, r.mask),
                Transition::Barrier(_) => {
                    let slot = self.warps[w].block_slot;
                    self.blocks[slot].barrier_arrived += r.mask.count();
                    self.block_flags |= 1 << slot;
                }
                _ => {}
            }
        }

        // Divergence update (one event covering both co-issued instructions,
        // like the HCT sorter receiving CPC1/CPC2/CPC3 at once).
        let branch_reconv = picks
            .iter()
            .find(|p| matches!(transitions[p.ready.slot], Some(Transition::Split { .. })))
            .map(|p| program[p.ready.pc].reconv)
            .unwrap_or(None);
        let sideband_free = self.sideband_busy_until <= self.cycle;
        match &mut self.warps[w].div {
            Divergence::Stack(s) => {
                let t = transitions[0].expect("stack issues from slot 0");
                s.apply(t, branch_reconv);
            }
            Divergence::Frontier(h) => {
                let update = h.apply_pair_with(
                    transitions[0],
                    transitions[1],
                    sideband_free,
                    &mut self.frontier_scratch,
                );
                if update.spilled && !update.degraded && self.cfg.model_sideband_sorter {
                    self.sideband_busy_until = self.cycle + update.cct_walk as u64;
                }
            }
        }

        // Scoreboard: allocate the entry for this event, then fold the slot
        // transition into every in-flight matrix.
        let mut new_entry = None;
        if n_alloc > 0 {
            let warp = &mut self.warps[w];
            let first = sb_alloc[0].expect("non-empty");
            let i2 = sb_alloc[1];
            let tokens = warp
                .scoreboard
                .allocate(first, i2)
                .expect("ready_check guaranteed a free entry");
            new_entry = Some(tokens.0);
            let wb0 = wb_times[0].take().expect("parallel to sb_alloc");
            self.schedule_retire(w, tokens.0, wb0);
            if let (Some(t2), Some(wb2)) = (tokens.1, wb_times[1].take()) {
                self.schedule_retire(w, t2, wb2);
            }
        }
        if let Some(before) = before {
            let after = self.slot_masks(w);
            self.warps[w]
                .scoreboard
                .on_event(&before, &after, new_entry);
        }
        // Private-channel mode: arbitration degenerates to issue order, so
        // grant this event's transactions on the spot. Machine-driven SMs
        // leave the outbox for the epoch barrier instead.
        if !self.external_mem && !self.mem_outbox.is_empty() {
            self.drain_local_grants();
        }
        // Divergence, ibuf and scoreboard state all moved.
        self.rearm_warp(w);
    }

    /// Registers a scoreboard entry's retirement: either a timed writeback
    /// or a pending-memory entry blocked on DRAM grants.
    fn schedule_retire(&mut self, w: usize, token: SbToken, timing: WbTiming) {
        match timing {
            WbTiming::At(time) => self.push_wb(time, w, token),
            WbTiming::Mem {
                first_seq,
                count,
                merged,
                floor,
            } => {
                // A fully-merged instruction (count 0) has no transactions
                // of its own: give it an explicitly empty seq range so the
                // membership test `first ≤ seq ≤ last` can never fire.
                let (first, last) = if count > 0 {
                    (first_seq, first_seq + count as u64 - 1)
                } else {
                    (1, 0)
                };
                self.pending_mem.push(PendingMemOp {
                    first_seq: first,
                    last_seq: last,
                    remaining: count + merged.len() as u32,
                    merged,
                    floor,
                    max_done: 0,
                    warp: w,
                    token,
                });
            }
        }
    }

    /// Functional execution of `instr` for the threads in `mask`: runs the
    /// warp-level SoA execute path ([`execute_rows`]) in the SM's lane
    /// scratch and, for a memory instruction, classifies the access rows it
    /// left there and performs their reads/writes. Returns the taken mask
    /// (branches) and the shape (`Other` for anything but memory).
    fn execute_functional(
        &mut self,
        w: usize,
        instr: &Instruction,
        mask: Mask,
    ) -> (Mask, AccessShape) {
        let warp = &mut self.warps[w];
        let active = mask & warp.populated;
        // `!3`: the memory system moves aligned words.
        let taken = execute_rows(
            instr,
            &mut warp.regs,
            &warp.info,
            &self.params,
            active,
            !3,
            &mut self.lanes,
        );
        if instr.op.unit() != UnitClass::Lsu {
            return (taken, AccessShape::Other);
        }
        let rows = self.lanes.mem_rows();
        let shape = AccessShape::of(rows.mask.bits(), rows.addr);
        self.apply_memory_effects(w, instr, shape);
        (taken, shape)
    }

    /// Memory side effects of one executed instruction (loads read,
    /// stores/atomics write), applied from its access rows in ascending
    /// thread order — a word's last writer is its highest thread.
    ///
    /// Loads and stores of one word, and of a dense run whose words one
    /// slice holds (a global page; all of shared memory), move without a
    /// walk over the lanes. Debug builds walk first all the same, and the
    /// shortcut then asserts that every word it writes is already there.
    fn apply_memory_effects(&mut self, w: usize, instr: &Instruction, shape: AccessShape) {
        let MemRows { mask, addr, data } = self.lanes.mem_rows();
        let Some((lo, hi)) = mask.span() else {
            return;
        };
        let global = instr.space == MemSpace::Global;
        let shared = &mut self.shared[self.warps[w].block_slot];
        // The threads whose words the shortcut moves as one slice: the
        // whole run, or one word's last writer.
        let sliced = match shape {
            AccessShape::OneWord => Some(hi..hi + 1),
            AccessShape::DenseRun if !global || addr[lo] >> 12 == addr[hi] >> 12 => {
                Some(lo..hi + 1)
            }
            _ => None,
        };
        let walk = sliced.is_none() || cfg!(debug_assertions);
        match instr.op {
            Op::Ld => {
                let d = instr.dst.expect("load has dst").index();
                let row = self.warps[w].regs.row_mut(d);
                if walk && global {
                    // Neighbouring lanes mostly share a page: one table
                    // walk per page transition instead of per lane.
                    let mut key = u32::MAX; // page id of `page`
                    let mut page: Option<&[u32]> = None;
                    for t in mask.iter() {
                        let a = addr[t];
                        if a >> 12 != key {
                            key = a >> 12;
                            page = self.mem.page(a);
                        }
                        row[t] = page.map_or(0, |p| p[Memory::page_word(a)]);
                    }
                } else if walk {
                    let words = shared.words();
                    for t in mask.iter() {
                        row[t] = words.get((addr[t] >> 2) as usize).copied().unwrap_or(0);
                    }
                }
                if let Some(run) = sliced {
                    // The resident words from the slice's address on, as
                    // far as they go; what is missing reads 0.
                    let from = addr[run.start];
                    let src = if global {
                        let page = self.mem.page(from);
                        page.map_or(&[][..], |p| &p[Memory::page_word(from)..])
                    } else {
                        shared.words().get((from >> 2) as usize..).unwrap_or(&[])
                    };
                    if shape == AccessShape::OneWord {
                        let v = src.first().copied().unwrap_or(0);
                        for t in mask.iter() {
                            debug_assert_eq!(row[t], v, "one-word load vs the lane walk");
                            row[t] = v;
                        }
                    } else {
                        let dst = &mut row[run];
                        let n = dst.len().min(src.len());
                        debug_assert!(
                            dst[..n] == src[..n] && dst[n..].iter().all(|&v| v == 0),
                            "dense-run load vs the lane walk"
                        );
                        dst[..n].copy_from_slice(&src[..n]);
                        dst[n..].fill(0);
                    }
                }
            }
            Op::St => {
                if walk && global {
                    // As for loads: one table walk, and one copy-on-write
                    // check, per page transition instead of per lane.
                    let mut key = u32::MAX; // page id of `page`
                    let mut page: &mut [u32] = &mut [];
                    for t in mask.iter() {
                        let a = addr[t];
                        if a >> 12 != key {
                            key = a >> 12;
                            page = self.mem.page_mut(a);
                        }
                        page[Memory::page_word(a)] = data[t];
                    }
                } else if walk {
                    for t in mask.iter() {
                        shared.write_u32(addr[t], data[t]);
                    }
                }
                if let Some(run) = sliced.clone() {
                    let (from, src) = (addr[run.start], &data[run]);
                    let dst = if global {
                        let at = Memory::page_word(from);
                        &mut self.mem.page_mut(from)[at..at + src.len()]
                    } else {
                        shared.run_mut(from, src.len())
                    };
                    debug_assert!(dst == src, "{shape:?} store vs the lane walk");
                    dst.copy_from_slice(src);
                }
                if let (true, Some(j)) = (global, &mut self.journal) {
                    // The journal keeps one value per word: the same map
                    // from every writer in order as from the last alone.
                    for t in sliced.unwrap_or(lo..hi + 1) {
                        if mask.get(t) {
                            j.record_store(addr[t], data[t]);
                        }
                    }
                }
            }
            Op::AtomAdd => {
                for t in mask.iter() {
                    if global {
                        let old = self.mem.read_u32(addr[t]);
                        self.mem.write_u32(addr[t], old.wrapping_add(data[t]));
                        if let Some(j) = &mut self.journal {
                            j.record_atomic_add(addr[t], data[t]);
                        }
                    } else {
                        let old = shared.read_u32(addr[t]);
                        shared.write_u32(addr[t], old.wrapping_add(data[t]));
                    }
                }
            }
            _ => {}
        }
    }

    /// Builds the control-flow transition for an executed instruction.
    fn transition_for(&self, instr: &Instruction, pc: Pc, mask: Mask, taken: Mask) -> Transition {
        match instr.op {
            Op::Bra => Transition::from_branch(
                mask,
                taken,
                instr.target.expect("validated branch"),
                pc.next(),
            ),
            Op::Exit => Transition::Exit,
            Op::Bar => Transition::Barrier(pc.next()),
            _ => Transition::Advance(pc.next()),
        }
    }

    /// Back-end timing for one pick; returns when its scoreboard entry
    /// retires — a known cycle, or a pending-memory marker for global loads
    /// whose transactions await a DRAM grant.
    fn time_pick(
        &mut self,
        instr: &Instruction,
        shape: AccessShape,
        dispatch: Dispatch,
    ) -> WbTiming {
        let now = self.cycle;
        let width = self.cfg.warp_width;
        let delivery = self.cfg.delivery_latency();
        let lat = EXEC_LATENCY + delivery;
        match dispatch {
            Dispatch::None => WbTiming::At(now + 1),
            Dispatch::Ride(g) => {
                // Shares the primary's waves: same completion profile, no
                // extra port occupancy.
                let waves = self.groups.waves(g, width);
                WbTiming::At(now + waves - 1 + lat)
            }
            Dispatch::Group(g) => match instr.op.unit() {
                UnitClass::Mad | UnitClass::Sfu => {
                    let waves = self.groups.waves(g, width);
                    let last = self.groups.occupy(g, now, waves);
                    WbTiming::At(last + lat)
                }
                UnitClass::Lsu => {
                    let MemRows { mask, addr, .. } = self.lanes.mem_rows();
                    let lanes = mask.bits();
                    // Moved out for the borrow and handed back below.
                    let mut txs = std::mem::take(&mut self.tx_scratch);
                    let mut plan = std::mem::take(&mut self.plan_scratch);
                    let waves = self.groups.waves(g, width);
                    let (port, timing) = match (instr.space, instr.op) {
                        (MemSpace::Global, Op::AtomAdd) => {
                            atomic_transactions_rows(lanes, addr, &mut txs);
                            self.stats.lsu_transactions += txs.len() as u64;
                            if txs.len() > 1 {
                                self.stats.lsu_replays += 1;
                            }
                            // Atomics are fire-and-forget write traffic.
                            plan_global_into(
                                &mut plan,
                                &mut self.l1,
                                &mut self.mshr,
                                now,
                                txs.txs(),
                                true,
                                self.mem_seq,
                            );
                            self.enqueue_dram(&plan.dram_requests);
                            (plan.port_cycles, WbTiming::At(now + 1 + delivery))
                        }
                        (MemSpace::Global, op) => {
                            coalesce_rows(lanes, addr, shape, &mut txs);
                            #[cfg(debug_assertions)]
                            {
                                coalesce_rows(lanes, addr, AccessShape::Other, &mut self.tx_check);
                                assert_eq!(
                                    txs.txs(),
                                    self.tx_check.txs(),
                                    "{shape:?} blocks vs the lane walk"
                                );
                            }
                            self.stats.lsu_transactions += txs.len() as u64;
                            if txs.len() > 1 {
                                self.stats.lsu_replays += 1;
                            }
                            let is_store = op == Op::St;
                            plan_global_into(
                                &mut plan,
                                &mut self.l1,
                                &mut self.mshr,
                                now,
                                txs.txs(),
                                is_store,
                                self.mem_seq,
                            );
                            self.stats.mshr_merges += plan.mshr_merges;
                            self.stats.mshr_bypasses += plan.mshr_bypasses;
                            let first_seq = self.enqueue_dram(&plan.dram_requests);
                            if plan.resolves_inline(is_store) {
                                // Stores are write-through (the pipeline
                                // releases at the port drain) and hit-only
                                // loads complete at the L1 latency.
                                (plan.port_cycles, WbTiming::At(plan.inline_ready + delivery))
                            } else {
                                // The warp blocks on a pending-transaction
                                // scoreboard entry until every miss — its
                                // own and any it merged onto — is granted
                                // by the (private or machine-shared)
                                // channel.
                                (
                                    plan.port_cycles,
                                    WbTiming::Mem {
                                        first_seq,
                                        count: plan.dram_requests.len() as u32,
                                        // Moved out only on the (rare) MSHR-
                                        // merge path; the scratch plan keeps
                                        // its capacity otherwise.
                                        merged: std::mem::take(&mut plan.merged_waits),
                                        floor: plan.inline_ready,
                                    },
                                )
                            }
                        }
                        (MemSpace::Shared, Op::AtomAdd) => {
                            atomic_transactions_rows(lanes, addr, &mut txs);
                            self.stats.lsu_transactions += txs.len() as u64;
                            (
                                txs.len().max(1) as u64,
                                WbTiming::At(now + SHARED_LATENCY + delivery),
                            )
                        }
                        (MemSpace::Shared, _) => {
                            // Conflict-free by shape: a broadcast, or
                            // consecutive words on distinct banks.
                            let passes = if shape == AccessShape::Other {
                                shared_passes(mask, addr)
                            } else {
                                waves_touched(mask)
                            };
                            debug_assert_eq!(
                                passes,
                                shared_passes(mask, addr),
                                "{shape:?} passes vs the lane walk"
                            );
                            self.stats.lsu_transactions += passes;
                            if passes > 1 {
                                self.stats.lsu_replays += 1;
                            }
                            (
                                passes,
                                WbTiming::At(now + passes - 1 + SHARED_LATENCY + delivery),
                            )
                        }
                    };
                    self.groups.occupy(g, now, port.max(waves));
                    self.tx_scratch = txs;
                    self.plan_scratch = plan;
                    timing
                }
                UnitClass::Control => WbTiming::At(now + 1),
            },
        }
    }

    fn thread_exit(&mut self, w: usize, mask: Mask) {
        let warp = &mut self.warps[w];
        let newly = mask - warp.exited;
        warp.exited |= mask;
        let slot = warp.block_slot;
        // `alive` stays true until the scoreboard drains (`refill_block`).
        self.blocks[slot].alive_threads -= newly.count();
        self.block_flags |= 1 << slot;
    }

    /// Barrier releases, block retirements and launches for the block
    /// slots an event flagged since the last call — in ascending order, so
    /// fresh blocks land in the lowest free slot first. An unflagged slot's
    /// conditions cannot have changed, and it is not visited.
    fn block_events(&mut self) {
        let mut flagged = std::mem::take(&mut self.block_flags);
        while flagged != 0 {
            let b = flagged.trailing_zeros() as usize;
            flagged &= flagged - 1;
            #[cfg(debug_assertions)]
            self.audit(|a| a.block_visits += 2);
            self.release_barrier(b);
            self.refill_block(b);
        }
    }

    /// Releases block slot `b`'s barrier once every live thread arrived.
    fn release_barrier(&mut self, b: usize) {
        let blk = self.blocks[b];
        if !blk.active || blk.barrier_arrived == 0 || blk.barrier_arrived < blk.alive_threads {
            return;
        }
        for w in blk.first_warp..blk.first_warp + blk.num_warps {
            match &mut self.warps[w].div {
                Divergence::Stack(s) => s.release_barrier(),
                Divergence::Frontier(h) => h.release_barrier(),
            }
            self.rearm_warp(w);
        }
        self.blocks[b].barrier_arrived = 0;
        self.stats.barrier_releases += 1;
        self.last_progress = self.cycle;
    }

    /// Retires block slot `b`'s block if it finished and drained, then
    /// assigns the next pending block to the slot if it is free.
    fn refill_block(&mut self, b: usize) {
        let blk = self.blocks[b];
        // Wait for the warps' scoreboards to drain before recycling.
        if blk.active
            && blk.alive_threads == 0
            && (blk.first_warp..blk.first_warp + blk.num_warps)
                .all(|w| self.warps[w].scoreboard.in_flight() == 0)
        {
            self.blocks[b].active = false;
            self.active_blocks -= 1;
            for w in blk.first_warp..blk.first_warp + blk.num_warps {
                self.warps[w].alive = false;
                self.warps[w].ibuf = [None, None];
                self.rearm_warp(w);
            }
            self.stats.blocks_completed += 1;
            self.last_progress = self.cycle;
        }
        if !self.blocks[b].active && (self.next_block as usize) < self.block_ids.len() {
            let block_id = self.block_ids[self.next_block as usize];
            self.next_block += 1;
            self.assign_block(b, block_id);
            self.last_progress = self.cycle;
        }
    }

    fn assign_block(&mut self, slot: usize, block_id: u32) {
        let blk = &mut self.blocks[slot];
        blk.active = true;
        blk.block_id = block_id;
        blk.alive_threads = self.block_threads;
        blk.barrier_arrived = 0;
        let first = blk.first_warp;
        let nwarps = blk.num_warps;
        self.active_blocks += 1;
        self.shared[slot].clear();
        let width = self.cfg.warp_width;
        for wi in 0..nwarps {
            let w = first + wi;
            let base_tid = (wi * width) as u32;
            let populated: Mask = (0..width)
                .filter(|&t| base_tid + (t as u32) < self.block_threads)
                .collect();
            let warp = &mut self.warps[w];
            warp.alive = true;
            warp.block_slot = slot;
            warp.exited = Mask::EMPTY;
            warp.populated = populated;
            // Zero-fill the SoA register file and re-seed the launch
            // coordinates in place — no per-launch reallocation.
            warp.regs.reset();
            warp.info.seed(
                base_tid,
                block_id,
                self.block_threads,
                self.grid_blocks,
                w as u32,
                self.cfg.lane_shuffle,
                width,
                self.cfg.num_warps,
            );
            // `refill_block` recycles a slot only once its scoreboards
            // have drained, so the (empty) table is reused as it stands.
            debug_assert_eq!(warp.scoreboard.in_flight(), 0);
            warp.ibuf = [None, None];
            // Restart the divergence state in place (a relaunch allocates
            // nothing); only a warp's first launch under the frontier model
            // replaces the construction-time placeholder.
            match (&mut warp.div, self.cfg.divergence) {
                (Divergence::Stack(s), DivergenceModel::Stack) => s.reset(populated),
                (Divergence::Frontier(h), _) => h.reset(populated),
                (div, DivergenceModel::Frontier) => {
                    *div = Divergence::Frontier(FrontierHeap::new(populated));
                }
            }
            self.rearm_warp(w);
        }
    }

    /// Two fetch/decode channels refill instruction-buffer entries
    /// round-robin (1 instruction per channel per cycle — paper §2).
    /// The channel domains — ordered preferences of (parity filter, slot)
    /// — come from the issue policy: dual-pool policies split the pool by
    /// parity, SBI-style policies follow the CPC2 stream on channel 1 but
    /// fall back to the CPC1 stream when no warp has a secondary split to
    /// fetch for (otherwise the channel would idle on convergent code).
    ///
    /// Returns whether any channel filled a buffer entry this cycle.
    fn fetch(&mut self) -> bool {
        // Even/odd warp-id masks for parity-filtered channel domains.
        const EVEN: u64 = 0x5555_5555_5555_5555;
        let mut any = false;
        let nw = self.cfg.num_warps;
        let channels = self.policy().fetch_channels();
        for (ch, prefs) in channels.into_iter().enumerate() {
            let rr = self.fetch_rr[ch];
            // `fetchable` is exact, so the channel's pick is the first
            // preference with a candidate at all, and of those the first at
            // or after the round-robin pointer, wrapping — the linear
            // scan's order with no probe that can miss.
            let pick = prefs.iter().find_map(|&(parity, slot)| {
                let cands = self.fetchable[slot]
                    & match parity {
                        None => !0,
                        Some(0) => EVEN,
                        Some(_) => !EVEN,
                    };
                let ahead = cands & !((1u64 << rr) - 1);
                let first = if ahead != 0 { ahead } else { cands };
                (cands != 0).then(|| (first.trailing_zeros() as usize, slot))
            });
            let Some((w, slot)) = pick else {
                self.fetch_rr[ch] = (rr + 1) % nw;
                continue;
            };
            #[cfg(debug_assertions)]
            self.audit(|a| {
                a.fetch_probes += 1;
                a.fetch_fills += 1;
            });
            let (pc, _, _) = self.ctx(w, slot).expect("a fetchable slot has a context");
            self.warps[w].ibuf[slot] = Some(IbufEntry {
                pc,
                seq: self.next_seq,
            });
            self.next_seq += 1;
            // The fill event: it wakes the slot only if the buffer was all
            // it waited for; the other slot reads nothing the fill wrote.
            let bit = 1u64 << w;
            self.fetchable[slot] &= !bit;
            let empty = self.warps_in(slot, SlotState::IbufEmpty);
            let woken = self.warps_in(slot, SlotState::Woken);
            debug_assert_eq!(woken.get() & bit, 0, "empty yet woken");
            woken.set(woken.get() | empty.get() & bit);
            empty.set(empty.get() & !bit);
            // Tagged with its own context's pc, the entry leaves a clean
            // warp a fixed point of re-association — unless the primary
            // context sits at the same pc with nothing buffered (one of the
            // pair parked at a barrier), which would claim it.
            if slot == 1
                && self.warps[w].ibuf[0].is_none()
                && self.ctx(w, 0).is_some_and(|(pc0, _, _)| pc0 == pc)
            {
                self.ctx_dirty |= bit;
            }
            #[cfg(debug_assertions)]
            self.assert_clean_warp_is_fixed_point(w);
            self.fetch_rr[ch] = (w + 1) % nw;
            any = true;
        }
        any
    }
}
