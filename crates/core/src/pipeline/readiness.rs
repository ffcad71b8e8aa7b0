//! Readiness: where every `(warp, slot)` stands. [`SlotState`] names the
//! states, `Partition` holds one warp set per state per slot and the
//! records of the eligible, and its three writers are the only code that
//! moves a warp. Around it: the context-move and retire events
//! (`rearm_warp`, `retired`), ibuf re-association, the ready checks the
//! policies scan through, and the stall census a deadlock reports.

use std::cell::Cell;

use warpweave_isa::{Instruction, Op, Pc, UnitClass};

use super::{Divergence, IbufEntry, Sm};
use crate::mask::Mask;
use crate::policy::Ready;

/// Pre-decoded per-pc issue metadata: everything the per-cycle ready
/// checks need, packed into 16 bytes so they never touch the full
/// [`Instruction`] record (which spans two cache lines).
#[derive(Debug, Clone, Copy)]
pub(super) struct PcMeta {
    /// [`Instruction::reg_footprint`] — registers read or written.
    regs: u64,
    /// [`Instruction::pred_footprint`] — predicates read or written.
    preds: u8,
    /// The instruction writes a register or predicate (needs a scoreboard
    /// entry).
    writes: bool,
    /// `op == Op::Sync` (SBI reconvergence-constraint park).
    pub(super) is_sync: bool,
    /// Issue unit class.
    unit: UnitClass,
}

impl PcMeta {
    pub(super) fn of(instr: &Instruction) -> PcMeta {
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
    pub(super) const ALL: [SlotState; 11] = [
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
    pub(super) fn of(outcome: &Result<Ready, SlotState>) -> SlotState {
        outcome.map_or_else(|reason| reason, |r| SlotState::eligible(r.unit))
    }
}

/// The variant's name, as the documentation spells it.
impl std::fmt::Display for SlotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Where every `(warp, slot)` stands: per slot one warp set per
/// [`SlotState`], and the evaluated [`Ready`] of every eligible slot, in a
/// dense array (not in `Warp`) so the scans stay in a few hot cache lines.
/// Only the three writers move a warp, each from one set to one other, so
/// per slot the sets partition the pool; nothing moves under pure clock
/// advance. `Cell` keeps the ready check `&self`.
///
/// Beside each record, `settle` writes its three scan keys — the age
/// `seq`, the `lanes` mask and its population `fit` — into per-slot word
/// arrays: an oldest-first or best-fit scan reads one word per candidate,
/// and copies the 48-byte record of the one it picks only. The record
/// stays whole: splitting every field into word arrays (the unit read back
/// from the eligible sets) made assembling the pick cost what the scans
/// saved.
///
/// The sets answer "which warps stand in a state"; the state index beside
/// them answers "where does this warp stand" in one byte read, so a
/// writer clears the one set that holds the warp instead of all eleven,
/// and `settle` tells eligible from blocked without reading the record.
#[derive(Debug)]
pub(super) struct Partition {
    /// `[slot][state as usize]`.
    sets: [[Cell<u64>; SlotState::ALL.len()]; 2],
    /// `[slot][warp]`: the state whose set holds the warp, as `state as u8`.
    state: [[Cell<u8>; 64]; 2],
    /// Valid exactly while the warp is in the eligible set its `unit` names.
    ready: Vec<[Cell<Ready>; 2]>,
    /// `[slot][warp]`: the eligible record's `seq`, valid with the record.
    seqs: [[Cell<u64>; 64]; 2],
    /// `[slot][warp]`: the eligible record's `lanes`, valid with the record.
    lanes: [[Cell<Mask>; 64]; 2],
    /// `[slot][warp]`: `lanes.count()`, the best-fit score, valid with the
    /// record.
    fits: [[Cell<u8>; 64]; 2],
}

impl Partition {
    /// A pool of `num_warps` warps, every slot in `NoContext`.
    pub(super) fn new(num_warps: usize) -> Partition {
        let sets: [[Cell<u64>; SlotState::ALL.len()]; 2] = Default::default();
        for slot in &sets {
            slot[SlotState::NoContext as usize].set(u64::MAX >> (64 - num_warps));
        }
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
        let ready = (0..num_warps).map(|_| [Cell::new(unset), Cell::new(unset)]);
        let ready = ready.collect();
        let bytes = |b| std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(b)));
        Partition {
            sets,
            state: bytes(SlotState::NoContext as u8),
            ready,
            seqs: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(0))),
            lanes: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(Mask::EMPTY))),
            fits: bytes(0),
        }
    }

    /// The warps whose `slot` stands in `state`.
    #[inline]
    pub(super) fn warps(&self, slot: usize, state: SlotState) -> u64 {
        self.sets[slot][state as usize].get()
    }

    /// The state whose set holds `(w, slot)`, read from the state index.
    #[inline]
    pub(super) fn state_of(&self, w: usize, slot: usize) -> SlotState {
        SlotState::ALL[usize::from(self.state[slot][w].get())]
    }

    /// How many warps stand in each state of `slot`, at its discriminant.
    pub(super) fn counts(&self, slot: usize) -> [u32; SlotState::ALL.len()] {
        self.sets[slot].each_ref().map(|set| set.get().count_ones())
    }

    /// The warps whose `slot` is eligible in a unit class of `classes` (a
    /// bitmask over `UnitClass as u8`).
    #[inline]
    pub(super) fn eligible(&self, slot: usize, classes: u8) -> u64 {
        // Branch-free: each class's set ANDed with all-ones or zero.
        let sets = &self.sets[slot];
        let wanted = |class: usize| {
            let set = sets[SlotState::EligibleMad as usize + class].get();
            set & 0u64.wrapping_sub(u64::from(classes >> class & 1))
        };
        wanted(0) | wanted(1) | wanted(2) | wanted(3)
    }

    /// The record of `(w, slot)`, which must be eligible.
    #[inline]
    pub(super) fn record(&self, w: usize, slot: usize) -> Ready {
        let r = self.ready[w][slot].get();
        debug_assert!(self.warps(slot, SlotState::eligible(r.unit)) >> w & 1 != 0);
        r
    }

    /// The scan key `seq` of `(w, slot)`, which must be eligible: its
    /// record's age, without copying the record.
    #[inline]
    pub(super) fn seq(&self, w: usize, slot: usize) -> u64 {
        debug_assert!(self.eligible(slot, !0) >> w & 1 != 0);
        self.seqs[slot][w].get()
    }

    /// The scan key `lanes` of `(w, slot)`, which must be eligible.
    #[inline]
    pub(super) fn lanes(&self, w: usize, slot: usize) -> Mask {
        debug_assert!(self.eligible(slot, !0) >> w & 1 != 0);
        self.lanes[slot][w].get()
    }

    /// The scan key `fit` of `(w, slot)`, which must be eligible: its
    /// `lanes`' population, without a popcount.
    #[inline]
    pub(super) fn fit(&self, w: usize, slot: usize) -> u32 {
        debug_assert!(self.eligible(slot, !0) >> w & 1 != 0);
        u32::from(self.fits[slot][w].get())
    }

    /// Moves `(w, slot)` from the set its index names to `to`'s: one clear,
    /// one set, one byte write.
    #[inline]
    fn move_to(&self, w: usize, slot: usize, to: SlotState) {
        let bit = 1u64 << w;
        let index = &self.state[slot][w];
        let from = &self.sets[slot][usize::from(index.get())];
        from.set(from.get() & !bit);
        let set = &self.sets[slot][to as usize];
        set.set(set.get() | bit);
        index.set(to as u8);
    }

    /// The context-move writer: `(w, slot)` goes to `state`, a reason or
    /// `Woken` — only an evaluation makes a slot eligible.
    #[inline]
    pub(super) fn place(&self, w: usize, slot: usize, state: SlotState) {
        debug_assert!(state as usize <= SlotState::Woken as usize);
        self.move_to(w, slot, state);
    }

    /// The evaluation writer: an eligible `(w, slot)` answers with its
    /// record, a blocked one with `None`; a `Woken` one runs `evaluate` and
    /// leaves `Woken` for the outcome's set (its record, if eligible).
    #[inline]
    pub(super) fn settle(
        &self,
        w: usize,
        slot: usize,
        evaluate: impl FnOnce() -> Result<Ready, SlotState>,
    ) -> Option<Ready> {
        // The eligible states follow `Woken`; only an eligible warp's
        // record is valid.
        let held = self.state[slot][w].get();
        if held > SlotState::Woken as u8 {
            return Some(self.ready[w][slot].get());
        }
        if held != SlotState::Woken as u8 {
            return None;
        }
        let outcome = evaluate();
        self.move_to(w, slot, SlotState::of(&outcome));
        outcome.ok().inspect(|&r| {
            self.ready[w][slot].set(r);
            self.seqs[slot][w].set(r.seq);
            self.lanes[slot][w].set(r.lanes);
            self.fits[slot][w].set(r.lanes.count() as u8);
        })
    }

    /// The retire and fetch-fill writer: `(w, slot)`, if it stands in one
    /// of the `reasons` the event can clear, goes to `Woken`.
    #[inline]
    pub(super) fn wake(&self, w: usize, slot: usize, reasons: &[SlotState]) {
        debug_assert!(reasons.iter().all(|&r| (r as u8) < SlotState::Woken as u8));
        if reasons.contains(&self.state_of(w, slot)) {
            self.move_to(w, slot, SlotState::Woken);
        }
    }
}

/// One alive warp's stall snapshot: where its two slots stand and why, how
/// deep its divergence state is, what it has in flight. The deadlock
/// watchdog embeds one per alive warp in
/// [`SimError::Deadlock`](super::SimError::Deadlock), so a hang
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

impl Sm {
    /// Structured stall snapshot of every alive warp — what the deadlock
    /// watchdog embeds in [`SimError::Deadlock`](super::SimError::Deadlock).
    /// Exposed so the
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
                    (pc, self.partition.state_of(i, slot))
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

    /// Per slot, the warps in each non-empty state, the woken evaluated.
    pub(super) fn census(&self) -> String {
        let line = |slot: usize| {
            let _ = self.ready_set(slot, !0, !0);
            let counts = self.partition.counts(slot).into_iter().zip(SlotState::ALL);
            let held = counts.filter(|(n, _)| *n != 0);
            let held: Vec<String> = held.map(|(n, s)| format!("{n} {s}")).collect();
            format!("slot {slot}: {}", held.join(", "))
        };
        format!("{}; {}", line(0), line(1))
    }

    /// Re-associates instruction-buffer entries with the warp-splits they
    /// were fetched for (entries are tagged by PC, so when the HCT sorter
    /// swaps the hot contexts the buffered instructions follow), and
    /// squashes entries whose split moved under them (the redundant-fetch
    /// cost of desynchronisation).
    pub(super) fn validate_ibufs(&mut self) {
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
    pub(super) fn reassociated(
        &self,
        w: usize,
        reserved: Option<usize>,
    ) -> ([Option<IbufEntry>; 2], u64) {
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
    /// Evaluated once per waking event: [`Partition::settle`] runs
    /// [`Sm::ready_check_slow`] for a woken slot only.
    pub(crate) fn ready_check_nogroup(&self, w: usize, slot: usize) -> Option<Ready> {
        self.partition.settle(w, slot, || {
            #[cfg(debug_assertions)]
            self.audit(|a| a.evaluations += 1);
            self.ready_check_slow(w, slot)
        })
    }

    /// The context-move event: warp `w`'s divergence contexts, liveness or
    /// buffered entries changed — an issue, a barrier release, a block
    /// launch or teardown, a re-association that moved an entry. Walks the
    /// two hot contexts once and re-derives from them `fetchable`, whether
    /// re-association is due, and where both slots stand: one the
    /// context-and-buffer checks fail (just emptied by an issue, a missing
    /// or parked secondary) goes to its reason's set on the spot, one that
    /// gets as far as the scoreboard to `Woken` for the next scan.
    pub(super) fn rearm_warp(&mut self, w: usize) {
        let bit = 1u64 << w;
        let ctxs = [self.ctx(w, 0), self.ctx(w, 1)];
        let pcs = ctxs.map(|c| c.map(|(pc, _, _)| pc));
        let ibuf = self.warps[w].ibuf;
        for slot in 0..2 {
            let state = self.front_check(w, slot, ctxs[slot], || pcs[0]).err();
            self.partition
                .place(w, slot, state.unwrap_or(SlotState::Woken));
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
    pub(super) fn retired(&mut self, w: usize) {
        for slot in 0..2 {
            let reasons = [SlotState::Scoreboard, SlotState::ScoreboardFull];
            self.partition.wake(w, slot, &reasons);
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
        let mut woken = self.partition.warps(slot, SlotState::Woken) & among;
        while woken != 0 {
            let w = woken.trailing_zeros() as usize;
            woken &= woken - 1;
            let _ = self.ready_check_nogroup(w, slot);
        }
        // Control needs no port, so it is always free.
        let free =
            classes & (self.groups.free_class_mask(self.cycle) | 1 << UnitClass::Control as u8);
        self.partition.eligible(slot, free) & among
    }

    /// The evaluated `Ready` of `(w, slot)` — only meaningful for warps
    /// [`Sm::ready_set`] just returned.
    pub(crate) fn ready_info(&self, w: usize, slot: usize) -> Ready {
        self.partition.record(w, slot)
    }

    /// [`Sm::ready_info`]'s `seq` alone, read from its dense scan key.
    #[inline]
    pub(crate) fn ready_seq(&self, w: usize, slot: usize) -> u64 {
        self.partition.seq(w, slot)
    }

    /// [`Sm::ready_info`]'s `lanes` alone, read from its dense scan key.
    #[inline]
    pub(crate) fn ready_lanes(&self, w: usize, slot: usize) -> Mask {
        self.partition.lanes(w, slot)
    }

    /// [`Sm::ready_info`]'s `lanes.count()`, read from its dense scan key.
    #[inline]
    pub(crate) fn ready_fit(&self, w: usize, slot: usize) -> u32 {
        self.partition.fit(w, slot)
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
    pub(super) fn ready_check_slow(&self, w: usize, slot: usize) -> Result<Ready, SlotState> {
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
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const UNITS: [UnitClass; 4] = [
        UnitClass::Mad,
        UnitClass::Sfu,
        UnitClass::Lsu,
        UnitClass::Control,
    ];

    proptest! {
        /// Random `place` / `settle` / `wake` sequences over 64 warps × 2
        /// slots, against a per-warp model of `(state, record)`: after every
        /// write each warp sits in exactly one set per slot — the one its
        /// state index names — `state_of`, `counts` and every eligible
        /// `record` and its `seq` / `lanes` / `fit` scan keys agree with the
        /// model, and `eligible(slot, classes)` is the
        /// model's fold for every `classes`.
        #[test]
        fn writers_keep_the_partition(
            ops in proptest::collection::vec(
                (0u8..3, 0usize..128, (0u8..64, any::<u64>())),
                1..300,
            ),
        ) {
            let part = Partition::new(64);
            let mut model = [[(SlotState::NoContext, None::<Ready>); 2]; 64];
            for (kind, at, (arg, seq)) in ops {
                let (w, slot) = (at / 2, at % 2);
                let (state, record) = model[w][slot];
                match kind {
                    // A context move: to a reason or `Woken`.
                    0 => {
                        let to = SlotState::ALL[usize::from(arg) % 7];
                        part.place(w, slot, to);
                        model[w][slot] = (to, None);
                    }
                    // An evaluation, failing for a reason or eligible.
                    1 => {
                        let pick = usize::from(arg) % 10;
                        let outcome = match pick.checked_sub(6) {
                            None => Err(SlotState::ALL[pick]),
                            Some(u) => Ok(Ready {
                                warp: w,
                                slot,
                                pc: Pc(arg.into()),
                                mask: Mask::from_bits(seq),
                                lanes: Mask::from_bits(seq.rotate_left(7)),
                                unit: UNITS[u],
                                seq,
                            }),
                        };
                        let mut ran = false;
                        let got = part.settle(w, slot, || {
                            ran = true;
                            outcome
                        });
                        let want = match state {
                            SlotState::Woken => {
                                model[w][slot] = (SlotState::of(&outcome), outcome.ok());
                                outcome.ok()
                            }
                            _ => record,
                        };
                        prop_assert_eq!(ran, state == SlotState::Woken);
                        prop_assert_eq!(got, want);
                    }
                    // A retire or fill: wakes the reasons in `arg`'s low six bits.
                    _ => {
                        let wakes = |s: &&SlotState| arg >> (**s as u8) & 1 != 0;
                        let reasons: Vec<SlotState> =
                            SlotState::ALL[..6].iter().filter(wakes).copied().collect();
                        part.wake(w, slot, &reasons);
                        if reasons.contains(&state) {
                            model[w][slot].0 = SlotState::Woken;
                        }
                    }
                }
                for slot in 0..2 {
                    let mut counts = [0; SlotState::ALL.len()];
                    for (w, slots) in model.iter().enumerate() {
                        let (state, record) = slots[slot];
                        let holds = |s: &&SlotState| part.warps(slot, **s) >> w & 1 != 0;
                        let held = SlotState::ALL.iter().filter(holds);
                        prop_assert_eq!(held.count(), 1, "warp {} slot {}", w, slot);
                        // The state index names the one set that holds the warp.
                        prop_assert!(part.warps(slot, state) >> w & 1 != 0, "sets");
                        prop_assert_eq!(part.state_of(w, slot), state, "state index");
                        if let Some(r) = record {
                            prop_assert_eq!(part.record(w, slot), r);
                            let keys = (part.seq(w, slot), part.lanes(w, slot), part.fit(w, slot));
                            let want = (r.seq, r.lanes, r.lanes.count());
                            prop_assert_eq!(keys, want, "scan keys");
                        }
                        counts[state as usize] += 1;
                    }
                    prop_assert_eq!(part.counts(slot), counts);
                    for classes in 0..16u8 {
                        let fold = model.iter().enumerate().fold(0, |set, (w, slots)| {
                            let state = slots[slot].0 as u8;
                            let class = state.wrapping_sub(SlotState::EligibleMad as u8);
                            set | u64::from(class < 4 && classes >> class & 1 != 0) << w
                        });
                        prop_assert_eq!(part.eligible(slot, classes), fold);
                    }
                }
            }
        }
    }
}
