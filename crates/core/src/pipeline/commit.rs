//! Commit: what a policy's pick does to the SM — execution, timing,
//! the divergence update, scoreboard entries and their retirement — and
//! the other queries a policy makes through [`crate::policy::IssueCtx`].

use warpweave_isa::{Instruction, Op, Pc, Program, UnitClass};

use super::backend::{PendingMemOp, WbTiming};
use super::{Divergence, Sm};
use crate::config::ScoreboardMode;
use crate::divergence::Transition;
use crate::mask::Mask;
use crate::policy::{Dispatch, Pick, Ready};
use crate::scoreboard::SbToken;
use crate::stats::Stats;
use crate::trace::{IssueSlot, TraceEvent};

impl Sm {
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

    fn thread_exit(&mut self, w: usize, mask: Mask) {
        let warp = &mut self.warps[w];
        let newly = mask - warp.exited;
        warp.exited |= mask;
        let slot = warp.block_slot;
        // `alive` stays true until the scoreboard drains (`refill_block`).
        self.blocks[slot].alive_threads -= newly.count();
        self.block_flags |= 1 << slot;
    }
}
