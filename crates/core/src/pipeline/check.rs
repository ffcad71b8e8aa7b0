//! Debug-build checkers of the event-driven issue loop — compiled only
//! under `cfg(debug_assertions)`: checkers, not knobs.
//!
//! [`Sm::assert_event_state`] holds every set and record the events
//! maintain against its derivation from the architectural state alone,
//! [`Sm::tick_through_idle_window`] holds every idle fast-forward against
//! the cycles it skips, and [`EventAudit`] counts the bookkeeping the loop
//! actually did, so a test can say how much of it an event caused.

use warpweave_isa::{Program, UnitClass};

use super::{SlotState, Sm};
use crate::policy::Ready;
use crate::stats::Stats;

/// Per-cycle bookkeeping done so far, by kind ([`Sm::event_audit`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventAudit {
    /// Uncached readiness evaluations (a woken slot re-running the check).
    pub evaluations: u64,
    /// Warps a fetch channel looked at to find one it could fill.
    pub fetch_probes: u64,
    /// Instruction-buffer entries filled.
    pub fetch_fills: u64,
    /// Warps the ibuf re-association pass visited.
    pub validations: u64,
    /// Of those, the ones whose entries it moved or squashed.
    pub changed_validations: u64,
    /// Block-slot checks (barrier release, retire-and-refill) made.
    pub block_visits: u64,
}

impl Sm {
    /// The event audit so far (debug builds only).
    pub fn event_audit(&self) -> EventAudit {
        self.audit.get()
    }

    /// Applies `count` to the audit.
    pub(super) fn audit(&self, count: impl FnOnce(&mut EventAudit)) {
        let mut audit = self.audit.get();
        count(&mut audit);
        self.audit.set(audit);
    }

    /// [`Sm::ready_check`] recomputed from the architectural state alone —
    /// no records, no candidate sets. The scan cross-check's reference.
    pub(crate) fn ready_check_reference(&self, w: usize, slot: usize) -> Option<Ready> {
        let r = self.ready_check_slow(w, slot).ok()?;
        (r.unit == UnitClass::Control || self.groups.find_free(r.unit, self.cycle).is_some())
            .then_some(r)
    }

    /// The idle fast-forward's reference: ticks through the `skipped`
    /// cycles the jump is about to cross, asserting that none of them
    /// issues, fetches or retires anything, and returns the `(cycle, stats,
    /// fetch pointers)` ticking arrives at — with the clock, the counters,
    /// the pointers and the audit put back, so the jump then starts from
    /// the same state and can be held to the result.
    pub(super) fn tick_through_idle_window(
        &mut self,
        program: &Program,
        skipped: u64,
    ) -> (u64, Stats, [usize; 2]) {
        let before = (self.cycle, self.stats.clone(), self.fetch_rr);
        let (audit, progress) = (self.audit.get(), self.last_progress);
        for _ in 0..skipped {
            let fetched = self.tick(program);
            assert!(
                !fetched && self.last_progress == progress,
                "fast-forward from cycle {} would skip cycle {}, which is not idle",
                before.0,
                self.cycle
            );
        }
        let ticked = (self.cycle, self.stats.clone(), self.fetch_rr);
        (self.cycle, self.stats, self.fetch_rr) = before;
        self.audit.set(audit);
        ticked
    }

    /// Asserts, for both slots, that the state sets partition the pool, that
    /// every warp's state index names the set that holds it, that every
    /// warp outside `Woken` sits in the set a fresh evaluation puts it in
    /// (with its record and its `seq` / `lanes` / `fit` scan keys, if
    /// eligible),
    /// that `fetchable` is the from-state set, and that slot 1's
    /// `Constraint` set is the per-warp fold of the §3.3 parking condition —
    /// none of it settled first. Run once per stepped cycle, just before the
    /// policy issues: everything every event of the last cycle left behind
    /// is in view.
    pub(super) fn assert_event_state(&self) {
        let warps = 0..self.warps.len();
        let pool = u64::MAX >> (64 - warps.len());
        for slot in 0..2 {
            let sets = SlotState::ALL.map(|state| self.partition.warps(slot, state));
            let union = sets.iter().fold(0, |u, s| u | s);
            let bits: u32 = sets.iter().map(|s| s.count_ones()).sum();
            assert_eq!(
                (union, bits),
                (pool, pool.count_ones()),
                "slot {slot}: a warp in two sets, or in none"
            );
            let mut fetchable = 0;
            for w in warps.clone() {
                let held = self.partition.state_of(w, slot);
                assert!(
                    self.partition.warps(slot, held) >> w & 1 != 0,
                    "warp {w} slot {slot}: state index {held} names a set without it"
                );
                if held != SlotState::Woken {
                    let fresh = self.ready_check_slow(w, slot);
                    // Settled, so answered from the sets and the record.
                    assert_eq!(
                        (held, self.ready_check_nogroup(w, slot)),
                        (SlotState::of(&fresh), fresh.ok()),
                        "warp {w} slot {slot}: settled state and record"
                    );
                    if let Ok(r) = fresh {
                        let p = &self.partition;
                        let keys = (p.seq(w, slot), p.lanes(w, slot), p.fit(w, slot));
                        let want = (r.seq, r.lanes, r.lanes.count());
                        assert_eq!(keys, want, "warp {w} slot {slot}: scan keys");
                    }
                }
                let wants = self.ctx(w, slot).is_some() && self.warps[w].ibuf[slot].is_none();
                fetchable |= u64::from(wants) << w;
            }
            assert_eq!(
                self.fetchable[slot], fetchable,
                "slot {slot}: fetch set drifted"
            );
        }
        let parked = warps
            .filter(|&w| self.sync_parked(w))
            .fold(0, |m, w| m | 1u64 << w);
        let held = self.partition.warps(1, SlotState::Constraint);
        assert_eq!(held, parked, "a parked secondary outside `Constraint`");
    }

    /// True if warp `w`'s secondary split is parked by an SBI
    /// reconvergence constraint (§3.3), from its contexts alone.
    fn sync_parked(&self, w: usize) -> bool {
        if !self.cfg.sbi_constraints {
            return false;
        }
        let Some((pc, _, at_barrier)) = self.ctx(w, 1) else {
            return false;
        };
        if at_barrier || !self.pc_meta[pc.index()].is_sync {
            return false;
        }
        matches!(self.ctx(w, 0), Some((cpc1, _, _)) if cpc1 < pc)
    }

    /// Asserts that warp `w`, if it is outside `ctx_dirty`, is a fixed point
    /// of the ibuf re-association pass (nothing moves, nothing is squashed;
    /// with no slot reserved, which implies it with one) — called where an
    /// event touches a warp's contexts or entries and may leave it clean.
    pub(super) fn assert_clean_warp_is_fixed_point(&self, w: usize) {
        if self.ctx_dirty >> w & 1 == 0 {
            let fixed = (self.warps[w].ibuf, 0);
            assert_eq!(self.reassociated(w, None), fixed, "clean warp {w}");
        }
    }
}
