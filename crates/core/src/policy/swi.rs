//! Simultaneous Warp Interweaving (paper §4): a cascaded two-phase
//! scheduler (2-cycle latency) whose secondary front-end fills the
//! primary instruction's free lanes with another warp's instruction.
//! With [`SwiPolicy::with_sbi`] the same cascade also co-issues the
//! primary warp's CPC2 split (fig. 2e, SBI+SWI).

use warpweave_isa::{Pc, UnitClass};

use crate::mask::Mask;

use super::{Dispatch, FetchChannels, FetchPref, IssueCtx, IssuePolicy, Pick, Ready};

/// The pending primary pick of the cascade (selected one cycle before
/// issue — table 2's 2-cycle scheduler latency).
#[derive(Debug, Clone, Copy)]
struct PendingPrimary {
    warp: usize,
    slot: usize,
    pc: Pc,
}

/// The SWI front-end (solo, or combined with SBI's secondary-split
/// fetch). This cycle issues the primary picked *last* cycle plus a
/// secondary found now; in parallel the next primary is picked, with
/// a-posteriori conflict squashing (§4). Every pick is set algebra over
/// [`IssueCtx::ready_set`] bitmasks — the secondary lookup splits its set
/// by unit class — and one loop over set bits that reads a dense scan key
/// per candidate ([`IssueCtx::ready_seq`] for oldest-first,
/// [`IssueCtx::ready_fit`] and [`IssueCtx::ready_lanes`] for best-fit);
/// the full [`IssueCtx::ready_info`] record is read for the candidate
/// picked only. No per-warp probing, no popcount per candidate, no
/// allocation.
#[derive(Debug)]
pub struct SwiPolicy {
    /// Ibuf slots fetched per warp: 1 solo, 2 when combined with SBI.
    slots: usize,
    pending: Option<PendingPrimary>,
}

const SOLO_CHANNELS: FetchChannels = {
    const CPC1: &[FetchPref] = &[(None, 0)];
    [CPC1, CPC1]
};

const SBI_CHANNELS: FetchChannels = {
    const CPC1: &[FetchPref] = &[(None, 0)];
    const CPC2: &[FetchPref] = &[(None, 1), (None, 0)];
    [CPC1, CPC2]
};

impl SwiPolicy {
    /// SWI alone: one divergence context fetched per warp.
    pub fn solo() -> SwiPolicy {
        SwiPolicy {
            slots: 1,
            pending: None,
        }
    }

    /// SBI+SWI: the cascade also sees every warp's CPC2 split.
    pub fn with_sbi() -> SwiPolicy {
        SwiPolicy {
            slots: 2,
            pending: None,
        }
    }

    /// The SWI secondary lookup: search the primary's associativity set
    /// for a ready instruction whose lanes fit in the primary's free
    /// lanes (same-group ride), or any instruction for another free
    /// group. Best-fit (max occupancy) with pseudo-random tie-breaking.
    ///
    /// Fig. 9's associative match as unit-class set algebra: per slot, the
    /// primary's own class holds the ride candidates and every other class
    /// (all of them for a control primary, which rides nothing) the
    /// other-group ones, so the lookup's probes are popcounts of the sets.
    /// Only a MAD or SFU primary with a lane free walks its rides, scoring
    /// each by its fit key; the other group's oldest is scanned only when
    /// no ride fits — a ride always wins, and the scan has no side effect,
    /// so skipping it changes nothing.
    fn find_secondary(
        &self,
        ctx: &mut IssueCtx<'_>,
        r1: &Ready,
        d1: Dispatch,
    ) -> Option<(Ready, Dispatch)> {
        let free = Mask::full(ctx.warp_width()) - r1.lanes;
        let mut rides = BestFit::default();
        // Oldest candidate for another group, as `(seq, warp, slot)`.
        let mut other: Option<(u64, usize, usize)> = None;

        // Same-warp CPC2 (SBI-style) — always reachable, no lookup needed.
        if self.slots > 1 {
            if let Some(r2) = ctx.ready_check(r1.warp, 1) {
                match ctx.plan_coissue(r1, d1, &r2) {
                    Some(Dispatch::Ride(_)) => rides.offer(r1.warp, 1, ctx.ready_fit(r1.warp, 1)),
                    Some(_) => other = Some((r2.seq, r1.warp, 1)),
                    None => {}
                }
            }
        }

        let same = match r1.unit {
            UnitClass::Control => 0,
            unit => 1 << unit as u8,
        };
        let others = ctx.lookup_set(r1.warp) & !(1u64 << r1.warp);
        let (mut elsewhere, mut alike) = ([0u64; 2], [0u64; 2]);
        for slot in 0..self.slots {
            // Another class has a free group of its own (the scan vouches
            // for the port); control needs none.
            elsewhere[slot] = ctx.ready_set(slot, others, !same);
            alike[slot] = ctx.ready_set(slot, others, same);
        }
        let sets = elsewhere.iter().chain(&alike);
        ctx.count_lookup_probes(sets.map(|set| set.count_ones()).sum());

        // Cross-warp branch pairs are fine (separate HCT sorters); only the
        // single 128-byte L1 port is exclusive, so LSU never rides.
        if matches!(r1.unit, UnitClass::Mad | UnitClass::Sfu) && !free.is_empty() {
            let room = free.count();
            each_pair(alike, |w, slot| {
                // A candidate below the best fit so far, or wider than the
                // free lanes, cannot be offered: its lanes stay unread.
                let fit = ctx.ready_fit(w, slot);
                if fit >= rides.fit && fit <= room && ctx.ready_lanes(w, slot).is_subset(free) {
                    rides.offer(w, slot, fit);
                }
            });
        }

        let (w, slot, ride) = match rides.pick(ctx) {
            Some((w, slot)) => (w, slot, true),
            None => {
                each_pair(elsewhere, |w, slot| {
                    let seq = ctx.ready_seq(w, slot);
                    if other.is_none_or(|(age, _, _)| seq < age) {
                        other = Some((seq, w, slot));
                    }
                });
                other.map(|(_, w, slot)| (w, slot, false))?
            }
        };
        let r2 = ctx.ready_info(w, slot);
        ctx.count_lookup_hit();
        let d2 = match d1 {
            Dispatch::Group(g) if ride => Dispatch::Ride(g),
            _ => ctx.plan_dispatch(r2.unit)?,
        };
        Some((r2, d2))
    }

    /// The secondary scheduler's solo pick (after a conflict bubble):
    /// best-fit over all ready instructions.
    fn solo_pick(&self, ctx: &mut IssueCtx<'_>) -> Option<Ready> {
        let mut sets = [0u64; 2];
        for (slot, set) in sets.iter_mut().enumerate().take(self.slots) {
            *set = ctx.ready_set(slot, !0, !0);
        }
        let mut best = BestFit::default();
        each_pair(sets, |w, slot| best.offer(w, slot, ctx.ready_fit(w, slot)));
        let (w, slot) = best.pick(ctx)?;
        Some(ctx.ready_info(w, slot))
    }
}

/// Visits the `(warp, slot)` pairs of per-slot warp sets in lookup order —
/// ascending warp, then slot — in one loop over the set bits of their union.
fn each_pair(sets: [u64; 2], mut visit: impl FnMut(usize, usize)) {
    let mut warps = sets[0] | sets[1];
    while warps != 0 {
        let w = warps.trailing_zeros() as usize;
        warps &= warps - 1;
        for (slot, set) in sets.iter().enumerate() {
            if set >> w & 1 != 0 {
                visit(w, slot);
            }
        }
    }
}

/// The best-fit candidates seen so far, in offer order — a running maximum
/// plus its ties in a fixed buffer (at most 64 warps × 2 slots), so the
/// pseudo-random tie-break draws once, over the same candidates in the
/// same order as a collected list would give.
struct BestFit {
    fit: u32,
    len: usize,
    /// `warp << 1 | slot` of each candidate tied at `fit`.
    tied: [u8; 128],
}

impl Default for BestFit {
    fn default() -> BestFit {
        BestFit {
            fit: 0,
            len: 0,
            tied: [0; 128],
        }
    }
}

impl BestFit {
    fn offer(&mut self, warp: usize, slot: usize, fit: u32) {
        if fit > self.fit {
            (self.fit, self.len) = (fit, 0);
        }
        if fit == self.fit {
            self.tied[self.len] = (warp << 1 | slot) as u8;
            self.len += 1;
        }
    }

    /// One of the tied best fits, by one draw of the SM's RNG (none when
    /// nothing was offered).
    fn pick(&self, ctx: &mut IssueCtx<'_>) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let key = self.tied[ctx.rand_below(self.len)] as usize;
        Some((key >> 1, key & 1))
    }
}

impl IssuePolicy for SwiPolicy {
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize {
        // Phase n+1 primary pick (in parallel with this cycle's
        // secondary): the oldest, excluding the warp whose entry the
        // pending primary reserves.
        let others = !self.pending.map_or(0, |pp| 1u64 << pp.warp);
        let mut np = ctx.oldest_ready(0, others, !0);

        let mut issued = 0;
        let pending = self.pending.take();
        let mut secondary_issued: Option<(usize, usize)> = None; // (warp, slot)
        match pending {
            Some(pp) => {
                // Revalidate: the split may have moved, a dependency may
                // have appeared, or the entry may have been squashed.
                // (No free-group requirement: a busy port holds the pick.)
                let still = ctx
                    .ready_check_unported(pp.warp, pp.slot)
                    .filter(|r| r.pc == pp.pc);
                if let Some(r1) = still {
                    if let Some(d1) = ctx.plan_dispatch(r1.unit) {
                        let sec = self.find_secondary(ctx, &r1, d1);
                        let pick1 = Pick {
                            ready: r1,
                            dispatch: d1,
                            secondary: false,
                        };
                        match sec {
                            Some((r2, d2)) => {
                                secondary_issued = Some((r2.warp, r2.slot));
                                let pick2 = Pick {
                                    ready: r2,
                                    dispatch: d2,
                                    secondary: true,
                                };
                                issued += 2;
                                if r2.warp == r1.warp {
                                    ctx.commit(r1.warp, &[pick1, pick2]);
                                } else {
                                    ctx.commit(r1.warp, &[pick1]);
                                    ctx.commit(r2.warp, &[pick2]);
                                }
                            }
                            None => {
                                issued += 1;
                                ctx.commit(r1.warp, &[pick1]);
                            }
                        }
                    } else {
                        // Port busy: hold the pick, stall the cascade.
                        self.pending = Some(pp);
                        return 0;
                    }
                }
                // else: pick evaporated — bubble.
            }
            None => {
                // No pending primary (start-up or after a conflict): the
                // secondary scheduler "substitutes itself", picking by its
                // own best-fit policy.
                if let Some(r) = self.solo_pick(ctx) {
                    if let Some(d) = ctx.plan_dispatch(r.unit) {
                        secondary_issued = Some((r.warp, r.slot));
                        ctx.commit(
                            r.warp,
                            &[Pick {
                                ready: r,
                                dispatch: d,
                                secondary: true,
                            }],
                        );
                        issued += 1;
                    }
                }
            }
        }

        // Conflict: the secondary issued the very instruction the next
        // primary picked — squash the primary copy.
        if let (Some(np_r), Some(sec)) = (np, secondary_issued) {
            if (np_r.warp, np_r.slot) == sec {
                ctx.count_scheduler_conflict();
                np = None;
            }
        }
        self.pending = np.map(|r| PendingPrimary {
            warp: r.warp,
            slot: r.slot,
            pc: r.pc,
        });
        issued
    }

    fn fetch_channels(&self) -> FetchChannels {
        if self.slots > 1 {
            SBI_CHANNELS
        } else {
            SOLO_CHANNELS
        }
    }

    fn reserved_slot(&self, warp: usize) -> Option<usize> {
        self.pending.filter(|pp| pp.warp == warp).map(|pp| pp.slot)
    }
}
