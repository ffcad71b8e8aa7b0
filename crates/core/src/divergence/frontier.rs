//! Thread-frontier divergence tracking: the sorted heap of warp-split
//! contexts (paper §3.4, fig. 5).
//!
//! Contexts live in a two-entry Hot Context Table (HCT) holding the two
//! minimal-PC warp-splits (`CPC1 < CPC2`) and a per-warp Cold Context Table
//! (CCT) holding the rest. The HCT sorter sorts/compacts/merges up to three
//! contexts per cycle (at most one divergence per cycle is allowed); spills
//! go to the CCT through a *sideband sorter* that performs insertion sort at
//! one node per cycle — when it cannot keep up, the CCT degrades into a
//! stack (new entries pushed on top), exactly the fallback the paper
//! describes.

use std::collections::VecDeque;

use warpweave_isa::Pc;

use crate::divergence::Transition;
use crate::mask::Mask;

/// One warp-split context: `(CPC, m, v)` in the paper, plus a barrier flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// The split's common PC.
    pub pc: Pc,
    /// Threads belonging to the split.
    pub mask: Mask,
    /// True while the split waits at a block barrier.
    pub at_barrier: bool,
}

/// Bookkeeping returned by [`FrontierHeap::apply_pair`] so the pipeline can
/// model the sideband sorter's occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapUpdate {
    /// A context was spilled into the CCT.
    pub spilled: bool,
    /// Nodes the sideband sorter walked for a sorted insert (0 if degraded
    /// or no spill).
    pub cct_walk: usize,
    /// The spill used the degraded (stack-order) path.
    pub degraded: bool,
}

warpweave_mem::counter_table! {
    /// Occupancy statistics for hardware provisioning and §5.2 validation
    /// (serialised as `heap_*`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct HeapStats, prefix "heap_" {
        /// High-water mark of live warp-splits (HCT + CCT).
        max_live_splits: usize = max,
        /// Contexts spilled to the CCT.
        spills: u64 = sum,
        /// Spills that used the degraded stack-order path.
        degraded_inserts: u64 = sum,
        /// Context merges (reconvergence events).
        merges: u64 = sum,
    }
}

/// The per-warp sorted heap (HCT + CCT).
#[derive(Debug, Clone)]
pub struct FrontierHeap {
    hct: [Option<Ctx>; 2],
    cct: VecDeque<Ctx>,
    /// The union of the live splits' masks, kept: `reset` sets it and an
    /// exiting split takes its mask out — a split or a merge moves threads
    /// between splits, never out of the union.
    alive: Mask,
    stats: HeapStats,
}

impl FrontierHeap {
    /// A fresh heap: all of `mask` at PC 0.
    pub fn new(mask: Mask) -> Self {
        let mut heap = FrontierHeap {
            hct: [None, None],
            // Splits hold disjoint non-empty thread sets, so the table
            // can never outgrow this: spills do not allocate.
            cct: VecDeque::with_capacity(mask.count().saturating_sub(2) as usize),
            alive: mask,
            stats: HeapStats::default(),
        };
        heap.reset(mask);
        heap
    }

    /// Restarts the heap as [`FrontierHeap::new`]`(mask)` builds it, keeping
    /// the CCT's allocation (a block relaunch on the same warp).
    pub fn reset(&mut self, mask: Mask) {
        self.hct = [
            Some(Ctx {
                pc: Pc(0),
                mask,
                at_barrier: false,
            }),
            None,
        ];
        self.cct.clear();
        self.alive = mask;
        self.stats = HeapStats {
            max_live_splits: 1,
            ..HeapStats::default()
        };
    }

    /// The primary warp-split (CPC1 = min PC), if any.
    pub fn primary(&self) -> Option<Ctx> {
        self.hct[0]
    }

    /// The secondary warp-split (CPC2 = second minimum), if any.
    pub fn secondary(&self) -> Option<Ctx> {
        self.hct[1]
    }

    /// True when every thread has exited.
    pub fn is_done(&self) -> bool {
        self.hct.iter().all(Option::is_none) && self.cct.is_empty()
    }

    /// Number of live warp-splits (HCT + CCT).
    pub fn live_splits(&self) -> usize {
        self.hct.iter().flatten().count() + self.cct.len()
    }

    /// Current CCT occupancy.
    pub fn cct_len(&self) -> usize {
        self.cct.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Releases every context from a barrier.
    pub fn release_barrier(&mut self) {
        for c in self.hct.iter_mut().flatten() {
            c.at_barrier = false;
        }
        for c in &mut self.cct {
            c.at_barrier = false;
        }
    }

    /// Union of the masks of all live splits (the warp's alive threads).
    #[inline]
    pub fn alive_mask(&self) -> Mask {
        debug_assert_eq!(self.alive, self.union_of_splits(), "kept alive mask");
        self.alive
    }

    /// [`FrontierHeap::alive_mask`] by walking the HCT and the CCT: the
    /// kept mask's derivation.
    fn union_of_splits(&self) -> Mask {
        let splits = self.hct.iter().flatten().chain(&self.cct);
        splits.fold(Mask::EMPTY, |m, c| m | c.mask)
    }

    /// Applies the transitions of the primary (`t1`) and/or secondary (`t2`)
    /// split for this scheduling cycle, then re-sorts the HCT, spilling to /
    /// refilling from the CCT. `sideband_free` selects between a sorted CCT
    /// insert and the degraded stack-order insert.
    ///
    /// # Panics
    /// Panics (debug) if a transition is supplied for an empty slot or if
    /// both transitions diverge (the hardware allows one divergence per
    /// cycle; the scheduler must enforce it).
    pub fn apply_pair(
        &mut self,
        t1: Option<Transition>,
        t2: Option<Transition>,
        sideband_free: bool,
    ) -> HeapUpdate {
        self.apply_pair_with(t1, t2, sideband_free, &mut Vec::new())
    }

    /// [`FrontierHeap::apply_pair`] for a caller that runs it per issue
    /// event: `scratch` is the candidate buffer of the re-sort with cold
    /// contexts (cleared here, capacity kept), so no call allocates. With
    /// an empty CCT — the common case — the at most three candidates sort
    /// in a fixed array and `scratch` is not touched.
    pub fn apply_pair_with(
        &mut self,
        t1: Option<Transition>,
        t2: Option<Transition>,
        sideband_free: bool,
        scratch: &mut Vec<Ctx>,
    ) -> HeapUpdate {
        debug_assert!(
            !(matches!(t1, Some(Transition::Split { .. }))
                && matches!(t2, Some(Transition::Split { .. }))),
            "at most one divergence per cycle"
        );
        // Two slots, at most one of which splits: three candidates.
        let unset = Ctx {
            pc: Pc(0),
            mask: Mask::EMPTY,
            at_barrier: false,
        };
        let mut candidates = [unset; 3];
        let mut n = 0;
        let mut push = |c: Ctx| {
            candidates[n] = c;
            n += 1;
        };
        for (slot, t) in [(0usize, t1), (1usize, t2)] {
            match t {
                None => {
                    if let Some(c) = self.hct[slot] {
                        push(c);
                    }
                }
                Some(tr) => {
                    let c = self.hct[slot].expect("transition for empty HCT slot");
                    match tr {
                        Transition::Advance(pc) => push(Ctx { pc, ..c }),
                        Transition::Barrier(pc) => push(Ctx {
                            pc,
                            at_barrier: true,
                            ..c
                        }),
                        Transition::Exit => self.alive = self.alive - c.mask,
                        Transition::Split { first, second } => {
                            push(Ctx {
                                pc: first.0,
                                mask: first.1,
                                at_barrier: false,
                            });
                            push(Ctx {
                                pc: second.0,
                                mask: second.1,
                                at_barrier: false,
                            });
                        }
                    }
                }
            }
        }
        let update = if self.cct.is_empty() {
            self.resort(&mut candidates[..n], sideband_free)
        } else {
            scratch.clear();
            scratch.extend_from_slice(&candidates[..n]);
            self.promote_cct_heads(scratch);
            self.resort(scratch, sideband_free)
        };
        self.stats.max_live_splits = self.stats.max_live_splits.max(self.live_splits());
        update
    }

    /// Moves the CCT head into `candidates` while it would beat the HCT's
    /// would-be second entry (or while the HCT has room). The HCT sorter
    /// sees the head's CPC each cycle, so this costs no extra hardware
    /// beyond the comparators of fig. 5(b).
    fn promote_cct_heads(&mut self, candidates: &mut Vec<Ctx>) {
        while let Some(&head) = self.cct.front() {
            candidates.sort_by_key(|c| c.pc);
            let promote = candidates.len() < 2
                || head.pc < candidates[1].pc
                || candidates.iter().any(|c| c.pc == head.pc);
            if promote {
                self.cct.pop_front();
                candidates.push(head);
            } else {
                break;
            }
        }
    }

    /// Sorts/compacts/merges `candidates` in place, fills the HCT with the
    /// two minimal contexts and spills the rest.
    fn resort(&mut self, candidates: &mut [Ctx], sideband_free: bool) -> HeapUpdate {
        let mut update = HeapUpdate::default();
        // Stable, and in place for a slice this short: a barrier-flagged
        // and an unflagged context at one pc do not merge, so their order
        // is observable.
        candidates.sort_by_key(|c| c.pc);
        // Merge adjacent equal-PC contexts (reconvergence), compacting
        // towards the front.
        let mut live = 0;
        for i in 0..candidates.len() {
            let c = candidates[i];
            match candidates[..live].last_mut() {
                Some(last) if last.pc == c.pc && last.at_barrier == c.at_barrier => {
                    debug_assert!(last.mask.is_disjoint(c.mask), "overlapping splits");
                    last.mask |= c.mask;
                    self.stats.merges += 1;
                }
                _ => {
                    candidates[live] = c;
                    live += 1;
                }
            }
        }
        let mut it = candidates[..live].iter().copied();
        self.hct = [it.next(), it.next()];
        // Spill the remainder through the sideband sorter.
        for c in it {
            update.spilled = true;
            self.stats.spills += 1;
            if sideband_free {
                let pos = self.cct.iter().position(|e| e.pc > c.pc);
                match pos {
                    Some(i) => {
                        update.cct_walk = update.cct_walk.max(i + 1);
                        self.cct.insert(i, c);
                    }
                    None => {
                        update.cct_walk = update.cct_walk.max(self.cct.len());
                        self.cct.push_back(c);
                    }
                }
            } else {
                // Degraded mode: the heap behaves like a stack.
                update.degraded = true;
                self.stats.degraded_inserts += 1;
                self.cct.push_front(c);
            }
        }
        update
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full4() -> Mask {
        Mask::full(4)
    }

    fn split(mask_first: u64, pc_first: u32, mask_second: u64, pc_second: u32) -> Transition {
        Transition::Split {
            first: (Pc(pc_first), Mask::from_bits(mask_first)),
            second: (Pc(pc_second), Mask::from_bits(mask_second)),
        }
    }

    #[test]
    fn fresh_heap() {
        let h = FrontierHeap::new(full4());
        assert_eq!(h.primary().unwrap().pc, Pc(0));
        assert!(h.secondary().is_none());
        assert_eq!(h.live_splits(), 1);
        assert!(!h.is_done());
    }

    #[test]
    fn divergence_orders_by_pc() {
        let mut h = FrontierHeap::new(full4());
        // Branch at 0: {2,3} fall through to 1, {0,1} jump to 5.
        h.apply_pair(Some(split(0b1100, 1, 0b0011, 5)), None, true);
        assert_eq!(h.primary().unwrap().pc, Pc(1));
        assert_eq!(h.primary().unwrap().mask, Mask::from_bits(0b1100));
        assert_eq!(h.secondary().unwrap().pc, Pc(5));
        assert_eq!(h.live_splits(), 2);
    }

    #[test]
    fn reconvergence_merges_equal_pcs() {
        let mut h = FrontierHeap::new(full4());
        h.apply_pair(Some(split(0b1100, 1, 0b0011, 5)), None, true);
        // Primary advances 1→5: equal PCs merge.
        h.apply_pair(Some(Transition::Advance(Pc(5))), None, true);
        assert_eq!(h.primary().unwrap().pc, Pc(5));
        assert_eq!(h.primary().unwrap().mask, full4());
        assert!(h.secondary().is_none());
        assert_eq!(h.stats().merges, 1);
    }

    #[test]
    fn both_slots_advance_simultaneously() {
        let mut h = FrontierHeap::new(full4());
        h.apply_pair(Some(split(0b1100, 1, 0b0011, 5)), None, true);
        // SBI issues both: primary 1→2, secondary 5→6.
        h.apply_pair(
            Some(Transition::Advance(Pc(2))),
            Some(Transition::Advance(Pc(6))),
            true,
        );
        assert_eq!(h.primary().unwrap().pc, Pc(2));
        assert_eq!(h.secondary().unwrap().pc, Pc(6));
    }

    #[test]
    fn third_split_spills_and_returns() {
        let mut h = FrontierHeap::new(full4());
        h.apply_pair(Some(split(0b1100, 1, 0b0011, 8)), None, true);
        // Primary diverges again: three live splits, max PC spills.
        h.apply_pair(Some(split(0b0100, 2, 0b1000, 9)), None, true);
        assert_eq!(h.live_splits(), 3);
        assert_eq!(h.cct_len(), 1);
        assert_eq!(h.primary().unwrap().pc, Pc(2));
        assert_eq!(h.secondary().unwrap().pc, Pc(8));
        assert_eq!(h.stats().spills, 1);
        // Primary exits → CCT head (9) promotes into the HCT.
        h.apply_pair(Some(Transition::Exit), None, true);
        assert_eq!(h.primary().unwrap().pc, Pc(8));
        assert_eq!(h.secondary().unwrap().pc, Pc(9));
        assert_eq!(h.cct_len(), 0);
    }

    #[test]
    fn cct_head_promotes_when_it_beats_hct() {
        let mut h = FrontierHeap::new(Mask::full(8));
        h.apply_pair(Some(split(0b1100, 4, 0b0011, 8)), None, true);
        h.apply_pair(Some(split(0b0100, 5, 0b1000, 12)), None, true);
        assert_eq!(h.cct_len(), 1); // ctx @12 spilled
                                    // Primary jumps to 20: now 12 < 20 must re-enter the HCT.
        h.apply_pair(Some(Transition::Advance(Pc(20))), None, true);
        assert_eq!(h.primary().unwrap().pc, Pc(8));
        assert_eq!(h.secondary().unwrap().pc, Pc(12));
        let pcs: Vec<u32> = h.cct.iter().map(|c| c.pc.0).collect();
        assert_eq!(pcs, vec![20]);
    }

    #[test]
    fn degraded_insert_goes_to_front() {
        let mut h = FrontierHeap::new(Mask::full(8));
        h.apply_pair(Some(split(0b1100, 4, 0b0011, 8)), None, true);
        let u = h.apply_pair(Some(split(0b0100, 5, 0b1000, 12)), None, false);
        assert!(u.spilled && u.degraded);
        let u = h.apply_pair(Some(split(0b0100, 6, 0b0000_0100_0000, 10)), None, false);
        assert!(u.degraded);
        // Stack order: most recent first (10 before 12).
        let pcs: Vec<u32> = h.cct.iter().map(|c| c.pc.0).collect();
        assert_eq!(pcs, vec![10, 12]);
        assert_eq!(h.stats().degraded_inserts, 2);
    }

    #[test]
    fn sorted_insert_keeps_cct_ordered() {
        let mut h = FrontierHeap::new(Mask::full(16));
        h.apply_pair(Some(split(0xfff0, 1, 0x000f, 30)), None, true);
        h.apply_pair(Some(split(0xff00, 2, 0x00f0, 20)), None, true);
        h.apply_pair(Some(split(0xf000, 3, 0x0f00, 25)), None, true);
        // HCT: 3, 20 — CCT: 25, 30 sorted.
        let pcs: Vec<u32> = h.cct.iter().map(|c| c.pc.0).collect();
        assert_eq!(pcs, vec![25, 30]);
    }

    #[test]
    fn exit_drains_heap() {
        let mut h = FrontierHeap::new(full4());
        h.apply_pair(Some(split(0b1100, 1, 0b0011, 5)), None, true);
        h.apply_pair(Some(Transition::Exit), None, true);
        assert_eq!(h.primary().unwrap().pc, Pc(5));
        assert!(h.secondary().is_none());
        h.apply_pair(Some(Transition::Exit), None, true);
        assert!(h.is_done());
    }

    #[test]
    fn barrier_flags_set_and_release() {
        let mut h = FrontierHeap::new(full4());
        h.apply_pair(Some(Transition::Barrier(Pc(3))), None, true);
        assert!(h.primary().unwrap().at_barrier);
        h.release_barrier();
        assert!(!h.primary().unwrap().at_barrier);
    }

    #[test]
    fn barrier_and_nonbarrier_do_not_merge() {
        let mut h = FrontierHeap::new(full4());
        h.apply_pair(Some(split(0b1100, 3, 0b0011, 4)), None, true);
        // Primary hits a barrier at 3 → advances to 4 flagged; secondary
        // sits at 4 unflagged: they must not merge.
        h.apply_pair(Some(Transition::Barrier(Pc(4))), None, true);
        assert_eq!(h.live_splits(), 2);
    }

    proptest::proptest! {
        /// Random transition sequences on both HCT slots — advances,
        /// barriers, exits, one split per event, barrier releases, sorted
        /// and degraded spills: after every event the kept `alive` is the
        /// union of the live splits, and the splits stay disjoint.
        #[test]
        fn kept_alive_mask_is_the_union_of_splits(
            width in 1usize..65,
            events in proptest::collection::vec(
                (
                    ((0u8..6, 0u8..6), (0u32..40, 0u32..40)),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<bool>(),
                ),
                1..80,
            ),
        ) {
            let mut h = FrontierHeap::new(Mask::full(width));
            for (((k1, k2), (pc1, pc2)), sel, sideband_free) in events {
                let mut split_taken = false;
                let mut pick = |slot: usize, kind: u8, pc: u32| {
                    let c = h.hct[slot]?;
                    let taken = Mask::from_bits(sel) & c.mask;
                    Some(match kind {
                        0 | 1 => Transition::Advance(Pc(pc)),
                        2 => Transition::Barrier(Pc(pc)),
                        3 => Transition::Exit,
                        _ if split_taken || taken.is_empty() || taken == c.mask => {
                            Transition::Advance(Pc(pc))
                        }
                        _ => {
                            split_taken = true;
                            Transition::from_branch(c.mask, taken, Pc(pc + 3), Pc(pc))
                        }
                    })
                };
                let t1 = pick(0, k1, pc1);
                let t2 = pick(1, k2, pc2);
                if k1 == 5 && k2 == 5 {
                    h.release_barrier();
                }
                h.apply_pair(t1, t2, sideband_free);
                proptest::prop_assert_eq!(h.alive, h.union_of_splits());
                let live: Vec<Mask> = h.hct.iter().flatten().chain(&h.cct).map(|c| c.mask).collect();
                let total: u32 = live.iter().map(|m| m.count()).sum();
                proptest::prop_assert_eq!(total, h.alive.count(), "splits overlap");
                if h.is_done() {
                    break;
                }
            }
        }
    }

    #[test]
    fn alive_mask_partition_invariant() {
        let mut h = FrontierHeap::new(Mask::full(8));
        h.apply_pair(Some(split(0b1111_0000, 2, 0b0000_1111, 9)), None, true);
        h.apply_pair(Some(split(0b1100_0000, 3, 0b0011_0000, 7)), None, true);
        assert_eq!(h.alive_mask(), Mask::full(8));
    }
}
