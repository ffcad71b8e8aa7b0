//! Dependence tracking between in-flight instructions.
//!
//! Three schemes (see [`ScoreboardMode`]):
//!
//! * **WarpLevel** — the baseline's per-warp destination-register table
//!   (paper §2): any register-ID match is a dependency.
//! * **Exact** — an oracle that additionally stores each in-flight
//!   instruction's thread mask and only flags dependences between
//!   intersecting masks.
//! * **Matrix** — the paper's SBI scoreboard (§3.4, fig. 6): instead of
//!   masks, each entry keeps a 3×3 boolean *dependency matrix* `D(tₑ, t)`
//!   over the slots {I1 = primary split, I2 = secondary split, I3 = all
//!   inactive contexts}. On every scheduling event the matrices are composed
//!   with the event's transition matrix (a boolean matrix product), forming
//!   the transitive closure of the divergence/convergence graph. Register
//!   matches are ANDed with the matrix bit — conservative with respect to
//!   `Exact` but needing only 9 bits per entry irrespective of warp width
//!   ("the complexity … is not affected by the warp size").

use warpweave_isa::Instruction;

use crate::config::ScoreboardMode;
use crate::mask::Mask;

/// A 3×3 boolean matrix over the warp-split slots {I1, I2, I3}.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepMatrix(u16);

impl DepMatrix {
    /// The identity matrix.
    pub fn identity() -> DepMatrix {
        let mut m = DepMatrix(0);
        for i in 0..3 {
            m.set(i, i, true);
        }
        m
    }

    /// The all-ones matrix (fully conservative).
    pub fn ones() -> DepMatrix {
        DepMatrix(0x1ff)
    }

    /// Builds the transition matrix between two slot partitions:
    /// `T[i][j] = 1` iff `before[i]` and `after[j]` share a thread.
    #[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors fig. 6
    pub fn transition(before: &[Mask; 3], after: &[Mask; 3]) -> DepMatrix {
        let mut m = DepMatrix(0);
        for i in 0..3 {
            for j in 0..3 {
                if before[i].intersects(after[j]) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Reads bit `(i, j)`.
    pub fn get(self, i: usize, j: usize) -> bool {
        (self.0 >> (i * 3 + j)) & 1 == 1
    }

    /// Writes bit `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        let bit = 1u16 << (i * 3 + j);
        if v {
            self.0 |= bit;
        } else {
            self.0 &= !bit;
        }
    }

    /// Boolean matrix product `self × rhs`.
    pub fn compose(self, rhs: DepMatrix) -> DepMatrix {
        let mut out = DepMatrix(0);
        for i in 0..3 {
            for j in 0..3 {
                let mut v = false;
                for k in 0..3 {
                    v |= self.get(i, k) && rhs.get(k, j);
                }
                out.set(i, j, v);
            }
        }
        out
    }
}

/// One in-flight instruction inside a scoreboard entry.
#[derive(Debug, Clone, Copy)]
struct SbInst {
    dst: Option<u8>,
    /// `dst` as a register bitmask (bit `r` set), 0 when no destination —
    /// the write footprint candidates are matched against with one AND.
    dst_bit: u64,
    /// `pdst` as a predicate bitmask, 0 when none.
    pdst_bit: u8,
    /// Thread mask at issue (Exact mode refinement).
    mask: Mask,
}

/// One scoreboard entry: the (up to two) instructions issued in one
/// scheduling cycle plus their dependency matrix.
#[derive(Debug, Clone)]
struct SbEntry {
    insts: [Option<SbInst>; 2],
    matrix: DepMatrix,
}

/// Identifies an in-flight instruction for retirement: `(entry, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbToken {
    entry: usize,
    slot: usize,
}

/// The per-warp scoreboard.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    mode: ScoreboardMode,
    entries: Vec<Option<SbEntry>>,
    /// Union of every in-flight `dst_bit` — the WarpLevel dependence test
    /// collapses to one AND against this. Kept current by
    /// [`Scoreboard::allocate`]/[`Scoreboard::retire`].
    agg_regs: u64,
    /// Union of every in-flight `pdst_bit`.
    agg_preds: u8,
    /// Count of occupied entries, kept current by
    /// [`Scoreboard::allocate`]/[`Scoreboard::retire`] so the per-cycle
    /// [`Scoreboard::has_free`] probe is one compare, not a slot scan.
    occupied: usize,
}

impl Scoreboard {
    /// A scoreboard with `entries` slots (table 2: 6 per warp).
    pub fn new(mode: ScoreboardMode, entries: usize) -> Self {
        Scoreboard {
            mode,
            entries: vec![None; entries],
            agg_regs: 0,
            agg_preds: 0,
            occupied: 0,
        }
    }

    /// Recomputes the aggregate write footprints from the live entries
    /// (≤ `entries × 2` instructions — retire rate, not ready-check rate;
    /// allocation only ever adds bits, so it ORs them in instead).
    fn recompute_agg(&mut self) {
        let mut regs = 0u64;
        let mut preds = 0u8;
        for inst in self
            .entries
            .iter()
            .flatten()
            .flat_map(|e| e.insts.iter().flatten())
        {
            regs |= inst.dst_bit;
            preds |= inst.pdst_bit;
        }
        self.agg_regs = regs;
        self.agg_preds = preds;
    }

    /// True if an entry is free for the next issue.
    pub fn has_free(&self) -> bool {
        self.occupied < self.entries.len()
    }

    /// Number of occupied entries.
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(self.occupied, self.entries.iter().flatten().count());
        self.occupied
    }

    /// Destination registers of every in-flight instruction, in entry
    /// order — the registers dependants are blocked on. Feeds the
    /// deadlock watchdog's per-warp diagnosis.
    pub fn in_flight_dsts(&self) -> Vec<u8> {
        self.entries
            .iter()
            .flatten()
            .flat_map(|e| e.insts.iter().flatten())
            .filter_map(|i| i.dst)
            .collect()
    }

    /// Checks whether `cand` (about to issue into `cand_slot` with thread
    /// mask `cand_mask`) depends on any in-flight instruction. True means
    /// the candidate must stall.
    ///
    /// A dependency is a register/predicate ID match (RAW on sources, WAW on
    /// the destination) refined per the scoreboard mode.
    pub fn depends(&self, cand: &Instruction, cand_mask: Mask, cand_slot: usize) -> bool {
        self.depends_masks(
            cand.reg_footprint(),
            cand.pred_footprint(),
            cand_mask,
            cand_slot,
        )
    }

    /// [`Scoreboard::depends`] against a precomputed candidate footprint
    /// (`Instruction::reg_footprint`/`pred_footprint`) — the per-pc-cached
    /// form the issue path's ready checks run every cycle. A register or
    /// predicate match is one AND against each in-flight write bit.
    pub fn depends_masks(
        &self,
        cand_regs: u64,
        cand_preds: u8,
        cand_mask: Mask,
        cand_slot: usize,
    ) -> bool {
        debug_assert!(cand_slot < 3);
        // No in-flight write touches the candidate's footprint: done. In
        // WarpLevel mode any match is a dependency, so this is the whole
        // test.
        if self.agg_regs & cand_regs == 0 && self.agg_preds & cand_preds == 0 {
            return false;
        }
        if self.mode == ScoreboardMode::WarpLevel {
            return true;
        }
        for e in self.entries.iter().flatten() {
            for (slot, inst) in e.insts.iter().enumerate() {
                let Some(inst) = inst else { continue };
                if inst.dst_bit & cand_regs == 0 && inst.pdst_bit & cand_preds == 0 {
                    continue;
                }
                let refined = match self.mode {
                    ScoreboardMode::WarpLevel => true,
                    ScoreboardMode::Exact => inst.mask.intersects(cand_mask),
                    ScoreboardMode::Matrix => e.matrix.get(slot, cand_slot),
                };
                if refined {
                    return true;
                }
            }
        }
        false
    }

    /// Allocates an entry for this cycle's issue: `i1` and optionally `i2`
    /// (SBI co-issue), with their issue-time thread masks. Returns retirement
    /// tokens, or `None` if the scoreboard is full (structural stall — the
    /// caller must not issue).
    pub fn allocate(
        &mut self,
        i1: (&Instruction, Mask),
        i2: Option<(&Instruction, Mask)>,
    ) -> Option<(SbToken, Option<SbToken>)> {
        let idx = self.entries.iter().position(Option::is_none)?;
        let to_inst = |(ins, mask): (&Instruction, Mask)| SbInst {
            dst: ins.dst.map(|r| r.index() as u8),
            dst_bit: ins.dst.map_or(0, |r| 1 << r.index()),
            pdst_bit: ins.pdst.map_or(0, |p| 1 << p.index()),
            mask,
        };
        let e = SbEntry {
            insts: [Some(to_inst(i1)), i2.map(to_inst)],
            matrix: DepMatrix::identity(), // replaced by `on_event`
        };
        for inst in e.insts.iter().flatten() {
            self.agg_regs |= inst.dst_bit;
            self.agg_preds |= inst.pdst_bit;
        }
        let t2 = i2.map(|_| SbToken {
            entry: idx,
            slot: 1,
        });
        self.entries[idx] = Some(e);
        self.occupied += 1;
        Some((
            SbToken {
                entry: idx,
                slot: 0,
            },
            t2,
        ))
    }

    /// Folds this scheduling event's slot transition into every entry:
    /// pre-issue slot masks → post-issue slot masks. The entry just
    /// allocated for this event must be included (its matrix becomes exactly
    /// the transition matrix).
    ///
    /// Only meaningful in `Matrix` mode; a no-op otherwise.
    pub fn on_event(&mut self, before: &[Mask; 3], after: &[Mask; 3], new_entry: Option<SbToken>) {
        if self.mode != ScoreboardMode::Matrix {
            return;
        }
        let t = DepMatrix::transition(before, after);
        for (i, e) in self.entries.iter_mut().enumerate() {
            let Some(e) = e else { continue };
            if Some(i) == new_entry.map(|t| t.entry) {
                e.matrix = t;
            } else {
                e.matrix = e.matrix.compose(t);
            }
        }
    }

    /// Retires one in-flight instruction; frees the entry when both slots
    /// are clear.
    pub fn retire(&mut self, token: SbToken) {
        let e = self.entries[token.entry]
            .as_mut()
            .expect("retiring a freed entry");
        debug_assert!(e.insts[token.slot].is_some(), "double retire");
        e.insts[token.slot] = None;
        if e.insts.iter().all(Option::is_none) {
            self.entries[token.entry] = None;
            self.occupied -= 1;
        }
        self.recompute_agg();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpweave_isa::{p, r, KernelBuilder};

    fn instr_iadd(dst: u8, a: u8, b: u8) -> Instruction {
        let mut k = KernelBuilder::new("t");
        k.iadd(r(dst), r(a), r(b));
        k.exit();
        k.build().unwrap().instructions()[0].clone()
    }

    fn instr_setp(pd: u8, a: u8) -> Instruction {
        let mut k = KernelBuilder::new("t");
        k.isetp(p(pd), warpweave_isa::CmpOp::Lt, r(a), 0i32);
        k.exit();
        k.build().unwrap().instructions()[0].clone()
    }

    #[test]
    fn identity_and_compose() {
        let id = DepMatrix::identity();
        assert_eq!(id.compose(id), id);
        let ones = DepMatrix::ones();
        assert_eq!(id.compose(ones), ones);
        assert_eq!(ones.compose(id), ones);
    }

    #[test]
    fn transition_matrix_from_masks() {
        let before = [
            Mask::from_bits(0b0011),
            Mask::from_bits(0b1100),
            Mask::EMPTY,
        ];
        // Slot 0 splits across new slots 0 and 1; old slot 1 spills to I3.
        let after = [
            Mask::from_bits(0b0001),
            Mask::from_bits(0b0010),
            Mask::from_bits(0b1100),
        ];
        let t = DepMatrix::transition(&before, &after);
        assert!(t.get(0, 0) && t.get(0, 1) && !t.get(0, 2));
        assert!(!t.get(1, 0) && !t.get(1, 1) && t.get(1, 2));
    }

    #[test]
    fn warp_level_flags_any_reg_match() {
        let mut sb = Scoreboard::new(ScoreboardMode::WarpLevel, 6);
        let producer = instr_iadd(5, 1, 2);
        sb.allocate((&producer, Mask::from_bits(0b0011)), None)
            .unwrap();
        let consumer = instr_iadd(6, 5, 2); // reads r5 (RAW)
        assert!(sb.depends(&consumer, Mask::from_bits(0b1100), 0));
        let unrelated = instr_iadd(7, 1, 2);
        assert!(!sb.depends(&unrelated, Mask::full(4), 0));
        let waw = instr_iadd(5, 1, 2);
        assert!(sb.depends(&waw, Mask::full(4), 0));
    }

    #[test]
    fn exact_mode_ignores_disjoint_masks() {
        let mut sb = Scoreboard::new(ScoreboardMode::Exact, 6);
        let producer = instr_iadd(5, 1, 2);
        sb.allocate((&producer, Mask::from_bits(0b0011)), None)
            .unwrap();
        let consumer = instr_iadd(6, 5, 2);
        assert!(!sb.depends(&consumer, Mask::from_bits(0b1100), 0));
        assert!(sb.depends(&consumer, Mask::from_bits(0b0110), 0));
    }

    #[test]
    fn predicate_dependences() {
        let mut sb = Scoreboard::new(ScoreboardMode::WarpLevel, 6);
        let producer = instr_setp(0, 1);
        sb.allocate((&producer, Mask::full(4)), None).unwrap();
        // A guarded instruction reading p0 depends on the setp.
        let mut k = KernelBuilder::new("t");
        k.guard_t(p(0)).iadd(r(9), r(1), r(2));
        k.exit();
        let guarded = k.build().unwrap().instructions()[0].clone();
        assert!(sb.depends(&guarded, Mask::full(4), 0));
        // An unguarded one does not.
        let free = instr_iadd(9, 1, 2);
        assert!(!sb.depends(&free, Mask::full(4), 0));
    }

    #[test]
    fn matrix_mode_coissue_independence() {
        // I1 writes r5 for threads {0,1}; I2 (same cycle, disjoint split)
        // also writes r5 — under Matrix mode the WAW between slots is ignored
        // because D[0][1] = 0 after the event (disjoint splits).
        let mut sb = Scoreboard::new(ScoreboardMode::Matrix, 6);
        let i1 = instr_iadd(5, 1, 2);
        let i2 = instr_iadd(5, 3, 4);
        let m1 = Mask::from_bits(0b0011);
        let m2 = Mask::from_bits(0b1100);
        let (t1, t2) = sb.allocate((&i1, m1), Some((&i2, m2))).unwrap();
        // Slots unchanged by the event: splits stay apart.
        let slots = [m1, m2, Mask::EMPTY];
        sb.on_event(&slots, &slots, Some(t1));
        let next_for_slot1 = instr_iadd(5, 5, 5);
        // Candidate in slot 1 depends on the slot-1 producer but not slot-0's.
        assert!(sb.depends(&next_for_slot1, m2, 1));
        sb.retire(t2.unwrap());
        assert!(!sb.depends(&next_for_slot1, m2, 1));
        sb.retire(t1);
        assert_eq!(sb.in_flight(), 0);
    }

    #[test]
    fn matrix_tracks_threads_jumping_between_splits() {
        // Producer issues in slot 0. Then the splits reconverge: slot-0 and
        // slot-1 threads merge into slot 0. A consumer in slot 0 must now
        // depend on the old slot-0 producer.
        let mut sb = Scoreboard::new(ScoreboardMode::Matrix, 6);
        let prod = instr_iadd(5, 1, 2);
        let m1 = Mask::from_bits(0b0011);
        let m2 = Mask::from_bits(0b1100);
        let (t1, _) = sb.allocate((&prod, m1), None).unwrap();
        sb.on_event(&[m1, m2, Mask::EMPTY], &[m1, m2, Mask::EMPTY], Some(t1));
        // Next event: merge (both old slots map into new slot 0).
        sb.on_event(
            &[m1, m2, Mask::EMPTY],
            &[m1 | m2, Mask::EMPTY, Mask::EMPTY],
            None,
        );
        let consumer = instr_iadd(6, 5, 2);
        assert!(sb.depends(&consumer, m1 | m2, 0));
        // And slot 1 (now empty) has no dependences.
        assert!(!sb.depends(&consumer, Mask::EMPTY, 1));
    }

    #[test]
    fn structural_full() {
        let mut sb = Scoreboard::new(ScoreboardMode::WarpLevel, 2);
        let i = instr_iadd(1, 2, 3);
        assert!(sb.allocate((&i, Mask::full(4)), None).is_some());
        assert!(sb.allocate((&i, Mask::full(4)), None).is_some());
        assert!(!sb.has_free());
        assert!(sb.allocate((&i, Mask::full(4)), None).is_none());
    }

    #[test]
    fn matrix_is_conservative_wrt_exact() {
        // Randomised check: for arbitrary split evolutions, if Exact flags a
        // dependency then Matrix must flag it too.
        let mut seed = 0x12345u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let full = Mask::full(8);
            let m1 = Mask::from_bits(rng() & 0xff);
            let m1 = if m1.is_empty() {
                Mask::from_bits(1)
            } else {
                m1
            };
            let m2 = full - m1;
            let mut exact = Scoreboard::new(ScoreboardMode::Exact, 6);
            let mut matrix = Scoreboard::new(ScoreboardMode::Matrix, 6);
            let prod = instr_iadd(5, 1, 2);
            exact.allocate((&prod, m1), None).unwrap();
            let (tk, _) = matrix.allocate((&prod, m1), None).unwrap();
            let before = [m1, m2, Mask::EMPTY];
            // Random re-partition of threads over slots.
            let a0 = Mask::from_bits(rng() & 0xff);
            let a1 = (full - a0) & Mask::from_bits(rng() & 0xff);
            let a2 = full - a0 - a1;
            let after = [a0, a1, a2];
            matrix.on_event(&before, &after, Some(tk));
            let consumer = instr_iadd(6, 5, 1);
            for (slot, m) in after.iter().enumerate().take(2) {
                if exact.depends(&consumer, *m, slot) {
                    assert!(
                        matrix.depends(&consumer, *m, slot),
                        "matrix missed a dependency flagged by exact"
                    );
                }
            }
        }
    }
}
