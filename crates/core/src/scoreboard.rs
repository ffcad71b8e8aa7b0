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

/// A 3×3 boolean matrix over the warp-split slots {I1, I2, I3}: bit
/// `3i + j` is entry `(i, j)`, so row `i` is the three bits from `3i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepMatrix(u16);

/// Bit 0 of every row: column 0, and the factor that copies one 3-bit row
/// into all three.
const COLUMN0: u16 = 0b001_001_001;

impl DepMatrix {
    /// The identity matrix.
    pub fn identity() -> DepMatrix {
        DepMatrix(0b100_010_001)
    }

    /// The all-ones matrix (fully conservative).
    pub fn ones() -> DepMatrix {
        DepMatrix(0x1ff)
    }

    /// Builds the transition matrix between two slot partitions:
    /// `T[i][j] = 1` iff `before[i]` and `after[j]` share a thread.
    pub fn transition(before: &[Mask; 3], after: &[Mask; 3]) -> DepMatrix {
        let row = |b: Mask| {
            let [a0, a1, a2] = after.map(|a| u16::from(b.intersects(a)));
            a0 | a1 << 1 | a2 << 2
        };
        DepMatrix(row(before[0]) | row(before[1]) << 3 | row(before[2]) << 6)
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

    /// Boolean matrix product `self × rhs`: row `i` is the OR of the rows
    /// `k` of `rhs` for which `(i, k)` is set in `self`. Per `k`, column
    /// `k` of `self` widened to whole rows masks row `k` of `rhs` copied
    /// into every row.
    pub fn compose(self, rhs: DepMatrix) -> DepMatrix {
        let term = |k: usize| {
            let rows_reaching_k = ((self.0 >> k) & COLUMN0) * 0b111;
            let row_k_everywhere = ((rhs.0 >> (3 * k)) & 0b111) * COLUMN0;
            rows_reaching_k & row_k_everywhere
        };
        DepMatrix(term(0) | term(1) | term(2))
    }
}

/// Entries one scoreboard can hold: its occupancy is one byte, its
/// in-flight instructions one 16-bit word.
const MAX_ENTRIES: usize = 8;

/// Identifies an in-flight instruction for retirement: `(entry, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbToken {
    entry: usize,
    slot: usize,
}

impl SbToken {
    /// The instruction's bit in [`Scoreboard::live`].
    fn bit(self) -> u16 {
        1 << (2 * self.entry + self.slot)
    }
}

/// The per-warp scoreboard: per entry (the up to two instructions issued in
/// one scheduling cycle) its dependency matrix, per in-flight instruction
/// its write footprint and issue mask — fixed word arrays indexed by entry,
/// or by `2 * entry + slot`, with an occupancy mask beside them, so an
/// allocation is one `trailing_zeros` and no event walks a free entry.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    mode: ScoreboardMode,
    /// Bit `e` set ⇔ the scoreboard has an entry `e` (its size).
    entries: u8,
    /// Bit `e` set ⇔ entry `e` is occupied.
    occupied: u8,
    /// Bit `2e + s` set ⇔ instruction `s` of entry `e` is in flight.
    live: u16,
    /// Per instruction: its destination register as a bitmask (bit `r`
    /// set), 0 when none — the write footprint candidates are matched
    /// against with one AND.
    dst_bits: [u64; 2 * MAX_ENTRIES],
    /// Per instruction: its destination predicate as a bitmask, 0 when none.
    pdst_bits: [u8; 2 * MAX_ENTRIES],
    /// Per instruction: its thread mask at issue (Exact mode refinement).
    masks: [Mask; 2 * MAX_ENTRIES],
    /// Per entry: its dependency matrix (Matrix mode).
    matrices: [DepMatrix; MAX_ENTRIES],
    /// Union of every in-flight `dst_bits` — the WarpLevel dependence test
    /// collapses to one AND against this. Kept current by
    /// [`Scoreboard::allocate`]/[`Scoreboard::retire`].
    agg_regs: u64,
    /// Union of every in-flight `pdst_bits`.
    agg_preds: u8,
}

/// The set bits of `bits`, ascending.
fn bits_of(mut bits: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            i
        })
    })
}

impl Scoreboard {
    /// A scoreboard with `entries` slots (table 2: 6 per warp).
    ///
    /// # Panics
    /// Panics if `entries` exceeds 8.
    pub fn new(mode: ScoreboardMode, entries: usize) -> Self {
        assert!(
            entries <= MAX_ENTRIES,
            "{entries} scoreboard entries, at most {MAX_ENTRIES}"
        );
        Scoreboard {
            mode,
            entries: (1u16 << entries).wrapping_sub(1) as u8,
            occupied: 0,
            live: 0,
            dst_bits: [0; 2 * MAX_ENTRIES],
            pdst_bits: [0; 2 * MAX_ENTRIES],
            masks: [Mask::EMPTY; 2 * MAX_ENTRIES],
            matrices: [DepMatrix::identity(); MAX_ENTRIES],
            agg_regs: 0,
            agg_preds: 0,
        }
    }

    /// True if an entry is free for the next issue.
    pub fn has_free(&self) -> bool {
        self.occupied != self.entries
    }

    /// Number of occupied entries.
    pub fn in_flight(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Destination registers of every in-flight instruction, in entry
    /// order — the registers dependants are blocked on. Feeds the
    /// deadlock watchdog's per-warp diagnosis.
    pub fn in_flight_dsts(&self) -> Vec<u8> {
        let dsts = bits_of(self.live).map(|i| self.dst_bits[i]);
        dsts.filter(|&d| d != 0)
            .map(|d| d.trailing_zeros() as u8)
            .collect()
    }

    /// Checks whether a candidate (about to issue into `cand_slot` with
    /// thread mask `cand_mask`) depends on any in-flight instruction. True
    /// means the candidate must stall.
    ///
    /// A dependency is a register/predicate ID match (RAW on sources, WAW on
    /// the destination) refined per the scoreboard mode. The candidate is
    /// its precomputed footprint (`Instruction::reg_footprint` /
    /// `pred_footprint`) — the per-pc-cached form the issue path's ready
    /// checks run every cycle. A register or predicate match is one AND
    /// against each in-flight write bit.
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
        bits_of(self.live).any(|i| {
            let touches = self.dst_bits[i] & cand_regs != 0 || self.pdst_bits[i] & cand_preds != 0;
            touches
                && match self.mode {
                    ScoreboardMode::WarpLevel => true,
                    ScoreboardMode::Exact => self.masks[i].intersects(cand_mask),
                    ScoreboardMode::Matrix => self.matrices[i / 2].get(i % 2, cand_slot),
                }
        })
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
        let free = self.entries & !self.occupied;
        if free == 0 {
            return None;
        }
        let entry = free.trailing_zeros() as usize;
        self.occupied |= 1 << entry;
        self.matrices[entry] = DepMatrix::identity(); // replaced by `on_event`
        let mut issue = |slot: usize, (ins, mask): (&Instruction, Mask)| {
            let token = SbToken { entry, slot };
            let i = 2 * entry + slot;
            self.dst_bits[i] = ins.dst.map_or(0, |r| 1 << r.index());
            self.pdst_bits[i] = ins.pdst.map_or(0, |p| 1 << p.index());
            self.masks[i] = mask;
            self.agg_regs |= self.dst_bits[i];
            self.agg_preds |= self.pdst_bits[i];
            self.live |= token.bit();
            token
        };
        let t1 = issue(0, i1);
        Some((t1, i2.map(|i2| issue(1, i2))))
    }

    /// Folds this scheduling event's slot transition into every entry:
    /// pre-issue slot masks → post-issue slot masks. The entry just
    /// allocated for this event must be included (its matrix becomes exactly
    /// the transition matrix).
    ///
    /// Only meaningful in `Matrix` mode; a no-op otherwise.
    ///
    /// An identity event (`before == after`: no split moved a thread) is
    /// the diagonal matrix of the non-empty slots, and composing with it
    /// clears the columns of the empty ones. Every older matrix already
    /// has those columns clear — the previous event left these very slots
    /// empty, and nothing moves threads between events — so only the new
    /// entry's matrix is written.
    pub fn on_event(&mut self, before: &[Mask; 3], after: &[Mask; 3], new_entry: Option<SbToken>) {
        if self.mode != ScoreboardMode::Matrix {
            return;
        }
        let t = DepMatrix::transition(before, after);
        let new_entry = new_entry.map_or(0, |n| 1u8 << n.entry);
        let older = self.occupied & !new_entry;
        if before == after {
            #[cfg(debug_assertions)]
            for e in bits_of(older.into()) {
                let m = self.matrices[e];
                assert_eq!(m.compose(t), m, "an empty slot's column is set");
            }
        } else {
            for e in bits_of(older.into()) {
                self.matrices[e] = self.matrices[e].compose(t);
            }
        }
        if new_entry != 0 {
            self.matrices[new_entry.trailing_zeros() as usize] = t;
        }
    }

    /// Retires one in-flight instruction; frees the entry when both slots
    /// are clear.
    pub fn retire(&mut self, token: SbToken) {
        assert!(
            self.occupied >> token.entry & 1 != 0,
            "retiring a freed entry"
        );
        debug_assert!(self.live & token.bit() != 0, "double retire");
        self.live &= !token.bit();
        if self.live >> (2 * token.entry) & 0b11 == 0 {
            self.occupied &= !(1 << token.entry);
        }
        // Recomputed from the instructions still in flight (allocation
        // only ever adds bits, so it ORs them in instead).
        let (mut regs, mut preds) = (0, 0);
        for i in bits_of(self.live) {
            regs |= self.dst_bits[i];
            preds |= self.pdst_bits[i];
        }
        (self.agg_regs, self.agg_preds) = (regs, preds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TieBreakRng;
    use warpweave_isa::{p, r, KernelBuilder};

    fn instr_iadd(dst: u8, a: u8, b: u8) -> Instruction {
        let mut k = KernelBuilder::new("t");
        k.iadd(r(dst), r(a), r(b));
        k.exit();
        k.build().unwrap().instructions()[0].clone()
    }

    /// Whether `cand` must stall on `sb`, from its footprint.
    fn stalls(sb: &Scoreboard, cand: &Instruction, mask: Mask, slot: usize) -> bool {
        sb.depends_masks(cand.reg_footprint(), cand.pred_footprint(), mask, slot)
    }

    fn instr_setp(pd: u8, a: u8) -> Instruction {
        let mut k = KernelBuilder::new("t");
        k.isetp(p(pd), warpweave_isa::CmpOp::Lt, r(a), 0i32);
        k.exit();
        k.build().unwrap().instructions()[0].clone()
    }

    /// `DepMatrix::transition` entry by entry: the oracle.
    #[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors fig. 6
    fn transition_by_entries(before: &[Mask; 3], after: &[Mask; 3]) -> DepMatrix {
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

    /// `DepMatrix::compose` entry by entry: the oracle.
    fn compose_by_entries(a: DepMatrix, b: DepMatrix) -> DepMatrix {
        let mut out = DepMatrix(0);
        for i in 0..3 {
            for j in 0..3 {
                let mut v = false;
                for k in 0..3 {
                    v |= a.get(i, k) && b.get(k, j);
                }
                out.set(i, j, v);
            }
        }
        out
    }

    #[test]
    fn compose_matches_the_entry_oracle_on_every_pair() {
        for a in 0..512 {
            for b in 0..512 {
                let (a, b) = (DepMatrix(a), DepMatrix(b));
                assert_eq!(a.compose(b), compose_by_entries(a, b), "{a:?} x {b:?}");
            }
        }
        let mut id = DepMatrix(0);
        (0..3).for_each(|i| id.set(i, i, true));
        assert_eq!(DepMatrix::identity(), id);
    }

    #[test]
    fn transition_matches_the_entry_oracle_on_random_partitions() {
        // Each lane lands in one of the three slots or in none.
        fn partition(width: usize, rng: &mut TieBreakRng) -> [Mask; 3] {
            let mut slots = [Mask::EMPTY; 3];
            for lane in 0..width {
                if let Some(slot) = slots.get_mut(rng.below(4)) {
                    *slot |= Mask::single(lane);
                }
            }
            slots
        }
        let mut rng = TieBreakRng::new(0x5107_5107);
        for trial in 0..3000 {
            let width = [1, 4, 8, 32, 64][trial % 5];
            let before = partition(width, &mut rng);
            let after = partition(width, &mut rng);
            assert_eq!(
                DepMatrix::transition(&before, &after),
                transition_by_entries(&before, &after),
                "{before:?} -> {after:?}"
            );
        }
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
        assert!(stalls(&sb, &consumer, Mask::from_bits(0b1100), 0));
        let unrelated = instr_iadd(7, 1, 2);
        assert!(!stalls(&sb, &unrelated, Mask::full(4), 0));
        let waw = instr_iadd(5, 1, 2);
        assert!(stalls(&sb, &waw, Mask::full(4), 0));
    }

    #[test]
    fn exact_mode_ignores_disjoint_masks() {
        let mut sb = Scoreboard::new(ScoreboardMode::Exact, 6);
        let producer = instr_iadd(5, 1, 2);
        sb.allocate((&producer, Mask::from_bits(0b0011)), None)
            .unwrap();
        let consumer = instr_iadd(6, 5, 2);
        assert!(!stalls(&sb, &consumer, Mask::from_bits(0b1100), 0));
        assert!(stalls(&sb, &consumer, Mask::from_bits(0b0110), 0));
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
        assert!(stalls(&sb, &guarded, Mask::full(4), 0));
        // An unguarded one does not.
        let free = instr_iadd(9, 1, 2);
        assert!(!stalls(&sb, &free, Mask::full(4), 0));
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
        assert!(stalls(&sb, &next_for_slot1, m2, 1));
        sb.retire(t2.unwrap());
        assert!(!stalls(&sb, &next_for_slot1, m2, 1));
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
        assert!(stalls(&sb, &consumer, m1 | m2, 0));
        // And slot 1 (now empty) has no dependences.
        assert!(!stalls(&sb, &consumer, Mask::EMPTY, 1));
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

    /// `Scoreboard::on_event` without the identity skip: every older
    /// matrix composed with the transition.
    fn on_event_by_compose(
        sb: &mut Scoreboard,
        before: &[Mask; 3],
        after: &[Mask; 3],
        new_entry: Option<SbToken>,
    ) {
        let t = DepMatrix::transition(before, after);
        for e in bits_of(sb.occupied.into()) {
            sb.matrices[e] = match new_entry {
                Some(n) if n.entry == e => t,
                _ => sb.matrices[e].compose(t),
            };
        }
    }

    proptest::proptest! {
        /// Random allocate / retire / event sequences on a 16-thread warp,
        /// each event starting from the slots the previous one left: the
        /// skipping `on_event` leaves every matrix where the compose-every-
        /// entry path does.
        #[test]
        fn identity_skip_is_the_compose_path(
            ops in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                1..120,
            ),
        ) {
            let mut sb = Scoreboard::new(ScoreboardMode::Matrix, 6);
            let mut reference = sb.clone();
            let mut live: Vec<SbToken> = Vec::new();
            let mut slots = [Mask::full(16), Mask::EMPTY, Mask::EMPTY];
            let i = instr_iadd(5, 1, 2);
            for (kind, bits, sel) in ops {
                if kind == 0 {
                    if let Some(&t) = live.get(bits as usize % live.len().max(1)) {
                        live.retain(|&x| x != t);
                        sb.retire(t);
                        reference.retire(t);
                    }
                    continue;
                }
                // An issue event, allocating an entry when one is free.
                let mut new_entry = None;
                if kind < 4 && sb.has_free() {
                    let i2 = (kind == 2).then_some((&i, slots[1]));
                    let (t1, t2) = sb.allocate((&i, slots[0]), i2).unwrap();
                    reference.allocate((&i, slots[0]), i2).unwrap();
                    live.extend(std::iter::once(t1).chain(t2));
                    new_entry = Some(t1);
                }
                // Odd kinds move no thread: the identity event.
                let after = if kind % 2 == 1 {
                    slots
                } else {
                    let alive = (slots[0] | slots[1] | slots[2]) & Mask::from_bits(bits | bits >> 5);
                    let a0 = alive & Mask::from_bits(sel);
                    let a1 = (alive - a0) & Mask::from_bits(sel.rotate_left(17));
                    [a0, a1, alive - a0 - a1]
                };
                sb.on_event(&slots, &after, new_entry);
                on_event_by_compose(&mut reference, &slots, &after, new_entry);
                let matrices = |sb: &Scoreboard| -> Vec<DepMatrix> {
                    bits_of(sb.occupied.into()).map(|e| sb.matrices[e]).collect()
                };
                proptest::prop_assert_eq!(sb.occupied, reference.occupied);
                proptest::prop_assert_eq!(matrices(&sb), matrices(&reference));
                slots = after;
            }
        }
    }

    proptest::proptest! {
        /// Random allocate / retire sequences in the two mask-free-matrix
        /// modes against a list of entries, each a pair of in-flight
        /// `(dst, pdst, mask)` or nothing: the first free entry is
        /// allocated, and `has_free`, `in_flight`, `in_flight_dsts` and
        /// every dependence answer what the list does.
        #[test]
        fn words_answer_what_the_entry_list_does(
            exact in proptest::prelude::any::<bool>(),
            size in 1usize..9,
            ops in proptest::collection::vec(
                (0u8..4, (0u8..8, 0u8..8), proptest::prelude::any::<u64>()),
                1..100,
            ),
        ) {
            type Inst = (u8, Option<u8>, Mask);
            let mode = if exact { ScoreboardMode::Exact } else { ScoreboardMode::WarpLevel };
            let mut sb = Scoreboard::new(mode, size);
            let mut list: Vec<[Option<Inst>; 2]> = vec![[None; 2]; size];
            let mut tokens: Vec<SbToken> = Vec::new();
            let (iadd, setp) = ((0..8).map(|d| instr_iadd(d, 8, 9)).collect::<Vec<_>>(), instr_setp(1, 8));
            for (kind, (d1, d2), bits) in ops {
                let mask = Mask::from_bits(bits);
                if kind == 0 {
                    if let Some(&t) = tokens.get(bits as usize % tokens.len().max(1)) {
                        tokens.retain(|&x| x != t);
                        sb.retire(t);
                        list[t.entry][t.slot] = None;
                    }
                } else {
                    let i1 = if kind == 3 { &setp } else { &iadd[usize::from(d1)] };
                    let i2 = (kind == 2).then_some((&iadd[usize::from(d2)], !mask));
                    let free = list.iter().position(|e| e.iter().all(Option::is_none));
                    let got = sb.allocate((i1, mask), i2);
                    proptest::prop_assert_eq!(got.map(|(t, _)| t.entry), free);
                    if let (Some((t1, t2)), Some(e)) = (got, free) {
                        let inst = |i: &Instruction, m| (i.dst.map_or(0, |r| r.index() as u8), i.pdst.map(|p| p.index() as u8), m);
                        list[e] = [Some(inst(i1, mask)), i2.map(|(i, m)| inst(i, m))];
                        tokens.extend(std::iter::once(t1).chain(t2));
                    }
                }
                let occupied = list.iter().filter(|e| e.iter().any(Option::is_some)).count();
                proptest::prop_assert_eq!(sb.in_flight(), occupied);
                proptest::prop_assert_eq!(sb.has_free(), occupied < size);
                let live = list.iter().flatten().flatten();
                let dsts: Vec<u8> = live.clone().filter(|i| i.1.is_none()).map(|i| i.0).collect();
                proptest::prop_assert_eq!(sb.in_flight_dsts(), dsts);
                for reg in 0..10u8 {
                    for (preds, pred) in [(0u8, None), (0b10, Some(1))] {
                        let hit = live.clone().any(|i| {
                            let touches = (i.1.is_none() && i.0 == reg) || (pred.is_some() && i.1 == pred);
                            touches && (!exact || i.2.intersects(mask))
                        });
                        proptest::prop_assert_eq!(sb.depends_masks(1 << reg, preds, mask, 0), hit);
                    }
                }
            }
        }
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
                if stalls(&exact, &consumer, *m, slot) {
                    assert!(
                        stalls(&matrix, &consumer, *m, slot),
                        "matrix missed a dependency flagged by exact"
                    );
                }
            }
        }
    }
}
