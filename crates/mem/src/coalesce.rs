//! Memory-access coalescing into 128-byte blocks.
//!
//! The LSU "can coalesce together multiple parallel accesses that fall within
//! the same 128-byte cache block. Memory instructions that encounter
//! conflicts are replayed with an updated activity mask reflecting the
//! transactions that remain to be issued" (paper §2).
//!
//! A warp's accesses arrive as **lane rows**: a `u64` set of the lanes that
//! access at all and a [`LaneRow`] holding one address per lane (entries of
//! lanes outside the set are meaningless). Every walk visits the set from
//! bit 0 upwards, which is the ascending-thread order the replay order
//! ("first appearance") and the atomic rounds are defined over.
//! [`AccessShape::of`] classifies the row once; the two regular shapes —
//! everyone on one word, or a contiguous run of lanes on consecutive words —
//! are most of what a kernel issues, and [`coalesce_rows`] answers them from
//! the first and last address alone. The `(lane, address)` list functions
//! ([`coalesce_into`], [`atomic_transactions_into`] and their allocating
//! forms) scatter the list into rows and run the same code.

/// Size of a coalescing window / cache block in bytes.
pub const BLOCK_BYTES: u32 = 128;

/// One 32-bit value (address or store datum) per lane of the widest warp.
pub type LaneRow = [u32; 64];

/// One memory transaction: a 128-byte-aligned block plus the set of lanes it
/// serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Block-aligned base address.
    pub block_addr: u32,
    /// The lanes this block serves: bit `l` set ⇔ lane `l`'s access falls
    /// in the block (and, for atomics, is served in this replay round).
    pub lanes: u64,
}

/// The regularity of one warp access, decided by one pass over its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessShape {
    /// Every accessing lane addresses the same word.
    OneWord,
    /// The accessing lanes are a contiguous run `lo..=hi` (no hole in the
    /// set) and lane `lo + i` addresses `addr[lo] + 4 i`, without wrapping
    /// past the end of the address space.
    DenseRun,
    /// Anything else, the empty set included. Always a valid answer: the
    /// walks that take a shape treat `Other` as "assume nothing".
    Other,
}

/// The lowest and highest lane of a non-empty set.
#[inline]
fn lane_span(lanes: u64) -> (usize, usize) {
    debug_assert_ne!(lanes, 0);
    (
        lanes.trailing_zeros() as usize,
        63 - lanes.leading_zeros() as usize,
    )
}

/// The set bits of `lanes`, ascending.
#[inline]
fn lanes_of(mut lanes: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (lanes != 0).then(|| {
            let l = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            l
        })
    })
}

impl AccessShape {
    /// Classifies the access of `lanes` at `addr`. The first and last
    /// address reject almost every irregular row in O(1); a candidate is
    /// confirmed by one branch-free compare over `lo..=hi`.
    pub fn of(lanes: u64, addr: &LaneRow) -> AccessShape {
        if lanes == 0 {
            return AccessShape::Other;
        }
        let (lo, hi) = lane_span(lanes);
        let a0 = addr[lo];
        let span = addr[hi].wrapping_sub(a0);
        let row = &addr[lo..=hi];
        if span == 0 {
            let mut same = true;
            for (i, &a) in row.iter().enumerate() {
                same &= a == a0 || (lanes >> (lo + i)) & 1 == 0;
            }
            if same {
                return AccessShape::OneWord;
            }
        } else if span == 4 * (hi - lo) as u32 && a0.checked_add(span).is_some() {
            // No hole: the set shifted down to bit 0 is 2^n - 1.
            let run = lanes >> lo;
            let mut dense = run & run.wrapping_add(1) == 0;
            for (i, &a) in row.iter().enumerate() {
                dense &= a == a0.wrapping_add(4 * i as u32);
            }
            if dense {
                return AccessShape::DenseRun;
            }
        }
        AccessShape::Other
    }
}

/// A reusable transaction list for the coalescer: the pipeline holds one
/// per SM so that no memory instruction allocates once it has grown to the
/// longest list seen (at most one transaction per lane and replay round).
#[derive(Debug, Default)]
pub struct TxScratch {
    txs: Vec<Transaction>,
}

impl TxScratch {
    /// An empty list (capacity is grown on first use).
    pub fn new() -> TxScratch {
        TxScratch::default()
    }

    /// The transactions of the most recent call that filled this list.
    pub fn txs(&self) -> &[Transaction] {
        &self.txs
    }

    /// Number of transactions produced by the most recent call.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True when the most recent call produced no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Adds `lane` to the transaction for `block` among those at index
    /// `round_start..` (atomic replay rounds must not coalesce across
    /// rounds), appending one on first appearance. `cur` carries the index
    /// the previous lane landed in — neighbouring lanes mostly share a
    /// block, so the search over the list runs once per block change.
    #[inline]
    fn add_lane(&mut self, round_start: usize, cur: &mut usize, block: u32, lane: usize) {
        if self.txs.get(*cur).map(|tx| tx.block_addr) != Some(block) {
            let found = self.txs[round_start..]
                .iter()
                .position(|tx| tx.block_addr == block);
            *cur = match found {
                Some(i) => round_start + i,
                None => {
                    self.txs.push(Transaction {
                        block_addr: block,
                        lanes: 0,
                    });
                    self.txs.len() - 1
                }
            };
        }
        self.txs[*cur].lanes |= 1 << lane;
    }
}

/// `lo..end` as a lane set (`lo < end ≤ 64`).
#[inline]
fn lane_range(lo: usize, end: usize) -> u64 {
    (u64::MAX >> (64 - (end - lo))) << lo
}

/// Groups the word accesses of `lanes` at `addr` into 128-byte block
/// transactions, in order of first appearance over ascending lanes (the
/// replay order the hardware would follow). `shape` is what
/// [`AccessShape::of`] said about the same rows (or `Other`); the regular
/// shapes never look at the lanes in between: their blocks are
/// `addr[lo] >> 7 ..= addr[hi] >> 7`.
pub fn coalesce_rows(lanes: u64, addr: &LaneRow, shape: AccessShape, out: &mut TxScratch) {
    debug_assert!(shape == AccessShape::Other || shape == AccessShape::of(lanes, addr));
    out.txs.clear();
    match shape {
        AccessShape::OneWord => out.txs.push(Transaction {
            block_addr: addr[lanes.trailing_zeros() as usize] & !(BLOCK_BYTES - 1),
            lanes,
        }),
        AccessShape::DenseRun => {
            let (mut lane, hi) = lane_span(lanes);
            while lane <= hi {
                let a = addr[lane];
                let words_left = ((BLOCK_BYTES - (a & (BLOCK_BYTES - 1))).div_ceil(4)) as usize;
                let end = (lane + words_left).min(hi + 1);
                out.txs.push(Transaction {
                    block_addr: a & !(BLOCK_BYTES - 1),
                    lanes: lane_range(lane, end),
                });
                lane = end;
            }
        }
        AccessShape::Other => {
            let mut cur = usize::MAX;
            for lane in lanes_of(lanes) {
                out.add_lane(0, &mut cur, addr[lane] & !(BLOCK_BYTES - 1), lane);
            }
        }
    }
}

/// Schedules the atomic accesses of `lanes` at `addr` into replay rounds:
/// within one round each distinct address is served at most once (a lane
/// that finds its address taken is deferred to the next round, as hardware
/// replays it), and each round's survivors are block-coalesced like
/// ordinary accesses. `out` holds the rounds' transactions back to back;
/// its length is the LSU occupancy in cycles.
///
/// A lane's round is its occurrence index among the lanes at its address,
/// in lane order: one sort of the `(address, lane)` keys numbers every run
/// of equal addresses, so the schedule costs a sort, not a search of the
/// served addresses per lane.
pub fn atomic_transactions_rows(lanes: u64, addr: &LaneRow, out: &mut TxScratch) {
    out.txs.clear();
    let mut keys = [0u64; 64];
    let mut n = 0;
    for lane in lanes_of(lanes) {
        keys[n] = u64::from(addr[lane]) << 6 | lane as u64;
        n += 1;
    }
    keys[..n].sort_unstable();
    // `rounds[r]`: the lanes served in replay round `r`.
    let (mut rounds, mut used, mut round) = ([0u64; 64], 0, 0);
    for (i, &key) in keys[..n].iter().enumerate() {
        round = if i > 0 && keys[i - 1] >> 6 == key >> 6 {
            round + 1
        } else {
            0
        };
        rounds[round] |= 1 << (key & 63);
        used = used.max(round + 1);
    }
    for &served in &rounds[..used] {
        let (round_start, mut cur) = (out.txs.len(), usize::MAX);
        for lane in lanes_of(served) {
            out.add_lane(round_start, &mut cur, addr[lane] & !(BLOCK_BYTES - 1), lane);
        }
    }
}

/// [`atomic_transactions_rows`] as the hardware replays it: round by
/// round, each lane deferred whose address an earlier lane of the round
/// took. The reference the sorted schedule is held to.
#[cfg(test)]
fn atomic_transactions_by_replay(lanes: u64, addr: &LaneRow, out: &mut TxScratch) {
    out.txs.clear();
    let mut served = [0u32; 64];
    let mut pending = lanes;
    while pending != 0 {
        let round_start = out.txs.len();
        let (mut n, mut deferred, mut cur) = (0, 0u64, usize::MAX);
        for lane in lanes_of(pending) {
            let a = addr[lane];
            if served[..n].contains(&a) {
                deferred |= 1 << lane;
            } else {
                served[n] = a;
                n += 1;
                out.add_lane(round_start, &mut cur, a & !(BLOCK_BYTES - 1), lane);
            }
        }
        pending = deferred;
    }
}

/// Scatters a `(lane, byte address)` list into rows.
///
/// # Panics
/// The list must be in ascending lane order with at most one entry per
/// lane (what a warp issues); a lane of 64 or more panics, and debug builds
/// panic on a lane out of order.
fn scatter(accesses: &[(usize, u32)]) -> (u64, LaneRow) {
    let mut lanes = 0u64;
    let mut addr = [0u32; 64];
    for &(lane, a) in accesses {
        addr[lane] = a;
        debug_assert_eq!(lanes >> lane, 0, "access list not in ascending lane order");
        lanes |= 1 << lane;
    }
    (lanes, addr)
}

/// Groups per-lane word accesses into 128-byte block transactions, in order
/// of first appearance (the replay order the hardware would follow), into
/// a reusable [`TxScratch`] — no per-call allocation once the list has
/// warmed up.
///
/// Each input entry is `(lane, byte address)` in ascending lane order, at
/// most one per lane; inactive lanes are simply not passed in. The
/// pipeline calls [`coalesce_rows`] on its lane rows instead.
///
/// # Examples
/// ```
/// use warpweave_mem::{coalesce_into, TxScratch};
/// // Four lanes touching two blocks -> two transactions.
/// let mut txs = TxScratch::new();
/// coalesce_into(&[(0, 0), (1, 4), (2, 128), (3, 132)], &mut txs);
/// assert_eq!(txs.len(), 2);
/// assert_eq!(txs.txs()[0].block_addr, 0);
/// assert_eq!(txs.txs()[1].block_addr, 128);
/// assert_eq!(txs.txs()[1].lanes, 0b1100);
/// ```
pub fn coalesce_into(accesses: &[(usize, u32)], out: &mut TxScratch) {
    let (lanes, addr) = scatter(accesses);
    coalesce_rows(lanes, &addr, AccessShape::of(lanes, &addr), out);
}

/// The atomic replay schedule of a `(lane, byte address)` list (see
/// [`atomic_transactions_rows`]; same list contract as [`coalesce_into`])
/// into a reusable [`TxScratch`].
pub fn atomic_transactions_into(accesses: &[(usize, u32)], out: &mut TxScratch) {
    let (lanes, addr) = scatter(accesses);
    atomic_transactions_rows(lanes, &addr, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `accesses` through `f` into a fresh list.
    fn fresh(
        f: fn(&[(usize, u32)], &mut TxScratch),
        accesses: &[(usize, u32)],
    ) -> Vec<Transaction> {
        let mut scratch = TxScratch::new();
        f(accesses, &mut scratch);
        scratch.txs
    }

    fn coalesced(accesses: &[(usize, u32)]) -> Vec<Transaction> {
        fresh(coalesce_into, accesses)
    }

    fn atomic(accesses: &[(usize, u32)]) -> Vec<Transaction> {
        fresh(atomic_transactions_into, accesses)
    }

    #[test]
    fn fully_coalesced_single_block() {
        let acc: Vec<(usize, u32)> = (0..32).map(|i| (i, i as u32 * 4)).collect();
        let txs = coalesced(&acc);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].lanes, 0xffff_ffff);
    }

    #[test]
    fn fully_divergent_strided() {
        // Stride of 128: every lane its own block.
        let acc: Vec<(usize, u32)> = (0..32).map(|i| (i, i as u32 * 128)).collect();
        let txs = coalesced(&acc);
        assert_eq!(txs.len(), 32);
    }

    #[test]
    fn replay_order_is_first_appearance() {
        let txs = coalesced(&[(0, 256), (1, 0), (2, 300)]);
        assert_eq!(txs[0].block_addr, 256);
        assert_eq!(txs[1].block_addr, 0);
        assert_eq!(txs[0].lanes, 0b101);
    }

    #[test]
    fn empty_request() {
        assert!(coalesced(&[]).is_empty());
        assert!(atomic(&[]).is_empty());
    }

    #[test]
    fn shapes() {
        let mut addr = [0u32; 64];
        assert_eq!(AccessShape::of(0, &addr), AccessShape::Other);
        assert_eq!(AccessShape::of(u64::MAX, &addr), AccessShape::OneWord);
        assert_eq!(AccessShape::of(1 << 63, &addr), AccessShape::OneWord);
        for (l, a) in addr.iter_mut().enumerate() {
            *a = 0x1000 + 4 * l as u32;
        }
        assert_eq!(AccessShape::of(u64::MAX, &addr), AccessShape::DenseRun);
        assert_eq!(AccessShape::of(0x0ff0, &addr), AccessShape::DenseRun);
        // A hole in the lane set is not a run, whatever the addresses say.
        assert_eq!(AccessShape::of(0x0f70, &addr), AccessShape::Other);
        // Nor is one word that a lane in the middle leaves.
        let mut one = [8u32; 64];
        one[5] = 12;
        assert_eq!(AccessShape::of(0xff, &one), AccessShape::Other);
        assert_eq!(AccessShape::of(0xdf, &one), AccessShape::OneWord);
        // A run that would wrap past the end of the address space.
        for (l, a) in addr.iter_mut().enumerate() {
            *a = 0xffff_fff8u32.wrapping_add(4 * l as u32);
        }
        assert_eq!(AccessShape::of(0b11, &addr), AccessShape::DenseRun);
        assert_eq!(AccessShape::of(0b111, &addr), AccessShape::Other);
    }

    #[test]
    fn dense_run_splits_at_block_boundaries() {
        // Lanes 3..=62 on consecutive words from 100: blocks 0, 128, 256.
        let mut addr = [0u32; 64];
        for (i, a) in addr[3..63].iter_mut().enumerate() {
            *a = 100 + 4 * i as u32;
        }
        let lanes = lane_range(3, 63);
        let mut fast = TxScratch::new();
        coalesce_rows(lanes, &addr, AccessShape::of(lanes, &addr), &mut fast);
        let mut walk = TxScratch::new();
        coalesce_rows(lanes, &addr, AccessShape::Other, &mut walk);
        assert_eq!(fast.txs(), walk.txs());
        assert_eq!(fast.len(), 3);
        assert_eq!(fast.txs()[0].lanes, lane_range(3, 10));
    }

    proptest::proptest! {
        /// Random lane sets over addresses drawn from a pool of `pool`
        /// words (a small pool makes equal addresses, hence rounds, common;
        /// the high bits reach other blocks): the sorted schedule emits the
        /// replay's transactions in the replay's order.
        #[test]
        fn atomic_rounds_are_the_replay(
            lanes in proptest::prelude::any::<u64>(),
            pool in 1u32..80,
            picks in proptest::collection::vec(proptest::prelude::any::<u32>(), 64..65),
        ) {
            let mut addr = [0u32; 64];
            for (a, pick) in addr.iter_mut().zip(picks) {
                *a = (pick % pool) * 4 + (pick >> 24) * BLOCK_BYTES;
            }
            let (mut sorted, mut replay) = (TxScratch::new(), TxScratch::new());
            for lanes in [lanes, lanes & 0xffff_ffff, lanes >> 60, u64::MAX] {
                atomic_transactions_rows(lanes, &addr, &mut sorted);
                atomic_transactions_by_replay(lanes, &addr, &mut replay);
                proptest::prop_assert_eq!(sorted.txs(), replay.txs());
            }
        }
    }

    #[test]
    fn atomic_conflict_free_matches_coalesce() {
        let acc: Vec<(usize, u32)> = (0..8).map(|i| (i, i as u32 * 4)).collect();
        assert_eq!(atomic(&acc), coalesced(&acc));
    }

    #[test]
    fn atomic_full_conflict_serialises() {
        // 8 lanes hammering one counter: 8 rounds of 1 transaction, lowest
        // lane first.
        let acc: Vec<(usize, u32)> = (0..8).map(|i| (i, 64)).collect();
        let txs = atomic(&acc);
        assert_eq!(txs.len(), 8);
        assert!(txs.iter().enumerate().all(|(i, tx)| tx.lanes == 1 << i));
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_allocation() {
        // One list driven through mixed patterns must reproduce a fresh
        // list exactly, including the no-cross-round-merge rule for
        // atomics.
        let patterns: Vec<Vec<(usize, u32)>> = vec![
            (0..32).map(|i| (i, i as u32 * 4)).collect(),
            (0..32).map(|i| (i, i as u32 * 128)).collect(),
            vec![(0, 256), (1, 0), (2, 300)],
            vec![],
            (0..8).map(|i| (i, 64)).collect(),
            vec![(0, 8), (1, 8), (2, 12), (3, 12)],
        ];
        let mut scratch = TxScratch::new();
        for acc in &patterns {
            coalesce_into(acc, &mut scratch);
            assert_eq!(scratch.txs(), coalesced(acc).as_slice());
            atomic_transactions_into(acc, &mut scratch);
            assert_eq!(scratch.txs(), atomic(acc).as_slice());
            assert_eq!(scratch.len(), scratch.txs().len());
        }
    }

    #[test]
    fn atomic_rounds_do_not_merge_blocks_across_rounds() {
        // 2 lanes on one word: 2 rounds, and although both rounds touch
        // block 0 they must stay separate transactions.
        let mut scratch = TxScratch::new();
        atomic_transactions_into(&[(0, 64), (1, 64)], &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch.txs()[0].block_addr, 0);
        assert_eq!(scratch.txs()[1].block_addr, 0);
    }

    #[test]
    fn atomic_mixed_conflicts() {
        // Two addresses × two lanes each, same block: 2 rounds × 1 tx.
        let txs = atomic(&[(0, 8), (1, 8), (2, 12), (3, 12)]);
        assert_eq!(txs.len(), 2);
        // Two addresses in different blocks, 2 lanes each: 2 rounds × 2 tx.
        let txs = atomic(&[(0, 0), (1, 0), (2, 256), (3, 256)]);
        assert_eq!(txs.len(), 4);
    }
}
