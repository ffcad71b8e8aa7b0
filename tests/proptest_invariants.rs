//! Property-based tests (proptest) over the core data structures:
//! mask algebra, lane-shuffle bijectivity, dependency-matrix algebra,
//! frontier-heap invariants and coalescing conservation.

use proptest::prelude::*;

use warpweave::core::{DepMatrix, FrontierHeap, LaneShuffle, Mask, Transition};
use warpweave::isa::Pc;
use warpweave::mem::{atomic_transactions, coalesce};

proptest! {
    /// Mask set algebra: de Morgan / partition properties.
    #[test]
    fn mask_algebra(a in any::<u64>(), b in any::<u64>()) {
        let (ma, mb) = (Mask::from_bits(a), Mask::from_bits(b));
        prop_assert_eq!((ma | mb).bits(), a | b);
        prop_assert_eq!((ma & mb).bits(), a & b);
        prop_assert_eq!((ma - mb) | (ma & mb), ma);
        prop_assert!((ma - mb).is_disjoint(mb));
        prop_assert_eq!(ma.count() + mb.count(),
            (ma | mb).count() + (ma & mb).count());
        let collected: Mask = ma.iter().collect();
        prop_assert_eq!(collected, ma);
    }

    /// Every lane-shuffle policy is a bijection for every warp.
    #[test]
    fn lane_shuffles_bijective(wid in 0usize..64, width_log in 2u32..7) {
        let width = 1usize << width_log;
        for policy in LaneShuffle::ALL {
            let mut seen = vec![false; width];
            for tid in 0..width {
                let lane = policy.lane(tid, wid, width, 64);
                prop_assert!(lane < width);
                prop_assert!(!seen[lane]);
                seen[lane] = true;
            }
            // Mask translation preserves population for arbitrary masks.
            let m = Mask::from_bits(0x5a5a_a5a5_dead_beef) & Mask::full(width);
            prop_assert_eq!(policy.mask_to_lanes(m, wid, width, 64).count(), m.count());
        }
    }

    /// Boolean matrix composition is associative; identity is neutral.
    #[test]
    fn dep_matrix_algebra(bits_a in 0u16..512, bits_b in 0u16..512, bits_c in 0u16..512) {
        let mk = |bits: u16| {
            let mut m = DepMatrix::identity();
            for i in 0..3 {
                for j in 0..3 {
                    m.set(i, j, (bits >> (i * 3 + j)) & 1 == 1);
                }
            }
            m
        };
        let (a, b, c) = (mk(bits_a), mk(bits_b), mk(bits_c));
        prop_assert_eq!(a.compose(b).compose(c), a.compose(b.compose(c)));
        prop_assert_eq!(a.compose(DepMatrix::identity()), a);
        prop_assert_eq!(DepMatrix::identity().compose(a), a);
        // Composition is monotone: it never turns the all-ones matrix off
        // the diagonal reachability of its operands.
        prop_assert_eq!(DepMatrix::ones().compose(DepMatrix::ones()), DepMatrix::ones());
    }

    /// Frontier-heap invariants: splits always partition the alive threads,
    /// the HCT stays PC-sorted, and sorted-mode CCT inserts keep order.
    #[test]
    fn frontier_heap_partition(splits in proptest::collection::vec((0u32..64, 1u64..u64::MAX), 1..12)) {
        let full = Mask::full(64);
        let mut heap = FrontierHeap::new(full);
        for (pc, sel) in splits {
            let Some(cur) = heap.primary() else { break };
            let taken = Mask::from_bits(sel) & cur.mask;
            let t = Transition::from_branch(cur.mask, taken, Pc(pc), Pc(pc / 2 + 1));
            heap.apply_pair(Some(t), None, true);
            prop_assert_eq!(heap.alive_mask(), full, "splits must partition");
            if let (Some(a), Some(b)) = (heap.primary(), heap.secondary()) {
                prop_assert!(a.pc < b.pc, "HCT must stay sorted");
                prop_assert!(a.mask.is_disjoint(b.mask));
            }
        }
    }

    /// Coalescing conserves lanes and never exceeds one block per lane;
    /// atomics never produce fewer transactions than plain coalescing.
    #[test]
    fn coalesce_conservation(addrs in proptest::collection::vec(0u32..1u32 << 20, 1..64)) {
        let accesses: Vec<(usize, u32)> =
            addrs.iter().enumerate().map(|(l, &a)| (l, a & !3)).collect();
        let txs = coalesce(&accesses);
        let total: u32 = txs.iter().map(|t| t.lanes.count_ones()).sum();
        prop_assert_eq!(total as usize, accesses.len());
        prop_assert!(txs.len() <= accesses.len());
        for t in &txs {
            prop_assert_eq!(t.block_addr % 128, 0);
            for l in Mask::from_bits(t.lanes).iter() {
                prop_assert_eq!(accesses[l].1 & !127, t.block_addr);
            }
        }
        let atomic = atomic_transactions(&accesses);
        prop_assert!(atomic.len() >= txs.len());
    }
}
