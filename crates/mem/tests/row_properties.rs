//! The row coalescer against its definitions, over the access patterns a
//! warp produces: the block list is first appearance over ascending lanes,
//! the atomic schedule is round-by-round replay, each shape shortcut equals
//! the walk that assumes nothing, and the `(lane, address)` list functions
//! are the same code behind a scatter.

use proptest::prelude::*;

use warpweave_mem::{
    atomic_transactions, atomic_transactions_rows, coalesce, coalesce_rows, AccessShape, LaneRow,
    Transaction, TxScratch, BLOCK_BYTES,
};

/// An address row by pattern number. Every lane gets an address; which
/// lanes access is the lane set's business, and a walk must not read the
/// others as accesses.
fn pattern(kind: u8, base: u32, scatter: &[u32]) -> LaneRow {
    let word = |l: usize| -> u32 {
        let l = l as u32;
        match kind {
            0 => base,                                  // one word
            1 => base + l,                              // dense run
            2 => base + (l / 16) * 40 + l % 16,         // two 16-lane runs per wave: a 2-D tile
            3 => base + 2 * l,                          // stride 2
            4 => base + 33 * l,                         // stride 33
            5 => scatter[l as usize],                   // fully scattered
            6 => 1024 * (base % 7 + 1) - 9 + l,         // a run straddling a 4 KiB page
            7 => (0x4000_0000 - 64) + l,                // lane 63 ends at 0xFFFF_FFFC
            8 => (0x4000_0000 - 40u32).wrapping_add(l), // a run that wraps past it
            _ => base + scatter[l as usize] % 3,        // few words, many lanes each
        }
    };
    let mut addr = [0xdead_beef; 64];
    for (l, a) in addr.iter_mut().enumerate() {
        *a = word(l).wrapping_mul(4);
    }
    addr
}

/// A lane set by number, inside a warp of `width`.
fn lane_set(kind: u8, bits: u64, width: usize) -> u64 {
    let full = u64::MAX >> (64 - width);
    full & match kind {
        0 => u64::MAX,                  // everyone
        1 => 0,                         // nobody
        2 => (bits | 1) << (bits % 48), // arbitrary, from some lane up
        3 => u64::MAX << (bits % 64),   // a contiguous tail
        4 => (1 << (bits % 64)) | 1,    // two lanes
        _ => bits,
    }
}

fn blocks_by_definition(lanes: u64, addr: &LaneRow) -> Vec<Transaction> {
    let mut txs: Vec<Transaction> = Vec::new();
    for l in (0..64).filter(|l| lanes >> l & 1 == 1) {
        let block = addr[l] / BLOCK_BYTES * BLOCK_BYTES;
        match txs.iter_mut().find(|tx| tx.block_addr == block) {
            Some(tx) => tx.lanes |= 1 << l,
            None => txs.push(Transaction {
                block_addr: block,
                lanes: 1 << l,
            }),
        }
    }
    txs
}

/// Round-by-round replay: each round serves, in lane order, every pending
/// lane whose address no earlier lane of the round took, and coalesces the
/// served lanes on their own.
fn atomic_rounds_by_definition(lanes: u64, addr: &LaneRow) -> Vec<Transaction> {
    let mut pending: Vec<usize> = (0..64).filter(|l| lanes >> l & 1 == 1).collect();
    let mut txs = Vec::new();
    while !pending.is_empty() {
        let mut served: Vec<usize> = Vec::new();
        let mut deferred = Vec::new();
        for &l in &pending {
            if served.iter().any(|&s| addr[s] == addr[l]) {
                deferred.push(l);
            } else {
                served.push(l);
            }
        }
        let round = served.iter().fold(0u64, |m, &l| m | 1 << l);
        txs.extend(blocks_by_definition(round, addr));
        pending = deferred;
    }
    txs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rows_match_their_definitions(
        kind in 0u8..10,
        set in 0u8..6,
        bits in any::<u64>(),
        base in 0u32..5000,
        unalign in 0u32..4,
        scatter in proptest::collection::vec(0u32..1 << 14, 64..65),
        width in 0usize..3,
    ) {
        let lanes = lane_set(set, bits, [4, 32, 64][width]);
        let mut addr = pattern(kind, base, &scatter);
        // The coalescer takes any byte address (the list functions are
        // public); the pipeline's rows are the `unalign == 0` cases.
        for a in addr.iter_mut() {
            *a = a.wrapping_add(unalign);
        }
        let shape = AccessShape::of(lanes, &addr);
        let mut out = TxScratch::new();

        coalesce_rows(lanes, &addr, AccessShape::Other, &mut out);
        let expect = blocks_by_definition(lanes, &addr);
        prop_assert_eq!(out.txs(), expect.as_slice(), "walk, kind {} set {}", kind, set);
        coalesce_rows(lanes, &addr, shape, &mut out);
        prop_assert_eq!(out.txs(), expect.as_slice(), "{:?}, kind {} set {}", shape, kind, set);

        atomic_transactions_rows(lanes, &addr, &mut out);
        let expect_atomic = atomic_rounds_by_definition(lanes, &addr);
        prop_assert_eq!(out.txs(), expect_atomic.as_slice(), "atomics, kind {} set {}", kind, set);

        // The list functions: the rows, listed.
        let list: Vec<(usize, u32)> =
            (0..64).filter(|l| lanes >> l & 1 == 1).map(|l| (l, addr[l])).collect();
        prop_assert_eq!(coalesce(&list), expect);
        prop_assert_eq!(atomic_transactions(&list), expect_atomic);

        // The generator reaches what it says it does.
        if lanes.count_ones() > 1 && lanes == lane_set(3, bits, 64) {
            match kind {
                0 => prop_assert_eq!(shape, AccessShape::OneWord),
                1 | 6 | 7 => prop_assert_eq!(shape, AccessShape::DenseRun),
                _ => {}
            }
        }
        if kind == 8 && lanes >> 39 & 3 == 3 {
            prop_assert_eq!(shape, AccessShape::Other, "a wrapping run is not dense");
        }
    }
}
