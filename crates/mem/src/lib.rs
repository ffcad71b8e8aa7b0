//! # warpweave-mem
//!
//! The memory hierarchy for the warpweave SIMT simulator: a sparse flat
//! [`Memory`] backing store, the 128-byte [`coalesce()`]r with atomic replay
//! scheduling, a set-associative tag-only L1 [`Cache`], a
//! throughput/latency-limited [`Dram`] reference channel, and the
//! event-driven shared-bandwidth subsystem — a deterministic
//! [`MemEventQueue`] (with the O(1) [`CalendarQueue`] an SM's writebacks
//! use built over it) and the [`SharedDramChannel`] that arbitrates one
//! bandwidth pool across all SMs of a machine per epoch.
//!
//! Parameters default to the paper's table 2: 48 K 6-way 128 B L1 at 3
//! cycles; 10 GB/s, 330 ns memory for one SM.
//!
//! One off-chip model runs simulations, a second is its reference:
//!
//! * [`SharedDramChannel`] — what every SM uses: its own private channel
//!   granted inline, or, on a shared-channel machine, the pool SMs enqueue
//!   [`MemRequest`]s into and receive [`MemGrant`]s from by a deterministic
//!   per-epoch arbitration ordered by `(issue_cycle, rotating SM priority,
//!   sequence number)`; see [`channel`] for the contract.
//! * [`Dram`] — the original inline model (completion time computed at the
//!   moment of the request). No simulator path constructs it any more; it
//!   stays as the arithmetic a one-SM channel schedule is held to
//!   (`tests/channel_properties.rs`).
//!
//! # Examples
//! ```
//! use warpweave_mem::{Cache, CacheConfig, Dram, DramConfig, Memory, coalesce};
//!
//! let mut mem = Memory::new();
//! mem.write_u32(0x40, 7);
//!
//! let mut l1 = Cache::new(CacheConfig::paper_l1());
//! let mut dram = Dram::new(DramConfig::paper());
//!
//! // A warp reads 4 consecutive words: one coalesced transaction.
//! let txs = coalesce(&[(0, 0x40), (1, 0x44), (2, 0x48), (3, 0x4c)]);
//! assert_eq!(txs.len(), 1);
//! let done_at = match l1.access_load(txs[0].block_addr) {
//!     warpweave_mem::AccessKind::Hit => 3,
//!     warpweave_mem::AccessKind::Miss => dram.read(0),
//! };
//! assert_eq!(done_at, 330); // cold miss
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod channel;
pub mod coalesce;
pub mod counters;
pub mod dram;
pub mod event;
pub mod l2;
pub mod mshr;
pub mod space;

pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use channel::{sort_epoch_order, ChannelStats, MemGrant, MemRequest, SharedDramChannel};
pub use coalesce::{
    atomic_transactions, atomic_transactions_into, atomic_transactions_rows, coalesce,
    coalesce_into, coalesce_rows, AccessShape, LaneRow, Transaction, TxScratch, BLOCK_BYTES,
};
pub use dram::{Dram, DramConfig, DramStats};
pub use event::{CalendarQueue, MemEvent, MemEventQueue};
pub use l2::SharedL2;
pub use mshr::{MshrFile, MshrLookup};
pub use space::{Memory, SharedMem};
