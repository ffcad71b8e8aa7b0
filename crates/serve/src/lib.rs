//! # warpweave-serve
//!
//! The distributed sweep fabric's service half: a long-running sweep
//! server ([`server`]) speaking a line-delimited text protocol
//! ([`protocol`]) over plain `std::net` TCP, a content-addressed result
//! cache ([`cache`]) deduplicating identical cells across clients and
//! requests, the cell queue ([`queue`]) that funnels misses through the
//! same fault-isolated runner the checkpointed sweep uses, and a client
//! library ([`client`]) with end-to-end checksum verification.
//!
//! The other half of the fabric — sharded `--jobs-from` runs and
//! checkpoint merging — lives in `warpweave-bench` (`shard` module),
//! because shards are ordinary checkpointed sweeps. The wire format here
//! deliberately **is** the checkpoint line codec: a cell travels as the
//! exact checksummed bytes the checkpoint would persist, so results can
//! flow server → client → checkpoint file → merge without re-encoding.
//!
//! Everything is std-only threaded networking: the build environment is
//! fully offline, so there is no async runtime — one thread per
//! connection, a shared worker pool for simulation, mutex-and-condvar
//! coordination in the cache.

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{cell_digest, Acquired, CacheStats, CellCache, Claim};
pub use client::{
    render_response_json, request_run, request_shutdown, request_stats, RequestStats, SweepResponse,
};
pub use protocol::{
    parse_request, render_request, Request, RunRequest, MAX_REQUEST_LINE, PROTOCOL_ID,
};
pub use queue::{resolve, run_jobs, Outcome, ResolvedGrid};
pub use server::{ServeConfig, Server};
