//! Throughput-limited, constant-latency off-chip memory model: the
//! [`DramConfig`] every channel is built from, the [`DramStats`] it counts,
//! and [`Dram`], the inline arithmetic the simulated channels are checked
//! against.
//!
//! Follows the methodology of Gebhart et al. adopted by the paper (table 2):
//! a single SM sees 10 GB/s of bandwidth at 330 ns latency (= 330 cycles at
//! the 1 GHz core clock). The channel serialises one-line transfers
//! ([`BLOCK_BYTES`], 128 B) at `BLOCK_BYTES / bytes_per_cycle` cycles each;
//! a request's completion time is its (possibly queued) start time plus the
//! fixed latency.

use crate::coalesce::BLOCK_BYTES;

/// DRAM bandwidth/latency parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Sustained bandwidth in bytes per core cycle (10 GB/s @ 1 GHz = 10),
    /// **per channel**.
    pub bytes_per_cycle: f64,
    /// Fixed access latency in cycles (330 ns @ 1 GHz = 330).
    pub latency: u64,
    /// Independent address-interleaved channels in shared-DRAM mode; each
    /// contributes `bytes_per_cycle` of bandwidth. The private per-SM model
    /// ignores this (each SM already owns a full channel). Channels
    /// interleave at the line: see [`DramConfig::channel_of`].
    pub num_channels: u32,
}

impl DramConfig {
    /// The paper's memory system: 10 GB/s (1 SM), 330 ns (table 2), one
    /// channel.
    pub fn paper() -> Self {
        DramConfig {
            bytes_per_cycle: 10.0,
            latency: 330,
            num_channels: 1,
        }
    }

    /// The channel a block-aligned address maps to: consecutive lines go
    /// to consecutive channels, so one transfer never straddles two.
    pub fn channel_of(&self, addr: u32) -> u32 {
        (addr / BLOCK_BYTES) % self.num_channels.max(1)
    }

    /// Checks that a channel can move data and that there is one.
    ///
    /// # Errors
    /// A description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        // A transfer holds the channel BLOCK_BYTES / bytes_per_cycle.
        if !(self.bytes_per_cycle.is_finite() && self.bytes_per_cycle > 0.0) {
            return Err(format!(
                "dram bytes_per_cycle {} must be finite and positive",
                self.bytes_per_cycle
            ));
        }
        // The shared-channel epoch (≥ 1 cycle) must not exceed the latency.
        if self.latency == 0 {
            return Err("dram latency must be ≥ 1 cycle".into());
        }
        if self.num_channels == 0 {
            return Err("dram num_channels must be ≥ 1".into());
        }
        Ok(())
    }
}

crate::counter_table! {
    /// Traffic counters (serialised as `dram_*`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DramStats, prefix "dram_" {
        /// 128-byte read transfers (L1 fills).
        read_transfers: u64 = sum,
        /// 128-byte write transfers (write-through stores).
        write_transfers: u64 = sum,
    }
}

impl DramStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        (self.read_transfers + self.write_transfers) * u64::from(BLOCK_BYTES)
    }
}

/// The inline reference channel: tracks when the channel frees up and
/// stamps each request with its completion cycle at the moment it is made.
///
/// No simulator path constructs it: every SM's private channel is a
/// [`crate::SharedDramChannel`] granted at the end of the issue event. It
/// stays as the arithmetic a one-SM channel schedule is held to
/// (`channel.rs`'s `matches_private_dram_arithmetic`,
/// `tests/channel_properties.rs`).
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// Fractional cycle at which the channel next becomes free.
    channel_free: f64,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            channel_free: 0.0,
            stats: DramStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn schedule(&mut self, now: u64) -> u64 {
        let start = self.channel_free.max(now as f64);
        self.channel_free = start + f64::from(BLOCK_BYTES) / self.cfg.bytes_per_cycle;
        (start as u64) + self.cfg.latency
    }

    /// Issues a read (fill) at cycle `now`; returns the completion cycle.
    pub fn read(&mut self, now: u64) -> u64 {
        self.stats.read_transfers += 1;
        self.schedule(now)
    }

    /// Issues a write-through at cycle `now`; returns the completion cycle
    /// (stores don't block the pipeline but still consume bandwidth).
    pub fn write(&mut self, now: u64) -> u64 {
        self.stats.write_transfers += 1;
        self.schedule(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_request_sees_pure_latency() {
        let mut d = Dram::new(DramConfig::paper());
        assert_eq!(d.read(100), 430);
    }

    #[test]
    fn back_to_back_requests_serialise_at_bandwidth() {
        let mut d = Dram::new(DramConfig::paper());
        let t0 = d.read(0);
        let t1 = d.read(0);
        let t2 = d.read(0);
        // 128 B / 10 B/cy = 12.8 cycles of channel occupancy each.
        assert_eq!(t0, 330);
        assert_eq!(t1, 330 + 12);
        assert_eq!(t2, 330 + 25);
    }

    #[test]
    fn channel_drains_over_time() {
        let mut d = Dram::new(DramConfig::paper());
        d.read(0);
        // A request far in the future is unqueued again.
        assert_eq!(d.read(10_000), 10_330);
    }

    #[test]
    fn writes_count_traffic() {
        let mut d = Dram::new(DramConfig::paper());
        d.write(0);
        d.read(0);
        assert_eq!(d.stats().write_transfers, 1);
        assert_eq!(d.stats().read_transfers, 1);
        assert_eq!(d.stats().total_bytes(), 256);
    }
}
