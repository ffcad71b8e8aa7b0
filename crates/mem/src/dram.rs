//! Throughput-limited, constant-latency off-chip memory model.
//!
//! Follows the methodology of Gebhart et al. adopted by the paper (table 2):
//! a single SM sees 10 GB/s of bandwidth at 330 ns latency (= 330 cycles at
//! the 1 GHz core clock). The channel serialises 128-byte transfers at
//! `line_bytes / bytes_per_cycle` cycles each; a request's completion time is
//! its (possibly queued) start time plus the fixed latency.

/// DRAM bandwidth/latency parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Sustained bandwidth in bytes per core cycle (10 GB/s @ 1 GHz = 10),
    /// **per channel**.
    pub bytes_per_cycle: f64,
    /// Fixed access latency in cycles (330 ns @ 1 GHz = 330).
    pub latency: u64,
    /// Transfer granularity in bytes (one L1 block).
    pub transfer_bytes: u32,
    /// Independent address-interleaved channels in shared-DRAM mode; each
    /// contributes `bytes_per_cycle` of bandwidth. The private per-SM model
    /// ignores this (each SM already owns a full channel).
    pub num_channels: u32,
    /// Interleave granularity in bytes: a block at address `a` is served by
    /// channel `(a / interleave_bytes) % num_channels`. Must be a power of
    /// two no smaller than `transfer_bytes` so one transfer never straddles
    /// channels.
    pub interleave_bytes: u32,
}

impl DramConfig {
    /// The paper's memory system: 10 GB/s (1 SM), 330 ns (table 2), one
    /// channel interleaved at the transfer granularity.
    pub fn paper() -> Self {
        DramConfig {
            bytes_per_cycle: 10.0,
            latency: 330,
            transfer_bytes: 128,
            num_channels: 1,
            interleave_bytes: 128,
        }
    }

    /// The channel a block-aligned address maps to.
    pub fn channel_of(&self, addr: u32) -> u32 {
        let n = self.num_channels.max(1);
        (addr / self.interleave_bytes.max(1)) % n
    }

    /// Checks that a channel can move data and that the multi-channel knobs
    /// are coherent.
    ///
    /// # Errors
    /// A description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        // A transfer holds the channel transfer_bytes / bytes_per_cycle.
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
        if !self.interleave_bytes.is_power_of_two() {
            return Err(format!(
                "dram interleave_bytes {} must be a power of two",
                self.interleave_bytes
            ));
        }
        if self.interleave_bytes < self.transfer_bytes {
            return Err(format!(
                "dram interleave_bytes {} is below the {} B transfer \
                 granularity: one transfer would straddle channels",
                self.interleave_bytes, self.transfer_bytes
            ));
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
    pub fn total_bytes(&self, transfer_bytes: u32) -> u64 {
        (self.read_transfers + self.write_transfers) * transfer_bytes as u64
    }
}

/// The DRAM channel: tracks when the shared channel frees up and stamps each
/// request with its completion cycle.
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
        self.channel_free = start + self.cfg.transfer_bytes as f64 / self.cfg.bytes_per_cycle;
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
        assert_eq!(d.stats().total_bytes(128), 256);
    }
}
