//! Simulation statistics: the [`Stats`] counter table
//! ([`warpweave_mem::counter_table!`] generates the struct, its
//! `to_fields` / `from_fields` codec and its `accumulate` /
//! `merge_parallel` folds from the rows) and the metrics derived from it.

use warpweave_mem::{CacheStats, DramConfig, DramStats};

use crate::divergence::frontier::HeapStats;

warpweave_mem::counter_table! {
    /// Counters collected over one kernel execution on one SM — the counter
    /// reference: each row below is one column of a checkpoint `s:` section
    /// and of a `BENCH_golden.json` `counters` object, in this order.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Stats {
        /// Cycles simulated (the makespan once SMs are merged in parallel,
        /// so [`Stats::ipc`] reads as whole-machine throughput per cycle).
        cycles: u64 = makespan,
        /// Thread-instructions committed (Σ active-mask population per issued
        /// instruction) — the numerator of the paper's IPC metric.
        thread_instructions: u64 = sum,
        /// Warp-level instructions issued.
        warp_instructions: u64 = sum,
        /// Primary-slot issues.
        primary_issues: u64 = sum,
        /// Secondary-slot issues (SBI/SWI co-issues).
        secondary_issues: u64 = sum,
        /// Secondary issues that shared the primary's SIMD group (disjoint
        /// lanes, single pass).
        same_group_coissues: u64 = sum,
        /// Secondary issues dispatched to a different free SIMD group.
        other_group_coissues: u64 = sum,
        /// Instruction-buffer entries squashed because the warp-split state
        /// changed under them (redundant fetch cost of desynchronisation).
        fetch_squashes: u64 = sum,
        /// Primary picks squashed because the cascaded secondary scheduler had
        /// already issued the same instruction (paper §4, conflict avoidance).
        scheduler_conflicts: u64 = sum,
        /// Cycles a secondary warp-split spent suspended by a reconvergence
        /// constraint (§3.3), under any policy: `SmConfig::sbi_constraints`
        /// is the machine's, and the SM counts it.
        constraint_suspensions: u64 = sum,
        /// SWI mask-lookup probes performed.
        lookup_probes: u64 = sum,
        /// SWI lookups that found a co-issuable instruction.
        lookup_hits: u64 = sum,
        /// Memory transactions issued by the LSU (after coalescing).
        lsu_transactions: u64 = sum,
        /// Memory instructions that needed replay (more than one transaction).
        lsu_replays: u64 = sum,
        /// Cycles with zero instructions issued.
        idle_cycles: u64 = sum,
        /// Block barrier releases.
        barrier_releases: u64 = sum,
        /// Thread blocks completed.
        blocks_completed: u64 = sum,
        /// High-water PDOM stack depth across warps (baseline).
        max_stack_depth: usize = max,
        /// Aggregated frontier-heap statistics across warps.
        heap: HeapStats = nested,
        /// L1 statistics (copied at teardown).
        l1: CacheStats = nested,
        /// DRAM traffic issued by this SM (counted at enqueue).
        dram: DramStats = nested,
        /// Load transactions that queued behind the DRAM channel (grant start
        /// later than issue) — the per-SM face of bandwidth contention.
        dram_queued_loads: u64 = sum,
        /// Total cycles this SM's load transactions spent queued behind the
        /// channel.
        dram_queue_delay: u64 = sum,
        /// Worst single-load queue delay observed.
        dram_max_queue_delay: u64 = max,
        /// Same-line misses merged into an already in-flight MSHR transaction
        /// (each merge is a DRAM request the MSHR file absorbed).
        mshr_merges: u64 = sum,
        /// Misses that found the MSHR file full and fell through to their own
        /// DRAM request (0 when MSHRs are disabled).
        mshr_bypasses: u64 = sum,
        /// Always 0: the superblock trace engine left the issue path. The
        /// row (and the two below) stays only because the frozen
        /// `benchmark/` crate reads it; ROADMAP item 3 deletes all three.
        superblock_enters: u64 = sum,
        /// Always 0 (see `superblock_enters`).
        superblock_covered: u64 = sum,
        /// Always 0 (see `superblock_enters`).
        superblock_aborts: u64 = sum,
    }
}

impl Stats {
    /// Thread-instructions per cycle — the metric of fig. 7.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / self.cycles as f64
        }
    }

    /// Average active threads per issued warp instruction (SIMD efficiency).
    pub fn simd_efficiency(&self, warp_width: usize) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / (self.warp_instructions as f64 * warp_width as f64)
        }
    }

    /// Fraction of issue events that co-issued a secondary instruction.
    pub fn coissue_rate(&self) -> f64 {
        if self.primary_issues == 0 {
            0.0
        } else {
            self.secondary_issues as f64 / self.primary_issues as f64
        }
    }

    /// Fraction of the DRAM byte budget (`bytes_per_cycle × cycles`) this
    /// run actually moved — the bandwidth-saturation metric the benchmark
    /// output records. 1.0 means the channel never idled.
    pub fn dram_utilization(&self, dram: &DramConfig) -> f64 {
        if self.cycles == 0 || dram.bytes_per_cycle <= 0.0 {
            0.0
        } else {
            self.dram.total_bytes(dram.transfer_bytes) as f64
                / (dram.bytes_per_cycle * self.cycles as f64)
        }
    }

    /// Mean queue delay per DRAM load transaction, in cycles (0 when no
    /// load ever waited on the channel).
    pub fn avg_dram_queue_delay(&self) -> f64 {
        if self.dram.read_transfers == 0 {
            0.0
        } else {
            self.dram_queue_delay as f64 / self.dram.read_transfers as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_efficiency() {
        let s = Stats {
            cycles: 100,
            thread_instructions: 3200,
            warp_instructions: 200,
            ..Stats::default()
        };
        assert_eq!(s.ipc(), 32.0);
        assert_eq!(s.simd_efficiency(32), 0.5);
    }

    #[test]
    fn field_codec_round_trips() {
        // Give every field a distinct value so a swapped assignment shows.
        let fields: Vec<(&str, u64)> = Stats::FIELD_NAMES.into_iter().zip(1000..).collect();
        let s = Stats::from_fields(&fields).unwrap();
        assert_eq!((s.cycles, s.thread_instructions), (1000, 1001));
        assert_eq!(s.to_fields(), fields);
    }

    #[test]
    fn field_codec_rejects_drift() {
        let good = Stats::default().to_fields();
        // Truncated list.
        assert!(Stats::from_fields(&good[..good.len() - 1]).is_err());
        // Renamed field in place.
        let mut renamed = good.clone();
        renamed[0].0 = "cycels";
        assert!(Stats::from_fields(&renamed).is_err());
        // Reordered fields (same set, wrong slots).
        let mut swapped = good;
        swapped.swap(0, 1);
        assert!(Stats::from_fields(&swapped).is_err());
    }

    #[test]
    fn zero_cycle_safety() {
        let s = Stats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.simd_efficiency(32), 0.0);
        assert_eq!(s.coissue_rate(), 0.0);
    }
}
