//! The canonical sweep grids: every configuration set the figures, the
//! golden baseline and the cross-cutting tests run on, defined **once**.
//!
//! Before this module each figure binary and each integration test derived
//! its own config list, so the committed golden baseline and the test
//! matrix could silently diverge (a renamed config or a tweaked preset
//! would update one but not the other). Everything that enumerates
//! `workload × config` cells — `bench_sweep`, the four figure binaries,
//! `tests/workload_matrix.rs`, `tests/differential.rs`, the golden checker
//! — now pulls its grid from here, and [`grid_id`] digests the grid into
//! the identity a [`SweepCheckpoint`](warpweave_core::SweepCheckpoint)
//! binds to.

use warpweave_core::checkpoint::{CellRecord, CHECKPOINT_VERSION};
use warpweave_core::digest::fnv1a;
use warpweave_core::sweep::JobFailure;
use warpweave_core::{Associativity, LaneShuffle, Launch, SmConfig};
use warpweave_isa::{p, r, CmpOp, KernelBuilder, SpecialReg};
use warpweave_mem::CacheConfig;
use warpweave_workloads::{
    all_workloads, by_name, run_prepared, run_prepared_multi_sm, Scale, Workload,
};

use crate::harness::{cell_key, CellFailure};

/// Fig. 2's launch: the paper's toy kernel
/// `if (tid & 1) { i2; i3; i4 } else { i5 } i6` over 2 blocks of 4 threads.
/// Instruction numbering follows the paper: 1 = the divergent branch,
/// 2–4 = the `if` side, 5 = the `else` side, 6 = the reconverged tail.
pub fn fig2_launch() -> Launch {
    let mut k = KernelBuilder::new("fig2");
    k.and_(r(0), SpecialReg::Tid, 1i32); // i0: compute condition
    k.isetp(p(0), CmpOp::Eq, r(0), 0i32);
    k.bra_if(p(0), "else"); // i1: the divergent branch
    k.iadd(r(1), r(1), 1i32); // i2
    k.iadd(r(2), r(2), 1i32); // i3
    k.iadd(r(3), r(3), 1i32); // i4
    k.bra("join");
    k.label("else");
    k.iadd(r(4), r(4), 1i32); // i5
    k.label("join");
    k.iadd(r(5), r(5), 1i32); // i6 (after the SYNC marker)
    k.exit();
    Launch::new(k.build().expect("fig2 toy kernel assembles"), 2, 4)
}

/// `cfg` at fig. 2's scale: the warp width and the MAD lanes divided by 16
/// and 8 resident threads, so the back-end rule of [`SmConfig`] puts every
/// front-end on 4 MAD lanes — Baseline as 4 warps × 2 threads on two
/// 2-lane groups, every 64-wide preset as 2 warps × 4 threads on one
/// 4-lane group.
pub fn fig2_shrink(cfg: SmConfig) -> SmConfig {
    let warp_width = cfg.warp_width / 16;
    SmConfig {
        num_warps: 8 / warp_width,
        warp_width,
        mad_lanes: cfg.mad_lanes / 16,
        ..cfg
    }
}

/// Fig. 2's panels (a)–(e), each through [`fig2_shrink`].
pub fn fig2_configs() -> Vec<SmConfig> {
    [
        SmConfig::baseline().named("(a) SIMT baseline"),
        SmConfig::sbi()
            .with_constraints(false)
            .named("(b) SBI, no constraints"),
        SmConfig::sbi()
            .with_constraints(true)
            .named("(c) SBI with reconvergence constraints"),
        SmConfig::swi().named("(d) SWI"),
        SmConfig::sbi_swi().named("(e) SBI+SWI"),
    ]
    .into_iter()
    .map(fig2_shrink)
    .collect()
}

/// The fig. 7 front-end set: [`SmConfig::figure7_set`], under the name
/// the frozen `benchmark/` crate calls it by.
pub fn figure7_configs() -> Vec<SmConfig> {
    SmConfig::figure7_set()
}

/// The fig. 8(a) constraint study: SBI and SBI+SWI, constraints off/on.
pub fn constraint_configs() -> Vec<SmConfig> {
    vec![
        SmConfig::sbi().with_constraints(false).named("SBI/off"),
        SmConfig::sbi().with_constraints(true).named("SBI/on"),
        SmConfig::sbi_swi()
            .with_constraints(false)
            .named("Both/off"),
        SmConfig::sbi_swi().with_constraints(true).named("Both/on"),
    ]
}

/// The fig. 8(b) lane-shuffling study: SWI under every table-1 policy.
pub fn lane_shuffle_configs() -> Vec<SmConfig> {
    LaneShuffle::ALL
        .iter()
        .map(|&s| SmConfig::swi().with_lane_shuffle(s).named(s.name()))
        .collect()
}

/// The fig. 9 associativity study: SWI lookup points on a 24-warp pool.
pub fn associativity_configs() -> Vec<SmConfig> {
    [
        Associativity::Full,
        Associativity::Ways(11),
        Associativity::Ways(3),
        Associativity::Ways(1),
    ]
    .iter()
    .map(|&a| SmConfig::swi().with_warps(24).with_assoc(a).named(a.name()))
    .collect()
}

/// The non-baseline front-ends the differential fuzzer must prove
/// bit-identical to the baseline (every fig. 7 column plus the
/// constraints-off SBI variant that exercises desynchronised scheduling).
pub fn differential_configs() -> Vec<SmConfig> {
    vec![
        SmConfig::warp64(),
        SmConfig::sbi(),
        SmConfig::sbi()
            .with_constraints(false)
            .named("SBI/unconstrained"),
        SmConfig::swi(),
        SmConfig::sbi_swi(),
    ]
}

/// The quick-mode sweep workloads (one regular, one irregular).
pub fn quick_workloads() -> Vec<Box<dyn Workload>> {
    ["MatrixMul", "SortingNetworks"]
        .iter()
        .map(|n| by_name(n).expect("registered workload"))
        .collect()
}

/// The sweep's workload rows: all 21 under `--full`, the quick pair
/// otherwise.
pub fn sweep_workloads(full: bool) -> Vec<Box<dyn Workload>> {
    if full {
        all_workloads()
    } else {
        quick_workloads()
    }
}

/// One multi-SM machine probe of the sweep: a workload simulated on a
/// [`Machine`](warpweave_core::Machine) under a bandwidth model.
#[derive(Debug, Clone)]
pub struct MachineProbe {
    /// Workload label (resolved through the registry).
    pub workload: &'static str,
    /// SM count of the machine.
    pub num_sms: usize,
    /// Full SM configuration (carries the [`warpweave_core::MemModel`]).
    pub cfg: SmConfig,
}

impl MachineProbe {
    /// The probe's checkpoint/golden cell key, e.g.
    /// `machine/Mandelbrot/4sm/shared`. Non-default memory-hierarchy
    /// knobs are appended as suffixes (`+2ch`, `+mshr32`, `+l2`) so every
    /// probe of the grid keys a distinct golden cell; default-knob probes
    /// keep their historical keys.
    pub fn key(&self) -> String {
        let mut key = format!(
            "machine/{}/{}sm/{}",
            self.workload,
            self.num_sms,
            self.cfg.mem_model.name()
        );
        if self.cfg.dram.num_channels > 1 {
            key.push_str(&format!("+{}ch", self.cfg.dram.num_channels));
        }
        if self.cfg.mshr_entries > 0 {
            key.push_str(&format!("+mshr{}", self.cfg.mshr_entries));
        }
        if self.cfg.l2.is_some() {
            key.push_str("+l2");
        }
        key
    }
}

/// The canonical shared-L2 geometry of the probe grid: 256 K, 8-way,
/// 128 B lines, 20-cycle hit.
pub fn probe_l2() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 256 * 1024,
        ways: 8,
        line_bytes: 128,
        hit_latency: 20,
    }
}

/// The machine probes of the sweep (and of the golden baseline): one
/// irregular workload at 1 and 4 SMs under **both** bandwidth models —
/// pinning private-channel and shared-channel behaviour alike — plus the
/// scaled memory hierarchy (a second interleaved channel, per-SM MSHRs,
/// and the shared L2 stacked together). The hierarchy probes run a
/// load-heavy workload with cross-SM reuse (MatrixMul) so the golden rows
/// actually exercise channel interleaving and L2 interception; Mandelbrot
/// is write-only off-chip and would pin all-zero load counters.
pub fn machine_probes() -> Vec<MachineProbe> {
    [
        ("Mandelbrot", 1usize, SmConfig::sbi_swi()),
        ("Mandelbrot", 4, SmConfig::sbi_swi()),
        ("Mandelbrot", 1, SmConfig::sbi_swi().with_shared_dram()),
        ("Mandelbrot", 4, SmConfig::sbi_swi().with_shared_dram()),
        (
            "MatrixMul",
            4,
            SmConfig::sbi_swi().with_shared_dram().with_dram_channels(2),
        ),
        (
            "MatrixMul",
            4,
            SmConfig::sbi_swi().with_shared_dram().with_mshrs(32),
        ),
        (
            "MatrixMul",
            4,
            SmConfig::sbi_swi()
                .with_shared_dram()
                .with_dram_channels(2)
                .with_mshrs(32)
                .with_l2(probe_l2()),
        ),
    ]
    .into_iter()
    .map(|(workload, num_sms, cfg)| MachineProbe {
        workload,
        num_sms,
        cfg,
    })
    .collect()
}

/// One job of the canonical sweep grid: a single-SM matrix cell or a
/// multi-SM machine probe. Both kinds are enumerated by [`grid_jobs`],
/// keyed into the same checkpoint/cache namespace and simulated by the
/// same cell body ([`GridJob::run`]), so whatever drives a job list —
/// the local sweep, a shard, the sweep server — treats them alike.
///
/// A job owns everything it needs (the workload is a registry label,
/// resolved when the job runs), so job lists can outlive the grid
/// definition they were enumerated from, e.g. in a server's request.
#[derive(Debug, Clone)]
pub struct GridJob {
    /// Position in the **full** grid, whatever selection the job is run
    /// in: fault rules (`panic@cell:7`) and shard specs (`shard:2/8`)
    /// address this index, so they mean the same job on a fresh run, a
    /// resumed run and every host of a sharded run.
    pub index: usize,
    /// Checkpoint, golden and cache key: `workload/config` for a matrix
    /// cell, [`MachineProbe::key`] for a probe.
    pub key: String,
    /// Workload label.
    pub workload: &'static str,
    /// SM configuration (of every SM, for a probe); carries the seed.
    pub config: SmConfig,
    /// SM count of a machine probe; `None` for a single-SM matrix cell.
    pub num_sms: Option<usize>,
}

impl GridJob {
    /// True for a machine probe, false for a matrix cell.
    pub fn is_probe(&self) -> bool {
        self.num_sms.is_some()
    }

    /// Simulates the job at `scale` — **the** cell body of every sweep
    /// driver. A matrix cell runs on one SM; a probe runs on a
    /// [`Machine`](warpweave_core::Machine) and records the shared-channel
    /// counters beside the machine totals.
    ///
    /// # Errors
    /// The rendered simulation or verification failure (drivers run this
    /// under `catch_unwind` and turn either into a [`CellFailure`]).
    pub fn run(&self, scale: Scale, verify: bool) -> Result<CellRecord, String> {
        let workload = by_name(self.workload)
            .ok_or_else(|| format!("workload `{}` unregistered", self.workload))?;
        let prepared = workload.prepare(scale);
        match self.num_sms {
            None => run_prepared(&self.config, prepared, verify).map(CellRecord::new),
            Some(num_sms) => run_prepared_multi_sm(&self.config, num_sms, prepared, verify)
                .map(|stats| CellRecord::with_channel(stats.total, stats.channel)),
        }
        .map_err(|e| e.to_string())
    }

    /// The quarantine record of this job, failed for `reason`.
    pub fn failure(&self, reason: JobFailure) -> CellFailure {
        CellFailure {
            key: self.key.clone(),
            workload: self.workload.to_string(),
            config: self.config.name.clone(),
            seed: self.config.seed,
            reason,
        }
    }
}

/// The canonical job list of a grid: the workload-major matrix cells
/// (`0 .. W×C`) followed by the [`machine_probes`] (`W×C .. W×C+P`). This
/// is the one enumeration shard specs, fault rules, the merge
/// completeness check and the sweep server all index.
pub fn grid_jobs(configs: &[SmConfig], workloads: &[Box<dyn Workload>]) -> Vec<GridJob> {
    let cells = workloads.iter().flat_map(|w| {
        configs
            .iter()
            .map(|cfg| (cell_key(w.name(), &cfg.name), w.name(), cfg.clone(), None))
    });
    let probes = machine_probes()
        .into_iter()
        .map(|p| (p.key(), p.workload, p.cfg, Some(p.num_sms)));
    cells
        .chain(probes)
        .enumerate()
        .map(|(index, (key, workload, config, num_sms))| GridJob {
            index,
            key,
            workload,
            config,
            num_sms,
        })
        .collect()
}

/// Digests a grid — config labels, workload labels, machine probes, scale
/// and the checkpoint format version — into the 64-bit identity a
/// checkpoint binds to. Any change to the grid definition changes the id,
/// so a stale checkpoint can never be resumed against a different sweep.
pub fn grid_id(configs: &[SmConfig], workloads: &[Box<dyn Workload>], scale: Scale) -> u64 {
    let mut text = format!("ckpt-v{CHECKPOINT_VERSION};scale={scale:?};");
    for c in configs {
        text.push_str(&c.name);
        text.push(';');
    }
    for w in workloads {
        text.push_str(w.name());
        text.push(';');
    }
    for p in machine_probes() {
        text.push_str(&p.key());
        text.push(';');
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sets_validate() {
        for cfg in figure7_configs()
            .iter()
            .chain(&fig2_configs())
            .chain(&constraint_configs())
            .chain(&lane_shuffle_configs())
            .chain(&associativity_configs())
            .chain(&differential_configs())
        {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
        for p in machine_probes() {
            p.cfg.validate().unwrap();
            assert!(by_name(p.workload).is_some(), "{} unregistered", p.workload);
        }
    }

    #[test]
    fn probe_keys_are_distinct_and_suffix_the_hierarchy_knobs() {
        let keys: Vec<String> = machine_probes().iter().map(MachineProbe::key).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "duplicate probe keys: {keys:?}");
        // Historical default-knob keys must not move (golden continuity).
        assert!(keys.contains(&"machine/Mandelbrot/4sm/shared".to_string()));
        // The scaled-hierarchy probes encode their knobs.
        assert!(keys.contains(&"machine/MatrixMul/4sm/shared+2ch".to_string()));
        assert!(keys.contains(&"machine/MatrixMul/4sm/shared+mshr32".to_string()));
        assert!(keys.contains(&"machine/MatrixMul/4sm/shared+2ch+mshr32+l2".to_string()));
    }

    #[test]
    fn figure7_labels_key_the_golden_cells() {
        // The golden baseline's cell keys are these labels, in this order.
        let labels: Vec<String> = figure7_configs().into_iter().map(|c| c.name).collect();
        assert_eq!(labels, ["Baseline", "SBI", "SWI", "SBI+SWI", "Warp64"]);
    }

    #[test]
    fn grid_id_tracks_every_dimension() {
        let configs = figure7_configs();
        let quick = quick_workloads();
        let base = grid_id(&configs, &quick, Scale::Test);
        assert_ne!(base, grid_id(&configs, &quick, Scale::Bench), "scale");
        assert_ne!(
            base,
            grid_id(&configs[..4], &quick, Scale::Test),
            "config set"
        );
        assert_ne!(
            base,
            grid_id(&configs, &sweep_workloads(true), Scale::Test),
            "workload set"
        );
        // Stable across calls (pure function of the definition).
        assert_eq!(base, grid_id(&configs, &quick, Scale::Test));
    }
}
