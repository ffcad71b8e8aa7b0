//! Simulator configuration and the paper's architecture presets (table 2).

use warpweave_mem::{CacheConfig, DramConfig};

use crate::lane::LaneShuffle;
use crate::pipeline::{LSU_LANES, SFU_LANES};
use crate::policy::PolicyRegistry;
use crate::rng::TieBreakRng;

/// How intra-warp divergence is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivergenceModel {
    /// Per-warp PDOM reconvergence stack (baseline, §2).
    Stack,
    /// Thread-frontier sorted heap: HCT + CCT, min-PC scheduling (§3.4).
    Frontier,
}

/// How register dependences between in-flight instructions are tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreboardMode {
    /// Register-ID match at warp granularity (baseline, conservative).
    WarpLevel,
    /// Oracle: register match refined by exact thread-mask intersection.
    Exact,
    /// The paper's 3×3 dependency-matrix scheme (§3.4, fig. 6):
    /// register match refined by the transitive closure of the warp-split
    /// divergence/convergence graph. Conservative w.r.t. `Exact`.
    Matrix,
}

/// Associativity of the SWI mask-inclusion lookup (§4, fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// CAM: every other warp's buffered instruction is a candidate.
    Full,
    /// Set-associative: warps are partitioned into `num_warps / (k + 1)`
    /// sets by low-order warp-ID bits; the lookup searches only the primary
    /// warp's set, i.e. `k` candidates. `Ways(1)` is the paper's
    /// direct-mapped point.
    Ways(usize),
}

impl Associativity {
    /// Number of sets the warp pool is partitioned into.
    pub fn num_sets(self, num_warps: usize) -> usize {
        match self {
            Associativity::Full => 1,
            Associativity::Ways(k) => (num_warps / (k + 1)).max(1),
        }
    }

    /// The label used in fig. 9.
    pub fn name(self) -> String {
        match self {
            Associativity::Full => "Fully associative".into(),
            Associativity::Ways(1) => "Direct mapped".into(),
            Associativity::Ways(k) => format!("{k}-way"),
        }
    }
}

/// How off-chip DRAM bandwidth is provisioned across the SMs of a
/// [`crate::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemModel {
    /// Every SM owns a private channel of [`SmConfig::dram`] bandwidth
    /// (the pre-event-driven model, and the paper's single-SM methodology
    /// where 10 GB/s *is* one SM's share). Grants are computed at issue.
    PrivatePerSm,
    /// All SMs share **one** channel of [`SmConfig::dram`] bandwidth,
    /// arbitrated per epoch with rotating SM-id priority — the
    /// whole-machine bandwidth pool of a real GPU. Requires a
    /// [`crate::Machine`] to drive the epoch barriers; a standalone
    /// [`crate::Sm`] under this model self-grants against a private
    /// channel (identical to [`MemModel::PrivatePerSm`]).
    SharedChannel,
}

impl MemModel {
    /// The label used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            MemModel::PrivatePerSm => "private",
            MemModel::SharedChannel => "shared",
        }
    }
}

/// Full SM configuration. Build one with the presets ([`SmConfig::baseline`]
/// etc.) and adjust fields as needed.
///
/// A field is an axis some preset, figure or probe sets. What every
/// configuration shares is a constant of the pipeline: table 2's 8-cycle
/// execution latency, 6-entry scoreboard, 8 SFU lanes, 32 LSU lanes and L1
/// ([`CacheConfig::paper_l1`]), and a 10-cycle shared-memory latency.
///
/// The back-end is one rule of the warp width: `mad_lanes / warp_width`
/// MAD groups, each one warp wide, then one SFU group and one LSU group.
///
/// Two more table-2 values are modelled by a mechanism. The scheduler
/// latency (1 cycle; 2 for SWI's cascade) is the SWI policy's pending
/// primary: picked one cycle, issued the next ([`crate::policy`]).
/// §5.2's 8-entry Cold Context Table is unbounded in
/// [`crate::FrontierHeap`]; the `heap_max_live_splits` counter reports how
/// many entries a run needed.
#[derive(Debug, Clone)]
pub struct SmConfig {
    /// Human-readable label (defaults to the front-end name).
    pub name: String,
    /// Warps resident on the SM (1 024 threads / `warp_width` in every
    /// preset).
    pub num_warps: usize,
    /// Threads per warp (32 baseline, 64 for SBI/SWI — table 2).
    pub warp_width: usize,
    /// Issue-policy registry name (see [`PolicyRegistry`]); resolved to a
    /// boxed [`crate::policy::IssuePolicy`] at SM construction.
    pub policy: String,
    /// Divergence tracking structure.
    pub divergence: DivergenceModel,
    /// Apply SBI reconvergence constraints (`SYNC` suspension, §3.3).
    pub sbi_constraints: bool,
    /// Thread→lane mapping (SWI conflict decorrelation, table 1).
    pub lane_shuffle: LaneShuffle,
    /// SWI mask-lookup associativity (fig. 9).
    pub swi_assoc: Associativity,
    /// Dependence-tracking scheme.
    pub scoreboard_mode: ScoreboardMode,
    /// Model the sideband CCT sorter's walk time (degrades to stack order
    /// under pressure, §3.4). `false` keeps the CCT ideally sorted.
    pub model_sideband_sorter: bool,
    /// Skip over provably-idle stretches by jumping the clock to the next
    /// writeback / port-release event instead of ticking cycle-by-cycle.
    /// A jump needs a cycle in which nothing issued, fetched or retired
    /// *and* no `(warp, slot)` is eligible with a free port — a property
    /// of the SM alone, whatever state the policy carries between cycles;
    /// it never crosses a machine's epoch barrier. Bit-identical to
    /// exhaustive ticking at every scale the repository runs
    /// (`fast_forward_is_exact`, `switch_invariance.rs`; debug builds
    /// re-check every jump). Disable it to trace cycle by cycle.
    pub fast_forward: bool,
    /// Back-end MAD lanes (table 2: 64); a non-zero multiple of
    /// `warp_width`.
    pub mad_lanes: usize,
    /// Per-SM miss-status holding registers: a miss to a line evicted
    /// while its fill is in flight merges onto that fill instead of
    /// multiplying DRAM traffic (a load of a line still in the L1 is a
    /// hit, fill or no fill). 0 (the default) disables merging.
    pub mshr_entries: u32,
    /// Optional machine-shared L2 between the L1s and the DRAM channels
    /// (shared-channel machines only). `None` (the default) goes straight
    /// to DRAM.
    pub l2: Option<CacheConfig>,
    /// Off-chip memory model.
    pub dram: DramConfig,
    /// Whether [`SmConfig::dram`] bandwidth is private per SM or one
    /// machine-shared pool (see [`MemModel`]).
    pub mem_model: MemModel,
    /// Seed for the secondary scheduler's pseudo-random tie-breaking.
    pub seed: u64,
}

impl SmConfig {
    /// The fields every preset shares; `policy` is the preset's
    /// [`PolicyRegistry`] name and doubles as its figure label. Table 2's
    /// 1 024 resident threads fix the pool at `1024 / warp_width` warps.
    fn common(policy: &str, warp_width: usize) -> SmConfig {
        SmConfig {
            name: policy.to_string(),
            num_warps: 1024 / warp_width,
            warp_width,
            policy: policy.to_string(),
            divergence: DivergenceModel::Frontier,
            sbi_constraints: false,
            lane_shuffle: LaneShuffle::Identity,
            swi_assoc: Associativity::Full,
            scoreboard_mode: ScoreboardMode::WarpLevel,
            model_sideband_sorter: true,
            fast_forward: true,
            mad_lanes: 64,
            mshr_entries: 0,
            l2: None,
            dram: DramConfig::paper(),
            mem_model: MemModel::PrivatePerSm,
            seed: 0xb1e55ed,
        }
    }

    /// The baseline Fermi-like SM: 32 warps × 32 threads on two 32-wide MAD
    /// groups, two pools, PDOM stack (table 2, column 1).
    pub fn baseline() -> SmConfig {
        SmConfig {
            divergence: DivergenceModel::Stack,
            ..Self::common("Baseline", 32)
        }
    }

    /// The fig. 7 reference: thread frontiers with 64-wide warps, sequential
    /// branch execution.
    pub fn warp64() -> SmConfig {
        Self::common("Warp64", 64)
    }

    /// Simultaneous Branch Interweaving (table 2, column 2). Reconvergence
    /// constraints default *on*: without them, greedy scheduling lets the
    /// secondary warp-split run ahead indefinitely in loop-carried kernels
    /// (§3.3's desynchronisation), and in this model the redundant fetches
    /// and memory-resource conflicts it causes are strongly visible
    /// (fig. 8a measures both settings).
    pub fn sbi() -> SmConfig {
        SmConfig {
            scoreboard_mode: ScoreboardMode::Matrix,
            sbi_constraints: true,
            ..Self::common("SBI", 64)
        }
    }

    /// Simultaneous Warp Interweaving (table 2, column 3): cascaded
    /// scheduler (its 2-cycle latency is the policy's pending primary, see
    /// [`SmConfig`]), fully-associative lookup, XorRev lane shuffling (the
    /// paper's most consistent policy).
    pub fn swi() -> SmConfig {
        SmConfig {
            lane_shuffle: LaneShuffle::XorRev,
            ..Self::common("SWI", 64)
        }
    }

    /// SBI and SWI combined (constraints on, as for [`SmConfig::sbi`]).
    pub fn sbi_swi() -> SmConfig {
        SmConfig {
            scoreboard_mode: ScoreboardMode::Matrix,
            sbi_constraints: true,
            lane_shuffle: LaneShuffle::XorRev,
            ..Self::common("SBI+SWI", 64)
        }
    }

    /// The net-new scheduling-order policy: the baseline dual-pool
    /// machine with **greedy-then-oldest** warp ordering (the pool's
    /// last-issued warp keeps priority while it stays ready) — a policy of
    /// its own, [`crate::policy::baseline::DualPoolPolicy::greedy`].
    pub fn greedy_then_oldest() -> SmConfig {
        SmConfig {
            name: "GreedyThenOldest".into(),
            policy: "GreedyThenOldest".into(),
            ..Self::baseline()
        }
    }

    /// Builds the preset configuration of any registered issue policy by
    /// name (canonical or alias) — the registry-driven entry point the
    /// sweep/figure CLIs' `--frontend <name>` flag resolves through.
    ///
    /// # Errors
    /// Unknown policy names, listing what is registered.
    pub fn with_policy(name: &str) -> Result<SmConfig, String> {
        PolicyRegistry::resolve_global(name)
            .map(|entry| entry.preset())
            .ok_or_else(|| {
                format!(
                    "unknown issue policy '{name}' (registered: {})",
                    PolicyRegistry::global_names().join(", ")
                )
            })
    }

    /// The presets of a list of issue policies, in list order: the one
    /// resolver of every front-end list, a CLI's `--frontend NAMES` and a
    /// served request's `frontends=` alike.
    ///
    /// # Errors
    /// An unknown name, or a name whose canonical policy is already listed
    /// (`SBI,sbi`): a grid holds each column once.
    pub fn with_policies<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<SmConfig>, String> {
        let mut configs: Vec<SmConfig> = Vec::new();
        for name in names {
            let cfg = Self::with_policy(name)?;
            if configs.iter().any(|c| c.policy == cfg.policy) {
                return Err(format!(
                    "issue policy '{name}' is listed twice (as '{}')",
                    cfg.policy
                ));
            }
            configs.push(cfg);
        }
        Ok(configs)
    }

    /// The five configurations of fig. 7, in presentation order — the
    /// columns of the sweep and of the golden grid. Built through the
    /// registry ([`SmConfig::with_policy`]), so every caller exercises
    /// the path `--frontend` takes.
    pub fn figure7_set() -> Vec<SmConfig> {
        ["Baseline", "SBI", "SWI", "SBI+SWI", "Warp64"]
            .iter()
            .map(|n| Self::with_policy(n).expect("figure-7 policy registered"))
            .collect()
    }

    /// Renames the configuration (builder style).
    pub fn named(mut self, name: impl Into<String>) -> SmConfig {
        self.name = name.into();
        self
    }

    /// Sets the resident warp count (builder style).
    pub fn with_warps(mut self, n: usize) -> SmConfig {
        self.num_warps = n;
        self
    }

    /// Sets the lane-shuffle policy (builder style).
    pub fn with_lane_shuffle(mut self, s: LaneShuffle) -> SmConfig {
        self.lane_shuffle = s;
        self
    }

    /// Sets the SWI lookup associativity (builder style).
    pub fn with_assoc(mut self, a: Associativity) -> SmConfig {
        self.swi_assoc = a;
        self
    }

    /// Enables/disables SBI reconvergence constraints (builder style).
    pub fn with_constraints(mut self, on: bool) -> SmConfig {
        self.sbi_constraints = on;
        self
    }

    /// Enables/disables idle-cycle fast-forwarding (builder style).
    pub fn with_fast_forward(mut self, on: bool) -> SmConfig {
        self.fast_forward = on;
        self
    }

    /// Selects the off-chip bandwidth model (builder style).
    pub fn with_mem_model(mut self, m: MemModel) -> SmConfig {
        self.mem_model = m;
        self
    }

    /// Switches to the machine-shared bandwidth pool (builder style);
    /// shorthand for `with_mem_model(MemModel::SharedChannel)`.
    pub fn with_shared_dram(self) -> SmConfig {
        self.with_mem_model(MemModel::SharedChannel)
    }

    /// Sets the number of address-interleaved DRAM channels a shared-DRAM
    /// machine arbitrates (builder style); each adds a full
    /// `bytes_per_cycle` of bandwidth.
    pub fn with_dram_channels(mut self, n: u32) -> SmConfig {
        self.dram.num_channels = n;
        self
    }

    /// Sets the per-SM MSHR file size (builder style); 0 disables merging.
    pub fn with_mshrs(mut self, entries: u32) -> SmConfig {
        self.mshr_entries = entries;
        self
    }

    /// Returns the configuration unchanged. The pipeline has one execute
    /// path, so there is no superblock engine to switch; the method stays
    /// only because the frozen `benchmark/` crate calls it (ROADMAP item 3).
    pub fn with_superblocks(self, _on: bool) -> SmConfig {
        self
    }

    /// Adds a machine-shared L2 between the L1s and the DRAM channels
    /// (builder style; shared-channel machines only).
    pub fn with_l2(mut self, l2: CacheConfig) -> SmConfig {
        self.l2 = Some(l2);
        self
    }

    /// The epoch length (in core cycles) a [`crate::Machine`] uses to
    /// barrier SMs for shared-channel arbitration. Capped at the DRAM
    /// latency so a transaction issued in epoch *k* can never complete
    /// before the barrier that grants it — the property that makes the
    /// epoch-parallel co-simulation exact.
    pub fn mem_epoch_cycles(&self) -> u64 {
        self.dram.latency.clamp(1, 256)
    }

    /// Derives the configuration for SM `sm_id` of a multi-SM machine:
    /// identical architecture, with the tie-breaking RNG re-seeded from
    /// `(seed, sm_id)` so per-SM pseudo-random streams are decorrelated yet
    /// fully deterministic. SM 0 keeps the base seed, so a 1-SM machine
    /// reproduces a standalone [`crate::Sm`] bit-for-bit.
    pub fn for_sm(&self, sm_id: usize) -> SmConfig {
        let mut cfg = self.clone();
        if sm_id > 0 {
            cfg.seed = TieBreakRng::new(cfg.seed.wrapping_add(sm_id as u64)).next_u64();
        }
        cfg
    }

    /// Table 2's instruction delivery latency: 1 cycle on the
    /// thread-frontier front-ends, 0 over the PDOM stack.
    pub(crate) fn delivery_latency(&self) -> u64 {
        u64::from(self.divergence == DivergenceModel::Frontier)
    }

    /// Total back-end lanes.
    pub fn total_lanes(&self) -> usize {
        self.mad_lanes + SFU_LANES + LSU_LANES
    }

    /// Peak thread-instructions per cycle: issue-bound (2 warps/cycle) or
    /// back-end-bound, whichever is lower. 64 for the baseline, 104 for
    /// SBI/SWI (§5.1).
    pub fn peak_ipc(&self) -> usize {
        (2 * self.warp_width).min(self.total_lanes())
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Describes the first inconsistency found (e.g. SBI over a stack, zero
    /// warps, non-power-of-two width).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_warps == 0 || self.warp_width == 0 {
            return Err("warp pool and width must be non-zero".into());
        }
        if self.num_warps > 64 {
            return Err(format!(
                "{} resident warps exceed the limit of 64 (every per-warp scheduler set is a u64)",
                self.num_warps
            ));
        }
        if !self.warp_width.is_power_of_two() || self.warp_width > 64 {
            return Err(format!(
                "warp width {} must be a power of two ≤ 64",
                self.warp_width
            ));
        }
        let Some(entry) = PolicyRegistry::resolve_global(&self.policy) else {
            return Err(format!(
                "unknown issue policy '{}' (registered: {})",
                self.policy,
                PolicyRegistry::global_names().join(", ")
            ));
        };
        if entry.needs_frontier && self.divergence != DivergenceModel::Frontier {
            return Err(format!(
                "{} requires thread-frontier divergence tracking",
                entry.name
            ));
        }
        if entry.needs_masked_scoreboard && self.scoreboard_mode == ScoreboardMode::WarpLevel {
            return Err(format!(
                "{} needs mask-aware dependence tracking (Exact or Matrix)",
                entry.name
            ));
        }
        // Every MAD group is one warp wide: the lanes must split into at
        // least one whole group.
        if self.mad_lanes == 0 || !self.mad_lanes.is_multiple_of(self.warp_width) {
            return Err(format!(
                "{} MAD lanes are not a non-zero multiple of the warp width {}",
                self.mad_lanes, self.warp_width
            ));
        }
        self.dram
            .validate()
            .map_err(|e| format!("dram config: {e}"))?;
        if let Some(l2) = &self.l2 {
            l2.validate().map_err(|e| format!("l2 geometry: {e}"))?;
            if self.mem_model != MemModel::SharedChannel {
                return Err("a shared L2 requires the shared-channel memory model \
                     (it sits between the L1s and the machine's channels)"
                    .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_pools_wider_than_the_warp_sets() {
        SmConfig::baseline().with_warps(64).validate().unwrap();
        for n in [65, 96, 128] {
            let err = SmConfig::baseline().with_warps(n).validate().unwrap_err();
            assert!(err.contains("limit of 64"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_bad_memory_geometry() {
        let mut c = SmConfig::baseline();
        c.dram.num_channels = 0;
        assert!(c.validate().unwrap_err().contains("dram config"));
        // A channel that cannot move data: the transfer time would be
        // infinite, negative or NaN, the completion cycle garbage.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = SmConfig::baseline();
            c.dram.bytes_per_cycle = bad;
            let err = c.validate().unwrap_err();
            assert!(err.contains("dram config: dram bytes_per_cycle"), "{err}");
        }
        // A zero latency would make the shared-channel epoch longer than
        // the latency it is capped at.
        let mut c = SmConfig::baseline();
        c.dram.latency = 0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("dram config: dram latency"), "{err}");
        let mut c = SmConfig::baseline()
            .with_shared_dram()
            .with_l2(CacheConfig {
                capacity_bytes: 384, // 3 sets: not a power of two
                ways: 1,
                line_bytes: 128,
                hit_latency: 10,
            });
        assert!(c.validate().unwrap_err().contains("l2 geometry"));
        c = SmConfig::baseline().with_l2(CacheConfig::paper_l1());
        assert!(c.validate().unwrap_err().contains("shared-channel"));
        c = SmConfig::baseline()
            .with_shared_dram()
            .with_l2(CacheConfig::paper_l1())
            .with_dram_channels(4)
            .with_mshrs(8);
        c.validate().unwrap();
    }

    #[test]
    fn table2_baseline() {
        let c = SmConfig::baseline();
        assert_eq!((c.num_warps, c.warp_width), (32, 32));
        assert_eq!(c.delivery_latency(), 0);
        assert_eq!(c.peak_ipc(), 64);
        c.validate().unwrap();
    }

    #[test]
    fn table2_sbi_swi() {
        let sbi = SmConfig::sbi();
        assert_eq!((sbi.num_warps, sbi.warp_width), (16, 64));
        assert_eq!(sbi.delivery_latency(), 1);
        assert_eq!(sbi.peak_ipc(), 104);
        sbi.validate().unwrap();

        let swi = SmConfig::swi();
        assert_eq!(swi.delivery_latency(), 1);
        assert_eq!(swi.peak_ipc(), 104);
        swi.validate().unwrap();

        let both = SmConfig::sbi_swi();
        assert_eq!(both.scoreboard_mode, ScoreboardMode::Matrix);
        both.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_combos() {
        let mut c = SmConfig::sbi();
        c.scoreboard_mode = ScoreboardMode::WarpLevel;
        assert!(c.validate().is_err());

        let mut c = SmConfig::sbi();
        c.divergence = DivergenceModel::Stack;
        assert!(c.validate().is_err());

        let mut c = SmConfig::baseline();
        c.warp_width = 48;
        assert!(c.validate().is_err());

        // MAD lanes that split into no whole warp-wide group.
        for lanes in [0, 48] {
            let mut c = SmConfig::sbi();
            c.mad_lanes = lanes;
            assert_eq!(
                c.validate().unwrap_err(),
                format!("{lanes} MAD lanes are not a non-zero multiple of the warp width 64")
            );
        }
    }

    #[test]
    fn presets_derive_warps_and_lanes_from_the_width() {
        for c in SmConfig::figure7_set() {
            assert_eq!(c.num_warps * c.warp_width, 1024, "{}", c.name);
            assert_eq!(c.mad_lanes, 64, "{}", c.name);
        }
        assert_eq!(SmConfig::baseline().total_lanes(), 104);
    }

    #[test]
    fn associativity_partitioning_24_warps() {
        // The fig. 9 points with a 24-warp pool.
        assert_eq!(Associativity::Full.num_sets(24), 1);
        assert_eq!(Associativity::Ways(11).num_sets(24), 2);
        assert_eq!(Associativity::Ways(3).num_sets(24), 6);
        assert_eq!(Associativity::Ways(1).num_sets(24), 12);
        assert_eq!(Associativity::Ways(1).name(), "Direct mapped");
    }

    #[test]
    fn with_policy_reproduces_constructors() {
        for (name, ctor) in [
            ("Baseline", SmConfig::baseline as fn() -> SmConfig),
            ("Warp64", SmConfig::warp64),
            ("SBI", SmConfig::sbi),
            ("SWI", SmConfig::swi),
            ("SBI+SWI", SmConfig::sbi_swi),
            ("GreedyThenOldest", SmConfig::greedy_then_oldest),
        ] {
            let via_registry = SmConfig::with_policy(name).unwrap();
            let direct = ctor();
            assert_eq!(via_registry.name, direct.name, "{name}");
            assert_eq!(via_registry.policy, direct.policy, "{name}");
            via_registry.validate().unwrap();
        }
        assert!(SmConfig::with_policy("NoSuchPolicy").is_err());
        let pair = SmConfig::with_policies(["SBI", "gto"]).unwrap();
        let names: Vec<&str> = pair.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["SBI", "GreedyThenOldest"]);
        let twice = SmConfig::with_policies(["SBI", "sbi"]).unwrap_err();
        assert!(twice.contains("'sbi' is listed twice"), "{twice}");
    }

    #[test]
    fn gto_preset_is_the_baseline_machine_under_another_policy() {
        let (gto, base) = (SmConfig::greedy_then_oldest(), SmConfig::baseline());
        assert_eq!(gto.policy, "GreedyThenOldest");
        assert_eq!(gto.num_warps, base.num_warps);
        assert_eq!(gto.warp_width, base.warp_width);
        assert_eq!(gto.divergence, base.divergence);
    }

    #[test]
    fn figure7_set_is_complete() {
        let set = SmConfig::figure7_set();
        let names: Vec<&str> = set.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["Baseline", "SBI", "SWI", "SBI+SWI", "Warp64"]);
        for c in &set {
            c.validate().unwrap();
        }
    }
}
