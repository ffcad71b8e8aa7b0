//! The four simulator workloads: `dense_alu`, `divergent_interweave`,
//! `mem_hierarchy` (paper kernels on an SM or a machine) and
//! `fuzz_kernels` (seeded generated kernels under every registry policy).
//!
//! A repetition walks its cell list on one host thread and covers, per
//! cell, `prepare` → memory image → `Sm`/`Machine::new` → `run` →
//! `verify` — the body of `workloads::run_prepared`, repeated here so a
//! span can sit around each call. Set-up runs the same cells through the
//! library's own `run_prepared` / `run_prepared_multi_sm`, and every
//! repetition must reproduce those counters bit for bit.

use warpweave_core::fuzzing::{check_policies, FUZZ_CYCLE_BUDGET};
use warpweave_core::{Launch, Machine, PolicyRegistry, Sm, SmConfig, Stats};
use warpweave_isa::fuzz::{self, FuzzProfile, INPUT_BASE};
use warpweave_mem::Memory;
use warpweave_workloads::runner::MAX_CYCLES_PER_LAUNCH;
use warpweave_workloads::{by_name, run_prepared, run_prepared_multi_sm, Scale, Workload};

use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{Bench, CellStat, Ctx, Rep, Variant};

/// SMs of the `mem_hierarchy` machine.
const MACHINE_SMS: usize = 4;

impl Variant {
    fn apply(self, cfg: &SmConfig) -> SmConfig {
        match self {
            Variant::Full => cfg.clone(),
            Variant::NoSuperblocks => cfg.clone().with_superblocks(false),
            Variant::NoFastForward => cfg.clone().with_fast_forward(false),
        }
    }
}

/// How far an ablated cell's simulated time is from the reference's. Both
/// switches are documented as timing-invisible, so this should read 0; it
/// is reported, not failed, because the host-reference `verify` still
/// decides whether the result is right. (Measured at the first baseline:
/// fast-forward off moves Transpose by 4 cycles and BFS by 2 on the
/// `mem_hierarchy` machine at bench scale.)
fn drift(got: &CellStat, want: &CellStat) -> u64 {
    got.stats.cycles.abs_diff(want.stats.cycles)
}

struct PaperCell {
    workload: Box<dyn Workload>,
    cfg: SmConfig,
    /// `Some(n)`: an `n`-SM shared-memory machine; `None`: one SM.
    machine_sms: Option<usize>,
}

impl PaperCell {
    fn key(&self) -> String {
        format!("{}/{}", self.workload.name(), self.cfg.name)
    }

    /// The cell through the library's own runner — the reference — and
    /// the static instruction count of its launches.
    fn reference(&self, scale: Scale) -> Result<(CellStat, u64), String> {
        let prepared = self.workload.prepare(scale);
        let static_instrs = prepared
            .launches
            .iter()
            .map(|l| l.program.len() as u64)
            .sum();
        let stat = match self.machine_sms {
            None => run_prepared(&self.cfg, prepared, true)
                .map(|stats| CellStat::single_sm(self.key(), stats))
                .map_err(|e| e.to_string()),
            Some(sms) => run_prepared_multi_sm(&self.cfg, sms, prepared, true)
                .map(|m| self.machine_stat(&m))
                .map_err(|e| e.to_string()),
        }?;
        Ok((stat, static_instrs))
    }

    fn machine_stat(&self, m: &warpweave_core::MachineStats) -> CellStat {
        CellStat {
            key: self.key(),
            stats: m.total.clone(),
            channel: Some(m.channel),
            channel_budget: self.cfg.dram.bytes_per_cycle
                * f64::from(self.cfg.dram.num_channels.max(1)),
            sm_cycles: Some(m.per_sm.iter().map(|s| s.cycles).sum()),
        }
    }

    /// The cell with a span around each call into a layer.
    fn run(
        &self,
        scale: Scale,
        variant: Variant,
        tr: &mut Tracer,
        id: u32,
    ) -> Result<CellStat, String> {
        let cell = Some(id);
        let cfg = variant.apply(&self.cfg);
        let span = tr.begin("workloads.prepare", cell);
        let prepared = self.workload.prepare(scale);
        tr.end(span);
        let span = tr.begin("mem.space_init", cell);
        let mut mem = Memory::new();
        for (addr, words) in &prepared.inputs {
            mem.write_words(*addr, words);
        }
        tr.end(span);

        let stat = match self.machine_sms {
            None => {
                let mut total = Stats::default();
                for launch in prepared.launches {
                    let span = tr.begin("core.sm_new", cell);
                    let mut sm = Sm::new(cfg.clone(), launch)?;
                    sm.set_memory(mem);
                    tr.end(span);
                    let span = tr.begin("core.sm_run", cell);
                    let stats = sm.run(MAX_CYCLES_PER_LAUNCH).map_err(|e| e.to_string())?;
                    total.accumulate(stats);
                    tr.end(span);
                    mem = sm.into_memory();
                }
                CellStat::single_sm(self.key(), total)
            }
            Some(sms) => {
                let mut total = warpweave_core::MachineStats::default();
                for launch in prepared.launches {
                    let span = tr.begin("core.machine_new", cell);
                    let mut machine = Machine::new(cfg.clone(), sms, launch)?.with_threads(1);
                    machine.set_memory(mem);
                    tr.end(span);
                    let span = tr.begin("core.machine_run", cell);
                    let stats = machine
                        .run(MAX_CYCLES_PER_LAUNCH)
                        .map_err(|e| e.to_string())?;
                    total.accumulate(stats);
                    tr.end(span);
                    mem = machine.into_memory();
                }
                self.machine_stat(&total)
            }
        };
        let span = tr.begin("workloads.verify", cell);
        let verdict = (prepared.verify)(&mem);
        tr.end(span);
        verdict.map(|()| stat)
    }
}

/// A fixed list of paper kernels × configurations.
pub struct PaperBench {
    cells: Vec<PaperCell>,
    scale: Scale,
    reference: Vec<CellStat>,
    static_instrs: u64,
}

impl PaperBench {
    fn new(ctx: &Ctx, cells: Vec<PaperCell>) -> Result<PaperBench, String> {
        let scale = if ctx.smoke { Scale::Test } else { Scale::Bench };
        let (reference, instrs): (Vec<_>, Vec<_>) = cells
            .iter()
            .map(|c| c.reference(scale))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let static_instrs = instrs.into_iter().sum();
        Ok(PaperBench {
            cells,
            scale,
            reference,
            static_instrs,
        })
    }

    /// `dense_alu`: straight-line ALU kernels on the baseline SM —
    /// superblock coverage ≥ 94 %, almost no divergence.
    pub fn dense_alu(ctx: &Ctx) -> Result<PaperBench, String> {
        let names = [
            "MatrixMul",
            "MonteCarlo",
            "SRAD",
            "Backprop",
            "BlackScholes",
        ];
        PaperBench::new(ctx, paper_cells(&names, &[SmConfig::baseline()], None)?)
    }

    /// `divergent_interweave`: the divergent kernels under the paper's
    /// three interweaving front-ends.
    pub fn divergent_interweave(ctx: &Ctx) -> Result<PaperBench, String> {
        let names = ["SortingNetworks", "TMD1", "TMD2", "Mandelbrot", "LUD"];
        let configs = [SmConfig::sbi(), SmConfig::swi(), SmConfig::sbi_swi()];
        PaperBench::new(ctx, paper_cells(&names, &configs, None)?)
    }

    /// `mem_hierarchy`: bandwidth-bound kernels on a 4-SM machine with two
    /// shared channels, MSHRs and the shared L2.
    pub fn mem_hierarchy(ctx: &Ctx) -> Result<PaperBench, String> {
        let names = [
            "Transpose",
            "Histogram",
            "BFS",
            "DWTHaar1D",
            "FastWalshTransform",
            "BlackScholes",
            "MatrixMul",
        ];
        let cfg = SmConfig::sbi_swi()
            .with_shared_dram()
            .with_dram_channels(2)
            .with_mshrs(32)
            .with_l2(warpweave_bench::grid::probe_l2())
            .named("SBI+SWI/4sm+2ch+mshr32+l2");
        PaperBench::new(ctx, paper_cells(&names, &[cfg], Some(MACHINE_SMS))?)
    }
}

fn paper_cells(
    names: &[&str],
    configs: &[SmConfig],
    machine_sms: Option<usize>,
) -> Result<Vec<PaperCell>, String> {
    let mut cells = Vec::new();
    for name in names {
        for cfg in configs {
            cells.push(PaperCell {
                workload: by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                cfg: cfg.clone(),
                machine_sms,
            });
        }
    }
    Ok(cells)
}

impl Bench for PaperBench {
    fn rep(&mut self, tr: &mut Tracer, variant: Variant) -> Rep {
        let watch = Stopwatch::start();
        let rep_span = tr.begin("bench.rep", None);
        let (mut failed, mut cycle_drift) = (0, 0);
        for (i, (cell, want)) in self.cells.iter().zip(&self.reference).enumerate() {
            let span = tr.begin("cell", Some(i as u32));
            let outcome = cell.run(self.scale, variant, tr, i as u32);
            tr.end(span);
            match outcome {
                Ok(got) if variant != Variant::Full => cycle_drift += drift(&got, want),
                Ok(got) if got == *want => {}
                Ok(_) => {
                    eprintln!("{}: counters differ from the reference", want.key);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("{}: {e}", want.key);
                    failed += 1;
                }
            }
        }
        tr.end(rep_span);
        Rep {
            time: watch.lap(),
            attempted: self.cells.len() as u64,
            failed,
            cycle_drift,
        }
    }

    fn cells(&self) -> &[CellStat] {
        &self.reference
    }

    fn static_instrs(&self) -> u64 {
        self.static_instrs
    }

    fn has_ablations(&self) -> bool {
        true
    }
}

/// Kernels per fuzz profile and repetition (four profiles).
const FUZZ_KERNELS_PER_PROFILE: usize = 100;
/// Kernels per profile cross-checked against `core::fuzzing::check_policies`
/// during set-up.
const FUZZ_CROSS_CHECKED: usize = 2;

/// `fuzz_kernels`: `isa::fuzz` kernels derived from `--seed`, each lowered
/// and launched under every registry policy — `check_policies`, with the
/// counters kept. Launches are sub-millisecond, so per-launch fixed cost
/// shows here and nowhere else; and it is the one workload whose inputs
/// depend on the seed.
pub struct FuzzBench {
    seed: u64,
    per_profile: usize,
    profiles: Vec<FuzzProfile>,
    policies: Vec<(&'static str, SmConfig)>,
    reference: Vec<CellStat>,
    static_instrs: u64,
}

impl FuzzBench {
    pub fn new(ctx: &Ctx) -> Result<FuzzBench, String> {
        let policies = PolicyRegistry::global_names()
            .into_iter()
            .map(|name| SmConfig::with_policy(name).map(|cfg| (name, cfg)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut bench = FuzzBench {
            seed: ctx.seed,
            per_profile: if ctx.smoke {
                3
            } else {
                FUZZ_KERNELS_PER_PROFILE
            },
            profiles: FuzzProfile::all(),
            policies,
            reference: Vec::new(),
            static_instrs: 0,
        };
        let (cells, static_instrs, failed) = bench.run_all(&mut Tracer::disabled(), Variant::Full);
        if failed > 0 {
            return Err(format!("{failed} fuzz launch(es) failed during set-up"));
        }
        bench.reference = cells;
        bench.static_instrs = static_instrs;
        bench.cross_check()?;
        Ok(bench)
    }

    /// Seed of kernel `index` (the stride `fuzz_smoke` uses).
    pub fn kernel_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The library's own policy sweep must report the IPCs this file's
    /// launch loop measured.
    fn cross_check(&self) -> Result<(), String> {
        for (p, profile) in self.profiles.iter().enumerate() {
            for k in 0..FUZZ_CROSS_CHECKED.min(self.per_profile) {
                let index = p * self.per_profile + k;
                let seed = self.kernel_seed(index);
                let program = fuzz::generate(seed, profile).lower()?;
                let ipcs =
                    check_policies(&program, profile.grid_blocks, profile.block_threads, seed)?;
                let mine = &self.reference[index * self.policies.len()..];
                for ((name, ipc), cell) in ipcs.iter().zip(mine) {
                    if ipc.to_bits() != cell.stats.ipc().to_bits() {
                        return Err(format!(
                            "{}: check_policies reports IPC {ipc} under {name}, this loop {}",
                            cell.key,
                            cell.stats.ipc()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Generates, lowers and launches every kernel. Returns the cells in
    /// launch order, the static instruction count and the failure count.
    fn run_all(&self, tr: &mut Tracer, variant: Variant) -> (Vec<CellStat>, u64, u64) {
        let mut cells = Vec::with_capacity(self.profiles.len() * self.per_profile);
        let (mut static_instrs, mut failed) = (0, 0);
        for (p, profile) in self.profiles.iter().enumerate() {
            for k in 0..self.per_profile {
                let index = p * self.per_profile + k;
                let id = Some(index as u32);
                let seed = self.kernel_seed(index);
                let kernel = tr.begin("cell", id);
                let span = tr.begin("isa.generate", id);
                let plan = fuzz::generate(seed, profile);
                tr.end(span);
                let span = tr.begin("isa.lower", id);
                let lowered = plan.lower();
                tr.end(span);
                match lowered {
                    Ok(program) => {
                        static_instrs += program.len() as u64;
                        for (name, cfg) in &self.policies {
                            let key = format!("{}/{k}/{name}", profile.name);
                            match launch(&program, profile, seed, &variant.apply(cfg), tr, id) {
                                Ok(stats) => cells.push(CellStat::single_sm(key, stats)),
                                Err(e) => {
                                    eprintln!("{key} (seed {seed:#x}): {e}");
                                    failed += 1;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!(
                            "{}/{k} (seed {seed:#x}): lowering failed: {e}",
                            profile.name
                        );
                        failed += self.policies.len() as u64;
                    }
                }
                tr.end(kernel);
            }
        }
        (cells, static_instrs, failed)
    }
}

/// One launch of a generated kernel, as `check_policies` performs it.
fn launch(
    program: &warpweave_isa::Program,
    profile: &FuzzProfile,
    seed: u64,
    cfg: &SmConfig,
    tr: &mut Tracer,
    id: Option<u32>,
) -> Result<Stats, String> {
    let span = tr.begin("mem.space_init", id);
    let mut mem = Memory::new();
    mem.write_words(INPUT_BASE, &fuzz::input_words(seed));
    tr.end(span);
    let span = tr.begin("core.sm_new", id);
    let launch = Launch::new(program.clone(), profile.grid_blocks, profile.block_threads)
        .with_params(fuzz::launch_params(seed));
    let mut sm = Sm::new(cfg.clone(), launch)?;
    sm.set_memory(mem);
    tr.end(span);
    let span = tr.begin("core.sm_run", id);
    let stats = sm
        .run(FUZZ_CYCLE_BUDGET)
        .cloned()
        .map_err(|e| e.to_string());
    tr.end(span);
    stats
}

impl Bench for FuzzBench {
    fn rep(&mut self, tr: &mut Tracer, variant: Variant) -> Rep {
        let watch = Stopwatch::start();
        let rep_span = tr.begin("bench.rep", None);
        let (cells, _, mut failed) = self.run_all(tr, variant);
        tr.end(rep_span);
        let time = watch.lap();
        let pairs = cells.iter().zip(&self.reference);
        let mut cycle_drift = 0;
        if variant == Variant::Full {
            failed += pairs.filter(|(got, want)| got != want).count() as u64;
        } else {
            cycle_drift = pairs.map(|(got, want)| drift(got, want)).sum();
        }
        Rep {
            time,
            attempted: (self.profiles.len() * self.per_profile * self.policies.len()) as u64,
            failed,
            cycle_drift,
        }
    }

    fn cells(&self) -> &[CellStat] {
        &self.reference
    }

    fn static_instrs(&self) -> u64 {
        self.static_instrs
    }

    fn has_ablations(&self) -> bool {
        true
    }
}
