//! Harness entry points for the seeded synthetic-kernel fuzzer.
//!
//! [`warpweave_isa::fuzz`] generates structured, always-terminating kernels;
//! this module wires them into the three checks the fuzzer pins:
//!
//! 1. **Differential** ([`check_differential`]) — every instruction of the
//!    generated kernel, driven with random issue masks over random register
//!    state, must be bit-identical between the scalar `execute_thread`
//!    reference and the SoA [`execute_warp`] path (the pipeline's
//!    `execute_rows`, its access rows listed) — the same methodology as
//!    `tests/exec_differential.rs`, but over real lowered programs instead
//!    of free-floating instruction encodings.
//! 2. **Policy sweep** ([`check_policies`]) — every policy in the global
//!    [`PolicyRegistry`] must run the kernel to completion without
//!    scoreboard violations or watchdog deadlocks; per-policy IPC is
//!    returned so callers can build scenario-diversity tables.
//! 3. **Determinism** ([`check_determinism`]) — a 4-SM [`Machine`] run must
//!    be byte-identical between 1 and 8 host threads, under both
//!    [`MemModel::PrivatePerSm`] and [`MemModel::SharedChannel`], and the
//!    final memory image must agree across the two models.
//!
//! [`run_case`] composes the three checks over one `(seed, profile)` pair,
//! greedily shrinks any failure via [`KernelPlan::shrink_candidates`], and
//! serialises the minimised kernel to a replayable [`Reproducer`].
//! [`replay_reproducer`] is the inverse: it re-runs a committed reproducer
//! (e.g. from `tests/corpus/`) through all three checks.

use crate::exec::{execute_thread, execute_warp, guard_passes, ThreadRegs};
use crate::{Launch, Machine, Mask, MemModel, PolicyRegistry, Sm, SmConfig, WarpInfo, WarpRegFile};
use warpweave_isa::fuzz::{
    self, launch_params, splitmix64, FuzzProfile, KernelPlan, Reproducer, ATOM_BASE, INPUT_BASE,
    REGION_WORDS, STORE_BASE,
};
use warpweave_isa::{Instruction, Program, NUM_PREDS, NUM_REGS};
use warpweave_mem::Memory;

/// Watchdog cycle budget per policy/machine run. Generated kernels are
/// counted-loop bounded and finish in well under a million cycles; hitting
/// this budget means a scheduler deadlock or livelock.
pub const FUZZ_CYCLE_BUDGET: u64 = 50_000_000;

/// Cap on shrink-candidate evaluations per failure (each evaluation
/// re-runs the failing check on a candidate kernel).
pub const MAX_SHRINK_EVALS: usize = 300;

/// Which of the three fuzz checks a case failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// The generator itself failed to lower a plan to a valid program.
    Generator,
    /// Scalar `execute_thread` vs SoA `execute_warp` divergence.
    Differential,
    /// A registered policy deadlocked, tripped an invariant or errored.
    PolicySweep,
    /// Host-thread-count or memory-model dependent results.
    Determinism,
}

impl std::fmt::Display for FuzzTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FuzzTarget::Generator => "generator",
            FuzzTarget::Differential => "differential",
            FuzzTarget::PolicySweep => "policy-sweep",
            FuzzTarget::Determinism => "determinism",
        })
    }
}

/// A failing fuzz case, shrunk and ready to serialise.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The check that failed.
    pub target: FuzzTarget,
    /// The failure message from the (shrunk) kernel.
    pub message: String,
    /// Seed of the failing case — [`fuzz::rerun_command`] reruns it.
    pub seed: u64,
    /// Profile name of the failing case.
    pub profile: String,
    /// Shrink-candidate evaluations spent minimising the kernel.
    pub shrink_evals: usize,
    /// The minimised, replayable reproducer.
    pub reproducer: Reproducer,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] seed 0x{:x} profile {}: {} (shrunk in {} evals; rerun with `{}`)",
            self.target,
            self.seed,
            self.profile,
            self.message,
            self.shrink_evals,
            fuzz::rerun_command(self.seed, &self.profile),
        )
    }
}

/// Successful outcome of one fuzz case: the per-policy IPCs recorded by
/// the sweep, for scenario-diversity stats.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Seed the case ran with.
    pub seed: u64,
    /// Profile name the case was generated with.
    pub profile: String,
    /// Static instruction count of the lowered kernel.
    pub static_instrs: usize,
    /// `(canonical policy name, IPC)` for every registered policy.
    pub policy_ipcs: Vec<(String, f64)>,
}

/// The scalar reference: guard check, execute, commit, in ascending thread
/// order, skipping unpopulated threads.
fn scalar_step(
    instr: &Instruction,
    regs: &mut [ThreadRegs],
    info: &WarpInfo,
    mask: Mask,
    populated: Mask,
    params: &[u32],
) -> (Mask, Vec<(usize, u32, u32)>) {
    let mut taken = Mask::EMPTY;
    let mut accesses = Vec::new();
    for t in mask.iter() {
        if !populated.get(t) {
            continue;
        }
        if !guard_passes(instr, &regs[t]) {
            continue;
        }
        let ti = info.thread_info(t);
        let out = execute_thread(instr, &regs[t], &ti, params);
        if out.branch_taken {
            taken = taken.with(t);
        }
        if let Some(addr) = out.mem_addr {
            accesses.push((t, addr, out.mem_data.unwrap_or(0)));
        }
        if let Some((ri, v)) = out.reg_write {
            regs[t].set_reg(ri, v);
        }
        if let Some((pi, v)) = out.pred_write {
            regs[t].set_pred(pi, v);
        }
    }
    (taken, accesses)
}

/// Returns the first architectural-state mismatch between the two layouts.
fn state_mismatch(rf: &WarpRegFile, regs: &[ThreadRegs], width: usize) -> Option<String> {
    for (t, tregs) in regs.iter().enumerate().take(width) {
        for ri in 0..NUM_REGS {
            let (a, b) = (rf.reg(t, ri), tregs.reg(ri));
            if a != b {
                return Some(format!("r{ri} of lane {t}: soa={a:#x} scalar={b:#x}"));
            }
        }
        for pi in 0..NUM_PREDS {
            let (a, b) = (rf.pred(t, pi), tregs.pred(pi));
            if a != b {
                return Some(format!("p{pi} of lane {t}: soa={a} scalar={b}"));
            }
        }
    }
    None
}

/// Runs every instruction of `program` through both execute paths at one
/// warp width, with random issue masks over random initial state.
#[allow(clippy::needless_range_loop)] // (t, reg) indexing mirrors the layout
fn differential_width(
    program: &Program,
    width: usize,
    state_seed: u64,
    params: &[u32],
) -> Result<(), String> {
    let full = Mask::full(width);
    let mut entropy = state_seed ^ 0xd1ff_e2e4_7a11_ce55;
    let populated = Mask::from_bits(splitmix64(&mut entropy) | 1) & full;
    let shuffle = crate::LaneShuffle::ALL[(state_seed % 5) as usize];

    let mut info = WarpInfo::new(width);
    info.seed(
        ((state_seed >> 3) % 64) as u32 * width as u32,
        (state_seed >> 9) as u32 & 0xff,
        256,
        16,
        (state_seed >> 17) as u32 % 16,
        shuffle,
        width,
        16,
    );

    // Identical random initial state in both layouts.
    let mut rf = WarpRegFile::new(width);
    let mut regs: Vec<ThreadRegs> = (0..width).map(|_| ThreadRegs::new()).collect();
    let mut s = state_seed;
    for t in 0..width {
        for ri in 0..NUM_REGS {
            let v = splitmix64(&mut s) as u32;
            rf.set_reg(t, ri, v);
            regs[t].set_reg(ri, v);
        }
        for pi in 0..NUM_PREDS {
            let v = splitmix64(&mut s) & 1 == 1;
            rf.set_pred(t, pi, v);
            regs[t].set_pred(pi, v);
        }
    }

    let mut soa_accesses: Vec<(usize, u32, u32)> = Vec::new();
    for (n, instr) in program.instructions().iter().enumerate() {
        // A fresh (possibly partial) issue mask per instruction.
        let mask = Mask::from_bits(splitmix64(&mut entropy)) & full;
        let active = mask & populated;

        let soa_taken = execute_warp(instr, &mut rf, &info, params, active, &mut soa_accesses);
        let (ref_taken, ref_accesses) =
            scalar_step(instr, &mut regs, &info, mask, populated, params);

        let ctx = format!("instr #{n} ({}) width {width}", instr.op);
        if soa_taken != ref_taken {
            return Err(format!(
                "{ctx}: taken mask diverged (soa {:#x} vs scalar {:#x})",
                soa_taken.bits(),
                ref_taken.bits()
            ));
        }
        if soa_accesses != ref_accesses {
            return Err(format!("{ctx}: access list diverged"));
        }
        if let Some(m) = state_mismatch(&rf, &regs, width) {
            return Err(format!("{ctx}: {m}"));
        }
        soa_accesses.clear();
    }
    Ok(())
}

/// Differential target: the kernel must be bit-identical between the
/// scalar `execute_thread` reference and the SoA [`execute_warp`] path at
/// warp widths 4, 32 and 64.
///
/// # Errors
/// Returns the first divergence (instruction, lane, register, values).
pub fn check_differential(program: &Program, seed: u64) -> Result<(), String> {
    let params = launch_params(seed);
    for width in [4usize, 32, 64] {
        differential_width(program, width, seed, &params)?;
    }
    Ok(())
}

/// Initial global memory for a generated kernel: the input region filled
/// with seed-derived words (store/atomic regions start zeroed).
fn fuzz_memory(seed: u64) -> Memory {
    let mut mem = Memory::new();
    mem.write_words(INPUT_BASE, &fuzz::input_words(seed));
    mem
}

/// Policy-sweep target: every policy registered in the global
/// [`PolicyRegistry`] must run the kernel to completion within
/// [`FUZZ_CYCLE_BUDGET`] cycles. Returns `(canonical name, IPC)` per
/// policy for scenario-diversity stats.
///
/// # Errors
/// Returns the first policy that failed to construct, tripped a
/// scoreboard/pipeline invariant or exhausted the watchdog budget.
pub fn check_policies(
    program: &Program,
    grid_blocks: u32,
    block_threads: u32,
    seed: u64,
) -> Result<Vec<(String, f64)>, String> {
    let params = launch_params(seed);
    let mut ipcs = Vec::new();
    for name in PolicyRegistry::global_names() {
        let cfg = SmConfig::with_policy(name).map_err(|e| format!("policy {name}: {e}"))?;
        let launch =
            Launch::new(program.clone(), grid_blocks, block_threads).with_params(params.clone());
        let mut sm =
            Sm::new(cfg, launch).map_err(|e| format!("policy {name}: setup failed: {e}"))?;
        sm.set_memory(fuzz_memory(seed));
        let stats = sm
            .run(FUZZ_CYCLE_BUDGET)
            .map_err(|e| format!("policy {name}: {e}"))?;
        ipcs.push((name.to_string(), stats.ipc()));
    }
    Ok(ipcs)
}

/// Fingerprint of the three fuzz memory regions after a run.
fn region_image(mem: &Memory) -> Vec<u32> {
    let mut image = mem.read_words(STORE_BASE, REGION_WORDS);
    image.extend(mem.read_words(ATOM_BASE, REGION_WORDS));
    image.extend(mem.read_words(INPUT_BASE, REGION_WORDS));
    image
}

/// Determinism target: a 4-SM [`Machine`] run of the kernel must be
/// byte-identical between 1 and 8 host threads under both
/// [`MemModel::PrivatePerSm`] and [`MemModel::SharedChannel`]. The final
/// memory image is *not* compared across the two models: conflicting
/// plain stores from different warps land in issue order, which the
/// memory contract deliberately leaves config-dependent (see
/// `machine.rs` module docs) — only same-config thread-count invariance
/// is guaranteed. The policy alternates with seed parity (Baseline /
/// SBI+SWI) so both front-end families get pinned over a long fuzz run.
///
/// # Errors
/// Returns which run pair diverged (stats or memory image) or the first
/// simulation error.
pub fn check_determinism(
    program: &Program,
    grid_blocks: u32,
    block_threads: u32,
    seed: u64,
) -> Result<(), String> {
    let policy = if seed & 1 == 0 { "Baseline" } else { "SBI+SWI" };
    let params = launch_params(seed);
    for model in [MemModel::PrivatePerSm, MemModel::SharedChannel] {
        let mut baseline: Option<(crate::MachineStats, Vec<u32>)> = None;
        for threads in [1usize, 8] {
            let cfg = SmConfig::with_policy(policy)
                .map_err(|e| format!("policy {policy}: {e}"))?
                .with_mem_model(model);
            let launch = Launch::new(program.clone(), grid_blocks, block_threads)
                .with_params(params.clone());
            let mut machine = Machine::new(cfg, 4, launch)
                .map_err(|e| format!("{model:?}/{threads}t: setup failed: {e}"))?
                .with_threads(threads);
            machine.set_memory(fuzz_memory(seed));
            let stats = machine
                .run(FUZZ_CYCLE_BUDGET)
                .map_err(|e| format!("{model:?}/{threads}t/{policy}: {e}"))?
                .clone();
            let image = region_image(machine.memory());
            match &baseline {
                None => baseline = Some((stats, image)),
                Some((stats1, image1)) => {
                    if &stats != stats1 {
                        return Err(format!(
                            "{model:?}/{policy}: stats differ between 1 and {threads} host threads"
                        ));
                    }
                    if &image != image1 {
                        return Err(format!(
                            "{model:?}/{policy}: memory image differs between 1 and {threads} host threads"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Greedily shrinks `plan` while `check` keeps failing, bounded by
/// [`MAX_SHRINK_EVALS`]. Returns the minimised plan, its program, the
/// final failure message and the evaluations spent.
fn shrink_failure<F>(
    plan: &KernelPlan,
    program: Program,
    message: String,
    check: F,
) -> (KernelPlan, Program, String, usize)
where
    F: Fn(&Program) -> Option<String>,
{
    let mut best = (plan.clone(), program, message);
    let mut evals = 0usize;
    'outer: loop {
        for cand in best.0.shrink_candidates() {
            if evals >= MAX_SHRINK_EVALS {
                break 'outer;
            }
            let Ok(prog) = cand.lower() else { continue };
            evals += 1;
            if let Some(msg) = check(&prog) {
                best = (cand, prog, msg);
                continue 'outer;
            }
        }
        break;
    }
    (best.0, best.1, best.2, evals)
}

fn failure(
    target: FuzzTarget,
    plan: &KernelPlan,
    program: Program,
    message: String,
    check: impl Fn(&Program) -> Option<String>,
) -> Box<FuzzFailure> {
    let (plan, program, message, shrink_evals) = shrink_failure(plan, program, message, check);
    Box::new(FuzzFailure {
        target,
        message,
        seed: plan.seed,
        profile: plan.profile.name.to_string(),
        shrink_evals,
        reproducer: Reproducer::from_plan(&plan, program),
    })
}

/// Generates one kernel from `(seed, profile)` and runs it through all
/// three fuzz targets, shrinking and serialising any failure.
///
/// # Errors
/// A [`FuzzFailure`] holding the minimised, replayable reproducer.
pub fn run_case(seed: u64, profile: &FuzzProfile) -> Result<CaseOutcome, Box<FuzzFailure>> {
    let plan = fuzz::generate(seed, profile);
    let program = match plan.lower() {
        Ok(p) => p,
        Err(e) => {
            // The generator contract is that every plan lowers; surface
            // the seed rather than shrinking (there is nothing to run).
            let mut k = warpweave_isa::KernelBuilder::new("lower_failed");
            k.exit();
            let stub = k.build().expect("stub program");
            return Err(Box::new(FuzzFailure {
                target: FuzzTarget::Generator,
                message: e,
                seed,
                profile: profile.name.to_string(),
                shrink_evals: 0,
                reproducer: Reproducer::from_plan(&plan, stub),
            }));
        }
    };
    let (grid, block) = (profile.grid_blocks, profile.block_threads);

    if let Err(msg) = check_differential(&program, seed) {
        return Err(failure(
            FuzzTarget::Differential,
            &plan,
            program,
            msg,
            |p| check_differential(p, seed).err(),
        ));
    }
    let policy_ipcs = match check_policies(&program, grid, block, seed) {
        Ok(ipcs) => ipcs,
        Err(msg) => {
            return Err(failure(FuzzTarget::PolicySweep, &plan, program, msg, |p| {
                check_policies(p, grid, block, seed).err()
            }));
        }
    };
    if let Err(msg) = check_determinism(&program, grid, block, seed) {
        return Err(failure(FuzzTarget::Determinism, &plan, program, msg, |p| {
            check_determinism(p, grid, block, seed).err()
        }));
    }

    Ok(CaseOutcome {
        seed,
        profile: profile.name.to_string(),
        static_instrs: program.len(),
        policy_ipcs,
    })
}

/// Replays a serialised reproducer (e.g. from `tests/corpus/`) through all
/// three fuzz targets. Returns the policy-sweep IPCs on success.
///
/// # Errors
/// Returns the failing target and message.
pub fn replay_reproducer(rep: &Reproducer) -> Result<Vec<(String, f64)>, String> {
    check_differential(&rep.program, rep.seed).map_err(|e| format!("differential: {e}"))?;
    let ipcs = check_policies(&rep.program, rep.grid_blocks, rep.block_threads, rep.seed)
        .map_err(|e| format!("policy-sweep: {e}"))?;
    check_determinism(&rep.program, rep.grid_blocks, rep.block_threads, rep.seed)
        .map_err(|e| format!("determinism: {e}"))?;
    Ok(ipcs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_case_per_profile_passes() {
        for profile in FuzzProfile::all() {
            let out = run_case(0x5eed_0001, &profile).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(out.profile, profile.name);
            assert!(out.static_instrs > 0);
            assert_eq!(out.policy_ipcs.len(), PolicyRegistry::global_names().len());
            for (name, ipc) in &out.policy_ipcs {
                assert!(*ipc > 0.0, "{name} reported zero IPC");
            }
        }
    }

    #[test]
    fn replay_matches_fresh_run() {
        let profile = FuzzProfile::balanced();
        let plan = fuzz::generate(0xfeed_cafe, &profile);
        let program = plan.lower().unwrap();
        let rep = Reproducer::from_plan(&plan, program);
        let text = rep.to_text();
        let parsed = Reproducer::from_text(&text).unwrap();
        let ipcs = replay_reproducer(&parsed).unwrap();
        let fresh = run_case(0xfeed_cafe, &profile).unwrap();
        assert_eq!(ipcs, fresh.policy_ipcs, "replay must reproduce the sweep");
    }

    #[test]
    fn shrink_loop_minimises_synthetic_failure() {
        // A synthetic "failure" — any kernel with a store instruction —
        // must shrink to something small that still stores.
        let profile = FuzzProfile::memory_heavy();
        let plan = fuzz::generate(0xabad_cafe, &profile);
        let program = plan.lower().unwrap();
        let has_store = |p: &Program| {
            p.instructions()
                .iter()
                .any(|i| i.op == warpweave_isa::Op::St)
                .then(|| "has a store".to_string())
        };
        let msg = has_store(&program).expect("memory_heavy kernel should store");
        let (shrunk, prog, _, evals) = shrink_failure(&plan, program.clone(), msg, has_store);
        assert!(evals > 0, "shrinker must explore candidates");
        assert!(
            shrunk.size() < plan.size(),
            "shrinker failed to reduce the plan"
        );
        assert!(has_store(&prog).is_some(), "shrunk kernel lost the failure");
    }
}
