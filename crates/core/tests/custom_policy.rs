//! End-to-end proof of the policy-extension API: a custom scheduler
//! implemented *outside* `warpweave-core`, registered process-wide via
//! [`PolicyRegistry::register_global`], and then constructed purely by
//! name through `SmConfig::with_policy` / `Sm::new` — the "one impl and
//! one registry entry, no pipeline surgery" contract.
//!
//! (This lives in its own integration-test binary because global
//! registration is process-wide state; other test binaries that assert
//! the exact built-in name set must not observe it.)

use warpweave_core::policy::{FetchChannels, FetchPref, IssueCtx, IssuePolicy, Pick, PolicyInfo};
use warpweave_core::{Launch, PolicyRegistry, Sm, SmConfig};
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Pc, Program, SpecialReg};

/// A deliberately simple net-new scheduler: one pool, strict round-robin
/// over warps starting after the last issuer, first ready instruction
/// wins. Single issue per cycle.
#[derive(Debug, Default)]
struct RoundRobinPolicy {
    next: usize,
}

const CHANNELS: FetchChannels = {
    const ANY: &[FetchPref] = &[(None, 0)];
    [ANY, ANY]
};

impl IssuePolicy for RoundRobinPolicy {
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize {
        let nw = ctx.num_warps();
        for k in 0..nw {
            let w = (self.next + k) % nw;
            let Some(ready) = ctx.ready_check(w, 0) else {
                continue;
            };
            let Some(dispatch) = ctx.plan_dispatch(ready.unit) else {
                continue;
            };
            self.next = (w + 1) % nw;
            ctx.commit(
                w,
                &[Pick {
                    ready,
                    dispatch,
                    secondary: false,
                }],
            );
            return 1;
        }
        0
    }

    fn fetch_channels(&self) -> FetchChannels {
        CHANNELS
    }
}

fn round_robin_preset() -> SmConfig {
    let mut cfg = SmConfig::baseline();
    cfg.name = "RoundRobin".into();
    cfg.policy = "RoundRobin".into();
    cfg
}

fn register_round_robin() {
    PolicyRegistry::register_global(
        PolicyInfo::new(
            "RoundRobin",
            "single-pool strict round-robin (extension-API smoke policy)",
            "net-new (test)",
            round_robin_preset,
            |_cfg| Box::new(RoundRobinPolicy::default()),
        )
        .with_aliases(&["rr"]),
    );
}

/// A one-deep cascade — pick this cycle, issue next — written against
/// `issue` + `fetch_channels` alone: state carried between cycles that the
/// SM is told nothing about. A cycle that issues nothing while a pick is
/// in hand is not the start of an idle window.
#[derive(Debug, Default)]
struct DelayedPolicy {
    pending: Option<(usize, Pc)>,
}

impl IssuePolicy for DelayedPolicy {
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize {
        let held = self.pending.take();
        let still = held.and_then(|(w, pc)| ctx.ready_check(w, 0).filter(|r| r.pc == pc));
        if let Some(ready) = still {
            let dispatch = ctx.plan_dispatch(ready.unit).expect("checked port-free");
            ctx.commit(
                ready.warp,
                &[Pick {
                    ready,
                    dispatch,
                    secondary: false,
                }],
            );
        }
        self.pending = ctx.oldest_ready(0, !0, !0).map(|r| (r.warp, r.pc));
        usize::from(still.is_some())
    }

    fn fetch_channels(&self) -> FetchChannels {
        CHANNELS
    }
}

fn delayed_preset() -> SmConfig {
    let mut cfg = SmConfig::baseline();
    cfg.name = "Delayed".into();
    cfg.policy = "Delayed".into();
    cfg
}

/// `out[gtid] = in[gtid] + 1`: one load per thread from a cold L1, so the
/// SM sits idle on DRAM for most of the run.
fn load_kernel() -> Program {
    let mut k = KernelBuilder::new("incr");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.shl(r(1), r(0), 2i32);
    k.iadd(r(2), Operand::Param(0), r(1));
    k.ld(r(3), r(2), 0);
    k.iadd(r(3), r(3), 1i32);
    k.iadd(r(2), Operand::Param(1), r(1));
    k.st(r(2), 0, r(3));
    k.exit();
    k.build().expect("assembles")
}

/// `out[gtid] = gtid * 3 + 1` with a divergent guard, so scheduling
/// mistakes would corrupt results.
fn kernel() -> Program {
    let mut k = KernelBuilder::new("affine");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.and_(r(1), r(0), 1i32);
    k.isetp(p(0), CmpOp::Eq, r(1), 0i32);
    k.bra_if(p(0), "even");
    k.imad(r(2), r(0), 3i32, 1i32);
    k.bra("store");
    k.label("even");
    k.imad(r(2), r(0), 3i32, 1i32);
    k.label("store");
    k.shl(r(3), r(0), 2i32);
    k.iadd(r(3), Operand::Param(0), r(3));
    k.st(r(3), 0, r(2));
    k.exit();
    k.build().expect("assembles")
}

const OUT: u32 = 0x10_0000;

fn run(cfg: SmConfig) -> Vec<u32> {
    let launch = Launch::new(kernel(), 4, 256).with_params(vec![OUT]);
    let mut sm = Sm::new(cfg, launch).expect("builds");
    sm.run(10_000_000).expect("runs");
    sm.memory().read_words(OUT, 4 * 256)
}

#[test]
fn custom_policy_registers_and_runs_by_name() {
    register_round_robin();

    // Resolvable by name and alias, preset round-trips, validates.
    assert!(PolicyRegistry::global_names().contains(&"RoundRobin"));
    let entry = PolicyRegistry::resolve_global("rr").expect("alias resolves");
    assert_eq!(entry.name, "RoundRobin");
    let cfg = SmConfig::with_policy("RoundRobin").expect("preset builds");
    cfg.validate().expect("preset validates");

    // And it actually drives the pipeline: correct results, same memory
    // as the baseline scheduler, and real issue activity.
    let custom = run(cfg);
    let baseline = run(SmConfig::baseline());
    assert_eq!(custom, baseline, "scheduling must not change results");
    for (i, &v) in custom.iter().enumerate() {
        assert_eq!(v, i as u32 * 3 + 1, "slot {i}");
    }
}

#[test]
fn custom_registration_replaces_by_name() {
    const NAME: &str = "ReplacedByNameTest";
    for summary in ["first", "replaced"] {
        PolicyRegistry::register_global(PolicyInfo::new(
            NAME,
            summary,
            "net-new (test)",
            round_robin_preset,
            |_cfg| Box::new(RoundRobinPolicy::default()),
        ));
    }
    let names = PolicyRegistry::global_names();
    assert_eq!(names.iter().filter(|&&n| n == NAME).count(), 1);
    let entry = PolicyRegistry::resolve_global(NAME).expect("registered");
    assert_eq!(entry.summary, "replaced");
}

#[test]
fn stateful_policy_needs_no_fast_forward_hook() {
    PolicyRegistry::register_global(PolicyInfo::new(
        "Delayed",
        "one-deep cascade: picks this cycle, issues next (extension-API smoke policy)",
        "net-new (test)",
        delayed_preset,
        |_cfg| Box::new(DelayedPolicy::default()),
    ));
    const IN: u32 = 0x20_0000;
    const THREADS: usize = 8 * 256;
    let input: Vec<u32> = (0..THREADS as u32).map(|i| i * 7).collect();
    let run = |cfg: SmConfig| {
        let launch = Launch::new(load_kernel(), 8, 256).with_params(vec![IN, OUT]);
        let mut sm = Sm::new(cfg, launch).expect("builds");
        sm.memory_mut().write_words(IN, &input);
        let stats = sm.run(10_000_000).expect("runs").clone();
        (stats, sm.memory().read_words(OUT, THREADS))
    };
    let preset = SmConfig::with_policy("Delayed").expect("preset builds");
    let (jumped, out) = run(preset.clone());
    let (ticked, _) = run(preset.with_fast_forward(false));
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, input[i] + 1, "slot {i}");
    }
    assert!(jumped.idle_cycles > 300, "{} idle", jumped.idle_cycles);
    assert_eq!(jumped, ticked, "the idle jump moved a counter");
}
