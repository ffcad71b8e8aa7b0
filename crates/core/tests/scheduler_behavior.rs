//! Focused tests of the paper's scheduling mechanisms: SBI same-group
//! co-issue, reconvergence-constraint suspension, SWI lookup statistics,
//! run-ahead accounting and peak-IPC ceilings.

use warpweave_core::{LaneShuffle, Launch, SimError, SlotState, Sm, SmConfig, Stats};
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Program, SpecialReg};

fn run(cfg: SmConfig, prog: Program, blocks: u32, threads: u32) -> Stats {
    let mut sm = Sm::new(cfg, Launch::new(prog, blocks, threads)).expect("valid config");
    sm.run(20_000_000).expect("finishes").clone()
}

/// Balanced if/else with MAD-heavy arms.
fn balanced(work: usize) -> Program {
    let mut k = KernelBuilder::new("balanced");
    k.and_(r(0), SpecialReg::Tid, 1i32);
    k.isetp(p(0), CmpOp::Eq, r(0), 0i32);
    k.mov(r(2), 1i32);
    k.bra_if(p(0), "even");
    for _ in 0..work {
        k.imad(r(2), r(2), 3i32, 7i32);
    }
    k.bra("join");
    k.label("even");
    for _ in 0..work {
        k.imad(r(2), r(2), 5i32, 11i32);
    }
    k.label("join");
    k.exit();
    k.build().expect("assembles")
}

#[test]
fn sbi_rides_balanced_branches_on_one_mad_group() {
    let stats = run(SmConfig::sbi(), balanced(64), 16, 256);
    // Both arms are MAD chains over disjoint splits: most secondary issues
    // should share the primary's group pass.
    assert!(
        stats.same_group_coissues > stats.warp_instructions / 8,
        "expected substantial same-group co-issue, got {} of {}",
        stats.same_group_coissues,
        stats.warp_instructions
    );
    // And the parallel arms make SBI clearly faster than Warp64.
    let w64 = run(SmConfig::warp64(), balanced(64), 16, 256);
    assert!(stats.cycles * 5 < w64.cycles * 4);
}

#[test]
fn constraints_remove_redundant_instructions() {
    // A divergent loop: without constraints the leading split runs ahead
    // and re-executes blocks with partial masks.
    let mut k = KernelBuilder::new("divloop");
    k.mov(r(0), SpecialReg::Tid);
    k.and_(r(1), r(0), 7i32);
    k.iadd(r(1), r(1), 2i32); // per-thread trip count 2..9
    k.mov(r(2), 0i32);
    k.label("loop");
    k.and_(r(3), r(0), 1i32);
    k.isetp(p(0), CmpOp::Eq, r(3), 0i32);
    k.bra_if(p(0), "even");
    k.imad(r(2), r(2), 3i32, 1i32);
    k.bra("next");
    k.label("even");
    k.imad(r(2), r(2), 5i32, 2i32);
    k.label("next");
    k.iadd(r(1), r(1), -1i32);
    k.isetp(p(1), CmpOp::Gt, r(1), 0i32);
    k.bra_if(p(1), "loop");
    k.exit();
    let prog = k.build().expect("assembles");
    // Parking is the machine's (`sbi_constraints`), so the counter reads
    // the same way under either front-end that fetches the secondary.
    for cfg in [SmConfig::sbi(), SmConfig::sbi_swi()] {
        let name = cfg.name.clone();
        let with = run(cfg.clone().with_constraints(true), prog.clone(), 8, 256);
        let without = run(cfg.with_constraints(false), prog.clone(), 8, 256);
        assert_eq!(with.thread_instructions, without.thread_instructions);
        assert!(
            with.warp_instructions <= without.warp_instructions,
            "{name}: constraints must not increase issued instructions ({} vs {})",
            with.warp_instructions,
            without.warp_instructions
        );
        assert!(
            with.constraint_suspensions > 0,
            "{name}: suspensions should fire"
        );
        assert_eq!(without.constraint_suspensions, 0, "{name}");
    }
}

#[test]
fn swi_lookup_statistics_track_probes_and_hits() {
    let stats = run(SmConfig::swi(), balanced(32), 16, 256);
    assert!(stats.lookup_probes > 0, "SWI must probe the buffer");
    assert!(stats.lookup_hits > 0, "SWI should find co-issues here");
    assert!(stats.lookup_hits <= stats.lookup_probes);
    assert!(
        stats.secondary_issues >= stats.lookup_hits,
        "every lookup hit becomes a secondary issue (plus solo picks)"
    );
}

#[test]
fn peak_ipc_is_respected() {
    // A pure MAD stream cannot exceed the back-end bound of any config.
    let mut k = KernelBuilder::new("stream");
    for i in 0..8 {
        k.mov(r(8 + i), 1i32);
    }
    for _ in 0..64 {
        for i in 0..8 {
            k.imad(r(8 + i), r(8 + i), 3i32, 1i32);
        }
    }
    k.exit();
    let prog = k.build().expect("assembles");
    for cfg in SmConfig::figure7_set() {
        let peak = cfg.peak_ipc() as f64;
        let stats = run(cfg.clone(), prog.clone(), 16, 256);
        assert!(
            stats.ipc() <= peak + 1e-9,
            "{}: IPC {:.1} exceeds peak {peak}",
            cfg.name,
            stats.ipc()
        );
    }
}

#[test]
fn swi_conflict_squash_is_rare_but_observable() {
    // Run several SWI workload shapes; conflicts (secondary picked what the
    // next primary wanted) must stay a small fraction of issues.
    let stats = run(SmConfig::swi(), balanced(16), 16, 256);
    assert!(
        stats.scheduler_conflicts * 10 <= stats.warp_instructions.max(1),
        "conflicts should be rare: {} of {}",
        stats.scheduler_conflicts,
        stats.warp_instructions
    );
}

#[test]
fn lane_shuffle_changes_only_timing_never_results() {
    // Shuffles permute lanes; committed thread-instruction counts are
    // identical, cycles may differ.
    let a = run(
        SmConfig::swi().with_lane_shuffle(LaneShuffle::Identity),
        balanced(16),
        8,
        256,
    );
    let b = run(
        SmConfig::swi().with_lane_shuffle(LaneShuffle::XorRev),
        balanced(16),
        8,
        256,
    );
    assert_eq!(a.thread_instructions, b.thread_instructions);
}

#[test]
fn frontier_and_stack_commit_identical_work() {
    // Same kernel, same committed thread-instructions on stack vs frontier
    // (with constraints keeping SBI convergent).
    let base = run(SmConfig::baseline(), balanced(24), 8, 256);
    let sbi = run(SmConfig::sbi(), balanced(24), 8, 256);
    // 32-wide vs 64-wide warps execute the same per-thread instruction
    // streams.
    assert_eq!(base.thread_instructions, sbi.thread_instructions);
}

/// Half of every warp skips a barrier, so until it releases the two hot
/// contexts sit at one pc — the parked arrivals in front, the run-ahead
/// skippers behind — and an entry fetched for the second is one the first
/// would claim. 8 blocks × 512 threads of it make every pool full.
fn skip_barrier() -> Program {
    let mut k = KernelBuilder::new("skipbar");
    k.and_(r(0), SpecialReg::Tid, 1i32);
    k.isetp(p(0), CmpOp::Eq, r(0), 0i32);
    k.mov(r(2), 1i32);
    k.imad(r(3), r(2), 3i32, 7i32);
    k.bra_if(p(0), "skip");
    k.bar();
    k.label("skip");
    for _ in 0..6 {
        k.imad(r(2), r(2), 5i32, 11i32);
    }
    k.exit();
    k.build().expect("assembles")
}

/// Only SBI+SWI gets through [`skip_barrier`] (its secondary scheduler
/// issues from CPC2 on its own; every primary-led front-end deadlocks on
/// it). Fetch must still hand such a warp to the re-association pass —
/// debug builds assert that every warp it does not is a fixed point of that
/// pass — and what the pass then does is behaviour: counters pinned from the
/// commit before fetch stopped marking every filled warp (f1f3fa4).
#[test]
fn twin_contexts_at_a_barrier_keep_their_entries_apart() {
    let s = run(SmConfig::sbi_swi(), skip_barrier(), 8, 512);
    assert_eq!(
        (s.cycles, s.fetch_squashes, s.secondary_issues),
        (1198, 0, 724),
        "(cycles, fetch_squashes, secondary_issues)"
    );
}

/// The watchdog's report on [`skip_barrier`] under each primary-led
/// front-end, with the idle fast-forward on and off: when it fires, and
/// where the SM says every live warp's two slots stand. Slot 0 waits at the
/// barrier everywhere; slot 1 has no context on a stack, has a context no
/// channel fetches for under Warp64 and SWI, and under SBI holds the SYNC at
/// the join ready to issue — eligible, but the policy's secondary only ever
/// rides a primary.
#[test]
fn primary_led_front_ends_report_why_a_skipped_barrier_hangs() {
    let cases = [
        (SmConfig::baseline(), 100_098, SlotState::NoContext),
        (SmConfig::warp64(), 100_075, SlotState::IbufEmpty),
        (SmConfig::sbi(), 100_083, SlotState::EligibleControl),
        (SmConfig::swi(), 100_077, SlotState::IbufEmpty),
    ];
    for (cfg, at, secondary) in cases {
        for fast_forward in [true, false] {
            let cfg = cfg.clone().with_fast_forward(fast_forward);
            let name = format!("{} (fast_forward {fast_forward})", cfg.policy);
            let mut sm = Sm::new(cfg, Launch::new(skip_barrier(), 8, 512)).expect("valid config");
            let Err(SimError::Deadlock { cycle, warps, .. }) = sm.run(20_000_000) else {
                panic!("{name}: no deadlock");
            };
            assert_eq!(cycle, at, "{name}");
            assert!(!warps.is_empty(), "{name}: no live warp diagnosed");
            for w in &warps {
                let states = w.slots.map(|(_, state)| state);
                assert_eq!(states, [SlotState::AtBarrier, secondary], "{name}: {w}");
            }
        }
    }
}
