//! The event-driven issue scans are an optimisation, so they must be
//! invisible: same picks in the same order, at every pool size the `u64`
//! warp sets can hold.
//!
//! Debug builds additionally cross-check every scan against the memo-free
//! reference fold (see `IssueCtx::ready_set`), so these runs also exercise
//! "a clear candidate bit is a guarantee of not-ready".

use warpweave::core::digest::Fnv1a;
use warpweave::core::{IssueSlot, Sm, SmConfig, Stats, SweepRunner};
use warpweave::mem::Memory;
use warpweave::workloads::runner::MAX_CYCLES_PER_LAUNCH;
use warpweave::workloads::{by_name, Scale};

/// One traced, host-verified run.
#[derive(Debug, PartialEq, Eq)]
struct Traced {
    stats: Stats,
    /// Issued instructions.
    picks: u64,
    /// FNV-1a over `(cycle, warp, slot, pc, mask)` of every pick, in
    /// issue order.
    hash: u64,
    /// Highest warp index that issued anything.
    top_warp: usize,
}

fn run_traced(cfg: &SmConfig, workload: &str) -> Traced {
    let prepared = by_name(workload).expect("registered").prepare(Scale::Test);
    let mut mem = Memory::new();
    for (addr, words) in &prepared.inputs {
        mem.write_words(*addr, words);
    }
    let mut out = Traced {
        stats: Stats::default(),
        picks: 0,
        hash: 0,
        top_warp: 0,
    };
    let mut hash = Fnv1a::new();
    for launch in prepared.launches {
        let mut sm = Sm::new(cfg.clone(), launch).expect("valid launch");
        sm.enable_trace();
        sm.set_memory(mem);
        let stats = sm.run(MAX_CYCLES_PER_LAUNCH).expect("kernel completes");
        out.stats.accumulate(stats);
        for e in sm.trace_events() {
            let slot = u64::from(e.slot == IssueSlot::Secondary);
            for field in [e.cycle, e.warp as u64, slot, e.pc.0 as u64, e.mask.bits()] {
                hash.update(&field.to_le_bytes());
            }
            out.picks += 1;
            out.top_warp = out.top_warp.max(e.warp);
        }
        mem = sm.into_memory();
    }
    (prepared.verify)(&mem).unwrap_or_else(|e| panic!("{workload} on {}: {e}", cfg.name));
    out.hash = hash.finish();
    out
}

/// The SWI lookup breaks best-fit ties with the SM's seeded RNG, so the
/// end-of-run counters the golden file holds could survive a reordered
/// draw; the pick *sequence* cannot. `(picks, hash)` pairs taken from the
/// commit before the scans became event-driven (PR 12, f67b500).
#[test]
fn interweaving_pick_sequence_is_pinned() {
    for (cfg, workload, want) in [
        (
            SmConfig::swi(),
            "SortingNetworks",
            (12_468u64, 0x15c1_0f76_b3c7_d99du64),
        ),
        (SmConfig::sbi_swi(), "BFS", (3_930, 0x798d_7418_ab58_b9f4)),
        (
            SmConfig::sbi(),
            "Mandelbrot",
            (10_467, 0xca75_e80a_71c6_b13d),
        ),
    ] {
        let got = run_traced(&cfg, workload);
        assert_eq!(
            (got.picks, got.hash),
            want,
            "{workload} on {}: (picks, hash) = ({}, {:#018x})",
            cfg.name,
            got.picks,
            got.hash
        );
    }
}

/// Bit 63 is where `1 << w` and `(1 << rr) - 1` arithmetic breaks first:
/// with a full 64-warp pool every front-end must run a divergent kernel to
/// completion on all 64 warps, verify against the host reference and be
/// bit-identical at 1 and 8 host threads. (32-wide warps: LUD's 8 × 256
/// test grid is the largest there is, and it fills 64 of those.)
#[test]
fn sixty_four_warp_pool_runs_every_front_end() {
    let configs: Vec<SmConfig> = [
        SmConfig::baseline(),
        SmConfig::sbi(),
        SmConfig::swi(),
        SmConfig::sbi_swi(),
    ]
    .into_iter()
    .map(|mut cfg| {
        cfg.warp_width = 32;
        cfg.with_warps(64)
    })
    .collect();
    let run = |threads: usize| {
        SweepRunner::with_threads(threads).run(&configs, |cfg| run_traced(cfg, "LUD"))
    };
    let serial = run(1);
    assert_eq!(serial, run(8));
    for (cfg, traced) in configs.iter().zip(&serial) {
        assert_eq!(traced.top_warp, 63, "{} never reached warp 63", cfg.name);
    }
}

/// The issue loop does work only where an event caused it. Debug builds
/// count the per-cycle bookkeeping by kind (`Sm::event_audit`); this holds
/// the counts of the three pinned cells, per issued warp-instruction,
/// against the parent commit's (f1f3fa4, counted by a scratch build with
/// the same counters): a fetch channel finds its warp without probing,
/// re-association runs only where it can change something, and the SBI
/// front-ends re-evaluate readiness at least 35 % less often.
#[cfg(debug_assertions)]
#[test]
fn bookkeeping_follows_events() {
    use warpweave::core::EventAudit;

    let parent = |counts: [u64; 6]| EventAudit {
        evaluations: counts[0],
        fetch_probes: counts[1],
        fetch_fills: counts[2],
        validations: counts[3],
        changed_validations: counts[4],
        block_visits: counts[5],
    };
    let cells = [
        (
            SmConfig::swi(),
            "SortingNetworks",
            parent([21_809, 12_595, 12_468, 13_071, 0, 102_028]),
        ),
        (
            SmConfig::sbi_swi(),
            "BFS",
            parent([14_576, 67_939, 3_969, 4_185, 39, 51_196]),
        ),
        (
            SmConfig::sbi(),
            "Mandelbrot",
            parent([38_590, 40_226, 10_499, 10_584, 32, 72_036]),
        ),
    ];
    for (cfg, workload, parent) in cells {
        let prepared = by_name(workload).expect("registered").prepare(Scale::Test);
        let mut mem = Memory::new();
        for (addr, words) in &prepared.inputs {
            mem.write_words(*addr, words);
        }
        let (mut change, mut issued) = (EventAudit::default(), 0);
        for launch in prepared.launches {
            let mut sm = Sm::new(cfg.clone(), launch).expect("valid launch");
            sm.set_memory(mem);
            let stats = sm.run(MAX_CYCLES_PER_LAUNCH).expect("kernel completes");
            issued += stats.warp_instructions;
            let a = sm.event_audit();
            change.evaluations += a.evaluations;
            change.fetch_probes += a.fetch_probes;
            change.fetch_fills += a.fetch_fills;
            change.validations += a.validations;
            change.changed_validations += a.changed_validations;
            change.block_visits += a.block_visits;
            mem = sm.into_memory();
        }
        // One audit as the rows of the report.
        let rows = |a: &EventAudit| {
            let per_issue = |n: u64| n as f64 / issued as f64;
            [
                ("evaluations", per_issue(a.evaluations)),
                (
                    "fetch probes per fill",
                    a.fetch_probes as f64 / a.fetch_fills as f64,
                ),
                ("validations", per_issue(a.validations)),
                (
                    "no-op validations",
                    per_issue(a.validations - a.changed_validations),
                ),
                ("block-slot checks", per_issue(a.block_visits)),
            ]
        };
        println!(
            "{workload} on {} ({issued} warp-instructions), per issue:",
            cfg.name
        );
        for ((name, p), (_, c)) in rows(&parent).into_iter().zip(rows(&change)) {
            println!("  {name:<22} parent {p:7.3}  change {c:7.3}");
        }
        let [(_, evals_before), ..] = rows(&parent);
        let [(_, evals), (_, probes), _, (_, noops), _] = rows(&change);
        assert_eq!(
            change.fetch_fills, parent.fetch_fills,
            "{workload}: fills are behaviour"
        );
        assert!(
            probes <= 1.1,
            "{workload}: {probes:.3} fetch probes per fill"
        );
        assert!(
            noops <= 0.2,
            "{workload}: {noops:.3} no-op validations per issue"
        );
        assert!(
            cfg.name == "SWI" || evals <= 0.65 * evals_before,
            "{workload}: {evals:.3} evaluations per issue, parent {evals_before:.3}"
        );
    }
}
