//! Equivalence and determinism guarantees of the pluggable issue-policy
//! registry:
//!
//! * every registered policy name round-trips through config
//!   serialization — the preset's `policy` field resolves back to the
//!   same entry, and a sweep checkpoint keyed by each policy's config
//!   label resumes exactly;
//! * the paper's five front-end configurations produce **bit-identical**
//!   statistics (all 35 counters) to the committed `BENCH_golden.json`
//!   when constructed via the new registry path (`SmConfig::with_policy`),
//!   and the golden parser that reads them back loses nothing: parse →
//!   render reproduces the committed file byte for byte;
//! * the net-new `GreedyThenOldest` policy is selectable from the
//!   registry, differs from the baseline order, is bit-identical across 1
//!   and 8 host threads on a multi-SM machine, and has every counter of
//!   three runs pinned (no golden cell runs it).

use warpweave_bench::grid::{
    figure7_configs, grid_id, grid_jobs, quick_workloads, sweep_workloads,
};
use warpweave_bench::harness::cell_key;
use warpweave_bench::{
    matrix_from_store, parse_golden_cells, probes_from_store, render_golden_json,
};
use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::{Launch, Machine, MachineStats, PolicyRegistry, SmConfig};
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program, SpecialReg};
use warpweave_workloads::Scale;

/// The committed golden baseline at the workspace root.
fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_golden.json")
}

#[test]
fn registry_names_round_trip_through_config_serialization() {
    let names = PolicyRegistry::global_names();
    assert!(
        names.contains(&"GreedyThenOldest"),
        "the net-new policy must be registered"
    );
    for name in &names {
        let cfg = SmConfig::with_policy(name).expect("registered name builds a preset");
        // The serialized face of a config's policy is its name: it must
        // resolve back to the same registry entry, and validate.
        let entry = PolicyRegistry::resolve_global(&cfg.policy)
            .unwrap_or_else(|| panic!("preset policy '{}' does not resolve", cfg.policy));
        assert_eq!(entry.name, *name);
        cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    // And through the on-disk checkpoint format: one cell per policy,
    // keyed by the preset's config label, written and resumed exactly.
    let dir = std::env::temp_dir().join(format!("warpweave-policy-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("policies.checkpoint");
    let path = path.to_str().expect("utf-8 temp path");
    let grid = 0x9e3779b97f4a7c15u64;
    {
        let mut store = SweepCheckpoint::resume(path, grid).expect("fresh checkpoint");
        for (i, name) in names.iter().enumerate() {
            let cfg = SmConfig::with_policy(name).expect("registered");
            let stats = warpweave_core::Stats {
                cycles: 100 + i as u64,
                ..Default::default()
            };
            store
                .record(&cell_key("RoundTrip", &cfg.name), CellRecord::new(stats))
                .expect("record");
        }
    }
    let store = SweepCheckpoint::resume(path, grid).expect("resume");
    for (i, name) in names.iter().enumerate() {
        let cfg = SmConfig::with_policy(name).expect("registered");
        let rec = store
            .get(&cell_key("RoundTrip", &cfg.name))
            .unwrap_or_else(|| panic!("{name}: cell lost in round trip"));
        assert_eq!(rec.stats.cycles, 100 + i as u64, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_frontends_match_golden_via_registry_path() {
    let text = std::fs::read_to_string(golden_path())
        .expect("committed BENCH_golden.json at the workspace root");
    let cells = parse_golden_cells(&text).expect("committed baseline parses");
    let configs: Vec<SmConfig> = ["Baseline", "Warp64", "SBI", "SWI", "SBI+SWI"]
        .iter()
        .map(|name| SmConfig::with_policy(name).expect("registered"))
        .collect();
    // MatrixMul and SortingNetworks: one regular, one irregular.
    let mut checked = 0usize;
    for job in grid_jobs(&configs, &quick_workloads()) {
        if job.is_probe() {
            continue;
        }
        let (_, golden) = cells
            .iter()
            .find(|(key, _)| *key == job.key)
            .unwrap_or_else(|| panic!("golden baseline has no cell '{}'", job.key));
        let record = job
            .run(Scale::Test, false)
            .unwrap_or_else(|e| panic!("{}: {e}", job.key));
        assert_eq!(
            record, *golden,
            "{}: registry-constructed run drifted from BENCH_golden.json",
            job.key
        );
        checked += 1;
    }
    assert_eq!(checked, 10);
}

#[test]
fn committed_golden_file_round_trips_through_the_parser() {
    let text = std::fs::read_to_string(golden_path())
        .expect("committed BENCH_golden.json at the workspace root");
    let cells = parse_golden_cells(&text).expect("committed baseline parses");
    assert_eq!(cells.len(), 105 + 7);
    assert_eq!(cells.iter().filter(|(_, r)| r.channel.is_some()).count(), 7);
    // Rebuild the renderer's inputs from the parsed records alone: if the
    // result is the committed file byte for byte, no counter of any of the
    // 112 lines — channel sections included — was lost or moved in the parse.
    let mut store = SweepCheckpoint::in_memory(0);
    for (key, record) in &cells {
        store.record(key, record.clone()).expect("distinct keys");
    }
    let (configs, workloads) = (figure7_configs(), sweep_workloads(true));
    let matrix = matrix_from_store(&configs, &workloads, &store).expect("all 105 cells");
    let probes = probes_from_store(&store).expect("all 7 probes");
    let id = grid_id(&configs, &workloads, Scale::Test);
    let rendered = render_golden_json("test", id, &matrix, &probes);
    assert_eq!(rendered, text);
    assert_eq!(parse_golden_cells(&rendered).as_ref(), Ok(&cells));
}

/// A divergent kernel with data-dependent trip counts (the
/// multi-SM-determinism workhorse): `out[gtid] = collatz_steps(gtid % 37)`.
fn collatz_program() -> Program {
    let mut k = KernelBuilder::new("collatz");
    k.mov(r(0), SpecialReg::CtaId);
    k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
    k.mov(r(1), r(0));
    k.label("mod");
    k.isetp(p(0), CmpOp::Ge, r(1), 37i32);
    k.guard_t(p(0)).isub(r(1), r(1), 37i32);
    k.bra_if(p(0), "mod");
    k.iadd(r(1), r(1), 1i32);
    k.mov(r(2), 0i32);
    k.label("loop");
    k.isetp(p(1), CmpOp::Le, r(1), 1i32);
    k.bra_if(p(1), "done");
    k.and_(r(3), r(1), 1i32);
    k.isetp(p(2), CmpOp::Eq, r(3), 0i32);
    k.bra_if(p(2), "even");
    k.imad(r(1), r(1), 3i32, 1i32);
    k.bra("next");
    k.label("even");
    k.shr(r(1), r(1), 1i32);
    k.label("next");
    k.iadd(r(2), r(2), 1i32);
    k.bra("loop");
    k.label("done");
    k.shl(r(4), r(0), 2i32);
    k.iadd(r(4), Operand::Param(0), r(4));
    k.st(r(4), 0, r(2));
    k.exit();
    k.build().expect("collatz assembles")
}

const OUT: u32 = 0x10_0000;

fn run_gto_machine(threads: usize) -> (MachineStats, Vec<u32>) {
    let launch = Launch::new(collatz_program(), 12, 256).with_params(vec![OUT]);
    let mut machine = Machine::new(SmConfig::greedy_then_oldest(), 4, launch)
        .expect("GTO machine builds")
        .with_threads(threads);
    let stats = machine.run(50_000_000).expect("GTO machine runs").clone();
    let words = machine.memory().read_words(OUT, 12 * 256);
    (stats, words)
}

#[test]
fn greedy_then_oldest_is_deterministic_across_host_threads() {
    let (reference, ref_mem) = run_gto_machine(1);
    let (eight, mem8) = run_gto_machine(8);
    assert_eq!(eight, reference, "GTO stats diverged at 8 host threads");
    assert_eq!(mem8, ref_mem, "GTO memory diverged at 8 host threads");
    assert!(reference.total.thread_instructions > 0);
}

/// Every counter of `stats` as one `name=value,…` line.
fn field_line(stats: &warpweave_core::Stats) -> String {
    stats
        .to_fields()
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn greedy_then_oldest_counters_are_pinned() {
    // No golden cell runs GTO, so these lines are its only record: every
    // counter of the collatz kernel on one SM and of the quick grid's two
    // workloads at test scale, recorded at the commit where every policy
    // still carried a scheduling order.
    let launch = Launch::new(collatz_program(), 6, 256).with_params(vec![OUT]);
    let mut sm = warpweave_core::Sm::new(SmConfig::greedy_then_oldest(), launch).expect("builds");
    let stats = sm.run(50_000_000).expect("runs");
    let mut got = vec![("collatz".to_string(), field_line(stats))];
    for job in grid_jobs(&[SmConfig::greedy_then_oldest()], &quick_workloads()) {
        if !job.is_probe() {
            let record = job.run(Scale::Test, true).expect("verified run");
            got.push((job.key, field_line(&record.stats)));
        }
    }
    let want = [
        (
            "collatz",
            "cycles=28674,thread_instructions=365930,warp_instructions=56214,\
             primary_issues=56214,secondary_issues=0,same_group_coissues=0,\
             other_group_coissues=0,fetch_squashes=0,scheduler_conflicts=0,\
             constraint_suspensions=0,lookup_probes=0,lookup_hits=0,lsu_transactions=48,\
             lsu_replays=0,idle_cycles=100,barrier_releases=0,blocks_completed=6,\
             max_stack_depth=4,heap_max_live_splits=0,heap_spills=0,heap_degraded_inserts=0,\
             heap_merges=0,l1_load_hits=0,l1_load_misses=0,l1_stores=48,\
             dram_read_transfers=0,dram_write_transfers=48,dram_queued_loads=0,\
             dram_queue_delay=0,dram_max_queue_delay=0,mshr_merges=0,mshr_bypasses=0,\
             superblock_enters=0,superblock_covered=0,superblock_aborts=0",
        ),
        (
            "MatrixMul/GreedyThenOldest",
            "cycles=3217,thread_instructions=137216,warp_instructions=4288,\
             primary_issues=4288,secondary_issues=0,same_group_coissues=0,\
             other_group_coissues=0,fetch_squashes=0,scheduler_conflicts=0,\
             constraint_suspensions=0,lookup_probes=0,lookup_hits=0,lsu_transactions=2496,\
             lsu_replays=160,idle_cycles=417,barrier_releases=16,blocks_completed=4,\
             max_stack_depth=1,heap_max_live_splits=0,heap_spills=0,heap_degraded_inserts=0,\
             heap_merges=0,l1_load_hits=192,l1_load_misses=64,l1_stores=64,\
             dram_read_transfers=64,dram_write_transfers=64,dram_queued_loads=63,\
             dram_queue_delay=16188,dram_max_queue_delay=487,mshr_merges=0,mshr_bypasses=0,\
             superblock_enters=0,superblock_covered=0,superblock_aborts=0",
        ),
        (
            "SortingNetworks/GreedyThenOldest",
            "cycles=14433,thread_instructions=753646,warp_instructions=24866,\
             primary_issues=24866,secondary_issues=0,same_group_coissues=0,\
             other_group_coissues=0,fetch_squashes=0,scheduler_conflicts=0,\
             constraint_suspensions=0,lookup_probes=0,lookup_hits=0,lsu_transactions=10174,\
             lsu_replays=4284,idle_cycles=888,barrier_releases=184,blocks_completed=4,\
             max_stack_depth=2,heap_max_live_splits=0,heap_spills=0,heap_degraded_inserts=0,\
             heap_merges=0,l1_load_hits=0,l1_load_misses=64,l1_stores=64,\
             dram_read_transfers=64,dram_write_transfers=64,dram_queued_loads=63,\
             dram_queue_delay=23759,dram_max_queue_delay=743,mshr_merges=0,mshr_bypasses=0,\
             superblock_enters=0,superblock_covered=0,superblock_aborts=0",
        ),
    ];
    let want: Vec<(String, String)> = want
        .iter()
        .map(|&(key, line)| (key.to_string(), line.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn greedy_then_oldest_changes_the_schedule_but_not_the_result() {
    // GTO is the same machine as the baseline with a different walk
    // order: results (architectural memory) must match, while the
    // schedule (cycle counts) is genuinely different on a kernel with
    // inter-warp imbalance.
    let run = |cfg: SmConfig| {
        let launch = Launch::new(collatz_program(), 6, 256).with_params(vec![OUT]);
        let mut sm = warpweave_core::Sm::new(cfg, launch).expect("builds");
        let stats = sm.run(50_000_000).expect("runs").clone();
        let mem = sm.memory().read_words(OUT, 6 * 256);
        (stats, mem)
    };
    let (base_stats, base_mem) = run(SmConfig::baseline());
    let (gto_stats, gto_mem) = run(SmConfig::greedy_then_oldest());
    assert_eq!(
        gto_mem, base_mem,
        "scheduling order must not change results"
    );
    assert_eq!(
        gto_stats.thread_instructions, base_stats.thread_instructions,
        "same work, different order"
    );
    assert_ne!(
        (gto_stats.cycles, gto_stats.idle_cycles),
        (base_stats.cycles, base_stats.idle_cycles),
        "GTO should produce a different schedule on an imbalanced kernel"
    );
}
