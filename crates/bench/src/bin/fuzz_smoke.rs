//! Release-scale sweep of the seeded synthetic-kernel fuzzer.
//!
//! Generates `--count` kernels (round-robin over the fuzz profiles, or a
//! single `--profile`) and drives every kernel through all three fuzz
//! targets — scalar-vs-SoA differential, full policy-registry sweep and
//! 1-vs-8-host-thread determinism under both memory models — then prints
//! a scenario-diversity stats table of per-profile policy IPCs and
//! SBI/SWI-vs-baseline deltas.
//!
//! Usage: `fuzz_smoke [--count N] [--seed S] [--profile NAME]
//!                    [--repro PATH] [--out PATH] [--emit-corpus DIR]`
//!
//! * `--count N` — kernels to generate (default 500; each runs through
//!   all three targets, so this is the per-target count too).
//! * `--seed S` — base seed (decimal or 0x-hex); defaults to the
//!   `WARPWEAVE_FUZZ_SEED` env override, then to a fixed constant.
//! * `--profile NAME` — restrict to one profile
//!   (balanced | regular | pathological | memory_heavy).
//! * `--repro PATH` — where to write the shrunk reproducer on failure
//!   (default `FUZZ_reproducer.wwasm`; CI uploads it as an artifact).
//! * `--out PATH` — also write the stats table as JSON.
//! * `--emit-corpus DIR` — instead of sweeping, write the fixed-seed
//!   reproducer corpus (two kernels per profile) into `DIR` and exit.
//!
//! Every run is wall-clock-free and deterministic in `(seed, count)`; any
//! failure prints a one-line rerun command carrying the seed.

use warpweave_bench::{arg_value, Json};
use warpweave_core::fuzzing::{run_case, CaseOutcome};
use warpweave_isa::fuzz::{self, parse_seed, seed_from_env, FuzzProfile, Reproducer, SEED_ENV};

/// Default base seed when neither `--seed` nor the env override is set.
const DEFAULT_SEED: u64 = 0xf022_5eed;

/// Fixed seeds per profile for `--emit-corpus` — chosen once, committed
/// under `tests/corpus/`, and replayed by `tests/corpus_replay.rs`.
const CORPUS_SEEDS: [u64; 2] = [0x0c0_4b05_0001, 0x0c0_4b05_0002];

/// Per-profile accumulator for the scenario-diversity table.
struct ProfileStats {
    name: &'static str,
    cases: usize,
    instrs: usize,
    /// Sum of IPC per canonical policy name, in registry order.
    ipc_sums: Vec<(String, f64)>,
}

impl ProfileStats {
    fn new(name: &'static str) -> ProfileStats {
        ProfileStats {
            name,
            cases: 0,
            instrs: 0,
            ipc_sums: Vec::new(),
        }
    }

    fn add(&mut self, out: &CaseOutcome) {
        self.cases += 1;
        self.instrs += out.static_instrs;
        if self.ipc_sums.is_empty() {
            self.ipc_sums = out
                .policy_ipcs
                .iter()
                .map(|(n, _)| (n.clone(), 0.0))
                .collect();
        }
        for ((_, sum), (_, ipc)) in self.ipc_sums.iter_mut().zip(&out.policy_ipcs) {
            *sum += ipc;
        }
    }

    fn mean(&self, policy: &str) -> Option<f64> {
        self.ipc_sums
            .iter()
            .find(|(n, _)| n == policy)
            .map(|(_, sum)| sum / self.cases.max(1) as f64)
    }
}

fn emit_corpus(dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let mut written = 0;
    for profile in FuzzProfile::all() {
        for seed in CORPUS_SEEDS {
            let plan = fuzz::generate(seed, &profile);
            let program = plan.lower()?;
            let rep = Reproducer::from_plan(&plan, program);
            let path = format!("{dir}/{}_{seed:012x}.wwasm", profile.name);
            std::fs::write(&path, rep.to_text()).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
            written += 1;
        }
    }
    println!("corpus: {written} reproducers");
    Ok(())
}

fn stats_json(stats: &[ProfileStats], base_seed: u64, count: usize) -> String {
    let rows = stats.iter().filter(|s| s.cases > 0).map(|s| {
        let mean = |sum: f64, decimals| Json::Fixed(sum / s.cases as f64, decimals);
        let ipcs = s
            .ipc_sums
            .iter()
            .map(|(n, sum)| (n.as_str(), mean(*sum, 6)));
        Json::Object(vec![
            ("profile", s.name.into()),
            ("cases", Json::Int(s.cases as u64)),
            ("mean_static_instrs", mean(s.instrs as f64, 1)),
            ("mean_ipc", Json::Object(ipcs.collect())),
        ])
    });
    Json::Object(vec![
        ("schema", "warpweave-fuzz-smoke-v1".into()),
        ("base_seed", Json::Str(format!("{base_seed:#x}"))),
        ("count", Json::Int(count as u64)),
        ("profiles", Json::Lines(rows.collect())),
    ])
    .render()
}

fn print_table(stats: &[ProfileStats]) {
    let policies: Vec<String> = stats
        .iter()
        .find(|s| s.cases > 0)
        .map(|s| s.ipc_sums.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    println!("\nscenario diversity — mean IPC by profile and policy");
    print!("{:<14} {:>6} {:>8}", "profile", "cases", "instrs");
    for p in &policies {
        print!(" {p:>10}");
    }
    println!();
    for s in stats.iter().filter(|s| s.cases > 0) {
        print!(
            "{:<14} {:>6} {:>8.1}",
            s.name,
            s.cases,
            s.instrs as f64 / s.cases as f64
        );
        for p in &policies {
            print!(" {:>10.3}", s.mean(p).unwrap_or(0.0));
        }
        println!();
    }
    // SBI/SWI-vs-baseline deltas: the paper's headline comparison.
    println!("\nspeedup vs Baseline (mean IPC ratio)");
    for s in stats.iter().filter(|s| s.cases > 0) {
        let Some(base) = s.mean("Baseline").filter(|b| *b > 0.0) else {
            continue;
        };
        print!("{:<14}", s.name);
        for p in ["SBI", "SWI", "SBI+SWI"] {
            if let Some(ipc) = s.mean(p) {
                print!(" {p}: {:>6.3}x", ipc / base);
            }
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(dir) = arg_value(&args, "--emit-corpus") {
        if let Err(e) = emit_corpus(&dir) {
            eprintln!("corpus emission failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let count: usize = arg_value(&args, "--count")
        .map(|v| v.parse().expect("--count N"))
        .unwrap_or(500);
    let base_seed = match arg_value(&args, "--seed") {
        Some(v) => parse_seed(&v).expect("--seed takes decimal or 0x-hex"),
        None => seed_from_env(DEFAULT_SEED),
    };
    let repro_path =
        arg_value(&args, "--repro").unwrap_or_else(|| "FUZZ_reproducer.wwasm".to_string());
    let profiles: Vec<FuzzProfile> = match arg_value(&args, "--profile") {
        Some(name) => vec![FuzzProfile::by_name(&name)
            .unwrap_or_else(|| panic!("unknown profile {name} (see --help text in source)"))],
        None => FuzzProfile::all(),
    };
    let mut stats: Vec<ProfileStats> = profiles.iter().map(|p| ProfileStats::new(p.name)).collect();

    println!(
        "fuzz_smoke: {count} kernels, base seed {base_seed:#x}, profiles [{}]",
        profiles
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    for i in 0..count {
        let which = i % profiles.len();
        let seed = base_seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match run_case(seed, &profiles[which]) {
            Ok(out) => stats[which].add(&out),
            Err(fail) => {
                eprintln!("FAILURE after {i} passing kernels: {fail}");
                match std::fs::write(&repro_path, fail.reproducer.to_text()) {
                    Ok(()) => eprintln!("shrunk reproducer written to {repro_path}"),
                    Err(e) => {
                        eprintln!("could not write {repro_path}: {e}; reproducer follows");
                        eprintln!("{}", fail.reproducer.to_text());
                    }
                }
                eprintln!(
                    "rerun: {SEED_ENV}={seed:#x} cargo run --release -p warpweave-bench --bin fuzz_smoke -- --count 1 --profile {}",
                    profiles[which].name
                );
                std::process::exit(1);
            }
        }
        if (i + 1) % 100 == 0 {
            println!("  {}/{count} kernels clean", i + 1);
        }
    }

    print_table(&stats);
    if let Some(out) = arg_value(&args, "--out") {
        let json = stats_json(&stats, base_seed, count);
        std::fs::write(&out, json).expect("write --out");
        println!("\nstats written to {out}");
    }
    println!(
        "\nall {count} kernels clean across differential, policy-sweep and determinism targets"
    );
}
