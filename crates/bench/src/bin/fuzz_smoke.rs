//! Release-scale sweep of the seeded synthetic-kernel fuzzer.
//!
//! `fuzz_smoke [sweep] [--count N] [--seed S] [--profile NAME]
//! [--repro PATH] [--out PATH]` generates `--count` kernels (default 500,
//! round-robin over the fuzz profiles, or only `--profile`: balanced |
//! regular | pathological | memory_heavy) from the base seed (decimal or
//! 0x-hex, default `0xf0225eed`) and drives every kernel through all three
//! fuzz targets — scalar-vs-SoA differential, full policy-registry sweep
//! and 1-vs-8-host-thread determinism under both memory models — then
//! prints a scenario-diversity table of per-profile policy IPCs and
//! SBI/SWI-vs-baseline deltas (`--out`: also as JSON). A failure writes
//! the shrunk reproducer to `--repro` (default `FUZZ_reproducer.wwasm`;
//! CI uploads it) and prints the one command that reruns exactly that
//! case: `fuzz_smoke --seed S --count 1 --profile P`.
//!
//! `fuzz_smoke emit-corpus DIR` writes the fixed-seed reproducer corpus
//! (two kernels per profile) into `DIR`.
//!
//! Every run is wall-clock-free and deterministic in `(seed, count)`.
//! Exit codes: 0 clean, 1 a failing kernel or a failed write, 2 usage (one
//! stderr line; `warpweave_bench::cli::fuzz_smoke` is the parser).

use std::process::ExitCode;

use warpweave_bench::cli::{self, Args};
use warpweave_bench::Json;
use warpweave_core::fuzzing::{run_case, CaseOutcome};
use warpweave_isa::fuzz::{self, FuzzProfile, Reproducer};

/// Fixed seeds per profile for `emit-corpus` — chosen once, committed
/// under `tests/corpus/`, and replayed by `tests/corpus_replay.rs`.
const CORPUS_SEEDS: [u64; 2] = [0x0c0_4b05_0001, 0x0c0_4b05_0002];

/// Per-profile accumulator for the scenario-diversity table.
#[derive(Default)]
struct ProfileStats {
    name: &'static str,
    cases: usize,
    instrs: usize,
    /// Sum of IPC per canonical policy name, in registry order.
    ipc_sums: Vec<(String, f64)>,
}

impl ProfileStats {
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match cli::fuzz_smoke(&args) {
        Ok((a, _)) if a.command == "emit-corpus" => emit_corpus(&a.operands[0]),
        Ok((a, seed)) => fuzz_sweep(&a, seed),
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn fuzz_sweep(a: &Args, base_seed: u64) -> Result<(), String> {
    let count = a.number("--count").unwrap_or(500);
    let profiles = match a.value("--profile") {
        Some(name) => FuzzProfile::by_name(name).into_iter().collect(),
        None => FuzzProfile::all(),
    };
    let stats = profiles.iter().map(|p| ProfileStats {
        name: p.name,
        ..ProfileStats::default()
    });
    let mut stats: Vec<ProfileStats> = stats.collect();
    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    println!(
        "fuzz_smoke: {count} kernels, base seed {base_seed:#x}, profiles [{}]",
        names.join(", ")
    );
    for i in 0..count {
        let which = i % profiles.len();
        let seed = base_seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match run_case(seed, &profiles[which]) {
            Ok(out) => stats[which].add(&out),
            Err(fail) => {
                eprintln!("FAILURE after {i} passing kernels: {fail}");
                let repro = a.value("--repro").unwrap_or("FUZZ_reproducer.wwasm");
                match std::fs::write(repro, fail.reproducer.to_text()) {
                    Ok(()) => eprintln!("shrunk reproducer written to {repro}"),
                    Err(e) => {
                        eprintln!("could not write {repro}: {e}; reproducer follows");
                        eprintln!("{}", fail.reproducer.to_text());
                    }
                }
                let rerun = fuzz::rerun_command(seed, profiles[which].name);
                return Err(format!("rerun: {rerun}"));
            }
        }
        if (i + 1) % 100 == 0 {
            println!("  {}/{count} kernels clean", i + 1);
        }
    }

    print_table(&stats);
    if let Some(out) = a.value("--out") {
        let json = stats_json(&stats, base_seed, count);
        std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
        println!("\nstats written to {out}");
    }
    println!(
        "\nall {count} kernels clean across differential, policy-sweep and determinism targets"
    );
    Ok(())
}
