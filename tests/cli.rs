//! The one command-line parser (`bench::cli`): each binary's parse is a
//! library function, every bad invocation is refused with one line, and
//! every invocation CI and `scripts/` use parses to the command it means.
//! (`figure`'s table of bad invocations is in `tests/figures.rs`.)

use warpweave::bench::cli::{self, Args, Sweep};
use warpweave::bench::grid;
use warpweave::isa::fuzz::{rerun_command, FuzzProfile};
use warpweave::serve::cli::{sweep_client, sweep_serve};
use warpweave::serve::RunRequest;

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// Asserts `parse` refuses every line of `bad` with one non-empty line.
fn refused<T: std::fmt::Debug>(parse: fn(&[String]) -> Result<T, String>, bad: &[&str]) {
    for line in bad {
        match parse(&args(line)) {
            Ok(parsed) => panic!("`{line}` parsed: {parsed:?}"),
            Err(e) => assert!(!e.is_empty() && !e.contains('\n'), "`{line}`: {e:?}"),
        }
    }
}

fn sweep(line: &str) -> Sweep {
    cli::bench_sweep(&args(line)).unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

fn fuzz(line: &str) -> (Args, u64) {
    cli::fuzz_smoke(&args(line)).unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

fn client(line: &str) -> (Args, RunRequest) {
    sweep_client(&args(line)).unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

#[test]
fn bench_sweep_refuses_bad_invocations() {
    refused(
        cli::bench_sweep,
        &[
            "--bogus",
            "--bogus-flag frontends",
            "--threads",
            "--out",
            "--threads x",
            "--threads --out x.json",
            "--out a --out b",
            "--full --full",
            "--frontend NoSuchPolicy",
            "--frontend SBI,sbi",
            "--salvage",
            "--inject X",
            "--inject panic@cell:3 --out x.json",
            "--cell-budget 3",
            "--jobs-from shard:0/3",
            "--checkpoint c",
            "--checkpoint c --out x.json",
            "merge a b",
            "merge",
            "golden",
            "golden verify",
            "golden check extra",
            "golden check --frontend SBI",
            "golden record --full",
            "frontends --full",
            "sweep extra",
            "nope",
            "--merge a.ckpt b.ckpt",
        ],
    );
}

#[test]
fn bench_sweep_parses_every_invocation_ci_uses() {
    let s = sweep("--out BENCH_sweep.ci.json");
    let a = &s.args;
    assert_eq!(
        (a.command.as_str(), a.value("--out"), s.configs.len()),
        ("sweep", Some("BENCH_sweep.ci.json"), 5)
    );
    assert!(!a.has("--full") && !a.has("--threads"));
    assert_eq!(sweep("sweep").args.command, "sweep");

    let s = sweep("--frontend GreedyThenOldest --out BENCH_sweep.gto.json");
    let names: Vec<&str> = s.configs.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["GreedyThenOldest"]);
    let s = sweep("--full --threads 2 --out full.json");
    assert!(s.args.has("--full") && s.args.number("--threads") == Some(2));
    let s = sweep("--threads 1 --out BENCH_sweep.t1.json");
    assert_eq!(s.args.number("--threads"), Some(1));

    let s = sweep("golden check");
    assert_eq!(
        (s.args.command.as_str(), s.args.value("--golden")),
        ("golden check", None)
    );
    let s = sweep("golden record --threads 1");
    assert_eq!(
        (s.args.command.as_str(), s.args.number("--threads")),
        ("golden record", Some(1))
    );
    assert_eq!(sweep("frontends").args.command, "frontends");
}

#[test]
fn fuzz_smoke_refuses_bad_invocations() {
    refused(
        cli::fuzz_smoke,
        &[
            "--bogus",
            "--cout 1 --count 2 --out",
            "--out",
            "--count x",
            "--count -1",
            "--seed zz",
            "--profile nope",
            "--emit-corpus D",
            "emit-corpus",
            "emit-corpus a b",
            "emit-corpus D --count 3",
            "nope",
        ],
    );
}

#[test]
fn fuzz_smoke_parses_every_invocation_ci_uses() {
    let (a, seed) = fuzz("--count 200 --repro R.wwasm --out S.json");
    assert_eq!(
        (a.command.as_str(), a.number("--count"), seed),
        ("sweep", Some(200), 0xf022_5eed)
    );
    assert_eq!(
        (a.value("--repro"), a.value("--out"), a.value("--profile")),
        (Some("R.wwasm"), Some("S.json"), None)
    );
    let (a, _) = fuzz("emit-corpus tests/corpus");
    assert_eq!(
        (a.command.as_str(), &a.operands[..]),
        ("emit-corpus", &["tests/corpus".to_string()][..])
    );
    for profile in FuzzProfile::all() {
        let (a, _) = fuzz(&format!("--profile {}", profile.name));
        assert_eq!(a.value("--profile"), Some(profile.name));
    }

    // The rerun line every failure prints runs exactly its one case.
    let rerun = rerun_command(0x00c0_4b05_0001, "memory_heavy");
    let (a, seed) = fuzz(rerun.strip_prefix("fuzz_smoke ").expect("names the binary"));
    assert_eq!(
        (a.number("--count"), seed, a.value("--profile")),
        (Some(1), 0x00c0_4b05_0001, Some("memory_heavy"))
    );
}

#[test]
fn sweep_service_refuses_bad_invocations() {
    refused(
        sweep_serve,
        &[
            "--bogus",
            "--threads",
            "--threads x",
            "--cache-entries -1",
            "--addr a --addr b",
            "serve",
            "stats",
        ],
    );
    refused(
        sweep_client,
        &[
            "--bogus --addr a",
            "--addr",
            "",
            "--full",
            "stats",
            "stats --full --addr a",
            "shutdown --addr a --out x",
            "--addr a --json",
            "--addr a --server-stats",
            "--addr a --shutdown",
            "nope --addr a",
        ],
    );
    // The usage a missing --addr prints says it is required.
    let usage = sweep_client(&args("--full")).unwrap_err();
    assert!(
        usage.contains(" --addr HOST:PORT ") && !usage.contains("[--addr"),
        "{usage}"
    );
}

#[test]
fn sweep_service_parses_every_invocation_ci_uses() {
    let (addr, cfg) = sweep_serve(&args("--addr 127.0.0.1:0 --cache-dir .sweep-cache")).unwrap();
    assert_eq!(addr, "127.0.0.1:0");
    assert_eq!((cfg.threads, cfg.cache_entries), (None, 1024));
    assert_eq!(
        cfg.cache_dir.as_deref(),
        Some(std::path::Path::new(".sweep-cache"))
    );

    let (a, request) = client(
        "--addr A --frontend Baseline,SWI --workloads MatrixMul,SortingNetworks \
         --no-probes --out client-a.txt",
    );
    let wanted = RunRequest {
        full: false,
        frontends: vec!["Baseline".into(), "SWI".into()],
        workloads: vec!["MatrixMul".into(), "SortingNetworks".into()],
        probes: false,
    };
    assert_eq!((a.command.as_str(), a.value("--addr")), ("run", Some("A")));
    assert_eq!((request, a.value("--out")), (wanted, Some("client-a.txt")));
    // The golden-grid request: its workloads are the `*/Baseline` keys of
    // BENCH_golden.json in file order, which name the golden grid's rows.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_golden.json");
    let golden = std::fs::read_to_string(golden).expect("committed BENCH_golden.json");
    let rows = golden.lines().filter_map(|l| {
        let key = l.split_once("{\"key\": \"")?.1.split_once('"')?.0;
        key.strip_suffix("/Baseline")
    });
    let rows = rows.collect::<Vec<_>>().join(",");
    let (a, request) = client(&format!(
        "--addr A --workloads {rows} --json BENCH_golden.served.json"
    ));
    let golden_grid = RunRequest {
        workloads: grid::sweep_workloads(true)
            .iter()
            .map(|w| w.name().into())
            .collect(),
        ..RunRequest::quick()
    };
    assert_eq!(
        (request, a.value("--json")),
        (golden_grid, Some("BENCH_golden.served.json"))
    );
    for command in ["run", "stats", "shutdown"] {
        let (a, _) = client(&format!("{command} --addr A"));
        assert_eq!(
            (a.command.as_str(), a.value("--addr")),
            (command, Some("A"))
        );
    }
}
