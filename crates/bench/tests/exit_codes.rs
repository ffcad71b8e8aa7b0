//! The real `bench_sweep` and `fuzz_smoke` binaries: a usage error exits 2
//! and a file that cannot be read or written exits 1, each with exactly
//! one stderr line for the error and never a panic; and the document
//! `bench_sweep` writes is the same bytes at any `--threads`, every cell of
//! it a line of the committed `BENCH_golden.json`.

use std::path::PathBuf;
use std::process::Command;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `binary` with `args` in the scratch directory, asserts its exit
/// code and a panic-free stderr, and returns the stderr lines.
fn run(binary: &str, args: &[&str], code: i32) -> Vec<String> {
    let out = Command::new(binary)
        .args(args)
        .current_dir(scratch())
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr.lines().map(String::from).collect()
}

/// [`run`] of a command refused before it runs anything: one stderr line.
fn exits(binary: &str, args: &[&str], code: i32) {
    let lines = run(binary, args, code);
    assert_eq!(lines.len(), 1, "{args:?}: {lines:?}");
}

#[test]
fn bench_sweep_exits_cleanly_on_bad_input() {
    let bin = env!("CARGO_BIN_EXE_bench_sweep");
    // A payload that cannot be written is found once the sweep has run:
    // its progress lines, then one line naming the file.
    let lines = run(bin, &["--out", "no/such/dir/x.json"], 1);
    let last = lines.last().map_or("", String::as_str);
    assert!(last.starts_with("write no/such/dir/x.json:"), "{lines:?}");
    exits(bin, &["golden", "check", "--golden", "missing.json"], 1);
    exits(bin, &["--bogus-flag"], 2);
    exits(bin, &["--threads"], 2);
    exits(bin, &["--salvage"], 2);
    exits(bin, &["--checkpoint", "c.ckpt", "--out", "x.json"], 2);
    exits(bin, &["merge", "a.ckpt", "b.ckpt"], 2);
    assert!(
        !scratch().join("BENCH_sweep.json").exists(),
        "a refused sweep ran"
    );
}

#[test]
fn bench_sweep_writes_lines_of_the_golden_baseline_at_any_thread_count() {
    let bin = env!("CARGO_BIN_EXE_bench_sweep");
    run(bin, &["--out", "A.json"], 0);
    run(bin, &["--threads", "1", "--out", "B.json"], 0);
    let read = |name: &str| std::fs::read_to_string(scratch().join(name)).expect(name);
    let document = read("A.json");
    assert_eq!(document, read("B.json"), "1 thread vs the default");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_golden.json");
    let golden = std::fs::read_to_string(golden).expect("committed BENCH_golden.json");
    let golden: Vec<&str> = golden.lines().map(|l| l.trim_end_matches(',')).collect();
    let cells = document.lines().filter(|l| l.contains("\"key\": "));
    let cells: Vec<&str> = cells.map(|l| l.trim_end_matches(',')).collect();
    assert_eq!(cells.len(), 17, "10 matrix cells + 7 machine probes");
    for line in cells {
        assert!(
            golden.contains(&line),
            "drifted from BENCH_golden.json:\n{line}"
        );
    }
}

#[test]
fn fuzz_smoke_exits_cleanly_on_bad_input() {
    let bin = env!("CARGO_BIN_EXE_fuzz_smoke");
    exits(bin, &["--cout", "1", "--count", "2", "--out"], 2);
    exits(bin, &["--count", "x"], 2);
    exits(bin, &["--profile", "nope"], 2);
    exits(bin, &["--count", "0", "--out", "no/such/dir/stats.json"], 1);
}
