//! The real `bench_sweep` and `fuzz_smoke` binaries: a usage error exits 2
//! and a file that cannot be read or written exits 1, each with exactly
//! one stderr line and never a panic.

use std::path::PathBuf;
use std::process::Command;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `binary` with `args` in the scratch directory and asserts its exit
/// code and a one-line, panic-free stderr.
fn exits(binary: &str, args: &[&str], code: i32) {
    let out = Command::new(binary)
        .args(args)
        .current_dir(scratch())
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bench_sweep_exits_cleanly_on_bad_input() {
    let bin = env!("CARGO_BIN_EXE_bench_sweep");
    let garbage = scratch().join("garbage.ckpt");
    std::fs::write(&garbage, "not a checkpoint\n").unwrap();
    let garbage = garbage.to_str().expect("utf-8 path");
    exits(bin, &["merge", garbage], 1);
    let unwritable = "no/such/dir/s.ckpt";
    exits(
        bin,
        &["--jobs-from", "shard:0/3", "--checkpoint", unwritable],
        1,
    );
    exits(bin, &["golden", "check", "--golden", "missing.json"], 1);
    exits(bin, &["--bogus-flag"], 2);
    exits(bin, &["--threads"], 2);
    exits(bin, &["--salvage"], 2);
    exits(bin, &["--checkpoint", "c.ckpt", "--out", "x.json"], 2);
    assert!(
        !scratch().join("BENCH_sweep.json").exists(),
        "a refused sweep ran"
    );
}

#[test]
fn fuzz_smoke_exits_cleanly_on_bad_input() {
    let bin = env!("CARGO_BIN_EXE_fuzz_smoke");
    exits(bin, &["--cout", "1", "--count", "2", "--out"], 2);
    exits(bin, &["--count", "x"], 2);
    exits(bin, &["--profile", "nope"], 2);
    exits(bin, &["--count", "0", "--out", "no/such/dir/stats.json"], 1);
}
