//! Debug-scale run of the three fuzz harnesses over generated kernels.
//!
//! A handful of seeds per profile keeps this inside the tier-1 budget;
//! the full 500-kernels-per-target sweep lives in the release
//! `fuzz_smoke` bin (`cargo run --release -p warpweave-bench --bin
//! fuzz_smoke`). The seeds are fixed, and any failure prints the shrunk
//! reproducer plus the `fuzz_smoke` command that reruns exactly that case.

use warpweave_core::fuzzing::run_case;
use warpweave_isa::fuzz::{rerun_command, FuzzProfile};

const BASE_SEED: u64 = 0x5b15_a110;
const SEEDS_PER_PROFILE: u64 = 3;

fn sweep(profile: &FuzzProfile) {
    for i in 0..SEEDS_PER_PROFILE {
        let seed = BASE_SEED.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match run_case(seed, profile) {
            Ok(out) => {
                assert!(out.static_instrs > 0);
                assert!(!out.policy_ipcs.is_empty());
            }
            Err(fail) => {
                eprintln!("shrunk reproducer:\n{}", fail.reproducer.to_text());
                panic!("{fail}\nrerun: {}", rerun_command(seed, profile.name));
            }
        }
    }
}

#[test]
fn balanced_profile_passes_all_targets() {
    sweep(&FuzzProfile::balanced());
}

#[test]
fn regular_profile_passes_all_targets() {
    sweep(&FuzzProfile::regular());
}

#[test]
fn pathological_profile_passes_all_targets() {
    sweep(&FuzzProfile::pathological());
}

#[test]
fn memory_heavy_profile_passes_all_targets() {
    sweep(&FuzzProfile::memory_heavy());
}
