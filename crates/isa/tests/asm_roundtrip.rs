//! Property: any generated `Program` survives program → asm text →
//! program bit-identically. This is the substrate the fuzzer's replayable
//! reproducers stand on — if the text format drops or distorts a field,
//! a committed corpus kernel would silently test something else.

use proptest::prelude::*;
use warpweave_isa::fuzz::{self, FuzzProfile, Reproducer};
use warpweave_isa::{program_from_text, program_to_text};

/// Asserts text round-trip fidelity for the kernel generated by
/// `(seed, profile)`: same name, same frontier flag, identical
/// instruction records.
fn assert_roundtrip(seed: u64, profile: &FuzzProfile) {
    let plan = fuzz::generate(seed, profile);
    let program = plan.lower().unwrap_or_else(|e| {
        panic!(
            "seed {seed:#x} profile {} failed to lower: {e}",
            profile.name
        )
    });
    let text = program_to_text(&program);
    let back = program_from_text(&text)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: reparse failed: {e}\n{text}"));
    assert_eq!(program.name(), back.name(), "kernel name");
    assert_eq!(
        program.is_frontier_ordered(),
        back.is_frontier_ordered(),
        "frontier flag"
    );
    assert_eq!(
        program.instructions(),
        back.instructions(),
        "instructions diverged after text round-trip (seed {seed:#x}, profile {})",
        profile.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random seeds across every profile round-trip bit-identically.
    #[test]
    fn generated_programs_roundtrip(seed in any::<u64>(), which in 0usize..4) {
        let profile = &FuzzProfile::all()[which];
        assert_roundtrip(seed, profile);
    }
}

/// A pinned seed round-trips on all profiles, including the full
/// reproducer wrapper with its fuzz directives.
#[test]
fn reproducer_wrapper_roundtrips_at_pinned_seed() {
    let seed = 0xc0_ffee;
    for profile in FuzzProfile::all() {
        assert_roundtrip(seed, &profile);
        let plan = fuzz::generate(seed, &profile);
        let rep = Reproducer::from_plan(&plan, plan.lower().unwrap());
        let back = Reproducer::from_text(&rep.to_text()).unwrap();
        assert_eq!(back.seed, rep.seed);
        assert_eq!(back.profile, rep.profile);
        assert_eq!(back.grid_blocks, rep.grid_blocks);
        assert_eq!(back.block_threads, rep.block_threads);
        assert_eq!(back.program.instructions(), rep.program.instructions());
    }
}
