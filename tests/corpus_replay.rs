//! Replays every committed fuzz reproducer under `tests/corpus/` through
//! all three fuzz harnesses (differential, policy sweep, determinism).
//!
//! The corpus is the fuzzer's regression memory: when CI shrinks a
//! failing kernel, the minimised `.wwasm` file gets committed here and
//! this test keeps it passing forever after the fix. The seeded base
//! corpus (two kernels per profile at fixed seeds) is regenerated by
//! `cargo run --release -p warpweave-bench --bin fuzz_smoke -- \
//! emit-corpus tests/corpus`.

use warpweave_core::fuzzing::replay_reproducer;
use warpweave_isa::fuzz::Reproducer;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

#[test]
fn every_corpus_kernel_passes_all_three_harnesses() {
    let dir = corpus_dir();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wwasm"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "corpus unexpectedly small: {} kernels in {}",
        paths.len(),
        dir.display()
    );
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let rep = Reproducer::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        let ipcs = replay_reproducer(&rep)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
        assert!(
            !ipcs.is_empty(),
            "{}: policy sweep returned no entries",
            path.display()
        );
    }
    println!("replayed {} corpus kernels clean", paths.len());
}

#[test]
fn corpus_files_are_canonical_serialisations() {
    // A hand-edited corpus file that no longer round-trips would silently
    // drift from what the harnesses actually ran; pin text → parse → text
    // as a fixed point.
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "wwasm") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let rep = Reproducer::from_text(&text).unwrap();
        assert_eq!(
            rep.to_text(),
            text,
            "{} is not in canonical form; regenerate with `fuzz_smoke emit-corpus`",
            path.display()
        );
    }
}
