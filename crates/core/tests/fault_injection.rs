//! Property-based drills for the fault-containment layer: salvaging a
//! checkpoint torn at **any** byte offset recovers exactly the prefix of
//! checksum-valid records (damaged tail preserved in a `.quarantine`
//! sidecar, file resumable afterwards), and an injected per-cell fault —
//! panic or simulation error — at **any** job index leaves every healthy
//! job's outcome bit-identical at 1 and 8 host threads.

use proptest::prelude::*;

use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::faultinject::{FaultKind, FaultPlan};
use warpweave_core::{Stats, SweepRunner};

/// A distinctive `Stats` value per cell (so cells are distinguishable).
fn stats(seed: u64) -> Stats {
    Stats {
        cycles: seed.wrapping_mul(31).wrapping_add(7),
        thread_instructions: seed.wrapping_mul(1023),
        ..Stats::default()
    }
}

/// A scratch file path unique to this test binary.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-faultinject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Salvage of a checkpoint cut at any byte (header excluded — a
    /// damaged header is unrecoverable by design) keeps exactly the
    /// complete, checksum-valid records before the cut, quarantines the
    /// damaged tail to a sidecar, and leaves a file that resumes and
    /// accepts further records.
    #[test]
    fn salvage_at_any_byte_recovers_the_exact_valid_prefix(
        cells in 1usize..6,
        cut in any::<u64>(),
    ) {
        let path = scratch("salvage-prefix.checkpoint");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepCheckpoint::create(&path, 0xabcd).unwrap();
        for i in 0..cells {
            store
                .record(&format!("cell-{i}"), CellRecord::new(stats(i as u64)))
                .unwrap();
        }
        drop(store);
        let text = std::fs::read_to_string(&path).unwrap();
        let header_len = text.lines().next().unwrap().len() + 1;
        // Cut anywhere from "all records gone" to "file intact".
        let at = header_len + (cut % (text.len() - header_len + 1) as u64) as usize;
        std::fs::write(&path, &text[..at]).unwrap();

        let report = SweepCheckpoint::salvage(&path).unwrap();
        // A record survives iff its full line content survived the cut
        // (the trailing newline itself is optional for the last line).
        let full_lines: Vec<&str> = text[header_len..].lines().collect();
        let expected = text[header_len..at]
            .split('\n')
            .filter(|l| full_lines.contains(l))
            .count();
        prop_assert_eq!(report.kept_cells, expected, "kept-cell count");
        let loaded = SweepCheckpoint::load(&path).unwrap();
        prop_assert_eq!(loaded.len(), expected, "salvaged file loads cleanly");
        for i in 0..expected {
            prop_assert!(loaded.contains(&format!("cell-{i}")), "cell-{} kept in order", i);
        }

        // Dropped bytes are preserved verbatim in the sidecar.
        if report.dropped_bytes > 0 {
            let sidecar = report.quarantine.clone().expect("sidecar for dropped bytes");
            let tail = std::fs::read(&sidecar).unwrap();
            prop_assert_eq!(tail.len(), report.dropped_bytes, "sidecar holds the tail");
            let _ = std::fs::remove_file(&sidecar);
        } else {
            prop_assert!(report.quarantine.is_none(), "no sidecar without damage");
        }

        // The salvaged file is a live checkpoint again: resume + append.
        let mut resumed = SweepCheckpoint::resume(&path, 0xabcd).unwrap();
        resumed.record("extra", CellRecord::new(stats(999))).unwrap();
        drop(resumed);
        let reloaded = SweepCheckpoint::load(&path).unwrap();
        prop_assert_eq!(reloaded.len(), expected + 1, "salvaged file keeps appending");
        let _ = std::fs::remove_file(&path);
    }

    /// An injected fault (panic or simulation error) at any job index is
    /// contained: the faulted job is retried and quarantined with the
    /// right attempt count, and every healthy job's result is
    /// bit-identical between a 1-thread and an 8-thread run.
    #[test]
    fn injected_fault_at_any_index_leaves_healthy_jobs_identical(
        jobs in 4usize..12,
        fault_at in any::<usize>(),
        as_panic in any::<bool>(),
    ) {
        let fault_idx = fault_at % jobs;
        let spec = if as_panic {
            format!("panic@cell:{fault_idx}")
        } else {
            format!("sim@cell:{fault_idx}")
        };
        let plan = FaultPlan::parse(&spec).unwrap();
        let items: Vec<usize> = (0..jobs).collect();
        let run = |threads: usize| {
            // Each run arms its own injector so attempt budgets reset.
            let injector = plan.clone().arm();
            SweepRunner::with_threads(threads).run_isolated_reporting(
                &items,
                1,
                |&i| match injector.cell_fault(i, &format!("job-{i}")) {
                    Some(FaultKind::Panic) => panic!("injected panic in job {i}"),
                    Some(FaultKind::SimError) => Err(format!("injected sim error in job {i}")),
                    None => Ok((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                },
                |_, _| {},
            )
        };
        let serial = run(1);
        let wide = run(8);
        prop_assert_eq!(serial.len(), jobs);
        prop_assert_eq!(wide.len(), jobs);
        for (i, (a, b)) in serial.iter().zip(&wide).enumerate() {
            if i == fault_idx {
                prop_assert!(a.result.is_err(), "job {} quarantined at 1 thread", i);
                prop_assert!(b.result.is_err(), "job {} quarantined at 8 threads", i);
                // 1 retry allowed → exactly 2 attempts, thread-count independent.
                prop_assert_eq!(a.attempts, 2);
                prop_assert_eq!(b.attempts, 2);
            } else {
                prop_assert_eq!(
                    a.result.as_ref().unwrap(),
                    b.result.as_ref().unwrap(),
                    "healthy job {} drifted across thread counts", i
                );
                prop_assert_eq!(a.attempts, 1);
                prop_assert_eq!(b.attempts, 1);
            }
        }
    }
}
