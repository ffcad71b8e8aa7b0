//! The `figure` driver's table (`bench::figure`): every artefact renders,
//! every flag a figure cannot honour is a usage error, the mean rows drop
//! exactly TMD1/TMD2, and a checkpointed figure grid resumes bit-identical
//! to an uninterrupted run — and refuses another figure's checkpoint.

use warpweave::bench::figure::{parse, FigureError, Invocation, FIGURES};
use warpweave::bench::{run_matrix_at, run_matrix_checkpointed, CellResult, MatrixResult};
use warpweave::core::checkpoint::SweepCheckpoint;
use warpweave::workloads::Workload;
use warpweave::{all_workloads, Scale, SweepRunner};

/// One regular and one irregular row keep a debug run of every figure
/// within seconds.
const SUBSET: [&str; 2] = ["Transpose", "SRAD"];

fn invocation(args: &[&str]) -> Invocation {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"))
}

/// The figure's own rows, cut down to [`SUBSET`].
fn subset(inv: &Invocation) -> Vec<Box<dyn Workload>> {
    let mut rows = inv.workloads();
    rows.retain(|w| SUBSET.contains(&w.name()));
    rows
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_bit_identical(a: &MatrixResult, b: &MatrixResult, what: &str) {
    assert_eq!(a.workloads, b.workloads, "{what}: workload rows");
    assert_eq!(a.configs, b.configs, "{what}: config columns");
    let cells = |m: &MatrixResult| m.cells.concat().into_iter().map(|c: CellResult| c.stats);
    assert!(cells(a).eq(cells(b)), "{what}: cell statistics differ");
}

#[test]
fn every_figure_renders_its_header() {
    let headers = [
        ("fig2", "== (a) SIMT baseline =="),
        ("fig7", "== Figure 7(a): regular applications (IPC) =="),
        (
            "fig8a",
            "== Figure 8(a): speedup of reconvergence constraints (irregular) ==",
        ),
        (
            "fig8b",
            "== Figure 8(b): SWI lane-shuffling speedup over Identity (irregular) ==",
        ),
        (
            "fig9",
            "== Figure 9: SWI lookup associativity, slowdown vs fully-associative (irregular) ==",
        ),
        ("table3", "Table 3 — hardware requirements per technique"),
        ("table4", "Table 4 — area of each component (x1000 um^2)"),
        (
            "ablation-scoreboard",
            "== Ablation: SBI scoreboard scheme (IPC, irregular) ==",
        ),
        (
            "ablation-sideband",
            "== Ablation: CCT sideband sorter vs ideal sorted CCT (IPC, irregular) ==",
        ),
        ("summary", "== regular (gmean IPC, TMD excluded) =="),
    ];
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names, headers.map(|(name, _)| name), "one header per entry");
    let runner = SweepRunner::with_threads(2);
    for (name, header) in headers {
        let inv = invocation(&[name]);
        let m = inv
            .matrix(&runner, Scale::Test, &subset(&inv))
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let text = (inv.figure.report)(&inv, &m);
        assert_eq!(text.lines().next(), Some(header), "{name}:\n{text}");
    }
}

#[test]
fn flags_a_figure_cannot_honour_are_usage_errors() {
    for args in [
        &["fig7", "--set", "foo"][..],
        &["fig7", "--frontend", "Nope"],
        &["fig9", "--set", "foo"],
        &[
            "ablation-scoreboard",
            "--set",
            "regular",
            "--checkpoint",
            "P",
        ],
        &["nope"],
        &[],
        &["table3", "--no-verify"],
        &["fig2", "--checkpoint", "P"],
        &["fig8b", "--set", "all"],
        &["summary", "--frontend", "SBI"],
        &["fig7", "--set"],
        &["fig7", "--bogus"],
        &["--bogus"],
        &["fig7", "--set", "regular", "--set", "all"],
        &["fig7", "--no-verify", "--no-verify"],
        &["fig7", "regular"],
        &["table3", "--checkpoint"],
    ] {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse(&args) {
            Ok(_) => panic!("{args:?} parsed"),
            Err(e) => assert!(!e.is_empty() && !e.contains('\n'), "{args:?}: {e:?}"),
        }
    }
}

#[test]
fn means_drop_exactly_tmd1_and_tmd2() {
    let workloads: Vec<String> = all_workloads()
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let m = MatrixResult {
        configs: Vec::new(),
        workloads: workloads.clone(),
        cells: Vec::new(),
    };
    let all: Vec<usize> = (0..workloads.len()).collect();
    let kept = m.mean_rows(&all);
    let dropped: Vec<&str> = all
        .iter()
        .filter(|w| !kept.contains(w))
        .map(|&w| workloads[w].as_str())
        .collect();
    assert_eq!(dropped, ["TMD1", "TMD2"]);
}

#[test]
fn interrupted_figure_grid_resumes_bit_identical() {
    let path = scratch("fig8a.checkpoint");
    let inv = invocation(&["fig8a", "--checkpoint", path.to_str().expect("utf-8 path")]);
    let workloads = subset(&inv);
    let runner = SweepRunner::with_threads(1);
    let reference = run_matrix_at(&runner, &inv.configs, &workloads, Scale::Test, true);

    // "Kill" the run after 2 of its 4 cells: a cell budget stands in for
    // SIGKILL at a cell boundary.
    let id = warpweave::bench::grid::grid_id(&inv.configs, &workloads, Scale::Test);
    let mut store = SweepCheckpoint::resume(&path, id).unwrap();
    let partial = run_matrix_checkpointed(
        &runner,
        &inv.configs,
        &workloads,
        Scale::Test,
        true,
        &mut store,
        Some(2),
    )
    .unwrap();
    assert!(partial.is_none(), "grid cannot be complete after 2 cells");
    assert_eq!(store.len(), 2, "cell budget respected");
    drop(store);

    // The figure resumes from disk and completes; a second run simulates
    // nothing and reads the same matrix back.
    for what in ["resumed", "replayed"] {
        let m = inv.matrix(&runner, Scale::Test, &workloads).unwrap();
        assert_bit_identical(&reference, &m, what);
    }

    // Fig. 9's grid differs, so it refuses fig. 8a's checkpoint.
    let fig9 = invocation(&["fig9", "--checkpoint", path.to_str().expect("utf-8 path")]);
    match fig9.matrix(&runner, Scale::Test, &workloads) {
        Err(FigureError::Checkpoint(e)) => assert!(e.contains("belongs to grid"), "{e}"),
        other => panic!(
            "expected a grid-mismatch refusal, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn fig7_union_grid_resumes_bit_identical() {
    let path = scratch("fig7.checkpoint");
    let inv = invocation(&["fig7", "--checkpoint", path.to_str().expect("utf-8 path")]);
    let workloads = subset(&inv);
    assert_eq!(workloads.len(), 2, "one row of each set");
    let runner = SweepRunner::with_threads(2);
    let uninterrupted = invocation(&["fig7"]);
    let reference = uninterrupted
        .matrix(&runner, Scale::Test, &workloads)
        .unwrap();

    let id = warpweave::bench::grid::grid_id(&inv.configs, &workloads, Scale::Test);
    let mut store = SweepCheckpoint::resume(&path, id).unwrap();
    run_matrix_checkpointed(
        &runner,
        &inv.configs,
        &workloads,
        Scale::Test,
        true,
        &mut store,
        Some(3),
    )
    .unwrap();
    drop(store);

    let resumed = inv.matrix(&runner, Scale::Test, &workloads).unwrap();
    assert_bit_identical(&reference, &resumed, "resumed fig7 union grid");
    let report = |inv: &Invocation, m: &MatrixResult| (inv.figure.report)(inv, m);
    assert_eq!(report(&inv, &resumed), report(&uninterrupted, &reference));
}
