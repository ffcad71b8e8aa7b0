//! The `figure` driver's table (`bench::figure`): every artefact renders,
//! every flag a figure cannot honour is a usage error, and the mean rows
//! drop exactly TMD1/TMD2.

use warpweave::bench::figure::{parse, Invocation, FIGURES};
use warpweave::bench::MatrixResult;
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
        &[
            "fig7",
            "--set",
            "regular",
            "--frontend",
            "Baseline,baseline",
        ],
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
        &["fig7", "--checkpoint", "P"],
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
