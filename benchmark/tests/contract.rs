//! The benchmark's contract with `BENCHMARK.json`, and a smoke run of
//! every workload in both modes.

use std::collections::BTreeSet;
use std::path::PathBuf;

use warpweave_benchmark::compare::Spec;
use warpweave_benchmark::json::{self, Value};
use warpweave_benchmark::metrics::{END_TO_END, PER_LAYER};
use warpweave_benchmark::run::{run, WORKLOADS};
use warpweave_benchmark::sim::FuzzBench;
use warpweave_benchmark::{Bench, Ctx, DEFAULT_SEED};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn smoke(trace: bool, seed: u64) -> Ctx {
    Ctx {
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        root: root(),
        out: root().join("benchmark").join("out").join("test"),
    }
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty() && s.len() <= 64 && s.chars().all(ok) && s.starts_with(char::is_alphanumeric)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Value::as_str).expect("string member");
            (text("name").to_string(), text("unit").to_string())
        })
        .collect()
}

#[test]
fn tables_equal_benchmark_json() {
    let doc = benchmark_json();
    for (key, table, limit) in [
        ("end_to_end", END_TO_END, 16),
        ("per_layer", PER_LAYER, 128),
    ] {
        let want: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, key), want, "{key} differs from the tables");
        assert!(table.len() <= limit, "{key} lists {} names", table.len());
        for (name, unit) in table {
            assert!(is_name(name), "bad metric name `{name}`");
            assert!(is_unit(unit), "bad unit `{unit}` on `{name}`");
        }
    }
    let all: BTreeSet<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let spec = Spec::parse(&std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap())
        .expect("spec parses");
    assert_eq!(spec.workloads, WORKLOADS, "workload list differs");
    assert!(spec.workloads.iter().all(|w| is_name(w)));
    for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    for m in &spec.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
        assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // 4 + 22 runs per workload, each of `run_seconds` plus set-up, in 3420 s.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(
        runs * (seconds + 5.0) + 120.0 < 3420.0,
        "the runs overrun the cap"
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

/// Runs `workload` in smoke mode and checks the result line.
fn smoke_run(workload: &str, trace: bool) {
    let ctx = smoke(trace, DEFAULT_SEED);
    let outcome = run(workload, &ctx).expect("the run completes");
    assert_eq!(outcome.failed, 0, "{workload}: operations failed");
    assert!(outcome.attempted >= 1);
    let table = if trace { PER_LAYER } else { END_TO_END };
    let known: BTreeSet<&str> = table.iter().map(|(n, _)| *n).collect();
    for name in outcome.metrics.names() {
        assert!(
            known.contains(name),
            "{workload} emits unknown metric `{name}`"
        );
    }
    let line = json::parse(&outcome.result_line()).expect("the result line is JSON");
    let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        known,
        "{workload} must print exactly the table's metrics"
    );
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).expect("value");
        assert!(value.is_finite(), "{name} is not finite");
        assert!(m.get("unit").and_then(Value::as_str).is_some_and(is_unit));
        if !trace {
            assert!(value > 0.0, "end-to-end metric {name} reads {value}");
        }
    }
}

macro_rules! smoke_tests {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            smoke_run(stringify!($name), false);
            smoke_run(stringify!($name), true);
        }
    )*};
}

smoke_tests!(
    dense_alu,
    divergent_interweave,
    mem_hierarchy,
    fuzz_kernels,
    sweep_fabric,
    serve_cold,
    serve_warm
);

#[test]
fn every_workload_has_a_smoke_test() {
    assert_eq!(WORKLOADS.len(), 7, "add the new workload to smoke_tests!");
}

#[test]
fn the_seed_drives_the_fuzz_kernels_and_nothing_else() {
    let cycles =
        |bench: &FuzzBench| -> Vec<u64> { bench.cells().iter().map(|c| c.stats.cycles).collect() };
    let a = FuzzBench::new(&smoke(false, DEFAULT_SEED)).expect("set-up");
    let again = FuzzBench::new(&smoke(false, DEFAULT_SEED)).expect("set-up");
    let other = FuzzBench::new(&smoke(false, 0x5eed_0001)).expect("set-up");
    assert_eq!(
        a.cells(),
        again.cells(),
        "same seed, same simulated counters"
    );
    assert_ne!(a.kernel_seed(0), other.kernel_seed(0));
    assert_ne!(cycles(&a), cycles(&other), "another seed, other kernels");
}
