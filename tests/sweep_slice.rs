//! Tier-1 behaviour-drift tripwire: the quick sweep grid (10 matrix cells
//! and 7 machine probes, test scale) run through the sweep driver must
//! reproduce the matching lines of the committed `BENCH_golden.json`
//! exactly, and an in-process sweep server must answer the same grid with
//! cell lines that decode to the same records.

use warpweave::bench::grid::{self, grid_jobs};
use warpweave::bench::{matrix_from_store, probes_from_store, render_golden_json, run_grid};
use warpweave::core::checkpoint::{decode_cell, SweepCheckpoint};
use warpweave::serve::{request_run, request_shutdown, RunRequest, ServeConfig, Server};
use warpweave::{Scale, SweepRunner};

#[test]
fn quick_grid_matches_the_golden_baseline_locally_and_served() {
    let configs = grid::figure7_configs();
    let workloads = grid::quick_workloads();
    let jobs = grid_jobs(&configs, &workloads);
    assert_eq!(jobs.len(), 17, "10 matrix cells + 7 machine probes");
    let id = grid::grid_id(&configs, &workloads, Scale::Test);

    // Locally: one run of the driver into an in-memory store.
    let mut store = SweepCheckpoint::in_memory(id);
    let runner = SweepRunner::with_threads(2);
    let failures = run_grid(&runner, &jobs, Scale::Test, false, &mut store)
        .expect("an in-memory store records infallibly");
    assert!(failures.is_empty(), "{failures:?}");

    // Every rendered cell line must be a line of the committed baseline
    // (the golden grid is a superset of the quick grid; the renderer puts
    // one cell per line, comma-joined).
    let matrix = matrix_from_store(&configs, &workloads, &store).expect("every cell stored");
    let probes = probes_from_store(&store).expect("every probe stored");
    let rendered = render_golden_json("test", id, &matrix, &probes);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_golden.json");
    let golden = std::fs::read_to_string(golden_path).expect("committed BENCH_golden.json");
    let golden_lines: Vec<&str> = golden.lines().map(|l| l.trim_end_matches(',')).collect();
    let cell_lines: Vec<&str> = rendered
        .lines()
        .filter(|l| l.contains("\"key\": "))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert_eq!(cell_lines.len(), jobs.len());
    for (line, job) in cell_lines.iter().zip(&jobs) {
        assert!(
            golden_lines.contains(line),
            "{} drifted from BENCH_golden.json:\n{line}",
            job.key
        );
    }

    // Served: the same grid through a real server on a loopback port.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    let serving = std::thread::spawn(move || server.run());
    let response = request_run(&addr, &RunRequest::quick()).expect("served quick grid");
    request_shutdown(&addr).expect("shutdown");
    serving.join().expect("server thread").expect("serve loop");

    assert_eq!(response.grid_id, id);
    assert!(response.fail_lines.is_empty(), "{:?}", response.fail_lines);
    assert_eq!(response.cell_lines.len(), jobs.len());
    for (line, job) in response.cell_lines.iter().zip(&jobs) {
        let (key, record) = decode_cell(line).expect("checksummed cell line");
        assert_eq!(key, job.key, "canonical order");
        assert_eq!(Some(&record), store.get(&key), "{key}: served record");
    }
}
