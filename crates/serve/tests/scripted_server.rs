//! The real `sweep_client` binary against a scripted server: a bare
//! `TcpListener` that reads one request line and replays a fixed, valid
//! response, so the client's handling of a response can be pinned without
//! a simulation behind it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::Command;
use std::thread::JoinHandle;

use warpweave_bench::CellFailure;
use warpweave_core::JobFailure;
use warpweave_serve::protocol::{done_line, fail_line, hello_line, stats_line};

/// Serves one connection: reads the request line, then writes `lines`.
fn replay(lines: Vec<String>) -> (String, JoinHandle<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let addr = listener.local_addr().expect("resolved address").to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("one client");
        let mut request = String::new();
        BufReader::new(&stream)
            .read_line(&mut request)
            .expect("request line");
        let mut writer = &stream;
        for line in &lines {
            writeln!(writer, "{line}").expect("write response line");
        }
        request
    });
    (addr, server)
}

#[test]
fn json_run_with_a_quarantined_cell_prints_it_and_exits_4() {
    let failure = CellFailure {
        key: "MatrixMul/Baseline".into(),
        workload: "MatrixMul".into(),
        config: "Baseline".into(),
        seed: 0x5eed,
        reason: JobFailure::Panic("scripted".into()),
    };
    let fail = fail_line(&failure);
    let response = vec![
        hello_line(0xfeed),
        fail.clone(),
        stats_line(0, 1, 0, 1),
        done_line(0, 1),
    ];
    let (addr, server) = replay(response);
    let dir = std::env::temp_dir().join(format!("ww_scripted_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("results.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep_client"))
        .args(["run", "--addr", &addr, "--json"])
        .arg(&json)
        .output()
        .expect("run sweep_client");
    let request = server.join().expect("scripted server");
    assert!(request.starts_with("run"), "request line: {request:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l == fail),
        "no `{fail}` in:\n{stderr}"
    );
    assert!(
        stderr.contains("--json"),
        "no reason for the missing document:\n{stderr}"
    );
    assert!(!json.exists(), "a results document was written");
    std::fs::remove_dir_all(&dir).unwrap();
}
