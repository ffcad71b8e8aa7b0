//! End-to-end loopback tests of the sweep service: a real `Server` on an
//! ephemeral TCP port, real clients, real simulations.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use warpweave_bench::grid;
use warpweave_bench::{matrix_from_store, probes_from_store, render_golden_json, run_grid};
use warpweave_core::{SweepCheckpoint, SweepRunner};
use warpweave_serve::protocol::{classify_line, ResponseLine};
use warpweave_serve::{
    render_request, render_response_json, request_run, request_shutdown, request_stats, Request,
    RunRequest, ServeConfig, Server, MAX_REQUEST_LINE,
};
use warpweave_workloads::Scale;

/// Starts a server on an ephemeral loopback port; returns its address
/// and the join handle of its serve loop.
fn start_server(cfg: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("resolved address").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle)
}

fn small_grid() -> RunRequest {
    RunRequest {
        full: false,
        frontends: vec!["Baseline".into(), "SWI".into()],
        workloads: vec!["MatrixMul".into(), "SortingNetworks".into()],
        probes: false,
    }
}

#[test]
fn concurrent_overlapping_clients_get_byte_identical_transcripts() {
    let (addr, server) = start_server(ServeConfig::default());
    let req = small_grid();
    // Two clients race the same grid: the cache's pending-claim
    // coordination must hand both the same bytes, with every cell
    // simulated at most once between them.
    let a = {
        let (addr, req) = (addr.clone(), req.clone());
        std::thread::spawn(move || request_run(&addr, &req).expect("client a"))
    };
    let b = {
        let (addr, req) = (addr.clone(), req.clone());
        std::thread::spawn(move || request_run(&addr, &req).expect("client b"))
    };
    let a = a.join().unwrap();
    let b = b.join().unwrap();
    assert_eq!(a.transcript(), b.transcript(), "byte-identical transcripts");
    assert_eq!(a.grid_id, b.grid_id);
    assert_eq!(a.cell_lines.len(), 4);
    assert!(a.fail_lines.is_empty() && b.fail_lines.is_empty());
    assert_eq!(
        a.stats.simulated + b.stats.simulated,
        4,
        "each cell simulated exactly once across both clients"
    );

    // A third, repeat request is answered entirely from the cache.
    let c = request_run(&addr, &req).expect("client c");
    assert_eq!(c.transcript(), a.transcript());
    assert_eq!(c.stats.simulated, 0, "zero re-simulated cells");
    assert_eq!(c.stats.hits, 4);

    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn served_full_grid_renders_the_exact_sweep_payload() {
    let (addr, server) = start_server(ServeConfig::default());
    let req = RunRequest::quick();
    let response = request_run(&addr, &req).expect("quick grid");

    // The service's document must be byte-identical to a local run's.
    let served = render_response_json(&req, &response).expect("render from response");
    let configs = grid::figure7_configs();
    let workloads = grid::sweep_workloads(false);
    let id = grid::grid_id(&configs, &workloads, Scale::Test);
    let mut store = SweepCheckpoint::in_memory(id);
    let jobs = grid::grid_jobs(&configs, &workloads);
    let runner = SweepRunner::with_threads(1);
    let failures = run_grid(&runner, &jobs, Scale::Test, false, &mut store).expect("record");
    assert!(failures.is_empty(), "{failures:?}");
    let matrix = matrix_from_store(&configs, &workloads, &store).expect("every cell");
    let probes = probes_from_store(&store).expect("every probe");
    let local = render_golden_json("test", id, &matrix, &probes);
    assert_eq!(served, local, "served and local results documents");

    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn a_subset_request_renders_lines_of_the_golden_baseline() {
    let (addr, server) = start_server(ServeConfig::default());
    let req = RunRequest {
        full: false,
        frontends: vec!["Baseline".into(), "SWI".into()],
        workloads: vec!["MatrixMul".into()],
        probes: false,
    };
    let response = request_run(&addr, &req).expect("subset grid");
    let served = render_response_json(&req, &response).expect("any healthy grid renders");
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_golden.json");
    let golden = std::fs::read_to_string(golden).expect("committed BENCH_golden.json");
    let golden: Vec<&str> = golden.lines().map(|l| l.trim_end_matches(',')).collect();
    let cells: Vec<&str> = served
        .lines()
        .filter(|l| l.contains("\"key\": "))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert_eq!(cells.len(), 2, "{served}");
    for line in cells {
        assert!(golden.contains(&line), "not a golden line:\n{line}");
    }
    assert!(
        served.contains(&format!("\"grid\": \"{:016x}\"", response.grid_id)),
        "{served}"
    );
    let (_, probes) = served
        .split_once("\"machine_probes\": [")
        .expect("a machine_probes array");
    assert!(
        !probes.contains("\"key\": "),
        "no probe was asked for:\n{served}"
    );
}

#[test]
fn repeat_requests_on_one_connection_are_prompt_and_byte_identical() {
    let (addr, server) = start_server(ServeConfig::default());
    let req = small_grid();
    let reference = request_run(&addr, &req)
        .expect("fill the cache")
        .transcript();

    // 40 all-hit requests back to back on ONE connection, each sent when
    // the previous response is complete. A hit response costs about a
    // millisecond; a server that flushes every line through Nagle's
    // algorithm stalls each response after the first on the client's
    // delayed ACK (45-90 ms apiece).
    const REQUESTS: usize = 40;
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut lines = BufReader::new(stream).lines();
    let request = render_request(&Request::Run(req));
    let started = Instant::now();
    for i in 0..REQUESTS {
        writeln!(writer, "{request}").expect("send request");
        let mut transcript = String::new();
        loop {
            let line = lines
                .next()
                .expect("response before EOF")
                .expect("read response");
            match classify_line(&line).expect("protocol line") {
                ResponseLine::Cell(raw) | ResponseLine::Fail(raw) => {
                    transcript.push_str(raw);
                    transcript.push('\n');
                }
                ResponseLine::Done { .. } => break,
                ResponseLine::Hello(_) | ResponseLine::Stats(_) => {}
                ResponseLine::Error(reason) => panic!("server refused: {reason}"),
            }
        }
        assert_eq!(transcript, reference, "request {i} transcript");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "{REQUESTS} warm requests took {elapsed:?}"
    );

    drop((writer, lines));
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn unknown_names_are_refused_not_fatal() {
    let (addr, server) = start_server(ServeConfig::default());
    let mut bad = small_grid();
    bad.frontends = vec!["NoSuchPolicy".into()];
    let err = request_run(&addr, &bad).expect_err("must be refused");
    assert!(err.contains("server refused"), "{err}");
    // The server survives the refusal and still answers work.
    let ok = request_run(&addr, &small_grid()).expect("healthy request after refusal");
    assert_eq!(ok.cell_lines.len(), 4);
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    let (addr, server) = start_server(ServeConfig::default());
    let req = RunRequest::quick();
    let before = request_run(&addr, &req).expect("quick grid").transcript();

    // 1 MiB with no newline: the server must answer after reading at most
    // the cap, then hang up. The write itself may be cut short by that.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let _ = writer.write_all(&vec![b'x'; 1 << 20]);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert_eq!(
        line,
        format!("error|request line exceeds {MAX_REQUEST_LINE} bytes\n")
    );
    // EOF — as a reset when the server closed with our bytes still unread.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => {}
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(rest.is_empty(), "nothing after the error line");

    let after = request_run(&addr, &req).expect("well-formed request after the refusal");
    assert_eq!(after.transcript(), before, "served byte-identically");
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn server_stats_accumulate_across_requests() {
    let (addr, server) = start_server(ServeConfig {
        threads: Some(2),
        ..ServeConfig::default()
    });
    let req = small_grid();
    request_run(&addr, &req).expect("first");
    request_run(&addr, &req).expect("second");
    let line = request_stats(&addr).expect("stats line");
    assert!(line.starts_with("stats|"), "{line}");
    assert!(line.contains("misses=4"), "first request missed 4: {line}");
    assert!(line.contains("hits=4"), "second request hit 4: {line}");
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn disk_cache_tier_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("ww-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let req = small_grid();
    let first = {
        let (addr, server) = start_server(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let response = request_run(&addr, &req).expect("first server");
        request_shutdown(&addr).expect("shutdown");
        server.join().unwrap();
        response
    };
    assert_eq!(first.stats.simulated, 4);
    // A brand-new server process-equivalent (fresh memory tier, same
    // disk dir) serves the same grid without re-simulating anything.
    let (addr, server) = start_server(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let second = request_run(&addr, &req).expect("second server");
    assert_eq!(second.stats.simulated, 0, "served from the disk tier");
    assert_eq!(second.transcript(), first.transcript());
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_does_not_wait_for_an_idle_client() {
    let (addr, server) = start_server(ServeConfig::default());
    // One client connects and never sends a request line.
    let idle = TcpStream::connect(&addr).expect("connect idle client");
    // Another has a run in flight: its hello has arrived, its cells have not.
    let busy = TcpStream::connect(&addr).expect("connect busy client");
    let mut writer = busy.try_clone().expect("clone stream");
    let mut lines = BufReader::new(busy).lines();
    writeln!(writer, "{}", render_request(&Request::Run(small_grid()))).expect("send");
    let hello = lines.next().expect("hello before EOF").expect("read hello");
    assert!(
        matches!(classify_line(&hello), Ok(ResponseLine::Hello(_))),
        "{hello}"
    );

    request_shutdown(&addr).expect("shutdown");
    // The run streams to completion.
    let mut cells = 0;
    loop {
        let line = lines.next().expect("done before EOF").expect("read line");
        match classify_line(&line).expect("protocol line") {
            ResponseLine::Cell(_) => cells += 1,
            ResponseLine::Done { cells: done, .. } => break assert_eq!(done, cells),
            _ => {}
        }
    }
    assert_eq!(cells, 4);
    // The idle client, still connected, does not hold the server up.
    let (joined, wait) = std::sync::mpsc::channel();
    std::thread::spawn(move || joined.send(server.join().is_ok()));
    assert_eq!(
        wait.recv_timeout(Duration::from_secs(5)),
        Ok(true),
        "the server outlived shutdown while a client sat idle"
    );
    drop((idle, writer, lines));
}

/// One request's answer as read off the wire.
#[derive(Debug, PartialEq)]
struct Answer {
    grid_id: Option<u64>,
    transcript: String,
    stats: Option<String>,
    error: Option<String>,
}

/// A connection that sends one request line at a time and reads each
/// answer whole, to `done` or `error`.
struct Session {
    writer: TcpStream,
    lines: std::io::Lines<BufReader<TcpStream>>,
}

impl Session {
    fn open(addr: &str) -> Session {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone stream");
        Session {
            writer,
            lines: BufReader::new(stream).lines(),
        }
    }

    fn ask(&mut self, req: &RunRequest) -> Answer {
        writeln!(
            self.writer,
            "{}",
            render_request(&Request::Run(req.clone()))
        )
        .expect("send");
        let mut answer = Answer {
            grid_id: None,
            transcript: String::new(),
            stats: None,
            error: None,
        };
        loop {
            let line = self.lines.next().expect("answer before EOF").expect("read");
            match classify_line(&line).expect("protocol line") {
                ResponseLine::Hello(id) => answer.grid_id = Some(id),
                ResponseLine::Cell(raw) | ResponseLine::Fail(raw) => {
                    answer.transcript.push_str(raw);
                    answer.transcript.push('\n');
                }
                ResponseLine::Stats(raw) => answer.stats = Some(raw.to_string()),
                ResponseLine::Done { .. } => return answer,
                ResponseLine::Error(reason) => {
                    answer.error = Some(reason.to_string());
                    return answer;
                }
            }
        }
    }
}

/// A one-cell request: `frontend` on `workload`, no probes.
fn one_cell(frontend: &str, workload: &str) -> RunRequest {
    RunRequest {
        full: false,
        frontends: vec![frontend.into()],
        workloads: vec![workload.into()],
        probes: false,
    }
}

#[test]
fn alternating_requests_each_get_their_own_grid_and_transcript() {
    let (addr, server) = start_server(ServeConfig::default());
    let (a, b) = (
        one_cell("Baseline", "MatrixMul"),
        one_cell("SWI", "MatrixMul"),
    );
    let mut session = Session::open(&addr);
    let first_a = session.ask(&a);
    let first_b = session.ask(&b);
    assert!(first_a.error.is_none() && first_b.error.is_none());
    assert_ne!(first_a.grid_id, first_b.grid_id, "distinct grids");
    assert_ne!(first_a.transcript, first_b.transcript, "distinct cells");
    for round in 0..2 {
        for (req, first) in [(&a, &first_a), (&b, &first_b)] {
            let again = session.ask(req);
            assert_eq!(
                again.grid_id, first.grid_id,
                "round {round}, one connection"
            );
            assert_eq!(
                again.transcript, first.transcript,
                "round {round}, one connection"
            );
            let separate = request_run(&addr, req).expect("separate connection");
            assert_eq!(Some(separate.grid_id), first.grid_id, "round {round}");
            assert_eq!(separate.transcript(), first.transcript, "round {round}");
            assert_eq!(separate.stats.simulated, 0, "round {round}: all hits");
        }
    }
    drop(session);
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn a_refused_request_is_refused_again_and_the_connection_still_serves() {
    let (addr, server) = start_server(ServeConfig::default());
    let bad = one_cell("Baseline", "NoSuchWorkload");
    let mut session = Session::open(&addr);
    let refused = session.ask(&bad);
    assert!(
        refused
            .error
            .as_deref()
            .is_some_and(|e| e.contains("NoSuchWorkload")),
        "{refused:?}"
    );
    assert_eq!(session.ask(&bad), refused, "refused the same way again");
    let good = one_cell("Baseline", "MatrixMul");
    let served = session.ask(&good);
    assert!(served.error.is_none(), "{served:?}");
    assert_eq!(served.transcript.lines().count(), 1);
    drop(session);
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn more_requests_than_the_memo_holds_match_a_fresh_server() {
    let requests: Vec<RunRequest> = ["MatrixMul", "SortingNetworks"]
        .iter()
        .flat_map(|w| {
            grid::figure7_configs()
                .into_iter()
                .map(move |c| (c.name, *w))
        })
        .map(|(frontend, workload)| one_cell(&frontend, workload))
        .collect();
    let fresh: Vec<Answer> = requests
        .iter()
        .map(|req| {
            let (addr, server) = start_server(ServeConfig::default());
            let answer = Session::open(&addr).ask(req);
            request_shutdown(&addr).expect("shutdown");
            server.join().unwrap();
            answer
        })
        .collect();
    let (addr, server) = start_server(ServeConfig::default());
    let mut session = Session::open(&addr);
    // Twice through, each request twice in a row: the first ask of a pair
    // displaces the memoised request, the second finds its own.
    for pass in 0..2 {
        for (req, fresh) in requests.iter().zip(&fresh) {
            for ask in 0..2 {
                let answer = session.ask(req);
                let at = format!("pass {pass}, ask {ask}: {req:?}");
                assert_eq!(answer.grid_id, fresh.grid_id, "{at}");
                assert_eq!(answer.transcript, fresh.transcript, "{at}");
            }
        }
    }
    drop(session);
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}

#[test]
fn a_memoised_request_whose_cells_were_evicted_is_simulated_again() {
    let (addr, server) = start_server(ServeConfig {
        cache_entries: 4,
        ..ServeConfig::default()
    });
    let req = small_grid();
    let mut other = small_grid();
    other.frontends = vec!["SBI".into(), "Warp64".into()];
    let first = request_run(&addr, &req).expect("first");
    assert_eq!(first.stats.simulated, 4);
    // Four other cells push all four of `req`'s out of memory.
    request_run(&addr, &other).expect("other");
    let again = request_run(&addr, &req).expect("again");
    assert_eq!(again.stats.simulated, 4, "the miss path ran");
    assert_eq!(again.stats.evictions, 8);
    assert_eq!(again.grid_id, first.grid_id);
    assert_eq!(again.transcript(), first.transcript());
    request_shutdown(&addr).expect("shutdown");
    server.join().unwrap();
}
