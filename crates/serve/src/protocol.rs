//! The sweep service's wire protocol: line-delimited text over TCP.
//!
//! Every message is one `\n`-terminated line of printable ASCII — the
//! same framing discipline as the checkpoint file, and deliberately so:
//! per-cell results travel as the **exact**
//! [`encode_cell`](warpweave_core::checkpoint::encode_cell) line the
//! checkpoint would persist, FNV checksum trailer included, so a client
//! can verify end-to-end integrity (and feed the lines straight into a
//! merge) without a second codec.
//!
//! ## Requests (client → server, one line each)
//!
//! ```text
//! run scale=<test|bench> [frontends=A,B,...] [workloads=X,Y,...] [probes=<all|none>]
//! stats
//! shutdown
//! ```
//!
//! Omitted `frontends` means the fig. 7 set; omitted `workloads` means
//! the scale's default sweep rows; omitted `probes` means `all`. A
//! request line is at most [`MAX_REQUEST_LINE`] bytes (terminator
//! excluded): the server answers a longer one with
//! `error|request line exceeds <N> bytes` and closes the connection
//! without buffering the rest.
//!
//! ## Responses (server → client, in order)
//!
//! ```text
//! hello|warpweave-serve-v2|grid=<id:016x>
//! cell|<key>|s:<fields>[|c:<fields>]|#<checksum:016x>      (one per healthy cell)
//! fail|<key>|seed=<hex>|<reason>                           (one per quarantined job)
//! stats|hits=<n>|misses=<n>|evictions=<n>|simulated=<n>
//! done|cells=<n>|failed=<n>
//! ```
//!
//! or, for a `stats` request, the server-lifetime cache counters:
//!
//! ```text
//! stats|hits=<n>|misses=<n>|evictions=<n>|disk-hits=<n>|entries=<n>
//! done|cells=0|failed=0
//! ```
//!
//! or, for a `shutdown` request, `done|cells=0|failed=0`; or, for a
//! request the server cannot parse or resolve:
//!
//! ```text
//! error|<one-line reason>
//! ```
//!
//! **Determinism clause**: for a given request, every line between
//! `hello` and `stats` (exclusive) is a pure function of the request —
//! the server runs every job, then answers with the lines in canonical
//! request order (workload-major matrix cells, then probes), and each
//! line's bytes are the deterministic checkpoint encoding. Two clients
//! issuing the same request concurrently therefore receive byte-identical
//! transcripts, whether cells came from the cache, from the other
//! client's in-flight simulation, or were computed fresh. Only the `stats` line may differ between them (it reports who
//! paid for the simulation).

use warpweave_bench::CellFailure;

use crate::cache::CacheStats;

/// The protocol identifier carried by the `hello` line. Bumped when the
/// request grammar or response sequence changes incompatibly.
pub const PROTOCOL_ID: &str = "warpweave-serve-v2";

/// Longest request line the server buffers, in bytes without the `\n`
/// (the longest legitimate `run …` line is a few hundred).
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or serve from cache) a sweep grid.
    Run(RunRequest),
    /// Report the server's cumulative cache statistics.
    Stats,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// The grid a `run` request names. Empty lists mean "the server's
/// default" (fig. 7 front-ends; the scale's default workload rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    /// Bench scale (`--full` grid) when true, test scale otherwise.
    pub full: bool,
    /// Front-end policy names, resolved through the policy registry.
    pub frontends: Vec<String>,
    /// Workload names, resolved through the workload registry.
    pub workloads: Vec<String>,
    /// Whether the machine probes ride along after the matrix cells.
    pub probes: bool,
}

impl RunRequest {
    /// The default request: the quick sweep grid with probes — exactly
    /// what a flag-less `bench_sweep` run simulates.
    pub fn quick() -> RunRequest {
        RunRequest {
            full: false,
            frontends: Vec::new(),
            workloads: Vec::new(),
            probes: true,
        }
    }
}

/// Splits a comma-separated name list, rejecting empty entries.
fn parse_names(value: &str, what: &str) -> Result<Vec<String>, String> {
    value
        .split(',')
        .map(|n| {
            let n = n.trim();
            if n.is_empty() {
                Err(format!("empty {what} name"))
            } else {
                Ok(n.to_string())
            }
        })
        .collect()
}

/// Parses one request line.
///
/// # Errors
/// A one-line description of the first grammar defect.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line == "stats" {
        return Ok(Request::Stats);
    }
    if line == "shutdown" {
        return Ok(Request::Shutdown);
    }
    let Some(rest) = line.strip_prefix("run") else {
        return Err(format!(
            "unknown request `{line}` (expected run/stats/shutdown)"
        ));
    };
    let mut req = RunRequest::quick();
    let mut saw_scale = false;
    for field in rest.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("field `{field}` has no `=`"))?;
        match key {
            "scale" => {
                req.full = match value {
                    "bench" => true,
                    "test" => false,
                    _ => return Err(format!("scale `{value}` is neither test nor bench")),
                };
                saw_scale = true;
            }
            "frontends" => req.frontends = parse_names(value, "front-end")?,
            "workloads" => req.workloads = parse_names(value, "workload")?,
            "probes" => {
                req.probes = match value {
                    "all" => true,
                    "none" => false,
                    _ => return Err(format!("probes `{value}` is neither all nor none")),
                };
            }
            _ => return Err(format!("unknown field `{key}`")),
        }
    }
    if !saw_scale {
        return Err("run request carries no scale= field".into());
    }
    Ok(Request::Run(req))
}

/// Renders a request to its wire line (the inverse of [`parse_request`]).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Stats => "stats".into(),
        Request::Shutdown => "shutdown".into(),
        Request::Run(run) => {
            let mut line = format!("run scale={}", if run.full { "bench" } else { "test" });
            if !run.frontends.is_empty() {
                line.push_str(&format!(" frontends={}", run.frontends.join(",")));
            }
            if !run.workloads.is_empty() {
                line.push_str(&format!(" workloads={}", run.workloads.join(",")));
            }
            line.push_str(if run.probes {
                " probes=all"
            } else {
                " probes=none"
            });
            line
        }
    }
}

/// The `hello` line opening every response to a `run` request.
pub fn hello_line(grid_id: u64) -> String {
    format!("hello|{PROTOCOL_ID}|grid={grid_id:016x}")
}

/// Extracts the grid id from a `hello` line.
///
/// # Errors
/// Protocol-id mismatches (a server speaking a different version) and
/// malformed lines.
pub fn parse_hello(line: &str) -> Result<u64, String> {
    let rest = line
        .strip_prefix("hello|")
        .ok_or_else(|| format!("expected hello line, got `{line}`"))?;
    let (id, grid) = rest
        .split_once('|')
        .ok_or_else(|| format!("hello line `{line}` has no grid field"))?;
    if id != PROTOCOL_ID {
        return Err(format!(
            "server speaks `{id}`, this client speaks `{PROTOCOL_ID}`"
        ));
    }
    let grid = grid
        .strip_prefix("grid=")
        .ok_or_else(|| format!("hello line `{line}` has no grid= field"))?;
    u64::from_str_radix(grid, 16).map_err(|_| format!("bad grid id `{grid}`"))
}

/// The `fail` line for one quarantined cell — its [`CellFailure`]
/// provenance (cell, seed, reason) on the wire.
pub fn fail_line(f: &CellFailure) -> String {
    format!("fail|{}|seed={:#x}|{}", f.key, f.seed, f.reason)
}

/// The per-request `stats` line: how this request was served.
/// `hits` counts cells answered from the cache (memory, disk, or another
/// client's just-finished simulation); `simulated` counts cells this
/// request paid to simulate; `evictions` is the server-lifetime total.
pub fn stats_line(hits: u64, misses: u64, evictions: u64, simulated: u64) -> String {
    format!("stats|hits={hits}|misses={misses}|evictions={evictions}|simulated={simulated}")
}

/// The `stats` request's answer: the server-lifetime [`CacheStats`].
/// `benchmark/` and CI read its fields by name.
pub(crate) fn cache_stats_line(s: &CacheStats) -> String {
    format!(
        "stats|hits={}|misses={}|evictions={}|disk-hits={}|entries={}",
        s.hits, s.misses, s.evictions, s.disk_hits, s.entries
    )
}

/// The `done` line terminating a response.
pub fn done_line(cells: usize, failed: usize) -> String {
    format!("done|cells={cells}|failed={failed}")
}

/// The `error` line for an unparseable or unresolvable request.
pub fn error_line(reason: &str) -> String {
    // The reason must stay one line to keep the protocol parseable.
    format!("error|{}", reason.replace(['\n', '\r'], " "))
}

/// One classified server response line, borrowing the line it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseLine<'a> {
    /// `hello|...` — carries the grid id.
    Hello(u64),
    /// `cell|...` — one healthy cell in checkpoint encoding (raw line).
    Cell(&'a str),
    /// `fail|...` — one quarantined cell (raw line).
    Fail(&'a str),
    /// `stats|...` — the request's cache accounting (raw line).
    Stats(&'a str),
    /// `done|cells=N|failed=K`.
    Done {
        /// Healthy cells answered.
        cells: usize,
        /// Quarantined cells answered.
        failed: usize,
    },
    /// `error|...` — the request was refused (reason).
    Error(&'a str),
}

/// Classifies one server line.
///
/// # Errors
/// Lines outside the protocol grammar.
pub fn classify_line(line: &str) -> Result<ResponseLine<'_>, String> {
    if line.starts_with("hello|") {
        return Ok(ResponseLine::Hello(parse_hello(line)?));
    }
    if line.starts_with("cell|") {
        return Ok(ResponseLine::Cell(line));
    }
    if line.starts_with("fail|") {
        return Ok(ResponseLine::Fail(line));
    }
    if line.starts_with("stats|") {
        return Ok(ResponseLine::Stats(line));
    }
    if let Some(rest) = line.strip_prefix("done|") {
        let mut cells = None;
        let mut failed = None;
        for field in rest.split('|') {
            match field.split_once('=') {
                Some(("cells", v)) => cells = v.parse().ok(),
                Some(("failed", v)) => failed = v.parse().ok(),
                _ => return Err(format!("bad done field `{field}`")),
            }
        }
        match (cells, failed) {
            (Some(cells), Some(failed)) => return Ok(ResponseLine::Done { cells, failed }),
            _ => return Err(format!("done line `{line}` misses cells=/failed=")),
        }
    }
    if let Some(reason) = line.strip_prefix("error|") {
        return Ok(ResponseLine::Error(reason));
    }
    Err(format!("unclassifiable server line `{line}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Stats,
            Request::Shutdown,
            Request::Run(RunRequest::quick()),
            Request::Run(RunRequest {
                full: true,
                frontends: vec!["Baseline".into(), "SBI+SWI".into()],
                workloads: vec!["MatrixMul".into()],
                probes: false,
            }),
        ];
        for req in cases {
            assert_eq!(parse_request(&render_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn bad_requests_are_rejected() {
        for bad in [
            "walk scale=test",
            "run",
            "run scale=huge",
            "run scale=test probes=some",
            "run scale=test frontends=",
            "run scale=test bogus=1",
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn hello_round_trips_and_rejects_other_versions() {
        assert_eq!(parse_hello(&hello_line(0xdead_beef)).unwrap(), 0xdead_beef);
        assert!(parse_hello("hello|warpweave-serve-v1|grid=0").is_err());
        assert!(parse_hello("cell|x").is_err());
    }

    #[test]
    fn classify_covers_the_response_grammar() {
        assert_eq!(
            classify_line("done|cells=12|failed=1").unwrap(),
            ResponseLine::Done {
                cells: 12,
                failed: 1
            }
        );
        assert!(matches!(
            classify_line("cell|a/b|s:x=1|#00").unwrap(),
            ResponseLine::Cell(_)
        ));
        assert!(matches!(
            classify_line("error|no such workload").unwrap(),
            ResponseLine::Error(_)
        ));
        let lifetime = CacheStats {
            hits: 7,
            misses: 5,
            evictions: 2,
            disk_hits: 3,
            entries: 4,
        };
        let line = cache_stats_line(&lifetime);
        assert_eq!(
            line,
            "stats|hits=7|misses=5|evictions=2|disk-hits=3|entries=4"
        );
        let ResponseLine::Stats(raw) = classify_line(&line).unwrap() else {
            panic!("`{line}` classifies as a stats line");
        };
        let read = crate::client::parse_stats(raw);
        assert_eq!((read.hits, read.misses, read.evictions), (7, 5, 2));
        assert!(classify_line("gibberish").is_err());
    }

    #[test]
    fn error_lines_stay_single_line() {
        assert_eq!(error_line("a\nb\rc"), "error|a b c");
    }
}
