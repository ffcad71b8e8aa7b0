//! The sweep service client: issue a request, collect and verify the
//! response, and optionally render it to the standard sweep JSON.
//!
//! The client re-verifies every `cell|` line on receipt with
//! [`decode_cell`] (the wire format *is* the checkpoint codec), so a
//! flipped bit anywhere between the server's simulation and this process
//! is caught here, not in a downstream diff. A warm cell costs its bytes:
//! the response is read into one reused line buffer, each line is
//! classified where it lies, a `cell|` line is verified by one hash and
//! one forward scan, and each kept `cell|` / `fail|` line is copied once,
//! into [`SweepResponse`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use warpweave_core::checkpoint::{decode_cell, SweepCheckpoint};
use warpweave_core::SmConfig;

use crate::protocol::{classify_line, render_request, Request, ResponseLine, RunRequest};

/// One request's parsed stats line (`stats|hits=..|...`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Cells served from the cache.
    pub hits: u64,
    /// Cells the cache could not serve.
    pub misses: u64,
    /// Server-lifetime evictions at response time.
    pub evictions: u64,
    /// Cells this request paid to simulate.
    pub simulated: u64,
}

/// Parses a `stats|` line into [`RequestStats`] (unknown fields are
/// ignored so the server can grow the line compatibly).
pub(crate) fn parse_stats(line: &str) -> RequestStats {
    let mut stats = RequestStats::default();
    for field in line.trim_start_matches("stats|").split('|') {
        if let Some((key, value)) = field.split_once('=') {
            let Ok(value) = value.parse() else { continue };
            match key {
                "hits" => stats.hits = value,
                "misses" => stats.misses = value,
                "evictions" => stats.evictions = value,
                "simulated" => stats.simulated = value,
                _ => {}
            }
        }
    }
    stats
}

/// A complete, verified response to a `run` request.
#[derive(Debug, Clone)]
pub struct SweepResponse {
    /// The grid identity the server computed for the request.
    pub grid_id: u64,
    /// Every `cell|` line, verbatim and checksum-verified, in canonical
    /// order — the deterministic transcript two concurrent clients can
    /// byte-compare.
    pub cell_lines: Vec<String>,
    /// Every `fail|` line, verbatim.
    pub fail_lines: Vec<String>,
    /// The request's cache accounting.
    pub stats: RequestStats,
}

impl SweepResponse {
    /// The deterministic transcript: cell and fail lines in stream
    /// order, one per line, newline-terminated. Excludes `hello` (copies
    /// of it differ only if servers differ) and `stats` (explicitly
    /// outside the byte-identity contract).
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        for line in self.cell_lines.iter().chain(&self.fail_lines) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Loads the response's cells into an in-memory checkpoint store
    /// bound to the response's grid id — ready for
    /// `matrix_from_store`/`probes_from_store`, as a local sweep's store is.
    ///
    /// # Errors
    /// Codec defects (cannot happen for lines that passed receipt
    /// verification) and duplicate-cell conflicts.
    pub fn into_store(&self) -> Result<SweepCheckpoint, String> {
        let mut store = SweepCheckpoint::in_memory(self.grid_id);
        for line in &self.cell_lines {
            let (key, record) = decode_cell(line)?;
            store.record(&key, record).map_err(|e| e.to_string())?;
        }
        Ok(store)
    }
}

/// Issues `req` against `addr` and collects the full response.
///
/// # Errors
/// Connection and I/O failures, protocol violations, `error|` responses,
/// and any cell line whose checksum does not verify.
pub fn request_run(addr: &str, req: &RunRequest) -> Result<SweepResponse, String> {
    let mut exchange = Exchange::open(addr, &Request::Run(req.clone()))?;
    let grid_id = match exchange.next_line()? {
        Some(ResponseLine::Hello(id)) => id,
        Some(ResponseLine::Error(reason)) => return Err(format!("server refused: {reason}")),
        other => return Err(format!("expected hello, got {other:?}")),
    };
    let mut response = SweepResponse {
        grid_id,
        cell_lines: Vec::new(),
        fail_lines: Vec::new(),
        stats: RequestStats::default(),
    };
    let mut done = None;
    while let Some(line) = exchange.next_line()? {
        match line {
            ResponseLine::Cell(raw) => {
                decode_cell(raw).map_err(|e| format!("cell line failed verification: {e}"))?;
                response.cell_lines.push(raw.to_string());
            }
            ResponseLine::Fail(raw) => response.fail_lines.push(raw.to_string()),
            ResponseLine::Stats(raw) => response.stats = parse_stats(raw),
            ResponseLine::Done { cells, failed } => done = Some((cells, failed)),
            ResponseLine::Error(reason) => return Err(format!("server refused: {reason}")),
            ResponseLine::Hello(_) => return Err("unexpected second hello".into()),
        }
    }
    let Some((cells, failed)) = done else {
        return Err("connection closed before done line (server died mid-response?)".into());
    };
    if cells != response.cell_lines.len() || failed != response.fail_lines.len() {
        return Err(format!(
            "done line claims {cells} cells + {failed} failures, stream carried {} + {}",
            response.cell_lines.len(),
            response.fail_lines.len()
        ));
    }
    Ok(response)
}

/// Renders a full-grid response to the standard `BENCH_sweep.json`
/// payload — byte-identical to a local `bench_sweep` run of the same
/// grid, because both render from the same per-cell records.
///
/// # Errors
/// Responses that do not cover the full grid (subset requests, probe-less
/// requests, or responses with failures).
pub fn render_response_json(req: &RunRequest, response: &SweepResponse) -> Result<String, String> {
    if !response.fail_lines.is_empty() {
        return Err(format!(
            "{} cell(s) failed; a sweep payload renders only from a fully healthy grid",
            response.fail_lines.len()
        ));
    }
    if !req.workloads.is_empty() || !req.probes {
        return Err("the sweep payload needs the default workload rows and probes=all".into());
    }
    let configs: Vec<_> = if req.frontends.is_empty() {
        warpweave_bench::grid::figure7_configs()
    } else {
        SmConfig::with_policies(req.frontends.iter().map(String::as_str))?
    };
    let workloads = warpweave_bench::grid::sweep_workloads(req.full);
    let store = response.into_store()?;
    let matrix = warpweave_bench::matrix_from_store(&configs, &workloads, &store)
        .map_err(|missing| format!("response misses {} cell(s): {missing:?}", missing.len()))?;
    let probes = warpweave_bench::probes_from_store(&store)
        .map_err(|missing| format!("response misses {} probe(s): {missing:?}", missing.len()))?;
    let scale_label = if req.full { "bench" } else { "test" };
    Ok(warpweave_bench::render_sweep_json(
        scale_label,
        &matrix,
        &probes,
    ))
}

/// Queries the server's cumulative cache statistics (the raw line).
///
/// # Errors
/// Connection/protocol failures.
pub fn request_stats(addr: &str) -> Result<String, String> {
    let mut exchange = Exchange::open(addr, &Request::Stats)?;
    while let Some(line) = exchange.next_line()? {
        if let ResponseLine::Stats(raw) = line {
            return Ok(raw.to_string());
        }
    }
    Err("server sent no stats line".into())
}

/// Asks the server to shut down.
///
/// # Errors
/// Connection/protocol failures.
pub fn request_shutdown(addr: &str) -> Result<(), String> {
    let mut exchange = Exchange::open(addr, &Request::Shutdown)?;
    while exchange.next_line()?.is_some() {}
    Ok(())
}

/// One request/response exchange: a connection that has sent its
/// request and reads the response, to `done`, `error` or EOF, one line at
/// a time into a buffer it reuses.
struct Exchange {
    reader: BufReader<TcpStream>,
    line: String,
    over: bool,
}

impl Exchange {
    /// Connects to `addr` and sends `req`.
    fn open(addr: &str, req: &Request) -> Result<Exchange, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        writeln!(writer, "{}", render_request(req)).map_err(|e| format!("send request: {e}"))?;
        writer.flush().map_err(|e| format!("send request: {e}"))?;
        // Half-close our sending side so the server's line reader sees EOF
        // after this single request.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        Ok(Exchange {
            reader: BufReader::new(stream),
            line: String::new(),
            over: false,
        })
    }

    /// The next response line, classified where it lies in the buffer
    /// (its `\n` or `\r\n` stripped, as [`BufRead::lines`] does); `None`
    /// after `done` or `error`, or at EOF.
    fn next_line(&mut self) -> Result<Option<ResponseLine<'_>>, String> {
        self.line.clear();
        if self.over
            || self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("read response: {e}"))?
                == 0
        {
            return Ok(None);
        }
        let line = self.line.strip_suffix('\n').unwrap_or(&self.line);
        let classified = classify_line(line.strip_suffix('\r').unwrap_or(line))?;
        self.over = matches!(
            classified,
            ResponseLine::Done { .. } | ResponseLine::Error(_)
        );
        Ok(Some(classified))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_lines_parse_and_tolerate_new_fields() {
        let stats = parse_stats("stats|hits=17|misses=3|evictions=1|simulated=3|future=9");
        assert_eq!(
            stats,
            RequestStats {
                hits: 17,
                misses: 3,
                evictions: 1,
                simulated: 3
            }
        );
    }
}
