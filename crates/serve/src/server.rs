//! The long-running sweep server: accept loop, per-connection handlers,
//! and in-order response streaming.
//!
//! One OS thread per connection (the container is offline and std-only,
//! so no async runtime); the heavy lifting — cell simulation — fans out
//! through a shared [`SweepRunner`] worker pool, and the shared
//! [`CellCache`] deduplicates identical cells across connections.
//!
//! Responses stream **in canonical request order** even though cells
//! finish in completion order: a reorder buffer holds early finishers
//! until their turn. That is what makes the determinism clause hold — a
//! client reads cell lines as they become streamable, yet the transcript
//! is a pure function of the request.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use warpweave_core::SweepRunner;

use crate::cache::CellCache;
use crate::protocol::{
    done_line, error_line, hello_line, parse_request, stats_line, Request, MAX_REQUEST_LINE,
};
use crate::queue::{job_digest, resolve, run_jobs, Outcome};

/// Server tuning knobs (all optional; defaults are sensible for CI).
pub struct ServeConfig {
    /// Worker-thread cap for the simulation pool (`None` = all cores).
    pub threads: Option<usize>,
    /// Retries per failing cell before quarantine.
    pub max_retries: u32,
    /// Memory-tier capacity of the cell cache, in entries.
    pub cache_entries: usize,
    /// Disk tier directory (`None` = memory-only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: None,
            max_retries: 1,
            cache_entries: 1024,
            cache_dir: None,
        }
    }
}

/// A bound (but not yet serving) sweep server.
pub struct Server {
    listener: TcpListener,
    cache: Arc<CellCache>,
    runner: Arc<SweepRunner>,
    max_retries: u32,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; read it back via
    /// [`local_addr`](Server::local_addr)).
    ///
    /// # Errors
    /// Bind failures and cache-directory creation failures.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let cache = match cfg.cache_dir {
            Some(dir) => CellCache::with_disk(cfg.cache_entries, dir)?,
            None => CellCache::in_memory(cfg.cache_entries),
        };
        let runner = match cfg.threads {
            Some(n) => SweepRunner::with_threads(n),
            None => SweepRunner::new(),
        };
        Ok(Server {
            listener,
            cache: Arc::new(cache),
            runner: Arc::new(runner),
            max_retries: cfg.max_retries,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request arrives. Connection handlers
    /// run on their own threads; a handler that panics kills only its
    /// connection.
    ///
    /// # Errors
    /// Accept-loop I/O failures (per-connection I/O errors are contained
    /// in the handler).
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Finished connections release their thread's resources now,
            // not at shutdown: a long-lived daemon serves unboundedly many.
            handlers.retain(|h| !h.is_finished());
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    eprintln!("sweep_serve: accept: {e}");
                    continue;
                }
            };
            let cache = Arc::clone(&self.cache);
            let runner = Arc::clone(&self.runner);
            let stop = Arc::clone(&self.stop);
            let max_retries = self.max_retries;
            handlers.push(std::thread::spawn(move || {
                if let Err(e) = handle(stream, &cache, &runner, max_retries, &stop, addr) {
                    eprintln!("sweep_serve: connection: {e}");
                }
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Handles one connection: a sequence of request lines until EOF.
fn handle(
    stream: TcpStream,
    cache: &CellCache,
    runner: &SweepRunner,
    max_retries: u32,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    // Responses are flushed at line-group boundaries; Nagle would hold each
    // flush back until the client's delayed ACK of the previous one.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();
    loop {
        // A request line is client-controlled: never buffer more of one
        // than the cap (plus its terminator) before refusing it.
        line.clear();
        let cap = MAX_REQUEST_LINE as u64 + 1;
        if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            let reason = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            writeln!(writer, "{}", error_line(&reason))?;
            return writer.flush();
        }
        let line = std::str::from_utf8(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Err(reason) => {
                writeln!(writer, "{}", error_line(&reason))?;
                writer.flush()?;
            }
            Ok(Request::Stats) => {
                let s = cache.stats();
                writeln!(
                    writer,
                    "stats|hits={}|misses={}|evictions={}|disk-hits={}|entries={}",
                    s.hits, s.misses, s.evictions, s.disk_hits, s.entries
                )?;
                writeln!(writer, "{}", done_line(0, 0))?;
                writer.flush()?;
            }
            Ok(Request::Shutdown) => {
                writeln!(writer, "{}", done_line(0, 0))?;
                writer.flush()?;
                stop.store(true, Ordering::SeqCst);
                // The accept loop is parked in accept(); poke it awake
                // so it observes the stop flag.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
            Ok(Request::Run(req)) => {
                let grid = match resolve(&req) {
                    Ok(grid) => grid,
                    Err(reason) => {
                        writeln!(writer, "{}", error_line(&reason))?;
                        writer.flush()?;
                        continue;
                    }
                };
                writeln!(writer, "{}", hello_line(grid.grid_id))?;
                writer.flush()?;
                let (hits, simulated, failed) =
                    stream_in_order(&mut writer, runner, cache, max_retries, &grid)?;
                let evictions = cache.stats().evictions;
                // Request-scoped misses: every cell the cache could not
                // serve, whether it then simulated cleanly or failed.
                let misses = simulated + failed as u64;
                writeln!(writer, "{}", stats_line(hits, misses, evictions, simulated))?;
                writeln!(writer, "{}", done_line(grid.jobs.len() - failed, failed))?;
                writer.flush()?;
            }
        }
    }
}

/// Runs the grid's jobs and streams their lines in canonical order as a
/// contiguous prefix becomes ready. Returns `(hits, simulated, failed)`
/// counts for the stats line.
fn stream_in_order(
    writer: &mut impl Write,
    runner: &SweepRunner,
    cache: &CellCache,
    max_retries: u32,
    grid: &crate::queue::ResolvedGrid,
) -> std::io::Result<(u64, u64, usize)> {
    // An all-hit request is answered here, on the connection's thread:
    // no workers, no reorder buffer, and a write count that does not
    // depend on how those would have been scheduled.
    let digests: Vec<u64> = grid
        .jobs
        .iter()
        .map(|job| job_digest(grid.scale, job))
        .collect();
    if let Some(lines) = cache.acquire_all_ready(&digests) {
        for line in &lines {
            writeln!(writer, "{line}")?;
        }
        return Ok((lines.len() as u64, 0, 0));
    }
    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; grid.jobs.len()]);
    let ready = Condvar::new();
    let mut counts = (0u64, 0u64, 0usize);
    std::thread::scope(|scope| -> std::io::Result<()> {
        scope.spawn(|| {
            run_jobs(
                runner,
                cache,
                grid.scale,
                max_retries,
                &grid.jobs,
                |i, outcome| {
                    slots.lock().expect("slot lock")[i] = Some(outcome.clone());
                    ready.notify_all();
                },
            );
        });
        for i in 0..grid.jobs.len() {
            // `more` is whether the next line can be written without
            // waiting (the lines after the last cell always can).
            let (outcome, more) = {
                let mut slots = slots.lock().expect("slot lock");
                loop {
                    match slots[i].take() {
                        Some(outcome) => {
                            break (outcome, slots.get(i + 1).is_none_or(Option::is_some))
                        }
                        None => slots = ready.wait(slots).expect("slot lock"),
                    }
                }
            };
            match &outcome {
                Outcome::Hit(_) => counts.0 += 1,
                Outcome::Simulated(_) => counts.1 += 1,
                Outcome::Failed(_) => counts.2 += 1,
            }
            writeln!(writer, "{}", outcome.line())?;
            // A line streams the moment it is streamable; only a writer
            // about to block on the reorder buffer needs to flush first.
            if !more {
                writer.flush()?;
            }
        }
        Ok(())
    })?;
    Ok(counts)
}
