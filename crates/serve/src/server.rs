//! The long-running sweep server: accept loop and per-connection
//! handlers.
//!
//! One OS thread per connection (the build is offline and std-only, so
//! no async runtime); the heavy lifting — cell simulation — fans out
//! through a shared [`SweepRunner`] worker pool, and the shared
//! [`CellCache`] deduplicates identical cells across connections.
//!
//! A `run` request is run, then answered: after the `hello` line the
//! handler waits for [`run_jobs`], which hands back every job's outcome in
//! canonical request order, then writes all the lines and flushes once.
//! The transcript is therefore a pure function of the request.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use warpweave_core::SweepRunner;

use crate::cache::CellCache;
use crate::protocol::{
    done_line, error_line, hello_line, parse_request, stats_line, Request, MAX_REQUEST_LINE,
};
use crate::queue::{resolve, run_jobs, Outcome};

/// Server tuning knobs (all optional; defaults are sensible for CI).
#[derive(Debug)]
pub struct ServeConfig {
    /// Worker-thread cap for the simulation pool (`None` = all cores).
    pub threads: Option<usize>,
    /// Memory-tier capacity of the cell cache, in entries.
    pub cache_entries: usize,
    /// Disk tier directory (`None` = memory-only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: None,
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
    /// connection. At shutdown every connection stops reading: a client
    /// that has sent nothing holds the server no longer, while a request
    /// already under way is run and answered in full.
    ///
    /// # Errors
    /// Accept-loop I/O failures (per-connection I/O errors are contained
    /// in the handler).
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr()?;
        let mut handlers: Vec<(std::thread::JoinHandle<()>, Peer)> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Finished connections release their thread's resources now,
            // not at shutdown: a long-lived daemon serves unboundedly many.
            handlers.retain(|(h, _)| !h.is_finished());
            let (stream, peer) = match stream.and_then(|s| Ok((s.try_clone()?, s))) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("sweep_serve: accept: {e}");
                    continue;
                }
            };
            let peer = Arc::new(Mutex::new(Some(peer)));
            let closes = ClosesPeer(Arc::clone(&peer));
            let cache = Arc::clone(&self.cache);
            let runner = Arc::clone(&self.runner);
            let stop = Arc::clone(&self.stop);
            let handler = std::thread::spawn(move || {
                let _closes = closes;
                if let Err(e) = handle(stream, &cache, &runner, &stop, addr) {
                    eprintln!("sweep_serve: connection: {e}");
                }
            });
            handlers.push((handler, peer));
        }
        // A handler parked on an idle client's next request line reads
        // EOF now and returns; writes are untouched.
        for (_, peer) in &handlers {
            if let Some(stream) = &*peer.lock().unwrap_or_else(PoisonError::into_inner) {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for (h, _) in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// The accept loop's own handle on a connection, which it shuts for
/// reading at shutdown. Its handler closes it on the way out, however the
/// handler ends, so the client sees the close when it happens.
type Peer = Arc<Mutex<Option<TcpStream>>>;

/// Closes a [`Peer`] when dropped.
struct ClosesPeer(Peer);

impl Drop for ClosesPeer {
    fn drop(&mut self) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take();
    }
}

/// Handles one connection: a sequence of request lines until EOF.
fn handle(
    stream: TcpStream,
    cache: &CellCache,
    runner: &SweepRunner,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    // A response is flushed after `hello` and at its end; Nagle would hold
    // each flush back until the client's delayed ACK of the previous one.
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
                let (mut hits, mut simulated, mut failed) = (0u64, 0u64, 0usize);
                for outcome in run_jobs(runner, cache, grid.scale, &grid.jobs) {
                    match outcome {
                        Outcome::Hit(_) => hits += 1,
                        Outcome::Simulated(_) => simulated += 1,
                        Outcome::Failed(_) => failed += 1,
                    }
                    writeln!(writer, "{outcome}")?;
                }
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
