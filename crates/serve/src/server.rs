//! The long-running sweep server: accept loop and per-connection
//! handlers.
//!
//! One OS thread per connection (the build is offline and std-only, so
//! no async runtime); the heavy lifting — cell simulation — fans out
//! through a shared [`SweepRunner`] worker pool, the shared [`CellCache`]
//! deduplicates identical cells across connections, and the shared
//! `GridMemo` resolves a repeated request once.
//!
//! A `run` request is run, then answered. The handler first asks the
//! cache for every cell at once ([`CellCache::acquire_all_ready`]): when
//! all are ready, the whole answer — `hello`, the shared cell lines,
//! `stats`, `done` — goes out as one gather write (`write_answer`).
//! Otherwise it flushes `hello` before simulating, waits for
//! [`run_jobs`], which hands back every job's outcome in canonical request
//! order, then writes the rest of the answer through the same
//! `write_answer` and flushes once. The transcript is therefore a pure
//! function of the request.

use std::io::{self, BufRead, BufReader, BufWriter, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use warpweave_core::SweepRunner;

use crate::cache::CellCache;
use crate::protocol::{
    cache_stats_line, done_line, error_line, hello_line, parse_request, stats_line, Request,
    MAX_REQUEST_LINE,
};
use crate::queue::{run_jobs, GridMemo, Outcome};

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
    shared: Arc<Shared>,
}

/// What every connection handler shares.
struct Shared {
    cache: CellCache,
    runner: SweepRunner,
    memo: GridMemo,
    stop: AtomicBool,
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
            shared: Arc::new(Shared {
                cache,
                runner,
                memo: GridMemo::default(),
                stop: AtomicBool::new(false),
            }),
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
            if self.shared.stop.load(Ordering::SeqCst) {
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
            let shared = Arc::clone(&self.shared);
            let handler = std::thread::spawn(move || {
                let _closes = closes;
                if let Err(e) = handle(stream, &shared, addr) {
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
fn handle(stream: TcpStream, shared: &Shared, addr: SocketAddr) -> std::io::Result<()> {
    let Shared {
        cache,
        runner,
        memo,
        stop,
    } = shared;
    // A response with misses is flushed after `hello` and at its end;
    // Nagle would hold each flush back until the client's delayed ACK of
    // the previous one.
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
                writeln!(writer, "{}", cache_stats_line(&cache.stats()))?;
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
                let grid = match memo.resolve(&req) {
                    Ok(grid) => grid,
                    Err(reason) => {
                        writeln!(writer, "{}", error_line(&reason))?;
                        writer.flush()?;
                        continue;
                    }
                };
                let hello = hello_line(grid.grid_id);
                if let Some(ready) = cache.acquire_all_ready(&grid.digests) {
                    let lines: Vec<&str> = ready.iter().map(|line| &**line).collect();
                    let stats = stats_line(lines.len() as u64, 0, cache.stats().evictions, 0);
                    let done = done_line(lines.len(), 0);
                    write_answer(&mut writer, Some(&hello), &lines, &stats, &done)?;
                    writer.flush()?;
                    continue;
                }
                writeln!(writer, "{hello}")?;
                writer.flush()?;
                let outcomes = run_jobs(runner, cache, &grid);
                let (mut hits, mut simulated, mut failed) = (0u64, 0u64, 0usize);
                for outcome in &outcomes {
                    match outcome {
                        Outcome::Hit(_) => hits += 1,
                        Outcome::Simulated(_) => simulated += 1,
                        Outcome::Failed(_) => failed += 1,
                    }
                }
                let rendered: Vec<_> = outcomes.iter().map(Outcome::line).collect();
                let lines: Vec<&str> = rendered.iter().map(|line| &**line).collect();
                // Request-scoped misses: every cell the cache could not
                // serve, whether it then simulated cleanly or failed.
                let misses = simulated + failed as u64;
                let stats = stats_line(hits, misses, cache.stats().evictions, simulated);
                let done = done_line(grid.jobs.len() - failed, failed);
                write_answer(&mut writer, None, &lines, &stats, &done)?;
                writer.flush()?;
            }
        }
    }
}

/// Writes a `run` answer — `hello` (unless already sent), every cell or
/// `fail|` line, `stats` and `done`, each `\n`-terminated — as one gather
/// write of slices that borrow the lines, looping as `write_all` does
/// until every byte is out. The bytes are those of writing the lines one
/// by one.
fn write_answer(
    out: &mut impl Write,
    hello: Option<&str>,
    lines: &[&str],
    stats: &str,
    done: &str,
) -> io::Result<()> {
    let newline = IoSlice::new(b"\n");
    let mut slices = Vec::with_capacity(2 * lines.len() + 6);
    if let Some(hello) = hello {
        slices.extend([IoSlice::new(hello.as_bytes()), newline]);
    }
    for line in lines {
        slices.extend([IoSlice::new(line.as_bytes()), newline]);
    }
    slices.extend([IoSlice::new(stats.as_bytes()), newline]);
    slices.extend([IoSlice::new(done.as_bytes()), newline]);
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts at most 7 bytes per call, gathered across slices.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(7 - taken);
                self.0.extend_from_slice(&buf[..n]);
                taken += n;
                if taken == 7 {
                    break;
                }
            }
            Ok(taken)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Fails its first call with `Interrupted`, then takes everything.
    struct Interrupted {
        out: Vec<u8>,
        interrupted: bool,
    }

    impl Write for Interrupted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.out.write_vectored(bufs)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn an_answer_is_the_line_by_line_rendering() {
        let lines = [
            "cell|a/b|s:cycles=1|#00",
            "fail|c/d|seed=1|boom",
            "cell|e/f|s:cycles=22|#01",
        ];
        let (hello, stats, done) = (hello_line(7), stats_line(2, 1, 3, 1), done_line(2, 1));
        for hello in [Some(hello.as_str()), None] {
            let mut expect = Vec::new();
            if let Some(hello) = hello {
                writeln!(expect, "{hello}").unwrap();
            }
            for line in lines {
                writeln!(expect, "{line}").unwrap();
            }
            writeln!(expect, "{stats}").unwrap();
            writeln!(expect, "{done}").unwrap();

            let mut trickle = Trickle(Vec::new());
            write_answer(&mut trickle, hello, &lines, &stats, &done).unwrap();
            assert_eq!(trickle.0, expect, "7 bytes per call, hello {hello:?}");

            let mut flaky = Interrupted {
                out: Vec::new(),
                interrupted: false,
            };
            write_answer(&mut flaky, hello, &lines, &stats, &done).unwrap();
            assert!(flaky.interrupted);
            assert_eq!(flaky.out, expect, "after one Interrupted, hello {hello:?}");
        }
    }
}
