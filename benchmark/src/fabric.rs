//! The three sweep-fabric workloads, all over the 112-cell golden grid
//! (21 kernels × 5 front-ends at test scale, plus the 7 machine probes):
//!
//! * `sweep_fabric` — the local driver: `run_matrix_checkpointed` and
//!   `run_machine_probes` into a real checkpoint file, then
//!   `render_golden_json` and `check_golden`;
//! * `serve_cold` — a fresh in-process `Server` on an empty disk cache
//!   answers one all-miss request; then it is restarted on the same
//!   directory and answers the same request from disk;
//! * `serve_warm` — a filled server answers all-hit requests.
//!
//! Every result is held against the committed `BENCH_golden.json` byte for
//! byte: locally through the rendered baseline, served through the
//! baseline rendered from the response's checksum-verified cell lines.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use warpweave_bench::grid::{figure7_configs, grid_id, sweep_workloads};
use warpweave_bench::{
    check_golden, matrix_from_store, merge_checkpoints, probes_from_store, render_golden_json,
    run_machine_probes, run_matrix_checkpointed, MatrixResult, ProbeResult,
};
use warpweave_core::checkpoint::decode_cell;
use warpweave_core::{SmConfig, SweepCheckpoint, SweepRunner};
use warpweave_serve::{
    request_run, request_shutdown, request_stats, RunRequest, ServeConfig, Server, SweepResponse,
};
use warpweave_workloads::{Scale, Workload};

use crate::clock::{Lap, Stopwatch};
use crate::metrics::Metrics;
use crate::timing::Summary;
use crate::trace::Tracer;
use crate::{Bench, CellStat, Ctx, Rep, Variant};

/// Host threads of the local sweep runner and of the server's worker pool
/// (the reference host has two cores).
const FABRIC_THREADS: usize = 2;

/// The golden grid and the committed baseline it must reproduce.
struct GoldenGrid {
    configs: Vec<SmConfig>,
    workloads: Vec<Box<dyn Workload>>,
    id: u64,
    /// Cells of the grid: the matrix plus the machine probes.
    len: usize,
    committed: String,
}

impl GoldenGrid {
    fn load(ctx: &Ctx) -> Result<GoldenGrid, String> {
        let path = ctx.root.join("BENCH_golden.json");
        let committed =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let configs = figure7_configs();
        let workloads = sweep_workloads(true);
        let id = grid_id(&configs, &workloads, Scale::Test);
        Ok(GoldenGrid {
            len: configs.len() * workloads.len() + warpweave_bench::grid::machine_probes().len(),
            configs,
            workloads,
            id,
            committed,
        })
    }

    /// The request naming exactly this grid.
    fn request(&self) -> RunRequest {
        RunRequest {
            full: false,
            frontends: Vec::new(),
            workloads: self.workloads.iter().map(|w| w.name().into()).collect(),
            probes: true,
        }
    }

    /// Renders the baseline from `matrix` and `probes` and diffs it against
    /// the committed file. Returns the number of drifted lines.
    fn drift(&self, matrix: &MatrixResult, probes: &[ProbeResult], tr: &mut Tracer) -> u64 {
        let span = tr.begin("bench.render_golden", None);
        let current = render_golden_json("test", self.id, matrix, probes);
        tr.end(span);
        let span = tr.begin("bench.check_golden", None);
        let verdict = check_golden(&self.committed, &current);
        tr.end(span);
        match verdict {
            Ok(()) => 0,
            Err(report) => {
                eprint!("{report}");
                let drifted = self
                    .committed
                    .lines()
                    .zip(current.lines())
                    .filter(|(a, b)| a != b)
                    .count();
                drifted.max(1) as u64
            }
        }
    }

    /// Holds a served response against the committed baseline. Returns the
    /// number of failed cells.
    fn check_response(&self, response: &SweepResponse, tr: &mut Tracer) -> u64 {
        let failed = response.fail_lines.len() as u64;
        let assembled = response.into_store().and_then(|store| {
            let matrix = matrix_from_store(&self.configs, &self.workloads, &store)
                .map_err(|missing| format!("response misses {} cell(s)", missing.len()))?;
            let probes = probes_from_store(&store)
                .map_err(|missing| format!("response misses {} probe(s)", missing.len()))?;
            Ok((matrix, probes))
        });
        match assembled {
            Ok((matrix, probes)) => failed + self.drift(&matrix, &probes, tr),
            Err(e) => {
                eprintln!("served response: {e}");
                self.len as u64
            }
        }
    }
}

/// The cells of a finished local sweep, in canonical job order.
fn cells_of(matrix: &MatrixResult, probes: &[ProbeResult]) -> Vec<CellStat> {
    let mut cells = Vec::new();
    for row in &matrix.cells {
        for cell in row {
            cells.push(CellStat::single_sm(
                warpweave_bench::cell_key(&cell.workload, &cell.config),
                cell.stats.clone(),
            ));
        }
    }
    for p in probes {
        cells.push(CellStat {
            key: p.probe.key(),
            stats: p.total.clone(),
            channel: Some(p.channel),
            channel_budget: p.probe.cfg.dram.bytes_per_cycle
                * f64::from(p.probe.cfg.dram.num_channels.max(1)),
            sm_cycles: None,
        });
    }
    cells
}

/// The cells of a served response, decoded from its verified lines.
fn cells_of_response(response: &SweepResponse) -> Result<Vec<CellStat>, String> {
    response
        .cell_lines
        .iter()
        .map(|line| {
            let (key, record) = decode_cell(line)?;
            Ok(CellStat {
                sm_cycles: record.channel.is_none().then_some(record.stats.cycles),
                key,
                stats: record.stats,
                channel: record.channel,
                channel_budget: 0.0,
            })
        })
        .collect()
}

/// `sweep_fabric`: the local sweep driver end to end.
pub struct SweepFabric {
    grid: GoldenGrid,
    runner: SweepRunner,
    checkpoint: PathBuf,
    reference: Vec<CellStat>,
}

impl SweepFabric {
    pub fn new(ctx: &Ctx) -> Result<SweepFabric, String> {
        let mut bench = SweepFabric {
            grid: GoldenGrid::load(ctx)?,
            runner: SweepRunner::with_threads(FABRIC_THREADS),
            checkpoint: ctx.scratch("sweep-checkpoint"),
            reference: Vec::new(),
        };
        let (cells, drift) = bench.sweep(&mut Tracer::disabled())?;
        if drift > 0 {
            return Err(format!(
                "{drift} line(s) drift from BENCH_golden.json during set-up"
            ));
        }
        bench.reference = cells;
        Ok(bench)
    }

    /// One local sweep into a fresh checkpoint file, checked against the
    /// committed baseline. Returns the cells and the drifted-line count.
    fn sweep(&self, tr: &mut Tracer) -> Result<(Vec<CellStat>, u64), String> {
        let g = &self.grid;
        let span = tr.begin("core.checkpoint_create", None);
        let mut store =
            SweepCheckpoint::create(&self.checkpoint, g.id).map_err(|e| e.to_string())?;
        tr.end(span);
        let span = tr.begin("bench.matrix", None);
        let matrix = run_matrix_checkpointed(
            &self.runner,
            &g.configs,
            &g.workloads,
            Scale::Test,
            true,
            &mut store,
            None,
        )
        .map_err(|e| e.to_string())?
        .ok_or("the sweep left cells unsimulated")?;
        tr.end(span);
        let span = tr.begin("bench.probes", None);
        let probes =
            run_machine_probes(Scale::Test, Some(&mut store)).map_err(|e| e.to_string())?;
        tr.end(span);
        let drift = g.drift(&matrix, &probes, tr);
        Ok((cells_of(&matrix, &probes), drift))
    }

    /// Splits the last repetition's checkpoint into two shard files and
    /// times `merge_checkpoints` over them, in seconds.
    fn time_merge(&self, reps: usize) -> Result<f64, String> {
        let store = SweepCheckpoint::load(&self.checkpoint).map_err(|e| e.to_string())?;
        let shards: Vec<String> = (0..2)
            .map(|s| format!("{}.shard{s}", self.checkpoint.display()))
            .collect();
        for (s, path) in shards.iter().enumerate() {
            let mut shard =
                SweepCheckpoint::create(path, self.grid.id).map_err(|e| e.to_string())?;
            for (_, key) in store.keys().enumerate().filter(|(i, _)| i % 2 == s) {
                let record = store.get(key).expect("listed key").clone();
                shard.record(key, record).map_err(|e| e.to_string())?;
            }
        }
        let mut times = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            let union = merge_checkpoints(&shards, self.grid.id)?;
            times.push(t.elapsed().as_secs_f64());
            if union.len() != store.len() {
                return Err("merged shards do not cover the grid".into());
            }
        }
        for path in &shards {
            let _ = std::fs::remove_file(path);
        }
        Ok(Summary::of(&times).p25)
    }
}

impl Bench for SweepFabric {
    fn rep(&mut self, tr: &mut Tracer, _variant: Variant) -> Rep {
        let watch = Stopwatch::start();
        let span = tr.begin("bench.rep", None);
        let outcome = self.sweep(tr);
        tr.end(span);
        let time = watch.lap();
        let attempted = self.grid.len as u64;
        let failed = match outcome {
            Ok((cells, drift)) => {
                drift
                    + cells
                        .iter()
                        .zip(&self.reference)
                        .filter(|(a, b)| a != b)
                        .count() as u64
            }
            Err(e) => {
                eprintln!("sweep_fabric: {e}");
                attempted
            }
        };
        Rep {
            time,
            attempted,
            failed,
            ..Rep::default()
        }
    }

    fn cells(&self) -> &[CellStat] {
        &self.reference
    }

    fn layer_metrics(&mut self, _ctx: &Ctx, out: &mut Metrics) {
        match self.time_merge(5) {
            Ok(seconds) => out.set("bench.merge_2shards_ms", seconds * 1e3),
            Err(e) => eprintln!("merge of two shards: {e}"),
        }
    }

    fn finish(&mut self) {
        let _ = std::fs::remove_file(&self.checkpoint);
    }
}

/// An in-process sweep server on its own thread.
struct Running {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(cache_dir: &Path, tr: &mut Tracer) -> Result<Running, String> {
        let span = tr.begin("serve.bind", None);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                threads: Some(FABRIC_THREADS),
                cache_dir: Some(cache_dir.to_path_buf()),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let thread = std::thread::spawn(move || server.run());
        tr.end(span);
        Ok(Running { addr, thread })
    }

    /// Asks the server to shut down and waits for its thread.
    fn stop(self, tr: &mut Tracer) -> Result<(), String> {
        let span = tr.begin("serve.shutdown", None);
        let asked = request_shutdown(&self.addr);
        let joined = self.thread.join();
        tr.end(span);
        asked?;
        match joined {
            Ok(served) => served.map_err(|e| format!("serve loop: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    /// One request, timed from send to the `done` line (checksums verified
    /// on receipt by the client library).
    fn request(
        &self,
        req: &RunRequest,
        span: &'static str,
        tr: &mut Tracer,
    ) -> Result<(SweepResponse, Lap), String> {
        let span = tr.begin(span, None);
        let watch = Stopwatch::start();
        let response = request_run(&self.addr, req);
        let time = watch.lap();
        tr.end(span);
        response.map(|r| (r, time))
    }

    /// One counter of the server's cumulative `stats|` line.
    fn counter(&self, name: &str) -> Result<f64, String> {
        let line = request_stats(&self.addr)?;
        line.split('|')
            .filter_map(|field| field.split_once('='))
            .find(|(key, _)| *key == name)
            .and_then(|(_, value)| value.parse().ok())
            .ok_or_else(|| format!("no `{name}` in `{line}`"))
    }
}

/// A fresh, empty cache directory under the scratch directory.
fn fresh_dir(ctx: &Ctx, tag: &str) -> Result<PathBuf, String> {
    let dir = ctx.scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `serve_cold`: every cell simulated through the service, then read back
/// from disk after a restart.
pub struct ServeCold {
    grid: GoldenGrid,
    request: RunRequest,
    dir: PathBuf,
    local: Option<SweepFabric>,
    reference: Vec<CellStat>,
    transcript: String,
    cold_seconds: Vec<f64>,
    local_seconds: Vec<f64>,
    disk_seconds: Vec<f64>,
    /// `(misses, disk hits)` of the last repetition's two requests.
    last_counts: (f64, f64),
}

impl ServeCold {
    pub fn new(ctx: &Ctx) -> Result<ServeCold, String> {
        let grid = GoldenGrid::load(ctx)?;
        let mut bench = ServeCold {
            request: grid.request(),
            grid,
            dir: fresh_dir(ctx, "cold")?,
            // The local driver rides along in traced runs only: the cold
            // tax is the cold request held against a local sweep made in
            // the same repetition.
            local: if ctx.trace {
                Some(SweepFabric::new(ctx)?)
            } else {
                None
            },
            reference: Vec::new(),
            transcript: String::new(),
            cold_seconds: Vec::new(),
            local_seconds: Vec::new(),
            disk_seconds: Vec::new(),
            last_counts: (0.0, 0.0),
        };
        let (_, failed) = bench.round(&mut Tracer::disabled())?;
        if failed > 0 {
            return Err(format!("{failed} served cell(s) failed during set-up"));
        }
        bench.cold_seconds.clear();
        bench.local_seconds.clear();
        bench.disk_seconds.clear();
        Ok(bench)
    }

    /// Cold request on an empty directory, restart, disk-hit request.
    /// Returns the cold request's time and the failed-cell count.
    fn round(&mut self, tr: &mut Tracer) -> Result<(Lap, u64), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let server = Running::start(&self.dir, tr)?;
        let cold = server.request(&self.request, "serve.request_cold", tr);
        server.stop(tr)?;
        let (cold, cold_time) = cold?;
        self.cold_seconds.push(cold_time.wall);

        let server = Running::start(&self.dir, tr)?;
        let disk = server.request(&self.request, "serve.request_disk", tr);
        let disk_hits = server.counter("disk-hits");
        server.stop(tr)?;
        let (disk, disk_time) = disk?;
        self.disk_seconds.push(disk_time.wall);
        self.last_counts = (cold.stats.misses as f64, disk_hits?);
        if let Some(local) = &mut self.local {
            let span = tr.begin("bench.local_sweep", None);
            let rep = local.rep(&mut Tracer::disabled(), Variant::Full);
            tr.end(span);
            self.local_seconds.push(rep.time.wall);
        }

        let span = tr.begin("bench.verify_response", None);
        let mut failed = self.grid.check_response(&cold, tr);
        if self.reference.is_empty() {
            self.reference = cells_of_response(&cold)?;
            self.transcript = cold.transcript();
        }
        let n = self.grid.len as u64;
        if cold.transcript() != self.transcript || cold.stats.simulated != n {
            eprintln!("cold response differs from the reference transcript");
            failed += 1;
        }
        if disk.transcript() != self.transcript || disk.stats.hits != n {
            eprintln!("disk-hit response differs from the reference transcript");
            failed += 1;
        }
        tr.end(span);
        Ok((cold_time, failed))
    }
}

impl Bench for ServeCold {
    fn rep(&mut self, tr: &mut Tracer, _variant: Variant) -> Rep {
        let span = tr.begin("bench.rep", None);
        let outcome = self.round(tr);
        tr.end(span);
        let attempted = self.grid.len as u64;
        match outcome {
            Ok((time, failed)) => Rep {
                time,
                attempted,
                failed,
                ..Rep::default()
            },
            Err(e) => {
                eprintln!("serve_cold: {e}");
                Rep {
                    attempted,
                    failed: attempted,
                    ..Rep::default()
                }
            }
        }
    }

    fn cells(&self) -> &[CellStat] {
        &self.reference
    }

    fn side_series(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![("serve.req_disk_ms", self.disk_seconds.clone())]
    }

    fn layer_metrics(&mut self, _ctx: &Ctx, out: &mut Metrics) {
        out.set("serve.misses", self.last_counts.0);
        out.set("serve.disk_hits", self.last_counts.1);
        out.set("serve.response_bytes", self.transcript.len() as f64);
        if !self.local_seconds.is_empty() {
            out.set(
                "serve.cold_tax",
                Summary::of(&self.cold_seconds).p25 / Summary::of(&self.local_seconds).p25,
            );
        }
    }

    fn finish(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(local) = &mut self.local {
            local.finish();
        }
    }
}

/// Requests per second `serve_warm` sends.
const WARM_RATE: f64 = 100.0;

/// `serve_warm`: all-hit requests against a filled server, sent on a fixed
/// schedule of [`WARM_RATE`] requests per second — far below what the
/// server sustains, so each request meets an idle server and a run makes
/// the same number of requests however fast they are. (The server keeps
/// one thread per finished connection until shutdown, so a closed loop
/// would grow the resident set with the request count, and a faster warm
/// path would read as a memory regression.) If a request ever outlasts
/// the period, the next goes out as soon as it returns.
pub struct ServeWarm {
    grid: GoldenGrid,
    request: RunRequest,
    dir: PathBuf,
    /// Runs until `finish`.
    server: Option<Running>,
    next_due: Instant,
    reference: Vec<CellStat>,
    transcript: String,
    bind_seconds: f64,
}

impl ServeWarm {
    pub fn new(ctx: &Ctx) -> Result<ServeWarm, String> {
        let grid = GoldenGrid::load(ctx)?;
        let dir = fresh_dir(ctx, "warm")?;
        let tr = &mut Tracer::disabled();
        let t = Instant::now();
        let server = Running::start(&dir, tr)?;
        let bind_seconds = t.elapsed().as_secs_f64();
        let request = grid.request();
        let (fill, _) = server.request(&request, "serve.request_cold", tr)?;
        let failed = grid.check_response(&fill, tr);
        if failed > 0 {
            return Err(format!("{failed} served cell(s) failed during set-up"));
        }
        Ok(ServeWarm {
            reference: cells_of_response(&fill)?,
            transcript: fill.transcript(),
            grid,
            request,
            dir,
            server: Some(server),
            next_due: Instant::now(),
            bind_seconds,
        })
    }
}

impl Bench for ServeWarm {
    fn rep(&mut self, tr: &mut Tracer, _variant: Variant) -> Rep {
        let attempted = self.grid.len as u64;
        let server = self.server.as_ref().expect("server runs until finish");
        let span = tr.begin("bench.rep", None);
        let pace = tr.begin("bench.pace", None);
        std::thread::sleep(self.next_due.saturating_duration_since(Instant::now()));
        self.next_due =
            self.next_due.max(Instant::now()) + std::time::Duration::from_secs_f64(1.0 / WARM_RATE);
        tr.end(pace);
        let outcome = server.request(&self.request, "serve.request_warm", tr);
        tr.end(span);
        match outcome {
            Ok((response, time)) => {
                let same =
                    response.stats.hits == attempted && response.transcript() == self.transcript;
                if !same {
                    eprintln!("warm response differs from the reference transcript");
                }
                Rep {
                    time,
                    attempted,
                    failed: u64::from(!same),
                    ..Rep::default()
                }
            }
            Err(e) => {
                eprintln!("serve_warm: {e}");
                Rep {
                    attempted,
                    failed: attempted,
                    ..Rep::default()
                }
            }
        }
    }

    fn cells(&self) -> &[CellStat] {
        &self.reference
    }

    fn layer_metrics(&mut self, _ctx: &Ctx, out: &mut Metrics) {
        out.set("serve.bind_ms", self.bind_seconds * 1e3);
        out.set("serve.response_bytes", self.transcript.len() as f64);
        let server = self.server.as_ref().expect("server runs until finish");
        for (metric, counter) in [("serve.hits", "hits"), ("serve.misses", "misses")] {
            match server.counter(counter) {
                Ok(value) => out.set(metric, value),
                Err(e) => eprintln!("serve_warm: {e}"),
            }
        }
    }

    fn finish(&mut self) {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.stop(&mut Tracer::disabled()) {
                eprintln!("serve_warm: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
