//! The driver: sets a workload up, repeats it for the measuring phase,
//! derives the metrics and prints the result line.
//!
//! A plain run prints the end-to-end metrics. A traced run lets plain,
//! traced and ablated repetitions take turns (so host drift hits all of
//! them alike), takes the isolated kernel timings, writes the spans to
//! `out/trace-<workload>.json` and prints the per-layer metrics.
//! End-to-end numbers always come from plain runs.
//!
//! Every repetition is timed in process CPU seconds and divided by the
//! host's speed around it (see [`crate::clock`]); the reported value is the
//! lower quartile of those normalised times. Raw wall-clock times are kept
//! beside them in the result file.

use std::time::Instant;

use crate::clock::{calibrate, normalise, process_cpu_seconds};
use crate::fabric::{ServeCold, ServeWarm, SweepFabric};
use crate::json::num;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::sim::{FuzzBench, PaperBench};
use crate::timing::{ratio, Summary};
use crate::trace::{self, Tracer};
use crate::{Bench, CellStat, Ctx, Rep, Variant};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "dense_alu",
    "divergent_interweave",
    "mem_hierarchy",
    "fuzz_kernels",
    "sweep_fabric",
    "serve_cold",
    "serve_warm",
];

/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds of a traced run kept back for the isolated kernels.
const KERNEL_SECONDS: f64 = 2.0;
/// A cell counts as channel-saturated from this utilization up.
const SATURATED: f64 = 0.85;

/// Sets `name` up: resolves its inputs, runs its reference repetition
/// through the library's own entry points, and leaves it ready to repeat.
///
/// # Errors
/// Unknown workloads and any failure of the reference repetition.
pub fn build(name: &str, ctx: &Ctx) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "dense_alu" => Box::new(PaperBench::dense_alu(ctx)?),
        "divergent_interweave" => Box::new(PaperBench::divergent_interweave(ctx)?),
        "mem_hierarchy" => Box::new(PaperBench::mem_hierarchy(ctx)?),
        "fuzz_kernels" => Box::new(FuzzBench::new(ctx)?),
        "sweep_fabric" => Box::new(SweepFabric::new(ctx)?),
        "serve_cold" => Box::new(ServeCold::new(ctx)?),
        "serve_warm" => Box::new(ServeWarm::new(ctx)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// One timed repetition and the host-speed-normalised seconds it took.
#[derive(Debug, Clone, Copy)]
struct Timed {
    rep: Rep,
    seconds: f64,
    /// Host speed around the repetition (1.0 = the reference host).
    host_speed: f64,
    /// Wall-clock seconds of the whole call, untimed parts included.
    call_seconds: f64,
}

/// Times repetitions between calibrations: the calibration after one
/// repetition is the calibration before the next.
struct Timer {
    calibration: f64,
}

impl Timer {
    fn start() -> Timer {
        Timer {
            calibration: calibrate(),
        }
    }

    fn rep(&mut self, bench: &mut dyn Bench, tracer: &mut Tracer, variant: Variant) -> Timed {
        let before = self.calibration;
        let call = Instant::now();
        let rep = bench.rep(tracer, variant);
        let call_seconds = call.elapsed().as_secs_f64();
        self.calibration = calibrate();
        Timed {
            rep,
            call_seconds,
            seconds: normalise(rep.time.cpu, before, self.calibration),
            host_speed: normalise(1.0, before, self.calibration),
        }
    }
}

/// The series of one kind of repetition.
#[derive(Debug, Clone, Default)]
struct Series(Vec<Timed>);

impl Series {
    fn seconds(&self) -> Vec<f64> {
        self.0.iter().map(|t| t.seconds).collect()
    }

    fn summary(&self) -> Summary {
        Summary::of(&self.seconds())
    }

    fn wall(&self) -> Summary {
        Summary::of(&self.0.iter().map(|t| t.rep.time.wall).collect::<Vec<_>>())
    }

    fn host_speed(&self) -> f64 {
        Summary::of(&self.0.iter().map(|t| t.host_speed).collect::<Vec<_>>()).p50
    }
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The table the metrics belong to ([`END_TO_END`] or [`PER_LAYER`]).
    pub table: &'static [(&'static str, &'static str)],
    /// Plain repetition times: normalised CPU seconds.
    pub reps: Summary,
    /// The same repetitions in raw wall-clock seconds.
    pub wall: Summary,
    /// Median host speed over the plain repetitions (1.0 = reference).
    pub host_speed: f64,
    /// The normalised plain repetition times themselves, in order.
    pub rep_times: Vec<f64>,
    /// Every other series of a traced run (traced and ablated repetitions,
    /// normalised CPU seconds), by name.
    pub other_series: Vec<(&'static str, Summary)>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.render(self.table)
        )
    }

    /// The result file `compare` reads: the result line's content plus the
    /// repetition summaries the spread is judged by.
    fn result_file(&self, workload: &str, ctx: &Ctx) -> String {
        format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
             \"trace\": {},\n  \"host_threads\": {},\n  \"host_speed\": {},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"rep_seconds\": {},\n  \"wall_seconds\": {},{}\n  \"metrics\": {},\n  \
             \"rep_times\": [{}]\n}}\n",
            ctx.seed,
            num(ctx.seconds),
            ctx.trace,
            std::thread::available_parallelism().map_or(0, usize::from),
            num(self.host_speed),
            self.failed == 0,
            self.attempted,
            self.failed,
            self.reps.to_json(),
            self.wall.to_json(),
            self.other_series
                .iter()
                .map(|(name, s)| format!("\n  \"{name}_seconds\": {},", s.to_json()))
                .collect::<String>(),
            self.metrics.render(self.table),
            self.rep_times
                .iter()
                .map(|t| num(*t))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Runs `workload` as `ctx` says and writes its result file.
///
/// # Errors
/// Set-up failures and filesystem failures; measured failures are counted
/// in the outcome instead.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let outcome = if ctx.trace {
        run_traced(workload, ctx)?
    } else {
        run_plain(workload, ctx)?
    };
    let kind = if ctx.trace { "layers" } else { "result" };
    let path = ctx.out.join(format!("{kind}-{workload}.json"));
    std::fs::write(&path, outcome.result_file(workload, ctx))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report(workload, &outcome);
    Ok(outcome)
}

/// The human-readable table, on stderr.
fn report(workload: &str, outcome: &Outcome) {
    let (r, w) = (&outcome.reps, &outcome.wall);
    eprintln!(
        "{workload}: {} rep(s); normalised CPU s: p25 {:.4}, median {:.4}, p90 {:.4}; \
         wall s: p25 {:.4}, median {:.4}, p90 {:.4}; host speed {:.2}; \
         {} of {} operation(s) failed",
        r.n,
        r.p25,
        r.p50,
        r.p90,
        w.p25,
        w.p50,
        w.p90,
        outcome.host_speed,
        outcome.failed,
        outcome.attempted
    );
    for (name, unit) in outcome.table {
        if let Some(value) = outcome.metrics.get(name) {
            eprintln!("  {name:<44} {value:>18.6} {unit}");
        }
    }
}

fn totals<'a>(reps: impl Iterator<Item = &'a Timed>) -> (u64, u64) {
    reps.fold((0, 0), |(a, f), t| (a + t.rep.attempted, f + t.rep.failed))
}

fn run_plain(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    // The first set-up is charged everything since the process started
    // (the process CPU clock starts at 0 there); later ones start afresh.
    let mut calibration = calibrate();
    let mut cpu_mark = 0.0;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = build(workload, ctx)?;
    loop {
        let cpu = process_cpu_seconds() - cpu_mark;
        let after = calibrate();
        setups.push(normalise(cpu, calibration, after));
        if ctx.smoke || setups.len() == SETUPS {
            break;
        }
        bench.finish();
        calibration = calibrate();
        cpu_mark = process_cpu_seconds();
        bench = build(workload, ctx)?;
    }

    // Repeat until the next repetition would overrun the measuring phase.
    let phase = Instant::now();
    let mut timer = Timer::start();
    let mut plain = Series::default();
    let mut longest = 0.0f64;
    loop {
        let timed = timer.rep(bench.as_mut(), &mut Tracer::disabled(), Variant::Full);
        longest = longest.max(timed.call_seconds);
        plain.0.push(timed);
        if ctx.smoke || phase.elapsed().as_secs_f64() + longest > ctx.seconds {
            break;
        }
    }
    bench.finish();

    let times = plain.summary();
    let cells = bench.cells();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", Summary::of(&setups).p50);
    metrics.set("rep_ms", times.p25 * 1e3);
    metrics.set(
        "host_tips",
        ratio(sum(cells, |c| c.stats.thread_instructions), times.p25),
    );
    metrics.set("cells_per_s", ratio(cells.len() as f64, times.p25));
    metrics.set("sim_cycles", sum(cells, |c| c.stats.cycles));
    metrics.set(
        "sim_ipc_gmean",
        warpweave_bench::gmean(cells.iter().map(|c| c.stats.ipc())),
    );
    metrics.set("peak_rss_mib", peak_rss_mib());
    let (attempted, failed) = totals(plain.0.iter());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        table: END_TO_END,
        reps: times,
        wall: plain.wall(),
        host_speed: plain.host_speed(),
        rep_times: plain.seconds(),
        other_series: Vec::new(),
    })
}

/// The series a traced run gathers, in the order it cycles through them.
const SLOTS: [(Variant, bool); 4] = [
    (Variant::Full, false),
    (Variant::Full, true),
    (Variant::NoSuperblocks, false),
    (Variant::NoFastForward, false),
];
const PLAIN: usize = 0;
const TRACED: usize = 1;

fn run_traced(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut bench = build(workload, ctx)?;
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::disabled();
    let budget = (ctx.seconds - KERNEL_SECONDS).max(ctx.seconds / 2.0);
    let slots = if bench.has_ablations() {
        &SLOTS[..]
    } else {
        &SLOTS[..2]
    };

    // Plain, traced and ablated repetitions take turns, so whatever phase
    // the host is in, every series sees it. At least one full turn.
    let phase = Instant::now();
    let mut timer = Timer::start();
    let mut series = vec![Series::default(); slots.len()];
    let (mut traced_wall, mut longest) = (0.0, 0.0f64);
    for turn in 0.. {
        let slot = turn % slots.len();
        let (variant, traced) = slots[slot];
        let tracer = if traced { &mut tracer } else { &mut off };
        let timed = timer.rep(bench.as_mut(), tracer, variant);
        if traced {
            traced_wall += timed.call_seconds;
        }
        longest = longest.max(timed.call_seconds);
        series[slot].0.push(timed);
        let full_turn = turn + 1 >= slots.len();
        if full_turn && (ctx.smoke || phase.elapsed().as_secs_f64() + longest > budget) {
            break;
        }
    }

    let mut metrics = Metrics::default();
    crate::kernels::measure(ctx, bench.cells(), &mut metrics)?;
    bench.layer_metrics(ctx, &mut metrics);
    for (name, series) in bench.side_series() {
        metrics.set(name, Summary::of(&series).p25 * 1e3);
    }
    bench.finish();

    let times: Vec<Summary> = series.iter().map(Series::summary).collect();
    let (plain, plain_wall) = (times[PLAIN], series[PLAIN].wall());
    metrics.set("bench.rep_p90_ms", plain.p90 * 1e3);
    metrics.set("bench.wall_rep_ms", plain_wall.p25 * 1e3);
    metrics.set("bench.host_speed", series[PLAIN].host_speed());
    metrics.set(
        "bench.trace_overhead",
        ratio(times[TRACED].p25, plain.p25) - 1.0,
    );
    for ((reps, off_times), (gain, drift)) in series.iter().zip(&times).skip(2).zip([
        ("core.superblock_gain", "core.superblock_cycle_drift"),
        ("core.fast_forward_gain", "core.fast_forward_cycle_drift"),
    ]) {
        metrics.set(gain, ratio(off_times.p25, plain.p25));
        let worst = reps.0.iter().map(|t| t.rep.cycle_drift).max().unwrap_or(0);
        metrics.set(drift, worst as f64);
    }
    span_metrics(
        tracer.spans(),
        series[TRACED].0.len(),
        traced_wall,
        &plain,
        &plain_wall,
        bench.cells(),
        &mut metrics,
    );
    count_metrics(bench.cells(), &mut metrics);
    metrics.set("isa.static_instrs", bench.static_instrs() as f64);

    let path = ctx.out.join(format!("trace-{workload}.json"));
    tracer
        .write_json(&path, workload)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let (attempted, failed) = totals(series.iter().flat_map(|s| &s.0));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        table: PER_LAYER,
        reps: plain,
        wall: plain_wall,
        host_speed: series[PLAIN].host_speed(),
        rep_times: series[PLAIN].seconds(),
        other_series: ["traced", "no_superblocks", "no_fast_forward"]
            .into_iter()
            .zip(times.into_iter().skip(1))
            .collect(),
    })
}

fn sum(cells: &[CellStat], field: impl Fn(&CellStat) -> u64) -> f64 {
    cells.iter().map(field).sum::<u64>() as f64
}

/// Per-layer numbers read off the spans of the traced repetitions.
fn span_metrics(
    spans: &[trace::Span],
    reps: usize,
    traced_wall_seconds: f64,
    plain: &Summary,
    plain_wall: &Summary,
    cells: &[CellStat],
    out: &mut Metrics,
) {
    let totals = trace::totals(spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let count = |name: &str| totals.get(name).map_or(0.0, |&(_, n)| n as f64);
    let per_rep_ms = |name: &str| total(name) / reps as f64 / 1e6;
    let rep_total = total("bench.rep");

    let self_sum: u64 = trace::self_times(spans).values().sum();
    out.set(
        "bench.span_coverage",
        ratio(self_sum as f64 / 1e9, traced_wall_seconds),
    );

    out.set("workloads.prepare_ms", per_rep_ms("workloads.prepare"));
    out.set("workloads.verify_ms", per_rep_ms("workloads.verify"));
    out.set("mem.space_init_ms", per_rep_ms("mem.space_init"));
    out.set(
        "core.sm_new_us_per_launch",
        ratio(total("core.sm_new"), count("core.sm_new")) / 1e3,
    );
    out.set("core.sm_new_share", ratio(total("core.sm_new"), rep_total));
    out.set("core.sm_run_share", ratio(total("core.sm_run"), rep_total));
    out.set("core.machine_new_ms", per_rep_ms("core.machine_new"));
    out.set(
        "core.machine_run_share",
        ratio(total("core.machine_run"), rep_total),
    );

    // Host time inside `run`, per repetition, where a span sits around it.
    let run_ns = (total("core.sm_run") + total("core.machine_run")) / reps as f64;
    let warp_instrs = sum(cells, |c| c.stats.warp_instructions);
    out.set(
        "core.host_ns_per_cycle",
        ratio(run_ns, sum(cells, |c| c.stats.cycles)),
    );
    out.set("core.host_ns_per_warp_instr", ratio(run_ns, warp_instrs));
    let get = |out: &Metrics, name: &str| out.get(name).unwrap_or(0.0);
    let covered = ratio(sum(cells, |c| c.stats.superblock_covered), warp_instrs);
    let exec_ns = warp_instrs
        * (covered * get(out, "core.exec_fused_ns_per_op")
            + (1.0 - covered) * get(out, "core.exec_warp_ns_per_op"));
    out.set("core.exec_est_share", ratio(exec_ns, run_ns));
    let l2_probes = sum(cells, |c| {
        c.channel.map_or(0, |ch| ch.l2_hits + ch.l2_misses)
    });
    let transfers = sum(cells, |c| {
        c.stats.dram.read_transfers + c.stats.dram.write_transfers
    });
    let mem_ns = sum(cells, |c| c.stats.lsu_transactions) * get(out, "mem.l1_access_ns_resident")
        + l2_probes * get(out, "mem.l2_probe_ns")
        + transfers
            * (get(out, "mem.channel_arbitrate_ns_per_req")
                + get(out, "mem.event_queue_ns_per_push_pop"));
    out.set("mem.est_share", ratio(mem_ns, run_ns));

    if count("bench.matrix") > 0.0 {
        out.set("bench.matrix_ms", per_rep_ms("bench.matrix"));
        out.set("bench.probes_ms", per_rep_ms("bench.probes"));
        out.set(
            "bench.nonsim_share",
            1.0 - ratio(total("bench.matrix") + total("bench.probes"), rep_total),
        );
    }
    out.set("bench.render_golden_ms", per_rep_ms("bench.render_golden"));
    out.set("bench.check_golden_ms", per_rep_ms("bench.check_golden"));

    if count("serve.bind") > 0.0 {
        out.set(
            "serve.bind_ms",
            total("serve.bind") / count("serve.bind") / 1e6,
        );
    }
    if count("serve.request_cold") + count("serve.request_warm") > 0.0 {
        out.set(
            "serve.us_per_cell",
            ratio(plain.p25 * 1e6, cells.len() as f64),
        );
        out.set("serve.req_p99_ms", plain_wall.p99 * 1e3);
    }
}

/// Exact counts of one repetition's simulated cells.
fn count_metrics(cells: &[CellStat], out: &mut Metrics) {
    let s = |field: fn(&warpweave_core::Stats) -> u64| sum(cells, |c| field(&c.stats));
    let warp_instrs = s(|s| s.warp_instructions);
    out.set(
        "core.superblock_coverage",
        ratio(s(|s| s.superblock_covered), warp_instrs),
    );
    out.set(
        "core.superblock_aborts_per_kwi",
        ratio(s(|s| s.superblock_aborts) * 1e3, warp_instrs),
    );
    let with_sm_cycles = || cells.iter().filter(|c| c.sm_cycles.is_some());
    out.set(
        "core.idle_cycle_share",
        ratio(
            with_sm_cycles().map(|c| c.stats.idle_cycles).sum::<u64>() as f64,
            with_sm_cycles().filter_map(|c| c.sm_cycles).sum::<u64>() as f64,
        ),
    );
    out.set(
        "core.coissue_rate",
        ratio(s(|s| s.secondary_issues), s(|s| s.primary_issues)),
    );
    out.set(
        "core.constraint_suspensions",
        s(|s| s.constraint_suspensions),
    );
    out.set(
        "core.lookup_hit_rate",
        ratio(s(|s| s.lookup_hits), s(|s| s.lookup_probes)),
    );
    out.set("core.fetch_squashes", s(|s| s.fetch_squashes));
    out.set("core.scheduler_conflicts", s(|s| s.scheduler_conflicts));
    out.set("core.heap_merges", s(|s| s.heap.merges));

    out.set(
        "mem.l1_miss_rate",
        ratio(
            s(|s| s.l1.load_misses),
            s(|s| s.l1.load_hits + s.l1.load_misses),
        ),
    );
    out.set(
        "mem.lsu_tx_per_warp_instr",
        ratio(s(|s| s.lsu_transactions), warp_instrs),
    );
    out.set("mem.dram_read_transfers", s(|s| s.dram.read_transfers));
    out.set("mem.dram_write_transfers", s(|s| s.dram.write_transfers));
    out.set("mem.mshr_merges", s(|s| s.mshr_merges));
    out.set("mem.mshr_bypasses", s(|s| s.mshr_bypasses));

    let ch = |field: fn(&warpweave_mem::ChannelStats) -> u64| {
        sum(cells, |c| c.channel.as_ref().map_or(0, field))
    };
    out.set(
        "mem.l2_hit_rate",
        ratio(ch(|c| c.l2_hits), ch(|c| c.l2_hits + c.l2_misses)),
    );
    out.set("mem.l2_cross_sm_evictions", ch(|c| c.l2_cross_sm_evictions));
    let utilizations: Vec<f64> = cells
        .iter()
        .filter(|c| c.channel_budget > 0.0)
        .filter_map(|c| {
            c.channel
                .map(|ch| ch.utilization(c.stats.cycles, c.channel_budget))
        })
        .collect();
    out.set(
        "mem.channel_utilization",
        ratio(utilizations.iter().sum(), utilizations.len() as f64),
    );
    out.set(
        "mem.channel_saturated_cells",
        utilizations.iter().filter(|u| **u >= SATURATED).count() as f64,
    );
    // Queue delay as the SMs saw it: cycles their loads waited, per load.
    out.set(
        "mem.avg_queue_delay_cycles",
        ratio(s(|s| s.dram_queue_delay), s(|s| s.dram.read_transfers)),
    );
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
