//! Isolated timings of public layer kernels: what one operation of each
//! layer costs on this host, taken by calling the layer's public function
//! in a loop. Traced runs of every workload take them under the same host
//! conditions as their spans, so `ns/op × the workload's op count` can be
//! held against the span it should explain (`core.exec_est_share`,
//! `mem.est_share`). Address streams and kernels derive from `--seed`.

use std::hint::black_box;
use std::time::Instant;

use warpweave_bench::grid::{figure7_configs, quick_workloads};
use warpweave_bench::run_matrix_at;
use warpweave_core::checkpoint::{decode_cell, encode_cell, CellRecord};
use warpweave_core::{
    execute_fused, execute_warp, DepMatrix, FrontierHeap, Machine, Mask, Scoreboard,
    ScoreboardMode, SmConfig, SweepCheckpoint, SweepRunner, Transition, WarpInfo, WarpRegFile,
};
use warpweave_isa::fuzz::{self, FuzzProfile, FuzzRng};
use warpweave_isa::{
    program_from_text, program_to_text, r, KernelBuilder, Pc, Program, SuperblockSet, NUM_REGS,
};
use warpweave_mem::{
    atomic_transactions_into, coalesce_into, Cache, CacheConfig, DramConfig, MemEventQueue,
    MemRequest, Memory, MshrFile, SharedDramChannel, SharedL2, TxScratch,
};
use warpweave_serve::{
    cell_digest, parse_request, render_request, resolve, Acquired, CellCache, Request, RunRequest,
};
use warpweave_workloads::runner::MAX_CYCLES_PER_LAUNCH;
use warpweave_workloads::{by_name, run_prepared, run_prepared_multi_sm, Scale};

use crate::metrics::Metrics;
use crate::timing::Summary;
use crate::{CellStat, Ctx};

/// Timed calls per kernel (after one untimed warm-up call).
const REPS: usize = 21;
/// Warp width of the isolated execute and coalescing kernels.
const WIDTH: usize = 32;
/// Cache entries and checkpoint cells the codec kernels work over.
const CODEC_CELLS: usize = 112;

/// Lower-quartile nanoseconds per operation of `body`, which performs
/// `ops` operations per call.
fn ns_per_op(ops: usize, mut body: impl FnMut()) -> f64 {
    body();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    Summary::of(&times).p25 / ops as f64
}

/// Lower-quartile seconds of `body` over `reps` calls (for kernels that
/// take milliseconds and verify their own result).
fn seconds_of(reps: usize, mut body: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    body()?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        body()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(Summary::of(&times).p25)
}

/// Takes every isolated timing into `out`. `cells` are the workload's own
/// simulated results: the codec and cache kernels encode those.
pub fn measure(ctx: &Ctx, cells: &[CellStat], out: &mut Metrics) -> Result<(), String> {
    isa_kernels(ctx, out)?;
    exec_kernels(ctx, out)?;
    structure_kernels(out);
    mem_kernels(ctx, out);
    let records = codec_records(cells);
    codec_kernels(ctx, &records, out)?;
    serve_kernels(ctx, &records, out)?;
    if !ctx.smoke {
        scaling_kernels(out)?;
    }
    Ok(())
}

fn isa_kernels(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    let cases: Vec<(u64, FuzzProfile)> = FuzzProfile::all()
        .into_iter()
        .flat_map(|p| (0..4u64).map(move |k| (k, p.clone())))
        .map(|(k, p)| (ctx.seed ^ (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15), p))
        .collect();
    let plans: Vec<_> = cases.iter().map(|(s, p)| fuzz::generate(*s, p)).collect();
    let programs: Vec<Program> = plans
        .iter()
        .map(|plan| plan.lower())
        .collect::<Result<_, _>>()?;
    let n = cases.len();
    out.set(
        "isa.generate_us_per_kernel",
        ns_per_op(n, || {
            for (seed, profile) in &cases {
                black_box(fuzz::generate(*seed, profile));
            }
        }) / 1e3,
    );
    out.set(
        "isa.lower_us_per_kernel",
        ns_per_op(n, || {
            for plan in &plans {
                black_box(plan.lower().expect("lowered once already"));
            }
        }) / 1e3,
    );
    for p in &programs {
        if program_from_text(&program_to_text(p))?.instructions() != p.instructions() {
            return Err("asm round trip changed a program".into());
        }
    }
    out.set(
        "isa.asm_roundtrip_us_per_kernel",
        ns_per_op(n, || {
            for p in &programs {
                black_box(program_from_text(&program_to_text(p)).expect("round-tripped once"));
            }
        }) / 1e3,
    );
    out.set(
        "isa.superblock_build_us_per_kernel",
        ns_per_op(n, || {
            for p in &programs {
                black_box(SuperblockSet::build(p));
            }
        }) / 1e3,
    );
    Ok(())
}

/// A straight-line block with a fixed 12 : 4 ALU/SFU mix.
fn exec_program() -> Result<Program, String> {
    let mut k = KernelBuilder::new("exec_mix");
    k.iadd(r(4), r(0), r(1));
    k.imul(r(5), r(4), r(2));
    k.imad(r(6), r(5), r(1), r(0));
    k.fadd(r(7), r(2), r(3));
    k.rcp(r(12), r(3));
    k.fmul(r(8), r(7), r(3));
    k.ffma(r(9), r(8), r(2), r(7));
    k.and_(r(10), r(6), 0xffi32);
    k.sqrt(r(13), r(2));
    k.shl(r(11), r(10), 3i32);
    k.xor(r(4), r(11), r(5));
    k.imin(r(5), r(4), r(6));
    k.sin(r(14), r(9));
    k.fmax(r(7), r(8), r(9));
    k.mov(r(6), r(7));
    k.ex2(r(15), r(3));
    k.exit();
    k.build()
}

fn exec_kernels(ctx: &Ctx, out: &mut Metrics) -> Result<(), String> {
    const ROUNDS: usize = 64;
    let program = exec_program()?;
    let set = SuperblockSet::build(&program);
    let fused = &set
        .superblocks()
        .first()
        .ok_or("the execute mix did not fuse")?
        .ops;
    let instrs = &program.instructions()[..fused.len()];
    let mut rng = FuzzRng::new(ctx.seed);
    let mut rf = WarpRegFile::new(WIDTH);
    for t in 0..WIDTH {
        for reg in 0..NUM_REGS {
            // Small positive floats: the SFU ops stay in their fast range.
            rf.set_reg(t, reg, (1.0 + rng.below(1000) as f32 / 256.0).to_bits());
        }
    }
    let info = WarpInfo::new(WIDTH);
    let masks = [Mask::full(WIDTH), Mask::full(WIDTH / 2)];
    let mut accesses = Vec::new();
    let ops = ROUNDS * masks.len() * instrs.len();
    let mut rf_warp = rf.clone();
    out.set(
        "core.exec_warp_ns_per_op",
        ns_per_op(ops, || {
            for _ in 0..ROUNDS {
                for mask in masks {
                    for ins in instrs {
                        black_box(execute_warp(
                            ins,
                            &mut rf_warp,
                            &info,
                            &[],
                            mask,
                            &mut accesses,
                        ));
                    }
                }
            }
        }),
    );
    out.set(
        "core.exec_fused_ns_per_op",
        ns_per_op(ops, || {
            for _ in 0..ROUNDS {
                for mask in masks {
                    for op in fused {
                        black_box(execute_fused(op, &mut rf, &info, &[], mask, &mut accesses));
                    }
                }
            }
        }),
    );
    Ok(())
}

fn structure_kernels(out: &mut Metrics) {
    const OPS: usize = 256;
    let program = exec_program().expect("built once already");
    let ins = &program.instructions()[0];
    let mask = Mask::full(WIDTH);
    let mut sb = Scoreboard::new(ScoreboardMode::WarpLevel, 6);
    out.set(
        "core.scoreboard_ns_per_alloc_retire",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let (token, _) = sb.allocate((ins, mask), None).expect("a free entry");
                sb.retire(black_box(token));
            }
        }),
    );
    out.set(
        "core.frontier_heap_ns_per_diverge_merge",
        ns_per_op(OPS, || {
            let mut heap = FrontierHeap::new(Mask::full(64));
            for i in 0..OPS as u32 {
                let cur = heap.primary().expect("a live split");
                let taken = Mask::from_bits(0x5555_5555_5555_5555 << (i & 1)) & cur.mask;
                let join = Pc(100 * i + 40);
                let t = Transition::from_branch(cur.mask, taken, join, Pc(100 * i + 1));
                heap.apply_pair(Some(t), None, true);
                heap.apply_pair(Some(Transition::Advance(join)), None, true);
            }
            assert_eq!(black_box(heap.stats()).merges, OPS as u64);
        }),
    );
    let mut m = DepMatrix::identity();
    m.set(0, 1, true);
    m.set(1, 2, true);
    out.set(
        "core.depmatrix_compose_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                m = black_box(m).compose(black_box(m));
            }
        }),
    );
}

fn mem_kernels(ctx: &Ctx, out: &mut Metrics) {
    const LANES: usize = 64;
    const CALLS: usize = 64;
    let mut rng = FuzzRng::new(ctx.seed ^ 0x006d_656d);
    let unit: Vec<(usize, u32)> = (0..LANES).map(|i| (i, 0x1000 + 4 * i as u32)).collect();
    let scattered: Vec<(usize, u32)> = (0..LANES).map(|i| (i, rng.below(1 << 16) & !3)).collect();
    let contended: Vec<(usize, u32)> = (0..LANES).map(|i| (i, 4 * rng.below(16))).collect();
    let mut scratch = TxScratch::new();
    for (name, accesses) in [
        ("mem.coalesce_ns_per_warp_unit", &unit),
        ("mem.coalesce_ns_per_warp_scattered", &scattered),
    ] {
        out.set(
            name,
            ns_per_op(CALLS, || {
                for _ in 0..CALLS {
                    coalesce_into(black_box(accesses), &mut scratch);
                    black_box(scratch.len());
                }
            }),
        );
    }
    out.set(
        "mem.atomic_tx_ns_per_warp",
        ns_per_op(CALLS, || {
            for _ in 0..CALLS {
                atomic_transactions_into(black_box(&contended), &mut scratch);
                black_box(scratch.len());
            }
        }),
    );

    let l1 = CacheConfig::paper_l1();
    let lines = (l1.capacity_bytes / l1.line_bytes) as usize;
    for (name, working_set) in [
        ("mem.l1_access_ns_resident", lines / 2),
        ("mem.l1_access_ns_thrash", lines * 4),
    ] {
        let mut cache = Cache::new(l1);
        let mut next = 0usize;
        out.set(
            name,
            ns_per_op(2048, || {
                for _ in 0..2048 {
                    black_box(cache.access_load((next * l1.line_bytes as usize) as u32));
                    next = (next + 1) % working_set;
                }
            }),
        );
    }

    let l2_cfg = warpweave_bench::grid::probe_l2();
    let mut l2 = SharedL2::new(l2_cfg);
    let l2_addrs: Vec<(u32, u32)> = (0..2048)
        .map(|_| (rng.below(1 << 20) & !(l2_cfg.line_bytes - 1), rng.below(4)))
        .collect();
    out.set(
        "mem.l2_probe_ns",
        ns_per_op(l2_addrs.len(), || {
            for &(addr, sm) in &l2_addrs {
                black_box(l2.access_load(addr, sm));
            }
        }),
    );

    let blocks: Vec<u32> = (0..1024).map(|_| 128 * rng.below(64)).collect();
    let mut mshr = MshrFile::new(32);
    let mut now = 0u64;
    out.set(
        "mem.mshr_lookup_ns",
        ns_per_op(blocks.len(), || {
            for &block in &blocks {
                black_box(mshr.lookup(block, now, now));
                mshr.on_grant(now, now + 330);
                now += 7;
            }
        }),
    );

    const SMS: u32 = 4;
    const BATCH: usize = 64;
    let mut channel = SharedDramChannel::new(DramConfig::paper());
    let mut epoch = 0u64;
    out.set(
        "mem.channel_arbitrate_ns_per_req",
        ns_per_op(BATCH * 16, || {
            for _ in 0..16 {
                let base = epoch * 330;
                let batch: Vec<MemRequest> = (0..BATCH as u64)
                    .map(|i| MemRequest {
                        issue_cycle: base + (i * 37) % 330,
                        sm_id: (i % u64::from(SMS)) as u32,
                        seq: epoch * BATCH as u64 + i,
                        addr: 128 * ((i * 2654435761) % 4096) as u32,
                        is_write: i % 4 == 0,
                    })
                    .collect();
                channel.retire_completions_before(base);
                black_box(channel.arbitrate_epoch(epoch, SMS, batch));
                epoch += 1;
            }
        }),
    );

    let mut queue = MemEventQueue::new();
    out.set(
        "mem.event_queue_ns_per_push_pop",
        ns_per_op(256, || {
            for i in 0..256u64 {
                queue.push((i * 193) % 512, (i % 4) as u32, i, i as u32);
            }
            while let Some(event) = queue.pop() {
                black_box(event);
            }
        }),
    );

    let words: Vec<u32> = (0..4096).map(|_| rng.next_u64() as u32).collect();
    let mut mem = Memory::new();
    out.set(
        "mem.space_rw_ns_per_word",
        ns_per_op(2 * words.len(), || {
            mem.write_words(0x10_0000, black_box(&words));
            black_box(mem.read_words(0x10_0000, words.len()));
        }),
    );
}

/// `CODEC_CELLS` distinct `(key, record)` pairs cycled from `cells`.
fn codec_records(cells: &[CellStat]) -> Vec<(String, CellRecord)> {
    (0..CODEC_CELLS)
        .map(|i| {
            let cell = &cells[i % cells.len()];
            let record = CellRecord {
                stats: cell.stats.clone(),
                channel: cell.channel,
            };
            (format!("{}~{i}", cell.key), record)
        })
        .collect()
}

fn codec_kernels(
    ctx: &Ctx,
    records: &[(String, CellRecord)],
    out: &mut Metrics,
) -> Result<(), String> {
    let lines: Vec<String> = records.iter().map(|(k, r)| encode_cell(k, r)).collect();
    for ((key, record), line) in records.iter().zip(&lines) {
        if decode_cell(line)? != (key.clone(), record.clone()) {
            return Err(format!("cell codec round trip changed `{key}`"));
        }
    }
    out.set(
        "core.checkpoint_encode_us_per_cell",
        ns_per_op(records.len(), || {
            for (key, record) in records {
                black_box(encode_cell(key, record));
            }
        }) / 1e3,
    );
    out.set(
        "core.checkpoint_decode_us_per_cell",
        ns_per_op(lines.len(), || {
            for line in &lines {
                black_box(decode_cell(line).expect("decoded once already"));
            }
        }) / 1e3,
    );

    let path = ctx.scratch("codec-checkpoint");
    let mut store = SweepCheckpoint::create(&path, ctx.seed).map_err(|e| e.to_string())?;
    for (key, record) in records {
        store
            .record(key, record.clone())
            .map_err(|e| e.to_string())?;
    }
    drop(store);
    let loaded = seconds_of(9, || {
        let store = SweepCheckpoint::load(&path).map_err(|e| e.to_string())?;
        (store.len() == CODEC_CELLS)
            .then_some(())
            .ok_or_else(|| format!("checkpoint holds {} cells", store.len()))
    });
    let _ = std::fs::remove_file(&path);
    out.set("core.checkpoint_load_ms", loaded? * 1e3);
    Ok(())
}

fn serve_kernels(
    ctx: &Ctx,
    records: &[(String, CellRecord)],
    out: &mut Metrics,
) -> Result<(), String> {
    let request = RunRequest {
        full: false,
        frontends: Vec::new(),
        workloads: warpweave_workloads::all_workloads()
            .iter()
            .map(|w| w.name().to_string())
            .collect(),
        probes: true,
    };
    let wire = render_request(&Request::Run(request.clone()));
    if parse_request(&wire)? != Request::Run(request.clone()) {
        return Err("request line round trip changed the request".into());
    }
    out.set(
        "serve.parse_request_us",
        ns_per_op(64, || {
            for _ in 0..64 {
                black_box(parse_request(black_box(&wire)).expect("parsed once already"));
            }
        }) / 1e3,
    );
    resolve(&request)?;
    out.set(
        "serve.resolve_us",
        ns_per_op(4, || {
            for _ in 0..4 {
                black_box(resolve(&request).expect("resolved once already").jobs.len());
            }
        }) / 1e3,
    );

    let entries: Vec<(u64, String)> = records
        .iter()
        .enumerate()
        .map(|(i, (key, record))| {
            (
                cell_digest(Scale::Test, ctx.seed.wrapping_add(i as u64), key, "cfg"),
                encode_cell(key, record),
            )
        })
        .collect();
    out.set(
        "serve.cell_digest_ns",
        ns_per_op(records.len(), || {
            for (i, (key, _)) in records.iter().enumerate() {
                black_box(cell_digest(Scale::Test, i as u64, key, "SBI+SWI"));
            }
        }),
    );

    let fill = |cache: &CellCache| -> Result<(), String> {
        for (digest, line) in &entries {
            match cache.acquire(*digest) {
                Acquired::Claimed(claim) => claim.fulfill(line.clone()),
                Acquired::Ready(_) => return Err("a fresh cache served a hit".into()),
            }
        }
        Ok(())
    };
    let read_all = |cache: &CellCache| {
        for (digest, line) in &entries {
            match cache.acquire(*digest) {
                Acquired::Ready(served) => assert_eq!(&served, line, "cache served other bytes"),
                Acquired::Claimed(_) => panic!("a filled cache missed"),
            }
        }
    };
    fill(&CellCache::in_memory(1024))?;
    out.set(
        "serve.cache_fulfill_us",
        ns_per_op(entries.len(), || {
            fill(&CellCache::in_memory(1024)).expect("filled once already");
        }) / 1e3,
    );
    let warm = CellCache::in_memory(1024);
    fill(&warm)?;
    out.set(
        "serve.cache_hit_acquire_ns",
        ns_per_op(entries.len(), || read_all(&warm)),
    );

    let dir = ctx.scratch("cache-kernel");
    let _ = std::fs::remove_dir_all(&dir);
    let disk = CellCache::with_disk(1024, dir.clone()).map_err(|e| e.to_string())?;
    fill(&disk)?;
    drop(disk);
    // A fresh cache over the filled directory has an empty memory tier, so
    // every acquire reads, checks and admits one file.
    let per_cell = ns_per_op(entries.len(), || {
        let cold = CellCache::with_disk(1024, dir.clone()).expect("directory exists");
        read_all(&cold);
    });
    let _ = std::fs::remove_dir_all(&dir);
    out.set("serve.disk_read_us_per_cell", per_cell / 1e3);
    Ok(())
}

/// One launch sequence on a machine with a host-thread cap, in seconds.
fn machine_seconds(cfg: &SmConfig, sms: usize, threads: usize) -> Result<f64, String> {
    let workload = by_name("MatrixMul").ok_or("MatrixMul unregistered")?;
    seconds_of(5, || {
        let prepared = workload.prepare(Scale::Test);
        let mut mem = Memory::new();
        for (addr, words) in &prepared.inputs {
            mem.write_words(*addr, words);
        }
        for launch in prepared.launches {
            let mut machine = Machine::new(cfg.clone(), sms, launch)?.with_threads(threads);
            machine.set_memory(mem);
            machine
                .run(MAX_CYCLES_PER_LAUNCH)
                .map_err(|e| e.to_string())?;
            mem = machine.into_memory();
        }
        (prepared.verify)(&mem)
    })
}

/// Ratios that need whole simulations: machine against bare SM, and one
/// host thread against two (on the machine and on the sweep runner).
fn scaling_kernels(out: &mut Metrics) -> Result<(), String> {
    let workload = by_name("MatrixMul").ok_or("MatrixMul unregistered")?;
    let shared = SmConfig::sbi_swi().with_shared_dram();
    let sm = seconds_of(5, || {
        run_prepared(&SmConfig::sbi_swi(), workload.prepare(Scale::Test), true)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let one_sm_machine = seconds_of(5, || {
        run_prepared_multi_sm(&shared, 1, workload.prepare(Scale::Test), true)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    out.set("core.machine_vs_sm_overhead", one_sm_machine / sm);
    out.set(
        "core.machine_thread_scaling",
        machine_seconds(&shared, 4, 1)? / machine_seconds(&shared, 4, 2)?,
    );

    let (configs, workloads) = (figure7_configs(), quick_workloads());
    let sweep = |threads| {
        let runner = SweepRunner::with_threads(threads);
        seconds_of(3, || {
            black_box(run_matrix_at(
                &runner,
                &configs,
                &workloads,
                Scale::Test,
                false,
            ));
            Ok(())
        })
    };
    out.set("core.sweep_runner_scaling", sweep(1)? / sweep(2)?);
    Ok(())
}
