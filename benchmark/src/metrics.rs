//! The metric tables: every name the benchmark may print, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (the
//! crate's tests hold the two equal); bounds and directions live there.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by plain runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rep_ms", "ms"),
    ("host_tips", "1/s"),
    ("cells_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("sim_ipc_gmean", "instr/cycle"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs. A
/// value of 0 on a workload means the layer's code does no work there (or
/// the number cannot be taken from outside on that workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    // isa — isolated, over seeded fuzz kernels
    ("isa.generate_us_per_kernel", "us"),
    ("isa.lower_us_per_kernel", "us"),
    ("isa.asm_roundtrip_us_per_kernel", "us"),
    ("isa.superblock_build_us_per_kernel", "us"),
    ("isa.static_instrs", "count"),
    // workloads — spans, per repetition
    ("workloads.prepare_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    // core — spans
    ("core.sm_new_us_per_launch", "us"),
    ("core.sm_new_share", "ratio"),
    ("core.sm_run_share", "ratio"),
    ("core.machine_new_ms", "ms"),
    ("core.machine_run_share", "ratio"),
    ("core.host_ns_per_cycle", "ns"),
    ("core.host_ns_per_warp_instr", "ns"),
    // core — exact counts of one repetition
    ("core.superblock_coverage", "ratio"),
    ("core.superblock_aborts_per_kwi", "1/kwi"),
    ("core.idle_cycle_share", "ratio"),
    ("core.coissue_rate", "ratio"),
    ("core.constraint_suspensions", "count"),
    ("core.lookup_hit_rate", "ratio"),
    ("core.fetch_squashes", "count"),
    ("core.scheduler_conflicts", "count"),
    ("core.heap_merges", "count"),
    // core — ablations, p25 ratio off/on
    ("core.superblock_gain", "ratio"),
    ("core.fast_forward_gain", "ratio"),
    ("core.superblock_cycle_drift", "cycles"),
    ("core.fast_forward_cycle_drift", "cycles"),
    // core — isolated public kernels
    ("core.exec_warp_ns_per_op", "ns"),
    ("core.exec_fused_ns_per_op", "ns"),
    ("core.scoreboard_ns_per_alloc_retire", "ns"),
    ("core.frontier_heap_ns_per_diverge_merge", "ns"),
    ("core.depmatrix_compose_ns", "ns"),
    ("core.exec_est_share", "ratio"),
    // core::machine / sweep / checkpoint — isolated
    ("core.machine_vs_sm_overhead", "ratio"),
    ("core.machine_thread_scaling", "ratio"),
    ("core.sweep_runner_scaling", "ratio"),
    ("core.checkpoint_encode_us_per_cell", "us"),
    ("core.checkpoint_decode_us_per_cell", "us"),
    ("core.checkpoint_load_ms", "ms"),
    // mem — isolated public kernels
    ("mem.coalesce_ns_per_warp_unit", "ns"),
    ("mem.coalesce_ns_per_warp_scattered", "ns"),
    ("mem.atomic_tx_ns_per_warp", "ns"),
    ("mem.l1_access_ns_resident", "ns"),
    ("mem.l1_access_ns_thrash", "ns"),
    ("mem.l2_probe_ns", "ns"),
    ("mem.mshr_lookup_ns", "ns"),
    ("mem.channel_arbitrate_ns_per_req", "ns"),
    ("mem.event_queue_ns_per_push_pop", "ns"),
    ("mem.space_rw_ns_per_word", "ns"),
    ("mem.space_init_ms", "ms"),
    ("mem.est_share", "ratio"),
    // mem — exact counts of one repetition
    ("mem.l1_miss_rate", "ratio"),
    ("mem.lsu_tx_per_warp_instr", "ratio"),
    ("mem.dram_read_transfers", "count"),
    ("mem.dram_write_transfers", "count"),
    ("mem.mshr_merges", "count"),
    ("mem.mshr_bypasses", "count"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.l2_cross_sm_evictions", "count"),
    ("mem.channel_utilization", "ratio"),
    ("mem.channel_saturated_cells", "count"),
    ("mem.avg_queue_delay_cycles", "cycles"),
    // bench — spans of the local sweep, per repetition
    ("bench.matrix_ms", "ms"),
    ("bench.probes_ms", "ms"),
    ("bench.render_golden_ms", "ms"),
    ("bench.check_golden_ms", "ms"),
    ("bench.merge_2shards_ms", "ms"),
    ("bench.nonsim_share", "ratio"),
    ("bench.rep_p90_ms", "ms"),
    ("bench.wall_rep_ms", "ms"),
    ("bench.host_speed", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
    // serve — spans, request series and isolated kernels
    ("serve.bind_ms", "ms"),
    ("serve.resolve_us", "us"),
    ("serve.parse_request_us", "us"),
    ("serve.cell_digest_ns", "ns"),
    ("serve.cache_hit_acquire_ns", "ns"),
    ("serve.cache_fulfill_us", "us"),
    ("serve.disk_read_us_per_cell", "us"),
    ("serve.us_per_cell", "us"),
    ("serve.req_p99_ms", "ms"),
    ("serve.req_disk_ms", "ms"),
    ("serve.cold_tax", "ratio"),
    ("serve.response_bytes", "bytes"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.disk_hits", "count"),
];

/// Metric values gathered during a run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names set so far (the tests check they are all in a table).
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// Renders `table` as the `metrics` object of the result line: every
    /// name of the table, in table order, 0 where nothing was gathered.
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    crate::json::num(self.get(name).unwrap_or(0.0))
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
