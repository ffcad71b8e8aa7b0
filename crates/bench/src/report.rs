//! Deterministic sweep reports: the `BENCH_sweep.json` payload, machine
//! probe results, and the golden-baseline record/check machinery.
//!
//! # Determinism contract
//!
//! Everything rendered here is a pure function of simulation results —
//! **no wall-clock timings, host thread counts or absolute paths** ever
//! enter the JSON (they go to stderr instead). That is what lets the
//! acceptance tests demand *byte identity*: an interrupted-and-resumed
//! sweep must render exactly the bytes an uninterrupted run renders, and
//! the golden checker diffs rendered baselines **with a tolerance of
//! exactly zero**. The engine is bit-deterministic, so any drift — a
//! single IPC digit, one stall cycle — is a real behaviour change that
//! must be acknowledged by re-recording the baseline.

use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::Stats;
use warpweave_mem::ChannelStats;

use crate::grid::{machine_probes, MachineProbe};
use crate::harness::{CellFailure, CellResult, MatrixResult};

/// Schema tag of the sweep payload.
pub const SWEEP_SCHEMA: &str = "warpweave-bench-sweep-v3";
/// Schema tag of the partial payload a faulted sweep emits.
pub const FAULTED_SWEEP_SCHEMA: &str = "warpweave-bench-sweep-faulted-v1";
/// Schema tag of the golden baseline.
pub const GOLDEN_SCHEMA: &str = "warpweave-bench-golden-v1";

/// Escapes a string for a JSON literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
        .replace('\t', "\\t")
}

/// The measured outcome of one [`MachineProbe`].
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// The probe definition this result belongs to.
    pub probe: MachineProbe,
    /// Machine-total counters (`cycles` = makespan).
    pub total: Stats,
    /// Shared-channel counters (all-zero under the private model).
    pub channel: ChannelStats,
}

impl ProbeResult {
    /// Whole-machine IPC over the makespan.
    pub fn ipc(&self) -> f64 {
        self.total.ipc()
    }

    /// Shared-channel bandwidth saturation over the makespan, against the
    /// machine's **aggregate** byte budget (`num_channels` interleaved
    /// channels each carry a full `bytes_per_cycle`).
    pub fn channel_utilization(&self) -> f64 {
        let budget = self.probe.cfg.dram.bytes_per_cycle
            * f64::from(self.probe.cfg.dram.num_channels.max(1));
        self.channel.utilization(self.total.cycles, budget)
    }
}

/// Assembles every machine probe from a store — how every sweep reads
/// its probe results back, and the probe half of `bench_sweep --merge`,
/// which must never re-simulate anything: a merge is a
/// validation-and-union step over already-run shards.
///
/// # Errors
/// The sorted list of missing probe keys, when the union does not cover
/// the whole probe set.
pub fn probes_from_store(store: &SweepCheckpoint) -> Result<Vec<ProbeResult>, Vec<String>> {
    let mut results = Vec::new();
    let mut missing = Vec::new();
    for probe in machine_probes() {
        let key = probe.key();
        match store.get(&key) {
            Some(record) => results.push(ProbeResult {
                probe,
                total: record.stats.clone(),
                channel: record.channel.unwrap_or_default(),
            }),
            None => missing.push(key),
        }
    }
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(results)
}

/// Renders the deterministic `BENCH_sweep.json` payload: schema, per-cell
/// IPC grid, machine probes, the shared-channel contention block and the
/// per-config geometric means. Byte-for-byte reproducible for a given
/// grid — see the module docs.
pub fn render_sweep_json(scale: &str, m: &MatrixResult, probes: &[ProbeResult]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"{SWEEP_SCHEMA}\",\n"));
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!(
        "  \"jobs\": {},\n",
        m.configs.len() * m.workloads.len()
    ));

    // Per-cell IPC grid: one line per cell, workload-major.
    json.push_str("  \"cells\": [\n");
    let mut cell_lines = Vec::new();
    for (w, workload) in m.workloads.iter().enumerate() {
        for (c, config) in m.configs.iter().enumerate() {
            cell_lines.push(render_sweep_cell(workload, config, &m.cells[w][c].stats));
        }
    }
    json.push_str(&cell_lines.join(",\n"));
    json.push_str("\n  ],\n");

    json.push_str("  \"machine_probe\": [\n");
    let probe_lines: Vec<String> = probes
        .iter()
        .map(|p| {
            format!(
                "    {{\"key\": \"{}\", \"num_sms\": {}, \"mem_model\": \"{}\", \
                 \"makespan_cycles\": {}, \"ipc\": {:.4}, \"channel_utilization\": {:.4}}}",
                json_escape(&p.probe.key()),
                p.probe.num_sms,
                p.probe.cfg.mem_model.name(),
                p.total.cycles,
                p.ipc(),
                p.channel_utilization()
            )
        })
        .collect();
    json.push_str(&probe_lines.join(",\n"));
    json.push_str("\n  ],\n");

    // Contention profile of the widest plain shared-bandwidth probe
    // (default hierarchy knobs — the suffixed probes have their own
    // machine_probe lines and golden cells).
    if let Some(shared) = probes
        .iter()
        .filter(|p| p.probe.key().ends_with("/shared"))
        .max_by_key(|p| p.probe.num_sms)
    {
        let ch = &shared.channel;
        json.push_str("  \"shared_channel\": {\n");
        json.push_str(&format!(
            "    \"utilization\": {:.4},\n",
            shared.channel_utilization()
        ));
        json.push_str(&format!(
            "    \"avg_queue_delay_cycles\": {:.4},\n",
            ch.avg_queue_delay()
        ));
        json.push_str(&format!(
            "    \"max_queue_delay_cycles\": {},\n",
            ch.max_queue_delay
        ));
        json.push_str(&format!(
            "    \"queued_requests\": {},\n",
            ch.queued_requests
        ));
        json.push_str(&format!("    \"read_transfers\": {},\n", ch.read_transfers));
        json.push_str(&format!(
            "    \"write_transfers\": {}\n",
            ch.write_transfers
        ));
        json.push_str("  },\n");
    }

    json.push_str("  \"gmean_ipc_per_config\": {\n");
    let rows: Vec<usize> = (0..m.workloads.len())
        .filter(|&w| !m.workloads[w].starts_with("TMD"))
        .collect();
    let gmeans = m.gmean_ipc(&rows);
    let entries: Vec<String> = m
        .configs
        .iter()
        .zip(&gmeans)
        .map(|(c, g)| format!("    \"{}\": {g:.4}", json_escape(c)))
        .collect();
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  }\n}\n");
    json
}

/// Renders one sweep cell line — shared by the clean and faulted sweep
/// renderers, so a faulted run's healthy cells are **byte-identical** to
/// the same cells in a clean run's payload.
fn render_sweep_cell(workload: &str, config: &str, stats: &Stats) -> String {
    format!(
        "    {{\"workload\": \"{}\", \"config\": \"{}\", \"ipc\": {:.4}, \
         \"cycles\": {}, \"thread_instructions\": {}}}",
        json_escape(workload),
        json_escape(config),
        stats.ipc(),
        stats.cycles,
        stats.thread_instructions
    )
}

/// Renders the partial payload of a sweep with quarantined cells: every
/// healthy cell (byte-identical to its line in a clean run's
/// [`render_sweep_json`] payload — both go through the same cell-line
/// renderer) plus a `failures` block carrying the full provenance of
/// each quarantined cell. No gmean or probe blocks: a partial aggregate
/// would silently misrepresent the grid.
pub fn render_faulted_sweep_json(
    scale: &str,
    jobs: usize,
    healthy: &[CellResult],
    failures: &[CellFailure],
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"{FAULTED_SWEEP_SCHEMA}\",\n"));
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!("  \"healthy\": {},\n", healthy.len()));
    json.push_str(&format!("  \"quarantined\": {},\n", failures.len()));
    json.push_str("  \"cells\": [\n");
    let cell_lines: Vec<String> = healthy
        .iter()
        .map(|cell| render_sweep_cell(&cell.workload, &cell.config, &cell.stats))
        .collect();
    json.push_str(&cell_lines.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"failures\": [\n");
    let failure_lines: Vec<String> = failures
        .iter()
        .map(|f| {
            format!(
                "    {{\"workload\": \"{}\", \"config\": \"{}\", \"seed\": \"{:#x}\", \
                 \"attempts\": {}, \"reason\": \"{}\"}}",
                json_escape(&f.workload),
                json_escape(&f.config),
                f.seed,
                f.attempts,
                json_escape(&f.reason.to_string())
            )
        })
        .collect();
    json.push_str(&failure_lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    json
}

/// Renders one golden cell line: the key, the headline IPC and **every**
/// integer counter of the cell (the full stall breakdown, cache, DRAM and
/// — for probes — channel counters). One cell per line, so a golden diff
/// names the drifted cell precisely.
fn render_golden_cell(key: &str, stats: &Stats, channel: Option<&ChannelStats>) -> String {
    let counters: Vec<String> = stats
        .to_fields()
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let mut line = format!(
        "    {{\"key\": \"{}\", \"ipc\": {:.4}, \"counters\": {{{}}}",
        json_escape(key),
        stats.ipc(),
        counters.join(", ")
    );
    if let Some(ch) = channel {
        let fields: Vec<String> = ch
            .to_fields()
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        line.push_str(&format!(", \"channel\": {{{}}}", fields.join(", ")));
    }
    line.push('}');
    line
}

/// Renders the golden baseline: every matrix cell and machine probe with
/// its full counter set, one cell per line. Committed as
/// `BENCH_golden.json` and diffed byte-for-byte by [`check_golden`].
pub fn render_golden_json(
    scale: &str,
    grid_id: u64,
    m: &MatrixResult,
    probes: &[ProbeResult],
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": \"{GOLDEN_SCHEMA}\",\n"));
    json.push_str(&format!(
        "  \"checkpoint_version\": {},\n",
        warpweave_core::CHECKPOINT_VERSION
    ));
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"grid\": \"{grid_id:016x}\",\n"));
    json.push_str("  \"cells\": [\n");
    let mut lines = Vec::new();
    for (w, workload) in m.workloads.iter().enumerate() {
        for (c, config) in m.configs.iter().enumerate() {
            let key = crate::harness::cell_key(workload, config);
            lines.push(render_golden_cell(&key, &m.cells[w][c].stats, None));
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"machine_probes\": [\n");
    let lines: Vec<String> = probes
        .iter()
        .map(|p| render_golden_cell(&p.probe.key(), &p.total, Some(&p.channel)))
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    json
}

/// One cell pulled back out of a committed golden baseline: the key plus
/// the two headline counters every consumer cross-checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenCell {
    /// `workload/config` (or `machine/...` probe) key.
    pub key: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Thread-instructions committed.
    pub thread_instructions: u64,
}

/// Parses the committed golden baseline's cell lines back into
/// [`GoldenCell`]s. The renderer puts one cell per line with the fields
/// in a fixed order ([`render_golden_json`]), so a line scan is exact for
/// our own output — this is what the policy-equivalence test
/// cross-checks registry-built runs against.
pub fn parse_golden_cells(text: &str) -> Vec<GoldenCell> {
    fn field_u64(line: &str, key: &str) -> Option<u64> {
        let start = line.find(key)? + key.len();
        let tail = &line[start..];
        let num: String = tail.chars().take_while(char::is_ascii_digit).collect();
        num.parse().ok()
    }
    let mut out = Vec::new();
    for line in text.lines() {
        const KKEY: &str = "\"key\": \"";
        let Some(kstart) = line.find(KKEY) else {
            continue;
        };
        let rest = &line[kstart + KKEY.len()..];
        let Some(kend) = rest.find('"') else { continue };
        let (Some(cycles), Some(thread_instructions)) = (
            field_u64(line, "\"cycles\": "),
            field_u64(line, "\"thread_instructions\": "),
        ) else {
            continue;
        };
        out.push(GoldenCell {
            key: rest[..kend].to_string(),
            cycles,
            thread_instructions,
        });
    }
    out
}

/// Diffs a freshly rendered golden baseline against the committed one,
/// line by line, with a tolerance of exactly zero. Returns `Ok(())` on
/// byte identity; otherwise a human-readable report naming every drifted
/// line (`- committed` / `+ current`), which the CI job uploads as its
/// failure artifact.
///
/// # Errors
/// The diff report.
pub fn check_golden(committed: &str, current: &str) -> Result<(), String> {
    if committed == current {
        return Ok(());
    }
    let a: Vec<&str> = committed.lines().collect();
    let b: Vec<&str> = current.lines().collect();
    let mut report = String::from(
        "golden baseline drift (zero tolerance: the engine is bit-deterministic,\n\
         so any drift is a real behaviour change; re-record with --record-golden\n\
         if it is intentional):\n",
    );
    let mut drifted = 0usize;
    for i in 0..a.len().max(b.len()) {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                drifted += 1;
                if drifted <= 64 {
                    report.push_str(&format!("line {}:\n", i + 1));
                    if let Some(x) = x {
                        report.push_str(&format!("- {x}\n"));
                    }
                    if let Some(y) = y {
                        report.push_str(&format!("+ {y}\n"));
                    }
                }
            }
        }
    }
    if drifted > 64 {
        report.push_str(&format!("... and {} more drifted lines\n", drifted - 64));
    }
    report.push_str(&format!("{drifted} drifted line(s) in total\n"));
    Err(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_diff_names_the_drifted_line() {
        let a = "l1\nl2\nl3\n";
        assert!(check_golden(a, a).is_ok());
        let report = check_golden(a, "l1\nl2 drifted\nl3\n").unwrap_err();
        assert!(report.contains("line 2"), "{report}");
        assert!(report.contains("- l2"), "{report}");
        assert!(report.contains("+ l2 drifted"), "{report}");
        assert!(report.contains("1 drifted line(s)"), "{report}");
    }

    #[test]
    fn golden_diff_handles_length_mismatch() {
        let report = check_golden("a\nb\n", "a\n").unwrap_err();
        assert!(report.contains("- b"), "{report}");
    }

    #[test]
    fn golden_cell_lines_are_single_lines() {
        let line = render_golden_cell("w/c", &Stats::default(), Some(&ChannelStats::default()));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"key\": \"w/c\""));
        assert!(line.contains("\"cycles\": 0"));
        assert!(line.contains("\"channel\""));
    }

    #[test]
    fn golden_cells_round_trip_through_the_parser() {
        let stats = Stats {
            cycles: 1234,
            thread_instructions: 56789,
            ..Stats::default()
        };
        let line = render_golden_cell("MatrixMul/SWI", &stats, None);
        let cells = parse_golden_cells(&line);
        assert_eq!(
            cells,
            vec![GoldenCell {
                key: "MatrixMul/SWI".into(),
                cycles: 1234,
                thread_instructions: 56789,
            }]
        );
    }
}
