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

use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::{Stats, CHECKPOINT_VERSION};
use warpweave_mem::ChannelStats;

use crate::grid::{machine_probes, MachineProbe};
use crate::harness::{CellFailure, CellResult, MatrixResult};

/// Schema tag of the sweep payload.
pub const SWEEP_SCHEMA: &str = "warpweave-bench-sweep-v3";
/// Schema tag of the partial payload a faulted sweep emits.
pub const FAULTED_SWEEP_SCHEMA: &str = "warpweave-bench-sweep-faulted-v2";
/// Schema tag of the golden baseline.
pub const GOLDEN_SCHEMA: &str = "warpweave-bench-golden-v1";

/// Escapes a string for a JSON literal (every control character included,
/// so a panic message carrying terminal escapes still yields valid JSON).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' | '"' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An ordered JSON value — the one writer behind every artifact payload:
/// commas, indentation, escaping and the float form live here and nowhere
/// else, and members keep insertion order.
#[derive(Debug, Clone)]
pub enum Json<'a> {
    /// A string (escaped on output).
    Str(String),
    /// An integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// An object; members in insertion order.
    Object(Vec<(&'a str, Json<'a>)>),
    /// An array of one-line elements, one per line (a diff names the cell).
    Lines(Vec<Json<'a>>),
}

impl Json<'_> {
    /// The document form: two-space indented, newline-terminated.
    pub fn render(&self) -> String {
        self.text(Some(0)) + "\n"
    }

    /// The value at nesting `depth`, or on one line when `depth` is `None`.
    fn text(&self, depth: Option<usize>) -> String {
        let layout = |open: char, items: Vec<String>, close: char| match depth {
            None => format!("{open}{}{close}", items.join(", ")),
            Some(d) => {
                let pad = "  ".repeat(d + 1);
                let lines: Vec<String> = items.iter().map(|i| format!("{pad}{i}")).collect();
                format!("{open}\n{}\n{}{close}", lines.join(",\n"), "  ".repeat(d))
            }
        };
        match self {
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Int(n) => n.to_string(),
            Json::Fixed(x, decimals) => format!("{x:.decimals$}"),
            Json::Object(members) => {
                let inner = depth.map(|d| d + 1);
                let items = members
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v.text(inner)));
                layout('{', items.collect(), '}')
            }
            Json::Lines(items) => layout('[', items.iter().map(|v| v.text(None)).collect(), ']'),
        }
    }
}

impl From<&str> for Json<'_> {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
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
    // Per-cell IPC grid: one line per cell, workload-major.
    let cells = m.cells.iter().flatten().map(sweep_cell);
    let utilization = |p: &ProbeResult| Json::Fixed(p.channel_utilization(), 4);
    let probe_lines = probes.iter().map(|p| {
        Json::Object(vec![
            ("key", Json::Str(p.probe.key())),
            ("num_sms", Json::Int(p.probe.num_sms as u64)),
            ("mem_model", p.probe.cfg.mem_model.name().into()),
            ("makespan_cycles", Json::Int(p.total.cycles)),
            ("ipc", Json::Fixed(p.ipc(), 4)),
            ("channel_utilization", utilization(p)),
        ])
    });
    let mut doc = vec![
        ("schema", SWEEP_SCHEMA.into()),
        ("scale", scale.into()),
        (
            "jobs",
            Json::Int((m.configs.len() * m.workloads.len()) as u64),
        ),
        ("cells", Json::Lines(cells.collect())),
        ("machine_probe", Json::Lines(probe_lines.collect())),
    ];
    // Contention profile of the widest plain shared-bandwidth probe
    // (default hierarchy knobs — the suffixed probes have their own
    // machine_probe lines and golden cells).
    if let Some(shared) = probes
        .iter()
        .filter(|p| p.probe.key().ends_with("/shared"))
        .max_by_key(|p| p.probe.num_sms)
    {
        let ch = &shared.channel;
        let delay = Json::Fixed(ch.avg_queue_delay(), 4);
        let block = Json::Object(vec![
            ("utilization", utilization(shared)),
            ("avg_queue_delay_cycles", delay),
            ("max_queue_delay_cycles", Json::Int(ch.max_queue_delay)),
            ("queued_requests", Json::Int(ch.queued_requests)),
            ("read_transfers", Json::Int(ch.read_transfers)),
            ("write_transfers", Json::Int(ch.write_transfers)),
        ]);
        doc.push(("shared_channel", block));
    }
    let rows: Vec<usize> = (0..m.workloads.len())
        .filter(|&w| !m.workloads[w].starts_with("TMD"))
        .collect();
    let gmeans = m.gmean_ipc(&rows).into_iter().map(|g| Json::Fixed(g, 4));
    let gmeans = m.configs.iter().map(String::as_str).zip(gmeans);
    doc.push(("gmean_ipc_per_config", Json::Object(gmeans.collect())));
    Json::Object(doc).render()
}

/// One sweep cell line — shared by the clean and faulted sweep renderers,
/// so a faulted run's healthy cells are **byte-identical** to the same
/// cells in a clean run's payload.
fn sweep_cell(cell: &CellResult) -> Json<'_> {
    Json::Object(vec![
        ("workload", cell.workload.as_str().into()),
        ("config", cell.config.as_str().into()),
        ("ipc", Json::Fixed(cell.ipc(), 4)),
        ("cycles", Json::Int(cell.stats.cycles)),
        (
            "thread_instructions",
            Json::Int(cell.stats.thread_instructions),
        ),
    ])
}

/// Renders the partial payload of a sweep with quarantined jobs: every
/// healthy cell (byte-identical to its line in a clean run's
/// [`render_sweep_json`] payload — both go through the same cell-line
/// builder) plus a `failures` block carrying the full provenance of each
/// quarantined job, grid key first (what tells a probe from the matrix cell
/// of the same labels). No gmean or probe blocks: a partial aggregate would
/// silently misrepresent the grid.
pub fn render_faulted_sweep_json(
    scale: &str,
    jobs: usize,
    healthy: &[CellResult],
    failures: &[CellFailure],
) -> String {
    let cells = healthy.iter().map(sweep_cell);
    let failure_lines = failures.iter().map(|f| {
        Json::Object(vec![
            ("key", f.key.as_str().into()),
            ("workload", f.workload.as_str().into()),
            ("config", f.config.as_str().into()),
            ("seed", Json::Str(format!("{:#x}", f.seed))),
            ("attempts", Json::Int(f.attempts.into())),
            ("reason", Json::Str(f.reason.to_string())),
        ])
    });
    Json::Object(vec![
        ("schema", FAULTED_SWEEP_SCHEMA.into()),
        ("scale", scale.into()),
        ("jobs", Json::Int(jobs as u64)),
        ("healthy", Json::Int(healthy.len() as u64)),
        ("quarantined", Json::Int(failures.len() as u64)),
        ("cells", Json::Lines(cells.collect())),
        ("failures", Json::Lines(failure_lines.collect())),
    ])
    .render()
}

/// One golden cell line: the key, the headline IPC and **every** integer
/// counter of the cell (the full stall breakdown, cache, DRAM and — for
/// probes — channel counters). One cell per line, so a golden diff names
/// the drifted cell precisely.
fn golden_cell<'a>(key: &str, stats: &Stats, channel: Option<&ChannelStats>) -> Json<'a> {
    let counters = |fields: Vec<(&'static str, u64)>| {
        Json::Object(fields.into_iter().map(|(k, n)| (k, Json::Int(n))).collect())
    };
    let mut cell = vec![
        ("key", key.into()),
        ("ipc", Json::Fixed(stats.ipc(), 4)),
        ("counters", counters(stats.to_fields())),
    ];
    if let Some(ch) = channel {
        cell.push(("channel", counters(ch.to_fields())));
    }
    Json::Object(cell)
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
    let cells = m.cells.iter().flatten().map(|cell| {
        let key = crate::harness::cell_key(&cell.workload, &cell.config);
        golden_cell(&key, &cell.stats, None)
    });
    let probe_cells = probes
        .iter()
        .map(|p| golden_cell(&p.probe.key(), &p.total, Some(&p.channel)));
    Json::Object(vec![
        ("schema", GOLDEN_SCHEMA.into()),
        ("checkpoint_version", Json::Int(CHECKPOINT_VERSION.into())),
        ("scale", scale.into()),
        ("grid", Json::Str(format!("{grid_id:016x}"))),
        ("cells", Json::Lines(cells.collect())),
        ("machine_probes", Json::Lines(probe_cells.collect())),
    ])
    .render()
}

/// Parses a golden baseline's cell lines back into `(key, record)` pairs by
/// handing each line's `counters` / `channel` object to
/// [`Stats::from_fields`] / [`ChannelStats::from_fields`] — the strict
/// decode (names, order, count) a checkpoint line goes through, so a file
/// written by a different counter table is an error, not a partial read.
/// [`render_golden_json`] puts one cell per line, which is all the framing
/// this relies on; lines without a `"key"` (the document header) are
/// skipped.
///
/// # Errors
/// The 1-based line number and the first defect of a cell line.
pub fn parse_golden_cells(text: &str) -> Result<Vec<(String, CellRecord)>, String> {
    /// The `"name": integer` members of the flat object `"member": {..}`.
    fn object<'a>(line: &'a str, member: &str) -> Option<Result<Vec<(&'a str, u64)>, String>> {
        let (_, tail) = line.split_once(&format!("\"{member}\": {{"))?;
        let body = tail.split_once('}').map_or(tail, |(body, _)| body);
        let field = |pair: &'a str| {
            let bad = || format!("`{member}` member `{pair}` is not `\"name\": integer`");
            let quoted = pair.strip_prefix('"').ok_or_else(bad)?;
            let (name, value) = quoted.split_once("\": ").ok_or_else(bad)?;
            Ok((name, value.parse().map_err(|_| bad())?))
        };
        Some(body.split(", ").map(field).collect())
    }
    fn cell(line: &str) -> Option<Result<(String, CellRecord), String>> {
        let (key, _) = line.split_once("{\"key\": \"")?.1.split_once('"')?;
        let record = || {
            let counters = object(line, "counters").ok_or("no `counters` object")??;
            let channel = object(line, "channel").transpose()?;
            Ok(CellRecord {
                stats: Stats::from_fields(&counters)?,
                channel: channel.map(|c| ChannelStats::from_fields(&c)).transpose()?,
            })
        };
        Some(record().map(|record| (key.to_string(), record)))
    }
    let numbered = text.lines().enumerate();
    let cells = numbered.filter_map(|(i, line)| {
        Some(cell(line)?.map_err(|e| format!("golden line {}: {e}", i + 1)))
    });
    cells.collect()
}

/// What moved on drifted golden line `line_no`: one `key: counter old →
/// new` line per counter that differs, when both sides decode
/// ([`parse_golden_cells`]) to the same cell — a note saying so otherwise.
fn counter_drift(line_no: usize, committed: &str, current: &str) -> String {
    let decode = |line| match parse_golden_cells(line).as_deref() {
        Ok([(key, record)]) => {
            let mut fields = record.stats.to_fields();
            fields.extend(record.channel.iter().flat_map(ChannelStats::to_fields));
            Some((key.clone(), fields))
        }
        _ => None,
    };
    match (decode(committed), decode(current)) {
        (Some((key, old)), Some((same, new))) if key == same => std::iter::zip(old, new)
            .filter(|(old, new)| old != new)
            .map(|((name, old), (_, new))| format!("{key}: {name} {old} → {new}\n"))
            .collect(),
        _ => format!("line {line_no}: not one cell on both sides, counters not compared\n"),
    }
}

/// Diffs a freshly rendered golden baseline against the committed one,
/// line by line, with a tolerance of exactly zero. Returns `Ok(())` on
/// byte identity; otherwise a human-readable report naming every drifted
/// line (`- committed` / `+ current`) and then, per drifted cell, the
/// counters that moved (`key: counter old → new`), which the CI job
/// uploads as its failure artifact.
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
    let mut counters = String::from("drifted counters:\n");
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
                    counters.push_str(&counter_drift(
                        i + 1,
                        x.copied().unwrap_or(""),
                        y.copied().unwrap_or(""),
                    ));
                }
            }
        }
    }
    if drifted > 64 {
        report.push_str(&format!("... and {} more drifted lines\n", drifted - 64));
    }
    report.push_str(&counters);
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
        assert!(report.contains("line 2: not one cell"), "{report}");
        // A drifted cell line also names the counters that moved.
        let parked = Stats {
            constraint_suspensions: 13861,
            ..Stats::default()
        };
        let cell = |stats| golden_cell("3DFD/SBI+SWI", stats, None).text(None);
        let (old, new) = (cell(&Stats::default()), cell(&parked));
        let report = check_golden(&old, &new).unwrap_err();
        let named: Vec<&str> = report.lines().filter(|l| l.contains('→')).collect();
        assert_eq!(
            named,
            ["3DFD/SBI+SWI: constraint_suspensions 0 → 13861"],
            "{report}"
        );
    }

    #[test]
    fn golden_diff_handles_length_mismatch() {
        let report = check_golden("a\nb\n", "a\n").unwrap_err();
        assert!(report.contains("- b"), "{report}");
    }

    #[test]
    fn control_characters_in_a_failure_reason_stay_valid_json() {
        let failure = CellFailure {
            key: "w/c".into(),
            workload: "w".into(),
            config: "c".into(),
            seed: 7,
            attempts: 2,
            reason: warpweave_core::JobFailure::Panic("\u{1b}[31mboom\u{0}\t\"q\"\\".into()),
        };
        let json = render_faulted_sweep_json("test", 1, &[], &[failure]);
        assert!(
            json.contains(r#""reason": "panic: \u001b[31mboom\u0000\t\"q\"\\""#),
            "{json}"
        );
        // No raw control character survives except the layout's newlines.
        assert!(json.chars().all(|c| c == '\n' || c >= ' '), "{json:?}");
        assert!(json.contains(r#"{"key": "w/c", "workload": "w""#), "{json}");
    }

    #[test]
    fn writer_layouts() {
        let doc = Json::Object(vec![
            ("n", Json::Int(3)),
            (
                "rows",
                Json::Lines(vec![Json::Object(vec![("x", Json::Fixed(0.5, 4))])]),
            ),
            ("nested", Json::Object(vec![("empty", Json::Lines(vec![]))])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"n\": 3,\n  \"rows\": [\n    {\"x\": 0.5000}\n  ],\n  \
             \"nested\": {\n    \"empty\": [\n\n    ]\n  }\n}\n"
        );
    }

    #[test]
    fn golden_cell_lines_are_single_lines() {
        let line = golden_cell("w/c", &Stats::default(), Some(&ChannelStats::default())).text(None);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"key\": \"w/c\""));
        assert!(line.contains("\"cycles\": 0"));
        assert!(line.contains("\"channel\""));
    }

    #[test]
    fn golden_parser_is_as_strict_as_the_checkpoint_codec() {
        let stats = Stats {
            cycles: 1234,
            thread_instructions: 56789,
            ..Stats::default()
        };
        let channel = ChannelStats {
            l2_hits: 7,
            ..ChannelStats::default()
        };
        let line = golden_cell("machine/w/4sm/shared", &stats, Some(&channel)).text(None);
        assert_eq!(
            parse_golden_cells(&line).unwrap(),
            [(
                "machine/w/4sm/shared".to_string(),
                CellRecord::with_channel(stats, channel)
            )]
        );
        // A renamed, dropped or reordered counter is an error naming the line.
        for bad in [
            line.replace("\"cycles\"", "\"cycels\""),
            line.replace("\"idle_cycles\": 0, ", ""),
            line.replace(
                "\"l2_hits\": 7, \"l2_misses\": 0",
                "\"l2_misses\": 0, \"l2_hits\": 7",
            ),
            line.replace("\"counters\"", "\"counts\""),
        ] {
            let err = parse_golden_cells(&format!("{{\n{bad}\n}}")).unwrap_err();
            assert!(err.starts_with("golden line 2: "), "{err}");
        }
        assert_eq!(
            parse_golden_cells("{\n  \"cells\": [\n  ]\n}\n"),
            Ok(vec![])
        );
    }
}
