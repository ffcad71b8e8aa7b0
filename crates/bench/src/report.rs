//! Deterministic grid reports: the one results document every writer of
//! grid results renders (committed as `BENCH_golden.json`), machine probe
//! results, and the golden-baseline record/check machinery.
//!
//! # Determinism contract
//!
//! Everything rendered here is a pure function of simulation results —
//! **no wall-clock timings, host thread counts or absolute paths** ever
//! enter the JSON (they go to stderr instead). That is what lets the
//! acceptance tests demand *byte identity*: a served grid must render
//! exactly the bytes a local run renders, at any host thread count, and
//! the golden checker diffs rendered baselines **with a tolerance of
//! exactly zero**. The engine is bit-deterministic, so any drift — a
//! single IPC digit, one stall cycle — is a real behaviour change that
//! must be acknowledged by re-recording the baseline.

use std::fmt::Write as _;

use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
use warpweave_core::{SmConfig, Stats, CHECKPOINT_VERSION};
use warpweave_mem::ChannelStats;
use warpweave_workloads::Workload;

use crate::grid::{machine_probes, MachineProbe};
use crate::harness::{cell_key, CellResult, MatrixResult};

/// Schema tag of the results document.
pub const GOLDEN_SCHEMA: &str = "warpweave-bench-golden-v1";

/// Escapes a string for a JSON literal (every control character included,
/// so a label carrying terminal escapes still yields valid JSON).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped as [`json_escape`] does.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' | '"' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
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
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends the value at nesting `depth`, or on one line when `depth`
    /// is `None`, to `out`: one growing buffer, no string per member.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(x, decimals) => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Object(members) => {
                let inner = depth.map(|d| d + 1);
                layout(out, depth, ['{', '}'], members, |out, (k, v)| {
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\": ");
                    v.write(out, inner);
                });
            }
            Json::Lines(items) => {
                layout(out, depth, ['[', ']'], items, |out, v| v.write(out, None))
            }
        }
    }
}

/// Appends `items` between `open` and `close`: `, `-separated when
/// `depth` is `None`, otherwise one per line, indented one level below
/// `depth` (an empty list keeps its blank line).
fn layout<T>(
    out: &mut String,
    depth: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    let indent = |out: &mut String, level: usize| (0..level).for_each(|_| out.push_str("  "));
    out.push(open);
    for (i, value) in items.iter().enumerate() {
        match depth {
            None if i > 0 => out.push_str(", "),
            None => {}
            Some(d) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                indent(out, d + 1);
            }
        }
        item(out, value);
    }
    if let Some(d) = depth {
        out.push_str(if items.is_empty() { "\n\n" } else { "\n" });
        indent(out, d);
    }
    out.push(close);
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

/// Assembles the full [`MatrixResult`] from a store.
///
/// # Errors
/// The sorted list of missing cell keys, when the store does not cover
/// the whole matrix.
pub fn matrix_from_store(
    configs: &[SmConfig],
    workloads: &[Box<dyn Workload>],
    store: &SweepCheckpoint,
) -> Result<MatrixResult, Vec<String>> {
    let mut cells: Vec<Vec<CellResult>> = Vec::with_capacity(workloads.len());
    let mut missing = Vec::new();
    for w in workloads {
        let mut row = Vec::with_capacity(configs.len());
        for c in configs {
            let key = cell_key(w.name(), &c.name);
            match store.get(&key) {
                Some(record) => row.push(CellResult {
                    workload: w.name().to_string(),
                    config: c.name.clone(),
                    stats: record.stats.clone(),
                }),
                None => missing.push(key),
            }
        }
        cells.push(row);
    }
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(MatrixResult {
        configs: configs.iter().map(|c| c.name.clone()).collect(),
        workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
        cells,
    })
}

/// Assembles every machine probe from a store — how every sweep reads
/// its probe results back, never re-simulating anything.
///
/// # Errors
/// The sorted list of missing probe keys, when the store does not cover
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

/// Merges checkpoint files into one in-memory union store bound to
/// `expected_grid`. Its only caller outside the tests is the frozen
/// `benchmark/` crate (ROADMAP item 3): a sweep runs on one host, so no
/// binary of the workspace merges files.
///
/// Every input must be an intact checkpoint of the **same grid** (same
/// format version, same grid id); a cell recorded by several files must
/// be bit-identical everywhere it appears. Violations are refused with a
/// one-line message naming the offending file — merging is a validation
/// step, never a repair step.
///
/// # Errors
/// Torn/corrupt/mis-versioned files, grid-id mismatches, or conflicting
/// duplicate cells.
pub fn merge_checkpoints(paths: &[String], expected_grid: u64) -> Result<SweepCheckpoint, String> {
    if paths.is_empty() {
        return Err("merge needs at least one shard checkpoint file".into());
    }
    let mut union = SweepCheckpoint::in_memory(expected_grid);
    for path in paths {
        let shard = SweepCheckpoint::load(path).map_err(|e| format!("{path}: {e}"))?;
        if shard.grid_id() != expected_grid {
            return Err(format!(
                "{path}: shard belongs to grid {:016x}, this sweep is grid \
                 {expected_grid:016x} (different --full/--frontend flags, or a \
                 stale file?)",
                shard.grid_id()
            ));
        }
        for key in shard.keys().map(str::to_string).collect::<Vec<_>>() {
            let record = shard.get(&key).expect("key just listed").clone();
            match union.get(&key) {
                Some(existing) if *existing == record => {} // overlapping shards agree
                Some(_) => {
                    return Err(format!(
                        "{path}: cell `{key}` conflicts with an earlier shard's \
                         record — cells are pure functions, so disagreeing shards \
                         mean corruption or mismatched builds"
                    ));
                }
                None => union
                    .record(&key, record)
                    .map_err(|e| format!("{path}: union of cell `{key}`: {e}"))?,
            }
        }
    }
    Ok(union)
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

/// Renders one grid's results document from its `(key, stats, channel)`
/// records in job order: a record with channel counters (a machine probe)
/// goes into `machine_probes`, every other record into `cells`, each with
/// its full counter set on one line. Every writer of grid results renders
/// this — `bench_sweep`, `golden record`, a served response — and the
/// golden grid's document is committed as `BENCH_golden.json`.
pub fn render_results<'s>(
    scale: &str,
    grid_id: u64,
    records: impl IntoIterator<Item = (impl AsRef<str>, &'s Stats, Option<&'s ChannelStats>)>,
) -> String {
    let (mut cells, mut probes) = (Vec::new(), Vec::new());
    for (key, stats, channel) in records {
        let line = golden_cell(key.as_ref(), stats, channel);
        match channel {
            Some(_) => probes.push(line),
            None => cells.push(line),
        }
    }
    Json::Object(vec![
        ("schema", GOLDEN_SCHEMA.into()),
        ("checkpoint_version", Json::Int(CHECKPOINT_VERSION.into())),
        ("scale", scale.into()),
        ("grid", Json::Str(format!("{grid_id:016x}"))),
        ("cells", Json::Lines(cells)),
        ("machine_probes", Json::Lines(probes)),
    ])
    .render()
}

/// [`render_results`] of a matrix and its probes: the document
/// [`check_golden`] diffs byte for byte.
pub fn render_golden_json(
    scale: &str,
    grid_id: u64,
    m: &MatrixResult,
    probes: &[ProbeResult],
) -> String {
    let cells = m.cells.iter().flatten();
    let cells = cells.map(|c| (cell_key(&c.workload, &c.config), &c.stats, None));
    let probes = probes
        .iter()
        .map(|p| (p.probe.key(), &p.total, Some(&p.channel)));
    render_results(scale, grid_id, cells.chain(probes))
}

/// Parses a golden baseline's cell lines back into `(key, record)` pairs by
/// handing each line's `counters` / `channel` object to
/// [`Stats::from_fields`] / [`ChannelStats::from_fields`] — the strict
/// decode (names, order, count) a checkpoint line goes through, so a file
/// written by a different counter table is an error, not a partial read.
/// [`render_results`] puts one cell per line, which is all the framing
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
         so any drift is a real behaviour change; re-record with\n\
         `bench_sweep golden record` if it is intentional):\n",
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

    /// A value's one-line form, as a golden cell line carries it.
    fn one_line(value: Json) -> String {
        let mut out = String::new();
        value.write(&mut out, None);
        out
    }

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
        let cell = |stats| one_line(golden_cell("3DFD/SBI+SWI", stats, None));
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
    fn control_characters_stay_valid_json() {
        let doc = Json::Object(vec![(
            "s",
            Json::Str("\u{1b}[31mboom\u{0}\t\"q\"\\".into()),
        )]);
        let json = doc.render();
        assert!(
            json.contains(r#""s": "\u001b[31mboom\u0000\t\"q\"\\""#),
            "{json}"
        );
        // No raw control character survives except the layout's newlines.
        assert!(json.chars().all(|c| c == '\n' || c >= ' '), "{json:?}");
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
        let mut line = String::new();
        golden_cell("w/c", &Stats::default(), Some(&ChannelStats::default()))
            .write(&mut line, None);
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
        let line = one_line(golden_cell("machine/w/4sm/shared", &stats, Some(&channel)));
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
