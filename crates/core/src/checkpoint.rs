//! Versioned, deterministic serialization of sweep results.
//!
//! A sweep at bench scale is minutes of simulation; losing it to a Ctrl-C
//! at cell 97 of 105 is unacceptable, and trusting it requires diffing it
//! against a pinned baseline. This module provides the storage layer for
//! both: a [`SweepCheckpoint`] is an append-only, checksummed, versioned
//! record of completed sweep cells that
//!
//! * the bench harness appends to **incrementally, per completed cell**, so
//!   an interrupted sweep resumes from the last finished cell;
//! * binds to a **grid id** (a digest of the sweep's workloads, configs and
//!   scale), so a checkpoint can never be resumed against a different grid;
//! * refuses to load anything it cannot prove intact — wrong version,
//!   unknown grid, torn or bit-flipped lines all fail with a
//!   [`CheckpointError`] instead of silently resuming with partial cells;
//! * offers an **explicit** recovery path for damaged files:
//!   [`SweepCheckpoint::salvage`] truncates to the last checksum-valid
//!   line, quarantines the damaged tail as a `.quarantine` sidecar, and
//!   lets the sweep resume from the intact prefix.
//!
//! # File format (`CHECKPOINT_VERSION` 5)
//!
//! Line-oriented UTF-8. The first line is the header:
//!
//! ```text
//! warpweave-sweep-checkpoint v5 grid=<16 hex digits>
//! ```
//!
//! Every subsequent line is one completed cell:
//!
//! ```text
//! cell|<key>|s:<name>=<value>,...|c:<name>=<value>,...|#<16 hex digits>
//! ```
//!
//! where `s:` carries the canonical [`Stats::to_fields`] list, the optional
//! `c:` section carries [`ChannelStats::to_fields`] (machine probes), and
//! the trailer is the FNV-1a 64 checksum of everything before the `|#`.
//! A crash mid-append leaves a torn final line; the checksum catches it.
//!
//! **Versioning rule:** any change to the field lists, the line grammar,
//! the checksum or what a counter counts must bump [`CHECKPOINT_VERSION`]
//! — old files then fail the header check cleanly instead of decoding
//! garbage or mixing old values into a new grid. The field lists are
//! the rows of the two counter tables ([`Stats::FIELD_NAMES`],
//! [`ChannelStats::FIELD_NAMES`]; a counter cannot exist outside its
//! table), and `format_is_pinned_to_the_version` below holds a digest of
//! both next to the version: a table edit fails it until the version and
//! the digest move together.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use warpweave_mem::ChannelStats;

use crate::faultinject::FaultInjector;
use crate::stats::Stats;

/// Current checkpoint file-format version (see the module docs for the
/// rules that force a bump).
pub const CHECKPOINT_VERSION: u32 = 5;

/// The header magic of a checkpoint file.
const MAGIC: &str = "warpweave-sweep-checkpoint";

/// Why a checkpoint could not be loaded, written or recorded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file's header names a different format version (or no valid
    /// header at all).
    Version {
        /// The offending header line.
        header: String,
    },
    /// The file belongs to a different sweep grid.
    GridMismatch {
        /// Grid id in the file.
        found: u64,
        /// Grid id of the sweep being resumed.
        expected: u64,
    },
    /// A cell line is torn, bit-flipped or malformed.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What failed to parse.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Version { header } => write!(
                f,
                "not a v{CHECKPOINT_VERSION} checkpoint (header `{header}`); \
                 delete the file to start fresh"
            ),
            CheckpointError::GridMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to grid {found:016x}, this sweep is grid \
                 {expected:016x}; delete the file to start fresh"
            ),
            CheckpointError::Corrupt { line, detail } => write!(
                f,
                "checkpoint line {line} is corrupt ({detail}); refusing to \
                 resume from a damaged file — delete it to start fresh"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

// The line checksum and the grid-id hash both come from the shared digest
// module; re-exported here because the checkpoint format is where most
// callers first meet it.
pub use crate::digest::fnv1a;

/// The result of one completed sweep cell: the SM (or machine-total)
/// statistics, plus the shared-channel counters when the cell simulated a
/// shared-bandwidth machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Simulation counters of the cell.
    pub stats: Stats,
    /// Shared-channel counters (machine probes only).
    pub channel: Option<ChannelStats>,
}

impl CellRecord {
    /// A record carrying only SM statistics.
    pub fn new(stats: Stats) -> CellRecord {
        CellRecord {
            stats,
            channel: None,
        }
    }

    /// A record carrying SM statistics plus shared-channel counters.
    pub fn with_channel(stats: Stats, channel: ChannelStats) -> CellRecord {
        CellRecord {
            stats,
            channel: Some(channel),
        }
    }
}

/// Renders a field list as `name=value,...`.
fn render_fields(fields: &[(&'static str, u64)]) -> String {
    fields
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a `name=value,...` section back into a field list.
fn parse_fields(section: &str) -> Result<Vec<(&str, u64)>, String> {
    if section.is_empty() {
        return Ok(Vec::new());
    }
    section
        .split(',')
        .map(|pair| {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("field `{pair}` has no `=`"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("field `{name}` value `{value}`: {e}"))?;
            Ok((name, value))
        })
        .collect()
}

/// Renders one cell line *without* its checksum trailer.
fn render_cell_body(key: &str, record: &CellRecord) -> String {
    let mut line = format!("cell|{key}|s:{}", render_fields(&record.stats.to_fields()));
    if let Some(channel) = &record.channel {
        line.push_str(&format!("|c:{}", render_fields(&channel.to_fields())));
    }
    line
}

/// Encodes one complete cell line, checksum trailer included — the exact
/// bytes [`SweepCheckpoint::record`] appends.
pub fn encode_cell(key: &str, record: &CellRecord) -> String {
    let body = render_cell_body(key, record);
    let checksum = fnv1a(body.as_bytes());
    format!("{body}|#{checksum:016x}")
}

/// Decodes one cell line (checksum verified) back into `(key, record)`.
///
/// # Errors
/// A description of the first defect: torn trailer, checksum mismatch,
/// bad grammar, or a field-list drift.
pub fn decode_cell(line: &str) -> Result<(String, CellRecord), String> {
    let (body, checksum) = line
        .rsplit_once("|#")
        .ok_or("missing checksum trailer (torn write?)")?;
    let stored =
        u64::from_str_radix(checksum, 16).map_err(|_| format!("bad checksum `{checksum}`"))?;
    let computed = fnv1a(body.as_bytes());
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        ));
    }
    let mut sections = body.split('|');
    match sections.next() {
        Some("cell") => {}
        other => return Err(format!("unexpected record tag {other:?}")),
    }
    let key = sections.next().ok_or("missing cell key")?.to_string();
    let stats_section = sections
        .next()
        .and_then(|s| s.strip_prefix("s:"))
        .ok_or("missing `s:` stats section")?;
    let stats = Stats::from_fields(&parse_fields(stats_section)?)?;
    let channel = match sections.next() {
        None => None,
        Some(section) => {
            let fields = section
                .strip_prefix("c:")
                .ok_or_else(|| format!("unexpected section `{section}`"))?;
            Some(ChannelStats::from_fields(&parse_fields(fields)?)?)
        }
    };
    if let Some(extra) = sections.next() {
        return Err(format!("trailing section `{extra}`"));
    }
    Ok((key, CellRecord { stats, channel }))
}

/// An on-disk, append-only store of completed sweep cells.
///
/// Open with [`SweepCheckpoint::resume`] (load-or-create against a grid id)
/// and append with [`SweepCheckpoint::record`]; each record is flushed
/// before `record` returns, so every completed cell survives a kill at any
/// later point.
///
/// # Examples
/// ```no_run
/// use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
/// use warpweave_core::Stats;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = SweepCheckpoint::resume("sweep.checkpoint", 0xfeed)?;
/// if !store.contains("MatrixMul/SBI") {
///     let stats = Stats::default(); // ... actually simulate the cell ...
///     store.record("MatrixMul/SBI", CellRecord::new(stats))?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    grid_id: u64,
    cells: BTreeMap<String, CellRecord>,
    /// Open append handle; `None` for in-memory stores.
    file: Option<File>,
    /// Armed fault plan (torn-write injection); `None` in production.
    faults: Option<Arc<FaultInjector>>,
}

/// What a [`SweepCheckpoint::salvage`] pass recovered and discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Checksum-valid cell lines kept in the truncated file.
    pub kept_cells: usize,
    /// Bytes of damaged tail moved to the quarantine sidecar.
    pub dropped_bytes: usize,
    /// Path of the `.quarantine` sidecar, when a tail was dropped.
    pub quarantine: Option<PathBuf>,
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.quarantine {
            Some(q) => write!(
                f,
                "salvage kept {} cell(s), quarantined {} damaged byte(s) to {}",
                self.kept_cells,
                self.dropped_bytes,
                q.display()
            ),
            None => write!(
                f,
                "salvage found the file intact ({} cell(s), nothing dropped)",
                self.kept_cells
            ),
        }
    }
}

impl SweepCheckpoint {
    /// Creates a fresh checkpoint file at `path` for `grid_id`,
    /// truncating anything already there.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failures.
    pub fn create(
        path: impl AsRef<Path>,
        grid_id: u64,
    ) -> Result<SweepCheckpoint, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        writeln!(file, "{MAGIC} v{CHECKPOINT_VERSION} grid={grid_id:016x}")?;
        file.flush()?;
        Ok(SweepCheckpoint {
            path,
            grid_id,
            cells: BTreeMap::new(),
            file: Some(file),
            faults: None,
        })
    }

    /// Loads the checkpoint at `path` if it exists (validating version and
    /// grid id), or creates a fresh one bound to `grid_id`.
    ///
    /// # Errors
    /// Any [`CheckpointError`]: I/O, version/grid mismatch, or a corrupt
    /// cell line. A damaged file is **never** partially loaded.
    pub fn resume(
        path: impl AsRef<Path>,
        grid_id: u64,
    ) -> Result<SweepCheckpoint, CheckpointError> {
        let path = path.as_ref();
        if path.exists() {
            let mut store = Self::load(path)?;
            if store.grid_id != grid_id {
                return Err(CheckpointError::GridMismatch {
                    found: store.grid_id,
                    expected: grid_id,
                });
            }
            let mut file = OpenOptions::new().append(true).open(path)?;
            // A kill between a record's bytes and its newline leaves a
            // checksum-valid but unterminated final line, which `load`
            // accepts. Terminate it before appending anything, or the next
            // record would concatenate onto it and corrupt the file.
            if std::fs::read(path)?.last().is_some_and(|&b| b != b'\n') {
                file.write_all(b"\n")?;
                file.flush()?;
            }
            store.file = Some(file);
            Ok(store)
        } else {
            Self::create(path, grid_id)
        }
    }

    /// Loads an existing checkpoint read-only (no append handle); useful
    /// for inspection and for the resume integration tests.
    ///
    /// # Errors
    /// As [`SweepCheckpoint::resume`], minus grid binding.
    pub fn load(path: impl AsRef<Path>) -> Result<SweepCheckpoint, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        let text = std::fs::read_to_string(&path)?;
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(CheckpointError::Version {
            header: String::from("<empty file>"),
        })?;
        let grid_id = Self::parse_header(header)?;
        let mut cells = BTreeMap::new();
        for (idx, line) in lines {
            if line.is_empty() {
                // A single trailing newline is normal; emptiness anywhere
                // else means the file was edited or torn.
                return Err(CheckpointError::Corrupt {
                    line: idx + 1,
                    detail: "empty line inside checkpoint".into(),
                });
            }
            let (key, record) = decode_cell(line).map_err(|detail| CheckpointError::Corrupt {
                line: idx + 1,
                detail,
            })?;
            if cells.insert(key.clone(), record).is_some() {
                return Err(CheckpointError::Corrupt {
                    line: idx + 1,
                    detail: format!("duplicate cell `{key}`"),
                });
            }
        }
        Ok(SweepCheckpoint {
            path,
            grid_id,
            cells,
            file: None,
            faults: None,
        })
    }

    /// Repairs a torn or corrupt checkpoint file in place: keeps the
    /// longest prefix of checksum-valid cell lines, moves everything
    /// after it (torn writes, bit flips, duplicate keys, trailing
    /// garbage) to a `<path>.quarantine` sidecar, and truncates the file
    /// so a subsequent [`SweepCheckpoint::resume`] succeeds. An intact
    /// file is left untouched (and no sidecar is written).
    ///
    /// This is deliberately **not** automatic on resume: damage means
    /// something went wrong, and losing cells silently would hide it.
    /// The bench binaries expose it behind an explicit `--salvage` flag.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on filesystem failures, or
    /// [`CheckpointError::Version`] when the header line itself is
    /// damaged — without a valid header there is no version or grid
    /// identity to trust, so the file cannot be salvaged.
    pub fn salvage(path: impl AsRef<Path>) -> Result<SalvageReport, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let header_end = match bytes.iter().position(|&b| b == b'\n') {
            Some(nl) => nl + 1,
            None => bytes.len(),
        };
        let header = std::str::from_utf8(&bytes[..header_end])
            .map(|h| h.trim_end_matches('\n'))
            .map_err(|_| CheckpointError::Version {
                header: String::from("<non-utf8 header>"),
            })?;
        Self::parse_header(header)?;

        // Scan cell lines; the valid prefix ends at the first line that
        // is torn, corrupt, duplicated or not newline-terminated cleanly.
        let mut valid_end = header_end;
        let mut kept_cells = 0usize;
        let mut seen = std::collections::BTreeSet::new();
        let mut pos = header_end;
        while pos < bytes.len() {
            let (line_bytes, line_end) = match bytes[pos..].iter().position(|&b| b == b'\n') {
                Some(nl) => (&bytes[pos..pos + nl], pos + nl + 1),
                None => (&bytes[pos..], bytes.len()),
            };
            let Ok(line) = std::str::from_utf8(line_bytes) else {
                break;
            };
            if line.is_empty() {
                break;
            }
            let Ok((key, _)) = decode_cell(line) else {
                break;
            };
            if !seen.insert(key) {
                break;
            }
            valid_end = line_end;
            kept_cells += 1;
            pos = line_end;
        }

        let dropped_bytes = bytes.len() - valid_end;
        let mut quarantine = None;
        if dropped_bytes > 0 {
            let mut sidecar = path.as_os_str().to_os_string();
            sidecar.push(".quarantine");
            let sidecar = PathBuf::from(sidecar);
            std::fs::write(&sidecar, &bytes[valid_end..])?;
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_end as u64)?;
            file.sync_all()?;
            quarantine = Some(sidecar);
        }
        Ok(SalvageReport {
            kept_cells,
            dropped_bytes,
            quarantine,
        })
    }

    /// An in-memory store (no file) — for tests and dry runs.
    pub fn in_memory(grid_id: u64) -> SweepCheckpoint {
        SweepCheckpoint {
            path: PathBuf::new(),
            grid_id,
            cells: BTreeMap::new(),
            file: None,
            faults: None,
        }
    }

    /// Arms deterministic fault injection on this store's writer: rules
    /// from the injector's plan (`torn@record:IDX:KEEP`) make
    /// [`SweepCheckpoint::record`] write the matching record short and
    /// report an I/O error, reproducing a crash mid-append.
    pub fn arm_faults(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    fn parse_header(header: &str) -> Result<u64, CheckpointError> {
        let bad = || CheckpointError::Version {
            header: header.to_string(),
        };
        let rest = header.strip_prefix(MAGIC).ok_or_else(bad)?;
        let rest = rest
            .strip_prefix(&format!(" v{CHECKPOINT_VERSION} grid="))
            .ok_or_else(bad)?;
        if rest.len() != 16 {
            return Err(bad());
        }
        u64::from_str_radix(rest, 16).map_err(|_| bad())
    }

    /// The grid id this checkpoint is bound to.
    pub fn grid_id(&self) -> u64 {
        self.grid_id
    }

    /// The file backing this store (empty for in-memory stores).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has completed yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// True when `key` has already completed.
    pub fn contains(&self, key: &str) -> bool {
        self.cells.contains_key(key)
    }

    /// The record of a completed cell.
    pub fn get(&self, key: &str) -> Option<&CellRecord> {
        self.cells.get(key)
    }

    /// Completed cell keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.cells.keys().map(String::as_str)
    }

    /// Appends one completed cell and flushes it to disk before returning,
    /// so the cell survives any subsequent kill.
    ///
    /// # Errors
    /// A key containing the reserved characters `|`, `#` or a newline, a
    /// duplicate key, or an I/O failure.
    pub fn record(&mut self, key: &str, record: CellRecord) -> Result<(), CheckpointError> {
        if key.is_empty() || key.contains(['|', '#', '\n', '\r']) {
            return Err(CheckpointError::Corrupt {
                line: 0,
                detail: format!("cell key `{key}` is empty or contains reserved characters"),
            });
        }
        if self.cells.contains_key(key) {
            return Err(CheckpointError::Corrupt {
                line: 0,
                detail: format!("cell `{key}` recorded twice"),
            });
        }
        if let Some(file) = &mut self.file {
            let line = encode_cell(key, &record);
            if let Some(keep) = self
                .faults
                .as_ref()
                .and_then(|inj| inj.torn_write(self.cells.len()))
            {
                // Injected torn write: only a prefix of the line reaches
                // the file (no newline), exactly like a crash mid-append.
                let cut = keep.min(line.len());
                file.write_all(&line.as_bytes()[..cut])?;
                file.flush()?;
                return Err(CheckpointError::Io(std::io::Error::other(format!(
                    "injected torn write: record {} cut to {cut} of {} bytes",
                    self.cells.len(),
                    line.len()
                ))));
            }
            writeln!(file, "{line}")?;
            file.flush()?;
        }
        self.cells.insert(key.to_string(), record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(bias: u64) -> Stats {
        let mut fields = Stats::default().to_fields();
        for (i, field) in fields.iter_mut().enumerate() {
            field.1 = bias + i as u64;
        }
        Stats::from_fields(&fields).unwrap()
    }

    #[test]
    fn format_is_pinned_to_the_version() {
        let names = [
            Stats::FIELD_NAMES.join(","),
            ChannelStats::FIELD_NAMES.join(","),
        ];
        assert_eq!(
            (CHECKPOINT_VERSION, names.map(|n| fnv1a(n.as_bytes()))),
            (5, [0xda25_d408_55b5_59bc, 0x93d5_d5cf_b01b_d694]),
            "the counter tables changed the serialised format: bump CHECKPOINT_VERSION, \
             update this pin (and the literal line below) and re-record the golden file \
             (`bench_sweep --record-golden`) in the same change"
        );
    }

    /// A probe line as the v5 format writes it (both sections, L2 counters
    /// non-zero). v4's bytes: the change of value that made v5 —
    /// `constraint_suspensions` counts parked secondaries under every
    /// policy — leaves a cell that parks nothing alone.
    const V5_PROBE_LINE: &str = "\
        cell|machine/MatrixMul/4sm/shared+2ch+mshr32+l2|s:cycles=1719,\
        thread_instructions=137216,warp_instructions=2144,primary_issues=559,\
        secondary_issues=1585,same_group_coissues=0,other_group_coissues=1585,\
        fetch_squashes=0,scheduler_conflicts=1344,constraint_suspensions=0,\
        lookup_probes=682,lookup_hits=116,lsu_transactions=2496,lsu_replays=1168,\
        idle_cycles=4313,barrier_releases=16,blocks_completed=4,max_stack_depth=1,\
        heap_max_live_splits=1,heap_spills=0,heap_degraded_inserts=0,heap_merges=0,\
        l1_load_hits=64,l1_load_misses=192,l1_stores=64,dram_read_transfers=192,\
        dram_write_transfers=64,dram_queued_loads=60,dram_queue_delay=7198,\
        dram_max_queue_delay=275,mshr_merges=0,mshr_bypasses=0,superblock_enters=0,\
        superblock_covered=0,superblock_aborts=0|c:read_transfers=64,write_transfers=64,\
        bytes_transferred=16384,queued_requests=120,queue_delay_cycles=12960,\
        max_queue_delay=275,l2_hits=128,l2_misses=64,\
        l2_cross_sm_evictions=0|#c8639f51d1d4e5d6";

    #[test]
    fn literal_v5_line_decodes_and_re_encodes_to_the_same_bytes() {
        let (key, record) = decode_cell(V5_PROBE_LINE).unwrap();
        assert_eq!(key, "machine/MatrixMul/4sm/shared+2ch+mshr32+l2");
        assert_eq!(
            (record.stats.cycles, record.stats.heap.max_live_splits),
            (1719, 1)
        );
        assert_eq!(record.channel.unwrap().l2_hits, 128);
        assert_eq!(encode_cell(&key, &record), V5_PROBE_LINE);
    }

    #[test]
    fn cell_line_round_trips() {
        let channel: Vec<(&str, u64)> = ChannelStats::FIELD_NAMES.into_iter().zip(1..).collect();
        let channel = ChannelStats::from_fields(&channel).unwrap();
        let record = CellRecord::with_channel(sample_stats(7), channel);
        let line = encode_cell("MatrixMul/SBI+SWI", &record);
        let (key, parsed) = decode_cell(&line).unwrap();
        assert_eq!(key, "MatrixMul/SBI+SWI");
        assert_eq!(parsed, record);
    }

    #[test]
    fn bit_flip_is_detected() {
        let line = encode_cell("k", &CellRecord::new(sample_stats(3)));
        let flipped = line.replacen('3', "4", 1);
        assert!(decode_cell(&flipped).is_err());
    }

    #[test]
    fn file_round_trip_and_resume() {
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.checkpoint");
        let _ = std::fs::remove_file(&path);

        let mut store = SweepCheckpoint::resume(&path, 0xabcd).unwrap();
        store.record("a", CellRecord::new(sample_stats(1))).unwrap();
        store.record("b", CellRecord::new(sample_stats(2))).unwrap();
        drop(store);

        // Resume finds both cells.
        let store = SweepCheckpoint::resume(&path, 0xabcd).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().stats, sample_stats(1));

        // A different grid id refuses to resume.
        assert!(matches!(
            SweepCheckpoint::resume(&path, 0x1234),
            Err(CheckpointError::GridMismatch { .. })
        ));

        // Truncating the last line (torn write) fails the load cleanly.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        assert!(matches!(
            SweepCheckpoint::load(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_missing_final_newline_stays_appendable() {
        // A kill can land between the last record's bytes and its
        // newline: the final line is checksum-valid but unterminated.
        // Resuming must terminate it before appending, or the next record
        // would merge onto it and corrupt the file.
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-newline.checkpoint");
        let _ = std::fs::remove_file(&path);

        let mut store = SweepCheckpoint::resume(&path, 0x77).unwrap();
        store.record("a", CellRecord::new(sample_stats(1))).unwrap();
        drop(store);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();

        let mut store = SweepCheckpoint::resume(&path, 0x77).unwrap();
        assert_eq!(store.len(), 1, "unterminated final line still loads");
        store.record("b", CellRecord::new(sample_stats(2))).unwrap();
        drop(store);

        let store = SweepCheckpoint::resume(&path, 0x77).unwrap();
        assert_eq!(store.len(), 2, "both cells survive the torn newline");
        assert_eq!(store.get("a").unwrap().stats, sample_stats(1));
        assert_eq!(store.get("b").unwrap().stats, sample_stats(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_recovers_valid_prefix_and_quarantines_tail() {
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("salvage.checkpoint");
        let _ = std::fs::remove_file(&path);

        let mut store = SweepCheckpoint::resume(&path, 0xbeef).unwrap();
        store.record("a", CellRecord::new(sample_stats(1))).unwrap();
        store.record("b", CellRecord::new(sample_stats(2))).unwrap();
        store.record("c", CellRecord::new(sample_stats(3))).unwrap();
        drop(store);

        // Tear the final record mid-line.
        let intact = std::fs::read(&path).unwrap();
        let torn_at = intact.len() - 20;
        std::fs::write(&path, &intact[..torn_at]).unwrap();
        assert!(SweepCheckpoint::load(&path).is_err(), "torn file refuses");

        let report = SweepCheckpoint::salvage(&path).unwrap();
        assert_eq!(report.kept_cells, 2);
        assert!(report.dropped_bytes > 0);
        let sidecar = report.quarantine.clone().unwrap();
        let tail = std::fs::read(&sidecar).unwrap();
        assert_eq!(report.dropped_bytes, tail.len());
        assert!(intact.windows(tail.len()).any(|w| w == tail.as_slice()));

        // The truncated file resumes cleanly and can finish the sweep.
        let mut store = SweepCheckpoint::resume(&path, 0xbeef).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("a").unwrap().stats, sample_stats(1));
        assert_eq!(store.get("b").unwrap().stats, sample_stats(2));
        store.record("c", CellRecord::new(sample_stats(3))).unwrap();
        drop(store);
        assert_eq!(SweepCheckpoint::load(&path).unwrap().len(), 3);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn salvage_leaves_intact_file_untouched() {
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("salvage-clean.checkpoint");
        let _ = std::fs::remove_file(&path);

        let mut store = SweepCheckpoint::resume(&path, 0x5a).unwrap();
        store.record("a", CellRecord::new(sample_stats(1))).unwrap();
        drop(store);
        let before = std::fs::read(&path).unwrap();

        let report = SweepCheckpoint::salvage(&path).unwrap();
        assert_eq!(report.kept_cells, 1);
        assert_eq!(report.dropped_bytes, 0);
        assert!(report.quarantine.is_none());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn salvage_refuses_damaged_header() {
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("salvage-header.checkpoint");
        std::fs::write(&path, "warpweave-sweep-chec").unwrap();
        assert!(matches!(
            SweepCheckpoint::salvage(&path),
            Err(CheckpointError::Version { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_torn_write_reproduces_crash_mid_append() {
        use crate::faultinject::FaultPlan;
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-inject.checkpoint");
        let _ = std::fs::remove_file(&path);

        let mut store = SweepCheckpoint::resume(&path, 0x7e57).unwrap();
        store.arm_faults(Arc::new(FaultPlan::parse("torn@record:1:9").unwrap().arm()));
        store.record("a", CellRecord::new(sample_stats(1))).unwrap();
        let err = store
            .record("b", CellRecord::new(sample_stats(2)))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        drop(store);

        // The file now holds a 9-byte torn tail; plain resume refuses,
        // salvage recovers cell `a` exactly.
        assert!(SweepCheckpoint::resume(&path, 0x7e57).is_err());
        let report = SweepCheckpoint::salvage(&path).unwrap();
        assert_eq!(report.kept_cells, 1);
        assert_eq!(report.dropped_bytes, 9);
        let store = SweepCheckpoint::resume(&path, 0x7e57).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains("a"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(report.quarantine.unwrap());
    }

    #[test]
    fn reserved_key_characters_rejected() {
        let mut store = SweepCheckpoint::in_memory(0);
        for key in ["a|b", "a#b", "a\nb", ""] {
            assert!(store
                .record(key, CellRecord::new(Stats::default()))
                .is_err());
        }
        store
            .record("ok", CellRecord::new(Stats::default()))
            .unwrap();
        assert!(store
            .record("ok", CellRecord::new(Stats::default()))
            .is_err());
    }
}
