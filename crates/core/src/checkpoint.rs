//! Versioned, deterministic serialization of sweep results.
//!
//! One line of this format is one completed sweep cell, wherever a cell
//! travels: the golden baseline's checker and the sweep server's cache and
//! wire all carry it. A [`SweepCheckpoint`] is a store of such cells — in
//! memory for a sweep, or a file that [`SweepCheckpoint::create`] writes
//! fresh (it is never reopened for append) and [`SweepCheckpoint::load`]
//! reads back. No binary of the workspace writes one: the file form's
//! only callers outside the tests are in the frozen `benchmark/` crate
//! (ROADMAP item 3). The store
//!
//! * binds to a **grid id** (a digest of the sweep's workloads, configs and
//!   scale), so a store of one grid is never read as another's;
//! * refuses to load anything it cannot prove intact — wrong version,
//!   torn or bit-flipped lines all fail with a [`CheckpointError`]
//!   instead of yielding partial cells.
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
//! A crash mid-write leaves a torn final line; the checksum catches it.
//! Only the canonical encoding decodes — a line is accepted exactly when
//! [`encode_cell`] reproduces it byte for byte — and [`decode_cell`]
//! checks it in one pass: the checksum, then one forward scan of the
//! sections against the two tables' names.
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
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

use warpweave_mem::ChannelStats;

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
                 refusing to load it"
            ),
            CheckpointError::Corrupt { line, detail } => write!(
                f,
                "checkpoint line {line} is corrupt ({detail}); refusing to \
                 load a damaged file"
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

/// Appends `name=value,...` for a field list to `out`.
fn push_fields(out: &mut String, fields: &[(&'static str, u64)]) {
    for (i, (name, value)) in fields.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}{name}={value}").expect("writing to a String cannot fail");
    }
}

/// Reads one section's `name=value,...` list off the front of `text` in
/// one forward pass: each name must be the next of `names`, compared in
/// place, and each value the canonical decimal spelling of a `u64` (no
/// sign, no leading zero, not empty). Returns the values and the rest of
/// `text` after the last value.
fn read_fields<'t, const N: usize>(
    table: &str,
    names: &[&'static str; N],
    text: &'t str,
) -> Result<([u64; N], &'t str), String> {
    let mut values = [0u64; N];
    let mut rest = text.as_bytes();
    for (i, (name, value)) in names.iter().zip(&mut values).enumerate() {
        if i > 0 {
            rest = rest
                .strip_prefix(b",")
                .ok_or_else(|| format!("{table} field {i}: expected `,` before `{name}`"))?;
        }
        rest = rest
            .strip_prefix(name.as_bytes())
            .and_then(|r| r.strip_prefix(b"="))
            .ok_or_else(|| format!("{table} field {i}: expected `{name}=`"))?;
        let mut digits = 0;
        while let Some(d) = rest.get(digits).filter(|d| d.is_ascii_digit()) {
            *value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| format!("{table} field `{name}`: value exceeds u64"))?;
            digits += 1;
        }
        if digits == 0 || (digits > 1 && rest[0] == b'0') {
            return Err(format!("{table} field `{name}`: not a canonical decimal"));
        }
        rest = &rest[digits..];
    }
    // Every byte read so far is ASCII, so the cut is on a char boundary.
    Ok((values, &text[text.len() - rest.len()..]))
}

/// Encodes one complete cell line, checksum trailer included — the exact
/// bytes [`SweepCheckpoint::record`] appends — written into one `String`.
pub fn encode_cell(key: &str, record: &CellRecord) -> String {
    let mut line = String::with_capacity(1024);
    line.push_str("cell|");
    line.push_str(key);
    line.push_str("|s:");
    push_fields(&mut line, &record.stats.to_fields());
    if let Some(channel) = &record.channel {
        line.push_str("|c:");
        push_fields(&mut line, &channel.to_fields());
    }
    let checksum = fnv1a(line.as_bytes());
    write!(line, "|#{checksum:016x}").expect("writing to a String cannot fail");
    line
}

/// Decodes one cell line (checksum verified) back into `(key, record)`.
///
/// One hash over the body, then one forward scan of its sections against
/// the counter tables' names. Only the canonical encoding decodes: a line
/// is accepted exactly when [`encode_cell`] of what it decodes to
/// reproduces it byte for byte.
///
/// # Errors
/// A description of the first defect: torn trailer, checksum mismatch,
/// bad grammar, or a field-list drift.
pub fn decode_cell(line: &str) -> Result<(String, CellRecord), String> {
    let (body, checksum) = line
        .rsplit_once("|#")
        .ok_or("missing checksum trailer (torn write?)")?;
    let stored = Some(checksum)
        .filter(|c| c.len() == 16 && c.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|c| u64::from_str_radix(c, 16).ok())
        .ok_or_else(|| format!("bad checksum `{checksum}`"))?;
    let computed = fnv1a(body.as_bytes());
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        ));
    }
    let rest = body
        .strip_prefix("cell|")
        .ok_or_else(|| format!("unexpected record tag in `{body:.16}`"))?;
    let (key, rest) = rest.split_once('|').ok_or("missing cell key")?;
    let rest = rest
        .strip_prefix("s:")
        .ok_or("missing `s:` stats section")?;
    let (values, rest) = read_fields("Stats", &Stats::FIELD_NAMES, rest)?;
    let stats = Stats::take_values(&mut values.into_iter())?;
    let channel = match rest {
        "" => None,
        rest => {
            let fields = rest
                .strip_prefix("|c:")
                .ok_or_else(|| format!("unexpected text `{rest:.24}` after the `s:` section"))?;
            let (values, rest) = read_fields("ChannelStats", &ChannelStats::FIELD_NAMES, fields)?;
            if !rest.is_empty() {
                return Err(format!(
                    "unexpected text `{rest:.24}` after the `c:` section"
                ));
            }
            Some(ChannelStats::take_values(&mut values.into_iter())?)
        }
    };
    Ok((key.to_string(), CellRecord { stats, channel }))
}

/// A store of completed sweep cells, in memory or backed by a fresh file.
///
/// Open with [`SweepCheckpoint::create`] (a new file) or
/// [`SweepCheckpoint::in_memory`], append with [`SweepCheckpoint::record`]
/// — a file-backed record is flushed before `record` returns — and read a
/// finished file back with [`SweepCheckpoint::load`].
///
/// # Examples
/// ```no_run
/// use warpweave_core::checkpoint::{CellRecord, SweepCheckpoint};
/// use warpweave_core::Stats;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = SweepCheckpoint::create("sweep.ckpt", 0xfeed)?;
/// let stats = Stats::default(); // ... actually simulate the cell ...
/// store.record("MatrixMul/SBI", CellRecord::new(stats))?;
/// assert!(SweepCheckpoint::load("sweep.ckpt")?.contains("MatrixMul/SBI"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepCheckpoint {
    grid_id: u64,
    cells: BTreeMap<String, CellRecord>,
    /// Open append handle; `None` for in-memory and loaded stores.
    file: Option<File>,
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
        let mut file = File::create(path)?;
        writeln!(file, "{MAGIC} v{CHECKPOINT_VERSION} grid={grid_id:016x}")?;
        file.flush()?;
        Ok(SweepCheckpoint {
            grid_id,
            cells: BTreeMap::new(),
            file: Some(file),
        })
    }

    /// Loads an existing checkpoint read-only (no append handle).
    ///
    /// # Errors
    /// Any [`CheckpointError`]: I/O, a version mismatch, or a corrupt
    /// cell line. A damaged file is **never** partially loaded.
    pub fn load(path: impl AsRef<Path>) -> Result<SweepCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
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
            grid_id,
            cells,
            file: None,
        })
    }

    /// An in-memory store (no file) — for tests and dry runs.
    pub fn in_memory(grid_id: u64) -> SweepCheckpoint {
        SweepCheckpoint {
            grid_id,
            cells: BTreeMap::new(),
            file: None,
        }
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

    /// Adds one completed cell; a file-backed store appends its line and
    /// flushes it before returning.
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
            writeln!(file, "{}", encode_cell(key, &record))?;
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
             (`bench_sweep golden record`) in the same change"
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
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("warpweave-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.checkpoint");

        let mut store = SweepCheckpoint::create(&path, 0xabcd).unwrap();
        store.record("a", CellRecord::new(sample_stats(1))).unwrap();
        store.record("b", CellRecord::new(sample_stats(2))).unwrap();
        drop(store);

        let store = SweepCheckpoint::load(&path).unwrap();
        assert_eq!((store.grid_id(), store.len()), (0xabcd, 2));
        assert_eq!(store.get("a").unwrap().stats, sample_stats(1));

        // A final line that lost only its newline still proves itself
        // intact; a cut into the line itself (a torn write) fails the
        // load cleanly.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        assert_eq!(SweepCheckpoint::load(&path).unwrap().len(), 2);
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        assert!(matches!(
            SweepCheckpoint::load(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
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
