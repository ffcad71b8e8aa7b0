//! Property-based verification of the checkpoint codec's safety contract:
//! any `Stats`/`ChannelStats` value round-trips through serialization to
//! exact equality, and a corrupted or truncated checkpoint file **errors
//! cleanly** — it never loads a partial cell.

use proptest::prelude::*;

use warpweave_core::checkpoint::{decode_cell, encode_cell, CellRecord, SweepCheckpoint};
use warpweave_core::Stats;
use warpweave_mem::ChannelStats;

/// Builds a `Stats` whose 35 counters are the given raw values.
fn stats_from(values: &[u64]) -> Stats {
    let mut fields = Stats::default().to_fields();
    assert_eq!(fields.len(), values.len(), "update the strategy length");
    for (field, &v) in fields.iter_mut().zip(values) {
        // usize-typed high-water marks must stay in range on every host.
        field.1 = v;
    }
    Stats::from_fields(&fields).expect("canonical field list")
}

/// Builds a `ChannelStats` whose 9 counters are the given raw values.
fn channel_from(values: &[u64]) -> ChannelStats {
    let mut fields = ChannelStats::default().to_fields();
    assert_eq!(fields.len(), values.len(), "update the strategy length");
    for (field, &v) in fields.iter_mut().zip(values) {
        field.1 = v;
    }
    ChannelStats::from_fields(&fields).expect("canonical field list")
}

/// A scratch file path unique to this test binary.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warpweave-ckpt-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Serialize → deserialize is exact for *any* counter values, with and
    /// without a channel section.
    #[test]
    fn cell_round_trip_is_exact(
        stats_vals in proptest::collection::vec(any::<u64>(), 35..36),
        channel_vals in proptest::collection::vec(any::<u64>(), 9..10),
        with_channel in any::<bool>(),
    ) {
        let record = if with_channel {
            CellRecord::with_channel(stats_from(&stats_vals), channel_from(&channel_vals))
        } else {
            CellRecord::new(stats_from(&stats_vals))
        };
        let line = encode_cell("Workload/Config", &record);
        let (key, decoded) = decode_cell(&line).expect("own encoding decodes");
        prop_assert_eq!(key.as_str(), "Workload/Config");
        prop_assert_eq!(decoded, record);
    }

    /// Flipping any single byte of an encoded cell line to a different
    /// value is detected — the checksum leaves no silent corruption.
    #[test]
    fn any_single_byte_corruption_is_detected(
        stats_vals in proptest::collection::vec(any::<u64>(), 35..36),
        position in any::<u64>(),
        delta in 1u8..255,
    ) {
        let record = CellRecord::new(stats_from(&stats_vals));
        let line = encode_cell("w/c", &record);
        let mut bytes = line.clone().into_bytes();
        let at = (position % bytes.len() as u64) as usize;
        bytes[at] = bytes[at].wrapping_add(delta);
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        match decode_cell(&corrupted) {
            Err(_) => {}
            // The only acceptable "success" would be decoding the exact
            // original record under the original key — and a byte flip
            // cannot produce that (checksum covers the whole body).
            Ok((key, decoded)) => {
                prop_assert!(
                    key == "w/c" && decoded == record,
                    "corrupted line decoded to a different record"
                );
                prop_assert!(false, "byte flip at {at} went undetected");
            }
        }
    }

    /// Truncating a checkpoint file at any byte is never silently
    /// accepted as-is: either the load fails cleanly (torn cell line), or
    /// the cut fell exactly on a line boundary and the load yields only
    /// the complete cells before it — never a partial cell.
    #[test]
    fn truncation_never_yields_partial_cells(
        stats_vals in proptest::collection::vec(any::<u64>(), 35..36),
        cells in 1usize..5,
        cut in any::<u64>(),
    ) {
        let path = scratch("truncation.checkpoint");
        let mut store = SweepCheckpoint::create(&path, 0xfeed).unwrap();
        for i in 0..cells {
            store
                .record(&format!("cell-{i}"), CellRecord::new(stats_from(&stats_vals)))
                .unwrap();
        }
        drop(store);
        let text = std::fs::read_to_string(&path).unwrap();
        let header_len = text.lines().next().unwrap().len() + 1;
        // Cut somewhere strictly after the header and strictly before EOF.
        let at = header_len + (cut % (text.len() - header_len) as u64) as usize;
        std::fs::write(&path, &text[..at]).unwrap();

        // A cell line counts as complete when its full content survives
        // the cut — the trailing newline itself is optional (a torn write
        // can drop just the newline, and the checksum still proves the
        // line intact).
        let full_lines: Vec<&str> = text[header_len..].lines().collect();
        let complete_lines = text[header_len..at]
            .split('\n')
            .filter(|l| full_lines.contains(l))
            .count();
        match SweepCheckpoint::load(&path) {
            Ok(loaded) => {
                prop_assert_eq!(
                    loaded.len(),
                    complete_lines,
                    "load must see exactly the complete cells before the cut"
                );
            }
            Err(_) => {
                // A clean error is always acceptable for a damaged file.
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
