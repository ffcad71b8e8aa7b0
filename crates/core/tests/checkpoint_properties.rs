//! Property-based verification of the checkpoint codec's safety contract:
//! any `Stats`/`ChannelStats` value round-trips through serialization to
//! exact equality, a corrupted or truncated checkpoint file **errors
//! cleanly** — it never loads a partial cell — and the decoder accepts only
//! the canonical encoding, even of a body whose checksum is intact.

use proptest::prelude::*;

use warpweave_core::checkpoint::{decode_cell, encode_cell, fnv1a, CellRecord, SweepCheckpoint};
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

/// `body` with the checksum trailer it would be written with, so that
/// only the grammar can reject it.
fn sealed(body: &str) -> String {
    format!("{body}|#{:016x}", fnv1a(body.as_bytes()))
}

/// The body (no trailer) of the canonical line of a probe cell whose
/// counters read 100, 101, … and whose channel counters read 7, 8, ….
fn probe_body() -> String {
    let stats: Vec<u64> = (100..135).collect();
    let channel: Vec<u64> = (7..16).collect();
    let record = CellRecord::with_channel(stats_from(&stats), channel_from(&channel));
    let line = encode_cell("machine/w/c", &record);
    line[..line.rfind("|#").unwrap()].to_string()
}

/// A checksum proves a line intact, not well formed: every body here
/// carries its correct checksum, and each must still be refused.
#[test]
fn checksummed_but_non_canonical_bodies_are_rejected() {
    let body = probe_body();
    assert!(body.starts_with("cell|machine/w/c|s:cycles=100,thread_instructions=101,"));
    assert!(body.contains(",superblock_aborts=134|c:read_transfers=7,"));
    assert!(body.ends_with(",l2_cross_sm_evictions=15"));
    assert!(
        decode_cell(&sealed(&body)).is_ok(),
        "the canonical body decodes"
    );
    let edit = |from: &str, to: &str| {
        assert!(body.contains(from), "`{from}` is not in the body");
        body.replacen(from, to, 1)
    };
    let cases = [
        ("a dropped field", edit(",thread_instructions=101", "")),
        (
            "a duplicated field",
            edit("s:cycles=100,", "s:cycles=100,cycles=100,"),
        ),
        (
            "swapped fields",
            edit(
                "cycles=100,thread_instructions=101",
                "thread_instructions=101,cycles=100",
            ),
        ),
        (
            "a dropped channel field",
            edit(",l2_cross_sm_evictions=15", ""),
        ),
        ("a renamed field", edit("s:cycles=", "s:cycle=")),
        (
            "a renamed channel field",
            edit("c:read_transfers=", "c:read_transfer="),
        ),
        ("a leading zero", edit("s:cycles=100", "s:cycles=0100")),
        (
            "a zero with a leading zero",
            edit("s:cycles=100", "s:cycles=00"),
        ),
        ("a plus sign", edit("s:cycles=100", "s:cycles=+100")),
        ("a minus sign", edit("s:cycles=100", "s:cycles=-100")),
        ("an empty value", edit("s:cycles=100,", "s:cycles=,")),
        ("a space", edit("s:cycles=100", "s:cycles= 100")),
        (
            "2^64",
            edit("s:cycles=100", "s:cycles=18446744073709551616"),
        ),
        ("a trailing `,` in `s:`", edit("|c:", ",|c:")),
        ("a trailing `,` in `c:`", format!("{body},")),
        ("an extra section", format!("{body}|c:read_transfers=7")),
        ("an unknown section", edit("|c:", "|x:")),
        ("a missing `s:` tag", edit("|s:", "|")),
        ("a wrong record tag", edit("cell|", "fail|")),
        ("a missing key", edit("cell|machine/w/c|", "cell|")),
    ];
    for (what, bad) in cases {
        assert!(
            decode_cell(&sealed(&bad)).is_err(),
            "{what} decoded: `{bad}`"
        );
    }
    // The trailer is canonical too: 16 lower-case hex digits.
    let checksum = fnv1a(body.as_bytes());
    for trailer in [format!("{checksum:016X}"), format!("+{checksum:x}")] {
        assert!(
            decode_cell(&format!("{body}|#{trailer}")).is_err(),
            "{trailer}"
        );
    }
    // The widest value is still a value.
    let widest = sealed(&edit("s:cycles=100", "s:cycles=18446744073709551615"));
    assert_eq!(decode_cell(&widest).unwrap().1.stats.cycles, u64::MAX);
}

/// The bytes a grammar edit draws from: a digit that can lead a value,
/// another that cannot, a sign, and the separators of the format.
const EDIT_BYTES: &[u8] = b"01+,=|:";

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever `decode_cell` accepts is canonical: a body with one to
    /// three bytes inserted, deleted or replaced next to its separators,
    /// re-sealed with its correct checksum, either fails to decode or
    /// decodes to a record whose encoding is the same line, byte for byte.
    #[test]
    fn every_accepted_line_re_encodes_to_its_own_bytes(
        stats_vals in proptest::collection::vec(0u64..1000, 35..36),
        edits in proptest::collection::vec(
            ((any::<usize>(), 0usize..3), 0u8..3, 0usize..EDIT_BYTES.len()),
            1..4,
        ),
    ) {
        let line = encode_cell("w/c", &CellRecord::new(stats_from(&stats_vals)));
        let mut body = line.as_bytes()[..line.rfind("|#").unwrap()].to_vec();
        for ((anchor, offset), kind, byte) in edits {
            let separators: Vec<usize> = (0..body.len())
                .filter(|&i| b",=|:".contains(&body[i]))
                .collect();
            let at = (separators[anchor % separators.len()] + offset).min(body.len() - 1);
            match kind {
                0 => body.insert(at, EDIT_BYTES[byte]),
                1 => {
                    body.remove(at);
                }
                _ => body[at] = EDIT_BYTES[byte],
            }
        }
        let edited = sealed(&String::from_utf8(body).expect("ASCII edits"));
        if let Ok((key, record)) = decode_cell(&edited) {
            prop_assert_eq!(encode_cell(&key, &record), edited);
        }
    }
}
