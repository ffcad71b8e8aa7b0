//! The merges `counter_table!` generates, checked against an independent
//! statement of the rules: folding two records must equal folding their
//! `to_fields` lists name by name, where the name alone says the rule —
//! a high-water mark carries `max` in its name, `cycles` is the makespan,
//! everything else is a sum. A row wired to the wrong field path, or given
//! the wrong rule, shows up as a mismatch on that name.

use proptest::prelude::*;

use warpweave_core::Stats;
use warpweave_mem::ChannelStats;

/// The rule the naming convention implies for `name`.
fn fold_by_name(name: &str, a: u64, b: u64, parallel: bool) -> u64 {
    if name.contains("max") || (parallel && name == "cycles") {
        a.max(b)
    } else {
        a + b
    }
}

/// `values` under the table's `names`.
fn named(names: &[&'static str], values: &[u64]) -> Vec<(&'static str, u64)> {
    names.iter().copied().zip(values.iter().copied()).collect()
}

/// `a` and `b` folded field list by field list.
fn reference(
    a: &[(&'static str, u64)],
    b: &[(&str, u64)],
    parallel: bool,
) -> Vec<(&'static str, u64)> {
    a.iter()
        .zip(b)
        .map(|(&(name, x), &(_, y))| (name, fold_by_name(name, x, y, parallel)))
        .collect()
}

const STATS: usize = Stats::FIELD_NAMES.len();
const CHANNEL: usize = ChannelStats::FIELD_NAMES.len();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stats_merges_follow_the_table_rules(
        raw in proptest::collection::vec(0u64..1 << 62, 2 * STATS..2 * STATS + 1),
    ) {
        let names = &Stats::FIELD_NAMES;
        let (fa, fb) = (named(names, &raw[..STATS]), named(names, &raw[STATS..]));
        let a = Stats::from_fields(&fa).unwrap();
        let b = Stats::from_fields(&fb).unwrap();

        let mut serial = a.clone();
        serial.accumulate(&b);
        prop_assert_eq!(serial.to_fields(), reference(&fa, &fb, false));

        let mut parallel = a;
        parallel.merge_parallel(&b);
        prop_assert_eq!(parallel.to_fields(), reference(&fa, &fb, true));
    }

    #[test]
    fn channel_merges_follow_the_table_rules(
        raw in proptest::collection::vec(0u64..1 << 62, 2 * CHANNEL..2 * CHANNEL + 1),
    ) {
        let names = &ChannelStats::FIELD_NAMES;
        let (fa, fb) = (named(names, &raw[..CHANNEL]), named(names, &raw[CHANNEL..]));
        let a = ChannelStats::from_fields(&fa).unwrap();
        let b = ChannelStats::from_fields(&fb).unwrap();

        let mut serial = a;
        serial.accumulate(&b);
        prop_assert_eq!(serial.to_fields(), reference(&fa, &fb, false));

        // No channel counter is a makespan: both merges agree.
        let mut parallel = a;
        parallel.merge_parallel(&b);
        prop_assert_eq!(parallel, serial);
    }
}
