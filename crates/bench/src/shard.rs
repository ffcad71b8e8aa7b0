//! Sharded sweeps and shard-checkpoint merging — the single-host half of
//! the distributed sweep fabric.
//!
//! A sweep grid is embarrassingly parallel: every cell is a pure function
//! of `(workload, config, seed, scale)`, so the grid can be cut into
//! arbitrary slices, each slice run on a different host into an ordinary
//! [`SweepCheckpoint`] file, and the files merged back into the exact
//! payload a single host would have produced. Three pieces make that safe:
//!
//! * **One canonical job numbering** ([`grid_jobs`](crate::grid::grid_jobs)):
//!   the full job grid is the workload-major matrix cells (`0 .. W×C`)
//!   followed by the machine probes (`W×C .. W×C+P`). Shard specs,
//!   fault-injection rules and the merge completeness check all index this
//!   same list, so `shard:2/8` means the same jobs on every host and across
//!   resumes; a shard is simply [`run_grid`](crate::harness::run_grid) over
//!   the selected jobs.
//! * **Grid-bound shards**: every shard checkpoint carries the same grid
//!   id a single-host checkpoint would; [`merge_checkpoints`] refuses a
//!   shard from a different grid (or a torn/corrupt file) instead of
//!   silently unioning garbage.
//! * **Order-free union**: cells live in the checkpoint's sorted map, so
//!   the merged store — and the JSON rendered from it — is independent of
//!   how the grid was partitioned, which shard finished first, or whether
//!   shards overlapped (overlapping cells must be bit-identical, and are,
//!   because cells are pure functions; a conflicting duplicate is refused
//!   as corruption).

use std::collections::BTreeSet;

use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::SmConfig;
use warpweave_workloads::Workload;

use crate::harness::{cell_key, CellResult, MatrixResult};

/// Which slice of the full job grid a `--jobs-from` run executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSpec {
    /// `shard:K/N` — the K-th of N round-robin slices (0-based): job `i`
    /// belongs to the shard with `i % N == K`. Round-robin (rather than
    /// contiguous blocks) spreads the expensive workload rows evenly
    /// across hosts.
    RoundRobin {
        /// Slice index, `0 <= index < count`.
        index: usize,
        /// Total slice count.
        count: usize,
    },
    /// `cells:LIST` — an explicit job-index list (`3,7,10-14` style, both
    /// single indices and inclusive ranges), deduplicated and sorted.
    Cells(Vec<usize>),
}

impl ShardSpec {
    /// Parses a `--jobs-from` spec: `shard:K/N` or `cells:3,7,10-14`.
    ///
    /// # Errors
    /// A one-line description of the first grammar or range defect.
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        if let Some(rest) = spec.strip_prefix("shard:") {
            let (k, n) = rest
                .split_once('/')
                .ok_or_else(|| format!("`{spec}`: expected shard:K/N"))?;
            let index: usize = k
                .parse()
                .map_err(|_| format!("`{spec}`: shard index `{k}` is not a number"))?;
            let count: usize = n
                .parse()
                .map_err(|_| format!("`{spec}`: shard count `{n}` is not a number"))?;
            if count == 0 {
                return Err(format!("`{spec}`: shard count must be at least 1"));
            }
            if index >= count {
                return Err(format!(
                    "`{spec}`: shard index {index} out of range (0..{count})"
                ));
            }
            return Ok(ShardSpec::RoundRobin { index, count });
        }
        if let Some(rest) = spec.strip_prefix("cells:") {
            let mut cells = BTreeSet::new();
            for part in rest.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    return Err(format!("`{spec}`: empty cell-index entry"));
                }
                let (lo, hi) = match part.split_once('-') {
                    Some((a, b)) => (a, b),
                    None => (part, part),
                };
                let lo: usize = lo
                    .parse()
                    .map_err(|_| format!("`{spec}`: `{part}` is not an index or range"))?;
                let hi: usize = hi
                    .parse()
                    .map_err(|_| format!("`{spec}`: `{part}` is not an index or range"))?;
                if hi < lo {
                    return Err(format!("`{spec}`: range `{part}` runs backwards"));
                }
                cells.extend(lo..=hi);
            }
            return Ok(ShardSpec::Cells(cells.into_iter().collect()));
        }
        Err(format!(
            "`{spec}`: expected `shard:K/N` or `cells:3,7,10-14`"
        ))
    }

    /// The job indices this spec selects out of a grid of `total` jobs,
    /// sorted ascending.
    ///
    /// # Errors
    /// An explicit cell index past the end of the grid (a round-robin
    /// shard can never be out of range — it may just be empty).
    pub fn select(&self, total: usize) -> Result<Vec<usize>, String> {
        match self {
            ShardSpec::RoundRobin { index, count } => Ok((*index..total).step_by(*count).collect()),
            ShardSpec::Cells(cells) => {
                if let Some(&bad) = cells.iter().find(|&&c| c >= total) {
                    return Err(format!(
                        "cell index {bad} out of range (the grid has {total} jobs: \
                         matrix cells then machine probes)"
                    ));
                }
                Ok(cells.clone())
            }
        }
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpec::RoundRobin { index, count } => write!(f, "shard:{index}/{count}"),
            ShardSpec::Cells(cells) => {
                write!(f, "cells:")?;
                for (i, c) in cells.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Merges shard checkpoint files into one in-memory union store bound to
/// `expected_grid`.
///
/// Every input must be an intact checkpoint of the **same grid** (same
/// format version, same grid id); a cell recorded by several shards must
/// be bit-identical everywhere it appears. Violations are refused with a
/// one-line message naming the offending file — merging is a validation
/// step, never a repair step (use `--salvage` on the damaged shard first).
///
/// # Errors
/// Torn/corrupt/mis-versioned files, grid-id mismatches, or conflicting
/// duplicate cells.
pub fn merge_checkpoints(paths: &[String], expected_grid: u64) -> Result<SweepCheckpoint, String> {
    if paths.is_empty() {
        return Err("--merge needs at least one shard checkpoint file".into());
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

/// Assembles the full [`MatrixResult`] from a (merged) store.
///
/// # Errors
/// The sorted list of missing cell keys, when the union does not cover
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_round_robin_parses_and_selects() {
        let spec = ShardSpec::parse("shard:2/3").unwrap();
        assert_eq!(spec, ShardSpec::RoundRobin { index: 2, count: 3 });
        assert_eq!(spec.select(8).unwrap(), vec![2, 5]);
        assert_eq!(spec.to_string(), "shard:2/3");
        // An empty slice is legal (more shards than jobs).
        assert_eq!(
            ShardSpec::parse("shard:7/9").unwrap().select(3).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn round_robin_shards_partition_the_grid_exactly() {
        for n in 1..6usize {
            let mut seen = Vec::new();
            for k in 0..n {
                seen.extend(
                    ShardSpec::RoundRobin { index: k, count: n }
                        .select(17)
                        .unwrap(),
                );
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..17).collect::<Vec<_>>(), "{n} shards");
        }
    }

    #[test]
    fn shard_spec_cell_lists_parse_ranges_and_dedupe() {
        let spec = ShardSpec::parse("cells:7,3,10-12,7").unwrap();
        assert_eq!(spec, ShardSpec::Cells(vec![3, 7, 10, 11, 12]));
        assert_eq!(spec.select(13).unwrap(), vec![3, 7, 10, 11, 12]);
        assert!(spec.select(12).unwrap_err().contains("out of range"));
    }

    #[test]
    fn shard_spec_rejects_bad_grammar() {
        for bad in [
            "shard:3/3",
            "shard:0/0",
            "shard:1",
            "shard:a/2",
            "cells:",
            "cells:5-3",
            "cells:x",
            "block:1/2",
            "",
        ] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
