//! Deterministic fault injection for the sweep / checkpoint robustness
//! paths.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (`bench_sweep
//! --inject`) and consulted as is: the sweep driver asks it once per job
//! and the checkpoint writer once per appended record. A job is a pure
//! function of its inputs and runs once, so a verdict is a pure function
//! of the plan and the job's index or key — no counters, no wall clock, no
//! global RNG — and an injected failure reproduces bit-identically at any
//! host thread count and under `--salvage` replays.
//!
//! # Spec grammar
//!
//! A plan is a `;`-separated list of rules:
//!
//! | rule | effect |
//! |------|--------|
//! | `panic@cell:IDX` | the job at index `IDX` panics |
//! | `sim@cell:IDX` | job `IDX` fails with a simulated [`crate::SimError`]-style error |
//! | `panic@key:KEY` / `sim@key:KEY` | same, targeting the job whose key (`workload/config`) equals `KEY` |
//! | `torn@record:IDX:KEEP` | cut checkpoint record number `IDX` to its first `KEEP` bytes |
//!
//! Cell indices refer to a job's position in the full job grid (stable
//! across resumes), not its position among the jobs remaining.
//!
//! # Examples
//! ```
//! use warpweave_core::faultinject::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("panic@cell:3; torn@record:2:10").unwrap();
//! assert_eq!(plan.cell_fault(3, "BFS/Baseline"), Some(FaultKind::Panic));
//! assert_eq!(plan.cell_fault(4, "BFS/SBI"), None);
//! // Checkpoint record 2 is torn after 10 bytes.
//! assert_eq!(plan.torn_write(2), Some(10));
//! assert_eq!(plan.torn_write(1), None);
//! ```

/// What an injected cell fault does to the job it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell closure panics (exercises `catch_unwind` containment).
    Panic,
    /// The cell closure returns a simulation-style error.
    SimError,
}

/// Which sweep cell a rule targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellTarget {
    /// The cell at this index in the full job grid.
    Index(usize),
    /// The cell whose `workload/config` key equals this string.
    Key(String),
}

/// One cell-fault rule: target and effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFault {
    /// Which cell the rule fires on.
    pub target: CellTarget,
    /// Panic or simulated error.
    pub kind: FaultKind,
}

/// A torn-write rule: the checkpoint record at index `record` is written
/// short — only its first `keep_bytes` bytes reach the file — and the
/// append reports an I/O error, leaving a torn tail for `--salvage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// Index of the record (0-based count of cells already in the store
    /// at write time) to tear.
    pub record: usize,
    /// Bytes of the encoded line that reach the file.
    pub keep_bytes: usize,
}

/// A parsed fault plan: the rules, and the two questions the sweep driver
/// and the checkpoint writer ask of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cell-fault rules, in spec order (first match wins).
    pub cells: Vec<CellFault>,
    /// Torn-write rules for the checkpoint writer.
    pub torn: Vec<TornWrite>,
}

impl FaultPlan {
    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    /// Returns a human-readable message naming the offending rule.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for rule in spec.split(';') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            if let Some(rest) = rule.strip_prefix("torn@record:") {
                let (idx, keep) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("torn rule `{rule}`: expected torn@record:IDX:KEEP"))?;
                plan.torn.push(TornWrite {
                    record: idx
                        .parse()
                        .map_err(|e| format!("torn rule `{rule}`: bad record index: {e}"))?,
                    keep_bytes: keep
                        .parse()
                        .map_err(|e| format!("torn rule `{rule}`: bad byte count: {e}"))?,
                });
                continue;
            }
            let (head, target) = rule
                .split_once('@')
                .ok_or_else(|| format!("rule `{rule}`: expected KIND@TARGET"))?;
            let kind = match head {
                "panic" => FaultKind::Panic,
                "sim" => FaultKind::SimError,
                other => return Err(format!("rule `{rule}`: unknown fault kind `{other}`")),
            };
            let target = if let Some(idx) = target.strip_prefix("cell:") {
                CellTarget::Index(
                    idx.parse()
                        .map_err(|e| format!("rule `{rule}`: bad cell index: {e}"))?,
                )
            } else if let Some(key) = target.strip_prefix("key:") {
                CellTarget::Key(key.to_string())
            } else {
                return Err(format!(
                    "rule `{rule}`: expected cell:IDX or key:KEY target"
                ));
            };
            plan.cells.push(CellFault { target, kind });
        }
        Ok(plan)
    }

    /// The fault to inject into the job at full-grid `index` with key
    /// `key` (the first matching rule's), or `None` when it runs normally.
    pub fn cell_fault(&self, index: usize, key: &str) -> Option<FaultKind> {
        self.cells
            .iter()
            .find(|r| match &r.target {
                CellTarget::Index(i) => *i == index,
                CellTarget::Key(k) => k == key,
            })
            .map(|r| r.kind)
    }

    /// Returns `Some(keep_bytes)` when the checkpoint record at
    /// `record_index` should be written torn, `None` otherwise.
    pub fn torn_write(&self, record_index: usize) -> Option<usize> {
        self.torn
            .iter()
            .find(|t| t.record == record_index)
            .map(|t| t.keep_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse("panic@cell:7; sim@key:BFS/SBI ;torn@record:0:5").unwrap();
        assert_eq!(
            plan.cells,
            vec![
                CellFault {
                    target: CellTarget::Index(7),
                    kind: FaultKind::Panic,
                },
                CellFault {
                    target: CellTarget::Key("BFS/SBI".into()),
                    kind: FaultKind::SimError,
                },
            ]
        );
        assert_eq!(
            plan.torn,
            vec![TornWrite {
                record: 0,
                keep_bytes: 5
            }]
        );
    }

    #[test]
    fn rejects_malformed_rules() {
        for bad in [
            "panic",
            "boom@cell:1",
            "panic@cell:x",
            "panic@warp:1",
            "panic@cell:1*y",
            "panic@cell:3*1",
            "torn@record:3",
            "torn@record:a:5",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert_eq!(FaultPlan::parse(" ; ;").unwrap(), FaultPlan::default());
    }

    #[test]
    fn key_target_matches_exact_key() {
        let plan = FaultPlan::parse("panic@key:BFS/SBI").unwrap();
        assert_eq!(plan.cell_fault(0, "BFS/SBI"), Some(FaultKind::Panic));
        assert_eq!(plan.cell_fault(1, "BFS/SBI+SWI"), None);
    }

    #[test]
    fn verdicts_are_a_pure_function_of_the_job() {
        let plan = FaultPlan::parse("sim@cell:2; panic@key:a/b").unwrap();
        for _ in 0..3 {
            assert_eq!(plan.cell_fault(2, "x/y"), Some(FaultKind::SimError));
            assert_eq!(plan.cell_fault(5, "a/b"), Some(FaultKind::Panic));
            assert_eq!(plan.cell_fault(1, "x/y"), None, "other cells untouched");
        }
        // First match wins when two rules name one job.
        assert_eq!(plan.cell_fault(2, "a/b"), Some(FaultKind::SimError));
    }
}
