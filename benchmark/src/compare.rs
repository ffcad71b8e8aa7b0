//! `benchmark compare A B`: holds two sets of plain-run result files
//! against each other under the bounds `BENCHMARK.json` fixes.
//!
//! `A` is the base and `B` the candidate; each is a result file
//! (`result-<workload>.json`) or a directory of them. One row is printed
//! per metric × workload with both values, the ratio `B/A` and a verdict:
//!
//! * `same` / `DIFFERENT` — simulated metrics (`sim_*`) are exact: the
//!   simulator is bit-deterministic, so any difference is a behaviour
//!   change whatever the bound says;
//! * `ok` / `REGRESSION` — `B` is worse than `A` by at most / more than the
//!   metric's bound;
//! * `unresolved` — the repetitions' own interquartile spread (as a share
//!   of their median, either side) exceeds the bound, so the comparison
//!   cannot tell a shift of that size from noise. A `B` that reads better
//!   than `A` is still reported `ok`.

use std::path::Path;

use crate::json::{self, Value};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the tool needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
}

impl Spec {
    /// # Errors
    /// Unreadable or malformed files.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// # Errors
    /// Missing or mistyped members.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("no `{key}` list"))
        };
        let text_of = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without `{key}`"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bound {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    higher_is_better: match text_of(m, "better")?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("`better` is `{other}`")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("entry without `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end,
        })
    }
}

/// What `compare` reads of one result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub failed: f64,
    /// Interquartile range of the repetition times over their median.
    pub spread: f64,
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// # Errors
    /// Missing or mistyped members.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        let number = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("no number `{key}`"))
        };
        let reps = doc.get("rep_seconds").ok_or("no `rep_seconds`")?;
        let median = number(reps, "p50")?;
        Ok(RunResult {
            workload: doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("no `workload`")?
                .to_string(),
            failed: number(&doc, "failed")?,
            spread: if median > 0.0 {
                (number(reps, "p75")? - number(reps, "p25")?) / median
            } else {
                0.0
            },
            metrics: doc
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("no `metrics`")?
                .iter()
                .map(|(name, m)| number(m, "value").map(|v| (name.clone(), v)))
                .collect::<Result<_, _>>()?,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Different,
    Ok,
    Regression,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Different => "DIFFERENT",
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }

    /// Whether the verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Different | Verdict::Regression)
    }
}

/// Judges candidate value `b` against base `a` for `bound`. `spread` is the
/// wider of the two runs' repetition spreads; only metrics derived from
/// repetition times can be unresolved by it.
pub fn judge(bound: &Bound, a: f64, b: f64, spread: f64) -> Verdict {
    if bound.name.starts_with("sim_") {
        return if a == b {
            Verdict::Same
        } else {
            Verdict::Different
        };
    }
    let worse_by = if bound.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let timed = matches!(bound.name.as_str(), "rep_ms" | "host_tips" | "cells_per_s");
    if worse_by <= 0.0 {
        Verdict::Ok
    } else if timed && spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The result files under `path`: the file itself, or one per workload of
/// `spec` in a directory.
fn load_side(path: &Path, spec: &Spec) -> Result<Vec<RunResult>, String> {
    let read = |file: &Path| {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        RunResult::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
    };
    if path.is_dir() {
        spec.workloads
            .iter()
            .map(|w| path.join(format!("result-{w}.json")))
            .filter(|file| file.exists())
            .map(|file| read(&file))
            .collect()
    } else {
        Ok(vec![read(path)?])
    }
}

/// Compares base `a` with candidate `b`, printing one row per metric ×
/// workload. Returns whether the comparison passes.
///
/// # Errors
/// Unreadable inputs, or sides with no workload in common.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let (base, candidate) = (load_side(a, spec)?, load_side(b, spec)?);
    println!(
        "{:<22} {:<14} {:>16} {:>16} {:>8}  {:>6}  verdict (ratio = B/A, base A = {})",
        "workload",
        "metric",
        "A",
        "B",
        "ratio",
        "bound",
        a.display()
    );
    let (mut rows, mut pass) = (0, true);
    for run_a in &base {
        let Some(run_b) = candidate.iter().find(|r| r.workload == run_a.workload) else {
            continue;
        };
        if run_a.failed + run_b.failed > 0.0 {
            println!(
                "{:<22} operations failed: A {}, B {}",
                run_a.workload, run_a.failed, run_b.failed
            );
            pass = false;
        }
        let spread = run_a.spread.max(run_b.spread);
        for bound in &spec.end_to_end {
            let (Some(va), Some(vb)) = (run_a.metric(&bound.name), run_b.metric(&bound.name))
            else {
                return Err(format!(
                    "{}: metric `{}` missing from a result file",
                    run_a.workload, bound.name
                ));
            };
            let verdict = judge(bound, va, vb, spread);
            pass &= !verdict.fails();
            rows += 1;
            println!(
                "{:<22} {:<14} {:>16.6} {:>16.6} {:>8.4}  {:>6.2}  {}",
                run_a.workload,
                bound.name,
                va,
                vb,
                vb / va,
                bound.bound,
                verdict.label()
            );
        }
    }
    if rows == 0 {
        return Err("the two sides share no workload".into());
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn simulated_metrics_are_exact() {
        let b = bound("sim_cycles", false, 0.25);
        assert_eq!(judge(&b, 100.0, 100.0, 0.9), Verdict::Same);
        assert_eq!(judge(&b, 100.0, 99.0, 0.0), Verdict::Different);
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let lower = bound("rep_ms", false, 0.10);
        assert_eq!(judge(&lower, 100.0, 109.0, 0.02), Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, 111.0, 0.02), Verdict::Regression);
        assert_eq!(judge(&lower, 100.0, 50.0, 0.02), Verdict::Ok);
        let higher = bound("host_tips", true, 0.10);
        assert_eq!(judge(&higher, 100.0, 91.0, 0.02), Verdict::Ok);
        assert_eq!(judge(&higher, 100.0, 89.0, 0.02), Verdict::Regression);
        assert_eq!(judge(&higher, 100.0, 150.0, 0.02), Verdict::Ok);
    }

    #[test]
    fn wide_spread_leaves_a_worse_timing_unresolved() {
        let b = bound("cells_per_s", true, 0.10);
        assert_eq!(judge(&b, 100.0, 80.0, 0.15), Verdict::Unresolved);
        // Better readings are never unresolved; untimed metrics ignore it.
        assert_eq!(judge(&b, 100.0, 120.0, 0.15), Verdict::Ok);
        let rss = bound("peak_rss_mib", false, 0.10);
        assert_eq!(judge(&rss, 100.0, 120.0, 0.15), Verdict::Regression);
    }

    #[test]
    fn result_files_parse() {
        let text = r#"{"workload": "w", "failed": 0, "rep_seconds":
            {"n": 4, "p25": 0.9, "p50": 1.0, "p75": 1.2, "p90": 1.3, "p99": 1.3},
            "metrics": {"rep_ms": {"value": 900.0, "unit": "ms"}}}"#;
        let run = RunResult::parse(text).expect("valid");
        assert_eq!(run.workload, "w");
        assert!((run.spread - 0.3).abs() < 1e-12);
        assert_eq!(run.metric("rep_ms"), Some(900.0));
        assert_eq!(run.metric("absent"), None);
    }
}
