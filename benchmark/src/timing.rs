//! The timing rule: host time is taken around each repetition, and the
//! reported value is the **lower quartile** of the repetition times, with
//! the count, median, upper quartile and p90 beside it.
//!
//! Interference from the host only ever adds time, so the lower quartile
//! estimates the undisturbed cost without trusting one lucky repetition
//! (see `README.md` for the measurements behind the choice).

/// The `q`-quantile of `sorted` (ascending), by the same rule as Python's
/// `statistics.quantiles` (exclusive method): position `q·(n+1)` counted
/// from one, linearly interpolated, clamped to the extremes.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (q * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Order statistics of one series of repetition times (any unit).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.50),
            p75: quantile(&sorted, 0.75),
            p90: quantile(&sorted, 0.90),
            p99: quantile(&sorted, 0.99),
        }
    }

    /// The summary as a JSON object, in the series' own unit.
    pub fn to_json(&self) -> String {
        use crate::json::num;
        format!(
            "{{\"n\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}, \"p90\": {}, \"p99\": {}}}",
            self.n,
            num(self.p25),
            num(self.p50),
            num(self.p75),
            num(self.p90),
            num(self.p99)
        )
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&data, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&data, 0.50) - 5.5).abs() < 1e-12);
        assert!((quantile(&data, 0.75) - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.25), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.75), 3.0);
        // Far quantiles clamp to the extremes instead of extrapolating.
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }

    #[test]
    fn summary_sorts_its_samples() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.p25, 1.25);
        assert_eq!(s.p75, 3.75);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
