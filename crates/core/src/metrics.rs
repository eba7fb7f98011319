//! Error metrics and summary statistics.
//!
//! The paper evaluates estimators by their **ratio error**
//! `max(CF'/CF, CF/CF')` (Section II-C) and by bias/variance (Theorem 1).
//! This module provides the ratio error plus the summary statistics the trial
//! runner reports.

/// The ratio error `max(est/truth, truth/est)` used throughout the paper.
///
/// A perfect estimate has ratio error 1.  Degenerate inputs (zero or negative
/// values) return `f64::INFINITY`.
#[must_use]
pub fn ratio_error(estimate: f64, truth: f64) -> f64 {
    if estimate <= 0.0 || truth <= 0.0 || !estimate.is_finite() || !truth.is_finite() {
        return f64::INFINITY;
    }
    (estimate / truth).max(truth / estimate)
}

/// Summary statistics over a set of observations (estimates from repeated
/// trials, per-trial ratio errors, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStats {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 in the denominator).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl SummaryStats {
    /// Compute summary statistics.  Returns `None` for an empty slice.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in observations"));
        Some(SummaryStats {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_of_sorted(&sorted, 0.5),
            p95: percentile_of_sorted(&sorted, 0.95),
        })
    }

    /// Population variance of the observations (n in the denominator) — the
    /// quantity Theorem 1 bounds.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.std_dev.powi(2) * (self.count.saturating_sub(1)) as f64 / self.count as f64
    }
}

fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_error_is_symmetric_and_at_least_one() {
        assert!((ratio_error(0.2, 0.2) - 1.0).abs() < 1e-12);
        assert!((ratio_error(0.4, 0.2) - 2.0).abs() < 1e-12);
        assert!((ratio_error(0.2, 0.4) - 2.0).abs() < 1e-12);
        assert_eq!(ratio_error(0.0, 0.5), f64::INFINITY);
        assert_eq!(ratio_error(0.5, 0.0), f64::INFINITY);
        assert_eq!(ratio_error(f64::NAN, 0.5), f64::INFINITY);
    }

    #[test]
    fn summary_stats_basics() {
        let s = SummaryStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 1.5811388).abs() < 1e-6);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!(s.p95 >= 4.0 && s.p95 <= 5.0);
        assert!((s.population_variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_stats_edge_cases() {
        assert!(SummaryStats::from_values(&[]).is_none());
        let single = SummaryStats::from_values(&[2.5]).unwrap();
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.median, 2.5);
        assert_eq!(single.p95, 2.5);
    }
}
