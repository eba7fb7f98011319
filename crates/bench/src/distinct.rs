//! Distinct-value estimators, the baselines of `exp_dv_baselines`.
//!
//! The paper relates dictionary-compression estimation to distinct-value
//! estimation, which is provably hard from uniform samples (its reference
//! \[1\], Charikar et al., PODS 2000).  SampleCF sidesteps the problem by
//! returning the *sample's own* compression fraction instead of scaling up a
//! distinct-value estimate, so the library ships none of these.  The
//! experiment plugs each classical scale-up estimate `d̂` into the analytic
//! `CF_DC = (n·p + d̂·k)/(n·k)` formula to set it beside SampleCF.

use samplecf_storage::Value;

/// The frequency profile of a sample: `f_j`, the number of distinct values
/// that occur exactly `j` times in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyProfile {
    /// `(j, f_j)` for every `j` with `f_j > 0`, ascending in `j`.
    counts: Vec<(usize, usize)>,
    sample_size: usize,
    distinct_in_sample: usize,
}

impl FrequencyProfile {
    /// The profile of a sample of values, built by sorting them.  NULLs are
    /// counted as a single distinct value, as dictionaries treat them.
    #[must_use]
    pub fn of(mut values: Vec<Value>) -> Self {
        values.sort_unstable();
        let mut multiplicities: Vec<usize> =
            values.chunk_by(|a, b| a == b).map(<[Value]>::len).collect();
        multiplicities.sort_unstable();
        FrequencyProfile {
            counts: (multiplicities.chunk_by(|a, b| a == b))
                .map(|run| (run[0], run.len()))
                .collect(),
            sample_size: values.len(),
            distinct_in_sample: multiplicities.len(),
        }
    }

    /// `f_j`: how many distinct values occur exactly `j` times in the sample.
    #[must_use]
    pub fn f(&self, j: usize) -> usize {
        (self.counts.binary_search_by_key(&j, |&(j, _)| j)).map_or(0, |i| self.counts[i].1)
    }

    /// Number of rows in the sample (`r`).
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Number of distinct values in the sample (`d′`).
    #[must_use]
    pub fn distinct_in_sample(&self) -> usize {
        self.distinct_in_sample
    }
}

/// A scale-up estimator of the number of distinct values in a table of `n`
/// rows, from a uniform sample's [`FrequencyProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistinctEstimator {
    /// The sample's own distinct count, `d̂ = d′`: always an underestimate,
    /// the other extreme of the baseline spectrum.
    SampleDistinct,
    /// The naive scale-up `d̂ = d′·(n/r)`.
    NaiveScaleUp,
    /// Chao's 1984 estimator `d̂ = d′ + f₁² / (2·f₂)`.
    Chao84,
    /// The Guaranteed-Error Estimator of Charikar et al. (PODS 2000),
    /// `d̂ = √(n/r)·f₁ + Σ_{j≥2} f_j`.
    Gee,
    /// Shlosser's estimator, designed for Bernoulli samples with rate
    /// `q = r/n`: `d̂ = d′ + f₁ · Σ (1−q)^j f_j / Σ j·q·(1−q)^{j−1} f_j`.
    Shlosser,
}

impl DistinctEstimator {
    /// Every estimator, in the experiment's column order.
    pub const ALL: [DistinctEstimator; 5] = [
        DistinctEstimator::SampleDistinct,
        DistinctEstimator::NaiveScaleUp,
        DistinctEstimator::Chao84,
        DistinctEstimator::Gee,
        DistinctEstimator::Shlosser,
    ];

    /// Short stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DistinctEstimator::SampleDistinct => "sample-distinct",
            DistinctEstimator::NaiveScaleUp => "naive-scale-up",
            DistinctEstimator::Chao84 => "chao84",
            DistinctEstimator::Gee => "gee",
            DistinctEstimator::Shlosser => "shlosser",
        }
    }

    /// Estimate the number of distinct values in a table of `table_rows`
    /// rows, clamped to `[max(d′, 1), n]`; an empty sample or table gives 0.
    #[must_use]
    pub fn estimate(self, profile: &FrequencyProfile, table_rows: usize) -> f64 {
        let (r, n) = (profile.sample_size as f64, table_rows as f64);
        if r == 0.0 || n == 0.0 {
            return 0.0;
        }
        let d_prime = profile.distinct_in_sample as f64;
        let f1 = profile.f(1) as f64;
        let d_hat = match self {
            DistinctEstimator::SampleDistinct => d_prime,
            DistinctEstimator::NaiveScaleUp => d_prime * (n / r),
            DistinctEstimator::Chao84 => match profile.f(2) {
                // The bias-corrected form when no value occurs twice.
                0 => d_prime + f1 * (f1 - 1.0) / 2.0,
                f2 => d_prime + f1 * f1 / (2.0 * f2 as f64),
            },
            DistinctEstimator::Gee => (n / r).sqrt() * f1 + (d_prime - f1),
            DistinctEstimator::Shlosser => {
                let q = (r / n).min(1.0);
                let (mut numerator, mut denominator) = (0.0, 0.0);
                for &(j, fj) in &profile.counts {
                    let (j, fj) = (j as i32, fj as f64);
                    numerator += (1.0 - q).powi(j) * fj;
                    denominator += f64::from(j) * q * (1.0 - q).powi(j - 1) * fj;
                }
                if q < 1.0 && denominator > 0.0 {
                    d_prime + f1 * numerator / denominator
                } else {
                    d_prime
                }
            }
        };
        d_hat.max(d_prime).min(n).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_with(counts: &[(i64, usize)]) -> Vec<Value> {
        let mut out = Vec::new();
        for &(v, c) in counts {
            out.extend(std::iter::repeat_n(Value::Int(v), c));
        }
        out
    }

    #[test]
    fn histogram_counts_multiplicities() {
        let p = FrequencyProfile::of(sample_with(&[(1, 1), (2, 1), (3, 2), (4, 5)]));
        assert_eq!(p.sample_size(), 9);
        assert_eq!(p.distinct_in_sample(), 4);
        assert_eq!(p.f(1), 2);
        assert_eq!(p.f(2), 1);
        assert_eq!(p.f(5), 1);
        assert_eq!(p.f(3), 0);
        assert_eq!(p.f(6), 0);
    }

    #[test]
    fn histogram_of_empty_sample() {
        let p = FrequencyProfile::of(Vec::new());
        assert_eq!(p.sample_size(), 0);
        assert_eq!(p.distinct_in_sample(), 0);
        assert_eq!(p.f(1), 0);
    }

    #[test]
    fn profile_of_unsorted_values_with_nulls() {
        let values = vec![
            Value::str("b"),
            Value::Null,
            Value::Int(7),
            Value::str("a"),
            Value::Null,
            Value::str("b"),
            Value::Int(7),
            Value::Null,
            Value::str("b"),
        ];
        let p = FrequencyProfile::of(values);
        assert_eq!(p.sample_size(), 9);
        // "a" once; 7 twice; NULL and "b" three times each.
        assert_eq!(p.distinct_in_sample(), 4);
        assert_eq!((p.f(1), p.f(2), p.f(3)), (1, 1, 2));
    }

    #[test]
    fn estimators_are_exact_when_the_sample_is_the_table() {
        // Sample = full table of 100 rows with 10 distinct values.
        let p = FrequencyProfile::of(sample_with(&(0..10).map(|i| (i, 10)).collect::<Vec<_>>()));
        for est in DistinctEstimator::ALL {
            let d_hat = est.estimate(&p, 100);
            assert!(
                (d_hat - 10.0).abs() < 1e-9,
                "{} estimated {d_hat} for a fully observed table",
                est.name()
            );
        }
    }

    #[test]
    fn estimates_are_clamped_to_valid_range() {
        let p = FrequencyProfile::of(sample_with(&[(1, 1), (2, 1), (3, 1)]));
        for est in DistinctEstimator::ALL {
            let d_hat = est.estimate(&p, 1000);
            assert!(d_hat >= 3.0, "{}: {d_hat}", est.name());
            assert!(d_hat <= 1000.0, "{}: {d_hat}", est.name());
        }
    }

    #[test]
    fn naive_scale_up_overestimates_low_cardinality_columns() {
        // 2 distinct values observed in a 1% sample of 10_000 rows.
        let p = FrequencyProfile::of(sample_with(&[(1, 60), (2, 40)]));
        let naive = DistinctEstimator::NaiveScaleUp.estimate(&p, 10_000);
        assert!((naive - 200.0).abs() < 1e-9);
        // GEE and Chao84 stay close to the sample's distinct count because no
        // singletons exist.
        assert!(DistinctEstimator::Gee.estimate(&p, 10_000) < 10.0);
        assert!(DistinctEstimator::Chao84.estimate(&p, 10_000) < 10.0);
    }

    #[test]
    fn gee_scales_singletons_by_sqrt_of_inverse_fraction() {
        // 100 singletons in a sample of 100 rows from a 10_000-row table.
        let p = FrequencyProfile::of(sample_with(&(0..100).map(|i| (i, 1)).collect::<Vec<_>>()));
        let gee = DistinctEstimator::Gee.estimate(&p, 10_000);
        assert!((gee - 1000.0).abs() < 1e-9, "gee = {gee}");
    }

    #[test]
    fn shlosser_exceeds_sample_distinct_when_singletons_exist() {
        let mut values = sample_with(&(0..50).map(|i| (i, 1)).collect::<Vec<_>>());
        values.extend(sample_with(&[(1000, 25), (1001, 25)]));
        let p = FrequencyProfile::of(values);
        let s = DistinctEstimator::Shlosser.estimate(&p, 10_000);
        assert!(s > p.distinct_in_sample() as f64);
    }

    #[test]
    fn nulls_count_as_one_distinct_value() {
        let p = FrequencyProfile::of(vec![Value::Null, Value::Null, Value::Int(1)]);
        assert_eq!(p.distinct_in_sample(), 2);
        assert_eq!(p.f(2), 1);
    }
}
