//! Repeated-trial evaluation of the estimator.
//!
//! The paper's claims are statistical (unbiasedness, variance bounds,
//! expected ratio error), so validating them requires running SampleCF many
//! times with independent samples and summarising the distribution of the
//! estimates.  The [`TrialRunner`] does exactly that, fanning trials out
//! across threads (each trial derives its own RNG seed, so results do not
//! depend on the number of threads).

use crate::error::{CoreError, CoreResult};
use crate::estimator::{CfMeasurement, ExactCf, SampleCf};
use crate::metrics::{ratio_error, SummaryStats};
use samplecf_compression::CompressionScheme;
use samplecf_index::IndexSpec;
use samplecf_parallel::parallel_indexed_map;
use samplecf_sampling::SamplerKind;
use samplecf_storage::TableSource;

/// Configuration of a repeated-trial run.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Number of independent estimator runs.
    pub trials: usize,
    /// Base RNG seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of worker threads (0 = use all available parallelism).
    pub threads: usize,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            trials: 100,
            base_seed: 0,
            threads: 0,
        }
    }
}

impl TrialConfig {
    /// A config with the given number of trials and defaults otherwise.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        TrialConfig {
            trials,
            ..Default::default()
        }
    }

    /// Set the base seed.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set the worker thread count (0 = all available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The outcome of a repeated-trial run.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// The exact measurement on the full index (the ground truth).
    pub truth: CfMeasurement,
    /// Every trial's estimated CF.
    pub estimates: Vec<f64>,
    /// Summary statistics of the estimates.
    pub estimate_stats: SummaryStats,
    /// Summary statistics of the per-trial ratio errors.
    pub ratio_error_stats: SummaryStats,
    /// Mean estimate minus true CF (≈ 0 for an unbiased estimator).
    pub bias: f64,
    /// Label of the sampler used.
    pub sampler: String,
    /// Name of the compression scheme used.
    pub scheme: String,
}

impl TrialSummary {
    /// The summary of `estimates` against the exact measurement `truth`,
    /// labelled with the sampler that drew them and `scheme`.
    pub fn of(
        truth: CfMeasurement,
        estimates: Vec<f64>,
        sampler: String,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<Self> {
        let ratio_errors: Vec<f64> = estimates
            .iter()
            .map(|&e| ratio_error(e, truth.cf))
            .collect();
        let estimate_stats = SummaryStats::from_values(&estimates)
            .ok_or_else(|| CoreError::InvalidConfig("no estimates produced".to_string()))?;
        let ratio_error_stats = SummaryStats::from_values(&ratio_errors)
            .ok_or_else(|| CoreError::InvalidConfig("no ratio errors produced".to_string()))?;
        let bias = estimate_stats.mean - truth.cf;
        Ok(TrialSummary {
            truth,
            estimates,
            estimate_stats,
            ratio_error_stats,
            bias,
            sampler,
            scheme: scheme.name().to_string(),
        })
    }

    /// The true compression fraction.
    #[must_use]
    pub fn true_cf(&self) -> f64 {
        self.truth.cf
    }

    /// Empirical standard deviation of the estimates (what Theorem 1 bounds
    /// for null suppression).
    #[must_use]
    pub fn empirical_std_dev(&self) -> f64 {
        self.estimate_stats.std_dev
    }

    /// Mean ratio error across trials (what Theorems 2 and 3 bound for
    /// dictionary compression).
    #[must_use]
    pub fn mean_ratio_error(&self) -> f64 {
        self.ratio_error_stats.mean
    }

    /// Worst ratio error observed across trials.
    #[must_use]
    pub fn max_ratio_error(&self) -> f64 {
        self.ratio_error_stats.max
    }

    /// Relative bias (bias divided by the true CF).
    #[must_use]
    pub fn relative_bias(&self) -> f64 {
        if self.truth.cf == 0.0 {
            0.0
        } else {
            self.bias / self.truth.cf
        }
    }
}

/// Runs SampleCF repeatedly against a fixed table/index/scheme and compares
/// the estimates with the exact compression fraction.
#[derive(Debug, Clone, Copy)]
pub struct TrialRunner {
    config: TrialConfig,
}

impl TrialRunner {
    /// Create a runner with the given configuration.
    #[must_use]
    pub fn new(config: TrialConfig) -> Self {
        TrialRunner { config }
    }

    /// Run the trials over any [`TableSource`] (in-memory or disk-resident).
    pub fn run(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
        sampler: SamplerKind,
    ) -> CoreResult<TrialSummary> {
        if self.config.trials == 0 {
            return Err(CoreError::InvalidConfig(
                "at least one trial is required".to_string(),
            ));
        }
        let truth = ExactCf::new().compute(source, spec, scheme)?;
        let estimates = self.run_estimates(source, spec, scheme, sampler)?;
        TrialSummary::of(truth, estimates, sampler.label(), scheme)
    }

    /// Run only the estimator trials (no exact baseline), returning the raw
    /// estimates in trial order: trial `i` is
    /// `SampleCf::new(sampler).seed(base_seed + i).estimate(..)`, nothing
    /// else.
    ///
    /// Trials fan out across `std::thread::scope` workers; each trial derives
    /// its own RNG seed from the base seed, so the estimates are identical
    /// whatever the thread count.  The source is shared immutably across
    /// workers (the [`TableSource`] contract requires `Send + Sync`).
    pub fn run_estimates(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
        sampler: SamplerKind,
    ) -> CoreResult<Vec<f64>> {
        let base_seed = self.config.base_seed;
        parallel_indexed_map(self.config.trials, self.config.threads, |trial| {
            SampleCf::new(sampler)
                .seed(base_seed.wrapping_add(trial as u64))
                .estimate(source, spec, scheme)
                .map(|m| m.cf)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory;
    use samplecf_compression::{GlobalDictionaryCompression, NullSuppression};
    use samplecf_datagen::presets;
    use samplecf_storage::Table;

    fn table(n: usize, d: usize, seed: u64) -> Table {
        presets::variable_length_table("t", n, 32, d, 4, 28, seed)
            .generate()
            .unwrap()
            .table
    }

    fn spec() -> IndexSpec {
        IndexSpec::nonclustered("i", ["a"]).unwrap()
    }

    #[test]
    fn ns_trials_show_unbiasedness_and_bounded_std_dev() {
        let t = table(20_000, 20_000, 1);
        let runner = TrialRunner::new(TrialConfig::new(60).base_seed(100));
        let summary = runner
            .run(
                &t,
                &spec(),
                &NullSuppression,
                SamplerKind::UniformWithReplacement(0.02),
            )
            .unwrap();
        assert_eq!(summary.estimates.len(), 60);
        // Unbiased: relative bias within 2%.
        assert!(
            summary.relative_bias().abs() < 0.02,
            "relative bias = {}",
            summary.relative_bias()
        );
        // Theorem 1 bound holds empirically (with slack for sampling noise).
        let bound = theory::ns_stddev_bound(20_000, 0.02);
        assert!(
            summary.empirical_std_dev() <= bound * 1.5,
            "std {} vs bound {}",
            summary.empirical_std_dev(),
            bound
        );
    }

    #[test]
    fn dc_trials_have_small_ratio_error_for_small_d() {
        // The good case needs r ≫ d: d = 50, r = 0.15 · 20_000 = 3_000.
        let t = table(20_000, 50, 2);
        let runner = TrialRunner::new(TrialConfig::new(20).base_seed(5));
        let summary = runner
            .run(
                &t,
                &spec(),
                &GlobalDictionaryCompression::default(),
                SamplerKind::UniformWithReplacement(0.15),
            )
            .unwrap();
        assert!(
            summary.mean_ratio_error() < 1.35,
            "mean ratio error {}",
            summary.mean_ratio_error()
        );
        assert!(
            summary.max_ratio_error() < 1.8,
            "max ratio error {}",
            summary.max_ratio_error()
        );
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let t = table(3_000, 300, 3);
        let single = TrialRunner::new(TrialConfig::new(12).base_seed(7).threads(1))
            .run_estimates(
                &t,
                &spec(),
                &NullSuppression,
                SamplerKind::UniformWithReplacement(0.05),
            )
            .unwrap();
        let multi = TrialRunner::new(TrialConfig::new(12).base_seed(7).threads(4))
            .run_estimates(
                &t,
                &spec(),
                &NullSuppression,
                SamplerKind::UniformWithReplacement(0.05),
            )
            .unwrap();
        assert_eq!(single, multi);
    }

    #[test]
    fn trials_run_the_estimator() {
        // Trial `i` is `SampleCf::estimate` at seed `base_seed + i`, bit for
        // bit, for every sampler kind and thread count: the test that fails
        // if the trial runner grows a draw or measure route of its own.
        let t = table(3_000, 300, 9);
        let scheme = GlobalDictionaryCompression::default();
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::UniformWithoutReplacement(0.05),
            SamplerKind::Bernoulli(0.05),
            SamplerKind::Reservoir(150),
            SamplerKind::Block(0.05),
            SamplerKind::Stratified {
                fraction: 0.05,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Neyman,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
        ] {
            let estimates: Vec<f64> = (0..5)
                .map(|i| {
                    let estimator = SampleCf::new(kind).seed(40 + i);
                    estimator.estimate(&t, &spec(), &scheme).unwrap().cf
                })
                .collect();
            for threads in [1, 4] {
                let trials = TrialRunner::new(TrialConfig::new(5).base_seed(40).threads(threads))
                    .run_estimates(&t, &spec(), &scheme, kind)
                    .unwrap();
                assert_eq!(trials, estimates, "{kind:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn zero_trials_is_an_error() {
        let t = table(500, 50, 4);
        let runner = TrialRunner::new(TrialConfig::new(0));
        assert!(runner
            .run(
                &t,
                &spec(),
                &NullSuppression,
                SamplerKind::UniformWithReplacement(0.1)
            )
            .is_err());
    }

    #[test]
    fn variance_shrinks_with_larger_samples() {
        let t = table(10_000, 10_000, 6);
        let small = TrialRunner::new(TrialConfig::new(40).base_seed(1))
            .run(
                &t,
                &spec(),
                &NullSuppression,
                SamplerKind::UniformWithReplacement(0.005),
            )
            .unwrap();
        let large = TrialRunner::new(TrialConfig::new(40).base_seed(1))
            .run(
                &t,
                &spec(),
                &NullSuppression,
                SamplerKind::UniformWithReplacement(0.08),
            )
            .unwrap();
        assert!(
            large.empirical_std_dev() < small.empirical_std_dev(),
            "larger samples should reduce variance: {} vs {}",
            large.empirical_std_dev(),
            small.empirical_std_dev()
        );
    }
}
