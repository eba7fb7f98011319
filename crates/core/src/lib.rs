//! # samplecf-core
//!
//! The SampleCF estimator and its accuracy analysis — a reproduction of
//! *"Estimating the Compression Fraction of an Index using Sampling"*
//! (Idreos, Kaushik, Narasayya, Ramamurthy — ICDE 2010).
//!
//! The central API is [`SampleCf`]: draw a random sample of rows, build the
//! requested index on the sample, compress it with the actual compression
//! scheme, and return the sample's compression fraction as the estimate of
//! the full index's compression fraction.  [`ExactCf`] computes the expensive
//! ground truth for comparison.
//!
//! Around the estimator this crate provides everything the paper's analysis
//! and evaluation need:
//!
//! * [`theory`] — Theorem 1 (unbiasedness and the `1/(2√r)` standard
//!   deviation bound for null suppression) and the expected-error model for
//!   dictionary compression in the small-`d` (Theorem 2) and large-`d`
//!   (Theorem 3) regimes,
//! * [`metrics`] — the ratio-error metric and summary statistics,
//! * [`trials`] — a parallel repeated-trial runner that measures bias,
//!   variance and ratio errors empirically,
//! * [`advisor`] — the two applications the paper motivates,
//!   compression-aware physical design and capacity planning, in one
//!   planner over samples its caller holds: every candidate on a held
//!   [`MaterializedSample`](samplecf_sampling::MaterializedSample) is priced
//!   from it, so a disk-resident table pays its sampling I/O once per sample
//!   however many candidates are evaluated, and the plan's totals are the
//!   compressed footprint a capacity plan asks for.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_compression::NullSuppression;
//! use samplecf_core::{ratio_error, ExactCf, SampleCf};
//! use samplecf_datagen::presets;
//! use samplecf_index::IndexSpec;
//!
//! let table = presets::variable_length_table("t", 10_000, 40, 200, 4, 32, 7)
//!     .generate()?
//!     .table;
//! let spec = IndexSpec::nonclustered("idx_a", ["a"])?;
//!
//! // Estimate the compression fraction from a 1% sample...
//! let estimate = SampleCf::with_fraction(0.01)
//!     .seed(42)
//!     .estimate(&table, &spec, &NullSuppression)?;
//! // ...and compare with the exact value from compressing the full index.
//! let exact = ExactCf::new().compute(&table, &spec, &NullSuppression)?;
//!
//! assert!(ratio_error(estimate.cf, exact.cf) < 1.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod advisor;
pub mod error;
pub mod estimator;
mod measure;
pub mod metrics;
pub mod progressive;
pub mod theory;
pub mod trials;

pub use advisor::{
    AdvisorConfig, AdvisorPlan, Candidates, CompressionAdvisor, Recommendation, SampleGroup,
};
pub use error::{CoreError, CoreResult};
pub use estimator::{
    measure_rows, measure_sample, measure_sample_schemes, weighted_combine, CfMeasurement,
    DataStats, DataStatsAccumulator, ExactCf, SampleCf,
};
pub use measure::KeyOrderOutcome;
pub use metrics::{ratio_error, SummaryStats};
pub use progressive::{
    CfCheckpoint, ProgressiveCf, ProgressiveConfig, ProgressiveMetrics, ProgressiveReport,
};
pub use trials::{TrialConfig, TrialRunner, TrialSummary};
