//! # samplecf
//!
//! A reproduction of *"Estimating the Compression Fraction of an Index using
//! Sampling"* (Idreos, Kaushik, Narasayya, Ramamurthy — ICDE 2010) as a Rust
//! workspace, from the storage substrate up to the estimator and the
//! applications the paper motivates.
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users can depend on a single crate:
//!
//! * [`obs`] — metrics registry, histograms, per-stage request spans
//!   ([`samplecf_obs`]),
//! * [`storage`] — slotted pages, heap files, schemas, tables ([`samplecf_storage`]),
//! * [`compression`] — the exact compressed sizes of null suppression,
//!   dictionary (paged & global), RLE and prefix ([`samplecf_compression`]),
//! * [`index`] — B+-tree bulk build and per-column leaf sizes
//!   ([`samplecf_index`]),
//! * [`sampling`] — uniform (with and without replacement), Bernoulli,
//!   stratified, block and reservoir samplers
//!   ([`samplecf_sampling`]),
//! * [`datagen`] — seeded synthetic workloads ([`samplecf_datagen`]),
//! * [`core`] — the SampleCF estimator, theory, trial runner, advisor and
//!   capacity planner ([`samplecf_core`]),
//! * [`server`] — the `samplecfd` estimation service: JSON protocol, table
//!   catalog, shared concurrent sample cache ([`samplecf_server`]).
//!
//! ## Quickstart
//!
//! ```
//! use samplecf::prelude::*;
//!
//! // A 10k-row table with one char(40) column holding 200 distinct values.
//! let table = presets::variable_length_table("demo", 10_000, 40, 200, 4, 32, 7)
//!     .generate()
//!     .expect("generation succeeds")
//!     .table;
//! let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
//!
//! // Estimate the compression fraction from a 1% sample...
//! let estimate = SampleCf::with_fraction(0.01)
//!     .estimate(&table, &spec, &NullSuppression)
//!     .expect("estimation succeeds");
//! // ...and compare with the exact value.
//! let exact = ExactCf::new()
//!     .compute(&table, &spec, &NullSuppression)
//!     .expect("exact computation succeeds");
//! assert!(ratio_error(estimate.cf, exact.cf) < 1.1);
//! ```

pub use samplecf_compression as compression;
pub use samplecf_core as core;
pub use samplecf_datagen as datagen;
pub use samplecf_index as index;
pub use samplecf_obs as obs;
pub use samplecf_sampling as sampling;
pub use samplecf_server as server;
pub use samplecf_storage as storage;

/// Everything needed to use the estimator end to end.
pub mod prelude {
    pub use samplecf_compression::{
        scheme_by_name, scheme_names, CompressionOutcome, CompressionScheme, DictionaryCompression,
        GlobalDictionaryCompression, NullSuppression, PrefixCompression, RunLengthEncoding,
        Uncompressed,
    };
    pub use samplecf_core::{
        ratio_error, theory, AdvisorConfig, AdvisorPlan, Candidates, CfCheckpoint, CfMeasurement,
        CompressionAdvisor, ExactCf, ProgressiveCf, ProgressiveConfig, ProgressiveReport,
        Recommendation, SampleCf, SampleGroup, SummaryStats, TrialConfig, TrialRunner,
    };
    pub use samplecf_datagen::{
        presets, ColumnSpec, FrequencyDistribution, LengthDistribution, RowLayout, TableSpec,
    };
    pub use samplecf_index::{
        BTreeIndex, CompressedIndexReport, IndexBuilder, IndexKind, IndexSizeModel, IndexSpec,
    };
    pub use samplecf_obs::{
        Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, RegistrySnapshot, Span, Stage,
        StageTimings, Timer,
    };
    pub use samplecf_sampling::{
        BatchSchedule, CountingSource, MaterializedSample, SampleStream, SamplerKind,
    };
    pub use samplecf_storage::{
        Column, DataType, IntoShared, Row, Schema, SharedSource, Table, TableBuilder, TableSource,
        Value,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let table = presets::single_char_table("t", 500, 20, 10, 6, 1)
            .generate()
            .unwrap()
            .table;
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let est = SampleCf::with_fraction(0.1)
            .estimate(&table, &spec, &DictionaryCompression::default())
            .unwrap();
        assert!(est.cf > 0.0);
    }
}
