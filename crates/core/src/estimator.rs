//! The SampleCF estimator (paper Figure 2) and the exact baseline.
//!
//! ```text
//! Algorithm SampleCF(T, f, S, C)
//!   1. T' = uniform random sample of f·n rows from T
//!   2. Build index I'(S) on T'
//!   3. Compress index I' using C
//!   4. Return CF for index I'
//! ```
//!
//! The estimator is deliberately agnostic to the compression scheme: steps 2
//! and 3 are the exact computation's key-order walk, just over the sample
//! instead of the full table.  Neither packs the tree; [`measure_rows`]
//! does, as the differential oracle.

use crate::algebra::weighted_combine;
use crate::error::CoreResult;
use crate::metrics::ratio_error;
use samplecf_compression::CompressionScheme;
use samplecf_index::{
    measure_index, CompressedIndexReport, FirstKeyStats, IndexBuilder, IndexSpec, SortedRun,
};
use samplecf_sampling::{MaterializedSample, SamplerKind};
use samplecf_storage::{Schema, TableSource, Value};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics about the sample (or full table) the compression fraction was
/// measured on.  `distinct_first_key` is the paper's `d'` when measured on a
/// sample and `d` when measured on the whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct DataStats {
    /// Number of rows measured.
    pub rows: usize,
    /// Number of distinct values of the first key column.
    pub distinct_first_key: usize,
    /// Sum of null-suppressed lengths of the first key column (`Σ ℓᵢ`).
    pub sum_logical_len_first_key: usize,
    /// Number of NULLs in the first key column.
    pub null_first_key: usize,
}

impl DataStats {
    /// The stats of `rows` rows whose first key column a walk of their key
    /// order read off as `first_key`.
    fn off_the_order(rows: usize, first_key: FirstKeyStats) -> Self {
        DataStats {
            rows,
            distinct_first_key: first_key.distinct,
            sum_logical_len_first_key: first_key.logical_len_sum,
            null_first_key: first_key.nulls,
        }
    }
}

/// Running accumulator behind [`DataStats`], for consumers that see the
/// sample arrive in batches (the progressive estimator) instead of all at
/// once.
///
/// Observing values one by one and [`snapshot`](Self::snapshot)ting at any
/// point yields exactly the stats a from-scratch pass over the same values
/// would produce — the distinct set, length sum and null count are all
/// order-insensitive — so checkpoint stats cost `O(batch)` instead of
/// `O(rows so far)`.
#[derive(Debug, Clone, Default)]
pub struct DataStatsAccumulator {
    rows: usize,
    sum: usize,
    nulls: usize,
    distinct: HashSet<Value>,
}

impl DataStatsAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one first-key value into the running stats.
    pub fn observe(&mut self, value: &Value) {
        self.rows += 1;
        self.sum += value.logical_len();
        if value.is_null() {
            self.nulls += 1;
        } else if !self.distinct.contains(value) {
            self.distinct.insert(value.clone());
        }
    }

    /// Rows observed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The stats of everything observed so far.
    #[must_use]
    pub fn snapshot(&self) -> DataStats {
        DataStats {
            rows: self.rows,
            distinct_first_key: self.distinct.len(),
            sum_logical_len_first_key: self.sum,
            null_first_key: self.nulls,
        }
    }
}

/// The result of measuring (or estimating) a compression fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct CfMeasurement {
    /// Compression fraction over the stored column data — the paper's CF.
    pub cf: f64,
    /// Compression fraction including RID pointers and null bitmaps.
    pub cf_with_pointers: f64,
    /// Page-level compression fraction (repacked leaf pages / original).
    pub cf_pages: f64,
    /// Name of the compression scheme.
    pub scheme: String,
    /// Label of the sampling procedure ("exact" for the full computation).
    pub sampler: String,
    /// Statistics of the rows the measurement was taken over.
    pub data: DataStats,
    /// Wall-clock time of the measurement: sizing the index — sorting and
    /// walking its entries ([`ExactCf`]), walking a held sample's, or
    /// building and measuring the tree ([`measure_rows`]); for
    /// [`SampleCf::estimate`] and a progressive run, the whole run — draw
    /// included — whichever way its checkpoints were priced.
    pub elapsed: Duration,
    /// The full per-column compression report.
    pub report: CompressedIndexReport,
}

impl CfMeasurement {
    /// The measurement `report` gives of the rows `data` describes.
    pub(crate) fn of(
        report: CompressedIndexReport,
        sampler: String,
        data: DataStats,
        elapsed: Duration,
    ) -> Self {
        CfMeasurement {
            cf: report.cf(),
            cf_with_pointers: report.cf_with_pointers(),
            cf_pages: report.cf_pages(),
            scheme: report.scheme.clone(),
            sampler,
            data,
            elapsed,
            report,
        }
    }

    /// Ratio error of this measurement against a reference (usually the exact
    /// CF of the full index).
    #[must_use]
    pub fn ratio_error_vs(&self, truth: &CfMeasurement) -> f64 {
        ratio_error(self.cf, truth.cf)
    }
}

/// Build and compress an index over an explicit decoded row set and report
/// its CF: the paper's Figure 2 read literally, and the differential oracle
/// — the one caller of the tree packer in this crate; every estimator walks
/// a key order instead.  For rows drawn with a given `(sampler, seed)`, the
/// measurement is byte-identical to [`SampleCf::estimate`] with that
/// configuration (the rows *are* the estimate; building and compressing
/// them is deterministic).
pub fn measure_rows(
    schema: &Schema,
    rows: &[(samplecf_storage::Rid, samplecf_storage::Row)],
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    builder: &IndexBuilder,
    sampler_label: String,
) -> CoreResult<CfMeasurement> {
    let start = Instant::now();
    let index = builder.build_from_rows(schema, rows, spec)?;
    let report = measure_index(&index, scheme)?;
    let elapsed = start.elapsed();

    // An index spec has at least one key column.
    let first_key = spec.key_indexes(schema)?[0];
    let mut stats = DataStatsAccumulator::new();
    for (_, row) in rows {
        stats.observe(row.value(first_key));
    }
    Ok(CfMeasurement::of(
        report,
        sampler_label,
        stats.snapshot(),
        elapsed,
    ))
}

/// Measure one held sample under one scheme — steps 2–4 of SampleCF over an
/// already-drawn `T'`: the one-scheme call of [`measure_sample_schemes`].
pub fn measure_sample(
    sample: &MaterializedSample,
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    builder: &IndexBuilder,
) -> CoreResult<CfMeasurement> {
    let (mut measured, _) = measure_sample_schemes(sample, spec, &[scheme], builder)?;
    Ok(measured.pop().expect("one measurement per scheme"))
}

/// Where a measure of a held sample found the key order it walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOrderSource {
    /// The sample held it, sorted by an earlier measure of the same rows by
    /// the same key columns: the measure encoded and walked, no sort.
    Held,
    /// The measure sorted the sample, and the sample now holds the order.
    Sorted,
}

impl KeyOrderSource {
    /// The metric label: `held` or `sorted`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KeyOrderSource::Held => "held",
            KeyOrderSource::Sorted => "sorted",
        }
    }
}

/// Measure one held sample under every one of `schemes`: one encode, one
/// walk of the entries through their key order — one measurement per
/// scheme, in `schemes`' order — and where that order came from.
///
/// Sort keys and stored cells are sliced straight out of the sample's heap
/// records; no tree is packed.  The order is sorted at most once per key
/// columns over the sample's rows: the first measure by a key sorts
/// ([`IndexBuilder::order_records`](samplecf_index::IndexBuilder::order_records))
/// and leaves the [`KeyOrder`](samplecf_index::KeyOrder) with the sample
/// ([`MaterializedSample::hold_key_order`]); every later one walks through it
/// ([`IndexBuilder::encode_in_order`](samplecf_index::IndexBuilder::encode_in_order)).
/// One walk cuts each leaf's cells once and sizes them under every scheme
/// with the batch measure kernels, leaf and internal page counts coming
/// from the size model, and reads the [`DataStats`] off the same pass —
/// equal first-key cells are adjacent in key order, so no [`Value`] is
/// decoded and nothing is hashed.  The order depends on `spec`'s key
/// columns alone, not on its kind or name: every candidate index over them
/// shares it.
///
/// A sample that carries stratum tags is measured as the weighted
/// per-stratum combination `Σ W_s·CF_s` — each stratum's sub-index is the
/// same order filtered by tag (a subsequence of a sorted sequence is
/// sorted), sized on its own under every scheme and combined with
/// [`weighted_combine`] over the population weights; the pooled report and
/// stats are kept for their per-column detail.  Either way each measurement
/// is bit-identical to [`SampleCf::estimate`] with the sample's `(sampler,
/// seed)`, and — pooled — to [`measure_rows`] over the decoded rows, whose
/// packed tree stays the oracle (pinned by the differential suite).
pub fn measure_sample_schemes(
    sample: &MaterializedSample,
    spec: &IndexSpec,
    schemes: &[&dyn CompressionScheme],
    builder: &IndexBuilder,
) -> CoreResult<(Vec<CfMeasurement>, KeyOrderSource)> {
    let schema = sample.table().schema();
    let records = sample.records()?;
    let start = Instant::now();
    let held = sample.key_order(&spec.key_indexes(schema)?);
    let (ordered, source) = match held {
        Some(order) => (
            builder.encode_in_order(schema, &records, spec, order)?,
            KeyOrderSource::Held,
        ),
        None => {
            let ordered = builder.order_records(schema, &records, spec)?;
            sample.hold_key_order(Arc::clone(ordered.key_order()));
            (ordered, KeyOrderSource::Sorted)
        }
    };
    let (reports, first_key) = ordered.measure(schemes)?;
    let elapsed = start.elapsed();
    let data = DataStats::off_the_order(records.len(), first_key);

    // One walk per stratum serves every scheme.
    let tags = sample.row_strata();
    let weights = sample.strata_weights();
    let strata = (0..weights.len())
        .map(|s| Ok(ordered.measure_where(|i| tags[i] as usize == s, schemes)?.0))
        .collect::<CoreResult<Vec<_>>>()?;

    let measure = |(j, report): (usize, CompressedIndexReport)| {
        let per_stratum = (strata.iter())
            .map(|reports| Some(&reports[j]).filter(|stratum| stratum.num_entries > 0));
        let (cf, cf_with_pointers, cf_pages) = combine_strata(weights, per_stratum)
            .unwrap_or_else(|| (report.cf(), report.cf_with_pointers(), report.cf_pages()));
        CfMeasurement {
            cf,
            cf_with_pointers,
            cf_pages,
            ..CfMeasurement::of(report, sample.kind().label(), data.clone(), elapsed)
        }
    };
    Ok((
        reports.into_iter().enumerate().map(measure).collect(),
        source,
    ))
}

/// `Σ W_s·CF_s` over per-stratum reports, in tag order (`None` for a stratum
/// with no sampled rows), for each member of the CF triple:
/// [`weighted_combine`](crate::algebra::weighted_combine) over the population
/// `weights`, renormalised over sampled strata.  `None` when no stratum has
/// rows — including the unstratified case of no weights at all.
///
/// This is the one stratified combine: [`measure_sample_schemes`] and the
/// progressive estimator's checkpoints both come here, so a cached
/// stratified sample and [`SampleCf::estimate`] agree bit for bit.
pub(crate) fn combine_strata<'r>(
    weights: &[f64],
    per_stratum: impl Iterator<Item = Option<&'r CompressedIndexReport>>,
) -> Option<(f64, f64, f64)> {
    let k = weights.len();
    let mut cfs = vec![None; k];
    let mut cfwps = vec![None; k];
    let mut cfps = vec![None; k];
    for (s, report) in per_stratum.enumerate() {
        if let Some(report) = report {
            cfs[s] = Some(report.cf());
            cfwps[s] = Some(report.cf_with_pointers());
            cfps[s] = Some(report.cf_pages());
        }
    }
    // The three vectors share one live set, so the combinations are all
    // `Some` or all `None`.
    weighted_combine(weights, &cfs)
        .zip(weighted_combine(weights, &cfwps))
        .zip(weighted_combine(weights, &cfps))
        .map(|((cf, cfwp), cfp)| (cf, cfwp, cfp))
}

/// Exact computation of the compression fraction: size and compress the
/// full index (the expensive baseline SampleCF avoids).
#[derive(Debug, Clone, Default)]
pub struct ExactCf {
    builder: IndexBuilder,
}

impl ExactCf {
    /// Create with default index-build settings.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the index as `builder` would load it (page size / fill factor).
    /// Its thread count has no effect: nothing here loads a tree.
    #[must_use]
    pub fn with_builder(builder: IndexBuilder) -> Self {
        ExactCf { builder }
    }

    /// Report the true CF of the full index: every row's entry sorted and
    /// walked once, the [`DataStats`] read off the same walk — bit for bit
    /// [`measure_rows`] over the same rows, with no tree packed.
    ///
    /// Works over any [`TableSource`]; on a disk-resident table this scans
    /// every page — exactly the cost SampleCF exists to avoid.
    pub fn compute(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<CfMeasurement> {
        let schema = source.schema();
        let rows = source.scan_rows()?;
        let start = Instant::now();
        let sizer = self.builder.sizer(schema, spec)?;
        let run = SortedRun::from_rows(schema, &rows, spec)?;
        let (mut reports, first_key) = sizer.measure_run(&run, None, |_| true, &[scheme])?;
        let report = reports.pop().expect("one report per scheme");
        let data = DataStats::off_the_order(rows.len(), first_key);
        Ok(CfMeasurement::of(
            report,
            "exact".to_string(),
            data,
            start.elapsed(),
        ))
    }
}

/// The SampleCF estimator.
#[derive(Debug, Clone)]
pub struct SampleCf {
    sampler: SamplerKind,
    builder: IndexBuilder,
    seed: u64,
}

impl SampleCf {
    /// Create an estimator using the given sampling procedure.
    ///
    /// The paper's canonical configuration is
    /// `SamplerKind::UniformWithReplacement(f)`.
    #[must_use]
    pub fn new(sampler: SamplerKind) -> Self {
        SampleCf {
            sampler,
            builder: IndexBuilder::new(),
            seed: 0,
        }
    }

    /// Shorthand for the paper's configuration: uniform sampling with
    /// replacement at fraction `f`.
    #[must_use]
    pub fn with_fraction(fraction: f64) -> Self {
        Self::new(SamplerKind::UniformWithReplacement(fraction))
    }

    /// Set the RNG seed (each call to [`estimate`](Self::estimate) derives its
    /// randomness deterministically from this seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use a custom index builder (page size / fill factor) for the sample
    /// index.
    #[must_use]
    pub fn builder(mut self, builder: IndexBuilder) -> Self {
        self.builder = builder;
        self
    }

    /// Has no effect: an estimate is one progressive checkpoint, which
    /// sums, merges and walks on the calling thread whatever the thread
    /// count.  Kept for callers that still set it (perfbench).
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// The configured sampler kind.
    #[must_use]
    pub fn sampler(&self) -> SamplerKind {
        self.sampler
    }

    /// Run the estimator: sample, build the index on the sample, compress it,
    /// and return the sample's compression fraction as the estimate.
    ///
    /// Works over any [`TableSource`] — in-memory or disk-resident.  On a
    /// [`DiskTable`](samplecf_storage::DiskTable) with a block sampler, only
    /// the sampled pages are physically read.
    ///
    /// Every sampler kind is a stream, so this is
    /// [`ProgressiveCf`](crate::progressive::ProgressiveCf) with a single
    /// checkpoint at the configured fraction — same rows, same CF, same
    /// [`DataStats`], same pages read as the progressive path stopped at
    /// that fraction (the parity the proptests pin).  The trial runner, the
    /// advisor and the daemon all come through here or measure a held sample
    /// that is bit-identical to it.
    pub fn estimate(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<CfMeasurement> {
        let report = crate::progressive::ProgressiveCf::one_checkpoint(self.sampler)
            .seed(self.seed)
            .builder(self.builder)
            .run(source, spec, scheme)?;
        Ok(report.measurement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_compression::{
        DictionaryCompression, GlobalDictionaryCompression, NullSuppression, Uncompressed,
    };
    use samplecf_datagen::presets;
    use samplecf_storage::Table;

    fn table(n: usize, d: usize, seed: u64) -> Table {
        presets::variable_length_table("t", n, 40, d, 4, 36, seed)
            .generate()
            .unwrap()
            .table
    }

    fn spec() -> IndexSpec {
        IndexSpec::nonclustered("idx_a", ["a"]).unwrap()
    }

    #[test]
    fn exact_cf_matches_direct_report() {
        let t = table(2000, 100, 1);
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_eq!(exact.sampler, "exact");
        assert_eq!(exact.data.rows, 2000);
        assert_eq!(exact.data.distinct_first_key, 100);
        assert!(exact.cf > 0.0 && exact.cf < 1.2);
        assert_eq!(exact.report.num_entries, 2000);
    }

    #[test]
    fn sample_estimate_is_close_for_null_suppression() {
        let t = table(20_000, 20_000, 2);
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        let est = SampleCf::with_fraction(0.05)
            .seed(7)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        assert!(
            est.data.rows == 1000,
            "expected 5% of 20k rows, got {}",
            est.data.rows
        );
        let err = est.ratio_error_vs(&exact);
        assert!(err < 1.05, "ratio error {err} too large for NS");
    }

    #[test]
    fn sample_estimate_is_close_for_dictionary_with_small_d() {
        // Theorem 2's good case needs the sample size r to dwarf d: here
        // d = 20 and r = 0.2 · 20_000 = 4_000.
        let t = table(20_000, 20, 3);
        let scheme = GlobalDictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.2)
            .seed(11)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        let err = est.ratio_error_vs(&exact);
        assert!(err < 1.25, "ratio error {err} too large for small-d DC");
    }

    #[test]
    fn paged_dictionary_overestimates_cf_for_clustered_duplicates() {
        // With d = 50 and 20_000 rows, the sorted full index packs ~1-2
        // distinct values per leaf page, so paged dictionary compresses far
        // better than the sample (whose pages mix many values) suggests.
        // This is the paging effect the paper excludes from its model and
        // flags as future work.
        let t = table(20_000, 50, 3);
        let scheme = DictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.02)
            .seed(11)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        assert!(
            est.cf > exact.cf,
            "sample {} should exceed exact {}",
            est.cf,
            exact.cf
        );
    }

    #[test]
    fn dictionary_estimate_degrades_at_intermediate_d() {
        // With d around n/10 and a 1% sample, the sample sees mostly
        // singletons and overestimates CF relative to the global model truth.
        let t = table(20_000, 2_000, 4);
        let scheme = GlobalDictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.01)
            .seed(5)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        assert!(
            est.cf > exact.cf,
            "sample CF should overestimate: {} vs {}",
            est.cf,
            exact.cf
        );
    }

    #[test]
    fn estimator_is_deterministic_per_seed() {
        let t = table(5_000, 500, 6);
        let a = SampleCf::with_fraction(0.02)
            .seed(42)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        let b = SampleCf::with_fraction(0.02)
            .seed(42)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_eq!(a.cf, b.cf);
        let c = SampleCf::with_fraction(0.02)
            .seed(43)
            .estimate(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_ne!(a.cf, c.cf);
    }

    #[test]
    fn estimator_works_with_every_sampler_kind() {
        let t = table(3_000, 100, 8);
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::UniformWithoutReplacement(0.05),
            SamplerKind::Bernoulli(0.05),
            SamplerKind::Systematic(0.05),
            SamplerKind::Reservoir(150),
            SamplerKind::Block(0.05),
        ] {
            let est = SampleCf::new(kind)
                .seed(1)
                .estimate(&t, &spec(), &NullSuppression)
                .unwrap();
            assert!(
                est.cf > 0.0 && est.cf < 1.5,
                "{kind:?} produced cf = {}",
                est.cf
            );
            assert!(est.data.rows > 0);
        }
    }

    #[test]
    fn materialized_estimate_equals_direct_estimate_seed_for_seed() {
        use samplecf_sampling::MaterializedSample;
        let t = table(8_000, 400, 12);
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::UniformWithoutReplacement(0.05),
            SamplerKind::Bernoulli(0.05),
            SamplerKind::Systematic(0.05),
            SamplerKind::Reservoir(400),
            SamplerKind::Block(0.05),
            SamplerKind::Stratified {
                fraction: 0.05,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
        ] {
            let sample = MaterializedSample::draw(&t, kind, 42).unwrap();
            for scheme_name in ["null-suppression", "dictionary-global", "rle"] {
                let scheme = samplecf_compression::scheme_by_name(scheme_name).unwrap();
                let direct = SampleCf::new(kind)
                    .seed(42)
                    .estimate(&t, &spec(), scheme.as_ref())
                    .unwrap();
                let shared =
                    measure_sample(&sample, &spec(), scheme.as_ref(), &IndexBuilder::new())
                        .unwrap();
                assert_eq!(shared.cf, direct.cf, "{kind:?}/{scheme_name}");
                assert_eq!(shared.cf_with_pointers, direct.cf_with_pointers);
                assert_eq!(shared.cf_pages, direct.cf_pages);
                assert_eq!(shared.data, direct.data);
                assert_eq!(shared.sampler, direct.sampler);
                assert_eq!(shared.report.per_column, direct.report.per_column);
            }
        }
    }

    #[test]
    fn uncompressed_scheme_estimates_cf_of_one() {
        let t = table(2_000, 200, 9);
        let est = SampleCf::with_fraction(0.05)
            .estimate(&t, &spec(), &Uncompressed)
            .unwrap();
        assert!((est.cf - 1.0).abs() < 0.05, "cf = {}", est.cf);
    }

    #[test]
    fn estimate_is_much_faster_than_exact_on_large_tables() {
        let t = table(30_000, 3_000, 10);
        let scheme = DictionaryCompression::default();
        let exact = ExactCf::new().compute(&t, &spec(), &scheme).unwrap();
        let est = SampleCf::with_fraction(0.01)
            .estimate(&t, &spec(), &scheme)
            .unwrap();
        // The sample is 1% of the data; building + compressing it should be
        // well under half the exact cost even with fixed overheads.
        assert!(
            est.elapsed < exact.elapsed / 2,
            "estimate took {:?}, exact took {:?}",
            est.elapsed,
            exact.elapsed
        );
    }

    #[test]
    fn multi_column_indexes_are_supported() {
        let g = presets::orders_table("orders", 3_000, 11)
            .generate()
            .unwrap();
        let spec = IndexSpec::clustered("pk", ["order_id", "status"]).unwrap();
        let exact = ExactCf::new()
            .compute(&g.table, &spec, &NullSuppression)
            .unwrap();
        let est = SampleCf::with_fraction(0.05)
            .estimate(&g.table, &spec, &NullSuppression)
            .unwrap();
        assert!(exact.cf > 0.0 && est.cf > 0.0);
        assert!(est.ratio_error_vs(&exact) < 1.3);
        assert_eq!(exact.report.per_column.len(), 4);
    }
}
