//! Progressive (sequential) estimation with a variance-driven stopping rule.
//!
//! The paper's Theorem 1 answers "how big must the sample be for error ε at
//! confidence 1 − δ" — but the classic pipeline runs it backwards: the
//! caller guesses a fraction `f`, the sampler draws everything in one shot,
//! and the estimator measures once with no idea whether the answer is
//! within budget.  [`ProgressiveCf`] turns the pipeline around:
//!
//! 1. the sample arrives in geometrically growing batches from a
//!    [`SampleStream`](samplecf_sampling::SampleStream),
//! 2. after each batch the CF of the sample so far is re-priced, with its
//!    [`DataStats`](crate::DataStats) — all from the drawn records' bytes,
//!    no row decoded,
//! 3. where that CF is a sum of per-row cell costs — a scheme that declares
//!    [`cell_costs`](CompressionScheme::cell_costs): `none`, null
//!    suppression — its variance is the sampling design's
//!    ([`theory::design_variance`]), from moments of the row and page costs
//!    folded in the pass that sums the cells, giving a distribution-free
//!    Chebyshev confidence interval ([`theory::chebyshev_z`]),
//! 4. the run stops as soon as the CI's relative half-width drops below
//!    `target_error` — or when the sampler's fraction cap is reached.
//!
//! Every checkpoint is the one measure of a sample (`SampleMeasure`): the
//! batch is folded in and the prefix drawn so far is priced — the pooled
//! sample and each stratum — by cell sums for a cell-additive scheme
//! (`O(strata)` arithmetic per checkpoint) and by one walk of the key order
//! for any other, the order grown by sorting only the new batch and merging
//! it in.  Both are bit-identical to packing and measuring every tree from
//! the rows, the differential oracle.
//!
//! A walked scheme's CF (dictionary, RLE, prefix) is not a sum of per-row
//! terms: its error is the bias Theorems 2–3 describe, which no sampling
//! variance prices.  Its checkpoints report no interval, so its run goes to
//! the cap and answers what [`SampleCf`](crate::estimator::SampleCf) does.
//!
//! On low-variance data the stop comes after a tiny fraction of the pages a
//! fixed-`f` run would read; on adversarial data the run simply continues
//! to the cap and returns exactly the fixed-`f` answer.  Prefix-stable streams make that exactness literal: a
//! progressive run that reaches its cap is byte-identical — CF, data stats
//! and pages read — to [`SampleCf`](crate::estimator::SampleCf) at the same
//! fraction and seed.

use crate::error::{CoreError, CoreResult};
use crate::estimator::CfMeasurement;
use crate::measure::SampleMeasure;
use crate::theory::{self, Design};
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_compression::CompressionScheme;
use samplecf_index::{IndexBuilder, IndexSpec};
use samplecf_obs::{Counter, Histogram, MetricsRegistry, Timer};
use samplecf_sampling::{BatchSchedule, SamplerKind};
use samplecf_storage::{CountingSource, TableSource};
use std::time::Instant;

/// Registry-backed instruments for progressive runs.  A default-constructed
/// value is fully disabled (every record is one branch), so the estimator
/// carries it unconditionally; [`ProgressiveCf::metrics`] swaps in live
/// handles.  Metric names are catalogued in `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Default)]
pub struct ProgressiveMetrics {
    /// Progressive runs started (`samplecf_progressive_runs_total`).
    runs: Counter,
    /// Checkpoints measured (`samplecf_progressive_checkpoints_total`).
    checkpoints: Counter,
    /// Runs that met their target before the cap
    /// (`samplecf_progressive_early_stops_total`).
    early_stops: Counter,
    /// Physical pages read (`samplecf_progressive_pages_read_total`).
    pages_read: Counter,
    /// Per-checkpoint batch-draw wall time
    /// (`samplecf_progressive_draw_ns`).
    draw_ns: Histogram,
    /// Per-checkpoint measure wall time — folding in the batch and pricing
    /// the sample, its strata and the variance estimate: cell-cost sums and
    /// arithmetic for a cell-additive scheme, a sorted delta merged into the
    /// key order and walks for any other
    /// (`samplecf_progressive_measure_ns`).
    measure_ns: Histogram,
    /// Checkpoints with a design variance
    /// (`samplecf_progressive_variance_total{source="design"}`).
    variance_design: Counter,
    /// Per-checkpoint wall time pricing the design variance from the summed
    /// moments, on the cell-sums route — a part of the `measure_ns`
    /// interval (`samplecf_progressive_variance_ns`).
    variance_ns: Histogram,
    /// Checkpoints priced from per-column cell-cost sums
    /// (`samplecf_progressive_pricing_total{route="cell_sums"}`).
    pricing_cell_sums: Counter,
    /// Checkpoints priced by a walk of the key order
    /// (`samplecf_progressive_pricing_total{route="tree"}`; the label
    /// predates the walk).
    pricing_tree: Counter,
}

impl ProgressiveMetrics {
    /// Register the progressive instrument set in `registry`.
    #[must_use]
    pub fn register_in(registry: &MetricsRegistry) -> Self {
        ProgressiveMetrics {
            runs: registry.counter("samplecf_progressive_runs_total"),
            checkpoints: registry.counter("samplecf_progressive_checkpoints_total"),
            early_stops: registry.counter("samplecf_progressive_early_stops_total"),
            pages_read: registry.counter("samplecf_progressive_pages_read_total"),
            draw_ns: registry.histogram("samplecf_progressive_draw_ns"),
            measure_ns: registry.histogram("samplecf_progressive_measure_ns"),
            variance_design: registry
                .counter("samplecf_progressive_variance_total{source=\"design\"}"),
            variance_ns: registry.histogram("samplecf_progressive_variance_ns"),
            pricing_cell_sums: registry
                .counter("samplecf_progressive_pricing_total{route=\"cell_sums\"}"),
            pricing_tree: registry.counter("samplecf_progressive_pricing_total{route=\"tree\"}"),
        }
    }
}

/// Configuration of the progressive run: the accuracy target and the batch
/// schedule.  The sampler's own fraction (or reservoir capacity) acts as
/// the page/row budget cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveConfig {
    /// Stop once the Chebyshev CI's half-width is at most this fraction of
    /// the estimate (`half_width / cf ≤ target_error`).  `0.0` disables
    /// early stopping: the run always consumes the whole stream.
    pub target_error: f64,
    /// Confidence level `1 − δ` of the interval (default 0.95).
    pub confidence: f64,
    /// Batch schedule: first-checkpoint fraction and geometric growth.
    pub schedule: BatchSchedule,
}

impl Default for ProgressiveConfig {
    fn default() -> Self {
        ProgressiveConfig {
            target_error: 0.1,
            confidence: 0.95,
            schedule: BatchSchedule::default(),
        }
    }
}

impl ProgressiveConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> CoreResult<()> {
        if !(self.confidence > 0.0 && self.confidence <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "confidence must be in (0, 1], got {}",
                self.confidence
            )));
        }
        if self.target_error < 0.0 || !self.target_error.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "target error must be a finite fraction >= 0, got {}",
                self.target_error
            )));
        }
        Ok(())
    }
}

/// One measurement checkpoint of a progressive run.
#[derive(Debug, Clone, PartialEq)]
pub struct CfCheckpoint {
    /// 1-based number of batches consumed so far.
    pub batch: usize,
    /// Rows measured at this checkpoint (duplicates counted).
    pub rows: usize,
    /// Fraction of the source's rows the sample has reached.
    pub fraction: f64,
    /// The CF estimate at this checkpoint.
    pub cf: f64,
    /// Design standard error of the estimate: only for a cell-additive
    /// scheme, from at least [`theory::MIN_DESIGN_UNITS`] units.
    pub std_error: Option<f64>,
    /// CI half-width at the configured confidence: the Chebyshev `z` times
    /// `std_error`, plus the slack of partial last leaves
    /// ([`theory::design_variance`]).
    pub half_width: Option<f64>,
    /// Lower CI bound (clamped at 0).
    pub ci_low: Option<f64>,
    /// Upper CI bound.
    pub ci_high: Option<f64>,
    /// Theorem 1's worst-case stddev bound `1/(2√r)` for this sample size —
    /// what the stopping rule would have to assume without measuring.
    pub ns_stddev_bound: f64,
    /// Cumulative physical pages read from the source.
    pub pages_read: u64,
    /// What produced `std_error`: `"design"`, the sampling design's
    /// variance of a sum of cell costs.  `None` with no interval — a walked
    /// scheme, or too few units yet.
    pub variance_source: Option<&'static str>,
    /// Rows drawn per stratum so far, for stratified runs (`None`
    /// otherwise).
    pub strata_rows: Option<Vec<usize>>,
}

impl CfCheckpoint {
    /// Relative half-width (`half_width / cf`), the stopping rule's metric.
    #[must_use]
    pub fn relative_half_width(&self) -> Option<f64> {
        match self.half_width {
            Some(hw) if self.cf > 0.0 => Some(hw / self.cf),
            _ => None,
        }
    }
}

/// The result of a progressive run: the final measurement plus the full
/// checkpoint trajectory and its accounting.
#[derive(Debug, Clone)]
pub struct ProgressiveReport {
    /// The final measurement, identical in shape to what
    /// [`SampleCf::estimate`](crate::estimator::SampleCf::estimate) returns.
    pub measurement: CfMeasurement,
    /// Every checkpoint, in order.
    pub checkpoints: Vec<CfCheckpoint>,
    /// Whether the run stopped before consuming the whole stream.
    pub stopped_early: bool,
    /// Whether the accuracy target was met (false when the cap hit first or
    /// early stopping was disabled).
    pub target_met: bool,
    /// Total physical pages read from the source.
    pub pages_read: u64,
    /// The RNG seed of the run.
    pub seed: u64,
    /// The configured relative-error target.
    pub target_error: f64,
    /// The configured confidence level.
    pub confidence: f64,
    /// Rows in the source table.
    pub source_rows: usize,
    /// Pages in the source table.
    pub source_pages: usize,
}

impl ProgressiveReport {
    /// The last checkpoint (absent only for an empty source).
    #[must_use]
    pub fn final_checkpoint(&self) -> Option<&CfCheckpoint> {
        self.checkpoints.last()
    }

    /// The final confidence interval, if the run measured variance.
    #[must_use]
    pub fn ci(&self) -> Option<(f64, f64)> {
        let last = self.final_checkpoint()?;
        Some((last.ci_low?, last.ci_high?))
    }
}

/// The progressive SampleCF estimator.
#[derive(Debug, Clone)]
pub struct ProgressiveCf {
    sampler: SamplerKind,
    builder: IndexBuilder,
    seed: u64,
    config: ProgressiveConfig,
    metrics: ProgressiveMetrics,
}

impl ProgressiveCf {
    /// Create a progressive estimator.  The sampler's fraction (or
    /// reservoir capacity) is the budget cap; `config` sets the accuracy
    /// target and the batch schedule.
    #[must_use]
    pub fn new(sampler: SamplerKind, config: ProgressiveConfig) -> Self {
        ProgressiveCf {
            sampler,
            builder: IndexBuilder::new(),
            seed: 0,
            config,
            metrics: ProgressiveMetrics::default(),
        }
    }

    /// The degenerate single-checkpoint configuration: one batch at the
    /// sampler's full fraction, no early stopping.  This is what
    /// [`SampleCf::estimate`](crate::estimator::SampleCf::estimate) is, for
    /// every sampler kind.
    #[must_use]
    pub fn one_checkpoint(sampler: SamplerKind) -> Self {
        ProgressiveCf::new(
            sampler,
            ProgressiveConfig {
                target_error: 0.0,
                confidence: 0.95,
                schedule: BatchSchedule::one_shot(),
            },
        )
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record run/checkpoint instruments into `metrics` (see
    /// [`ProgressiveMetrics::register_in`]).  The default is a disabled set
    /// that costs one branch per record; reports are byte-identical either
    /// way.
    #[must_use]
    pub fn metrics(mut self, metrics: ProgressiveMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Size the checkpoint indexes as `builder` would load them (page size,
    /// fill factor).  Its thread count has no effect: no checkpoint loads a
    /// tree.
    #[must_use]
    pub fn builder(mut self, builder: IndexBuilder) -> Self {
        self.builder = builder;
        self
    }

    /// Has no effect: a run sums, sorts and walks on the calling thread,
    /// whatever the thread count.  Kept for callers that still set it
    /// (perfbench).
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// The configured sampler kind.
    #[must_use]
    pub fn sampler(&self) -> SamplerKind {
        self.sampler
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> ProgressiveConfig {
        self.config
    }

    /// Run the progressive estimation loop over `source`.
    ///
    /// For a stratified sampler the checkpoint machinery changes in three
    /// ways: the CF estimate is the weighted per-stratum combination
    /// `Σ W_s·CF_s` ([`weighted_combine`](crate::estimator::weighted_combine)),
    /// the design variance sums each stratum's with the same weights, and
    /// after every checkpoint of a cell-additive scheme each stratum's
    /// measured spread of row costs is fed back to the stream so Neyman
    /// allocation steers the remaining budget toward the noisy strata.  A
    /// walked scheme has no such spread: its stream keeps its initial split.
    pub fn run(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<ProgressiveReport> {
        self.config.validate()?;
        let z = theory::chebyshev_z(self.config.confidence);
        let design = Design::of(self.sampler, source);
        let counting = CountingSource::new(source);
        let mut stream = self.sampler.stream(self.config.schedule)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let is_stratified = matches!(self.sampler, SamplerKind::Stratified { .. });
        let label = self.sampler.label();

        let started = Instant::now();
        let (mut rows, mut batches) = (0, 0);
        let mut measure = SampleMeasure::stream(source.schema(), spec, &scheme, &self.builder)?;
        // One count per checkpoint, under the route the scheme picked.
        let priced = match scheme.cell_costs() {
            Some(_) => &self.metrics.pricing_cell_sums,
            None => &self.metrics.pricing_tree,
        };
        let mut checkpoints: Vec<CfCheckpoint> = Vec::new();
        let mut last: Option<CfMeasurement> = None;
        let mut target_met = false;
        // Stratified bookkeeping, bound on the first batch: the population
        // weights and draw counts.
        let mut strata_weights: Vec<f64> = Vec::new();
        let mut strata_rows: Vec<usize> = Vec::new();

        self.metrics.runs.inc();
        loop {
            let batch = {
                let _draw = Timer::start(&self.metrics.draw_ns);
                stream.next_records(&counting, &mut rng)?
            };
            if batch.is_empty() {
                break;
            }
            let measure_timer = Timer::start(&self.metrics.measure_ns);
            let tags: &[u32] = if is_stratified {
                stream
                    .batch_strata()
                    .expect("stratified streams tag their batches")
            } else {
                &[]
            };
            rows += batch.len();
            batches += 1;
            if is_stratified {
                if strata_weights.is_empty() {
                    strata_weights = stream
                        .strata_weights()
                        .expect("a stratified stream that drew rows is bound");
                    strata_rows = vec![0; strata_weights.len()];
                }
                tags.iter().for_each(|&t| strata_rows[t as usize] += 1);
            }
            // The batch is kept until the checkpoint is priced.  (Freeing it
            // first lets the dictionary kernels' long-lived scratch table
            // land in its hole rather than atop the heap, and glibc then
            // trims and re-faults ~2 MB per checkpoint.)
            measure.fold(&batch, tags, strata_weights.len())?;
            measure.order()?;
            // Stratified draws estimate CF as Σ W_s·CF_s over per-stratum
            // sub-indexes — the combination a held sample is measured with.
            // Unstratified draws have no weights, hence no strata to combine.
            let current = (measure.measurements(&strata_weights, &label)?.pop())
                .expect("one measurement per scheme");
            priced.inc();
            let cf = current.cf;

            // The design variance, where the CF is a sum of cell costs.
            let sums = measure.design_sums(design.unit);
            let interval = sums.as_ref().and_then(|sums| {
                let _variance = Timer::start(&self.metrics.variance_ns);
                let weights = if is_stratified {
                    &strata_weights[..]
                } else {
                    &[1.0]
                };
                let (entry_bytes, leaf_header) = (sums.entry_bytes, sums.leaf_header);
                theory::design_variance(design, weights, &sums.strata, entry_bytes, leaf_header)
            });
            drop(measure_timer);
            if interval.is_some() {
                self.metrics.variance_design.inc();
            }
            self.metrics.checkpoints.inc();
            let std_error = interval.map(|(variance, _)| variance.sqrt());
            let half_width = interval.map(|(variance, slack)| z * variance.sqrt() + slack);

            let checkpoint = CfCheckpoint {
                batch: batches,
                rows,
                fraction: if source.num_rows() == 0 {
                    0.0
                } else {
                    rows as f64 / source.num_rows() as f64
                },
                cf,
                std_error,
                half_width,
                ci_low: half_width.map(|hw| (cf - hw).max(0.0)),
                ci_high: half_width.map(|hw| cf + hw),
                ns_stddev_bound: theory::ns_stddev_bound_for_sample(rows),
                pages_read: counting.pages_read(),
                variance_source: interval.map(|_| "design"),
                strata_rows: is_stratified.then(|| strata_rows.clone()),
            };
            let stop = self.config.target_error > 0.0
                && checkpoint
                    .relative_half_width()
                    .is_some_and(|rel| rel <= self.config.target_error);
            checkpoints.push(checkpoint);
            last = Some(current);
            if let Some(sums) = sums.as_ref().filter(|_| is_stratified) {
                // Feed each stratum's measured spread of row costs back so a
                // Neyman stream re-splits the remaining budget.  Strata still
                // below two draws report NaN, which the stream ignores
                // (keeping their initial weight, so they aren't starved on
                // no evidence).
                let spread = |stratum| theory::unit_ratio_variance(stratum, sums.entry_bytes);
                let sds: Vec<f64> = (sums.strata.iter())
                    .map(|stratum| spread(stratum).map_or(f64::NAN, f64::sqrt))
                    .collect();
                stream.update_stratum_variances(&sds);
            }
            if stop {
                target_met = true;
                break;
            }
        }

        // Final measurement — for an empty source this measures the empty
        // sample, exactly like the one-shot path.
        let mut measurement = match last {
            Some(last) => last,
            None => (measure.measurements(&strata_weights, &label)?.pop())
                .expect("one measurement per scheme"),
        };
        measurement.elapsed = started.elapsed();
        let stopped_early = !stream.exhausted() && !checkpoints.is_empty();
        self.metrics.pages_read.add(counting.pages_read());
        if stopped_early {
            self.metrics.early_stops.inc();
        }
        Ok(ProgressiveReport {
            measurement,
            checkpoints,
            stopped_early,
            target_met,
            pages_read: counting.pages_read(),
            seed: self.seed,
            target_error: self.config.target_error,
            confidence: self.config.confidence,
            source_rows: source.num_rows(),
            source_pages: source.num_pages(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{ExactCf, SampleCf};
    use crate::metrics::ratio_error;
    use samplecf_compression::NullSuppression;
    use samplecf_datagen::presets;
    use samplecf_index::IndexSpec;
    use samplecf_storage::Table;

    fn spec() -> IndexSpec {
        IndexSpec::nonclustered("idx_a", ["a"]).unwrap()
    }

    /// All-equal column: the NS estimate has zero variance.
    fn constant_table(n: usize) -> Table {
        presets::single_char_table("const", n, 24, 1, 8, 3)
            .generate()
            .unwrap()
            .table
    }

    fn spread_table(n: usize) -> Table {
        presets::variable_length_table("spread", n, 40, n / 10, 4, 36, 5)
            .generate()
            .unwrap()
            .table
    }

    #[test]
    fn adaptive_run_stops_early_on_constant_data() {
        let t = constant_table(20_000);
        let report = ProgressiveCf::new(
            SamplerKind::UniformWithReplacement(0.1),
            ProgressiveConfig {
                target_error: 0.1,
                confidence: 0.95,
                schedule: BatchSchedule::default(),
            },
        )
        .seed(1)
        .run(&t, &spec(), &NullSuppression)
        .unwrap();
        assert!(report.target_met, "constant data must meet any target");
        assert!(report.stopped_early);
        let last = report.final_checkpoint().unwrap();
        assert!(
            last.rows < 2_000,
            "stopped at {} rows, expected far fewer than the 10% cap",
            last.rows
        );
        // The estimate is essentially exact on constant data (up to
        // per-page chunk overheads).
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        assert!(ratio_error(report.measurement.cf, exact.cf) < 1.01);
        // Checkpoints are monotone in rows and pages.
        for w in report.checkpoints.windows(2) {
            assert!(w[1].rows > w[0].rows);
            assert!(w[1].pages_read >= w[0].pages_read);
        }
    }

    #[test]
    fn capped_run_equals_the_one_shot_estimate() {
        // target_error = 0: run to the fraction cap and match SampleCf
        // byte-for-byte (the multi-checkpoint side of the parity the
        // proptests cover exhaustively).
        let t = spread_table(8_000);
        for kind in [
            SamplerKind::UniformWithReplacement(0.08),
            SamplerKind::Bernoulli(0.08),
            SamplerKind::Block(0.1),
            SamplerKind::Reservoir(400),
        ] {
            let progressive = ProgressiveCf::new(
                kind,
                ProgressiveConfig {
                    target_error: 0.0,
                    ..ProgressiveConfig::default()
                },
            )
            .seed(7)
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
            let oneshot = SampleCf::new(kind)
                .seed(7)
                .estimate(&t, &spec(), &NullSuppression)
                .unwrap();
            assert!(!progressive.stopped_early);
            assert!(!progressive.target_met);
            assert_eq!(progressive.measurement.cf, oneshot.cf, "{kind:?}");
            assert_eq!(progressive.measurement.data, oneshot.data);
            assert_eq!(
                progressive.measurement.report.per_column,
                oneshot.report.per_column
            );
            assert!(progressive.checkpoints.len() > 1);
        }
    }

    #[test]
    fn confidence_interval_covers_the_exact_cf_on_well_behaved_data() {
        let t = spread_table(20_000);
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        let report = ProgressiveCf::new(
            SamplerKind::UniformWithReplacement(0.2),
            ProgressiveConfig {
                target_error: 0.05,
                confidence: 0.95,
                schedule: BatchSchedule::default(),
            },
        )
        .seed(11)
        .run(&t, &spec(), &NullSuppression)
        .unwrap();
        let (lo, hi) = report.ci().expect("a multi-batch run has a CI");
        assert!(
            lo <= exact.cf && exact.cf <= hi,
            "CI [{lo}, {hi}] must cover the exact CF {}",
            exact.cf
        );
        // The design variance says much less than Theorem 1's worst case
        // here.
        let last = report.final_checkpoint().unwrap();
        assert!(last.std_error.unwrap() < last.ns_stddev_bound);
    }

    #[test]
    fn one_checkpoint_config_measures_exactly_once() {
        let t = spread_table(4_000);
        let one = |kind| {
            let report = ProgressiveCf::one_checkpoint(kind)
                .seed(3)
                .run(&t, &spec(), &NullSuppression)
                .unwrap();
            assert_eq!(report.checkpoints.len(), 1);
            assert!(!report.stopped_early);
            report.checkpoints[0].clone()
        };
        // One batch of rows is enough units for an interval...
        let rows = one(SamplerKind::UniformWithReplacement(0.05));
        assert_eq!(rows.variance_source, Some("design"));
        assert!(rows.std_error.is_some());
        // ...a page or two of a block sample is not.
        let pages = one(SamplerKind::Block(0.05));
        assert!(pages.std_error.is_none(), "too few pages for a variance");
    }

    #[test]
    fn empty_source_yields_a_neutral_measurement() {
        let t = samplecf_storage::TableBuilder::new(
            "empty",
            samplecf_storage::Schema::single_char("a", 8),
        )
        .build()
        .unwrap();
        let report = ProgressiveCf::new(
            SamplerKind::UniformWithReplacement(0.5),
            ProgressiveConfig::default(),
        )
        .run(&t, &spec(), &NullSuppression)
        .unwrap();
        assert!(report.checkpoints.is_empty());
        assert_eq!(report.measurement.cf, 1.0);
        assert_eq!(report.measurement.data.rows, 0);
        assert_eq!(report.pages_read, 0);
        assert!(!report.stopped_early);
    }

    #[test]
    fn stratified_checkpoints_use_the_design_variance() {
        use samplecf_sampling::Allocation;
        let t = spread_table(8_000);
        let report = ProgressiveCf::new(
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
            ProgressiveConfig {
                target_error: 0.0,
                ..ProgressiveConfig::default()
            },
        )
        .seed(5)
        .run(&t, &spec(), &NullSuppression)
        .unwrap();
        assert!(report.checkpoints.len() > 1);
        for cp in &report.checkpoints {
            assert_eq!(cp.variance_source, cp.std_error.map(|_| "design"));
            let rows = cp.strata_rows.as_ref().expect("stratified runs tag rows");
            assert_eq!(rows.len(), 4);
            assert_eq!(rows.iter().sum::<usize>(), cp.rows);
        }
        // The final estimate is the weighted combination and lands near the
        // exact CF.
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        assert!(ratio_error(report.measurement.cf, exact.cf) < 1.1);
        let last = report.final_checkpoint().unwrap();
        assert_eq!(last.cf, report.measurement.cf);
    }

    #[test]
    fn stratified_neyman_stops_earlier_on_clustered_data_than_uniform() {
        // The stratified claim in miniature: on a value-clustered table the
        // within-stratum CF variance collapses, so the stratified design
        // interval tightens at a fraction of the rows the pooled one needs.
        let t = presets::clustered_variable_table("clustered", 24_000, 40, 16, 9)
            .generate()
            .unwrap()
            .table;
        let config = ProgressiveConfig {
            target_error: 0.1,
            confidence: 0.95,
            schedule: BatchSchedule::new(0.005, 2.0).unwrap(),
        };
        let stratified = ProgressiveCf::new(
            SamplerKind::Stratified {
                fraction: 0.2,
                strata: 16,
                alloc: samplecf_sampling::Allocation::Neyman,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
            config,
        )
        .seed(2)
        .run(&t, &spec(), &NullSuppression)
        .unwrap();
        let uniform = ProgressiveCf::new(SamplerKind::UniformWithReplacement(0.2), config)
            .seed(2)
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
        assert!(stratified.target_met, "stratified must reach the target");
        assert!(
            stratified.pages_read < uniform.pages_read,
            "stratified read {} pages, uniform {}",
            stratified.pages_read,
            uniform.pages_read
        );
    }

    #[test]
    fn single_stratum_stratified_matches_uniform_rows_and_pages() {
        // k = 1 degenerates to uniform-wr byte-for-byte on the draw side,
        // and one stratum of weight 1 is the unstratified design: rows,
        // pages and intervals match exactly.
        use samplecf_sampling::Allocation;
        let t = spread_table(6_000);
        let config = ProgressiveConfig {
            target_error: 0.0,
            ..ProgressiveConfig::default()
        };
        let strat = ProgressiveCf::new(
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 1,
                alloc: Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
            config,
        )
        .seed(13)
        .run(&t, &spec(), &NullSuppression)
        .unwrap();
        let uni = ProgressiveCf::new(SamplerKind::UniformWithReplacement(0.1), config)
            .seed(13)
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_eq!(strat.measurement.cf, uni.measurement.cf);
        assert_eq!(strat.measurement.data, uni.measurement.data);
        assert_eq!(strat.pages_read, uni.pages_read);
        for (s, u) in strat.checkpoints.iter().zip(&uni.checkpoints) {
            assert_eq!((s.std_error, s.half_width), (u.std_error, u.half_width));
        }
    }

    /// One capped run (so every batch is drawn) with live instruments:
    /// the report, the design variance counter, the variance clock and the
    /// two checkpoint pricing route counters (cell sums, tree).
    fn instrumented(
        estimator: ProgressiveCf,
        table: &Table,
        scheme: &dyn CompressionScheme,
    ) -> (
        ProgressiveReport,
        u64,
        samplecf_obs::HistogramSnapshot,
        (u64, u64),
    ) {
        let metrics = ProgressiveMetrics::register_in(&MetricsRegistry::new());
        let report = estimator
            .metrics(metrics.clone())
            .run(table, &spec(), scheme)
            .unwrap();
        let pricing = (metrics.pricing_cell_sums.get(), metrics.pricing_tree.get());
        let design = metrics.variance_design.get();
        (report, design, metrics.variance_ns.snapshot(), pricing)
    }

    #[test]
    fn the_variance_clock_and_route_counters_say_what_priced_a_checkpoint() {
        use samplecf_compression::DictionaryCompression;
        let t = spread_table(8_000);
        let capped = |kind| {
            let config = ProgressiveConfig {
                target_error: 0.0,
                ..ProgressiveConfig::default()
            };
            ProgressiveCf::new(kind, config).seed(7)
        };
        let with_interval = |report: &ProgressiveReport| {
            let checkpoints = report.checkpoints.iter();
            checkpoints.filter(|c| c.std_error.is_some()).count()
        };

        // What the scheme declares picks the route of every checkpoint, and
        // whether it has a design variance, nothing else: every cell-sums
        // checkpoint is clocked, and counted once it has enough units.
        let block = || capped(SamplerKind::Block(0.5));
        let (report, design, clock, pricing) = instrumented(block(), &t, &NullSuppression);
        let checkpoints = report.checkpoints.len() as u64;
        assert!(checkpoints > 2);
        assert_eq!(design, with_interval(&report) as u64);
        assert!(
            design > 0 && design < checkpoints,
            "the first pages are too few"
        );
        assert_eq!(clock.count, checkpoints);
        assert_eq!(pricing, (checkpoints, 0));
        let dictionary = DictionaryCompression::default();
        let (report, design, clock, pricing) = instrumented(block(), &t, &dictionary);
        assert_eq!((design, clock.count), (0, 0));
        assert_eq!(with_interval(&report), 0, "a walked scheme has no interval");
        assert_eq!(pricing, (0, report.checkpoints.len() as u64));

        // The strata are priced as the pooled sample is.
        let stratified = || {
            capped(SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            })
        };
        let (report, design, clock, pricing) = instrumented(stratified(), &t, &NullSuppression);
        let checkpoints = report.checkpoints.len() as u64;
        assert_eq!((design, clock.count), (checkpoints, checkpoints));
        assert_eq!(pricing, (checkpoints, 0));
        let (report, design, _, pricing) = instrumented(stratified(), &t, &dictionary);
        assert_eq!(design, 0);
        assert_eq!(pricing, (0, report.checkpoints.len() as u64));

        // A one-shot estimate has its interval from its one checkpoint.
        let one_shot = ProgressiveCf::one_checkpoint(SamplerKind::Block(0.5)).seed(7);
        let (report, design, clock, pricing) = instrumented(one_shot, &t, &NullSuppression);
        assert_eq!(report.checkpoints.len(), 1);
        assert_eq!((design, clock.count, pricing), (1, 1, (1, 0)));

        // The default set is disabled — every record one branch on a `None`
        // handle — and the report does not depend on which set is carried.
        let disabled = ProgressiveMetrics::default();
        disabled.variance_ns.record(1);
        assert_eq!(disabled.variance_ns.snapshot().count, 0);
        let plain = block()
            .metrics(disabled.clone())
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
        let (live, _, _, _) = instrumented(block(), &t, &NullSuppression);
        assert_eq!(plain.checkpoints, live.checkpoints);
        assert_eq!(disabled.variance_design.get(), 0);
        assert_eq!(disabled.pricing_cell_sums.get(), 0);
        assert_eq!(disabled.variance_ns.snapshot().count, 0);
    }

    #[test]
    fn every_kind_runs_checkpoints_and_bad_configs_are_rejected() {
        // Every kind has a design: a capped run of a cell-additive scheme
        // checkpoints more than once and ends with an interval.
        let t = spread_table(4_000);
        for kind in [
            SamplerKind::UniformWithReplacement(0.1),
            SamplerKind::UniformWithoutReplacement(0.1),
            SamplerKind::Bernoulli(0.1),
            SamplerKind::Block(0.5),
            SamplerKind::Reservoir(400),
        ] {
            let report = ProgressiveCf::new(
                kind,
                ProgressiveConfig {
                    target_error: 0.0,
                    ..ProgressiveConfig::default()
                },
            )
            .seed(3)
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
            assert!(report.checkpoints.len() > 1, "{kind:?}");
            let last = report.final_checkpoint().unwrap();
            assert_eq!(last.variance_source, Some("design"), "{kind:?}");
        }
        for bad in [
            ProgressiveConfig {
                confidence: 0.0,
                ..ProgressiveConfig::default()
            },
            ProgressiveConfig {
                confidence: 1.5,
                ..ProgressiveConfig::default()
            },
            ProgressiveConfig {
                target_error: -0.1,
                ..ProgressiveConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(ProgressiveConfig::default().validate().is_ok());
    }
}
