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
//!    [`DataStats`] — all from the drawn records' bytes, no row decoded,
//! 3. the estimate's variance is jackknifed over the batches
//!    ([`grouped_jackknife_variance`]), giving a distribution-free
//!    Chebyshev confidence interval ([`theory::chebyshev_z`]),
//! 4. the run stops as soon as the CI's relative half-width drops below
//!    `target_error` — or when the sampler's fraction cap is reached.
//!
//! Every size a checkpoint takes — the pooled sample's, each stratum's,
//! each delete-one-batch sample's — goes the one route the scheme's own
//! declaration picks; no knob decides it:
//!
//! * **cell sums**, for a scheme with
//!   [`cell_costs`](CompressionScheme::cell_costs) (null suppression, none).
//!   Its size over any rows is one header per leaf plus the rows' cell
//!   costs — the per-row sums `Σ(ℓᵢ + marker)` Theorem 1 analyses — so key
//!   order cannot show.  Each batch's records are read once, unsorted, into
//!   per-column cost sums (by stratum tag for a stratified draw), and a
//!   checkpoint with `B` batches costs `O(B + strata)` arithmetic: the
//!   pooled report, each stratum's and each leave-one-out (pooled sums less
//!   the batch's) come from [`RunSizer::price`].  No run, merge, tree or
//!   walk.  The [`DataStats`] are sums too — rows, NULLs and `Σ ℓᵢ` of the
//!   first key — and `d′` counts its distinct non-NULL cells by their bytes.
//! * **tree** (the metric's label), for any other scheme: merge and walk.
//!   Each batch's records are encoded and sorted into a [`SortedRun`] and
//!   merged (never re-sorted) into the pooled run; every size is a walk of
//!   it ([`RunSizer::measure_run`]) — whole, filtered to a stratum's pages
//!   by RID, or skipping batch `i`'s entries for each of the `B − 1` older
//!   leave-one-outs (the pooled run minus a batch's run is exactly the
//!   merge of the others).  No tree is packed.  The [`DataStats`] are read
//!   off the whole walk, as [`ExactCf`](crate::estimator::ExactCf) reads
//!   them.
//!
//! Both are bit-identical to packing and measuring every tree from the
//! rows, the differential oracle.  The delete-*last*-batch estimate is
//! free: it is the previous checkpoint's CF.  No leave-one-out is priced
//! before a second checkpoint asks for a variance, so a one-checkpoint run
//! pays for none.
//!
//! On low-variance data the stop comes after a tiny fraction of the pages a
//! fixed-`f` run would read; on adversarial data the run simply continues
//! to the cap and returns exactly the fixed-`f` answer, with honest error
//! bars either way.  Prefix-stable streams make that exactness literal: a
//! progressive run that reaches its cap is byte-identical — CF, data stats
//! and pages read — to [`SampleCf`](crate::estimator::SampleCf) at the same
//! fraction and seed.

use crate::algebra::{self, MomentSketch, VarianceNode};
use crate::error::{CoreError, CoreResult};
use crate::estimator::{combine_strata, CfMeasurement, DataStats};
use crate::metrics::grouped_jackknife_variance;
use crate::theory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_compression::{CellCosts, CompressionScheme, DistinctScratch};
use samplecf_index::{
    CompressedIndexReport, FirstKeyStats, IndexBuilder, IndexSpec, RunCellCosts, RunSizer,
    SortedRun,
};
use samplecf_obs::{Counter, Histogram, MetricsRegistry, Timer};
use samplecf_sampling::{BatchSchedule, SamplerKind};
use samplecf_storage::{
    CellRef, CountingSource, DataType, PageId, Rid, RowCodec, RowRef, TableSource,
};
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
    /// Per-checkpoint measure wall time — taking in the batch and pricing
    /// the sample, its strata and the variance estimate: cell-cost sums and
    /// arithmetic for a cell-additive scheme, sorted runs, a merge and walks
    /// for any other (`samplecf_progressive_measure_ns`).
    measure_ns: Histogram,
    /// Checkpoints whose variance came from the grouped jackknife
    /// (`samplecf_progressive_variance_total{source="jackknife"}`).
    variance_jackknife: Counter,
    /// Checkpoints whose variance came from the closed-form stratified
    /// algebra (`samplecf_progressive_variance_total{source="algebra"}`).
    variance_algebra: Counter,
    /// Per-checkpoint wall time producing the variance, jackknife or
    /// algebra — a part of the `measure_ns` interval
    /// (`samplecf_progressive_variance_ns`).
    variance_ns: Histogram,
    /// Delete-one-batch estimates priced by arithmetic on per-batch cell
    /// costs (`samplecf_progressive_leave_one_out_total{route="closed_form"}`).
    leave_one_out_closed_form: Counter,
    /// Delete-one-batch estimates priced by a size-only walk of the pooled
    /// run (`samplecf_progressive_leave_one_out_total{route="walk"}`).
    leave_one_out_walk: Counter,
    /// Checkpoints priced from per-column cell-cost sums
    /// (`samplecf_progressive_pricing_total{route="cell_sums"}`).
    pricing_cell_sums: Counter,
    /// Checkpoints priced by merging sorted runs and walking them
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
            variance_jackknife: registry
                .counter("samplecf_progressive_variance_total{source=\"jackknife\"}"),
            variance_algebra: registry
                .counter("samplecf_progressive_variance_total{source=\"algebra\"}"),
            variance_ns: registry.histogram("samplecf_progressive_variance_ns"),
            leave_one_out_closed_form: registry
                .counter("samplecf_progressive_leave_one_out_total{route=\"closed_form\"}"),
            leave_one_out_walk: registry
                .counter("samplecf_progressive_leave_one_out_total{route=\"walk\"}"),
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
    /// Jackknife standard error of the estimate (needs ≥ 2 batches).
    pub std_error: Option<f64>,
    /// Chebyshev CI half-width at the configured confidence.
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
    /// Which machinery produced `std_error`: `"jackknife"` (grouped
    /// leave-one-out over batches) or `"algebra"` (the closed-form
    /// [`VarianceNode`] for stratified
    /// draws).  `None` when no variance was available yet.
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

    /// Has no effect: a run sums, merges and walks on the calling thread,
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

    /// Whether checkpoints short of the cap are supported for `sampler` —
    /// the one place that tells sampler kinds apart.  Every kind streams,
    /// but the interval and stopping rule of a checkpoint have been
    /// validated only for the four kinds progressive estimation has always
    /// run.  A Bernoulli or systematic prefix is the head of a storage-order
    /// scan, not a sample, and no interval has been validated for
    /// uniform-wor (the coverage matrix of ROADMAP item 4 decides that);
    /// those run to their cap in one checkpoint
    /// ([`one_checkpoint`](Self::one_checkpoint)) or not at all.
    pub fn supports_checkpoints(sampler: SamplerKind) -> CoreResult<()> {
        match sampler {
            SamplerKind::UniformWithReplacement(_)
            | SamplerKind::Block(_)
            | SamplerKind::Reservoir(_)
            | SamplerKind::Stratified { .. } => Ok(()),
            SamplerKind::UniformWithoutReplacement(_)
            | SamplerKind::Bernoulli(_)
            | SamplerKind::Systematic(_) => Err(CoreError::InvalidConfig(format!(
                "no confidence interval has been validated for sampler {} \
                 (progressive estimation supports uniform-wr, block, reservoir \
                 and stratified)",
                sampler.label()
            ))),
        }
    }

    /// Run the progressive estimation loop over `source`.
    ///
    /// A schedule of more than one batch requires a sampler kind that
    /// [`supports_checkpoints`](Self::supports_checkpoints); under
    /// [`BatchSchedule::one_shot`] every kind runs.
    ///
    /// For a stratified sampler the checkpoint machinery changes in three
    /// ways: the CF estimate is the weighted per-stratum combination
    /// `Σ W_s·CF_s` ([`weighted_combine`](crate::algebra::weighted_combine)),
    /// the variance comes from the closed-form
    /// [`VarianceNode::StratifiedConcat`](crate::algebra::VarianceNode)
    /// instead of the grouped jackknife, and after every checkpoint the
    /// measured per-stratum spreads are fed back to the stream so Neyman
    /// allocation steers the remaining budget toward the noisy strata.
    pub fn run(
        &self,
        source: &dyn TableSource,
        spec: &IndexSpec,
        scheme: &dyn CompressionScheme,
    ) -> CoreResult<ProgressiveReport> {
        self.config.validate()?;
        if self.config.schedule != BatchSchedule::one_shot() {
            Self::supports_checkpoints(self.sampler)?;
        }
        let codec = source.codec();
        // An index spec has at least one key column.
        let first_key = spec.key_indexes(codec.schema())?[0];
        let key_type = codec.schema().column_at(first_key).datatype;
        let z = theory::chebyshev_z(self.config.confidence);
        let counting = CountingSource::new(source);
        let mut stream = self.sampler.stream(self.config.schedule)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let is_stratified = matches!(self.sampler, SamplerKind::Stratified { .. });
        let key_width = key_type.uncompressed_width();

        let started = Instant::now();
        let mut rows = 0;
        let mut batch_sizes: Vec<usize> = Vec::new();
        let mut pooled = Pooled::new(&self.builder, codec, spec, scheme, first_key)?;
        // One count per checkpoint, under the route the scheme picked.
        let priced = match pooled.route {
            Route::CellSums { .. } => &self.metrics.pricing_cell_sums,
            Route::Tree { .. } => &self.metrics.pricing_tree,
        };
        let mut checkpoints: Vec<CfCheckpoint> = Vec::new();
        let mut last_report: Option<(CompressedIndexReport, DataStats)> = None;
        // The stratified estimator's triple from the last checkpoint
        // (weighted across strata; the pooled report alone can't supply it).
        let mut last_cf_triple: Option<(f64, f64, f64)> = None;
        let mut target_met = false;
        // Stratified bookkeeping, bound on the first batch: moment sketches
        // of the per-row NS statistic (the algebra's input and Neyman's
        // feedback signal) and draw counts.
        let mut strata_weights: Vec<f64> = Vec::new();
        let mut strata_sketches: Vec<MomentSketch> = Vec::new();
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
            let records = batch.records();
            let tags: &[u32] = if is_stratified {
                stream
                    .batch_strata()
                    .expect("stratified streams tag their batches")
            } else {
                &[]
            };
            rows += records.len();
            batch_sizes.push(records.len());
            if is_stratified {
                if strata_weights.is_empty() {
                    strata_weights = stream
                        .strata_weights()
                        .expect("a stratified stream that drew rows is bound");
                    let k = strata_weights.len();
                    strata_sketches = vec![MomentSketch::new(); k];
                    strata_rows = vec![0; k];
                }
                // Each stratum's sketch sees its rows in draw order.
                for ((_, record), &t) in records.iter().zip(tags) {
                    let cell = RowRef::new(codec, record)?.cell(first_key);
                    let statistic =
                        algebra::ns_row_statistic(cell.logical_len(&key_type)?, key_width);
                    strata_sketches[t as usize].observe(statistic);
                    strata_rows[t as usize] += 1;
                }
            }
            pooled.add(&records, tags, strata_weights.len())?;

            let (report, data) = pooled.report()?;
            priced.inc();

            // Stratified draws estimate CF as Σ W_s·CF_s over per-stratum
            // sub-indexes — the same `combine_strata` a cached sample is
            // measured with, so the two paths agree bit-for-bit.  Unstratified
            // draws have no weights, hence no strata to combine.
            let strata = (0..strata_weights.len())
                .map(|s| {
                    (strata_rows[s] > 0)
                        .then(|| pooled.stratum_report(s))
                        .transpose()
                })
                .collect::<CoreResult<Vec<_>>>()?;
            let (cf, cf_with_pointers, cf_pages) =
                combine_strata(&strata_weights, strata.iter().map(Option::as_ref))
                    .unwrap_or_else(|| (report.cf(), report.cf_with_pointers(), report.cf_pages()));

            // Estimator variance: closed-form algebra for stratified draws,
            // grouped jackknife over batches otherwise.
            let variance = if is_stratified {
                let _variance = Timer::start(&self.metrics.variance_ns);
                VarianceNode::stratified(strata_weights.clone(), strata_sketches.clone()).variance()
            } else if let Some(previous) = checkpoints.last() {
                let _variance = Timer::start(&self.metrics.variance_ns);
                // Deleting the newest batch leaves the previous checkpoint's
                // sample, whose CF is already measured.
                let mut leave_one_out = pooled.leave_one_out(&self.metrics)?;
                leave_one_out.push(previous.cf);
                grouped_jackknife_variance(cf, &leave_one_out, &batch_sizes)
            } else {
                None
            };
            drop(measure_timer);
            let variance_source = match variance {
                Some(_) if is_stratified => {
                    self.metrics.variance_algebra.inc();
                    Some("algebra")
                }
                Some(_) => {
                    self.metrics.variance_jackknife.inc();
                    Some("jackknife")
                }
                None => None,
            };
            self.metrics.checkpoints.inc();
            let std_error = variance.map(f64::sqrt);
            let half_width = std_error.map(|se| z * se);

            let checkpoint = CfCheckpoint {
                batch: batch_sizes.len(),
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
                variance_source,
                strata_rows: is_stratified.then(|| strata_rows.clone()),
            };
            let stop = self.config.target_error > 0.0
                && checkpoint
                    .relative_half_width()
                    .is_some_and(|rel| rel <= self.config.target_error);
            checkpoints.push(checkpoint);
            last_report = Some((report, data));
            if is_stratified {
                last_cf_triple = Some((cf, cf_with_pointers, cf_pages));
                // Feed the measured per-stratum spread back so a Neyman
                // stream re-splits the remaining budget.  Strata still
                // below two draws report NaN, which the stream ignores
                // (keeping their initial weight, so they aren't starved on
                // no evidence).
                let sds: Vec<f64> = strata_sketches
                    .iter()
                    .map(|m| m.sample_stddev().unwrap_or(f64::NAN))
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
        let (report, data) = match last_report {
            Some(r) => r,
            None => pooled.report()?,
        };
        let stopped_early = !stream.exhausted() && !checkpoints.is_empty();
        self.metrics.pages_read.add(counting.pages_read());
        if stopped_early {
            self.metrics.early_stops.inc();
        }
        // A stratified run's estimate is the weighted combination, not the
        // pooled report's ratio (the pooled report is still attached for
        // its per-column detail).
        let (cf, cf_with_pointers, cf_pages) = last_cf_triple
            .unwrap_or_else(|| (report.cf(), report.cf_with_pointers(), report.cf_pages()));
        let (sampler, elapsed) = (self.sampler.label(), started.elapsed());
        let measurement = CfMeasurement {
            cf,
            cf_with_pointers,
            cf_pages,
            ..CfMeasurement::of(report, sampler, data, elapsed)
        };
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

/// The [`DataStats`] of the records summed so far, read off their first key
/// cells: rows, NULLs and `Σ ℓᵢ` are sums; `d′` counts the distinct
/// non-NULL cells by their bytes.  The NULL bit decides, not the bytes: a
/// NULL is stored as zeros, the bytes of `Int32`'s `i32::MIN`.
struct CellStats {
    /// The first key's schema position and type.
    column: usize,
    datatype: DataType,
    rows: usize,
    nulls: usize,
    logical_len_sum: usize,
    /// Every distinct cell once, in order of first sight.
    cells: Vec<u8>,
    /// The cells' numbers, by their bytes.
    distinct: DistinctScratch,
    /// Cells `distinct` holds before it is re-sized.
    capacity: usize,
}

impl CellStats {
    fn new(column: usize, datatype: DataType) -> Self {
        let capacity = 64;
        let mut distinct = DistinctScratch::new();
        distinct.reset(capacity);
        CellStats {
            column,
            datatype,
            rows: 0,
            nulls: 0,
            logical_len_sum: 0,
            cells: Vec::new(),
            distinct,
            capacity,
        }
    }

    /// Fold in the first key cells of `records`, heap records of `codec`.
    fn add(&mut self, codec: &RowCodec, records: &[(Rid, &[u8])]) -> CoreResult<()> {
        let width = self.datatype.uncompressed_width();
        for (_, record) in records {
            let cell = RowRef::new(codec, record)?.cell(self.column);
            self.rows += 1;
            if cell.is_null() {
                self.nulls += 1;
                continue;
            }
            self.logical_len_sum += cell.logical_len(&self.datatype)?;
            let cells = &self.cells;
            let held =
                |number: u64| CellRef::new(false, &cells[number as usize * width..][..width]);
            if self.distinct.len() == self.capacity {
                // Full: re-size, and put back what it held.
                self.capacity *= 2;
                self.distinct.reset(self.capacity);
                for (number, cell) in cells.chunks_exact(width).enumerate() {
                    self.distinct
                        .insert(CellRef::new(false, cell), number as u64, held);
                }
            }
            let number = self.distinct.len() as u64;
            if self.distinct.insert(cell, number, held) {
                self.cells.extend_from_slice(cell.bytes());
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> DataStats {
        DataStats {
            rows: self.rows,
            distinct_first_key: self.distinct.len(),
            sum_logical_len_first_key: self.logical_len_sum,
            null_first_key: self.nulls,
        }
    }
}

/// A run's sample as its checkpoints price it: what is kept of the batches
/// drawn so far — pooled, per batch (unstratified runs, for the jackknife)
/// and per stratum — by the route the scheme's own declaration picks (see
/// the [module docs](self)).
struct Pooled<'a> {
    codec: &'a RowCodec,
    spec: &'a IndexSpec,
    scheme: &'a dyn CompressionScheme,
    sizer: RunSizer<'a>,
    route: Route,
}

/// What [`Pooled`] keeps of the batches.
enum Route {
    /// A scheme with [`cell_costs`](CompressionScheme::cell_costs): the
    /// records' cell costs and first key statistics, summed unsorted.  No
    /// entry is kept.
    CellSums {
        costs: CellCosts,
        pooled: RunCellCosts,
        batches: Vec<RunCellCosts>,
        strata: Vec<RunCellCosts>,
        stats: CellStats,
    },
    /// Any other scheme: sorted runs — the pooled one merged, never
    /// re-sorted — walked, whole or in part.
    Tree {
        merged: SortedRun,
        batches: Vec<SortedRun>,
        /// Per stratum, the first and last page its drawn rows lie on.
        /// Strata are contiguous page ranges
        /// ([`Strata`](samplecf_sampling::Strata)), so these spans are
        /// disjoint and an entry's RID page names its stratum.
        stratum_pages: Vec<(PageId, PageId)>,
    },
}

impl<'a> Pooled<'a> {
    /// `first_key` is the spec's first key column in `codec`'s schema.
    fn new(
        builder: &IndexBuilder,
        codec: &'a RowCodec,
        spec: &'a IndexSpec,
        scheme: &'a dyn CompressionScheme,
        first_key: usize,
    ) -> CoreResult<Self> {
        let schema = codec.schema();
        let sizer = builder.sizer(schema, spec)?;
        let route = match scheme.cell_costs() {
            Some(costs) => Route::CellSums {
                costs,
                pooled: sizer.empty_cell_costs(),
                batches: Vec::new(),
                strata: Vec::new(),
                stats: CellStats::new(first_key, schema.column_at(first_key).datatype),
            },
            None => Route::Tree {
                merged: SortedRun::new(),
                batches: Vec::new(),
                stratum_pages: Vec::new(),
            },
        };
        Ok(Pooled {
            codec,
            spec,
            scheme,
            sizer,
            route,
        })
    }

    /// Take in one batch's records: `tags` are their strata, of `strata` —
    /// both empty for an unstratified run.  The caller keeps the records
    /// until the checkpoint is priced.  (Freeing them first lets the
    /// dictionary kernels' long-lived scratch table land in their hole
    /// rather than atop the heap, and glibc then trims and re-faults ~2 MB
    /// per checkpoint.)
    fn add(&mut self, records: &[(Rid, &[u8])], tags: &[u32], strata: usize) -> CoreResult<()> {
        let sizer = &self.sizer;
        match &mut self.route {
            Route::CellSums {
                costs,
                pooled,
                batches,
                strata: sums,
                stats,
            } => {
                stats.add(self.codec, records)?;
                if tags.is_empty() {
                    let mut sum = sizer.empty_cell_costs();
                    sizer.add_cell_costs(records, costs, std::slice::from_mut(&mut sum), |_| 0)?;
                    pooled.merge(&sum);
                    batches.push(sum);
                } else {
                    sums.resize(strata, sizer.empty_cell_costs());
                    sizer.add_cell_costs(records, costs, sums, |i| tags[i] as usize)?;
                    *pooled = sizer.empty_cell_costs();
                    sums.iter().for_each(|sum| pooled.merge(sum));
                }
            }
            Route::Tree {
                merged,
                batches,
                stratum_pages,
            } => {
                let run = SortedRun::from_records(self.codec.schema(), records, self.spec)?;
                *merged = std::mem::take(merged).into_merged(&run);
                if tags.is_empty() {
                    batches.push(run);
                }
                stratum_pages.resize(strata, (PageId::MAX, 0));
                for ((rid, _), &t) in records.iter().zip(tags) {
                    let (first, last) = &mut stratum_pages[t as usize];
                    (*first, *last) = ((*first).min(rid.page), (*last).max(rid.page));
                }
            }
        }
        Ok(())
    }

    /// The report of the index over the pooled sample, and the sample's
    /// [`DataStats`].
    fn report(&self) -> CoreResult<(CompressedIndexReport, DataStats)> {
        match &self.route {
            Route::CellSums {
                costs,
                pooled,
                stats,
                ..
            } => {
                let report = self.sizer.price(self.scheme, costs, pooled, None)?;
                Ok((report, stats.snapshot()))
            }
            Route::Tree { merged, .. } => {
                let (report, first_key) = self.walk(merged, None, |_| true)?;
                Ok((report, DataStats::off_the_order(merged.len(), first_key)))
            }
        }
    }

    /// The report of the index over stratum `s`'s rows.
    fn stratum_report(&self, s: usize) -> CoreResult<CompressedIndexReport> {
        match &self.route {
            Route::CellSums { costs, strata, .. } => {
                Ok(self.sizer.price(self.scheme, costs, &strata[s], None)?)
            }
            Route::Tree {
                merged,
                stratum_pages,
                ..
            } => {
                let (first, last) = stratum_pages[s];
                let walked = self.walk(merged, None, |rid| (first..=last).contains(&rid.page))?;
                Ok(walked.0)
            }
        }
    }

    /// The report of the index over `run`'s entries, less `excluded`'s,
    /// that `keep` admits, and their first key statistics
    /// ([`RunSizer::measure_run`]).
    fn walk(
        &self,
        run: &SortedRun,
        excluded: Option<&SortedRun>,
        keep: impl Fn(Rid) -> bool,
    ) -> CoreResult<(CompressedIndexReport, FirstKeyStats)> {
        let (mut reports, first_key) =
            (self.sizer).measure_run(run, excluded, keep, &[self.scheme])?;
        Ok((reports.pop().expect("one report per scheme"), first_key))
    }

    /// The CFs of the samples that leave out one of the older batches
    /// (every batch but the newest), in batch order, priced without
    /// building their trees.
    ///
    /// From cell sums each is [`RunSizer::price`] of the pooled sums minus
    /// the batch's.  On the tree route, one walk of the pooled run per
    /// left-out batch, skipping its entries.
    fn leave_one_out(&self, metrics: &ProgressiveMetrics) -> CoreResult<Vec<f64>> {
        match &self.route {
            Route::CellSums {
                costs,
                pooled,
                batches,
                ..
            } => {
                let older = &batches[..batches.len() - 1];
                metrics.leave_one_out_closed_form.add(older.len() as u64);
                let price = |batch| self.sizer.price(self.scheme, costs, pooled, Some(batch));
                (older.iter()).map(|batch| Ok(price(batch)?.cf())).collect()
            }
            Route::Tree {
                merged, batches, ..
            } => {
                let older = &batches[..batches.len() - 1];
                metrics.leave_one_out_walk.add(older.len() as u64);
                (older.iter())
                    .map(|batch| Ok(self.walk(merged, Some(batch), |_| true)?.0.cf()))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{ExactCf, SampleCf};
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
        assert!(report.measurement.ratio_error_vs(&exact) < 1.01);
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
        // The jackknife says much less than Theorem 1's worst case here.
        let last = report.final_checkpoint().unwrap();
        assert!(last.std_error.unwrap() < last.ns_stddev_bound);
    }

    #[test]
    fn one_checkpoint_config_measures_exactly_once() {
        let t = spread_table(4_000);
        let report = ProgressiveCf::one_checkpoint(SamplerKind::Block(0.05))
            .seed(3)
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
        assert_eq!(report.checkpoints.len(), 1);
        let only = &report.checkpoints[0];
        assert!(only.std_error.is_none(), "one batch has no variance info");
        assert!(!report.stopped_early);
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
    fn stratified_checkpoints_use_the_algebra_variance() {
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
            assert_eq!(cp.variance_source, cp.std_error.map(|_| "algebra"));
            let rows = cp.strata_rows.as_ref().expect("stratified runs tag rows");
            assert_eq!(rows.len(), 4);
            assert_eq!(rows.iter().sum::<usize>(), cp.rows);
        }
        // The final estimate is the weighted combination and lands near the
        // exact CF.
        let exact = ExactCf::new()
            .compute(&t, &spec(), &NullSuppression)
            .unwrap();
        assert!(report.measurement.ratio_error_vs(&exact) < 1.1);
        let last = report.final_checkpoint().unwrap();
        assert_eq!(last.cf, report.measurement.cf);
    }

    #[test]
    fn stratified_neyman_stops_earlier_on_clustered_data_than_uniform() {
        // The tentpole claim in miniature: on a value-clustered table the
        // within-stratum CF variance collapses, so the algebra CI tightens
        // at a fraction of the rows the pooled jackknife needs.
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
        // k = 1 degenerates to uniform-wr byte-for-byte on the draw side;
        // the estimate side differs only in bookkeeping (algebra CI over
        // one stratum), so rows and pages must match exactly.
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
    }

    /// One capped run (so every batch is drawn) with live instruments:
    /// the report, the two leave-one-out route counters (closed form, walk),
    /// the variance clock and the two checkpoint pricing route counters
    /// (cell sums, tree).
    fn instrumented(
        estimator: ProgressiveCf,
        table: &Table,
        scheme: &dyn CompressionScheme,
    ) -> (
        ProgressiveReport,
        (u64, u64),
        samplecf_obs::HistogramSnapshot,
        (u64, u64),
    ) {
        let metrics = ProgressiveMetrics::register_in(&MetricsRegistry::new());
        let report = estimator
            .metrics(metrics.clone())
            .run(table, &spec(), scheme)
            .unwrap();
        let routes = (
            metrics.leave_one_out_closed_form.get(),
            metrics.leave_one_out_walk.get(),
        );
        let pricing = (metrics.pricing_cell_sums.get(), metrics.pricing_tree.get());
        (report, routes, metrics.variance_ns.snapshot(), pricing)
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
        let block = || capped(SamplerKind::Block(0.1));
        // B batches: checkpoint b > 1 prices b − 1 leave-one-outs.
        let jackknifed = |report: &ProgressiveReport| {
            let b = report.checkpoints.len() as u64;
            assert!(b > 2);
            (b - 1, b * (b - 1) / 2)
        };

        // What the scheme declares picks the route of every checkpoint and
        // every leave-one-out, nothing else.
        let (report, routes, clock, pricing) = instrumented(block(), &t, &NullSuppression);
        let (variances, leave_one_outs) = jackknifed(&report);
        assert_eq!(routes, (leave_one_outs, 0));
        assert_eq!(clock.count, variances);
        assert_eq!(pricing, (variances + 1, 0));
        let dictionary = DictionaryCompression::default();
        let (report, routes, clock, pricing) = instrumented(block(), &t, &dictionary);
        let (variances, leave_one_outs) = jackknifed(&report);
        assert_eq!(routes, (0, leave_one_outs));
        assert_eq!(clock.count, variances);
        assert_eq!(pricing, (0, variances + 1));

        // The stratified algebra prices no delete-one-batch sample, and a
        // variance at every checkpoint; the strata are priced as the pooled
        // sample is.
        let stratified = || {
            capped(SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            })
        };
        let (report, routes, clock, pricing) = instrumented(stratified(), &t, &NullSuppression);
        let checkpoints = report.checkpoints.len() as u64;
        assert_eq!(routes, (0, 0));
        assert_eq!(clock.count, checkpoints);
        assert_eq!(pricing, (checkpoints, 0));
        let (report, _, _, pricing) = instrumented(stratified(), &t, &dictionary);
        assert_eq!(pricing, (0, report.checkpoints.len() as u64));

        // One checkpoint asks for no variance: no leave-one-out is priced,
        // so a one-shot estimate pays only for its one checkpoint.
        let one_shot = ProgressiveCf::one_checkpoint(SamplerKind::Block(0.1)).seed(7);
        let (report, routes, clock, pricing) = instrumented(one_shot, &t, &NullSuppression);
        assert_eq!(report.checkpoints.len(), 1);
        assert_eq!((routes, clock.count, pricing), ((0, 0), 0, (1, 0)));

        // The default set is disabled — every record one branch on a `None`
        // handle — and the report does not depend on which set is carried.
        let disabled = ProgressiveMetrics::default();
        assert!(!disabled.variance_ns.is_enabled());
        let plain = block()
            .metrics(disabled.clone())
            .run(&t, &spec(), &NullSuppression)
            .unwrap();
        let (live, _, _, _) = instrumented(block(), &t, &NullSuppression);
        assert_eq!(plain.checkpoints, live.checkpoints);
        assert_eq!(disabled.leave_one_out_closed_form.get(), 0);
        assert_eq!(disabled.pricing_cell_sums.get(), 0);
        assert_eq!(disabled.variance_ns.snapshot().count, 0);
    }

    #[test]
    fn non_streaming_kinds_and_bad_configs_are_rejected() {
        let t = spread_table(1_000);
        for kind in [
            SamplerKind::UniformWithoutReplacement(0.1),
            SamplerKind::Bernoulli(0.1),
            SamplerKind::Systematic(0.1),
        ] {
            // Checkpoints short of the cap are refused...
            let err = ProgressiveCf::new(kind, ProgressiveConfig::default())
                .run(&t, &spec(), &NullSuppression)
                .unwrap_err();
            assert!(err.to_string().contains("no confidence interval"), "{err}");
            assert_eq!(ProgressiveCf::supports_checkpoints(kind), Err(err));
            // ...the one checkpoint at the cap is `SampleCf::estimate`.
            let report = ProgressiveCf::one_checkpoint(kind)
                .run(&t, &spec(), &NullSuppression)
                .unwrap();
            assert_eq!(report.checkpoints.len(), 1);
        }
        for kind in [
            SamplerKind::UniformWithReplacement(0.1),
            SamplerKind::Block(0.1),
            SamplerKind::Reservoir(50),
        ] {
            assert_eq!(ProgressiveCf::supports_checkpoints(kind), Ok(()));
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
