//! A compression-aware physical design advisor built on shared samples.
//!
//! The paper's motivation (Section I) is extending automated physical design
//! tools to reason about compression: given a storage bound, decide which
//! indexes to compress.  Such a tool evaluates *many* candidate indexes, and
//! Kimura et al. (*Compression Aware Physical Database Design*, VLDB 2011)
//! showed the cost that dominates is not estimating each candidate but
//! sampling the base data — so the winning strategy is to amortize one
//! sample across every candidate drawn from the same configuration.
//!
//! The advisor draws nothing: its caller holds the samples (the `samplecfd`
//! service in its concurrent cache, a batch tool through
//! [`MaterializedSample::draw`] over a
//! [`CountingSource`](samplecf_storage::CountingSource)) and hands
//! [`CompressionAdvisor::plan`] one entry per sample — the sample, the pages
//! its draw cost, and the candidates to price on it.  The plan then:
//!
//! 1. **Evaluates** the candidates a *key* at a time: candidates on one
//!    sample whose indexes agree in key columns (whatever their kinds and
//!    names) order that sample's entries the same way, so they share one
//!    sort, and each index kind among them one walk that sizes every one of
//!    its schemes ([`measure_sample_schemes`]) — cost per (index,
//!    compression) pair, not per sort, is what bounds a design search.  The
//!    sample keeps the order, so a later plan over it, or a later estimate,
//!    sorts nothing — or, the sample deepened since, only the new rows.
//!    Each candidate adds an analytic (I/O-free) uncompressed size from
//!    [`IndexSizeModel`].
//! 2. **Chooses** what to compress: a saving threshold first, then a greedy
//!    budget pass (largest estimated saving first) if a storage budget is
//!    set — across every sample of the plan, so one budget spans many
//!    tables (the paper's capacity-planning application).
//!
//! The output is an [`AdvisorPlan`]: per-candidate [`Recommendation`]s plus
//! plan-level accounting (samples used, pages their draws read, key orders
//! sorted and reused, wall-clock, and the page cost a naive
//! re-sample-per-candidate run would have paid).

use crate::error::{CoreError, CoreResult};
use crate::estimator::measure_sample_schemes;
use crate::measure::KeyOrderOutcome;
use samplecf_compression::CompressionScheme;
use samplecf_index::{IndexBuilder, IndexKind, IndexSizeModel, IndexSpec};
use samplecf_sampling::MaterializedSample;
use std::time::{Duration, Instant};

/// The candidates a plan prices on one held sample: each an index to
/// (potentially) build compressed and the compression scheme under
/// consideration.
pub type Candidates = [(IndexSpec, Box<dyn CompressionScheme>)];

/// The advisor's verdict for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Table name.
    pub table: String,
    /// Index name.
    pub index: String,
    /// Compression scheme evaluated.
    pub scheme: String,
    /// Uncompressed leaf-level size in bytes (analytic, exact — no I/O).
    pub uncompressed_bytes: usize,
    /// Estimated compressed leaf-level size in bytes (via SampleCF).
    pub estimated_compressed_bytes: usize,
    /// The estimated compression fraction (the paper's CF).
    pub estimated_cf: f64,
    /// Rows in the shared sample this estimate was computed from.
    pub sample_rows: usize,
    /// Index into [`AdvisorPlan::groups`] of the sample group used.
    pub group: usize,
    /// Whether the advisor recommends compressing this index.
    pub compress: bool,
}

impl Recommendation {
    /// The size this index will occupy under the recommendation.
    #[must_use]
    pub fn chosen_bytes(&self) -> usize {
        if self.compress {
            self.estimated_compressed_bytes
        } else {
            self.uncompressed_bytes
        }
    }
}

/// One held sample the plan priced candidates on: which configuration it
/// came from, how many candidates shared it, and what its draw cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleGroup {
    /// Name of the table the sample was drawn from.
    pub table: String,
    /// Label of the sampler configuration (includes the fraction).
    pub sampler: String,
    /// RNG seed the sample was drawn with.
    pub seed: u64,
    /// Number of candidates that shared this sample.
    pub candidates: usize,
    /// Rows in the sample.
    pub sample_rows: usize,
    /// Physical pages read from the source to draw the sample, as its
    /// holder reported them.
    pub pages_read: u64,
}

/// The advisor's overall output: recommendations plus the cost accounting of
/// producing them.
#[derive(Debug, Clone)]
pub struct AdvisorPlan {
    /// Per-candidate recommendations, in input order: the first sample's
    /// candidates, then the second's, and so on.
    pub recommendations: Vec<Recommendation>,
    /// One group per input sample, in input order.
    pub groups: Vec<SampleGroup>,
    /// The storage budget that was targeted, if any.
    pub budget_bytes: Option<usize>,
    /// Key orders sorted: at most one sort of a sample per distinct key
    /// columns among its candidates, none for a key whose order the sample
    /// already held — the CPU twin of [`pages_read`](Self::pages_read)
    /// against [`naive_pages_read`](Self::naive_pages_read), whose naive
    /// count is one per candidate.
    pub key_sorts: usize,
    /// Measures that grew a key order the sample held over a prefix of its
    /// rows — sorted before the sample was deepened — by sorting only the
    /// rows past it and merging them in.
    pub key_orders_merged: usize,
    /// Measures that walked a key order the sample already held over every
    /// row, sorted by an earlier request or by another index kind's measure
    /// in this plan.  With the two counts above, one per distinct (sample
    /// group, index kind, key columns).
    pub key_orders_held: usize,
    /// Total wall-clock time for the whole plan.
    pub elapsed: Duration,
}

impl AdvisorPlan {
    /// Total estimated size of all candidates under the recommendations.
    #[must_use]
    pub fn total_chosen_bytes(&self) -> usize {
        self.recommendations
            .iter()
            .map(Recommendation::chosen_bytes)
            .sum()
    }

    /// Total estimated size with nothing compressed.
    #[must_use]
    pub fn total_uncompressed_bytes(&self) -> usize {
        self.recommendations
            .iter()
            .map(|r| r.uncompressed_bytes)
            .sum()
    }

    /// Whether the recommendations fit the budget (always true when no
    /// budget was given).
    #[must_use]
    pub fn fits_budget(&self) -> bool {
        self.budget_bytes
            .is_none_or(|b| self.total_chosen_bytes() <= b)
    }

    /// Number of samples the plan priced candidates on (one per group).
    #[must_use]
    pub fn samples_drawn(&self) -> usize {
        self.groups.len()
    }

    /// Total physical pages read from the sources, across all groups.
    #[must_use]
    pub fn pages_read(&self) -> u64 {
        self.groups.iter().map(|g| g.pages_read).sum()
    }

    /// Estimated pages a naive planner that re-draws the sample for every
    /// candidate would have read: each group's cost multiplied by the number
    /// of candidates that instead shared it.
    #[must_use]
    pub fn naive_pages_read(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.pages_read * g.candidates as u64)
            .sum()
    }
}

/// Configuration of the advisor.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Minimum space saving (as a fraction of the uncompressed size)
    /// required before compressing an index is considered worthwhile — this
    /// models the CPU cost of decompression that the paper's introduction
    /// discusses.
    pub min_saving_fraction: f64,
    /// Optional storage budget in bytes.  When set, the advisor compresses
    /// greedily (largest estimated saving first) until the total fits.
    pub budget_bytes: Option<usize>,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            min_saving_fraction: 0.10,
            budget_bytes: None,
        }
    }
}

impl AdvisorConfig {
    /// Check the configuration: the saving threshold must be in [0, 1].
    pub fn validate(&self) -> CoreResult<()> {
        if !(0.0..=1.0).contains(&self.min_saving_fraction) {
            return Err(CoreError::InvalidConfig(format!(
                "min saving fraction must be in [0, 1], got {}",
                self.min_saving_fraction
            )));
        }
        Ok(())
    }
}

/// The compression advisor.
#[derive(Debug, Clone)]
pub struct CompressionAdvisor {
    config: AdvisorConfig,
}

impl CompressionAdvisor {
    /// Create an advisor with the given (validated) configuration.
    pub fn new(config: AdvisorConfig) -> CoreResult<Self> {
        config.validate()?;
        Ok(CompressionAdvisor { config })
    }

    /// Produce a plan over samples the caller already holds: one entry per
    /// sample, `(sample, draw_pages, candidates)`, where `draw_pages` is
    /// what a fresh draw of that sample costs (the unit of the plan's
    /// naive re-sample-per-candidate baseline).
    ///
    /// Every candidate is estimated from its entry's sample, so its
    /// `estimated_cf` is what [`SampleCf::estimate`](crate::SampleCf::estimate)
    /// reports for the sample's `(sampler, seed)`.  The saving threshold and
    /// the budget then apply across all entries.
    pub fn plan(
        &self,
        samples: &[(&MaterializedSample, u64, &Candidates)],
    ) -> CoreResult<AdvisorPlan> {
        let started = Instant::now();
        let candidates: Vec<Evaluated<'_>> = (samples.iter().enumerate())
            .flat_map(|(group, (_, _, candidates))| {
                candidates.iter().map(move |(spec, scheme)| Evaluated {
                    group,
                    spec,
                    scheme: scheme.as_ref(),
                })
            })
            .collect();
        let held: Vec<&MaterializedSample> = samples.iter().map(|(sample, ..)| *sample).collect();
        let (mut recommendations, outcomes) = evaluate(&candidates, &held)?;
        let count = |outcome| outcomes.iter().filter(|&&o| o == outcome).count();
        apply_saving_threshold(&mut recommendations, self.config.min_saving_fraction);
        apply_budget(&mut recommendations, self.config.budget_bytes);
        let groups = (samples.iter())
            .map(|&(sample, draw_pages, candidates)| SampleGroup {
                table: sample.source_name().to_string(),
                sampler: sample.kind().label(),
                seed: sample.seed(),
                candidates: candidates.len(),
                sample_rows: sample.len(),
                pages_read: draw_pages,
            })
            .collect();
        Ok(AdvisorPlan {
            recommendations,
            groups,
            budget_bytes: self.config.budget_bytes,
            key_sorts: count(KeyOrderOutcome::Sorted),
            key_orders_merged: count(KeyOrderOutcome::Merged),
            key_orders_held: count(KeyOrderOutcome::Held),
            elapsed: started.elapsed(),
        })
    }
}

/// Evaluate `candidates`, each against the one of `samples` its group
/// names: recommendations in `candidates`' order, and how the key orders
/// they were walked through came about.
///
/// Candidates are grouped by what decides the order of a sample's
/// entries — the sample and the key columns; *not* the whole
/// [`IndexSpec`], whose kind and name order nothing — and each such key
/// is one [`evaluate_shared`] call.
fn evaluate(
    candidates: &[Evaluated<'_>],
    samples: &[&MaterializedSample],
) -> CoreResult<(Vec<Recommendation>, Vec<KeyOrderOutcome>)> {
    type Key<'c> = (usize, &'c [String]);
    let mut keys: Vec<(Key<'_>, Vec<usize>)> = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        let key = (c.group, c.spec.key_columns());
        match keys.iter_mut().find(|(known, _)| *known == key) {
            Some((_, members)) => members.push(i),
            None => keys.push((key, vec![i])),
        }
    }
    let mut recommendations = vec![None; candidates.len()];
    let mut outcomes = Vec::new();
    for ((group, _), members) in &keys {
        let shared: Vec<Evaluated<'_>> = members.iter().map(|&i| candidates[i]).collect();
        let (evaluated, key_outcomes) = evaluate_shared(samples[*group], &shared)?;
        for (&i, recommendation) in members.iter().zip(evaluated) {
            recommendations[i] = Some(recommendation);
        }
        outcomes.extend(key_outcomes);
    }
    let in_request_order = recommendations.into_iter().flatten().collect();
    Ok((in_request_order, outcomes))
}

/// One candidate as the evaluation sees it.
#[derive(Clone, Copy)]
struct Evaluated<'c> {
    /// Number of the candidate's sample group.
    group: usize,
    spec: &'c IndexSpec,
    scheme: &'c dyn CompressionScheme,
}

/// Evaluate candidates over one key — one sample group, indexes over the
/// same key columns — against that group's already-drawn `sample`, in
/// order, with `compress` left `false` pending the decision pass; and how
/// each index kind's measure came by its key order.
///
/// Each uncompressed size comes from the analytic [`IndexSizeModel`] (no
/// I/O); the compressed sizes come from one [`measure_sample_schemes`] call
/// per index kind among the candidates — one walk sizing every scheme of
/// that kind, the kinds in turn, so that the first sorts the sample
/// (unless it already held the key's order) and the second walks the same
/// order —
/// so a candidate's `estimated_cf` equals
/// [`SampleCf::estimate`](crate::SampleCf::estimate) for the sample's
/// `(sampler, seed)`, stratified draws included, and what a
/// [`measure_sample`](crate::measure_sample) of its own would report.
fn evaluate_shared(
    sample: &MaterializedSample,
    candidates: &[Evaluated<'_>],
) -> CoreResult<(Vec<Recommendation>, Vec<KeyOrderOutcome>)> {
    let mut measurements = vec![None; candidates.len()];
    let mut outcomes = Vec::new();
    for kind in [IndexKind::NonClustered, IndexKind::Clustered] {
        let of_kind: Vec<usize> = (0..candidates.len())
            .filter(|&i| candidates[i].spec.kind() == kind)
            .collect();
        let Some(&first) = of_kind.first() else {
            continue;
        };
        let schemes: Vec<&dyn CompressionScheme> =
            of_kind.iter().map(|&i| candidates[i].scheme).collect();
        let spec = candidates[first].spec;
        let (measured, outcome) =
            measure_sample_schemes(sample, spec, &schemes, &IndexBuilder::new())?;
        for (&i, measurement) in of_kind.iter().zip(measured) {
            measurements[i] = Some(measurement);
        }
        outcomes.push(outcome);
    }
    let recommendations = (candidates.iter().zip(measurements.into_iter().flatten()))
        .map(|(c, measurement)| {
            let uncompressed = IndexSizeModel::new()
                .estimate(sample.schema(), c.spec, sample.source_rows())?
                .leaf_bytes();
            let leaf_cf = measurement.cf_with_pointers.min(1.0);
            Ok(Recommendation {
                table: sample.source_name().to_string(),
                index: c.spec.name().to_string(),
                scheme: c.scheme.name().to_string(),
                uncompressed_bytes: uncompressed,
                estimated_compressed_bytes: (uncompressed as f64 * leaf_cf).ceil() as usize,
                estimated_cf: measurement.cf,
                sample_rows: sample.len(),
                group: c.group,
                compress: false,
            })
        })
        .collect::<CoreResult<_>>()?;
    Ok((recommendations, outcomes))
}

/// Pass 1: compress whatever clears the saving threshold.
fn apply_saving_threshold(recommendations: &mut [Recommendation], min_saving_fraction: f64) {
    for r in recommendations {
        let saving = r
            .uncompressed_bytes
            .saturating_sub(r.estimated_compressed_bytes);
        let saving_fraction = if r.uncompressed_bytes == 0 {
            0.0
        } else {
            saving as f64 / r.uncompressed_bytes as f64
        };
        r.compress = saving_fraction >= min_saving_fraction;
    }
}

/// Pass 2: if a budget is set and we still do not fit, force-compress the
/// remaining candidates in order of decreasing absolute saving.
fn apply_budget(recommendations: &mut [Recommendation], budget_bytes: Option<usize>) {
    let Some(budget) = budget_bytes else {
        return;
    };
    let mut total: usize = recommendations
        .iter()
        .map(Recommendation::chosen_bytes)
        .sum();
    if total <= budget {
        return;
    }
    let mut order: Vec<usize> = (0..recommendations.len())
        .filter(|&i| !recommendations[i].compress)
        .collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse(
            recommendations[i]
                .uncompressed_bytes
                .saturating_sub(recommendations[i].estimated_compressed_bytes),
        )
    });
    for i in order {
        if total <= budget {
            break;
        }
        let saving = recommendations[i]
            .uncompressed_bytes
            .saturating_sub(recommendations[i].estimated_compressed_bytes);
        if saving == 0 {
            continue;
        }
        recommendations[i].compress = true;
        total -= saving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::SampleCf;
    use samplecf_compression::{DictionaryCompression, NullSuppression};
    use samplecf_datagen::presets;
    use samplecf_sampling::SamplerKind;
    use samplecf_storage::{CountingSource, Table};

    fn compressible_table(seed: u64) -> Table {
        // Few distinct, short values in wide columns: compresses very well.
        presets::single_char_table("compressible", 5_000, 40, 20, 6, seed)
            .generate()
            .unwrap()
            .table
    }

    fn incompressible_table(seed: u64) -> Table {
        // All-distinct values filling the whole column width.
        presets::single_char_table("incompressible", 5_000, 12, 5_000, 12, seed)
            .generate()
            .unwrap()
            .table
    }

    /// What a holder passes the plan: the sample and the pages its draw
    /// read.
    fn draw(source: &Table, kind: SamplerKind, seed: u64) -> (MaterializedSample, u64) {
        let counting = CountingSource::new(source);
        let sample = MaterializedSample::draw(&counting, kind, seed).unwrap();
        (sample, counting.pages_read())
    }

    /// A 5% uniform sample with replacement, the paper's canonical draw.
    fn uniform(source: &Table, seed: u64) -> (MaterializedSample, u64) {
        draw(source, SamplerKind::UniformWithReplacement(0.05), seed)
    }

    fn candidate(
        spec: &IndexSpec,
        scheme: impl CompressionScheme + 'static,
    ) -> (IndexSpec, Box<dyn CompressionScheme>) {
        (spec.clone(), Box::new(scheme))
    }

    fn advisor() -> CompressionAdvisor {
        CompressionAdvisor::new(AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn advisor_compresses_only_worthwhile_indexes() {
        let (good, pages_good) = uniform(&compressible_table(1), 0);
        let (bad, pages_bad) = uniform(&incompressible_table(2), 0);
        let spec_good = IndexSpec::nonclustered("idx_good", ["a"]).unwrap();
        let spec_bad = IndexSpec::nonclustered("idx_bad", ["a"]).unwrap();
        let on_good = [candidate(&spec_good, DictionaryCompression::default())];
        let on_bad = [candidate(&spec_bad, DictionaryCompression::default())];
        let plan = advisor()
            .plan(&[(&good, pages_good, &on_good), (&bad, pages_bad, &on_bad)])
            .unwrap();
        assert_eq!(plan.recommendations.len(), 2);
        assert!(
            plan.recommendations[0].compress,
            "highly compressible index should be compressed"
        );
        assert!(
            !plan.recommendations[1].compress,
            "incompressible index should be left alone"
        );
        assert!(plan.recommendations[0].estimated_cf < 0.5);
        assert!(plan.recommendations[1].estimated_cf > 0.8);
        assert!(plan.total_chosen_bytes() < plan.total_uncompressed_bytes());
        assert!(plan.fits_budget());
        // Two distinct tables, one sample each.
        assert_eq!(plan.samples_drawn(), 2);
        assert_eq!(plan.pages_read(), pages_good + pages_bad);
    }

    #[test]
    fn budget_forces_additional_compression() {
        let (good, pages_good) = uniform(&compressible_table(3), 0);
        let mid = presets::single_char_table("mid", 5_000, 24, 200, 10, 4)
            .generate()
            .unwrap()
            .table;
        let (mid, pages_mid) = uniform(&mid, 0);
        let spec_a = IndexSpec::nonclustered("idx_a", ["a"]).unwrap();
        let spec_b = IndexSpec::nonclustered("idx_b", ["a"]).unwrap();
        let on_good = [candidate(&spec_a, DictionaryCompression::default())];
        let on_mid = [candidate(&spec_b, DictionaryCompression::default())];
        let samples = [
            (&good, pages_good, &on_good[..]),
            (&mid, pages_mid, &on_mid),
        ];
        // With an absurdly high saving threshold nothing is compressed...
        let lazy = CompressionAdvisor::new(AdvisorConfig {
            min_saving_fraction: 0.99,
            ..Default::default()
        })
        .unwrap();
        let plan = lazy.plan(&samples).unwrap();
        assert!(plan.recommendations.iter().all(|r| !r.compress));

        // ...but a tight budget forces the advisor to compress anyway.
        let budget = plan.total_uncompressed_bytes() / 2;
        let constrained = CompressionAdvisor::new(AdvisorConfig {
            min_saving_fraction: 0.99,
            budget_bytes: Some(budget),
        })
        .unwrap();
        let plan = constrained.plan(&samples).unwrap();
        assert!(plan.recommendations.iter().any(|r| r.compress));
        assert_eq!(plan.budget_bytes, Some(budget));
    }

    #[test]
    fn candidates_share_one_sample_per_group() {
        let t = compressible_table(5);
        let spec_a = IndexSpec::nonclustered("idx_plain", ["a"]).unwrap();
        let spec_b = IndexSpec::clustered("idx_clustered", ["a"]).unwrap();
        // Four candidates on one table: 3 share the seed-0 sample, 1 is
        // priced on a sample of its own seed.
        let (shared, pages_shared) = uniform(&t, 0);
        let (own, pages_own) = uniform(&t, 99);
        let on_shared = [
            candidate(&spec_a, DictionaryCompression::default()),
            candidate(&spec_a, NullSuppression),
            candidate(&spec_b, DictionaryCompression::default()),
        ];
        let on_own = [candidate(&spec_b, DictionaryCompression::default())];
        let plan = advisor()
            .plan(&[
                (&shared, pages_shared, &on_shared),
                (&own, pages_own, &on_own),
            ])
            .unwrap();
        assert_eq!(plan.samples_drawn(), 2);
        assert_eq!(plan.groups[0].candidates, 3);
        assert_eq!(plan.groups[1].candidates, 1);
        assert_eq!(plan.groups[1].seed, 99);
        assert_eq!(
            (
                plan.groups[0].table.as_str(),
                plan.groups[0].sampler.as_str()
            ),
            (
                "compressible",
                SamplerKind::UniformWithReplacement(0.05).label().as_str()
            )
        );
        assert_eq!(plan.recommendations[0].group, 0);
        assert_eq!(plan.recommendations[3].group, 1);
        // Naive baseline would have drawn the first group's sample 3 times.
        assert_eq!(
            plan.naive_pages_read(),
            plan.groups[0].pages_read * 3 + plan.groups[1].pages_read
        );
    }

    #[test]
    fn shared_estimates_match_direct_estimator_runs() {
        let t = compressible_table(8);
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let kind = SamplerKind::UniformWithReplacement(0.05);
        let (sample, pages) = draw(&t, kind, 21);
        let config = AdvisorConfig {
            min_saving_fraction: 0.0,
            ..Default::default()
        };
        let plan = CompressionAdvisor::new(config)
            .unwrap()
            .plan(&[(
                &sample,
                pages,
                &[candidate(&spec, DictionaryCompression::default())],
            )])
            .unwrap();
        let direct = SampleCf::new(kind)
            .seed(21)
            .estimate(&t, &spec, &DictionaryCompression::default())
            .unwrap();
        let advised = &plan.recommendations[0];
        assert_eq!(advised.estimated_cf, direct.cf);
        assert_eq!(advised.sample_rows, direct.data.rows);
        // The sizes are a capacity plan's: the analytic leaf bytes, scaled
        // by the direct estimate's leaf-level CF — and with nothing held
        // back by a saving threshold, the plan's totals are the footprint.
        let uncompressed = IndexSizeModel::new()
            .estimate(t.schema(), &spec, t.num_rows())
            .unwrap()
            .leaf_bytes();
        let compressed = (uncompressed as f64 * direct.cf_with_pointers.min(1.0)).ceil() as usize;
        assert_eq!(advised.uncompressed_bytes, uncompressed);
        assert_eq!(advised.estimated_compressed_bytes, compressed);
        assert!(advised.compress && compressed < uncompressed);
        assert_eq!(plan.total_uncompressed_bytes(), uncompressed);
        assert_eq!(plan.total_chosen_bytes(), compressed);
    }

    #[test]
    fn stratified_plans_report_the_weighted_estimate_not_the_pooled_one() {
        // Value-clustered data, where the pooled ratio of a stratified
        // sample and the weighted per-stratum combination really differ.
        let t = presets::clustered_variable_table("clustered", 6_000, 32, 12, 5)
            .generate()
            .unwrap()
            .table;
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        for alloc in [
            samplecf_sampling::Allocation::Proportional,
            samplecf_sampling::Allocation::Neyman,
        ] {
            let sampler = SamplerKind::Stratified {
                fraction: 0.1,
                strata: 6,
                alloc,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            };
            let (sample, pages) = draw(&t, sampler, 11);
            for scheme_name in ["rle", "dictionary-paged", "null-suppression"] {
                let scheme = samplecf_compression::scheme_by_name(scheme_name).unwrap();
                let direct = SampleCf::new(sampler)
                    .seed(11)
                    .estimate(&t, &spec, scheme.as_ref())
                    .unwrap();
                let plan = advisor()
                    .plan(&[(&sample, pages, &[(spec.clone(), scheme)])])
                    .unwrap();
                assert_eq!(
                    plan.recommendations[0].estimated_cf, direct.cf,
                    "{alloc:?}/{scheme_name}"
                );
            }
        }
    }

    /// Today's grouped evaluation against yesterday's, kept here as the
    /// oracle: every candidate evaluated alone — one sort, one one-scheme
    /// [`measure_sample`](crate::measure_sample), each, on a fresh copy of
    /// the sample, which holds no key order.
    fn per_candidate_plan(
        advisor: &CompressionAdvisor,
        candidates: &Candidates,
        source: &Table,
        sample: &MaterializedSample,
    ) -> Vec<Recommendation> {
        let alone = |(spec, scheme): &(IndexSpec, Box<dyn CompressionScheme>)| {
            let sample = MaterializedSample::draw(source, sample.kind(), sample.seed()).unwrap();
            let candidate = Evaluated {
                group: 0,
                spec,
                scheme: scheme.as_ref(),
            };
            let (mut evaluated, outcomes) = evaluate_shared(&sample, &[candidate]).unwrap();
            assert_eq!(outcomes, [KeyOrderOutcome::Sorted]);
            evaluated.remove(0)
        };
        let mut recommendations: Vec<Recommendation> = candidates.iter().map(alone).collect();
        apply_saving_threshold(&mut recommendations, advisor.config.min_saving_fraction);
        apply_budget(&mut recommendations, advisor.config.budget_bytes);
        recommendations
    }

    #[test]
    fn grouped_advice_is_per_candidate_advice_in_request_order() {
        let t = presets::orders_table("orders", 4_000, 13)
            .generate()
            .unwrap()
            .table;
        // Two key shapes × three schemes, interleaved; every candidate
        // under a name of its own, and one of them listed twice.
        let by_status = |name: &str| IndexSpec::nonclustered(name, ["status"]).unwrap();
        let by_customer = |name: &str| IndexSpec::clustered(name, ["customer", "status"]).unwrap();
        let scheme = |name| samplecf_compression::scheme_by_name(name).unwrap();
        let candidates: Vec<(IndexSpec, Box<dyn CompressionScheme>)> = vec![
            (by_status("s_dict"), scheme("dictionary-global")),
            (by_customer("c_rle"), scheme("rle")),
            (by_status("s_ns"), scheme("null-suppression")),
            (by_customer("c_dict"), scheme("dictionary-global")),
            (by_status("s_rle"), scheme("rle")),
            (by_customer("c_ns"), scheme("null-suppression")),
            (by_status("s_ns"), scheme("null-suppression")),
        ];
        for sampler in [
            SamplerKind::Block(0.1),
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
        ] {
            let sample = MaterializedSample::draw(&t, sampler, 3).unwrap();
            let advisor = CompressionAdvisor::new(AdvisorConfig {
                // Null suppression saves too little on either key; the
                // budget then forces it onto the larger index.
                min_saving_fraction: 0.55,
                budget_bytes: Some(1_000_000),
            })
            .unwrap();
            let oracle = per_candidate_plan(&advisor, &candidates, &t, &sample);
            let names: Vec<&str> = oracle.iter().map(|r| r.index.as_str()).collect();
            assert_eq!(
                names,
                ["s_dict", "c_rle", "s_ns", "c_dict", "s_rle", "c_ns", "s_ns"]
            );
            assert_eq!(oracle[2], oracle[6], "the candidate listed twice");
            let compressed: Vec<bool> = oracle.iter().map(|r| r.compress).collect();
            assert_eq!(compressed, [true, true, false, true, true, true, false]);

            let plan = advisor.plan(&[(&sample, 0, &candidates)]).unwrap();
            assert_eq!(plan.recommendations, oracle, "{sampler:?}");
            assert_eq!((plan.key_sorts, plan.samples_drawn()), (2, 1));
            // Planned again, the sample sorts nothing: the same advice.
            let again = advisor.plan(&[(&sample, 0, &candidates)]).unwrap();
            assert_eq!(again.recommendations, oracle);
            assert_eq!((again.key_sorts, again.key_orders_held), (0, 2));
        }
    }

    #[test]
    fn key_orders_are_counted_per_sample_group_and_key_shape() {
        let t = compressible_table(5);
        let (shared, pages_shared) = uniform(&t, 0);
        let (reseeded, pages_reseeded) = uniform(&t, 99);
        let (other, pages_other) = uniform(&incompressible_table(6), 0);
        let plain = IndexSpec::nonclustered("plain", ["a"]).unwrap();
        let renamed = IndexSpec::nonclustered("renamed", ["a"]).unwrap();
        let clustered = IndexSpec::clustered("clustered", ["a"]).unwrap();
        let on_shared = [
            candidate(&plain, DictionaryCompression::default()),
            // Another name and scheme on the same key: the same walk.
            candidate(&renamed, NullSuppression),
            // Another kind on the same key: another walk, the same order.
            candidate(&clustered, DictionaryCompression::default()),
        ];
        // Another sample, another table: two more sorts.
        let plain_dict = [candidate(&plain, DictionaryCompression::default())];
        let samples = [
            (&shared, pages_shared, &on_shared[..]),
            (&reseeded, pages_reseeded, &plain_dict),
            (&other, pages_other, &plain_dict),
        ];
        let counts = |plan: &AdvisorPlan| {
            let AdvisorPlan {
                key_sorts,
                key_orders_merged,
                key_orders_held,
                ..
            } = *plan;
            (key_sorts, key_orders_merged, key_orders_held)
        };
        let plan = advisor().plan(&samples).unwrap();
        assert_eq!(plan.samples_drawn(), 3);
        assert_eq!(counts(&plan), (3, 0, 1));
        // Each sample now holds its order: planning again sorts nothing.
        let again = advisor().plan(&samples).unwrap();
        assert_eq!(again.recommendations, plan.recommendations);
        assert_eq!(counts(&again), (0, 0, 4));
        let empty = advisor().plan(&[]).unwrap();
        assert_eq!(counts(&empty), (0, 0, 0));
        // A held sample is walked through its order whatever the schemes:
        // cell-additive candidates alone sort it once too, for later plans.
        let summed = [
            candidate(&plain, NullSuppression),
            candidate(&clustered, NullSuppression),
        ];
        let (fresh, pages_fresh) = uniform(&t, 7);
        let plan = advisor().plan(&[(&fresh, pages_fresh, &summed)]).unwrap();
        assert_eq!(counts(&plan), (1, 0, 1));
        assert!(fresh.key_order(&[0]).is_some());

        // A deepened sample keeps its order, of the rows drawn before: the
        // next plan sorts only the new rows and merges them in, once per
        // key, and the one after walks the grown order.
        let mut stream = SamplerKind::Block(0.05)
            .stream(samplecf_sampling::BatchSchedule::one_shot())
            .unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let mut deep = MaterializedSample::from_stream(&t, stream.as_mut(), &mut rng, 1).unwrap();
        let on_deep = [(&deep, 0, &on_shared[..])];
        assert_eq!(counts(&advisor().plan(&on_deep).unwrap()), (1, 0, 1));
        assert!(stream.extend_cap(SamplerKind::Block(0.1)));
        deep.extend_from_stream(&t, stream.as_mut(), &mut rng)
            .unwrap();
        let on_deep = [(&deep, 0, &on_shared[..])];
        let merged = advisor().plan(&on_deep).unwrap();
        assert_eq!(counts(&merged), (0, 1, 1));
        assert_eq!(counts(&advisor().plan(&on_deep).unwrap()), (0, 0, 2));
        // The same advice as a fresh draw at the deeper fraction.
        let fresh = MaterializedSample::draw(&t, SamplerKind::Block(0.1), 1).unwrap();
        let fresh = advisor().plan(&[(&fresh, 0, &on_shared[..])]).unwrap();
        assert_eq!(merged.recommendations, fresh.recommendations);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for min_saving_fraction in [1.5, -0.1, f64::NAN] {
            assert!(CompressionAdvisor::new(AdvisorConfig {
                min_saving_fraction,
                ..Default::default()
            })
            .is_err());
        }
        for min_saving_fraction in [0.0, 1.0] {
            assert!(CompressionAdvisor::new(AdvisorConfig {
                min_saving_fraction,
                ..Default::default()
            })
            .is_ok());
        }
    }

    #[test]
    fn empty_candidate_list_yields_an_empty_plan() {
        let plan = advisor().plan(&[]).unwrap();
        assert!(plan.recommendations.is_empty());
        assert!(plan.groups.is_empty());
        assert_eq!(plan.pages_read(), 0);
        assert_eq!(plan.total_chosen_bytes(), 0);
        assert!(plan.fits_budget());
    }

    #[test]
    fn recommendation_accessors() {
        let r = Recommendation {
            table: "t".into(),
            index: "i".into(),
            scheme: "ns".into(),
            uncompressed_bytes: 1000,
            estimated_compressed_bytes: 400,
            estimated_cf: 0.4,
            sample_rows: 50,
            group: 0,
            compress: true,
        };
        assert_eq!(r.chosen_bytes(), 400);
        let r2 = Recommendation {
            compress: false,
            ..r
        };
        assert_eq!(r2.chosen_bytes(), 1000);
    }
}
