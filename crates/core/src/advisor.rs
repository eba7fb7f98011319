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
//! This module implements that batch workflow:
//!
//! 1. **Group** candidates through a [`SampleCache`] keyed by (table
//!    source, sampler kind + fraction, seed): the first candidate of a
//!    group draws one [`MaterializedSample`], so a disk-resident table
//!    pays its block I/O exactly once per group (accounted by a
//!    [`CountingSource`](samplecf_storage::CountingSource)
//!    and reported in the plan); every later candidate is a cache hit.
//! 2. **Fan out** candidate evaluation across threads, a *key shape* at a
//!    time: candidates on one sample whose indexes agree in kind and key
//!    columns (whatever their names) order that sample's entries the same
//!    way, so they share one sort and one walk that sizes every one of
//!    their schemes ([`measure_sample_schemes`]) — cost per (index,
//!    compression) pair, not per sort, is what bounds a design search.
//!    Each candidate adds an analytic (I/O-free) uncompressed size from
//!    [`IndexSizeModel`].  Results are deterministic whatever the thread
//!    count.
//! 3. **Choose** what to compress: a saving threshold first, then a greedy
//!    budget pass (largest estimated saving first) if a storage budget is
//!    set.
//!
//! The output is an [`AdvisorPlan`]: per-candidate [`Recommendation`]s plus
//! plan-level accounting (samples drawn, pages read, key orders sorted,
//! wall-clock, and the estimated page cost a naive re-sample-per-candidate
//! run would have paid).

use crate::cache::SampleCache;
use crate::error::{CoreError, CoreResult};
use crate::estimator::measure_sample_schemes;
use samplecf_compression::CompressionScheme;
use samplecf_index::{IndexBuilder, IndexKind, IndexSizeModel, IndexSpec};
use samplecf_parallel::parallel_indexed_map;
use samplecf_sampling::{MaterializedSample, SamplerKind};
use samplecf_storage::{SharedSource, TableSource};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A candidate index the advisor reasons about: where the data lives, the
/// index to (potentially) build compressed, and the compression scheme under
/// consideration.
///
/// The source is a [`SharedSource`] handle — wrap a concrete
/// [`Table`](samplecf_storage::Table) or
/// [`DiskTable`](samplecf_storage::DiskTable) once via
/// [`IntoShared`](samplecf_storage::IntoShared) and pass the handle to every
/// candidate on it.  Candidates holding clones of one handle with the same
/// sampler configuration share one materialized sample.
#[derive(Clone)]
pub struct Candidate<'a> {
    /// The base table (in-memory or disk-resident).
    pub source: SharedSource,
    /// The index to (potentially) build compressed.
    pub spec: &'a IndexSpec,
    /// The compression scheme to evaluate for this candidate.
    pub scheme: &'a dyn CompressionScheme,
    /// Override of the advisor-wide sampler (None = use the config's).
    pub sampler: Option<SamplerKind>,
    /// Override of the advisor-wide sample seed (None = use the config's).
    pub seed: Option<u64>,
}

impl<'a> Candidate<'a> {
    /// A candidate using the advisor-wide sampler configuration.  The
    /// handle is cloned (one atomic increment), so one `SharedSource` feeds
    /// any number of candidates.
    #[must_use]
    pub fn new(
        source: &SharedSource,
        spec: &'a IndexSpec,
        scheme: &'a dyn CompressionScheme,
    ) -> Self {
        Candidate {
            source: Arc::clone(source),
            spec,
            scheme,
            sampler: None,
            seed: None,
        }
    }

    /// Use a specific sampler for this candidate (placing it in its own
    /// sample group unless other candidates use the same one).
    #[must_use]
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Use a specific sample seed for this candidate.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl std::fmt::Debug for Candidate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("table", &self.source.name())
            .field("index", &self.spec.name())
            .field("scheme", &self.scheme.name())
            .field("sampler", &self.sampler)
            .field("seed", &self.seed)
            .finish()
    }
}

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
    /// Bytes saved if the recommendation is followed.
    #[must_use]
    pub fn estimated_saving(&self) -> usize {
        if self.compress {
            self.uncompressed_bytes
                .saturating_sub(self.estimated_compressed_bytes)
        } else {
            0
        }
    }

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

/// One shared sample the plan drew: which configuration it came from, how
/// many candidates reused it, and what it cost.
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
    /// Physical pages read from the source to draw the sample.
    pub pages_read: u64,
}

/// The advisor's overall output: recommendations plus the cost accounting of
/// producing them.
#[derive(Debug, Clone)]
pub struct AdvisorPlan {
    /// Per-candidate recommendations, in input order.
    pub recommendations: Vec<Recommendation>,
    /// The shared samples that were drawn, in first-use order.
    pub groups: Vec<SampleGroup>,
    /// The storage budget that was targeted, if any.
    pub budget_bytes: Option<usize>,
    /// Key orders computed: one sort of a sample per distinct (sample group,
    /// index kind, key columns) among the candidates — the CPU twin of
    /// [`pages_read`](Self::pages_read) against
    /// [`naive_pages_read`](Self::naive_pages_read), whose naive count is
    /// one per candidate.
    pub key_sorts: usize,
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

    /// Number of samples materialized (one per group).
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
    /// Sampler (and fraction) used for the SampleCF estimates; candidates
    /// may override it per candidate.
    pub sampler: SamplerKind,
    /// RNG seed for the shared samples.
    pub seed: u64,
    /// Minimum space saving (as a fraction of the uncompressed size)
    /// required before compressing an index is considered worthwhile — this
    /// models the CPU cost of decompression that the paper's introduction
    /// discusses.
    pub min_saving_fraction: f64,
    /// Optional storage budget in bytes.  When set, the advisor compresses
    /// greedily (largest estimated saving first) until the total fits.
    pub budget_bytes: Option<usize>,
    /// Worker threads for candidate evaluation (0 = all available
    /// parallelism).  The recommendations do not depend on this.
    pub threads: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            sampler: SamplerKind::UniformWithReplacement(0.01),
            seed: 0,
            min_saving_fraction: 0.10,
            budget_bytes: None,
            threads: 0,
        }
    }
}

impl AdvisorConfig {
    /// The paper's canonical configuration: uniform row sampling with
    /// replacement at fraction `f`, defaults otherwise.
    #[must_use]
    pub fn with_fraction(fraction: f64) -> Self {
        AdvisorConfig {
            sampler: SamplerKind::UniformWithReplacement(fraction),
            ..Default::default()
        }
    }
}

impl AdvisorConfig {
    /// Check the configuration without drawing anything: the sampler's
    /// parameters (e.g. fraction in (0, 1]) and the saving threshold.
    pub fn validate(&self) -> CoreResult<()> {
        self.sampler.validate()?;
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

    /// Produce a plan for a set of candidate indexes.
    ///
    /// Each distinct (source, sampler, seed) group draws exactly one sample;
    /// every candidate in the group is estimated from it.  Candidate
    /// evaluation fans out across threads, but the recommendations are
    /// byte-identical to a single-threaded run with the same seeds.
    pub fn plan(&self, candidates: &[Candidate<'_>]) -> CoreResult<AdvisorPlan> {
        let started = Instant::now();

        // Phase 1: resolve every candidate against the sample cache.  The
        // cache draws one sample per (source identity, sampler, seed) key —
        // paying and accounting the source I/O exactly once per key, with
        // distinct groups drawn concurrently — and hands back a dense
        // group id.
        let mut requests = Vec::with_capacity(candidates.len());
        for c in candidates {
            let kind = c.sampler.unwrap_or(self.config.sampler);
            // Validate per-candidate overrides the same way `new` validates
            // the default.
            kind.validate()?;
            requests.push((
                Arc::clone(&c.source),
                kind,
                c.seed.unwrap_or(self.config.seed),
            ));
        }
        let mut cache = SampleCache::new();
        let group_of = cache.get_or_draw_batch(&requests, self.config.threads)?;

        // Phase 2: evaluate the candidates against their groups' shared
        // samples, a key shape at a time; evaluation is pure, so the outcome
        // does not depend on the thread count.
        let evaluated: Vec<Evaluated<'_>> = (candidates.iter().zip(&group_of))
            .map(|(c, &group)| Evaluated {
                source: c.source.as_ref(),
                group,
                spec: c.spec,
                scheme: c.scheme,
            })
            .collect();
        let samples: Vec<&MaterializedSample> =
            cache.entries().iter().map(|e| &**e.sample()).collect();
        let (recommendations, key_sorts) = self.evaluate(&evaluated, &samples)?;

        let groups = cache
            .entries()
            .iter()
            .map(|e| SampleGroup {
                table: e.source().name().to_string(),
                sampler: e.kind().label(),
                seed: e.seed(),
                candidates: e.uses(),
                sample_rows: e.sample().len(),
                pages_read: e.pages_read(),
            })
            .collect();
        Ok(self.decide(recommendations, groups, key_sorts, started))
    }

    /// Plan `candidates` against one sample the caller already holds — the
    /// entry for hosts that own their sample cache (the `samplecfd` service
    /// serving `advise` from its concurrent cache).  `sample` must be the
    /// draw of this advisor's `(sampler, seed)` over `source`, and
    /// `draw_pages` what that draw cost; the result is the one-group plan
    /// [`plan`](Self::plan) returns for the same candidates, recommendation
    /// for recommendation.
    pub fn plan_shared_sample(
        &self,
        source: &dyn TableSource,
        candidates: &[(IndexSpec, Box<dyn CompressionScheme>)],
        sample: &MaterializedSample,
        draw_pages: u64,
    ) -> CoreResult<AdvisorPlan> {
        let started = Instant::now();
        let evaluated: Vec<Evaluated<'_>> = (candidates.iter())
            .map(|(spec, scheme)| Evaluated {
                source,
                group: 0,
                spec,
                scheme: scheme.as_ref(),
            })
            .collect();
        let (recommendations, key_sorts) = self.evaluate(&evaluated, &[sample])?;
        let group = SampleGroup {
            table: source.name().to_string(),
            sampler: self.config.sampler.label(),
            seed: self.config.seed,
            candidates: candidates.len(),
            sample_rows: sample.len(),
            pages_read: draw_pages,
        };
        Ok(self.decide(recommendations, vec![group], key_sorts, started))
    }

    /// Evaluate `candidates`, each against the one of `samples` its group
    /// names: recommendations in `candidates`' order, and the number of key
    /// orders that took.
    ///
    /// Candidates are grouped by what decides the order of a sample's
    /// entries — the sample, the index kind and the key columns; *not* the
    /// whole [`IndexSpec`], whose name orders nothing — and each such shape
    /// is one [`evaluate_shared`] call, the shapes fanned across strided
    /// workers.
    fn evaluate(
        &self,
        candidates: &[Evaluated<'_>],
        samples: &[&MaterializedSample],
    ) -> CoreResult<(Vec<Recommendation>, usize)> {
        type Shape<'c> = (usize, IndexKind, &'c [String]);
        let mut shapes: Vec<(Shape<'_>, Vec<usize>)> = Vec::new();
        for (i, c) in candidates.iter().enumerate() {
            let shape = (c.group, c.spec.kind(), c.spec.key_columns());
            match shapes.iter_mut().find(|(known, _)| *known == shape) {
                Some((_, members)) => members.push(i),
                None => shapes.push((shape, vec![i])),
            }
        }
        let per_shape = parallel_indexed_map(shapes.len(), self.config.threads, |g| {
            let ((group, ..), members) = &shapes[g];
            let members: Vec<Evaluated<'_>> = members.iter().map(|&i| candidates[i]).collect();
            evaluate_shared(samples[*group], &members)
        });
        let mut recommendations = vec![None; candidates.len()];
        for ((_, members), evaluated) in shapes.iter().zip(per_shape) {
            for (&i, recommendation) in members.iter().zip(evaluated?) {
                recommendations[i] = Some(recommendation);
            }
        }
        let in_request_order = recommendations.into_iter().flatten().collect();
        Ok((in_request_order, shapes.len()))
    }

    /// Phase 3: the saving threshold first, then the greedy budget pass.
    fn decide(
        &self,
        mut recommendations: Vec<Recommendation>,
        groups: Vec<SampleGroup>,
        key_sorts: usize,
        started: Instant,
    ) -> AdvisorPlan {
        apply_saving_threshold(&mut recommendations, self.config.min_saving_fraction);
        apply_budget(&mut recommendations, self.config.budget_bytes);
        AdvisorPlan {
            recommendations,
            groups,
            budget_bytes: self.config.budget_bytes,
            key_sorts,
            elapsed: started.elapsed(),
        }
    }
}

/// One candidate as the evaluation sees it, from either planning entry.
#[derive(Clone, Copy)]
struct Evaluated<'c> {
    source: &'c dyn TableSource,
    /// Number of the candidate's sample group.
    group: usize,
    spec: &'c IndexSpec,
    scheme: &'c dyn CompressionScheme,
}

/// Evaluate candidates of one key shape — one sample group, indexes of one
/// kind over the same key columns — against that group's already-drawn
/// `sample`, in order, with `compress` left `false` pending the decision
/// pass.
///
/// Each uncompressed size comes from the analytic [`IndexSizeModel`] (no
/// I/O); the compressed sizes all come from one [`measure_sample_schemes`]
/// call — one sort of the sample, one walk sizing every candidate's scheme —
/// so a candidate's `estimated_cf` equals
/// [`SampleCf::estimate`](crate::SampleCf::estimate) for the sample's
/// `(sampler, seed)`, stratified draws included, and what a
/// [`measure_sample`](crate::measure_sample) of its own would report.
fn evaluate_shared(
    sample: &MaterializedSample,
    candidates: &[Evaluated<'_>],
) -> CoreResult<Vec<Recommendation>> {
    let shape = candidates[0].spec;
    let schemes: Vec<&dyn CompressionScheme> = candidates.iter().map(|c| c.scheme).collect();
    let measurements = measure_sample_schemes(sample, shape, &schemes, &IndexBuilder::new())?;
    (candidates.iter().zip(measurements))
        .map(|(c, measurement)| {
            let uncompressed = IndexSizeModel::new()
                .estimate(c.source.schema(), c.spec, c.source.num_rows())?
                .leaf_bytes();
            let leaf_cf = measurement.cf_with_pointers.min(1.0);
            Ok(Recommendation {
                table: c.source.name().to_string(),
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
        .collect()
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
    use samplecf_storage::IntoShared;

    fn compressible_table(seed: u64) -> SharedSource {
        // Few distinct, short values in wide columns: compresses very well.
        presets::single_char_table("compressible", 5_000, 40, 20, 6, seed)
            .generate()
            .unwrap()
            .table
            .into_shared()
    }

    fn incompressible_table(seed: u64) -> SharedSource {
        // All-distinct values filling the whole column width.
        presets::single_char_table("incompressible", 5_000, 12, 5_000, 12, seed)
            .generate()
            .unwrap()
            .table
            .into_shared()
    }

    fn advisor(fraction: f64) -> CompressionAdvisor {
        CompressionAdvisor::new(AdvisorConfig::with_fraction(fraction)).unwrap()
    }

    #[test]
    fn advisor_compresses_only_worthwhile_indexes() {
        let good = compressible_table(1);
        let bad = incompressible_table(2);
        let spec_good = IndexSpec::nonclustered("idx_good", ["a"]).unwrap();
        let spec_bad = IndexSpec::nonclustered("idx_bad", ["a"]).unwrap();
        let scheme = DictionaryCompression::default();
        let candidates = vec![
            Candidate::new(&good, &spec_good, &scheme),
            Candidate::new(&bad, &spec_bad, &scheme),
        ];
        let plan = advisor(0.05).plan(&candidates).unwrap();
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
    }

    #[test]
    fn budget_forces_additional_compression() {
        let good = compressible_table(3);
        let mid = presets::single_char_table("mid", 5_000, 24, 200, 10, 4)
            .generate()
            .unwrap()
            .table
            .into_shared();
        let spec_a = IndexSpec::nonclustered("idx_a", ["a"]).unwrap();
        let spec_b = IndexSpec::nonclustered("idx_b", ["a"]).unwrap();
        let scheme = DictionaryCompression::default();
        let candidates = vec![
            Candidate::new(&good, &spec_a, &scheme),
            Candidate::new(&mid, &spec_b, &scheme),
        ];
        // With an absurdly high saving threshold nothing is compressed...
        let lazy = CompressionAdvisor::new(AdvisorConfig {
            min_saving_fraction: 0.99,
            ..AdvisorConfig::with_fraction(0.05)
        })
        .unwrap();
        let plan = lazy.plan(&candidates).unwrap();
        assert!(plan.recommendations.iter().all(|r| !r.compress));

        // ...but a tight budget forces the advisor to compress anyway.
        let budget = plan.total_uncompressed_bytes() / 2;
        let constrained = CompressionAdvisor::new(AdvisorConfig {
            min_saving_fraction: 0.99,
            budget_bytes: Some(budget),
            ..AdvisorConfig::with_fraction(0.05)
        })
        .unwrap();
        let plan = constrained.plan(&candidates).unwrap();
        assert!(plan.recommendations.iter().any(|r| r.compress));
        assert_eq!(plan.budget_bytes, Some(budget));
    }

    #[test]
    fn candidates_share_one_sample_per_group() {
        let t = compressible_table(5);
        let spec_a = IndexSpec::nonclustered("idx_plain", ["a"]).unwrap();
        let spec_b = IndexSpec::clustered("idx_clustered", ["a"]).unwrap();
        let dict = DictionaryCompression::default();
        let ns = NullSuppression;
        // Four candidates on one table: 3 share the default group, 1 opts
        // into its own seed.
        let candidates = vec![
            Candidate::new(&t, &spec_a, &dict),
            Candidate::new(&t, &spec_a, &ns),
            Candidate::new(&t, &spec_b, &dict),
            Candidate::new(&t, &spec_b, &dict).seed(99),
        ];
        let plan = advisor(0.05).plan(&candidates).unwrap();
        assert_eq!(plan.samples_drawn(), 2);
        assert_eq!(plan.groups[0].candidates, 3);
        assert_eq!(plan.groups[1].candidates, 1);
        assert_eq!(plan.groups[1].seed, 99);
        assert_eq!(plan.recommendations[0].group, 0);
        assert_eq!(plan.recommendations[3].group, 1);
        // Naive baseline would have drawn the first group's sample 3 times.
        assert_eq!(
            plan.naive_pages_read(),
            plan.groups[0].pages_read * 3 + plan.groups[1].pages_read
        );
    }

    #[test]
    fn plan_is_deterministic_across_thread_counts() {
        let t = compressible_table(6);
        let other = incompressible_table(7);
        let specs: Vec<IndexSpec> = (0..6)
            .map(|i| IndexSpec::nonclustered(format!("idx{i}"), ["a"]).unwrap())
            .collect();
        let dict = DictionaryCompression::default();
        let ns = NullSuppression;
        let schemes: [&dyn samplecf_compression::CompressionScheme; 2] = [&dict, &ns];
        let candidates: Vec<Candidate<'_>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let source = if i % 3 == 0 { &other } else { &t };
                Candidate::new(source, spec, schemes[i % 2])
            })
            .collect();
        let single = CompressionAdvisor::new(AdvisorConfig {
            threads: 1,
            ..AdvisorConfig::with_fraction(0.05)
        })
        .unwrap()
        .plan(&candidates)
        .unwrap();
        let multi = CompressionAdvisor::new(AdvisorConfig {
            threads: 4,
            ..AdvisorConfig::with_fraction(0.05)
        })
        .unwrap()
        .plan(&candidates)
        .unwrap();
        assert_eq!(single.recommendations, multi.recommendations);
        // Groups agree on everything but wall-clock.
        assert_eq!(single.groups.len(), multi.groups.len());
        for (a, b) in single.groups.iter().zip(&multi.groups) {
            assert_eq!(
                (a.table.as_str(), a.sampler.as_str(), a.seed, a.candidates),
                (b.table.as_str(), b.sampler.as_str(), b.seed, b.candidates)
            );
            assert_eq!((a.sample_rows, a.pages_read), (b.sample_rows, b.pages_read));
        }
    }

    #[test]
    fn shared_estimates_match_direct_estimator_runs() {
        let t = compressible_table(8);
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let dict = DictionaryCompression::default();
        let config = AdvisorConfig {
            seed: 21,
            min_saving_fraction: 0.0,
            ..AdvisorConfig::with_fraction(0.05)
        };
        let plan = CompressionAdvisor::new(config)
            .unwrap()
            .plan(&[Candidate::new(&t, &spec, &dict)])
            .unwrap();
        let direct = SampleCf::new(config.sampler)
            .seed(21)
            .estimate(&t, &spec, &dict)
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
            .table
            .into_shared();
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
            let config = AdvisorConfig {
                sampler,
                seed: 11,
                ..Default::default()
            };
            for scheme_name in ["rle", "dictionary-paged", "null-suppression"] {
                let scheme = samplecf_compression::scheme_by_name(scheme_name).unwrap();
                let plan = CompressionAdvisor::new(config)
                    .unwrap()
                    .plan(&[Candidate::new(&t, &spec, scheme.as_ref())])
                    .unwrap();
                let direct = SampleCf::new(sampler)
                    .seed(11)
                    .estimate(&t, &spec, scheme.as_ref())
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
    /// [`measure_sample`](crate::measure_sample), each.
    fn per_candidate_plan(
        advisor: &CompressionAdvisor,
        source: &SharedSource,
        candidates: &[(IndexSpec, Box<dyn CompressionScheme>)],
        sample: &MaterializedSample,
    ) -> Vec<Recommendation> {
        let alone = |(spec, scheme): &(IndexSpec, Box<dyn CompressionScheme>)| {
            let candidate = Evaluated {
                source: source.as_ref(),
                group: 0,
                spec,
                scheme: scheme.as_ref(),
            };
            evaluate_shared(sample, &[candidate]).unwrap().remove(0)
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
            .table
            .into_shared();
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
        let borrowed: Vec<Candidate<'_>> = candidates
            .iter()
            .map(|(spec, scheme)| Candidate::new(&t, spec, scheme.as_ref()))
            .collect();
        for sampler in [
            SamplerKind::Block(0.1),
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: samplecf_sampling::Allocation::Proportional,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            },
        ] {
            let sample = MaterializedSample::draw(t.as_ref(), sampler, 3).unwrap();
            for threads in [1, 2, 4] {
                let advisor = CompressionAdvisor::new(AdvisorConfig {
                    sampler,
                    seed: 3,
                    threads,
                    // Null suppression saves too little on either key; the
                    // budget then forces it onto the larger index.
                    min_saving_fraction: 0.55,
                    budget_bytes: Some(1_000_000),
                })
                .unwrap();
                let oracle = per_candidate_plan(&advisor, &t, &candidates, &sample);
                let names: Vec<&str> = oracle.iter().map(|r| r.index.as_str()).collect();
                assert_eq!(
                    names,
                    ["s_dict", "c_rle", "s_ns", "c_dict", "s_rle", "c_ns", "s_ns"]
                );
                assert_eq!(oracle[2], oracle[6], "the candidate listed twice");
                let compressed: Vec<bool> = oracle.iter().map(|r| r.compress).collect();
                assert_eq!(compressed, [true, true, false, true, true, true, false]);

                let planned = advisor.plan(&borrowed).unwrap();
                let shared = advisor
                    .plan_shared_sample(t.as_ref(), &candidates, &sample, 0)
                    .unwrap();
                for plan in [&planned, &shared] {
                    assert_eq!(
                        plan.recommendations, oracle,
                        "{sampler:?}, {threads} threads"
                    );
                    assert_eq!((plan.key_sorts, plan.samples_drawn()), (2, 1));
                }
            }
        }
    }

    #[test]
    fn key_orders_are_counted_per_sample_group_and_key_shape() {
        let t = compressible_table(5);
        let other = incompressible_table(6);
        let plain = IndexSpec::nonclustered("plain", ["a"]).unwrap();
        let renamed = IndexSpec::nonclustered("renamed", ["a"]).unwrap();
        let clustered = IndexSpec::clustered("clustered", ["a"]).unwrap();
        let (dict, ns) = (DictionaryCompression::default(), NullSuppression);
        let candidates = vec![
            Candidate::new(&t, &plain, &dict),
            // Another name and scheme on the same key: the same order.
            Candidate::new(&t, &renamed, &ns),
            // Another kind, another sample, another table: three more.
            Candidate::new(&t, &clustered, &dict),
            Candidate::new(&t, &plain, &dict).seed(99),
            Candidate::new(&other, &plain, &dict),
        ];
        let plan = advisor(0.05).plan(&candidates).unwrap();
        assert_eq!((plan.samples_drawn(), plan.key_sorts), (3, 4));
        assert_eq!(advisor(0.05).plan(&[]).unwrap().key_sorts, 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(CompressionAdvisor::new(AdvisorConfig::with_fraction(0.0)).is_err());
        assert!(CompressionAdvisor::new(AdvisorConfig {
            min_saving_fraction: 1.5,
            ..Default::default()
        })
        .is_err());
        // Invalid per-candidate override is caught at plan time.
        let t = compressible_table(9);
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let scheme = NullSuppression;
        let bad = Candidate::new(&t, &spec, &scheme).sampler(SamplerKind::Block(2.0));
        assert!(advisor(0.05).plan(&[bad]).is_err());
    }

    #[test]
    fn empty_candidate_list_yields_an_empty_plan() {
        let plan = advisor(0.05).plan(&[]).unwrap();
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
        assert_eq!(r.estimated_saving(), 600);
        assert_eq!(r.chosen_bytes(), 400);
        let r2 = Recommendation {
            compress: false,
            ..r
        };
        assert_eq!(r2.estimated_saving(), 0);
        assert_eq!(r2.chosen_bytes(), 1000);
    }
}
