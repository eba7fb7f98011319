//! Row-level uniform samplers.

use crate::error::SamplingResult;
use crate::sampler::{fetch_positions, target_size, validate_fraction, RowSampler, SampledRow};
use crate::stream::{fetch_positions_coalesced, PageCache};
use rand::seq::index;
use rand::Rng;
use rand::RngCore;
use samplecf_storage::{PageId, Rid, TableSource};

/// Uniform random sampling of rows *with replacement* — the procedure the
/// paper's analysis assumes (Section II-C).
#[derive(Debug, Clone, Copy)]
pub struct UniformWithReplacement {
    fraction: f64,
}

impl UniformWithReplacement {
    /// Create a sampler drawing `round(fraction · n)` rows with replacement.
    pub fn new(fraction: f64) -> SamplingResult<Self> {
        Ok(UniformWithReplacement {
            fraction: validate_fraction(fraction)?,
        })
    }

    /// The sampling fraction.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl RowSampler for UniformWithReplacement {
    fn name(&self) -> &'static str {
        "uniform-with-replacement"
    }

    fn sample(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        let rids = source.rids()?;
        let n = rids.len();
        let r = target_size(n, self.fraction);
        if r == 0 {
            return Ok(Vec::new());
        }
        let positions: Vec<usize> = (0..r).map(|_| rng.gen_range(0..n)).collect();
        // Page-coalesced fetch: the drawn rids are sorted so that every
        // distinct page is read exactly once, however many drawn rows (or
        // with-replacement duplicates) land on it.  The estimator is
        // insensitive to the resulting rid order — the index bulk load
        // re-sorts by key — and the I/O drops from one page read per drawn
        // row to one per distinct page.
        fetch_positions_coalesced(source, &rids, &positions, &mut PageCache::new())
    }

    fn expected_sample_size(&self, n: usize) -> usize {
        target_size(n, self.fraction)
    }
}

/// Uniform random sampling of rows *without replacement*.
#[derive(Debug, Clone, Copy)]
pub struct UniformWithoutReplacement {
    fraction: f64,
}

impl UniformWithoutReplacement {
    /// Create a sampler drawing `round(fraction · n)` distinct rows.
    pub fn new(fraction: f64) -> SamplingResult<Self> {
        Ok(UniformWithoutReplacement {
            fraction: validate_fraction(fraction)?,
        })
    }
}

impl RowSampler for UniformWithoutReplacement {
    fn name(&self) -> &'static str {
        "uniform-without-replacement"
    }

    fn sample(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        let rids = source.rids()?;
        let n = rids.len();
        let r = target_size(n, self.fraction);
        if r == 0 {
            return Ok(Vec::new());
        }
        let positions = index::sample(rng, n, r).into_vec();
        fetch_positions(source, &rids, &positions)
    }

    fn expected_sample_size(&self, n: usize) -> usize {
        target_size(n, self.fraction)
    }
}

/// One scan of the source that decodes only the rows `keep` selects.
/// `keep` is asked once per row, in storage order; each page is read once
/// and the records of unselected slots are never decoded.
fn scan_keeping(
    source: &dyn TableSource,
    mut keep: impl FnMut() -> bool,
) -> SamplingResult<Vec<SampledRow>> {
    let codec = source.codec();
    let mut out = Vec::new();
    for pid in 0..source.num_pages() as PageId {
        let page = source.read_page_ref(pid)?;
        for slot in 0..page.slot_count() {
            if keep() {
                out.push((Rid::new(pid, slot), codec.decode(page.get(slot)?)?));
            }
        }
    }
    Ok(out)
}

/// Bernoulli sampling: every row is included independently with probability
/// `fraction`, so the sample size itself is random.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliSampler {
    fraction: f64,
}

impl BernoulliSampler {
    /// Create a Bernoulli sampler with the given inclusion probability.
    pub fn new(fraction: f64) -> SamplingResult<Self> {
        Ok(BernoulliSampler {
            fraction: validate_fraction(fraction)?,
        })
    }
}

impl RowSampler for BernoulliSampler {
    fn name(&self) -> &'static str {
        "bernoulli"
    }

    fn sample(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        // One RNG call per row, in storage order.
        scan_keeping(source, || rng.gen::<f64>() < self.fraction)
    }

    fn expected_sample_size(&self, n: usize) -> usize {
        (n as f64 * self.fraction).round() as usize
    }
}

/// Systematic sampling: a random starting offset followed by every
/// `⌈1/fraction⌉`-th row.  Cheap to execute but sensitive to periodic data;
/// included as a baseline sampler for the block-sampling experiments.
#[derive(Debug, Clone, Copy)]
pub struct SystematicSampler {
    fraction: f64,
}

impl SystematicSampler {
    /// Create a systematic sampler with the given target fraction.
    pub fn new(fraction: f64) -> SamplingResult<Self> {
        Ok(SystematicSampler {
            fraction: validate_fraction(fraction)?,
        })
    }
}

impl RowSampler for SystematicSampler {
    fn name(&self) -> &'static str {
        "systematic"
    }

    fn sample(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        let n = source.num_rows();
        if n == 0 {
            return Ok(Vec::new());
        }
        let step = (1.0 / self.fraction).round().max(1.0) as usize;
        let start = rng.gen_range(0..step.min(n));
        // Only every `step`-th row from `start` on is kept.
        let mut i = 0usize;
        scan_keeping(source, || {
            let kept = i >= start && (i - start) % step == 0;
            i += 1;
            kept
        })
    }

    fn expected_sample_size(&self, n: usize) -> usize {
        let step = (1.0 / self.fraction).round().max(1.0) as usize;
        n.div_ceil(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplecf_storage::{Row, Schema, Table, TableBuilder, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 16))
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn with_replacement_draws_exact_count_and_allows_duplicates() {
        let t = table(200);
        let s = UniformWithReplacement::new(0.5).unwrap();
        let sample = s.sample(&t, &mut rng(1)).unwrap();
        assert_eq!(sample.len(), 100);
        assert_eq!(s.expected_sample_size(200), 100);
        // With 100 draws from 200 rows, duplicates are essentially certain.
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert!(distinct.len() < sample.len());
    }

    #[test]
    fn without_replacement_draws_distinct_rows() {
        let t = table(200);
        let s = UniformWithoutReplacement::new(0.25).unwrap();
        let sample = s.sample(&t, &mut rng(2)).unwrap();
        assert_eq!(sample.len(), 50);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn bernoulli_sample_size_is_near_expectation() {
        let t = table(5000);
        let s = BernoulliSampler::new(0.1).unwrap();
        let sample = s.sample(&t, &mut rng(3)).unwrap();
        let expected = s.expected_sample_size(5000) as f64;
        assert!((sample.len() as f64 - expected).abs() < 5.0 * (5000.0f64 * 0.1 * 0.9).sqrt());
    }

    #[test]
    fn systematic_sampler_covers_the_table_evenly() {
        let t = table(1000);
        let s = SystematicSampler::new(0.01).unwrap();
        let sample = s.sample(&t, &mut rng(4)).unwrap();
        assert!((sample.len() as i64 - 10).abs() <= 1);
        // Consecutive picks are exactly 100 apart.
        let ids: Vec<i64> = sample
            .iter()
            .map(|(_, r)| r.value(0).as_str().unwrap()[1..].parse::<i64>().unwrap())
            .collect();
        for w in ids.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
    }

    #[test]
    fn scan_samplers_match_a_decode_then_filter_scan_seed_for_seed() {
        // The reference decodes every row of every page and filters after;
        // the samplers select by slot first and decode only what they keep.
        let t = table(3_000);
        let all_rows = t.scan_rows().unwrap();
        for seed in [0u64, 1, 42] {
            for f in [0.01, 0.3, 1.0] {
                let mut r = rng(seed);
                let reference: Vec<SampledRow> = all_rows
                    .iter()
                    .filter(|_| r.gen::<f64>() < f)
                    .cloned()
                    .collect();
                let sample = BernoulliSampler::new(f)
                    .unwrap()
                    .sample(&t, &mut rng(seed))
                    .unwrap();
                assert_eq!(sample, reference, "bernoulli f={f} seed={seed}");

                let step = (1.0 / f).round().max(1.0) as usize;
                let start = rng(seed).gen_range(0..step.min(all_rows.len()));
                let reference: Vec<SampledRow> =
                    all_rows.iter().skip(start).step_by(step).cloned().collect();
                let sample = SystematicSampler::new(f)
                    .unwrap()
                    .sample(&t, &mut rng(seed))
                    .unwrap();
                assert_eq!(sample, reference, "systematic f={f} seed={seed}");
            }
        }
    }

    #[test]
    fn small_fractions_still_return_at_least_one_row() {
        let t = table(50);
        let s = UniformWithReplacement::new(0.001).unwrap();
        assert_eq!(s.sample(&t, &mut rng(5)).unwrap().len(), 1);
        let s = UniformWithoutReplacement::new(0.001).unwrap();
        assert_eq!(s.sample(&t, &mut rng(5)).unwrap().len(), 1);
    }

    #[test]
    fn empty_table_yields_empty_samples() {
        let t = table(0);
        assert!(UniformWithReplacement::new(0.1)
            .unwrap()
            .sample(&t, &mut rng(6))
            .unwrap()
            .is_empty());
        assert!(UniformWithoutReplacement::new(0.1)
            .unwrap()
            .sample(&t, &mut rng(6))
            .unwrap()
            .is_empty());
        assert!(BernoulliSampler::new(0.1)
            .unwrap()
            .sample(&t, &mut rng(6))
            .unwrap()
            .is_empty());
        assert!(SystematicSampler::new(0.1)
            .unwrap()
            .sample(&t, &mut rng(6))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_table_expected_sizes_are_zero() {
        // Unified edge behaviour: every sampler expects 0 rows from 0 rows.
        assert_eq!(
            UniformWithReplacement::new(0.1)
                .unwrap()
                .expected_sample_size(0),
            0
        );
        assert_eq!(
            UniformWithoutReplacement::new(1.0)
                .unwrap()
                .expected_sample_size(0),
            0
        );
        assert_eq!(
            BernoulliSampler::new(0.5).unwrap().expected_sample_size(0),
            0
        );
        assert_eq!(
            SystematicSampler::new(0.5).unwrap().expected_sample_size(0),
            0
        );
    }

    #[test]
    fn full_fraction_returns_the_whole_table() {
        // Unified edge behaviour: fraction == 1.0 covers every row.
        let t = table(120);
        let s = UniformWithoutReplacement::new(1.0).unwrap();
        let sample = s.sample(&t, &mut rng(8)).unwrap();
        assert_eq!(sample.len(), 120);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(distinct.len(), 120);

        let s = UniformWithReplacement::new(1.0).unwrap();
        assert_eq!(s.sample(&t, &mut rng(8)).unwrap().len(), 120);

        let s = SystematicSampler::new(1.0).unwrap();
        assert_eq!(s.sample(&t, &mut rng(8)).unwrap().len(), 120);
    }

    #[test]
    fn invalid_fractions_rejected() {
        assert!(UniformWithReplacement::new(0.0).is_err());
        assert!(UniformWithoutReplacement::new(2.0).is_err());
        assert!(BernoulliSampler::new(-1.0).is_err());
        assert!(SystematicSampler::new(f64::INFINITY).is_err());
    }

    #[test]
    fn sampling_is_reproducible_for_a_fixed_seed() {
        let t = table(300);
        let s = UniformWithReplacement::new(0.1).unwrap();
        let a = s.sample(&t, &mut rng(42)).unwrap();
        let b = s.sample(&t, &mut rng(42)).unwrap();
        assert_eq!(a, b);
        let c = s.sample(&t, &mut rng(43)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn inclusion_probabilities_are_roughly_uniform() {
        // Draw many with-replacement samples and check that every row is hit
        // a comparable number of times (loose 3x band).
        let t = table(50);
        let s = UniformWithReplacement::new(1.0).unwrap();
        let mut counts = vec![0usize; 50];
        let mut r = rng(7);
        for _ in 0..200 {
            for (_, row) in s.sample(&t, &mut r).unwrap() {
                let id: usize = row.value(0).as_str().unwrap()[1..].parse().unwrap();
                counts[id] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let mean = total as f64 / 50.0;
        for c in counts {
            assert!(
                (c as f64) > mean / 3.0 && (c as f64) < mean * 3.0,
                "count {c} vs mean {mean}"
            );
        }
    }
}
