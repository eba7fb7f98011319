//! A small GUS-style variance algebra for sampling estimators.
//!
//! Nirkhiwale et al.'s *sampling algebra* observes that the estimators
//! arising from composed sampling plans form a closed family ("generalised
//! uniform sampling"), whose second moments compose **mechanically**: the
//! variance of a stratified estimator is a fixed arithmetic function of its
//! children's moments.  This module implements the two node shapes the
//! SampleCF pipeline needs:
//!
//! * [`VarianceNode::Uniform`] — a uniform with-replacement draw estimating
//!   a population mean by the sample mean: `Var = s²/r`.
//! * [`VarianceNode::StratifiedConcat`] — independent uniform draws from
//!   disjoint strata, combined as `Σ W_s·x̄_s`:
//!   `Var = Σ W_s²·s_s²/r_s`.  This is the closed form that replaces the
//!   grouped jackknife for stratified draws — no leave-one-out rebuilds.
//!
//! ## What the moments are moments *of*
//!
//! The paper's Theorem 1 analyses null suppression, where the index CF is
//! (up to per-page chunk overheads) the mean of the per-row statistic
//! `xᵢ = ℓᵢ/k` — compressed length over declared width
//! ([`ns_row_statistic`]).  Feeding those `xᵢ` into a [`MomentSketch`]
//! per stratum makes the algebra's variance **exact** for NS, and
//! Theorem 1's `1/(4r)` bound is recovered as the worst case of `s²/r`
//! (a `[0,1]`-valued variable has `s² ≤ 1/4`).  For paged or dictionary
//! schemes the per-row statistic is an approximation of the true CF
//! functional; there the jackknife (which resamples the *actual* estimator)
//! remains the reference, and the algebra serves as the cheap, composable
//! allocator signal — the divergence METHODOLOGY.md quantifies.
//!
//! The same renormalised weighted combination used for the variance is
//! exposed as [`weighted_combine`], so every consumer (the progressive
//! estimator, the server's cache-backed measurement) computes the
//! stratified *point* estimate with bit-identical arithmetic.

/// Streaming first/second-moment accumulator (Welford's algorithm):
/// numerically stable mean and sample variance of everything observed, in
/// O(1) state — the per-stratum building block of the algebra.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MomentSketch {
    count: usize,
    mean: f64,
    m2: f64,
}

impl MomentSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations folded in so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean of the observations (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance `s²` (`None` below two observations).
    #[must_use]
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count >= 2).then(|| (self.m2 / (self.count - 1) as f64).max(0.0))
    }

    /// Sample standard deviation `s` (`None` below two observations).
    #[must_use]
    pub fn sample_stddev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Merge another sketch into this one (Chan et al.'s parallel update);
    /// the result is as if both observation streams had been folded into a
    /// single sketch.
    pub fn merge(&mut self, other: &MomentSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

/// The per-row statistic whose population mean is the null-suppression CF:
/// null-suppressed length over declared column width, `xᵢ = ℓᵢ/k`
/// (paper Section III).  `logical_len` is the value's
/// [`logical_len`](samplecf_storage::Value::logical_len) (0 for NULL), read
/// off its cell with [`cell_logical_len`](samplecf_storage::cell_logical_len);
/// `width` is the first key column's
/// [`uncompressed_width`](samplecf_storage::DataType::uncompressed_width).
#[must_use]
pub fn ns_row_statistic(logical_len: usize, width: usize) -> f64 {
    logical_len as f64 / width.max(1) as f64
}

/// Renormalised weighted combination: `Σ wᵢ·vᵢ / Σ wᵢ` over the entries
/// that have a value.  `None` when nothing has a value or the live weight
/// is zero.
///
/// This is the stratified point estimator `Σ W_s·x̄_s` with the weights
/// renormalised over the strata actually sampled — the standard
/// missing-stratum correction, and the single definition every consumer
/// shares so stratified CF estimates are bit-identical across code paths.
#[must_use]
pub fn weighted_combine(weights: &[f64], values: &[Option<f64>]) -> Option<f64> {
    debug_assert_eq!(weights.len(), values.len());
    let mut sum = 0.0;
    let mut live_weight = 0.0;
    for (&w, v) in weights.iter().zip(values) {
        if let Some(v) = v {
            sum += w * v;
            live_weight += w;
        }
    }
    (live_weight > 0.0).then(|| sum / live_weight)
}

/// A node of the variance algebra: an estimator shape whose point estimate
/// and variance derive mechanically from its children's moments.
#[derive(Debug, Clone, PartialEq)]
pub enum VarianceNode {
    /// A uniform with-replacement draw estimating the population mean by
    /// the sample mean.
    Uniform(MomentSketch),
    /// Independent uniform draws from disjoint strata with population
    /// weights `W_s`, combined as `Σ W_s·x̄_s` (weights renormalised over
    /// the strata actually sampled).
    StratifiedConcat {
        /// Population weights `W_s = N_s/N`, in stratum order.
        weights: Vec<f64>,
        /// Per-stratum observation sketches, aligned with `weights`.
        strata: Vec<MomentSketch>,
    },
}

impl VarianceNode {
    /// Convenience constructor for the stratified node.
    ///
    /// # Panics
    /// When `weights` and `strata` lengths differ.
    #[must_use]
    pub fn stratified(weights: Vec<f64>, strata: Vec<MomentSketch>) -> Self {
        assert_eq!(weights.len(), strata.len(), "one weight per stratum sketch");
        VarianceNode::StratifiedConcat { weights, strata }
    }

    /// Total observations under this node.
    #[must_use]
    pub fn count(&self) -> usize {
        match self {
            VarianceNode::Uniform(m) => m.count(),
            VarianceNode::StratifiedConcat { strata, .. } => {
                strata.iter().map(MomentSketch::count).sum()
            }
        }
    }

    /// The point estimate (`None` when no child has observations).
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self {
            VarianceNode::Uniform(m) => m.mean(),
            VarianceNode::StratifiedConcat { weights, strata } => {
                let means: Vec<Option<f64>> = strata.iter().map(MomentSketch::mean).collect();
                weighted_combine(weights, &means)
            }
        }
    }

    /// The estimator's variance, composed mechanically.
    ///
    /// `None` when any contributing part cannot yet report a variance — a
    /// uniform node below two observations, a *sampled* stratum below two
    /// observations (an unsampled stratum is excluded by renormalisation,
    /// matching [`estimate`](Self::estimate)).  Callers
    /// treat `None` exactly like a missing jackknife: no confidence
    /// interval yet, keep drawing.
    #[must_use]
    pub fn variance(&self) -> Option<f64> {
        match self {
            VarianceNode::Uniform(m) => Some(m.sample_variance()? / m.count() as f64),
            VarianceNode::StratifiedConcat { weights, strata } => {
                let live_weight: f64 = weights
                    .iter()
                    .zip(strata)
                    .filter(|(_, m)| m.count() > 0)
                    .map(|(w, _)| w)
                    .sum();
                if live_weight <= 0.0 {
                    return None;
                }
                let mut var = 0.0;
                for (w, m) in weights.iter().zip(strata) {
                    if m.count() == 0 {
                        continue;
                    }
                    let w = w / live_weight;
                    var += w * w * m.sample_variance()? / m.count() as f64;
                }
                Some(var)
            }
        }
    }

    /// Standard error `√Var` (`None` whenever [`variance`](Self::variance)
    /// is).
    #[must_use]
    pub fn std_error(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::grouped_jackknife_variance;

    fn sketch(xs: &[f64]) -> MomentSketch {
        let mut m = MomentSketch::new();
        for &x in xs {
            m.observe(x);
        }
        m
    }

    fn two_pass_variance(xs: &[f64]) -> f64 {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
    }

    #[test]
    fn welford_matches_the_two_pass_formulas() {
        let xs = [0.3, 0.9, 0.1, 0.4, 0.4, 0.75, 0.02];
        let m = sketch(&xs);
        assert_eq!(m.count(), xs.len());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((m.mean().unwrap() - mean).abs() < 1e-12);
        assert!((m.sample_variance().unwrap() - two_pass_variance(&xs)).abs() < 1e-12);
        // Degenerate counts.
        assert_eq!(MomentSketch::new().mean(), None);
        assert_eq!(sketch(&[1.0]).sample_variance(), None);
    }

    #[test]
    fn merging_sketches_equals_one_combined_stream() {
        let a = [0.1, 0.5, 0.9, 0.3];
        let b = [0.2, 0.8];
        let mut merged = sketch(&a);
        merged.merge(&sketch(&b));
        let combined: Vec<f64> = a.iter().chain(&b).copied().collect();
        let direct = sketch(&combined);
        assert_eq!(merged.count(), direct.count());
        assert!((merged.mean().unwrap() - direct.mean().unwrap()).abs() < 1e-12);
        assert!(
            (merged.sample_variance().unwrap() - direct.sample_variance().unwrap()).abs() < 1e-12
        );
        // Merging with empty is the identity, both ways.
        let mut empty = MomentSketch::new();
        empty.merge(&direct);
        assert_eq!(empty, direct);
        let mut also = direct.clone();
        also.merge(&MomentSketch::new());
        assert_eq!(also, direct);
    }

    #[test]
    fn uniform_node_agrees_with_the_delete_one_jackknife_of_the_mean() {
        // The case where the algebra and the jackknife MUST agree: for the
        // sample mean, the delete-1 jackknife variance is algebraically
        // s²/r.  This pins the two variance paths to each other.
        let xs = [0.3, 0.9, 0.1, 0.44, 0.62, 0.05, 0.81, 0.37];
        let node = VarianceNode::Uniform(sketch(&xs));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let loo: Vec<f64> = (0..xs.len())
            .map(|skip| {
                let rest: Vec<f64> = xs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, &x)| x)
                    .collect();
                rest.iter().sum::<f64>() / rest.len() as f64
            })
            .collect();
        let sizes = vec![1usize; xs.len()];
        let jk = grouped_jackknife_variance(mean, &loo, &sizes).unwrap();
        let algebra = node.variance().unwrap();
        assert!(
            (jk - algebra).abs() < 1e-12,
            "jackknife {jk} vs algebra {algebra}"
        );
        assert!((node.estimate().unwrap() - mean).abs() < 1e-12);
    }

    #[test]
    fn single_stratum_concat_reduces_to_uniform() {
        let xs = [0.2, 0.6, 0.35, 0.8, 0.11];
        let uniform = VarianceNode::Uniform(sketch(&xs));
        let strat = VarianceNode::stratified(vec![1.0], vec![sketch(&xs)]);
        assert_eq!(strat.estimate(), uniform.estimate());
        assert_eq!(strat.variance(), uniform.variance());
    }

    #[test]
    fn homogeneous_strata_beat_the_pooled_uniform_variance() {
        // The clustering payoff: two internally-constant strata with very
        // different means.  Pooled, the variance is huge; stratified, it
        // collapses to ~0.
        let low: Vec<f64> = (0..50).map(|i| 0.1 + 0.0001 * (i % 3) as f64).collect();
        let high: Vec<f64> = (0..50).map(|i| 0.9 - 0.0001 * (i % 3) as f64).collect();
        let pooled: Vec<f64> = low.iter().chain(&high).copied().collect();
        let uniform = VarianceNode::Uniform(sketch(&pooled));
        let strat = VarianceNode::stratified(vec![0.5, 0.5], vec![sketch(&low), sketch(&high)]);
        // Same point estimate (equal weights, equal counts)...
        assert!((uniform.estimate().unwrap() - strat.estimate().unwrap()).abs() < 1e-9);
        // ...but orders of magnitude less variance.
        assert!(strat.variance().unwrap() < uniform.variance().unwrap() / 100.0);
    }

    #[test]
    fn missing_and_thin_strata_gate_the_variance() {
        // An unsampled stratum renormalises away; a 1-observation stratum
        // blocks the variance (but not the estimate).
        let node = VarianceNode::stratified(
            vec![0.5, 0.3, 0.2],
            vec![sketch(&[0.4, 0.6]), MomentSketch::new(), sketch(&[0.5])],
        );
        assert!(node.estimate().is_some());
        assert_eq!(node.variance(), None, "a thin sampled stratum gates");
        let node = VarianceNode::stratified(
            vec![0.5, 0.3, 0.2],
            vec![
                sketch(&[0.4, 0.6]),
                MomentSketch::new(),
                sketch(&[0.5, 0.55]),
            ],
        );
        let expected = {
            // Renormalised over the two sampled strata: 0.5/0.7 and 0.2/0.7.
            let w1 = 0.5 / 0.7;
            let w2 = 0.2 / 0.7;
            w1 * w1 * two_pass_variance(&[0.4, 0.6]) / 2.0
                + w2 * w2 * two_pass_variance(&[0.5, 0.55]) / 2.0
        };
        assert!((node.variance().unwrap() - expected).abs() < 1e-12);
        // Nothing sampled at all: no estimate, no variance.
        let empty = VarianceNode::stratified(vec![1.0], vec![MomentSketch::new()]);
        assert_eq!(empty.estimate(), None);
        assert_eq!(empty.variance(), None);
    }

    #[test]
    fn ns_statistic_and_theorem_one_worst_case() {
        use samplecf_storage::Value;
        // ℓᵢ/k for strings and the paper's worst case: a [0,1] variable has
        // s² ≤ 1/4 (+ the n/(n-1) unbiasing factor), so s²/r never exceeds
        // Theorem 1's 1/(4r) bound by more than that factor.
        assert!((ns_row_statistic(Value::str("abc").logical_len(), 8) - 0.375).abs() < 1e-12);
        assert_eq!(ns_row_statistic(Value::Null.logical_len(), 8), 0.0);
        let worst: Vec<f64> = (0..100).map(|i| f64::from(i % 2)).collect();
        let node = VarianceNode::Uniform(sketch(&worst));
        let bound = crate::theory::ns_variance_bound(worst.len(), 1.0);
        assert!(node.variance().unwrap() <= bound * 100.0 / 99.0 + 1e-12);
        assert!(node.variance().unwrap() > bound * 0.9);
    }

    #[test]
    fn weighted_combine_renormalises_over_live_entries() {
        let w = [0.6, 0.3, 0.1];
        assert_eq!(
            weighted_combine(&w, &[Some(1.0), Some(1.0), Some(1.0)]),
            Some(1.0)
        );
        let v = weighted_combine(&w, &[Some(0.2), None, Some(0.8)]).unwrap();
        let expected = (0.6 * 0.2 + 0.1 * 0.8) / 0.7;
        assert!((v - expected).abs() < 1e-12);
        assert_eq!(weighted_combine(&w, &[None, None, None]), None);
        assert_eq!(weighted_combine(&[], &[]), None);
    }
}
