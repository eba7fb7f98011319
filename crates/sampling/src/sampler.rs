//! The sampled-row type and the size rules every sampler shares.

use crate::error::{SamplingError, SamplingResult};
use rand::{Rng, RngCore};
use samplecf_storage::{Rid, Row};

/// A sampled row: its identifier in the base table plus the row itself.
pub type SampledRow = (Rid, Row);

/// Validate a sampling fraction, which must lie in (0, 1].
pub fn validate_fraction(fraction: f64) -> SamplingResult<f64> {
    if !(fraction > 0.0 && fraction <= 1.0 && fraction.is_finite()) {
        return Err(SamplingError::InvalidFraction(format!(
            "fraction must be in (0, 1], got {fraction}"
        )));
    }
    Ok(fraction)
}

/// The sample size `r = max(1, round(f·n))` of fraction-based samplers, in
/// the sampler's unit (rows, or pages for block sampling): at least one
/// unit whenever the table has any, exactly `n` at `fraction == 1.0`, and
/// zero for an empty table.
#[must_use]
pub fn target_size(n: usize, fraction: f64) -> usize {
    if n == 0 {
        0
    } else {
        ((n as f64 * fraction).round() as usize).clamp(1, n)
    }
}

/// The size `M ~ Binomial(n, p)` of a Bernoulli(`p`) sample of `n` rows,
/// counted by geometric skips: one `gen::<f64>()` per kept row plus one
/// that runs past the end (none at all for `p = 1`, which keeps all `n`).
/// A Bernoulli sample conditioned on its size is a uniform sample without
/// replacement of that size, so this count is all the draw needs beyond a
/// uniform-wor draw's positions.
pub fn bernoulli_size(n: usize, p: f64, rng: &mut dyn RngCore) -> usize {
    if p >= 1.0 {
        return n;
    }
    // P(skip ≥ k) = P(1 − u ≤ (1 − p)^k) = (1 − p)^k: the rows passed over
    // before the next kept one.
    let log_q = (-p).ln_1p();
    let (mut kept, mut next) = (0, 0.0);
    loop {
        let skip = ((1.0 - rng.gen::<f64>()).ln() / log_q).floor();
        let at = next + skip;
        if at >= n as f64 {
            return kept;
        }
        kept += 1;
        next = at + 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fraction_validation() {
        assert!(validate_fraction(0.01).is_ok());
        assert!(validate_fraction(1.0).is_ok());
        assert!(validate_fraction(0.0).is_err());
        assert!(validate_fraction(-0.5).is_err());
        assert!(validate_fraction(1.5).is_err());
        assert!(validate_fraction(f64::NAN).is_err());
    }

    #[test]
    fn target_size_rounds_and_clamps() {
        assert_eq!(target_size(1000, 0.01), 10);
        assert_eq!(target_size(1000, 0.0004), 1);
        assert_eq!(target_size(1000, 1.0), 1000);
        assert_eq!(target_size(0, 0.5), 0);
        assert_eq!(target_size(3, 0.99), 3);
        // Empty → 0, tiny fraction → 1, fraction 1.0 → everything.
        assert_eq!(target_size(0, 1.0), 0);
        assert_eq!(target_size(40, 0.0001), 1);
        assert_eq!(target_size(40, 1.0), 40);
        assert_eq!(target_size(40, 0.25), 10);
    }

    #[test]
    fn bernoulli_size_is_binomial() {
        // Mean n·p and variance n·p·(1 − p) over many seeds, within four
        // standard errors of each.
        let (n, p, seeds) = (1_000, 0.1, 4_000);
        let sizes: Vec<f64> = (0..seeds)
            .map(|seed| bernoulli_size(n, p, &mut StdRng::seed_from_u64(seed)) as f64)
            .collect();
        let mean = sizes.iter().sum::<f64>() / seeds as f64;
        let var = sizes.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (seeds - 1) as f64;
        let (mu, sigma2) = (n as f64 * p, n as f64 * p * (1.0 - p));
        assert!(
            (mean - mu).abs() < 4.0 * (sigma2 / seeds as f64).sqrt(),
            "mean {mean}"
        );
        // The sample variance's standard error is about σ²·√(2/(k − 1)).
        let se = sigma2 * (2.0 / (seeds - 1) as f64).sqrt();
        assert!((var - sigma2).abs() < 4.0 * se, "variance {var}");
    }

    #[test]
    fn bernoulli_size_edges() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(bernoulli_size(0, 0.5, &mut rng), 0);
        // p = 1 keeps every row and consumes no randomness.
        let before = rng.clone().gen::<u64>();
        assert_eq!(bernoulli_size(777, 1.0, &mut rng), 777);
        assert_eq!(rng.gen::<u64>(), before);
        // A tiny p over a small table keeps nothing almost surely.
        assert_eq!(bernoulli_size(100, 1e-12, &mut rng), 0);
    }
}
