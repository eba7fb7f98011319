//! The sampled-row type and the size rules every sampler shares.

use crate::error::{SamplingError, SamplingResult};
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
