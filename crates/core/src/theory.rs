//! Analytical results from Section III of the paper.
//!
//! * **Theorem 1** (Null Suppression): SampleCF is unbiased and its standard
//!   deviation is at most `1 / (2·√r)` where `r = f·n` is the sample size.
//!   (The null-suppressed length of a tuple is bounded by the column width
//!   `k`, so the variance of a single draw of `ℓᵢ/k` is at most 1/4; a mean
//!   over `r` independent draws divides that by `r`.)  The paper's Example 1
//!   (n = 100M, r = 1M) gives a bound of 5·10⁻⁴.
//! * **Theorems 2 and 3** (Dictionary Compression, simplified global model):
//!   even though distinct-value estimation is hard in general, SampleCF's
//!   *ratio error* is small when `d` is small (`d = o(n)`, Theorem 2) and
//!   bounded by a constant when `d` is large (`d = Θ(n)`, Theorem 3).
//!
//! Besides the worst-case bounds, this module provides the *expected-value*
//! model of the dictionary-compression estimate under uniform value
//! frequencies, which the experiments compare against measurements, and the
//! *design variance* a progressive run measures in place of Theorem 1's
//! worst case ([`design_variance`]).

use samplecf_index::UnitSums;
use samplecf_sampling::SamplerKind;
use samplecf_storage::TableSource;

/// Theorem 1: upper bound on the standard deviation of the Null-Suppression
/// estimate, as a function of the sample size `r`.
#[must_use]
pub fn ns_stddev_bound_for_sample(sample_rows: usize) -> f64 {
    if sample_rows == 0 {
        return f64::INFINITY;
    }
    1.0 / (2.0 * (sample_rows as f64).sqrt())
}

/// Theorem 1 stated in terms of the table size `n` and sampling fraction `f`
/// (`r = f·n`): `σ(CF'_NS) ≤ 1 / (2·√(f·n))`.
#[must_use]
pub fn ns_stddev_bound(rows: usize, fraction: f64) -> f64 {
    if rows == 0 || fraction <= 0.0 {
        return f64::INFINITY;
    }
    ns_stddev_bound_for_sample((rows as f64 * fraction).round() as usize)
}

/// Variance form of the Theorem 1 bound: `Var(CF'_NS) ≤ 1 / (4·f·n)` —
/// this is the entry in the paper's Table II.
#[must_use]
pub fn ns_variance_bound(rows: usize, fraction: f64) -> f64 {
    let s = ns_stddev_bound(rows, fraction);
    if s.is_finite() {
        s * s
    } else {
        f64::INFINITY
    }
}

/// Chebyshev multiplier for a two-sided confidence interval at the given
/// confidence level `1 − δ`: `z = 1/√δ`, so that `P(|X − E[X]| ≥ z·σ) ≤ δ`
/// for *any* distribution with standard deviation `σ`.
///
/// The progressive estimator's stopping rule is distribution-free on
/// purpose: Theorem 1 bounds the variance of the estimate but says nothing
/// about its shape, so Chebyshev is the inequality that matches the
/// paper's own style of guarantee.  Returns infinity for a degenerate
/// confidence of 1.0 (δ = 0 admits no finite interval).
#[must_use]
pub fn chebyshev_z(confidence: f64) -> f64 {
    let delta = 1.0 - confidence;
    if delta <= 0.0 {
        return f64::INFINITY;
    }
    if delta >= 1.0 {
        return 0.0;
    }
    1.0 / delta.sqrt()
}

/// Fewest sampling units a design variance is estimated from.  The
/// estimate's own noise is what lets a stopping rule fire early: from two
/// units — a block sample's first pages — it comes out small often enough
/// that block null suppression's intervals covered 0.78–0.94 at 95%
/// nominal (20 000-row tables on 8 KiB pages); from ten units on, every
/// cell of the coverage matrix (`crates/core/tests/coverage.rs`) holds.  A
/// rule, not a knob.
pub const MIN_DESIGN_UNITS: u64 = 10;

/// What a sample's units are, for its design variance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Each drawn row: uniform, Bernoulli, reservoir and stratified draws.
    Row,
    /// Each drawn heap page with all its rows: a block sample is a cluster
    /// sample of pages (Nirkhiwale et al.'s sampling algebra).
    Page,
}

/// How a sample was drawn, as far as its design variance cares: the unit,
/// and for a draw without replacement how many units it drew from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Design {
    /// The sampling unit.
    pub unit: Unit,
    /// The population's units `M` for a draw without replacement, whose
    /// variance shrinks by the finite-population correction `1 − m/M`;
    /// `None` for draws with replacement (uniform-wr, the strata).
    pub population: Option<usize>,
}

impl Design {
    /// The design a checkpoint of `sampler`'s draw from `source` is priced
    /// under: rows, or a block sample's pages; with replacement, or without
    /// from the source's rows or pages.  Every kind has one: a Bernoulli
    /// sample given its size is a uniform sample without replacement, and
    /// a reservoir is drawn as one.
    #[must_use]
    pub fn of(sampler: SamplerKind, source: &dyn TableSource) -> Design {
        let (unit, population) = match sampler {
            SamplerKind::UniformWithReplacement(_) | SamplerKind::Stratified { .. } => {
                (Unit::Row, None)
            }
            SamplerKind::UniformWithoutReplacement(_)
            | SamplerKind::Bernoulli(_)
            | SamplerKind::Reservoir(_) => (Unit::Row, Some(source.num_rows())),
            SamplerKind::Block(_) => (Unit::Page, Some(source.num_pages())),
        };
        Design { unit, population }
    }
}

/// The spread of one unit's ratio in a sample of `m ≥ 2` units with costs
/// `Y_u` over `X_u = x·n_u` uncompressed bytes (`x = entry_bytes`):
/// `Σ(Y_u − R̂·X_u)² / ((m − 1)·X̄²)` with `R̂ = ΣY/ΣX`.  For rows this is
/// the sample variance of `y/x`.  `None` below two units or with nothing
/// summed.
///
/// `(Σn)²·Σ(Y_u − R̂·X_u)²` is computed in integers, so it is exact and
/// never negative.
#[must_use]
pub fn unit_ratio_variance(sums: &UnitSums, entry_bytes: usize) -> Option<f64> {
    if sums.units < 2 || sums.entries == 0 || entry_bytes == 0 {
        return None;
    }
    let (n, y) = (i128::from(sums.entries), i128::from(sums.cost));
    let scaled = n * n * i128::from(sums.cost_sq) - 2 * y * n * i128::from(sums.entries_cost)
        + y * y * i128::from(sums.entries_sq);
    let m = sums.units as f64;
    let mean_x = entry_bytes as f64 * n as f64 / m;
    Some(scaled as f64 / (n as f64 * n as f64) / (m - 1.0) / (mean_x * mean_x))
}

/// The design variance of a ratio estimator of the CF, and the slack its
/// interval adds for the partial last leaf: per stratum `s` with live
/// weight `W_s` (renormalised over the strata with units, as
/// [`weighted_combine`](crate::estimator::weighted_combine) renormalises the
/// estimate),
///
/// ```text
/// v = Σ W_s² · fpc_s · Σ(Y_u − R̂_s·X_u)² / ((m_s − 1)·m_s·X̄_s²)
/// slack = Σ W_s · leaf_header / (x · Σn_s)
/// ```
///
/// with `fpc_s = 1 − m_s/M` for a draw without replacement from `M` units
/// and 1 with replacement.  An unstratified sample is one stratum of weight
/// one.  The slack bounds how far a partial last leaf's chunk headers move
/// the priced CF from the ratio of summed cell costs, in the sample and in
/// the population alike: `leaf_header` is one full leaf's headers.
///
/// `None` — no interval — below [`MIN_DESIGN_UNITS`] units in all, or when
/// a stratum with units has fewer than two.
#[must_use]
pub fn design_variance(
    design: Design,
    weights: &[f64],
    strata: &[UnitSums],
    entry_bytes: usize,
    leaf_header: usize,
) -> Option<(f64, f64)> {
    debug_assert_eq!(weights.len(), strata.len());
    let live = || (weights.iter().zip(strata)).filter(|(_, sums)| sums.units > 0);
    let live_weight: f64 = live().map(|(w, _)| w).sum();
    let units: u64 = strata.iter().map(|sums| sums.units).sum();
    if units < MIN_DESIGN_UNITS || live_weight <= 0.0 {
        return None;
    }
    let (mut variance, mut slack) = (0.0, 0.0);
    for (w, sums) in live() {
        let w = w / live_weight;
        let m = sums.units as f64;
        let fpc = design
            .population
            .map_or(1.0, |all| (1.0 - m / all as f64).max(0.0));
        variance += w * w * fpc * unit_ratio_variance(sums, entry_bytes)? / m;
        slack += w * leaf_header as f64 / (entry_bytes as f64 * sums.entries as f64);
    }
    Some((variance, slack))
}

/// Theorem 1 run backwards: the sample size `r` that guarantees
/// `P(|CF′_NS − CF_NS| ≥ ε) ≤ δ` for Null Suppression.
///
/// From `Var(CF′_NS) ≤ 1/(4r)` (Table II) and Chebyshev,
/// `P(|CF′ − CF| ≥ ε) ≤ 1/(4·r·ε²)`; solving `1/(4·r·ε²) ≤ δ` gives
/// `r ≥ 1/(4·ε²·δ)`.  This is the worst-case answer to "how big must the
/// sample be" — the progressive estimator's stopping rule replaces the
/// worst-case `1/4` with the measured design variance
/// ([`design_variance`]) and so usually stops much earlier.
#[must_use]
pub fn ns_sample_size_for(epsilon: f64, delta: f64) -> usize {
    if epsilon <= 0.0 || delta <= 0.0 {
        return usize::MAX;
    }
    (1.0 / (4.0 * epsilon * epsilon * delta)).ceil() as usize
}

/// Expected number of distinct values observed in a with-replacement sample
/// of `r` rows drawn from a table with `d` equally frequent distinct values:
/// `E[d'] = d·(1 − (1 − 1/d)^r)`.
#[must_use]
pub fn expected_sample_distinct(distinct: u64, sample_rows: u64) -> f64 {
    if distinct == 0 || sample_rows == 0 {
        return 0.0;
    }
    let d = distinct as f64;
    let r = sample_rows as f64;
    // Use ln1p for numerical stability when d is large.
    let log_term = r * (-1.0 / d).ln_1p();
    d * (1.0 - log_term.exp())
}

/// The dictionary-compression estimate SampleCF is *expected* to return under
/// the simplified global model with uniform frequencies:
/// `E[CF'_DC] ≈ (r·p + E[d']·k) / (r·k)`.
#[must_use]
pub fn dc_expected_estimate(
    rows: u64,
    distinct: u64,
    width: u64,
    pointer_bytes: u64,
    fraction: f64,
) -> f64 {
    let r = ((rows as f64 * fraction).round() as u64).max(1);
    let d_prime = expected_sample_distinct(distinct, r);
    dictionary_cf(r as f64, d_prime, width as f64, pointer_bytes as f64)
}

/// The true dictionary-compression fraction under the simplified model.
#[must_use]
pub fn dc_true_cf(rows: u64, distinct: u64, width: u64, pointer_bytes: u64) -> f64 {
    dictionary_cf(
        rows as f64,
        distinct as f64,
        width as f64,
        pointer_bytes as f64,
    )
}

/// The simplified (global-dictionary) model of Section III-B: `n` rows of
/// `char(k)` holding `d` distinct values, each row a `p`-byte pointer into
/// one dictionary, give `CF_DC = (n·p + d·k) / (n·k)`.  No rows or no width
/// is 1 (nothing to compress).
fn dictionary_cf(rows: f64, distinct: f64, width: f64, pointer_bytes: f64) -> f64 {
    if rows == 0.0 || width == 0.0 {
        return 1.0;
    }
    (rows * pointer_bytes + distinct * width) / (rows * width)
}

/// Expected ratio error of SampleCF for dictionary compression under the
/// simplified model with uniform frequencies (the quantity Theorems 2 and 3
/// bound in their respective regimes).
#[must_use]
pub fn dc_expected_ratio_error(
    rows: u64,
    distinct: u64,
    width: u64,
    pointer_bytes: u64,
    fraction: f64,
) -> f64 {
    let truth = dc_true_cf(rows, distinct, width, pointer_bytes);
    let est = dc_expected_estimate(rows, distinct, width, pointer_bytes, fraction);
    (est / truth).max(truth / est)
}

/// Worst-case ratio-error bound for the **small d** regime (Theorem 2's
/// setting, `d = o(n)`): the estimate and the truth both lie between `p/k`
/// and `p/k + d/n + d/r`, so the ratio error is at most
/// `1 + (d·k)/(r·p)` with `r = f·n`.
#[must_use]
pub fn dc_ratio_error_bound_small_d(
    rows: u64,
    distinct: u64,
    width: u64,
    pointer_bytes: u64,
    fraction: f64,
) -> f64 {
    let r = (rows as f64 * fraction).max(1.0);
    1.0 + (distinct as f64 * width as f64) / (r * pointer_bytes as f64)
}

/// Worst-case ratio-error bound for the **large d** regime (Theorem 3's
/// setting, `d = c·n`): the truth is at least `c` (the `d·k/(n·k)` term
/// alone), while the estimate never exceeds `p/k + 1`, and conversely the
/// estimate is at least `E[d']·k/(r·k) ≥ c·(1 − e^{−f/c})/f · ...`; we report
/// the dominating direction `⁠(p/k + 1) / c`, a constant independent of `n`.
#[must_use]
pub fn dc_ratio_error_bound_large_d(distinct_ratio: f64, width: u64, pointer_bytes: u64) -> f64 {
    if distinct_ratio <= 0.0 {
        return f64::INFINITY;
    }
    (pointer_bytes as f64 / width as f64 + 1.0) / distinct_ratio.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sums of units given as `(entries, cost)`.
    fn sums(units: &[(u64, u64)]) -> UnitSums {
        let mut sums = UnitSums::default();
        units.iter().for_each(|&(n, y)| sums.add(n, y));
        sums
    }

    /// Row units of the given costs.
    fn rows(costs: &[u64]) -> UnitSums {
        sums(&costs.iter().map(|&y| (1, y)).collect::<Vec<_>>())
    }

    const ROWS: Design = Design {
        unit: Unit::Row,
        population: None,
    };

    #[test]
    fn design_variance_matches_the_two_pass_formula() {
        // Pages of 3, 5, 4, 6, 2, ... entries, `x` = 8 bytes an entry.
        let pages: Vec<(u64, u64)> = (0..12).map(|i| (2 + i % 5, 5 + 7 * i % 23)).collect();
        let x = 8.0;
        let ratio = pages.iter().map(|p| p.1).sum::<u64>() as f64
            / (x * pages.iter().map(|p| p.0).sum::<u64>() as f64);
        let m = pages.len() as f64;
        let mean_x = x * pages.iter().map(|p| p.0 as f64).sum::<f64>() / m;
        let residuals: f64 = (pages.iter())
            .map(|&(n, y)| (y as f64 - ratio * x * n as f64).powi(2))
            .sum();
        let spread = residuals / ((m - 1.0) * mean_x * mean_x);
        let units = sums(&pages);
        let got = unit_ratio_variance(&units, 8).unwrap();
        assert!((got - spread).abs() < 1e-12 * spread, "{got} vs {spread}");
        // With replacement the variance is the spread over m; drawn without
        // replacement from 48 pages it shrinks by 1 − 12/48.
        let design = |population| Design {
            unit: Unit::Page,
            population,
        };
        let (with, slack) = design_variance(design(None), &[1.0], &[units], 8, 6).unwrap();
        assert!((with - spread / m).abs() < 1e-12 * with);
        let n = pages.iter().map(|p| p.0).sum::<u64>() as f64;
        assert!((slack - 6.0 / (x * n)).abs() < 1e-15);
        let (without, _) = design_variance(design(Some(48)), &[1.0], &[units], 8, 6).unwrap();
        assert!((without - with * 0.75).abs() < 1e-12 * with);
        // Rows are pages of one entry: the sample variance of y/x.
        let costs = [3, 9, 4, 4, 7, 1, 8, 2, 6, 5];
        let mean = costs.iter().sum::<u64>() as f64 / 10.0;
        let s2 = costs
            .iter()
            .map(|&y| (y as f64 - mean).powi(2))
            .sum::<f64>()
            / 9.0;
        let got = unit_ratio_variance(&rows(&costs), 4).unwrap();
        assert!((got - s2 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn missing_and_thin_strata_gate_the_variance() {
        let ten = rows(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!(design_variance(ROWS, &[1.0], &[ten], 16, 2).is_some());
        // Fewer than the minimum of units: no interval.
        let nine = rows(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(design_variance(ROWS, &[1.0], &[nine], 16, 2), None);
        // An unsampled stratum renormalises away; a sampled stratum of one
        // unit has no spread, so no interval.
        let empty = UnitSums::default();
        let weights = [0.5, 0.3, 0.2];
        let thin = design_variance(ROWS, &weights, &[ten, empty, rows(&[4])], 16, 2);
        assert_eq!(thin, None, "a thin sampled stratum gates");
        let two = rows(&[4, 6]);
        let (variance, slack) = design_variance(ROWS, &weights, &[ten, empty, two], 16, 2).unwrap();
        let (w1, w3) = (0.5 / 0.7, 0.2 / 0.7);
        let v = |sums: &UnitSums| unit_ratio_variance(sums, 16).unwrap() / sums.units as f64;
        let expected = w1 * w1 * v(&ten) + w3 * w3 * v(&two);
        assert!((variance - expected).abs() < 1e-15);
        let expected = w1 * 2.0 / (16.0 * 10.0) + w3 * 2.0 / (16.0 * 2.0);
        assert!((slack - expected).abs() < 1e-15);
        // Nothing sampled at all.
        assert_eq!(design_variance(ROWS, &[1.0], &[empty], 16, 2), None);
    }

    #[test]
    fn a_single_stratum_is_the_unstratified_design() {
        let costs = rows(&[2, 6, 3, 8, 1, 5, 5, 7, 2, 9, 4]);
        assert_eq!(
            design_variance(ROWS, &[1.0], &[costs], 24, 3),
            design_variance(ROWS, &[0.25], &[costs], 24, 3)
        );
    }

    #[test]
    fn homogeneous_strata_beat_the_pooled_variance() {
        // Two internally near-constant strata with very different costs:
        // pooled, the spread is huge; stratified, it all but vanishes.
        let low: Vec<u64> = (0..50).map(|i| 10 + i % 2).collect();
        let high: Vec<u64> = (0..50).map(|i| 90 - i % 2).collect();
        let pooled = rows(&[low.clone(), high.clone()].concat());
        let (pooled, _) = design_variance(ROWS, &[1.0], &[pooled], 100, 0).unwrap();
        let strata = [rows(&low), rows(&high)];
        let (stratified, _) = design_variance(ROWS, &[0.5, 0.5], &strata, 100, 0).unwrap();
        assert!(stratified < pooled / 100.0, "{stratified} vs {pooled}");
    }

    #[test]
    fn design_variance_meets_theorem_one_worst_case() {
        // A row's cost over its width lies in [0, 1], so its variance is at
        // most 1/4 (times the n/(n − 1) of the unbiased form): the design
        // variance of `r` rows never passes Theorem 1's 1/(4r) by more.
        let worst: Vec<u64> = (0..100).map(|i| 8 * (i % 2)).collect();
        let (variance, _) = design_variance(ROWS, &[1.0], &[rows(&worst)], 8, 0).unwrap();
        let bound = ns_variance_bound(worst.len(), 1.0);
        assert!(variance <= bound * 100.0 / 99.0 + 1e-12);
        assert!(variance > bound * 0.9);
    }

    #[test]
    fn theorem1_example_from_the_paper() {
        // Example 1: n = 100 million, r = 1 million (1% sample).
        let bound = ns_stddev_bound(100_000_000, 0.01);
        assert!((bound - 5e-4).abs() < 1e-9, "bound = {bound}");
        assert!((ns_stddev_bound_for_sample(1_000_000) - 5e-4).abs() < 1e-9);
        assert!((ns_variance_bound(100_000_000, 0.01) - 2.5e-7).abs() < 1e-12);
    }

    #[test]
    fn ns_bound_shrinks_with_sample_size() {
        assert!(ns_stddev_bound(10_000, 0.01) > ns_stddev_bound(10_000, 0.1));
        assert!(ns_stddev_bound(10_000, 0.01) > ns_stddev_bound(1_000_000, 0.01));
        assert_eq!(ns_stddev_bound(0, 0.1), f64::INFINITY);
        assert_eq!(ns_stddev_bound(100, 0.0), f64::INFINITY);
    }

    #[test]
    fn chebyshev_z_matches_known_values() {
        // 95% confidence: δ = 0.05, z = 1/√0.05 ≈ 4.4721.
        assert!((chebyshev_z(0.95) - 20.0f64.sqrt()).abs() < 1e-9);
        // 75% confidence is the textbook 2σ Chebyshev bound.
        assert!((chebyshev_z(0.75) - 2.0).abs() < 1e-9);
        assert_eq!(chebyshev_z(1.0), f64::INFINITY);
        assert_eq!(chebyshev_z(0.0), 0.0);
    }

    #[test]
    fn ns_sample_size_inverts_theorem_1() {
        // ε = 0.05, δ = 0.05: r = 1/(4·0.0025·0.05) = 2000.
        assert_eq!(ns_sample_size_for(0.05, 0.05), 2000);
        // The guarantee round-trips: with r = 2000 the variance bound gives
        // a Chebyshev deviation of at most ε at confidence 1 − δ.
        let sigma = ns_stddev_bound_for_sample(2000);
        assert!(chebyshev_z(0.95) * sigma <= 0.05 + 1e-12);
        // Tighter targets need more rows; degenerate targets need them all.
        assert!(ns_sample_size_for(0.01, 0.05) > ns_sample_size_for(0.05, 0.05));
        assert_eq!(ns_sample_size_for(0.0, 0.05), usize::MAX);
        assert_eq!(ns_sample_size_for(0.1, 0.0), usize::MAX);
    }

    #[test]
    fn expected_sample_distinct_limits() {
        // Sampling far more rows than distinct values sees almost all of them.
        let e = expected_sample_distinct(100, 10_000);
        assert!(e > 99.9);
        // Sampling one row sees exactly one value in expectation.
        assert!((expected_sample_distinct(1000, 1) - 1.0).abs() < 1e-9);
        // More distinct values than draws: expectation close to the draw count.
        let e = expected_sample_distinct(1_000_000, 100);
        assert!(e > 99.9 && e <= 100.0);
        assert_eq!(expected_sample_distinct(0, 10), 0.0);
    }

    #[test]
    fn dc_cf_matches_hand_computation() {
        // n=100, d=10, k=20, p=2: (200 + 200)/2000 = 0.2
        assert!((dc_true_cf(100, 10, 20, 2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dc_cf_grows_with_distinct_values() {
        let low = dc_true_cf(1000, 10, 20, 2);
        let high = dc_true_cf(1000, 900, 20, 2);
        assert!(low < high);
        assert!(high > 0.9);
    }

    #[test]
    fn dc_cf_degenerate_cases() {
        assert_eq!(dc_true_cf(0, 0, 20, 2), 1.0);
        assert_eq!(dc_true_cf(10, 3, 0, 2), 1.0);
    }

    #[test]
    fn dc_small_d_regime_has_ratio_error_near_one() {
        // Theorem 2: d = o(n) and n large enough that the sample size r = f·n
        // dwarfs d.  n = 100M, d = 10^4 = √n, k = 20, p = 2, f = 1%.
        let err = dc_expected_ratio_error(100_000_000, 10_000, 20, 2, 0.01);
        assert!(err < 1.15, "expected ratio error close to 1, got {err}");
        let bound = dc_ratio_error_bound_small_d(100_000_000, 10_000, 20, 2, 0.01);
        assert!(
            bound + 1e-9 >= err,
            "bound {bound} below expected error {err}"
        );
        assert!(bound < 1.2);
        // The error shrinks further as n grows, as Theorem 2 requires.
        let err_bigger_n = dc_expected_ratio_error(1_000_000_000, 10_000, 20, 2, 0.01);
        assert!(err_bigger_n < err);
    }

    #[test]
    fn dc_large_d_regime_has_constant_bounded_error() {
        // Theorem 3: d = c·n with c = 0.25.
        for n in [100_000u64, 1_000_000, 10_000_000] {
            let d = n / 4;
            let err = dc_expected_ratio_error(n, d, 20, 2, 0.01);
            let bound = dc_ratio_error_bound_large_d(0.25, 20, 2);
            assert!(err <= bound, "n={n}: err {err} exceeds bound {bound}");
            assert!(err < 4.0, "n={n}: err {err} should be a small constant");
        }
        // The bound itself does not depend on n.
        assert!((dc_ratio_error_bound_large_d(0.25, 20, 2) - (0.1 + 1.0) / 0.25).abs() < 1e-12);
    }

    #[test]
    fn dc_worst_errors_live_between_the_regimes() {
        // For fixed f, the expected ratio error peaks at intermediate d/n.
        let n = 1_000_000u64;
        let small = dc_expected_ratio_error(n, 100, 20, 2, 0.01);
        let mid = dc_expected_ratio_error(n, 50_000, 20, 2, 0.01);
        let large = dc_expected_ratio_error(n, 500_000, 20, 2, 0.01);
        assert!(mid > small, "mid {mid} should exceed small {small}");
        assert!(mid > large, "mid {mid} should exceed large {large}");
    }

    #[test]
    fn dc_estimate_overestimates_cf_never_underestimates_truth_scaling() {
        // Under the simplified model the estimate's d'/r >= d/n in expectation
        // is false in general; but the estimate is always >= p/k and <= p/k + 1.
        let est = dc_expected_estimate(1_000_000, 200_000, 20, 2, 0.05);
        assert!((2.0 / 20.0..=2.0 / 20.0 + 1.0).contains(&est));
    }
}
