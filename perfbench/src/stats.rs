//! Order statistics used by the reports: nearest-rank percentiles, the rule
//! for which percentile a sample count may quote, and the quartile spread
//! `check` compares against a metric's bound.

/// Nearest-rank percentile (`p` in 0..=100); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle values for an even count (what
/// Python's `statistics.median` returns); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentiles a report may quote, ascending, in tenths of a percent
/// (whole numbers, so that "ten samples beyond" is exact arithmetic).
const LADDER_PERMILLE: [u64; 4] = [500, 900, 990, 999];

/// The highest percentile on the ladder that is at most `wanted` and still
/// has at least ten samples beyond it; `None` when even the median has not.
pub fn reportable_percentile(samples: usize, wanted: f64) -> Option<f64> {
    LADDER_PERMILLE
        .into_iter()
        .rev()
        .find(|&p| p as f64 <= wanted * 10.0 && samples as u64 * (1_000 - p) >= 10_000)
        .map(|p| p as f64 / 10.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 when there
/// are too few values to have one or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1).abs() / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        // 120 ops: 12 samples lie beyond p90, 1.2 beyond p99.
        assert_eq!(reportable_percentile(120, 99.0), Some(90.0));
        assert_eq!(reportable_percentile(120, 90.0), Some(90.0));
        assert_eq!(reportable_percentile(99, 90.0), Some(50.0));
        assert_eq!(reportable_percentile(100, 90.0), Some(90.0));
        assert_eq!(reportable_percentile(1_000, 99.0), Some(99.0));
        assert_eq!(reportable_percentile(999, 99.0), Some(90.0));
        assert_eq!(reportable_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(reportable_percentile(19, 50.0), None);
        assert_eq!(reportable_percentile(20, 50.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
