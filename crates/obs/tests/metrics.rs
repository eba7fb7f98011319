//! Integration suite for the metrics substrate: exact power-of-two bucket
//! boundaries, exact sums under 16-thread concurrent recording, and
//! monotone quantiles and cumulative exposition (unit + proptest).

use proptest::prelude::*;
use samplecf_obs::{
    bucket_le, bucket_lower_bound, HistogramSnapshot, MetricValue, MetricsRegistry, BUCKETS,
};
use std::sync::Arc;

#[test]
fn bucket_boundaries_are_exact_at_powers_of_two() {
    // 2^k must land in the bucket whose `le` is exactly 2^k — the linear
    // sub-bucket refinement must never blur an octave boundary.
    for k in 0..63u32 {
        let v = 1u64 << k;
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h");
        h.record(v);
        let snap = h.snapshot();
        let bucket = snap
            .buckets
            .iter()
            .position(|&n| n == 1)
            .expect("the value was recorded somewhere");
        assert_eq!(
            bucket_le(bucket),
            Some(v),
            "2^{k} must land in the bucket whose le is exactly 2^{k}"
        );
        assert_eq!(snap.count, 1);
    }
}

#[test]
fn lower_bounds_tile_the_line() {
    for i in 1..BUCKETS - 1 {
        assert_eq!(
            Some(bucket_lower_bound(i)),
            bucket_le(i - 1),
            "bucket {i} lower bound must equal bucket {}'s le",
            i - 1
        );
    }
    assert_eq!(bucket_le(BUCKETS - 1), None, "last bucket is +Inf");
}

#[test]
fn concurrent_recording_from_16_threads_sums_exactly() {
    const THREADS: u64 = 16;
    const PER_THREAD: u64 = 10_000;
    let registry = MetricsRegistry::new();
    let h = registry.histogram("latency");
    let c = registry.counter("events");
    let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = h.clone();
            let c = c.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    // Deterministic per-thread values with a known total.
                    h.record(t * PER_THREAD + i);
                    c.inc();
                }
            });
        }
    });
    let snap = h.snapshot();
    let n = THREADS * PER_THREAD;
    assert_eq!(snap.count, n);
    assert_eq!(c.get(), n);
    // Sum of 0..(16 * 10_000 - 1): every value recorded exactly once.
    assert_eq!(snap.sum, n * (n - 1) / 2);
    assert_eq!(snap.buckets.iter().sum::<u64>(), n);
}

#[test]
fn registry_snapshot_is_consistent_under_concurrent_writes() {
    let registry = MetricsRegistry::new();
    let h = registry.histogram("h");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut observed = Vec::with_capacity(50);
    std::thread::scope(|scope| {
        let writer_h = h.clone();
        let writer_stop = Arc::clone(&stop);
        scope.spawn(move || {
            let mut v = 1u64;
            while !writer_stop.load(std::sync::atomic::Ordering::Relaxed) {
                writer_h.record(v);
                v = v.wrapping_mul(31).wrapping_add(7) % 1_000_000 + 1;
            }
        });
        // Only collect inside the scope; assertions wait until the writer
        // is stopped and joined — a panic here would make the scope join a
        // thread that never exits.
        for _ in 0..50 {
            if let Some(MetricValue::Histogram(hs)) = registry.snapshot().get("h") {
                observed.push((**hs).clone());
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    // A snapshot mid-write may tear (a record is three relaxed increments,
    // bucket first, count last), but every cell is monotone — successive
    // snapshots can only grow.
    for pair in observed.windows(2) {
        assert!(pair[0].count <= pair[1].count, "count went backwards");
        for (i, (a, b)) in pair[0]
            .buckets
            .iter()
            .zip(pair[1].buckets.iter())
            .enumerate()
        {
            assert!(a <= b, "bucket {i} went backwards: {a} then {b}");
        }
    }
    // With the writer joined, the final snapshot is exact and ahead of
    // everything observed mid-flight.
    let last = h.snapshot();
    assert_eq!(last.buckets.iter().sum::<u64>(), last.count);
    assert!(last.count >= observed.last().map_or(0, |s| s.count));
}

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let registry = MetricsRegistry::new();
    let h = registry.histogram("h");
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn power_of_two_values_land_on_their_le(k in 0u32..63) {
        let v = 1u64 << k;
        let snap = snapshot_of(&[v]);
        let bucket = snap.buckets.iter().position(|&n| n == 1).unwrap();
        prop_assert_eq!(bucket_le(bucket), Some(v.max(1)),
            "2^{} must be the le of its own bucket", k);
        // One above the boundary spills into the next bucket.
        if v > 1 {
            let above = snapshot_of(&[v + 1]);
            let next = above.buckets.iter().position(|&n| n == 1).unwrap();
            prop_assert_eq!(next, bucket + 1);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(1u64..1_000_000, 1..80),
        q1_milli in 0u32..=1000,
        q2_milli in 0u32..=1000,
    ) {
        let (q1, q2) = (f64::from(q1_milli) / 1000.0, f64::from(q2_milli) / 1000.0);
        let snap = snapshot_of(&values);
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let (lo, hi) = (snap.quantile(lo_q), snap.quantile(hi_q));
        prop_assert!(lo <= hi, "quantiles must be monotone: q{lo_q}={lo} q{hi_q}={hi}");
        let max = *values.iter().max().unwrap();
        let min = *values.iter().min().unwrap();
        // Within the log2 bucket of the true extremes.
        prop_assert!(hi <= (max.next_power_of_two()) as f64);
        prop_assert!(lo >= (min / 2) as f64);
    }

    #[test]
    fn exposition_counts_are_cumulative_and_end_at_count(
        values in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("x");
        for &v in &values {
            h.record(v);
        }
        let text = registry.expose();
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("x_bucket{le=") {
                let n: u64 = rest.split('}').nth(1).unwrap().trim().parse().unwrap();
                prop_assert!(n >= last, "bucket counts must be cumulative");
                last = n;
            }
        }
        prop_assert_eq!(last, values.len() as u64, "+Inf bucket must equal count");
        prop_assert!(text.contains(&format!("x_count {}", values.len())));
    }
}
