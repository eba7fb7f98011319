//! Fixed-bucket log-linear histograms with lock-free recording.
//!
//! Every histogram has the same [`BUCKETS`] buckets on a log₂-scale
//! skeleton refined linearly inside each octave (the HdrHistogram layout):
//!
//! * values `0..=32` get **unit-width** buckets (`le` = 1, 2, …, 32);
//! * each octave `(2^k, 2^(k+1)]` above that is split into 16 linear
//!   sub-buckets of width `2^(k-4)`, so the relative bucket width is a
//!   constant ≤ 6.25% everywhere;
//! * one overflow bucket holds values above `2^63`.
//!
//! Upper bounds stay **exact at powers of two** — recording `2^k` lands in
//! the bucket whose `le` boundary is `2^k`, never the next one — which
//! keeps latency thresholds honest and is pinned by the proptest suite.
//! The linear refinement is what makes bucketed p99s tight enough for the
//! load harness to check stage-sum-vs-e2e quantile consistency within 10%.
//!
//! Recording is three relaxed atomic adds (bucket, sum, count); there is no
//! lock anywhere.  [`HistogramSnapshot`] is plain data: mergeable
//! (element-wise add, associative and commutative) and quantile-queryable
//! with within-bucket linear interpolation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// log₂ of the sub-bucket count: each octave holds `2^SUB_BITS / 2` new
/// boundaries (the lower half of an octave is covered by finer octaves
/// below it).
const SUB_BITS: usize = 5;
/// Size of the unit-width region: values `0..=SUBS` get exact buckets.
const SUBS: usize = 1 << SUB_BITS;
/// New boundaries contributed by each octave above the unit region.
const HALF: usize = SUBS / 2;
/// Octaves `(2^k, 2^(k+1)]` for `k` in `SUB_BITS..=62`; `(2^62, 2^63]` is
/// the last refined octave, values above `2^63` overflow.
const OCTAVES: usize = 63 - SUB_BITS;

/// Number of buckets in every histogram: the unit region, the refined
/// octaves, and the overflow bucket.
pub const BUCKETS: usize = SUBS + OCTAVES * HALF + 1;

/// Index of the bucket a value lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= SUBS as u64 {
        // Unit region: le = 1, 2, ..., 32 at indices 0..32 (0 shares 1's).
        (v.saturating_sub(1)) as usize
    } else {
        // ceil(log2(v)) via the bit length of v - 1; v > 32 so bits >= 6.
        let bits = 64 - (v - 1).leading_zeros() as usize;
        let k = bits - 1; // octave (2^k, 2^(k+1)]
        if k >= 63 {
            return BUCKETS - 1; // overflow: v > 2^63
        }
        // Sub-bucket width inside the octave is 2^(k+1)/32 = 2^(k+1-SUB_BITS).
        let w = k + 1 - SUB_BITS;
        let sub = (((v - (1u64 << k)) + (1u64 << w) - 1) >> w) as usize - 1;
        SUBS + (k - SUB_BITS) * HALF + sub
    }
}

/// The inclusive upper bound (`le`) of bucket `i`, or `None` for the
/// overflow bucket.
#[must_use]
pub fn bucket_le(i: usize) -> Option<u64> {
    if i < SUBS {
        Some(i as u64 + 1)
    } else if i < BUCKETS - 1 {
        let j = i - SUBS;
        let k = SUB_BITS + j / HALF;
        let sub = (j % HALF) as u64;
        Some((1u64 << k) + ((sub + 1) << (k + 1 - SUB_BITS)))
    } else {
        None
    }
}

/// The exclusive lower bound of bucket `i` (0 for the first bucket).
#[must_use]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i < BUCKETS {
        bucket_le(i - 1).expect("bucket below the overflow bucket has an le")
    } else {
        u64::MAX
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A handle to a registered histogram.  Cloning is an `Arc` clone; a
/// default (unregistered) handle records nothing (one branch per call).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    pub(crate) core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.core {
            core.record(v);
        }
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        if let Some(core) = &self.core {
            core.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// A snapshot of the current contents (all-zero for a no-op handle).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.core {
            Some(core) => core.snapshot(),
            None => HistogramSnapshot::empty(),
        }
    }
}

/// An immutable copy of a histogram's buckets, sum and count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; BUCKETS],
    /// Exact sum of every recorded value.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            count: 0,
        }
    }

    /// The arithmetic mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with linear interpolation inside
    /// the containing bucket, so estimates are not quantized to the
    /// factor-of-two bucket width.  Returns 0.0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += n;
            if cumulative as f64 >= target {
                let lo = bucket_lower_bound(i) as f64;
                let hi = match bucket_le(i) {
                    Some(le) => le as f64,
                    // Overflow bucket has no upper bound; report its lower
                    // bound rather than inventing one.
                    None => return lo,
                };
                let within = ((target - before) / n as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * within;
            }
        }
        // Unreachable when count equals the bucket total, but stay safe.
        bucket_lower_bound(BUCKETS - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        // Unit region: one bucket per integer up to 32.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(32), 31);
        // First refined octave (32, 64]: sub-buckets of width 2.
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 32);
        assert_eq!(bucket_index(35), 33);
        assert_eq!(bucket_index(64), 32 + 15);
        assert_eq!(bucket_index(65), 32 + 16);
        // Every bucket's le value lands in that bucket; le + 1 spills over.
        for i in 0..BUCKETS - 1 {
            let le = bucket_le(i).unwrap();
            assert_eq!(bucket_index(le), i, "le {le} must land in bucket {i}");
            if le < 1 << 63 {
                assert_eq!(bucket_index(le + 1), i + 1, "le {le} + 1 must spill");
            }
        }
        // Overflow.
        assert_eq!(bucket_index(1 << 63), BUCKETS - 2);
        assert_eq!(bucket_index((1 << 63) + 1), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let h = Histogram {
            core: Some(std::sync::Arc::new(HistogramCore::new())),
        };
        // 100 values spread across (4, 8].
        for _ in 0..100 {
            h.record(6);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5);
        assert!(p50 > 4.0 && p50 <= 8.0, "p50 = {p50}");
        // Interpolation keeps quantiles monotone in q.
        assert!(snap.quantile(0.9) >= snap.quantile(0.1));
    }
}
