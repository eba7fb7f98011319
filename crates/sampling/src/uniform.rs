//! Row-level samplers that scan: one stream for the single-scan keep-rules.
//!
//! A [`ScanStream`] reads the table once and keeps what a [`KeepRule`]
//! selects: Bernoulli, systematic or reservoir.  The uniform row draws pick
//! positions instead: they are the one-stratum case of the
//! [`StratifiedStream`](crate::stratified::StratifiedStream), and the tests
//! here pin what every row-level kind draws one-shot.

use crate::batch::RecordBatch;
use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::reservoir;
use crate::stream::{BatchPlan, BatchSchedule, SampleStream};
use rand::{Rng, RngCore};
use samplecf_storage::{PageId, Rid, TableSource};

/// One scan of the source that checks only the records `slot_for` places.
///
/// `slot_for` is asked once per row, in storage order, with the number of
/// records kept so far, and answers where the record goes in the output:
/// `None` to skip it, `Some(kept)` to append it, a smaller index to replace
/// the record held there.  Each page is read once and the records of
/// skipped slots are never checked.
fn scan_keeping(
    source: &dyn TableSource,
    mut slot_for: impl FnMut(usize) -> Option<usize>,
) -> SamplingResult<RecordBatch> {
    let codec = source.codec();
    let mut out = RecordBatch::new(codec);
    for pid in 0..source.num_pages() as PageId {
        let page = source.read_page_ref(pid)?;
        for slot in 0..page.slot_count() {
            let Some(at) = slot_for(out.len()) else {
                continue;
            };
            let (rid, record) = (Rid::new(pid, slot), page.get(slot)?);
            if at == out.len() {
                out.push(codec, rid, record)?;
            } else {
                out.replace(at, codec, rid, record)?;
            }
        }
    }
    Ok(out)
}

/// Which rows a [`ScanStream`]'s single scan keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeepRule {
    /// Every row independently with this probability, so the sample size
    /// itself is random: one `gen::<f64>()` per row, in storage order.
    Bernoulli(f64),
    /// A random starting offset, then every `round(1/fraction)`-th row.
    /// Cheap to execute but sensitive to periodic data; a baseline for the
    /// block-sampling experiments.
    Systematic(f64),
    /// A fixed-size uniform sample without replacement (Vitter's Algorithm
    /// R, see [`reservoir`]).
    Reservoir(usize),
}

impl KeepRule {
    fn kind(self) -> SamplerKind {
        match self {
            KeepRule::Bernoulli(p) => SamplerKind::Bernoulli(p),
            KeepRule::Systematic(f) => SamplerKind::Systematic(f),
            KeepRule::Reservoir(size) => SamplerKind::Reservoir(size),
        }
    }

    /// Scan `source` once, keeping what the rule selects.
    fn scan(self, source: &dyn TableSource, rng: &mut dyn RngCore) -> SamplingResult<RecordBatch> {
        match self {
            KeepRule::Bernoulli(p) => {
                scan_keeping(source, |kept| (rng.gen::<f64>() < p).then_some(kept))
            }
            KeepRule::Systematic(f) => {
                let n = source.num_rows();
                if n == 0 {
                    return Ok(RecordBatch::new(source.codec()));
                }
                let step = (1.0 / f).round().max(1.0) as usize;
                let start = rng.gen_range(0..step.min(n));
                let mut i = 0usize;
                scan_keeping(source, |kept| {
                    let keep = i >= start && (i - start).is_multiple_of(step);
                    i += 1;
                    keep.then_some(kept)
                })
            }
            KeepRule::Reservoir(size) => {
                let mut seen = 0usize;
                scan_keeping(source, |_| {
                    let slot = reservoir::slot_for(size, seen, rng);
                    seen += 1;
                    slot
                })
            }
        }
    }
}

/// The scan samplers' stream.  A scan sampler needs the complete scan
/// before any row's membership is final, so the first batch runs the scan
/// (paying the full-scan I/O) and later batches emit slices of the records
/// it kept on the stream's schedule — a reservoir's in a random order, so
/// that each slice prefix is itself a uniform sample.  Progressive consumers still get growing
/// sub-samples to measure on, but no I/O is saved by stopping early — the
/// honest cost model of scan-based samplers — and the draw cannot be
/// deepened: rows the scan skipped or evicted are gone.
pub struct ScanStream {
    rule: KeepRule,
    schedule: BatchSchedule,
    /// Bound by the first batch: the kept records, and the slice targets.
    scanned: Option<(RecordBatch, BatchPlan)>,
    emitted: usize,
}

impl ScanStream {
    pub(crate) fn new(rule: KeepRule, schedule: BatchSchedule) -> Self {
        ScanStream {
            rule,
            schedule,
            scanned: None,
            emitted: 0,
        }
    }
}

impl SampleStream for ScanStream {
    fn kind(&self) -> SamplerKind {
        self.rule.kind()
    }

    fn next_records(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        if self.scanned.is_none() {
            let mut kept = self.rule.scan(source, rng)?;
            // Slice targets follow the same row schedule as the other
            // streams, capped at what the scan kept.
            let plan = BatchPlan::new(self.schedule, source.num_rows(), kept.len());
            // Algorithm R's slot `j` holds row `j` unless a later row evicted
            // it, so a prefix of `m` slots never holds a row of `[m, size)`:
            // shuffled once, every prefix is a uniform sample.  A one-slice
            // draw keeps the reservoir's order.
            let sliced = plan.next_target().is_some_and(|first| first < kept.len());
            if sliced && matches!(self.rule, KeepRule::Reservoir(_)) {
                kept.shuffle(rng);
            }
            self.scanned = Some((kept, plan));
        }
        let (kept, plan) = self.scanned.as_mut().expect("scanned above");
        let Some(target) = plan.next_target() else {
            return Ok(RecordBatch::new(source.codec()));
        };
        let batch = if self.emitted == 0 && target == kept.len() {
            // One slice is all of it (the one-shot schedule): hand it over.
            std::mem::replace(kept, RecordBatch::new(source.codec()))
        } else {
            kept.slice(self.emitted..target)
        };
        self.emitted = target;
        plan.advance();
        Ok(batch)
    }

    fn exhausted(&self) -> bool {
        (self.scanned.as_ref()).is_some_and(|(_, plan)| plan.exhausted())
    }

    fn extend_cap(&mut self, _kind: SamplerKind) -> bool {
        false
    }

    fn extendable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SampledRow;
    use crate::stream::tests::draw;
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

    fn distinct_rids(sample: &[SampledRow]) -> usize {
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        distinct.len()
    }

    #[test]
    fn with_replacement_draws_exact_count_and_allows_duplicates() {
        let t = table(200);
        let sample = draw(SamplerKind::UniformWithReplacement(0.5), &t, 1);
        assert_eq!(sample.len(), 100);
        // With 100 draws from 200 rows, duplicates are essentially certain.
        assert!(distinct_rids(&sample) < sample.len());
    }

    #[test]
    fn without_replacement_draws_distinct_rows() {
        let t = table(200);
        let sample = draw(SamplerKind::UniformWithoutReplacement(0.25), &t, 2);
        assert_eq!(sample.len(), 50);
        assert_eq!(distinct_rids(&sample), 50);
    }

    #[test]
    fn bernoulli_sample_size_is_near_expectation() {
        let t = table(5000);
        let sample = draw(SamplerKind::Bernoulli(0.1), &t, 3);
        assert!((sample.len() as f64 - 500.0).abs() < 5.0 * (5000.0f64 * 0.1 * 0.9).sqrt());
    }

    #[test]
    fn systematic_sampler_covers_the_table_evenly() {
        let t = table(1000);
        let sample = draw(SamplerKind::Systematic(0.01), &t, 4);
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
        // the streams select by slot first and decode only what they keep.
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
                let sample = draw(SamplerKind::Bernoulli(f), &t, seed);
                assert_eq!(sample, reference, "bernoulli f={f} seed={seed}");

                let step = (1.0 / f).round().max(1.0) as usize;
                let start = rng(seed).gen_range(0..step.min(all_rows.len()));
                let reference: Vec<SampledRow> =
                    all_rows.iter().skip(start).step_by(step).cloned().collect();
                let sample = draw(SamplerKind::Systematic(f), &t, seed);
                assert_eq!(sample, reference, "systematic f={f} seed={seed}");
            }
        }
    }

    #[test]
    fn small_fractions_still_return_at_least_one_row() {
        let t = table(50);
        for kind in [
            SamplerKind::UniformWithReplacement(0.001),
            SamplerKind::UniformWithoutReplacement(0.001),
        ] {
            assert_eq!(draw(kind, &t, 5).len(), 1);
        }
    }

    #[test]
    fn empty_table_yields_empty_samples() {
        let t = table(0);
        for kind in [
            SamplerKind::UniformWithReplacement(0.1),
            SamplerKind::UniformWithoutReplacement(0.1),
            SamplerKind::Bernoulli(0.1),
            SamplerKind::Systematic(0.1),
        ] {
            assert!(draw(kind, &t, 6).is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn full_fraction_returns_the_whole_table() {
        // Unified edge behaviour: fraction == 1.0 covers every row.
        let t = table(120);
        let sample = draw(SamplerKind::UniformWithoutReplacement(1.0), &t, 8);
        assert_eq!(sample.len(), 120);
        assert_eq!(distinct_rids(&sample), 120);
        for kind in [
            SamplerKind::UniformWithReplacement(1.0),
            SamplerKind::Systematic(1.0),
            SamplerKind::Bernoulli(1.0),
        ] {
            assert_eq!(draw(kind, &t, 8).len(), 120, "{kind:?}");
        }
    }

    #[test]
    fn invalid_fractions_rejected() {
        for kind in [
            SamplerKind::UniformWithReplacement(0.0),
            SamplerKind::UniformWithoutReplacement(2.0),
            SamplerKind::Bernoulli(-1.0),
            SamplerKind::Systematic(f64::INFINITY),
        ] {
            assert!(kind.stream(BatchSchedule::one_shot()).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn sampling_is_reproducible_for_a_fixed_seed() {
        let t = table(300);
        let kind = SamplerKind::UniformWithReplacement(0.1);
        let a = draw(kind, &t, 42);
        let b = draw(kind, &t, 42);
        assert_eq!(a, b);
        let c = draw(kind, &t, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn inclusion_probabilities_are_roughly_uniform() {
        // Draw many with-replacement samples and check that every row is hit
        // a comparable number of times (loose 3x band).
        let t = table(50);
        let mut counts = vec![0usize; 50];
        for seed in 0..200 {
            for (_, row) in draw(SamplerKind::UniformWithReplacement(1.0), &t, seed) {
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
