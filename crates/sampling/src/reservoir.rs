//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Draws a fixed-size uniform sample without replacement in a single pass
//! over the table, without knowing the number of rows in advance — the
//! classical technique referenced by the paper (\[5\] J.S. Vitter, "Random
//! Sampling with a Reservoir").  It is the one sampler that scans: its
//! [`ScanStream`] keeps memory at O(reservoir + one page), which is the
//! whole point of reservoir sampling on large (disk-resident) tables, and
//! checks only the records that enter the reservoir.

use crate::batch::RecordBatch;
use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::stream::{BatchPlan, BatchSchedule, SampleStream};
use rand::{Rng, RngCore};
use samplecf_storage::{Rid, TableSource};

/// Algorithm R's decision for the next scanned row: which slot of a
/// reservoir of `size` rows it takes, given that `seen` rows came before
/// it.  The first `size` rows fill the reservoir in order; row `seen` then
/// replaces a uniformly chosen slot with probability `size / (seen + 1)` —
/// one `gen_range(0..=seen)` per such row.
fn slot_for(size: usize, seen: usize, rng: &mut dyn RngCore) -> Option<usize> {
    if seen < size {
        return Some(seen);
    }
    Some(rng.gen_range(0..=seen)).filter(|&j| j < size)
}

/// One scan of `source` through Algorithm R: the table is one run of
/// pages, each read once, in storage order, and only the records that take
/// a slot are checked.
fn scan(
    source: &dyn TableSource,
    size: usize,
    rng: &mut dyn RngCore,
) -> SamplingResult<RecordBatch> {
    let codec = source.codec();
    let mut kept = RecordBatch::new(codec);
    let mut seen = 0;
    source.read_pages(0, source.num_pages(), &mut |page| {
        for slot in 0..page.slot_count() {
            let at = slot_for(size, seen, rng);
            seen += 1;
            let Some(at) = at else {
                continue;
            };
            let (rid, record) = (Rid::new(page.id(), slot), page.get(slot)?);
            if at == kept.len() {
                kept.push(codec, rid, record)?;
            } else {
                kept.replace(at, codec, rid, record)?;
            }
        }
        Ok(())
    })?;
    Ok(kept)
}

/// The reservoir's stream.  The reservoir is final only after the complete
/// scan, so the first batch runs the scan (paying the full-scan I/O) and
/// later batches emit slices of it on the stream's schedule, in a random
/// order, so that each slice prefix is itself a uniform sample.
/// Progressive consumers still get growing sub-samples to measure on, but
/// no I/O is saved by stopping early — the honest cost model of a scan —
/// and the draw cannot be deepened: rows the scan evicted are gone.
pub struct ScanStream {
    size: usize,
    schedule: BatchSchedule,
    /// Bound by the first batch: the reservoir, and the slice targets.
    scanned: Option<(RecordBatch, BatchPlan)>,
    emitted: usize,
}

impl ScanStream {
    pub(crate) fn new(size: usize, schedule: BatchSchedule) -> Self {
        ScanStream {
            size,
            schedule,
            scanned: None,
            emitted: 0,
        }
    }
}

impl SampleStream for ScanStream {
    fn kind(&self) -> SamplerKind {
        SamplerKind::Reservoir(self.size)
    }

    fn next_records(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        if self.scanned.is_none() {
            let mut kept = scan(source, self.size, rng)?;
            // Slice targets follow the same row schedule as the other
            // streams, capped at what the scan kept.
            let plan = BatchPlan::new(self.schedule, source.num_rows(), kept.len());
            // Algorithm R's slot `j` holds row `j` unless a later row evicted
            // it, so a prefix of `m` slots never holds a row of `[m, size)`:
            // shuffled once, every prefix is a uniform sample.  A one-slice
            // draw keeps the reservoir's order.
            if plan.next_target().is_some_and(|first| first < kept.len()) {
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
    use crate::stream::tests::draw;
    use crate::{BatchSchedule, SamplerKind};
    use samplecf_storage::{Row, Schema, Table, TableBuilder, TableSource, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 12))
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:05}"))])))
            .unwrap()
    }

    #[test]
    fn keeps_exactly_the_requested_size() {
        let t = table(1000);
        let sample = draw(SamplerKind::Reservoir(37), &t, 1);
        assert_eq!(sample.len(), 37);
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(
            distinct.len(),
            37,
            "reservoir sampling is without replacement"
        );
    }

    #[test]
    fn small_tables_are_returned_whole() {
        let t = table(5);
        let sample = draw(SamplerKind::Reservoir(50), &t, 2);
        assert_eq!(sample, t.scan_rows().unwrap());
    }

    #[test]
    fn zero_size_is_rejected() {
        assert!(SamplerKind::Reservoir(0)
            .stream(BatchSchedule::one_shot())
            .is_err());
    }

    #[test]
    fn empty_table_yields_empty_reservoir() {
        // Unified edge behaviour with the fraction-based samplers.
        let t = table(0);
        assert!(draw(SamplerKind::Reservoir(10), &t, 9).is_empty());
    }

    #[test]
    fn inclusion_is_roughly_uniform_across_positions() {
        // Early rows must not be favoured over late rows.
        let t = table(200);
        let mut first_half = 0usize;
        let mut second_half = 0usize;
        for seed in 0..300 {
            for (_, row) in draw(SamplerKind::Reservoir(20), &t, seed) {
                let id: usize = row.value(0).as_str().unwrap()[1..].parse().unwrap();
                if id < 100 {
                    first_half += 1;
                } else {
                    second_half += 1;
                }
            }
        }
        let ratio = first_half as f64 / second_half as f64;
        assert!(ratio > 0.8 && ratio < 1.25, "ratio = {ratio}");
    }
}
