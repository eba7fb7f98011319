//! Block-level (page) sampling.
//!
//! Commercial systems usually sample whole pages rather than individual rows
//! (paper, Section II-C): a set of pages is chosen uniformly at random and
//! *all* rows on those pages enter the sample.  This is much cheaper in I/O
//! terms but correlates the sampled rows with their physical placement, which
//! the paper flags as future work for the accuracy analysis.
//!
//! Because the stream draws through [`TableSource`], the I/O claim is
//! literal for disk-backed tables: a draw reads each selected page once —
//! adjacent selected pages in one [`read_pages`](TableSource::read_pages)
//! run — and touches nothing else in the file.  `tests/end_to_end.rs` asserts the page
//! count on a disk table and the `samplecf estimate --sampler block` CLI
//! path reports it.

use crate::batch::RecordBatch;
use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::sampler::target_size;
use crate::stream::{BatchPlan, BatchSchedule, IncrementalFisherYates, SampleStream};
use rand::RngCore;
use samplecf_storage::{PageId, TableSource};

/// The block (page) sampler: selects `max(1, round(fraction · num_pages))`
/// pages without replacement and yields every row stored on them.  Pages
/// come out of an [`IncrementalFisherYates`] permutation, so the page set
/// after `k` draws equals a one-shot selection of `k` pages with the same
/// seed.  Each batch reads its new pages in ascending page order, a run of
/// adjacent ones at a time, and checks every record on them.
pub struct BlockStream {
    fraction: f64,
    schedule: BatchSchedule,
    /// Bound on first use: the shuffle over pages and the page targets.
    state: Option<(IncrementalFisherYates, BatchPlan)>,
}

impl BlockStream {
    pub(crate) fn new(fraction: f64, schedule: BatchSchedule) -> Self {
        BlockStream {
            fraction,
            schedule,
            state: None,
        }
    }
}

impl SampleStream for BlockStream {
    fn kind(&self) -> SamplerKind {
        SamplerKind::Block(self.fraction)
    }

    fn next_records(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        let (fy, plan) = self.state.get_or_insert_with(|| {
            let num_pages = source.num_pages();
            let max_pages = target_size(num_pages, self.fraction);
            (
                IncrementalFisherYates::new(num_pages),
                BatchPlan::new(self.schedule, num_pages, max_pages),
            )
        });
        let codec = source.codec();
        let mut batch = RecordBatch::new(codec);
        let Some(target) = plan.next_target() else {
            return Ok(batch);
        };
        let mut page_ids: Vec<PageId> = Vec::with_capacity(target - fy.drawn());
        while fy.drawn() < target {
            let p = fy.next(rng).expect("targets never exceed the page count");
            page_ids.push(p as PageId);
        }
        page_ids.sort_unstable();
        for run in page_ids.chunk_by(|a, b| a + 1 == *b) {
            source.read_pages(run[0], run.len(), &mut |page| batch.push_page(codec, page))?;
        }
        plan.advance();
        Ok(batch)
    }

    fn exhausted(&self) -> bool {
        (self.state.as_ref()).is_some_and(|(_, plan)| plan.exhausted())
    }

    fn extend_cap(&mut self, kind: SamplerKind) -> bool {
        let Some(f) = self.kind().deepened_to(kind) else {
            return false;
        };
        self.fraction = f;
        if let Some((fy, plan)) = self.state.as_mut() {
            plan.raise_cap(target_size(fy.length(), f), fy.drawn());
        }
        true
    }

    fn approx_retained_bytes(&self) -> usize {
        // Only the displaced-slot map of the partial shuffle.
        (self.state.as_ref()).map_or(0, |(fy, _)| fy.retained_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SampledRow;
    use crate::stream::tests::draw;
    use samplecf_storage::{CountingSource, Row, Schema, Table, TableBuilder, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    fn pages_of(sample: &[SampledRow]) -> HashSet<PageId> {
        sample.iter().map(|(rid, _)| rid.page).collect()
    }

    #[test]
    fn sample_contains_whole_pages() {
        let t = table(2000);
        let sample = draw(SamplerKind::Block(0.1), &t, 1);
        assert!(!sample.is_empty());
        // Every sampled page contributes all of its rows.
        let rows_on_pages: usize = pages_of(&sample)
            .iter()
            .map(|&p| usize::from(t.read_page_ref(p).unwrap().slot_count()))
            .sum();
        assert_eq!(sample.len(), rows_on_pages);
    }

    #[test]
    fn page_count_tracks_fraction() {
        let t = table(5000);
        let counting = CountingSource::new(&t);
        let sample = draw(SamplerKind::Block(0.2), &counting, 2);
        let expected = (t.num_pages() as f64 * 0.2).round() as usize;
        // Distinct (one read each) and within range.
        assert_eq!(pages_of(&sample).len(), expected);
        assert_eq!(counting.pages_read() as usize, expected);
        assert!(sample
            .iter()
            .all(|(rid, _)| (rid.page as usize) < t.num_pages()));
    }

    #[test]
    fn empty_table_yields_empty_sample_and_no_pages() {
        let t = TableBuilder::new("t", Schema::single_char("a", 8))
            .build()
            .unwrap();
        // Regression: with zero pages the old `max(1, …)` sizing would have
        // requested one page from an empty frame.
        let counting = CountingSource::new(&t);
        assert!(draw(SamplerKind::Block(0.5), &counting, 3).is_empty());
        assert_eq!(counting.pages_read(), 0);
    }

    #[test]
    fn full_fraction_selects_every_page() {
        let t = table(900);
        let sample = draw(SamplerKind::Block(1.0), &t, 9);
        assert_eq!(pages_of(&sample).len(), t.num_pages());
        assert_eq!(sample.len(), t.num_rows());
    }

    #[test]
    fn tiny_fraction_still_reads_one_page() {
        let t = table(500);
        let sample = draw(SamplerKind::Block(0.0001), &t, 4);
        assert_eq!(pages_of(&sample).len(), 1);
    }

    #[test]
    fn clustered_pages_give_correlated_samples() {
        // When identical values are stored contiguously, a block sample sees
        // far fewer distinct values than a row sample of the same size.
        let rows: Vec<Row> = (0..2000)
            .map(|i| Row::new(vec![Value::str(format!("group{:03}", i / 20))]))
            .collect();
        let t: Table = TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows(rows)
            .unwrap();
        let distinct = |sample: &[SampledRow]| {
            (sample.iter())
                .map(|(_, r)| r.value(0).clone())
                .collect::<HashSet<_>>()
                .len()
        };
        let block_sample = draw(SamplerKind::Block(0.05), &t, 5);
        let row_fraction = block_sample.len() as f64 / t.num_rows() as f64;
        let row_sample = draw(SamplerKind::UniformWithoutReplacement(row_fraction), &t, 5);
        assert!(
            distinct(&block_sample) * 2 < distinct(&row_sample),
            "block sample saw {} groups, row sample saw {}",
            distinct(&block_sample),
            distinct(&row_sample)
        );
    }
}
