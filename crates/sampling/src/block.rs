//! Block-level (page) sampling.
//!
//! Commercial systems usually sample whole pages rather than individual rows
//! (paper, Section II-C): a set of pages is chosen uniformly at random and
//! *all* rows on those pages enter the sample.  This is much cheaper in I/O
//! terms but correlates the sampled rows with their physical placement, which
//! the paper flags as future work for the accuracy analysis.
//!
//! Because the sampler draws through [`TableSource`], the I/O claim is
//! literal for disk-backed tables: `sample` issues exactly one
//! [`read_page`](TableSource::read_page) per selected page and touches
//! nothing else in the file.  `tests/end_to_end.rs` asserts the page count
//! on a disk table and the `samplecf estimate --sampler block` CLI path
//! reports it.

use crate::error::SamplingResult;
use crate::sampler::{target_page_count, target_size, validate_fraction, RowSampler, SampledRow};
use rand::seq::index;
use rand::RngCore;
use samplecf_storage::{PageId, TableSource};

/// Page-level sampler: selects `max(1, round(fraction · num_pages))` pages
/// without replacement and returns every row stored on them.
#[derive(Debug, Clone, Copy)]
pub struct BlockSampler {
    fraction: f64,
}

impl BlockSampler {
    /// Create a block sampler with the given page fraction.
    pub fn new(fraction: f64) -> SamplingResult<Self> {
        Ok(BlockSampler {
            fraction: validate_fraction(fraction)?,
        })
    }

    /// The page sampling fraction.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Select which pages to read (exposed for tests and diagnostics).
    ///
    /// Uses only [`TableSource::num_pages`] — no page is touched until the
    /// sample is actually drawn.
    pub fn sample_page_ids(&self, source: &dyn TableSource, rng: &mut dyn RngCore) -> Vec<PageId> {
        let num_pages = source.num_pages();
        let count = target_page_count(num_pages, self.fraction);
        if count == 0 {
            return Vec::new();
        }
        let mut ids: Vec<PageId> = index::sample(rng, num_pages, count)
            .into_iter()
            .map(|i| i as PageId)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of pages a sample from a source with `num_pages` pages reads.
    #[must_use]
    pub fn expected_pages_read(&self, num_pages: usize) -> usize {
        target_page_count(num_pages, self.fraction)
    }
}

impl RowSampler for BlockSampler {
    fn name(&self) -> &'static str {
        "block"
    }

    fn sample(
        &self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        let pages = self.sample_page_ids(source, rng);
        let mut out = Vec::new();
        for pid in pages {
            out.extend(source.page_rows(pid)?);
        }
        Ok(out)
    }

    fn expected_sample_size(&self, n: usize) -> usize {
        target_size(n, self.fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplecf_storage::{Row, Schema, Table, TableBuilder, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    #[test]
    fn sample_contains_whole_pages() {
        let t = table(2000);
        let s = BlockSampler::new(0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sample = s.sample(&t, &mut rng).unwrap();
        assert!(!sample.is_empty());
        // Every sampled page contributes all of its rows.
        let pages: HashSet<_> = sample.iter().map(|(rid, _)| rid.page).collect();
        let rows_on_pages: usize = pages
            .iter()
            .map(|&p| usize::from(t.heap().page(p).unwrap().slot_count()))
            .sum();
        assert_eq!(sample.len(), rows_on_pages);
    }

    #[test]
    fn page_count_tracks_fraction() {
        let t = table(5000);
        let s = BlockSampler::new(0.2).unwrap();
        let ids = s.sample_page_ids(&t, &mut StdRng::seed_from_u64(2));
        let expected = (t.num_pages() as f64 * 0.2).round() as usize;
        assert_eq!(ids.len(), expected);
        assert_eq!(s.expected_pages_read(t.num_pages()), expected);
        // Distinct and within range.
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len());
        assert!(ids.iter().all(|&p| (p as usize) < t.num_pages()));
    }

    #[test]
    fn expected_sample_size_matches_the_shared_target() {
        let s = BlockSampler::new(0.01).unwrap();
        assert_eq!(s.expected_sample_size(100_000), 1000);
        // Unified edge behaviour with the row samplers: empty → 0, tiny
        // fraction on a non-empty table → at least 1.
        assert_eq!(s.expected_sample_size(0), 0);
        assert_eq!(s.expected_sample_size(10), 1);
    }

    #[test]
    fn empty_table_yields_empty_sample_and_no_pages() {
        let t = TableBuilder::new("t", Schema::single_char("a", 8))
            .build()
            .unwrap();
        let s = BlockSampler::new(0.5).unwrap();
        // Regression: with zero pages the old `max(1, …)` sizing would have
        // requested one page from an empty frame.
        assert!(s
            .sample_page_ids(&t, &mut StdRng::seed_from_u64(3))
            .is_empty());
        assert_eq!(s.expected_pages_read(0), 0);
        assert!(s
            .sample(&t, &mut StdRng::seed_from_u64(3))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn full_fraction_selects_every_page() {
        let t = table(900);
        let s = BlockSampler::new(1.0).unwrap();
        let ids = s.sample_page_ids(&t, &mut StdRng::seed_from_u64(9));
        assert_eq!(ids.len(), t.num_pages());
        let sample = s.sample(&t, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(sample.len(), t.num_rows());
    }

    #[test]
    fn tiny_fraction_still_reads_one_page() {
        let t = table(500);
        let s = BlockSampler::new(0.0001).unwrap();
        let ids = s.sample_page_ids(&t, &mut StdRng::seed_from_u64(4));
        assert_eq!(ids.len(), 1);
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
        let block = BlockSampler::new(0.05).unwrap();
        let block_sample = block.sample(&t, &mut StdRng::seed_from_u64(5)).unwrap();
        let block_distinct: HashSet<_> = block_sample
            .iter()
            .map(|(_, r)| r.value(0).clone())
            .collect();

        let row = crate::uniform::UniformWithoutReplacement::new(
            block_sample.len() as f64 / t.num_rows() as f64,
        )
        .unwrap();
        let row_sample = row.sample(&t, &mut StdRng::seed_from_u64(5)).unwrap();
        let row_distinct: HashSet<_> = row_sample.iter().map(|(_, r)| r.value(0).clone()).collect();

        assert!(
            block_distinct.len() * 2 < row_distinct.len(),
            "block sample saw {} groups, row sample saw {}",
            block_distinct.len(),
            row_distinct.len()
        );
    }
}
