//! Physical-I/O accounting (re-exported).
//!
//! [`CountingSource`] now lives in `samplecf-storage` (as
//! [`samplecf_storage::CountingSource`]) so that every layer — samplers, the
//! estimator, and the advisor's shared-sample planner — can account page
//! reads without a dependency on this crate.  It is re-exported here because
//! the sampling crate is where the counter earns its keep: the tests below
//! pin down the I/O cost of each sampling procedure (block sampling reads
//! exactly the selected pages; row sampling pays one page read per distinct
//! page its rows land on), which is the paper's Section II-C argument made
//! measurable.

pub use samplecf_storage::CountingSource;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::draw;
    use crate::{SamplerKind, Strata};
    use samplecf_storage::{Frame, Row, Schema, Table, TableBuilder, Value};
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    #[test]
    fn block_sampling_reads_exactly_the_selected_pages() {
        let t = table(3000);
        let counting = CountingSource::new(&t);
        let sample = draw(SamplerKind::Block(0.1), &counting, 1);
        assert!(!sample.is_empty());
        let selected: HashSet<_> = sample.iter().map(|(rid, _)| rid.page).collect();
        assert_eq!(
            selected.len(),
            (t.num_pages() as f64 * 0.1).round() as usize
        );
        assert_eq!(counting.pages_read(), selected.len() as u64);
    }

    #[test]
    fn uniform_sampling_pays_one_page_per_distinct_page_touched() {
        let t = table(3000);
        let counting = CountingSource::new(&t);
        let sample = draw(SamplerKind::UniformWithReplacement(0.05), &counting, 2);
        // Fetches are page-coalesced: one physical read per *distinct* page
        // the drawn rids land on, not one per drawn row.  Duplicate draws
        // and same-page neighbours share a read.
        let distinct_pages: HashSet<_> = sample.iter().map(|(rid, _)| rid.page).collect();
        assert_eq!(counting.pages_read(), distinct_pages.len() as u64);
        assert!(
            counting.pages_read() < sample.len() as u64,
            "coalescing must beat the old one-read-per-row cost ({} pages for {} rows)",
            counting.pages_read(),
            sample.len()
        );
        // Scattered row sampling still touches far more pages than a block
        // sample of the same row count would (the paper's Section II-C gap).
        assert!(distinct_pages.len() > t.num_pages() / 20);
    }

    #[test]
    fn uniform_sampling_at_full_fraction_reads_each_page_once() {
        // The extreme case of coalescing: a 100% with-replacement draw
        // touches every page, and each page is read exactly once.
        let t = table(800);
        let counting = CountingSource::new(&t);
        let sample = draw(SamplerKind::UniformWithReplacement(1.0), &counting, 4);
        assert_eq!(sample.len(), 800);
        assert!(counting.pages_read() <= t.num_pages() as u64);
    }

    #[test]
    fn sampling_frame_is_metadata_and_costs_no_pages() {
        let t = table(500);
        let counting = CountingSource::new(&t);
        assert_eq!(Frame::of(&counting).len(), 500);
        let strata = Strata::equi_depth(&counting, 4).unwrap();
        assert_eq!(strata.total_rows(), 500);
        assert_eq!(counting.pages_read(), 0);
    }
}
