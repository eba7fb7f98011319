//! Strata: contiguous page-range partitions of a table.
//!
//! Stratified sampling (Yu's index-assisted stratification, Nirkhiwale et
//! al.'s sampling algebra) needs a partition of the sampling frame before a
//! single row is drawn.  A [`Strata`] cuts a [`TableSource`]'s pages into
//! contiguous ranges, so each stratum is a physically local region — the
//! shape that pays off on value-clustered tables, where contiguous pages
//! hold similar values and the within-stratum variance of the compression
//! fraction collapses.
//!
//! Two constructors are provided:
//!
//! * [`Strata::equi_width`] — equal *page* counts per stratum.  This is the
//!   canonical partition the [`SamplerKind::Stratified`] configuration
//!   implies, because it is derivable from `(num_pages, count)` alone: any
//!   consumer holding only the sampler kind (a cache key, a wire request)
//!   can recompute which stratum a RID belongs to.
//! * [`Strata::equi_depth`] — equal *row* counts per stratum, with
//!   boundaries still on page edges.  On uniformly packed pages the two
//!   coincide; on ragged fills equi-depth equalises the statistical weight
//!   `W_s = N_s/N` instead of the physical extent.
//!
//! Both are computed from the table's [`Frame`] — no data page is read and
//! nothing the size of the table is built.  A stratum's rows are a range of
//! frame positions: `row_bounds[s]` is
//! [`Frame::rows_before`]`(page_bounds[s])`.
//!
//! [`SamplerKind::Stratified`]: crate::SamplerKind::Stratified

use crate::error::{SamplingError, SamplingResult};
use samplecf_storage::{Frame, PageId, TableSource};

/// A partition of a table's pages into contiguous ranges, with the row
/// bookkeeping stratified estimators need (per-stratum row counts and
/// population weights `W_s = N_s / N`).
#[derive(Debug, Clone, PartialEq)]
pub struct Strata {
    /// Page boundaries: stratum `s` covers pages
    /// `page_bounds[s]..page_bounds[s+1]`.  `len() + 1` entries, strictly
    /// increasing, starting at 0 and ending at the page count.  Empty for an
    /// empty table (zero strata).
    page_bounds: Vec<usize>,
    /// Frame boundaries: stratum `s` covers frame positions
    /// `row_bounds[s]..row_bounds[s+1]`.
    row_bounds: Vec<usize>,
}

impl Strata {
    /// Partition `source`'s pages into `count` contiguous ranges of (as
    /// near as possible) equal page counts.
    ///
    /// `count` is clamped to the page count, so every stratum holds at
    /// least one page; an empty table yields zero strata.  Errors only on
    /// `count == 0`.
    pub fn equi_width(source: &dyn TableSource, count: usize) -> SamplingResult<Strata> {
        let frame = Frame::of(source);
        let num_pages = frame.pages();
        let count = validate_count(count, num_pages)?;
        if count == 0 {
            return Ok(Self::from_page_bounds(frame, Vec::new()));
        }
        // Page boundary s sits at round(s·P/count): ranges differ by at
        // most one page and tile [0, P) exactly.
        let page_bounds = (0..=count)
            .map(|s| ((s * num_pages) as f64 / count as f64).round() as usize)
            .collect();
        Ok(Self::from_page_bounds(frame, page_bounds))
    }

    /// Partition `source`'s pages into `count` contiguous ranges holding
    /// (as near as possible) equal *row* counts, with boundaries on page
    /// edges.
    ///
    /// Same clamping and edge behaviour as [`equi_width`](Self::equi_width).
    pub fn equi_depth(source: &dyn TableSource, count: usize) -> SamplingResult<Strata> {
        let frame = Frame::of(source);
        let num_pages = frame.pages();
        let count = validate_count(count, num_pages)?;
        if count == 0 {
            return Ok(Self::from_page_bounds(frame, Vec::new()));
        }
        let total = frame.len() as f64;
        let mut page_bounds = Vec::with_capacity(count + 1);
        page_bounds.push(0usize);
        for s in 1..count {
            let ideal = s as f64 * total / count as f64;
            // The candidate boundary must leave at least one page for every
            // stratum on both sides.
            let lo = page_bounds[s - 1] + 1;
            let hi = num_pages - (count - s);
            let best = (lo..=hi)
                .min_by(|&a, &b| {
                    let da = (frame.rows_before(a) as f64 - ideal).abs();
                    let db = (frame.rows_before(b) as f64 - ideal).abs();
                    da.partial_cmp(&db).expect("row counts are finite")
                })
                .expect("lo <= hi is guaranteed by count <= num_pages");
            page_bounds.push(best);
        }
        page_bounds.push(num_pages);
        Ok(Self::from_page_bounds(frame, page_bounds))
    }

    fn from_page_bounds(frame: Frame, page_bounds: Vec<usize>) -> Strata {
        let row_bounds = page_bounds.iter().map(|&p| frame.rows_before(p)).collect();
        Strata {
            page_bounds,
            row_bounds,
        }
    }

    /// Number of strata (zero for an empty table).
    #[must_use]
    pub fn len(&self) -> usize {
        self.page_bounds.len().saturating_sub(1)
    }

    /// Whether the partition has no strata.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The page range of stratum `s`.
    #[must_use]
    pub fn page_range(&self, s: usize) -> std::ops::Range<usize> {
        self.page_bounds[s]..self.page_bounds[s + 1]
    }

    /// The frame positions of stratum `s` — the contiguous range of the
    /// frame the stratum's rows live in.
    #[must_use]
    pub fn row_range(&self, s: usize) -> std::ops::Range<usize> {
        self.row_bounds[s]..self.row_bounds[s + 1]
    }

    /// Rows in stratum `s` (the paper-side `N_s`).
    #[must_use]
    pub fn rows(&self, s: usize) -> usize {
        self.row_bounds[s + 1] - self.row_bounds[s]
    }

    /// Total rows across all strata.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.row_bounds.last().copied().unwrap_or(0)
    }

    /// Population weight `W_s = N_s / N` of stratum `s` — the coefficient
    /// of the stratum mean in the stratified estimator.
    #[must_use]
    pub fn weight(&self, s: usize) -> f64 {
        let total = self.total_rows();
        if total == 0 {
            0.0
        } else {
            self.rows(s) as f64 / total as f64
        }
    }

    /// All population weights, in stratum order (they sum to 1 for a
    /// non-empty table).
    #[must_use]
    pub fn weights(&self) -> Vec<f64> {
        (0..self.len()).map(|s| self.weight(s)).collect()
    }

    /// The stratum containing `page`.  Panics if the partition is empty or
    /// the page is out of range.
    #[must_use]
    pub fn stratum_of_page(&self, page: PageId) -> usize {
        let p = page as usize;
        assert!(
            !self.is_empty() && p < *self.page_bounds.last().expect("non-empty"),
            "page {p} outside the partitioned range"
        );
        self.page_bounds.partition_point(|&b| b <= p) - 1
    }
}

fn validate_count(count: usize, num_pages: usize) -> SamplingResult<usize> {
    if count == 0 {
        return Err(SamplingError::InvalidSize(
            "stratum count must be at least 1".to_string(),
        ));
    }
    Ok(count.min(num_pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::{Row, Schema, Table, TableBuilder, Value};

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    fn assert_partition(strata: &Strata, num_pages: usize, num_rows: usize) {
        let mut pages = 0;
        let mut rows = 0;
        for s in 0..strata.len() {
            let pr = strata.page_range(s);
            assert!(!pr.is_empty(), "stratum {s} holds no pages");
            pages += pr.len();
            rows += strata.rows(s);
            for p in pr {
                assert_eq!(strata.stratum_of_page(p as PageId), s);
            }
        }
        assert_eq!(pages, num_pages, "page ranges must tile the table");
        assert_eq!(rows, num_rows, "row ranges must cover every row");
        if num_rows > 0 {
            let weight_sum: f64 = strata.weights().iter().sum();
            assert!((weight_sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn equi_width_tiles_pages_exactly() {
        let t = table(1_000);
        for count in [1, 2, 3, 7, t.num_pages(), t.num_pages() * 3] {
            let strata = Strata::equi_width(&t, count).unwrap();
            assert_eq!(strata.len(), count.min(t.num_pages()));
            assert_partition(&strata, t.num_pages(), 1_000);
        }
    }

    #[test]
    fn equi_depth_balances_rows() {
        let t = table(1_000);
        let strata = Strata::equi_depth(&t, 4).unwrap();
        assert_partition(&strata, t.num_pages(), 1_000);
        // Uniformly packed pages: every stratum within one page of rows of
        // the ideal quarter.
        let per_page = 1_000 / t.num_pages() + 1;
        for s in 0..4 {
            let diff = strata.rows(s) as i64 - 250;
            assert!(diff.unsigned_abs() as usize <= per_page, "stratum {s}");
        }
    }

    #[test]
    fn degenerate_shapes() {
        let empty = table(0);
        let strata = Strata::equi_width(&empty, 5).unwrap();
        assert!(strata.is_empty());
        assert_eq!(strata.total_rows(), 0);
        assert!(Strata::equi_width(&table(10), 0).is_err());
        assert!(Strata::equi_depth(&table(10), 0).is_err());
        // One stratum == the whole table.
        let t = table(100);
        let one = Strata::equi_depth(&t, 1).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.rows(0), 100);
        assert!((one.weight(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equi_width_is_derivable_from_metadata_alone() {
        // The property the cache/wire path relies on: the partition is a
        // function of the frame and k, so a source that only answers the
        // metadata (and reads no page) cuts the same strata.
        let t = table(700);
        let counting = samplecf_storage::CountingSource::new(&t);
        let a = Strata::equi_width(&t, 5).unwrap();
        assert_eq!(Strata::equi_width(&counting, 5).unwrap(), a);
        assert_eq!(counting.pages_read(), 0);
        let frame = Frame::of(&t);
        for s in 0..a.len() {
            let pages = a.page_range(s);
            let rows = frame.rows_before(pages.start)..frame.rows_before(pages.end);
            assert_eq!(a.row_range(s), rows);
        }
    }
}
