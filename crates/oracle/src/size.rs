//! Where a built tree's uncompressed bytes go: the reference for the
//! analytic [`IndexSizeModel`](samplecf_index::IndexSizeModel), which
//! predicts the same leaf-level figures from the schema and row count alone.

use samplecf_index::{BTreeIndex, IndexKind};
use samplecf_storage::{Page, Rid};

/// A breakdown of where an (uncompressed) index's bytes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSizeReport {
    /// Number of leaf entries.
    pub num_entries: usize,
    /// Number of leaf pages.
    pub leaf_pages: usize,
    /// Number of internal pages.
    pub internal_pages: usize,
    /// Tree height (1 = a single leaf level).
    pub height: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Bytes of stored column cells across all leaf entries
    /// (the paper's `n·k` for a single `char(k)` key).
    pub stored_cell_bytes: usize,
    /// Bytes of RID pointers in leaf entries (non-clustered only).
    pub rid_bytes: usize,
    /// Bytes of null bitmaps in leaf entries.
    pub bitmap_bytes: usize,
    /// Bytes of page bookkeeping in the leaf level (headers + slot entries).
    pub leaf_overhead_bytes: usize,
    /// Unused bytes inside leaf pages (free space).
    pub leaf_free_bytes: usize,
}

impl IndexSizeReport {
    /// Measure a built index.
    #[must_use]
    pub fn measure(index: &BTreeIndex) -> Self {
        let n = index.num_entries();
        let stored_cell_bytes = n * index.stored_cell_bytes_per_entry();
        let rid_bytes = if index.spec().kind() == IndexKind::NonClustered {
            n * Rid::ENCODED_LEN
        } else {
            0
        };
        let bitmap_bytes = n * index.stored_column_indexes().len().div_ceil(8);
        let leaf_overhead_bytes: usize = index.leaf_pages().iter().map(Page::overhead_bytes).sum();
        let leaf_used: usize = index
            .leaf_pages()
            .iter()
            .map(|p| p.payload_bytes() + p.overhead_bytes())
            .sum();
        let leaf_free_bytes = index.num_leaf_pages() * index.page_size() - leaf_used;
        IndexSizeReport {
            num_entries: n,
            leaf_pages: index.num_leaf_pages(),
            internal_pages: index.num_internal_pages(),
            height: index.height(),
            page_size: index.page_size(),
            stored_cell_bytes,
            rid_bytes,
            bitmap_bytes,
            leaf_overhead_bytes,
            leaf_free_bytes,
        }
    }

    /// Total on-disk bytes (all pages at full page size).
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        (self.leaf_pages + self.internal_pages) * self.page_size
    }

    /// Total leaf-level bytes (leaf pages at full page size).
    #[must_use]
    pub fn leaf_bytes(&self) -> usize {
        self.leaf_pages * self.page_size
    }

    /// Average number of entries per leaf page.
    #[must_use]
    pub fn entries_per_leaf(&self) -> f64 {
        if self.leaf_pages == 0 {
            0.0
        } else {
            self.num_entries as f64 / self.leaf_pages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_index::{IndexBuilder, IndexSizeModel, IndexSpec};
    use samplecf_storage::{
        Column, DataType, Row, Schema, TableBuilder, TableSource, Value, PAGE_HEADER_SIZE,
        SLOT_SIZE,
    };

    fn build(n: usize, kind_clustered: bool) -> BTreeIndex {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(20)),
            Column::new("b", DataType::Int32),
        ])
        .unwrap();
        let table = TableBuilder::new("t", schema)
            .build_with_rows(
                (0..n)
                    .map(|i| Row::new(vec![Value::str(format!("v{i:05}")), Value::int(i as i64)])),
            )
            .unwrap();
        let spec = if kind_clustered {
            IndexSpec::clustered("i", ["a"]).unwrap()
        } else {
            IndexSpec::nonclustered("i", ["a"]).unwrap()
        };
        IndexBuilder::new()
            .page_size(1024)
            .build_from_table(&table, &spec)
            .unwrap()
    }

    #[test]
    fn nonclustered_report_accounts_for_rids() {
        let idx = build(500, false);
        let r = IndexSizeReport::measure(&idx);
        assert_eq!(r.num_entries, 500);
        assert_eq!(r.stored_cell_bytes, 500 * 20);
        assert_eq!(r.rid_bytes, 500 * Rid::ENCODED_LEN);
        assert_eq!(r.bitmap_bytes, 500);
        assert!(r.leaf_pages > 1);
        assert_eq!(r.total_bytes(), (r.leaf_pages + r.internal_pages) * 1024);
        assert!(r.entries_per_leaf() > 1.0);
    }

    #[test]
    fn clustered_report_has_no_rid_bytes() {
        let idx = build(300, true);
        let r = IndexSizeReport::measure(&idx);
        assert_eq!(r.rid_bytes, 0);
        assert_eq!(r.stored_cell_bytes, 300 * 24);
    }

    #[test]
    fn leaf_accounting_is_conserved() {
        let idx = build(1000, false);
        let r = IndexSizeReport::measure(&idx);
        // data + bitmaps + rids + overhead + free == leaf bytes
        assert_eq!(
            r.stored_cell_bytes
                + r.bitmap_bytes
                + r.rid_bytes
                + r.leaf_overhead_bytes
                + r.leaf_free_bytes,
            r.leaf_bytes()
        );
        // Sanity on the overhead model.
        assert!(r.leaf_overhead_bytes >= r.leaf_pages * PAGE_HEADER_SIZE);
        assert!(r.leaf_overhead_bytes >= r.num_entries * SLOT_SIZE);
    }

    #[test]
    fn analytic_model_matches_measured_builds_exactly() {
        // Sweep shapes: row counts around page boundaries, both kinds,
        // several page sizes and fill factors, multi-column keys.
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(20)),
            Column::new("b", DataType::Int32),
        ])
        .unwrap();
        let table = TableBuilder::new("t", schema.clone())
            .build_with_rows(
                (0..2_000)
                    .map(|i| Row::new(vec![Value::str(format!("v{i:05}")), Value::int(i as i64)])),
            )
            .unwrap();
        let specs = [
            IndexSpec::nonclustered("nc", ["a"]).unwrap(),
            IndexSpec::nonclustered("nc2", ["a", "b"]).unwrap(),
            IndexSpec::clustered("cl", ["b"]).unwrap(),
        ];
        let all_rows = table.scan_rows().unwrap();
        for spec in &specs {
            // (128 bytes: three separators a page, seven levels at 1999 rows.)
            for page_size in [128usize, 512, 1024, 8192] {
                for fill in [1.0, 0.7, 0.5] {
                    for n in [0usize, 1, 7, 500, 1999] {
                        let rows = &all_rows[..n];
                        let built = IndexBuilder::new()
                            .page_size(page_size)
                            .fill_factor(fill)
                            .build_from_rows(&schema, rows, spec)
                            .unwrap();
                        let measured = IndexSizeReport::measure(&built);
                        let model = IndexSizeModel::new()
                            .page_size(page_size)
                            .fill_factor(fill)
                            .estimate(&schema, spec, n)
                            .unwrap();
                        assert_eq!(
                            model.leaf_pages,
                            measured.leaf_pages,
                            "{} n={n} page={page_size} fill={fill}",
                            spec.name()
                        );
                        assert_eq!(model.leaf_bytes(), measured.leaf_bytes());
                        assert_eq!(model.num_entries, measured.num_entries);
                        assert_eq!(model.internal_pages(), Ok(measured.internal_pages));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_index_report() {
        let schema = Schema::single_char("a", 8);
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema, &[], &spec)
            .unwrap();
        let r = IndexSizeReport::measure(&idx);
        assert_eq!(r.num_entries, 0);
        assert_eq!(r.entries_per_leaf(), 0.0);
        assert_eq!(r.stored_cell_bytes, 0);
    }
}
