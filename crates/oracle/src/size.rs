//! Where a built tree's uncompressed bytes go: the reference for the
//! analytic [`IndexSizeModel`](samplecf_index::IndexSizeModel), which
//! predicts the same leaf-level figures from the schema and row count alone,
//! and the levels above them by a formula this report checks against real
//! separator pages ([`separator_levels`]).

use crate::btree::separator_levels;
use samplecf_index::{BTreeIndex, IndexKind, IndexResult};
use samplecf_storage::{Page, Rid};

/// A breakdown of where an (uncompressed) index's bytes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSizeReport {
    /// Number of leaf entries.
    pub num_entries: usize,
    /// Number of leaf pages.
    pub leaf_pages: usize,
    /// Number of internal pages: the separator pages packed above the
    /// leaves.
    pub internal_pages: usize,
    /// Tree height (1 = a single leaf level), one more than the separator
    /// levels packed.
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
    /// Measure a built index: its leaf pages as they are, and the separator
    /// levels packed above them.
    ///
    /// # Errors
    /// As [`separator_levels`]: a tree was built only if its levels narrow,
    /// so an error here is the packer disagreeing with the formula.
    pub fn measure(index: &BTreeIndex) -> IndexResult<Self> {
        let n = index.num_entries();
        let levels = separator_levels(index)?;
        let stored_cell_bytes = n * stored_cell_bytes_per_entry(index);
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
        Ok(IndexSizeReport {
            num_entries: n,
            leaf_pages: index.num_leaf_pages(),
            internal_pages: levels.iter().map(Vec::len).sum(),
            height: 1 + levels.len(),
            page_size: index.page_size(),
            stored_cell_bytes,
            rid_bytes,
            bitmap_bytes,
            leaf_overhead_bytes,
            leaf_free_bytes,
        })
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

/// Width in bytes of one leaf entry's stored cells (no null bitmap, no
/// RID).
fn stored_cell_bytes_per_entry(index: &BTreeIndex) -> usize {
    let schema = index.table_schema();
    (index.stored_column_indexes().iter())
        .map(|&i| schema.column_at(i).datatype.uncompressed_width())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::pack_separators;
    use samplecf_index::{IndexBuilder, IndexError, IndexSizeModel, IndexSpec};
    use samplecf_storage::{
        encode_cell, Column, DataType, Row, Schema, TableBuilder, TableSource, Value,
        PAGE_HEADER_SIZE, SLOT_SIZE,
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
        let r = IndexSizeReport::measure(&idx).unwrap();
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
        let r = IndexSizeReport::measure(&idx).unwrap();
        assert_eq!(r.rid_bytes, 0);
        assert_eq!(r.stored_cell_bytes, 300 * 24);
    }

    #[test]
    fn leaf_accounting_is_conserved() {
        let idx = build(1000, false);
        let r = IndexSizeReport::measure(&idx).unwrap();
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
                        let measured = IndexSizeReport::measure(&built).unwrap();
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
        let r = IndexSizeReport::measure(&idx).unwrap();
        assert_eq!(r.num_entries, 0);
        assert_eq!(r.entries_per_leaf(), 0.0);
        assert_eq!(r.stored_cell_bytes, 0);
    }

    #[test]
    fn stored_cell_bytes_per_entry_matches_schema() {
        let schema = Schema::new(vec![
            Column::new("name", DataType::Char(12)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap();
        let table = TableBuilder::new("t", schema)
            .build_with_rows((0..10).map(|i| Row::new(vec![Value::str("n"), Value::int(i)])))
            .unwrap();
        let build = |spec: IndexSpec| IndexBuilder::new().build_from_table(&table, &spec).unwrap();
        let nc = build(IndexSpec::nonclustered("i", ["name"]).unwrap());
        let cl = build(IndexSpec::clustered("i", ["name"]).unwrap());
        assert_eq!(stored_cell_bytes_per_entry(&nc), 12);
        assert_eq!(stored_cell_bytes_per_entry(&cl), 20);
    }

    /// Entry `e`'s RID in the trees below.
    fn rid(e: usize) -> Rid {
        Rid::new((e >> 16) as u32, e as u16)
    }

    /// The sort key — key cells, then RID — of the first entry of each
    /// leaf of a tree over entries `0..n`, `per_leaf` to a leaf, entry `e`
    /// being `row(e)` at `rid(e)`.
    fn first_keys(
        schema: &Schema,
        spec: &IndexSpec,
        (n, per_leaf): (usize, usize),
        row: impl Fn(usize) -> Row,
    ) -> Vec<Vec<u8>> {
        let key_columns = spec.key_indexes(schema).unwrap();
        (0..n)
            .step_by(per_leaf)
            .map(|e| {
                let (row, mut key) = (row(e), Vec::new());
                for &i in &key_columns {
                    encode_cell(row.value(i), &schema.column_at(i).datatype, &mut key).unwrap();
                }
                key.extend_from_slice(&rid(e).encode());
                key
            })
            .collect()
    }

    /// Pages over all levels.
    fn pages(levels: Vec<Vec<Page>>) -> usize {
        levels.iter().map(Vec::len).sum()
    }

    /// The level formula against separator pages really packed, and a
    /// build against both, errors included, for an index over `(schema,
    /// spec)` on `page_size`-byte pages, entry `e` being `row(e)`: over
    /// none, one, a full leaf of entries, one entry past it, and two
    /// thousand leaves (three levels and more; not built).  Returns the
    /// errors met.
    fn assert_levels_agree(
        schema: &Schema,
        spec: &IndexSpec,
        page_size: usize,
        row: impl Fn(usize) -> Row + Copy,
    ) -> Vec<IndexError> {
        let model = IndexSizeModel::new().page_size(page_size);
        // A leaf record too large for the page is no level's doing.
        let Ok(shape) = model.estimate(schema, spec, 0) else {
            return Vec::new();
        };
        let per_leaf = shape.entries_per_leaf;
        let mut errors = Vec::new();
        for n in [0, 1, per_leaf, per_leaf + 1, 2_000 * per_leaf] {
            let tag = format!("{spec:?} on {page_size}-byte pages, {n} entries");
            let formula = shape.with_entries(n).internal_pages();
            let keys = first_keys(schema, spec, (n, per_leaf), row);
            let packed = pack_separators(schema, spec, page_size, &keys);
            assert_eq!(formula, packed.map(pages), "{tag}");
            if n <= per_leaf + 1 {
                let rows: Vec<(Rid, Row)> = (0..n).map(|e| (rid(e), row(e))).collect();
                let builder = IndexBuilder::new().page_size(page_size);
                let built = builder.build_from_rows(schema, &rows, spec);
                let built = built.map(|tree| tree.num_internal_pages());
                assert_eq!(formula, built, "{tag}");
            }
            errors.extend(formula.err());
        }
        errors
    }

    #[test]
    fn the_internal_levels_fail_as_the_loader_does() {
        // Page sizes from one whose 48 usable bytes hold no separator (a
        // `char(34)` key's 46 bytes + slot) or just one (a `char(13)`
        // key's: levels would never narrow) to one whose levels hold
        // hundreds; both kinds; one- and two-column keys.
        let (mut narrow, mut too_large) = (0, 0);
        for width in [4u16, 13, 34, 60] {
            let schema = Schema::new(vec![
                Column::new("a", DataType::Char(width)),
                Column::new("b", DataType::Int64),
            ])
            .unwrap();
            let row = |e: usize| {
                Row::new(vec![
                    Value::str(format!("v{}", e % 97)),
                    Value::int(e as i64),
                ])
            };
            for kind in [IndexKind::Clustered, IndexKind::NonClustered] {
                for keys in [&["a"][..], &["b", "a"]] {
                    let spec = IndexSpec::new("i", kind, keys.iter().copied()).unwrap();
                    for page_size in [64, 128, 256, 512, 4096] {
                        for error in assert_levels_agree(&schema, &spec, page_size, row) {
                            match error {
                                IndexError::InvalidSpec(_) => narrow += 1,
                                IndexError::Storage(_) => too_large += 1,
                                e => panic!("{spec:?} on {page_size}-byte pages: {e}"),
                            }
                        }
                    }
                }
            }
        }
        assert!(narrow > 0 && too_large > 0, "{narrow} {too_large}");
    }
}
