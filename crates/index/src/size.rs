//! Uncompressed index size accounting: measured ([`IndexSizeReport`]) and
//! analytic ([`IndexSizeModel`]).
//!
//! The measured report walks a built tree.  The analytic model computes the
//! same leaf-level figures from the schema and row count alone — no index
//! build, no page reads — which is what lets the physical-design advisor
//! price the *uncompressed* side of every candidate for free (the paper's
//! point is that only the compressed side needs sampling).  Leaf records are
//! fixed-width (null bitmap + fixed cells + optional RID), and the bulk
//! loader fills pages by asking this model — the leaf-fill rule is stated
//! once, in [`IndexSizeModel::estimate`] — so the model is exact.  Separator
//! records are one length too, so the internal levels above those leaves are
//! arithmetic as well ([`IndexSizeEstimate::internal_pages`]): what lets a
//! size-only walk report a whole tree's page counts without building one.

use crate::btree::BTreeIndex;
use crate::error::{IndexError, IndexResult};
use crate::spec::{IndexKind, IndexSpec};
use samplecf_storage::page::max_record_len;
use samplecf_storage::{
    Page, Rid, Schema, StorageError, DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE,
};

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
    /// Measure an index.
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

    /// Fraction of the leaf level occupied by actual column data.
    #[must_use]
    pub fn data_density(&self) -> f64 {
        if self.leaf_bytes() == 0 {
            0.0
        } else {
            self.stored_cell_bytes as f64 / self.leaf_bytes() as f64
        }
    }
}

/// Width in bytes of one uncompressed leaf record for an index described by
/// `spec` over `schema`: null bitmap + fixed-width stored cells + the RID
/// pointer (non-clustered only) — the record half of the bulk loader's
/// `[key | record]` entries.
pub fn leaf_record_bytes(schema: &Schema, spec: &IndexSpec) -> IndexResult<usize> {
    let stored = spec.stored_column_indexes(schema)?;
    let bitmap = stored.len().div_ceil(8);
    let cells: usize = stored
        .iter()
        .map(|&i| schema.column_at(i).datatype.uncompressed_width())
        .sum();
    let rid = if spec.kind() == IndexKind::NonClustered {
        Rid::ENCODED_LEN
    } else {
        0
    };
    Ok(bitmap + cells + rid)
}

/// Analytic size estimate (see [`IndexSizeModel::estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSizeEstimate {
    /// Number of leaf entries (one per row).
    pub num_entries: usize,
    /// Width of one leaf record in bytes.
    pub entry_bytes: usize,
    /// Entries the bulk loader packs into each leaf page.
    pub entries_per_leaf: usize,
    /// Predicted number of leaf pages.
    pub leaf_pages: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Width of one internal-level record in bytes: `[2-byte key length]
    /// [separator key = key cells + RID][4-byte child page]`.
    pub separator_bytes: usize,
}

impl IndexSizeEstimate {
    /// Predicted leaf-level bytes (leaf pages at full page size) — the same
    /// quantity [`IndexSizeReport::leaf_bytes`] measures on a built tree.
    #[must_use]
    pub fn leaf_bytes(&self) -> usize {
        self.leaf_pages * self.page_size
    }

    /// The same index over `num_entries` entries instead: the leaf-fill rule
    /// applied to another count (an empty build is one empty leaf page).
    #[must_use]
    pub fn with_entries(self, num_entries: usize) -> Self {
        IndexSizeEstimate {
            num_entries,
            leaf_pages: num_entries.div_ceil(self.entries_per_leaf).max(1),
            ..self
        }
    }

    /// Predicted number of internal pages, all levels — what
    /// [`BTreeIndex::num_internal_pages`] counts on a built tree.
    ///
    /// The loader fills internal pages to capacity with separator records of
    /// one length, a level per pass until a single root is left; so each
    /// level is the one below ceil-divided by the separators
    /// [`Page::fits`] admits to an empty page.
    ///
    /// # Errors
    /// The loader's, when more than one leaf needs a level above it: a
    /// separator that fits no page is [`IndexError::Storage`]
    /// (`RecordTooLarge`); a page that holds a single separator is
    /// [`IndexError::InvalidSpec`] — no level can narrow.
    pub fn internal_pages(&self) -> IndexResult<usize> {
        let per_page = (self.page_size - PAGE_HEADER_SIZE) / (self.separator_bytes + SLOT_SIZE);
        if self.leaf_pages > 1 && per_page < 2 {
            return Err(if per_page == 0 {
                IndexError::Storage(StorageError::RecordTooLarge {
                    record_len: self.separator_bytes,
                    max_payload: max_record_len(self.page_size),
                })
            } else {
                let why = "an internal page holds one separator key: no level can narrow";
                IndexError::InvalidSpec(why.into())
            });
        }
        let (mut level, mut internal) = (self.leaf_pages, 0);
        while level > 1 {
            level = level.div_ceil(per_page);
            internal += level;
        }
        Ok(internal)
    }
}

/// Predicts leaf-level index sizes without building anything.
///
/// Configured like [`IndexBuilder`](crate::btree::IndexBuilder) (page size
/// and fill factor) and guaranteed to agree with it: for any schema, spec
/// and row count, [`estimate`](Self::estimate) returns exactly the leaf page
/// count a build of those rows would produce, because leaf records are
/// fixed-width and the loader's packing rule is deterministic.
#[derive(Debug, Clone, Copy)]
pub struct IndexSizeModel {
    page_size: usize,
    fill_factor: f64,
}

impl Default for IndexSizeModel {
    fn default() -> Self {
        IndexSizeModel {
            page_size: DEFAULT_PAGE_SIZE,
            fill_factor: 1.0,
        }
    }
}

impl IndexSizeModel {
    /// A model with the default page size and a 100% fill factor — the same
    /// defaults as `IndexBuilder::new()`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a custom page size.
    #[must_use]
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Use a custom leaf fill factor (0 < f ≤ 1).
    #[must_use]
    pub fn fill_factor(mut self, fill_factor: f64) -> Self {
        self.fill_factor = fill_factor;
        self
    }

    /// Predict the size of an index over `num_rows` rows: its leaf level
    /// here, its internal levels by [`IndexSizeEstimate::internal_pages`].
    ///
    /// # Errors
    /// Fails if the spec does not resolve against the schema, the page size
    /// or fill factor is out of range, or one record cannot fit a page at all.
    pub fn estimate(
        &self,
        schema: &Schema,
        spec: &IndexSpec,
        num_rows: usize,
    ) -> IndexResult<IndexSizeEstimate> {
        if !(self.fill_factor > 0.0 && self.fill_factor <= 1.0) {
            return Err(IndexError::InvalidSpec(format!(
                "fill factor must be in (0, 1], got {}",
                self.fill_factor
            )));
        }
        let entry_bytes = leaf_record_bytes(schema, spec)?;
        let key_cells = spec.key_indexes(schema)?.into_iter();
        let key_bytes: usize = key_cells
            .map(|i| schema.column_at(i).datatype.uncompressed_width())
            .sum();
        let usable = samplecf_storage::page::validate_page_size(self.page_size)? - PAGE_HEADER_SIZE;
        let needed = entry_bytes + SLOT_SIZE;
        if needed > usable {
            return Err(IndexError::InvalidSpec(format!(
                "index entry of {entry_bytes} bytes does not fit in a {}-byte page",
                self.page_size
            )));
        }
        // The leaf-fill rule (the loader fills pages by this count): admit
        // entries while used + needed <= fill-limited usable space, at least one.
        let target_fill = (usable as f64 * self.fill_factor) as usize;
        let entries_per_leaf = (target_fill / needed).max(1);
        let shape = IndexSizeEstimate {
            num_entries: 0,
            entry_bytes,
            entries_per_leaf,
            leaf_pages: 1,
            page_size: self.page_size,
            separator_bytes: 2 + key_bytes + Rid::ENCODED_LEN + 4,
        };
        Ok(shape.with_entries(num_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::IndexBuilder;
    use crate::spec::IndexSpec;
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
        assert!(r.data_density() > 0.0 && r.data_density() < 1.0);
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
    fn model_rejects_bad_configs() {
        let schema = Schema::single_char("a", 200);
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        assert!(IndexSizeModel::new()
            .fill_factor(0.0)
            .estimate(&schema, &spec, 10)
            .is_err());
        // A 200-byte record cannot fit a 128-byte page.
        assert!(IndexSizeModel::new()
            .page_size(128)
            .estimate(&schema, &spec, 10)
            .is_err());
        // Unknown column.
        let bad = IndexSpec::nonclustered("i", ["missing"]).unwrap();
        assert!(IndexSizeModel::new().estimate(&schema, &bad, 10).is_err());
    }

    #[test]
    fn the_internal_levels_fail_as_the_loader_does() {
        // 48 usable bytes.  A `char(13)` clustered record (14 + 4-byte slot)
        // fits twice, its separator (2 + 13 + 6 + 4, + slot) once: levels
        // would never narrow.  A `char(34)` non-clustered record (41 + 4)
        // fits, its 46-byte separator does not fit an empty page.
        for (width, kind) in [(13, IndexKind::Clustered), (34, IndexKind::NonClustered)] {
            let schema = Schema::single_char("a", width);
            let spec = IndexSpec::new("i", kind, ["a"]).unwrap();
            let builder = IndexBuilder::new().page_size(64);
            let model = IndexSizeModel::new().page_size(64);
            let per_leaf = model.estimate(&schema, &spec, 0).unwrap().entries_per_leaf;
            for n in [0, per_leaf, per_leaf + 1, 5 * per_leaf] {
                let rows: Vec<(Rid, Row)> = (0..n)
                    .map(|i| (Rid::new(0, i as u16), Row::new(vec![Value::str("v")])))
                    .collect();
                let built = builder.build_from_rows(&schema, &rows, &spec);
                let model = model.estimate(&schema, &spec, n).unwrap().internal_pages();
                assert_eq!(
                    model,
                    built.map(|tree| tree.num_internal_pages()),
                    "{n} rows"
                );
                assert_eq!(model.is_err(), n > per_leaf, "{kind}: {n} rows, {model:?}");
            }
        }
    }

    #[test]
    fn leaf_record_bytes_accounts_for_kind() {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(12)),
            Column::new("b", DataType::Int64),
        ])
        .unwrap();
        let nc = IndexSpec::nonclustered("nc", ["a"]).unwrap();
        let cl = IndexSpec::clustered("cl", ["a"]).unwrap();
        // nonclustered: 1-byte bitmap + 12-byte cell + 6-byte rid.
        assert_eq!(leaf_record_bytes(&schema, &nc).unwrap(), 1 + 12 + 6);
        // clustered: stores both columns, no rid.
        assert_eq!(leaf_record_bytes(&schema, &cl).unwrap(), 1 + 12 + 8);
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
