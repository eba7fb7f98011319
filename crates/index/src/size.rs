//! Uncompressed index size accounting, analytic ([`IndexSizeModel`]).
//!
//! The model computes a tree's leaf-level figures from the schema and row
//! count alone — no index
//! build, no page reads — which is what lets the physical-design advisor
//! price the *uncompressed* side of every candidate for free (the paper's
//! point is that only the compressed side needs sampling).  Leaf records are
//! fixed-width (null bitmap + fixed cells + optional RID), and the bulk
//! loader fills pages by asking this model — the leaf-fill rule is stated
//! once, in [`IndexSizeModel::estimate`] — so the model is exact.  Separator
//! records are one length too, so the internal levels above those leaves are
//! arithmetic as well ([`IndexSizeEstimate::internal_pages`]): what lets a
//! size-only walk report a whole tree's page counts without building one.

use crate::error::{IndexError, IndexResult};
use crate::spec::{IndexKind, IndexSpec};
use samplecf_storage::page::max_record_len;
use samplecf_storage::{Rid, Schema, StorageError, DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE};

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
    /// Predicted leaf-level bytes (leaf pages at full page size) — what a
    /// built tree's leaf pages fill at full page size.
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

    /// Predicted number of internal pages, all levels — the count a built
    /// tree takes when it is loaded and reports as
    /// [`BTreeIndex::num_internal_pages`](crate::BTreeIndex::num_internal_pages):
    /// the loader packs no separator page.
    ///
    /// A B+-tree's internal pages hold separator records of one length,
    /// filled to capacity a level per pass until a single root is left; so
    /// each level is the one below ceil-divided by the separators
    /// [`Page::fits`](samplecf_storage::Page::fits) admits to an empty page.
    /// The dev-only `samplecf-oracle` crate packs those pages for real, as
    /// the reference this count is tested against.
    ///
    /// # Errors
    /// When more than one leaf needs a level above it: a separator that
    /// fits no page is [`IndexError::Storage`] (`RecordTooLarge`); a page
    /// that holds a single separator is [`IndexError::InvalidSpec`] — no
    /// level can narrow.  A build of such a tree fails with the same error.
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
    use crate::spec::IndexSpec;
    use samplecf_storage::{Column, DataType, Schema};

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
}
