//! Compressing an index and reporting its compression fraction.
//!
//! This is the "Compress index I′ using C" step of the SampleCF algorithm
//! (paper Figure 2).  Columns are compressed independently, per leaf page,
//! which matches how the paper describes commercial implementations.

use crate::btree::{BTreeIndex, EntryLayout, KeyOrder, SortedRun};
use crate::error::{IndexError, IndexResult};
use crate::size::IndexSizeEstimate;
use crate::spec::IndexKind;
use samplecf_compression::{
    CellChunk, CellCosts, ColumnChunk, CompressionOutcome, CompressionScheme,
};
use samplecf_storage::{
    cell_logical_len, CellRef, DataType, Rid, Row, Schema, PAGE_HEADER_SIZE, SLOT_SIZE,
};
use std::ops::Range;
use std::sync::Arc;

/// Per-column compression statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnCompressionStat {
    /// Column name.
    pub column: String,
    /// Uncompressed bytes of this column across all leaf entries.
    pub uncompressed_bytes: usize,
    /// Compressed bytes of this column (including any shared dictionary).
    pub compressed_bytes: usize,
}

impl ColumnCompressionStat {
    /// Compression fraction of this column alone.
    #[must_use]
    pub fn cf(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            1.0
        } else {
            self.compressed_bytes as f64 / self.uncompressed_bytes as f64
        }
    }
}

/// The result of compressing an index.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedIndexReport {
    /// Name of the compression scheme used.
    pub scheme: String,
    /// Number of leaf entries.
    pub num_entries: usize,
    /// Number of (uncompressed) leaf pages.
    pub leaf_pages: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Per-column statistics, in stored-column order.
    pub per_column: Vec<ColumnCompressionStat>,
    /// RID pointer bytes in leaf entries (stored uncompressed).
    pub rid_bytes: usize,
    /// Null bitmap bytes in leaf entries (stored uncompressed).
    pub bitmap_bytes: usize,
    /// Internal (non-leaf) level bytes, which compression leaves untouched.
    pub internal_bytes: usize,
}

impl CompressedIndexReport {
    /// Uncompressed bytes of the stored column data (the paper's `n·k`).
    #[must_use]
    pub fn uncompressed_data_bytes(&self) -> usize {
        self.per_column.iter().map(|c| c.uncompressed_bytes).sum()
    }

    /// Compressed bytes of the stored column data.
    #[must_use]
    pub fn compressed_data_bytes(&self) -> usize {
        self.per_column.iter().map(|c| c.compressed_bytes).sum()
    }

    /// The compression fraction over column data, `CF = compressed /
    /// uncompressed` — the quantity the paper's analysis is about.
    #[must_use]
    pub fn cf(&self) -> f64 {
        self.outcome().compression_fraction()
    }

    /// Compression fraction including the bytes that compression does not
    /// touch (RID pointers and null bitmaps) in both numerator and
    /// denominator.  This is closer to what an engine would report for the
    /// whole leaf level.
    #[must_use]
    pub fn cf_with_pointers(&self) -> f64 {
        let overhead = self.rid_bytes + self.bitmap_bytes;
        let unc = self.uncompressed_data_bytes() + overhead;
        if unc == 0 {
            return 1.0;
        }
        (self.compressed_data_bytes() + overhead) as f64 / unc as f64
    }

    /// Estimated number of leaf pages after compression, assuming entries are
    /// repacked densely into pages of the same size.
    #[must_use]
    pub fn estimated_compressed_leaf_pages(&self) -> usize {
        if self.num_entries == 0 {
            return self.leaf_pages.min(1);
        }
        let usable = self.page_size - PAGE_HEADER_SIZE;
        let payload = self.compressed_data_bytes()
            + self.rid_bytes
            + self.bitmap_bytes
            + self.num_entries * SLOT_SIZE;
        payload.div_ceil(usable).max(1)
    }

    /// Page-level compression fraction: compressed leaf pages over
    /// uncompressed leaf pages.
    #[must_use]
    pub fn cf_pages(&self) -> f64 {
        if self.leaf_pages == 0 {
            return 1.0;
        }
        self.estimated_compressed_leaf_pages() as f64 / self.leaf_pages as f64
    }

    /// The data-only sizes as a [`CompressionOutcome`].
    #[must_use]
    pub fn outcome(&self) -> CompressionOutcome {
        CompressionOutcome::new(self.uncompressed_data_bytes(), self.compressed_data_bytes())
    }
}

/// Compress every stored column of the index's leaf level with `scheme` and
/// report the resulting sizes.
pub fn compress_index(
    index: &BTreeIndex,
    scheme: &dyn CompressionScheme,
) -> IndexResult<CompressedIndexReport> {
    let schema = index.table_schema();
    let stored = index.stored_column_indexes();

    // Decode each leaf page once, then slice per column.
    let mut per_page_entries = Vec::with_capacity(index.num_leaf_pages());
    for page in index.leaf_pages() {
        per_page_entries.push(index.leaf_entries(page)?);
    }

    let mut per_column = Vec::with_capacity(stored.len());
    for (pos, &col_idx) in stored.iter().enumerate() {
        let column = schema.column_at(col_idx);
        let chunks: Vec<ColumnChunk> = per_page_entries
            .iter()
            .map(|entries| {
                ColumnChunk::new(
                    column.datatype,
                    entries
                        .iter()
                        .map(|e| e.stored.value(pos).clone())
                        .collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        let uncompressed_bytes: usize = chunks.iter().map(ColumnChunk::uncompressed_bytes).sum();
        let compressed_bytes = scheme.compress_column(&chunks)?.compressed_bytes();
        per_column.push(ColumnCompressionStat {
            column: column.name.clone(),
            uncompressed_bytes,
            compressed_bytes,
        });
    }

    let n = index.num_entries();
    let rid_bytes = if index.spec().kind() == IndexKind::NonClustered {
        n * Rid::ENCODED_LEN
    } else {
        0
    };
    let bitmap_bytes = n * stored.len().div_ceil(8);

    Ok(CompressedIndexReport {
        scheme: scheme.name().to_string(),
        num_entries: n,
        leaf_pages: index.num_leaf_pages(),
        page_size: index.page_size(),
        per_column,
        rid_bytes,
        bitmap_bytes,
        internal_bytes: index.num_internal_pages() * index.page_size(),
    })
}

/// Measure every stored column of the index's leaf level with `scheme` —
/// the zero-copy counterpart of [`compress_index`].
///
/// Instead of decoding leaf entries into owned
/// [`Row`]s and running the byte-producing codec,
/// this borrows each stored cell in place (leaf records keep cells at fixed,
/// schema-determined offsets) and asks the scheme for its exact output size
/// via the batch measure kernels.  The returned report is identical, field
/// for field, to what [`compress_index`] produces on the same index — the
/// differential test suite pins this down for every scheme.
pub fn measure_index(
    index: &BTreeIndex,
    scheme: &dyn CompressionScheme,
) -> IndexResult<CompressedIndexReport> {
    let schema = index.table_schema();
    let stored = index.stored_column_indexes();
    let bitmap_len = stored.len().div_ceil(8);
    let cells = stored_cells(schema, stored);

    let mut per_column = Vec::with_capacity(stored.len());
    for (cell, &col_idx) in cells.iter().zip(stored) {
        let column = schema.column_at(col_idx);
        let mut chunks = Vec::with_capacity(index.num_leaf_pages());
        for page in index.leaf_pages() {
            let mut page_cells = Vec::with_capacity(usize::from(page.slot_count()));
            for record in page.records() {
                page_cells.push(cell.of(record));
            }
            chunks.push(CellChunk::new(column.datatype, page_cells)?);
        }
        let uncompressed_bytes: usize = chunks.iter().map(CellChunk::uncompressed_bytes).sum();
        let compressed_bytes = scheme.measure_chunks(&chunks)?;
        per_column.push(ColumnCompressionStat {
            column: column.name.clone(),
            uncompressed_bytes,
            compressed_bytes,
        });
    }

    let n = index.num_entries();
    let rid_bytes = if index.spec().kind() == IndexKind::NonClustered {
        n * Rid::ENCODED_LEN
    } else {
        0
    };
    let bitmap_bytes = n * bitmap_len;

    Ok(CompressedIndexReport {
        scheme: scheme.name().to_string(),
        num_entries: n,
        leaf_pages: index.num_leaf_pages(),
        page_size: index.page_size(),
        per_column,
        rid_bytes,
        bitmap_bytes,
        internal_bytes: index.num_internal_pages() * index.page_size(),
    })
}

/// Where one stored column's cell sits in every leaf record, and its type.
struct StoredCell {
    datatype: DataType,
    /// Its bit of the record's null bitmap: its place among the stored cells.
    null_bit: usize,
    bytes: Range<usize>,
}

impl StoredCell {
    /// This column's cell of `record`, borrowed in place.
    fn of<'r>(&self, record: &'r [u8]) -> CellRef<'r> {
        let is_null = record[self.null_bit / 8] & (1 << (self.null_bit % 8)) != 0;
        CellRef::new(is_null, &record[self.bytes.clone()])
    }
}

/// The stored cells of a leaf record — null bitmap first, then every cell at
/// its fixed, schema-determined offset — in stored-column order.
fn stored_cells(schema: &Schema, stored: &[usize]) -> Vec<StoredCell> {
    let mut offset = stored.len().div_ceil(8);
    let cell_at = |(null_bit, &i): (usize, &usize)| {
        let datatype = schema.column_at(i).datatype;
        let bytes = offset..offset + datatype.uncompressed_width();
        offset = bytes.end;
        StoredCell {
            datatype,
            null_bit,
            bytes,
        }
    };
    stored.iter().enumerate().map(cell_at).collect()
}

/// Sizes entries as the tree [`IndexBuilder`](crate::IndexBuilder) would pack
/// from them and [`measure_index`] would report — without the tree.
///
/// Leaf records are one length and the fill rule is arithmetic: leaf `p`
/// holds entries `p × entries_per_leaf ..` of the key order, whichever they
/// are, and the levels above are [`IndexSizeEstimate::internal_pages`].  Two
/// ways follow, by what the scheme declares:
///
/// * any scheme — one walk of the entries in key order cuts each leaf's
///   cells (borrowed from the entries' arena; no page, slot directory or
///   separator) once, prices them under any number of schemes, and reads the
///   first key column's statistics off the order on the way (the private
///   `walk`).  An [`OrderedEntries`] walks a held sample's entries, or one
///   stratum's; [`measure_run`](Self::measure_run) walks a [`SortedRun`] —
///   a progressive checkpoint's pooled sample, one stratum of it, or all
///   of it but one batch — or the whole table's, for the exact CF;
/// * a scheme that declares [`cell_costs`](CompressionScheme::cell_costs) —
///   no order at all.  Each leaf's size is a header fixed by its length plus
///   its cells' costs, so a column's size over *any* entries is one header
///   per leaf plus the entries' costs summed.  Rows are encoded once, in
///   any order, into those sums ([`add_cell_costs`](Self::add_cell_costs));
///   sums merge and subtract; [`price`](Self::price) turns them into the
///   whole report.
///
/// Either way every size equals, byte count for byte count, that of the
/// packed and measured tree.
///
/// Made by [`IndexBuilder::sizer`](crate::IndexBuilder::sizer).
pub struct RunSizer<'a> {
    layout: EntryLayout<'a>,
    /// The tree's shape by the size model, whatever the entry count.
    shape: IndexSizeEstimate,
    cells: Vec<StoredCell>,
}

/// The first key column over the entries of one walk: the inputs of the
/// paper's analysis (`d'`, `Σ ℓᵢ`), which a key order holds for free — equal
/// first-key cells are adjacent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstKeyStats {
    /// Entries whose first key cell is NULL.
    pub nulls: usize,
    /// Distinct non-NULL values.
    pub distinct: usize,
    /// Sum over the non-NULL cells of their values' logical lengths
    /// ([`Value::logical_len`](samplecf_storage::Value::logical_len)).
    pub logical_len_sum: usize,
}

/// Per stored column, a cell-additive scheme's [`CellCosts::cell`] summed
/// over some entries ([`RunSizer::add_cell_costs`]) — all
/// [`RunSizer::price`] needs of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCellCosts {
    entries: usize,
    per_column: Vec<usize>,
}

impl RunCellCosts {
    /// Number of entries summed.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Add `other`'s entries: the costs of the two sets together.
    ///
    /// # Panics
    /// If the two were summed for different stored columns (by sizers of
    /// different specs).
    pub fn merge(&mut self, other: &RunCellCosts) {
        assert_eq!(self.per_column.len(), other.per_column.len());
        self.entries += other.entries;
        for (sum, cost) in self.per_column.iter_mut().zip(&other.per_column) {
            *sum += cost;
        }
    }
}

impl<'a> RunSizer<'a> {
    pub(crate) fn new(layout: EntryLayout<'a>, shape: IndexSizeEstimate) -> Self {
        RunSizer {
            cells: stored_cells(layout.schema, &layout.stored_indexes),
            layout,
            shape,
        }
    }

    /// Size `entries` — `[key | record]` slices of this layout, in key order,
    /// at most `at_most` of them (the count sizes buffers only) — under
    /// every one of `schemes`: the reports [`measure_index`] would give on
    /// the tree packed from them, in `schemes`' order, and the first key
    /// column's statistics.
    ///
    /// Every `entries_per_leaf` entries are one leaf's worth of cells for
    /// [`measure_chunks`](CompressionScheme::measure_chunks), cut once for
    /// all schemes.  The statistics come off the same pass: among non-NULL
    /// entries a change of first-key cell is a new distinct value, whose
    /// logical length [`cell_logical_len`] reads from the cell bytes.  A NULL
    /// cell's all-zero placeholder equals the key bytes of a real value
    /// (`Int32`'s `i32::MIN`), so NULL entries interleave with that value's
    /// by RID: "changed" is against the previous *non-NULL* cell.
    ///
    /// # Errors
    /// A first-key cell [`decode_cell`](samplecf_storage::decode_cell) would
    /// reject is that [`IndexError::Storage`] error; the internal levels'
    /// are [`IndexSizeEstimate::internal_pages`]'s.
    fn walk<'e>(
        &self,
        at_most: usize,
        entries: impl Iterator<Item = &'e [u8]>,
        schemes: &[&dyn CompressionScheme],
    ) -> IndexResult<(Vec<CompressedIndexReport>, FirstKeyStats)> {
        let key_len = self.layout.key_len;
        let per_leaf = self.shape.entries_per_leaf;
        let pages = at_most.div_ceil(per_leaf).max(1);
        // Per stored column, the leaves cut so far.
        let mut columns: Vec<Vec<CellChunk>> = (self.cells.iter())
            .map(|_| Vec::with_capacity(pages))
            .collect();
        // Key columns are stored first: the first key cell is the record's
        // first cell, its null bit bit 0 of the record's bitmap.
        let first_key = &self.cells[0];
        let mut stats = FirstKeyStats::default();
        let (mut value, mut value_len): (Option<&[u8]>, usize) = (None, 0);
        let mut records = entries.map(|entry| &entry[key_len..]);
        // The records of the leaf being cut.
        let mut leaf: Vec<&[u8]> = Vec::with_capacity(per_leaf.min(at_most));
        let mut kept = 0;
        loop {
            leaf.clear();
            leaf.extend(records.by_ref().take(per_leaf));
            // No entries at all are still one leaf, the empty tree's.
            if leaf.is_empty() && kept > 0 {
                break;
            }
            for record in &leaf {
                let cell = first_key.of(record);
                if cell.is_null() {
                    stats.nulls += 1;
                    continue;
                }
                if value != Some(cell.bytes()) {
                    value = Some(cell.bytes());
                    value_len = cell_logical_len(cell.bytes(), &first_key.datatype)?;
                    stats.distinct += 1;
                }
                stats.logical_len_sum += value_len;
            }
            for (cell, chunks) in self.cells.iter().zip(&mut columns) {
                let cells = leaf.iter().map(|record| cell.of(record)).collect();
                chunks.push(CellChunk::new(cell.datatype, cells)?);
            }
            kept += leaf.len();
            if leaf.len() < per_leaf {
                break;
            }
        }

        let shape = self.shape.with_entries(kept);
        let internal_bytes = shape.internal_pages()? * shape.page_size;
        let reports = (schemes.iter())
            .map(|scheme| {
                let column = |pos: usize| Ok(scheme.measure_chunks(&columns[pos])?);
                self.report(scheme.name(), shape, internal_bytes, column)
            })
            .collect::<IndexResult<_>>()?;
        Ok((reports, stats))
    }

    /// The report of the tree of `shape` — `shape.num_entries` entries of
    /// this layout, `internal_bytes` above its leaves — under the scheme
    /// named `scheme`, its stored column `pos` compressed to `compressed(pos)`
    /// bytes.
    fn report(
        &self,
        scheme: &str,
        shape: IndexSizeEstimate,
        internal_bytes: usize,
        mut compressed: impl FnMut(usize) -> IndexResult<usize>,
    ) -> IndexResult<CompressedIndexReport> {
        let kept = shape.num_entries;
        let names =
            (self.layout.stored_indexes.iter()).map(|&i| &self.layout.schema.column_at(i).name);
        let mut per_column = Vec::with_capacity(self.cells.len());
        for ((pos, cell), name) in self.cells.iter().enumerate().zip(names) {
            per_column.push(ColumnCompressionStat {
                column: name.clone(),
                uncompressed_bytes: kept * cell.datatype.uncompressed_width(),
                compressed_bytes: compressed(pos)?,
            });
        }
        Ok(CompressedIndexReport {
            scheme: scheme.to_string(),
            num_entries: kept,
            leaf_pages: shape.leaf_pages,
            page_size: shape.page_size,
            per_column,
            rid_bytes: if self.layout.rid_in_record {
                kept * Rid::ENCODED_LEN
            } else {
                0
            },
            bitmap_bytes: kept * self.cells.len().div_ceil(8),
            internal_bytes,
        })
    }

    /// Size the index over `run`'s entries, less (as a multiset) those of
    /// `excluded`, that `keep` admits by RID — under every one of `schemes`,
    /// in one walk: per scheme the report [`measure_index`] gives on the tree
    /// packed from the same entries, and the first key column's statistics.
    /// A stratum keeps its pages' RIDs (a subsequence of a sorted run is
    /// sorted); a delete-one-batch sample excludes that batch's run, a sorted
    /// sub-multiset of `run` that a cursor consumes.  Equal keys are equal
    /// entries (the RID is part of the key), so which of several the cursor
    /// takes cannot show.
    ///
    /// # Errors
    /// Entries left on the cursor mean `excluded` was not drawn from `run`:
    /// [`IndexError::ExclusionMismatch`], never a silently wrong size.  A run
    /// whose entry lengths are not those of `(schema, spec)` is
    /// [`IndexError::InvalidSpec`]; otherwise as [`OrderedEntries::measure`].
    pub fn measure_run(
        &self,
        run: &SortedRun,
        excluded: Option<&SortedRun>,
        keep: impl Fn(Rid) -> bool,
        schemes: &[&dyn CompressionScheme],
    ) -> IndexResult<(Vec<CompressedIndexReport>, FirstKeyStats)> {
        self.layout.admit(run)?;
        excluded.map_or(Ok(()), |x| self.layout.admit(x))?;
        let key_len = self.layout.key_len;
        let mut cursor = (excluded.into_iter().flat_map(SortedRun::entries))
            .map(|x| &x[..key_len])
            .peekable();
        let kept = (run.entries())
            .filter(|entry| cursor.next_if_eq(&&entry[..key_len]).is_none())
            .filter(|entry| {
                let rid = &entry[key_len - Rid::ENCODED_LEN..key_len];
                keep(Rid::decode(rid.try_into().expect("a key ends in its RID")))
            });
        let at_most = run.len().saturating_sub(excluded.map_or(0, SortedRun::len));
        let walked = self.walk(at_most, kept, schemes)?;
        match cursor.count() {
            0 => Ok(walked),
            left_over => Err(IndexError::ExclusionMismatch { left_over }),
        }
    }

    /// Sums of no entries, for this sizer's stored columns: what
    /// [`add_cell_costs`](Self::add_cell_costs) adds to.
    #[must_use]
    pub fn empty_cell_costs(&self) -> RunCellCosts {
        RunCellCosts {
            entries: 0,
            per_column: vec![0; self.cells.len()],
        }
    }

    /// Encode each of `rows` as an entry of this layout — once, in the
    /// order given, into one reused buffer — and add `costs.cell` of its
    /// stored cells to `sums[group(i)]` for row `i`: one group for a batch,
    /// say, or one per stratum tag.  Nothing is sorted or kept.
    ///
    /// # Errors
    /// A row that does not match the schema is [`IndexError::Storage`], as
    /// when building; the sums may then hold the rows before it.
    ///
    /// # Panics
    /// If `group` names no member of `sums`, or `sums` were made by a sizer
    /// of other stored columns.
    pub fn add_cell_costs(
        &self,
        rows: &[(Rid, Row)],
        costs: &CellCosts,
        sums: &mut [RunCellCosts],
        group: impl Fn(usize) -> usize,
    ) -> IndexResult<()> {
        assert!((sums.iter()).all(|sum| sum.per_column.len() == self.cells.len()));
        let mut entry = Vec::with_capacity(self.layout.stride());
        for (i, (rid, row)) in rows.iter().enumerate() {
            entry.clear();
            self.layout.encode_row(*rid, row, &mut entry)?;
            let record = &entry[self.layout.key_len..];
            let sum = &mut sums[group(i)];
            sum.entries += 1;
            for (cell, total) in self.cells.iter().zip(&mut sum.per_column) {
                *total += (costs.cell)(cell.of(record), &cell.datatype);
            }
        }
        Ok(())
    }

    /// The report [`measure_index`] gives, under `scheme` — which declared
    /// `costs` — on the tree over the entries summed in `pooled`, less those
    /// summed in `excluded` if given: the progressive estimator's pooled
    /// sample, a stratum, a delete-one-batch sample.  Arithmetic, field for
    /// field; no entry is read.
    ///
    /// A column of `kept` entries costs its cells' costs — the pooled sum
    /// minus the excluded one — plus one chunk header per leaf, the leaves'
    /// lengths by the fill rule (an empty tree is one empty leaf); leaf and
    /// internal page counts are the size model's.
    ///
    /// # Errors
    /// A page so small that an internal page holds a single separator key is
    /// [`IndexError::InvalidSpec`], as when building.
    ///
    /// # Panics
    /// If `excluded` holds more than `pooled` does.  Sums cannot show a
    /// foreign batch the way the walk's cursor does: `excluded` must have
    /// been [`merge`](RunCellCosts::merge)d into `pooled`.
    pub fn price(
        &self,
        scheme: &dyn CompressionScheme,
        costs: &CellCosts,
        pooled: &RunCellCosts,
        excluded: Option<&RunCellCosts>,
    ) -> IndexResult<CompressedIndexReport> {
        let part_of = "`excluded` was merged into `pooled`";
        let kept = (pooled
            .entries
            .checked_sub(excluded.map_or(0, |x| x.entries)))
        .expect(part_of);
        let shape = self.shape.with_entries(kept);
        let per_leaf = shape.entries_per_leaf;
        let (full, rest) = (kept / per_leaf, kept % per_leaf);
        let mut headers = full * (costs.chunk_header)(per_leaf);
        if rest > 0 || full == 0 {
            headers += (costs.chunk_header)(rest);
        }
        let column = |pos: usize| {
            let excluded = excluded.map_or(0, |x| x.per_column[pos]);
            Ok(headers + pooled.per_column[pos].checked_sub(excluded).expect(part_of))
        };
        let internal_bytes = shape.internal_pages()? * shape.page_size;
        self.report(scheme.name(), shape, internal_bytes, column)
    }
}

/// One input's entries — a held sample's records — encoded once and ordered
/// by key: every scheme's size, every stratum's and the first key column's
/// statistics are walks through this one order, and no tree is packed for
/// any of them (see [`RunSizer`]).
///
/// Made by [`IndexBuilder::order_records`](crate::IndexBuilder::order_records),
/// which sorts, or
/// [`IndexBuilder::encode_in_order`](crate::IndexBuilder::encode_in_order),
/// which reuses a [`KeyOrder`] that call sorted.  The order depends on the
/// key columns alone, so it serves every candidate index over them,
/// whatever its kind or name.
pub struct OrderedEntries<'a> {
    sizer: RunSizer<'a>,
    /// The entries as encoded: entry `i` is input `i`.
    arena: Vec<u8>,
    /// `arena`'s entry numbers, sorted by key.
    order: Arc<KeyOrder>,
}

impl<'a> OrderedEntries<'a> {
    pub(crate) fn new(sizer: RunSizer<'a>, arena: Vec<u8>, order: Arc<KeyOrder>) -> Self {
        OrderedEntries {
            sizer,
            arena,
            order,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The order the entries are walked in — to hold beside the records and
    /// hand back to [`IndexBuilder::encode_in_order`](crate::IndexBuilder::encode_in_order).
    #[must_use]
    pub fn key_order(&self) -> &Arc<KeyOrder> {
        &self.order
    }

    /// Size the index over all entries under every one of `schemes`, in one
    /// walk: per scheme, in `schemes`' order, the report [`measure_index`]
    /// gives on the tree built from the same input — field for field,
    /// `leaf_pages` and `internal_bytes` included — and the first key
    /// column's statistics.
    ///
    /// # Errors
    /// A first-key cell [`decode_cell`](samplecf_storage::decode_cell)
    /// rejects is that [`IndexError::Storage`] error; a page so small that
    /// an internal page holds a single separator key is
    /// [`IndexError::InvalidSpec`], as when building.
    pub fn measure(
        &self,
        schemes: &[&dyn CompressionScheme],
    ) -> IndexResult<(Vec<CompressedIndexReport>, FirstKeyStats)> {
        self.measure_where(|_| true, schemes)
    }

    /// [`measure`](Self::measure) over the entries whose input number `keep`
    /// admits — one stratum of a stratified sample, say.  A subsequence of a
    /// sorted sequence is sorted: nothing is sorted again.
    pub fn measure_where(
        &self,
        keep: impl Fn(usize) -> bool,
        schemes: &[&dyn CompressionScheme],
    ) -> IndexResult<(Vec<CompressedIndexReport>, FirstKeyStats)> {
        let stride = self.sizer.layout.stride();
        let kept = self.order.entries().iter().filter(|&&i| keep(i as usize));
        let entries = kept.map(|&i| &self.arena[i as usize * stride..][..stride]);
        self.sizer.walk(self.len(), entries, schemes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::IndexBuilder;
    use crate::spec::IndexSpec;
    use samplecf_compression::{
        DictionaryCompression, GlobalDictionaryCompression, NullSuppression, Uncompressed,
    };
    use samplecf_storage::{Column, DataType, Row, Schema, Table, TableBuilder, Value};

    fn table(n: usize, distinct: usize, value_len: usize, k: u16) -> Table {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(k)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap();
        TableBuilder::new("t", schema)
            .build_with_rows((0..n).map(|i| {
                Row::new(vec![
                    Value::str(format!("{:0width$}", i % distinct, width = value_len)),
                    Value::int(i as i64),
                ])
            }))
            .unwrap()
    }

    fn build(t: &Table) -> BTreeIndex {
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        IndexBuilder::new()
            .page_size(2048)
            .build_from_table(t, &spec)
            .unwrap()
    }

    #[test]
    fn uncompressed_scheme_gives_cf_near_one() {
        let t = table(2000, 50, 8, 30);
        let idx = build(&t);
        let report = compress_index(&idx, &Uncompressed).unwrap();
        assert_eq!(report.uncompressed_data_bytes(), 2000 * 30);
        let cf = report.cf();
        assert!(cf > 0.99 && cf < 1.05, "cf = {cf}");
    }

    #[test]
    fn null_suppression_cf_matches_expected_ratio() {
        // Values are 8 characters wide stored in char(32): CF ≈ (8 + 1)/32.
        let t = table(3000, 3000, 8, 32);
        let idx = build(&t);
        let report = compress_index(&idx, &NullSuppression).unwrap();
        let cf = report.cf();
        let expected = 9.0 / 32.0;
        assert!(
            (cf - expected).abs() < 0.02,
            "cf = {cf}, expected ≈ {expected}"
        );
    }

    #[test]
    fn dictionary_compression_benefits_from_few_distinct_values() {
        let few = {
            let t = table(4000, 10, 10, 20);
            compress_index(&build(&t), &DictionaryCompression::default()).unwrap()
        };
        let many = {
            let t = table(4000, 4000, 10, 20);
            compress_index(&build(&t), &DictionaryCompression::default()).unwrap()
        };
        assert!(few.cf() < many.cf());
        assert!(few.cf() < 0.3, "cf = {}", few.cf());
        assert!(many.cf() > 0.5, "cf = {}", many.cf());
    }

    #[test]
    fn global_dictionary_is_never_worse_than_paged() {
        let t = table(5000, 40, 12, 24);
        let idx = build(&t);
        let paged = compress_index(&idx, &DictionaryCompression::default()).unwrap();
        let global = compress_index(&idx, &GlobalDictionaryCompression::default()).unwrap();
        assert!(global.compressed_data_bytes() <= paged.compressed_data_bytes());
    }

    #[test]
    fn per_column_stats_cover_all_stored_columns() {
        let t = table(500, 20, 6, 16);
        let spec = IndexSpec::clustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(2048)
            .build_from_table(&t, &spec)
            .unwrap();
        let report = compress_index(&idx, &NullSuppression).unwrap();
        assert_eq!(report.per_column.len(), 2);
        assert_eq!(report.per_column[0].column, "a");
        assert_eq!(report.per_column[1].column, "id");
        assert_eq!(report.rid_bytes, 0);
        for c in &report.per_column {
            assert!(c.cf() > 0.0);
        }
    }

    #[test]
    fn page_estimates_shrink_for_compressible_data() {
        let t = table(5000, 5, 4, 40);
        let idx = build(&t);
        let report = compress_index(&idx, &DictionaryCompression::default()).unwrap();
        assert!(report.estimated_compressed_leaf_pages() < report.leaf_pages);
        assert!(report.cf_pages() < 1.0);
        assert!(report.cf_with_pointers() < 1.0);
        assert!(report.cf_with_pointers() > report.cf());
    }

    #[test]
    fn empty_index_reports_neutral_cf() {
        let schema = Schema::single_char("a", 8);
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema, &[], &spec)
            .unwrap();
        let report = compress_index(&idx, &NullSuppression).unwrap();
        assert_eq!(report.cf(), 1.0);
        assert_eq!(report.cf_pages(), 1.0);
        assert_eq!(report.estimated_compressed_leaf_pages(), 1);
    }

    fn all_schemes() -> Vec<Box<dyn CompressionScheme>> {
        vec![
            Box::new(Uncompressed),
            Box::new(NullSuppression),
            Box::new(samplecf_compression::RunLengthEncoding),
            Box::new(samplecf_compression::PrefixCompression),
            Box::new(DictionaryCompression::default()),
            Box::new(GlobalDictionaryCompression::default()),
        ]
    }

    #[test]
    fn measure_index_matches_compress_index_for_every_scheme() {
        let t = table(3000, 40, 8, 24);
        for spec in [
            IndexSpec::nonclustered("i", ["a"]).unwrap(),
            IndexSpec::clustered("i", ["a"]).unwrap(),
        ] {
            let idx = IndexBuilder::new()
                .page_size(2048)
                .build_from_table(&t, &spec)
                .unwrap();
            for scheme in all_schemes() {
                let compressed = compress_index(&idx, scheme.as_ref()).unwrap();
                let measured = measure_index(&idx, scheme.as_ref()).unwrap();
                assert_eq!(
                    measured,
                    compressed,
                    "scheme {} report mismatch",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn measure_index_matches_compress_index_with_nulls() {
        let schema = Schema::new(vec![
            Column::nullable("a", DataType::Char(10)),
            Column::new("b", DataType::Int32),
        ])
        .unwrap();
        let rows: Vec<(samplecf_storage::Rid, Row)> = (0..800)
            .map(|i| {
                let v = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("v{}", i % 25))
                };
                (
                    samplecf_storage::Rid::new(i / 100, (i % 100) as u16),
                    Row::new(vec![v, Value::int(i64::from(i))]),
                )
            })
            .collect();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(1024)
            .build_from_rows(&schema, &rows, &spec)
            .unwrap();
        for scheme in all_schemes() {
            assert_eq!(
                measure_index(&idx, scheme.as_ref()).unwrap(),
                compress_index(&idx, scheme.as_ref()).unwrap(),
                "scheme {} report mismatch on NULL-heavy index",
                scheme.name()
            );
        }
    }

    #[test]
    fn measure_index_handles_the_empty_tree() {
        let schema = Schema::single_char("a", 8);
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema, &[], &spec)
            .unwrap();
        for scheme in all_schemes() {
            assert_eq!(
                measure_index(&idx, scheme.as_ref()).unwrap(),
                compress_index(&idx, scheme.as_ref()).unwrap()
            );
        }
    }
}
