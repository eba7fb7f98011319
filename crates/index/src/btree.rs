//! B+-tree indexes built by bulk loading.
//!
//! The estimator's procedure is "build an index on the sample, compress it".
//! This module provides the index: a bulk-loaded B+-tree whose leaf level is
//! made of real slotted [`Page`]s, so that page counts, slot overheads and
//! fill factors are all measurable.  Internal levels store separator keys and
//! child page numbers.
//!
//! # An entry is bytes
//!
//! Every cell is a fixed-width, order-preserving encoding, so for one
//! `(schema, IndexSpec)` the sort-key and leaf-record lengths are constants.
//! What encoding produces and what a [`SortedRun`] holds is therefore one
//! `Vec<u8>` arena of `n × (key_len + record_len)` bytes, entry `i` at
//! `i × stride` (stored columns per [`IndexSpec::stored_column_indexes`]):
//!
//! ```text
//! [ key cells ][     RID      ][ null bitmap ][ stored cells ][ RID (non-clustered) ]
//! |<--- sort key, key_len --->|<---------- leaf record, record_len ----------->|
//! ```
//!
//! No entry owns an allocation: encoding appends to the arena, sorting
//! permutes entry numbers, merging copies stride-sized chunks, and the leaf
//! packer inserts `entry[key_len..]` into its page.
//!
//! # Why the prefix sort is order-exact
//!
//! Entries are ordered by key bytes (the RID is part of the key, so entries
//! of one input with equal keys are fully equal).  The sort orders `(u64
//! big-endian key prefix, u32 entry number)` pairs.  All keys of an arena
//! have one length, so comparing their zero-padded first eight bytes as
//! integers *is* comparing those bytes lexicographically; prefix ties fall
//! through to a slice compare of the rest of the key, full-key ties to the
//! entry number — the order of a stable sort on the whole key, for keys
//! shorter or longer than the prefix alike.

use crate::compress::{OrderedEntries, RunSizer};
use crate::error::{IndexError, IndexResult};
use crate::size::{leaf_record_bytes, IndexSizeEstimate, IndexSizeModel};
use crate::spec::{IndexKind, IndexSpec};
use samplecf_parallel::{parallel_indexed_map, resolve_threads};
use samplecf_storage::{
    decode_cell, encode_cell, Page, Rid, Row, RowCodec, RowRef, Schema, Table, Value,
    DEFAULT_PAGE_SIZE,
};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// One decoded leaf entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Stored column values, in stored-column order (key columns first).
    pub stored: Row,
    /// Row pointer back into the base table (present for non-clustered
    /// indexes; clustered leaves *are* the rows).
    pub rid: Option<Rid>,
}

/// A bulk-loaded B+-tree.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    spec: IndexSpec,
    table_schema: Schema,
    stored_indexes: Vec<usize>,
    key_count: usize,
    page_size: usize,
    leaf_pages: Vec<Page>,
    /// Internal levels from the level just above the leaves up to the root.
    internal_levels: Vec<Vec<Page>>,
    num_entries: usize,
}

/// Builder configuring page size, fill factor and worker threads for bulk
/// loads: encode entries into one arena, sort them by key, pack their records
/// into leaf pages (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct IndexBuilder {
    page_size: usize,
    fill_factor: f64,
    threads: usize,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder {
            page_size: DEFAULT_PAGE_SIZE,
            fill_factor: 1.0,
            threads: 1,
        }
    }
}

impl IndexBuilder {
    /// Entries a bulk load must hold per worker thread before it fans out.
    ///
    /// Each of a load's three stages starts and joins its workers; with
    /// less work than this per worker that costs more than the split saves.
    /// (This crate's unit tests fan out at any size, so that small inputs
    /// exercise every stage's split.)
    pub const MIN_ENTRIES_PER_WORKER: usize = if cfg!(test) { 1 } else { 16_384 };

    /// Create a builder with the default page size, a 100% fill factor and
    /// one worker (everything runs on the calling thread).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a custom page size for index pages.
    #[must_use]
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Limit leaf fill to the given fraction (0 < f ≤ 1) of usable page space.
    #[must_use]
    pub fn fill_factor(mut self, fill_factor: f64) -> Self {
        self.fill_factor = fill_factor;
        self
    }

    /// Number of worker threads for bulk loads (0 = all available
    /// parallelism, 1 = the calling thread only; the default).
    ///
    /// Workers split what one thread does — input chunks to encode, the
    /// sort's key-range buckets, leaf pages to fill — and the resulting tree
    /// is byte-identical for every thread count.  A load is given at most
    /// one worker per [`MIN_ENTRIES_PER_WORKER`](Self::MIN_ENTRIES_PER_WORKER)
    /// entries, so a build too small to repay starting threads runs on the
    /// calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Workers for a load of `entries` entries — one count for its encode,
    /// sort and pack stages alike.
    fn workers(&self, entries: usize) -> usize {
        resolve_threads(self.threads, entries / Self::MIN_ENTRIES_PER_WORKER)
    }

    /// The entry layout and, by the size model, the shape of any tree this
    /// builder loads from such entries (its fill rule gives the entries per
    /// leaf page) — page size, fill factor and record length are checked here.
    fn plan<'a>(
        &self,
        schema: &'a Schema,
        spec: &IndexSpec,
    ) -> IndexResult<(EntryLayout<'a>, IndexSizeEstimate)> {
        let model = IndexSizeModel::new()
            .page_size(self.page_size)
            .fill_factor(self.fill_factor);
        let shape = model.estimate(schema, spec, 0)?;
        Ok((EntryLayout::new(schema, spec)?, shape))
    }

    /// Encode `len` inputs into one arena (a contiguous chunk per worker).
    fn encode(
        &self,
        layout: &EntryLayout,
        len: usize,
        encode_chunk: impl Fn(&EntryLayout, Range<usize>, &mut Vec<u8>) -> IndexResult<()> + Sync,
    ) -> IndexResult<Vec<u8>> {
        let stride = layout.stride();
        let workers = self.workers(len);
        let mut parts = parallel_indexed_map(workers, workers, |w| {
            let range = w * len / workers..(w + 1) * len / workers;
            let mut part = Vec::with_capacity(range.len() * stride);
            encode_chunk(layout, range, &mut part).map(|()| part)
        })
        .into_iter()
        .collect::<IndexResult<Vec<Vec<u8>>>>()?;
        Ok(match parts.len() {
            1 => parts.swap_remove(0),
            _ => parts.concat(),
        })
    }

    /// [`encode`](Self::encode), sort, then pack the leaves *through* the
    /// permutation.
    fn build_encoded(
        &self,
        schema: &Schema,
        spec: &IndexSpec,
        len: usize,
        encode_chunk: impl Fn(&EntryLayout, Range<usize>, &mut Vec<u8>) -> IndexResult<()> + Sync,
    ) -> IndexResult<BTreeIndex> {
        let (layout, shape) = self.plan(schema, spec)?;
        let arena = self.encode(&layout, len, encode_chunk)?;
        let order = key_order(&arena, &layout, self.workers(len))?;
        let stride = layout.stride();
        let entry = |i: usize| &arena[order[i].1 as usize * stride..][..stride];
        self.pack(spec, layout, shape.entries_per_leaf, len, entry)
    }

    /// Build an index over all rows of a table.
    pub fn build_from_table(&self, table: &Table, spec: &IndexSpec) -> IndexResult<BTreeIndex> {
        let rows: Vec<(Rid, Row)> = table.scan().collect();
        self.build_from_rows(table.schema(), &rows, spec)
    }

    /// Build an index over an explicit set of `(rid, row)` pairs — this is how
    /// SampleCF builds the index on a sample.
    ///
    /// # Errors
    /// Checked before any row is read, so for an empty input too: a page
    /// size outside storage's supported range is [`IndexError::Storage`]
    /// (`PageCorruption`); a fill factor outside `(0, 1]` or a leaf record
    /// that does not fit the page is [`IndexError::InvalidSpec`], at every
    /// thread count.  While loading: a row that does not match the schema
    /// is [`IndexError::Storage`]; more than `u32::MAX` entries, or a page
    /// so small that an internal page holds a single separator key, is
    /// `InvalidSpec`.
    pub fn build_from_rows(
        &self,
        schema: &Schema,
        rows: &[(Rid, Row)],
        spec: &IndexSpec,
    ) -> IndexResult<BTreeIndex> {
        self.build_encoded(schema, spec, rows.len(), |layout, range, out| {
            layout.encode_rows(&rows[range], out)
        })
    }

    /// Build an index from borrowed, already-encoded heap records — the
    /// zero-copy counterpart of [`build_from_rows`](Self::build_from_rows).
    ///
    /// Heap records keep every cell in the canonical fixed-width encoding an
    /// index entry uses (NULL cells too: all-zero placeholders on both
    /// sides, the null bitmap authoritative), so entries are byte-sliced
    /// straight into the arena — no [`Value`] is decoded or re-encoded — and
    /// the tree is byte-identical to `build_from_rows` over the decoded rows.
    ///
    /// # Errors
    /// As [`build_from_rows`](Self::build_from_rows); a record that is not
    /// the schema's record size is [`IndexError::Storage`] (`Decode`).
    pub fn build_from_records(
        &self,
        schema: &Schema,
        records: &[(Rid, &[u8])],
        spec: &IndexSpec,
    ) -> IndexResult<BTreeIndex> {
        self.build_encoded(schema, spec, records.len(), |layout, range, out| {
            layout.encode_records(&records[range], out)
        })
    }

    /// Build an index from an already-sorted run of encoded entries: the
    /// tree a walk of the run ([`RunSizer::measure_run`]) is pinned to,
    /// byte-identical to [`build_from_rows`](Self::build_from_rows) over the
    /// rows of every batch merged into it.
    ///
    /// # Errors
    /// A non-empty run whose key or record length is not what `(schema,
    /// spec)` implies was encoded for something else:
    /// [`IndexError::InvalidSpec`].  The check is on the two entry lengths
    /// only: a run encoded for other columns of the same widths passes it.
    pub fn build_from_sorted_run(
        &self,
        schema: &Schema,
        spec: &IndexSpec,
        run: &SortedRun,
    ) -> IndexResult<BTreeIndex> {
        let (layout, shape) = self.plan(schema, spec)?;
        layout.admit(run)?;
        let entry = |i: usize| &run.arena[i * run.stride()..][..run.stride()];
        self.pack(spec, layout, shape.entries_per_leaf, run.len(), entry)
    }

    /// Encode borrowed heap records as
    /// [`build_from_records`](Self::build_from_records) does and sort them
    /// by key — and stop there: the [`OrderedEntries`] sizes the index over
    /// them, under any number of schemes, without packing it, and hands out
    /// the [`KeyOrder`] it sorted, for
    /// [`encode_in_order`](Self::encode_in_order) to reuse.
    ///
    /// # Errors
    /// As [`build_from_records`](Self::build_from_records), less what only
    /// packing meets: page size, fill factor and record length are checked
    /// before any record is read; a record of the wrong length is
    /// [`IndexError::Storage`] (`Decode`); more than `u32::MAX` records is
    /// [`IndexError::InvalidSpec`].
    pub fn order_records<'a>(
        &self,
        schema: &'a Schema,
        records: &[(Rid, &[u8])],
        spec: &IndexSpec,
    ) -> IndexResult<OrderedEntries<'a>> {
        let (layout, shape) = self.plan(schema, spec)?;
        let arena = self.encode_records(&layout, records)?;
        let order = KeyOrder {
            entries: (key_order(&arena, &layout, self.workers(records.len()))?.into_iter())
                .map(|(_, i)| i)
                .collect(),
            key_columns: layout.key_indexes.clone(),
        };
        let sizer = RunSizer::new(layout, shape);
        Ok(OrderedEntries::new(sizer, arena, Arc::new(order)))
    }

    /// [`order_records`](Self::order_records) without the sort: encode the
    /// records and walk them through `order`, which an earlier
    /// `order_records` over the same records sorted — for an index of any
    /// kind over the same key columns.
    ///
    /// # Errors
    /// An `order` sorted for other key columns, or over another number of
    /// records, is [`IndexError::InvalidSpec`], checked before any record is
    /// read; otherwise as [`order_records`](Self::order_records).
    pub fn encode_in_order<'a>(
        &self,
        schema: &'a Schema,
        records: &[(Rid, &[u8])],
        spec: &IndexSpec,
        order: Arc<KeyOrder>,
    ) -> IndexResult<OrderedEntries<'a>> {
        let (layout, shape) = self.plan(schema, spec)?;
        layout.admit_order(&order, records.len())?;
        let arena = self.encode_records(&layout, records)?;
        let sizer = RunSizer::new(layout, shape);
        Ok(OrderedEntries::new(sizer, arena, order))
    }

    /// [`encode`](Self::encode) borrowed heap records.
    fn encode_records(
        &self,
        layout: &EntryLayout,
        records: &[(Rid, &[u8])],
    ) -> IndexResult<Vec<u8>> {
        self.encode(layout, records.len(), |layout, range, out| {
            layout.encode_records(&records[range], out)
        })
    }

    /// What sizes a sorted run as the index this builder would load from it,
    /// without loading it (see [`RunSizer`]).
    ///
    /// # Errors
    /// As [`build_from_rows`](Self::build_from_rows) before any row is read:
    /// page size, fill factor and record length are checked here.
    pub fn sizer<'a>(&self, schema: &'a Schema, spec: &IndexSpec) -> IndexResult<RunSizer<'a>> {
        let (layout, shape) = self.plan(schema, spec)?;
        Ok(RunSizer::new(layout, shape))
    }

    /// Pack `n` sorted entries — `entry(i)` is a slice of some arena — into
    /// leaf pages and build the internal levels over them.  Records are one
    /// length, so the fill rule is arithmetic: page `p` holds entries
    /// `p × per_leaf ..`, an empty build one empty leaf; pages fill independently.
    fn pack<'a>(
        &self,
        spec: &IndexSpec,
        layout: EntryLayout<'_>,
        per_leaf: usize,
        n: usize,
        entry: impl Fn(usize) -> &'a [u8] + Sync,
    ) -> IndexResult<BTreeIndex> {
        let key_len = layout.key_len;
        let pages = n.div_ceil(per_leaf).max(1);
        let workers = self.workers(n);
        let leaf_pages = parallel_indexed_map(pages, workers, |p| -> IndexResult<Page> {
            let mut page = Page::new(p as u32, self.page_size)?;
            for i in p * per_leaf..((p + 1) * per_leaf).min(n) {
                page.insert(&entry(i)[key_len..])?
                    .expect("the fill rule admits only what fits");
            }
            Ok(page)
        })
        .into_iter()
        .collect::<IndexResult<Vec<Page>>>()?;

        // Separator keys are borrowed; only the internal records copy them.
        let first_keys = (0..pages.min(n)).map(|p| &entry(p * per_leaf)[..key_len]);
        let internal_levels = self.internal_levels(first_keys.collect())?;

        Ok(BTreeIndex {
            spec: spec.clone(),
            table_schema: layout.schema.clone(),
            key_count: layout.key_indexes.len(),
            stored_indexes: layout.stored_indexes,
            page_size: self.page_size,
            leaf_pages,
            internal_levels,
            num_entries: n,
        })
    }

    /// Build the internal levels bottom-up over the leaf pages' first keys,
    /// each entry `[2-byte key length][separator key][4-byte child page]`.
    fn internal_levels(&self, first_keys: Vec<&[u8]>) -> IndexResult<Vec<Vec<Page>>> {
        let mut internal_levels: Vec<Vec<Page>> = Vec::new();
        let mut level_children: Vec<(&[u8], u32)> = first_keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();
        while level_children.len() > 1 {
            let mut pages: Vec<Page> = Vec::new();
            let mut page = Page::new(0, self.page_size)?;
            let mut next_children: Vec<(&[u8], u32)> = Vec::new();
            let mut first_key_of_page: Option<&[u8]> = None;
            for (key, child) in &level_children {
                let rec = encode_internal_record(key, *child);
                if !page.fits(rec.len()) {
                    next_children
                        .push((first_key_of_page.take().unwrap_or(&[]), pages.len() as u32));
                    pages.push(page);
                    page = Page::new(pages.len() as u32, self.page_size)?;
                }
                if first_key_of_page.is_none() {
                    first_key_of_page = Some(key);
                }
                page.insert(&rec)?
                    .ok_or_else(|| IndexError::InvalidSpec("internal entry does not fit".into()))?;
            }
            next_children.push((first_key_of_page.unwrap_or(&[]), pages.len() as u32));
            pages.push(page);
            if pages.len() == level_children.len() {
                let why = "an internal page holds one separator key: no level can narrow";
                return Err(IndexError::InvalidSpec(why.into()));
            }
            internal_levels.push(pages);
            level_children = next_children;
        }
        Ok(internal_levels)
    }
}

/// What `(schema, spec)` fixes about every entry: which cells make up the
/// sort key and the leaf record, and the two constant lengths.
pub(crate) struct EntryLayout<'a> {
    pub(crate) schema: &'a Schema,
    key_indexes: Vec<usize>,
    /// Key columns first: a record's first cells copy its entry's key cells.
    pub(crate) stored_indexes: Vec<usize>,
    /// Whether leaf records end in the RID (non-clustered indexes).
    pub(crate) rid_in_record: bool,
    /// Key cells plus the RID tie-break that makes the load deterministic.
    pub(crate) key_len: usize,
    /// Null bitmap, stored cells and (non-clustered) the RID.
    record_len: usize,
}

impl<'a> EntryLayout<'a> {
    fn new(schema: &'a Schema, spec: &IndexSpec) -> IndexResult<Self> {
        let key_indexes = spec.key_indexes(schema)?;
        let stored_indexes = spec.stored_column_indexes(schema)?;
        assert!(stored_indexes.starts_with(&key_indexes));
        let key_cells = key_indexes
            .iter()
            .map(|&i| schema.column_at(i).datatype.uncompressed_width());
        Ok(EntryLayout {
            schema,
            key_len: key_cells.sum::<usize>() + Rid::ENCODED_LEN,
            record_len: leaf_record_bytes(schema, spec)?,
            rid_in_record: spec.kind() == IndexKind::NonClustered,
            key_indexes,
            stored_indexes,
        })
    }

    pub(crate) fn stride(&self) -> usize {
        self.key_len + self.record_len
    }

    /// A run handed in beside `(schema, spec)` has its entry lengths, or is
    /// empty (lengths only: same-width columns are indistinguishable here).
    pub(crate) fn admit(&self, run: &SortedRun) -> IndexResult<()> {
        if run.is_empty() || (run.key_len, run.record_len) == (self.key_len, self.record_len) {
            return Ok(());
        }
        Err(IndexError::InvalidSpec(format!(
            "sorted run holds {} + {}-byte entries, this schema and spec imply {} + {}",
            run.key_len, run.record_len, self.key_len, self.record_len
        )))
    }

    /// An order handed in beside `(schema, spec)` was sorted by this key
    /// over `entries` inputs.  Rows are only ever appended to a sample, so
    /// an order sorted before its rows changed is one of another length.
    fn admit_order(&self, order: &KeyOrder, entries: usize) -> IndexResult<()> {
        if (&order.key_columns, order.len()) == (&self.key_indexes, entries) {
            return Ok(());
        }
        Err(IndexError::InvalidSpec(format!(
            "key order of {} entries by columns {:?}, these are {} entries by columns {:?}",
            order.len(),
            order.key_columns,
            entries,
            self.key_indexes
        )))
    }

    /// Append one `[key | record]` entry to `out` — the one writer of the
    /// layout.  `cell(i, out)` appends column `i`'s fixed-width encoding.
    fn encode_entry(
        &self,
        rid: Rid,
        is_null: impl Fn(usize) -> bool,
        mut cell: impl FnMut(usize, &mut Vec<u8>) -> IndexResult<()>,
        out: &mut Vec<u8>,
    ) -> IndexResult<()> {
        let key_at = out.len();
        for &i in &self.key_indexes {
            cell(i, out)?;
        }
        out.extend_from_slice(&rid.encode());
        let bitmap_at = out.len();
        out.resize(bitmap_at + self.stored_indexes.len().div_ceil(8), 0);
        for (pos, &i) in self.stored_indexes.iter().enumerate() {
            if is_null(i) {
                out[bitmap_at + pos / 8] |= 1 << (pos % 8);
            }
        }
        out.extend_from_within(key_at..bitmap_at - Rid::ENCODED_LEN);
        for &i in &self.stored_indexes[self.key_indexes.len()..] {
            cell(i, out)?;
        }
        if self.rid_in_record {
            out.extend_from_slice(&rid.encode());
        }
        Ok(())
    }

    /// Append one entry per row to `out`.
    fn encode_rows(&self, rows: &[(Rid, Row)], out: &mut Vec<u8>) -> IndexResult<()> {
        let start = out.len();
        for (rid, row) in rows {
            self.encode_row(*rid, row, out)?;
        }
        // Were a cell ever not its declared width, all stride arithmetic breaks.
        assert_eq!(out.len() - start, rows.len() * self.stride());
        Ok(())
    }

    /// Append the entry of one row, validated against the schema, to `out`.
    pub(crate) fn encode_row(&self, rid: Rid, row: &Row, out: &mut Vec<u8>) -> IndexResult<()> {
        self.schema.validate_row(row.values())?;
        let datatype = |i: usize| &self.schema.column_at(i).datatype;
        let cell = |i, out: &mut Vec<u8>| Ok(encode_cell(row.value(i), datatype(i), out)?);
        self.encode_entry(rid, |i| row.value(i).is_null(), cell, out)
    }

    /// Append one entry per borrowed heap record to `out`: cells already
    /// sit in their fixed-width encoding inside the record, so they are
    /// sliced, not decoded.
    fn encode_records(&self, records: &[(Rid, &[u8])], out: &mut Vec<u8>) -> IndexResult<()> {
        let codec = RowCodec::new(self.schema.clone());
        for (rid, record) in records {
            let row = RowRef::new(&codec, record)?;
            let cell = |i, out: &mut Vec<u8>| {
                out.extend_from_slice(row.cell(i).bytes());
                Ok(())
            };
            self.encode_entry(*rid, |i| row.is_null(i), cell, out)?;
        }
        Ok(())
    }
}

/// The entry numbers of some records' entries in the order a bulk load puts
/// them — sorted by key, the key cells and then the RID — with what they
/// were sorted for, as a [`SortedRun`] knows its lengths: the key columns
/// and the entry count.
///
/// The key alone decides the order, not the index kind or the other stored
/// columns, so one order serves every index over its key columns.  Made by
/// [`IndexBuilder::order_records`]; [`IndexBuilder::encode_in_order`] walks
/// the same records through it again, without sorting, and refuses it for
/// other key columns or another number of records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyOrder {
    /// Schema positions of the key columns, in key order.
    key_columns: Vec<usize>,
    /// Entry (input) numbers in key order.
    entries: Vec<u32>,
}

impl KeyOrder {
    /// Schema positions of the key columns the entries were sorted by.
    #[must_use]
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Number of entries ordered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries were ordered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes the permutation holds: four per entry.
    #[must_use]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.entries.as_slice())
    }

    pub(crate) fn entries(&self) -> &[u32] {
        &self.entries
    }
}

/// The key order of an arena of `layout`'s entries, as sorted `(key prefix,
/// entry number)` pairs (order-exact: see the [module docs](self)); callers
/// read the untouched arena through it, or gather it once.  Pairs are
/// counting-sorted by leading key byte into buckets — disjoint key ranges
/// in byte order — and each bucket is then sorted on its own, over `workers`
/// threads; a total order, so the same permutation for every worker count.
fn key_order(arena: &[u8], layout: &EntryLayout, workers: usize) -> IndexResult<Vec<(u64, u32)>> {
    let (key_len, stride) = (layout.key_len, layout.stride());
    let n = u32::try_from(arena.len() / stride).map_err(|_| {
        IndexError::InvalidSpec("more entries than one bulk load sorts (2^32 - 1)".into())
    })?;
    let head = key_len.min(8);
    let key = |i: u32| &arena[i as usize * stride..][..key_len];
    let mut next = [0usize; 257];
    for i in 0..n {
        next[usize::from(key(i)[0]) + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut order = vec![(0u64, 0u32); n as usize];
    for i in 0..n {
        let mut prefix = [0u8; 8];
        prefix[..head].copy_from_slice(&key(i)[..head]);
        let slot = &mut next[usize::from(prefix[0])];
        order[*slot] = (u64::from_be_bytes(prefix), i);
        *slot += 1;
    }
    // The mutexes only hand each job its `&mut` bucket; each is locked once.
    let buckets: Vec<Mutex<&mut [(u64, u32)]>> = order
        .chunk_by_mut(|a, b| a.0 >> 56 == b.0 >> 56)
        .map(Mutex::new)
        .collect();
    parallel_indexed_map(buckets.len(), workers, |b| {
        let mut bucket = buckets[b].lock().expect("no job panics holding a bucket");
        bucket.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| key(a.1)[head..].cmp(&key(b.1)[head..]))
                .then_with(|| a.1.cmp(&b.1))
        });
    });
    drop(buckets);
    Ok(order)
}

/// A sorted run of encoded index entries, accumulated batch by batch: one
/// arena of fixed-stride `[key | record]` entries in key order (layout in
/// the [module docs](self)) plus the two lengths it was encoded with — so a
/// run knows what it was built for.
///
/// Progressive estimation re-sizes a growing sample at every checkpoint:
/// each new batch is encoded and sorted on its own (`O(b log b)` for `b` new
/// rows) and merged in, in linear time — a two-cursor walk appending
/// stride-sized slices of either arena to one new arena (a move or a single
/// `memcpy` when one side is empty).  The `(key bytes, RID)` sort key fully
/// determines the entry order, so how the rows arrived cannot show: a
/// [`RunSizer`] walk of the run sizes the tree
/// [`IndexBuilder::build_from_rows`] would build from the same rows, whole,
/// one stratum's RIDs, or — the pooled run minus one batch's run *is* the
/// merge of the others — all but one batch.
#[derive(Debug, Clone, Default)]
pub struct SortedRun {
    /// `len × (key_len + record_len)` bytes, entries in key order.
    arena: Vec<u8>,
    key_len: usize,
    record_len: usize,
}

impl SortedRun {
    /// An empty run; without lengths yet, it merges and builds as any run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode one batch of rows into a sorted run of its own.
    pub fn from_rows(schema: &Schema, rows: &[(Rid, Row)], spec: &IndexSpec) -> IndexResult<Self> {
        let layout = EntryLayout::new(schema, spec)?;
        let stride = layout.stride();
        let mut unsorted = Vec::with_capacity(rows.len() * stride);
        layout.encode_rows(rows, &mut unsorted)?;
        let mut arena = Vec::with_capacity(unsorted.len());
        for (_, i) in key_order(&unsorted, &layout, 1)? {
            arena.extend_from_slice(&unsorted[i as usize * stride..][..stride]);
        }
        Ok(SortedRun {
            arena,
            key_len: layout.key_len,
            record_len: layout.record_len,
        })
    }

    /// Number of entries in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len() / self.stride()
    }

    /// Whether the run holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Bytes per entry (1 for a run without lengths, whose empty arena then
    /// still divides and chunks into zero entries).
    fn stride(&self) -> usize {
        (self.key_len + self.record_len).max(1)
    }

    pub(crate) fn entries(&self) -> std::slice::ChunksExact<'_, u8> {
        self.arena.chunks_exact(self.stride())
    }

    /// Merge two sorted runs into one, in linear time, leaving both intact:
    /// a two-cursor walk that copies stride-sized chunks of either arena
    /// into a new one.  On equal keys this run's entry comes first.
    ///
    /// # Panics
    /// If both runs are non-empty and were encoded with different key or
    /// record lengths (for different specs): no arena can hold such a merge.
    #[must_use]
    pub fn merge(&self, other: &SortedRun) -> SortedRun {
        let lengths = if self.is_empty() { other } else { self };
        assert!(
            other.is_empty()
                || (lengths.key_len, lengths.record_len) == (other.key_len, other.record_len),
            "merged runs must share one (key, record) entry layout"
        );
        let (key_len, stride) = (lengths.key_len, lengths.stride());
        let mut arena = Vec::with_capacity(self.arena.len() + other.arena.len());
        // Each of this run's entries follows the stretch of `other` (from
        // byte `copied` on) that sorts before it.
        let mut copied = 0;
        for entry in self.entries() {
            let before = other.arena[copied..]
                .chunks_exact(stride)
                .take_while(|x| x[..key_len] < entry[..key_len])
                .count();
            arena.extend_from_slice(&other.arena[copied..][..before * stride]);
            arena.extend_from_slice(entry);
            copied += before * stride;
        }
        arena.extend_from_slice(&other.arena[copied..]);
        SortedRun { arena, ..*lengths }
    }

    /// [`merge`](Self::merge) — its panic included — for an accumulator done
    /// with its old value: when `other` is empty this run is moved, not copied.
    #[must_use]
    pub fn into_merged(self, other: &SortedRun) -> SortedRun {
        if other.is_empty() {
            return self;
        }
        self.merge(other)
    }
}

fn encode_internal_record(key: &[u8], child: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + key.len() + 4);
    out.extend_from_slice(&(key.len() as u16).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&child.to_be_bytes());
    out
}

fn decode_internal_record(bytes: &[u8]) -> (Vec<u8>, u32) {
    let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    let key = bytes[2..2 + len].to_vec();
    let mut child = [0u8; 4];
    child.copy_from_slice(&bytes[2 + len..2 + len + 4]);
    (key, u32::from_be_bytes(child))
}

impl BTreeIndex {
    /// The index specification this tree was built from.
    #[must_use]
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// The base-table schema.
    #[must_use]
    pub fn table_schema(&self) -> &Schema {
        &self.table_schema
    }

    /// Positions (into the table schema) of the columns stored in leaf
    /// entries, in stored order (key columns first).
    #[must_use]
    pub fn stored_column_indexes(&self) -> &[usize] {
        &self.stored_indexes
    }

    /// Number of key columns (a prefix of the stored columns).
    #[must_use]
    pub fn key_column_count(&self) -> usize {
        self.key_count
    }

    /// Number of leaf entries (one per indexed row).
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The leaf pages.
    #[must_use]
    pub fn leaf_pages(&self) -> &[Page] {
        &self.leaf_pages
    }

    /// Number of leaf pages.
    #[must_use]
    pub fn num_leaf_pages(&self) -> usize {
        self.leaf_pages.len()
    }

    /// Number of internal (non-leaf) pages across all levels.
    #[must_use]
    pub fn num_internal_pages(&self) -> usize {
        self.internal_levels.iter().map(Vec::len).sum()
    }

    /// Tree height: 1 for a single leaf level, plus one per internal level.
    #[must_use]
    pub fn height(&self) -> usize {
        1 + self.internal_levels.len()
    }

    /// Total size of the index in bytes (all pages at full page size).
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        (self.num_leaf_pages() + self.num_internal_pages()) * self.page_size
    }

    /// Width in bytes of one uncompressed leaf entry's *stored cells*
    /// (excluding the null bitmap and RID pointer).
    #[must_use]
    pub fn stored_cell_bytes_per_entry(&self) -> usize {
        self.stored_indexes
            .iter()
            .map(|&i| self.table_schema.column_at(i).datatype.uncompressed_width())
            .sum()
    }

    /// Decode all entries of one leaf page.
    pub fn leaf_entries(&self, page: &Page) -> IndexResult<Vec<IndexEntry>> {
        let bitmap_len = self.stored_indexes.len().div_ceil(8);
        let mut out = Vec::with_capacity(usize::from(page.slot_count()));
        for record in page.records() {
            let bitmap = &record[..bitmap_len];
            let mut offset = bitmap_len;
            let mut values = Vec::with_capacity(self.stored_indexes.len());
            for (pos, &i) in self.stored_indexes.iter().enumerate() {
                let dt = self.table_schema.column_at(i).datatype;
                let w = dt.uncompressed_width();
                if bitmap[pos / 8] & (1 << (pos % 8)) != 0 {
                    values.push(Value::Null);
                } else {
                    values.push(decode_cell(&record[offset..offset + w], &dt)?);
                }
                offset += w;
            }
            let rid = if self.spec.kind() == IndexKind::NonClustered {
                let mut buf = [0u8; Rid::ENCODED_LEN];
                buf.copy_from_slice(&record[offset..offset + Rid::ENCODED_LEN]);
                Some(Rid::decode(&buf))
            } else {
                None
            };
            out.push(IndexEntry {
                stored: Row::new(values),
                rid,
            });
        }
        Ok(out)
    }

    /// Iterate over all leaf entries in key order.
    pub fn all_entries(&self) -> IndexResult<Vec<IndexEntry>> {
        let mut out = Vec::with_capacity(self.num_entries);
        for page in &self.leaf_pages {
            out.extend(self.leaf_entries(page)?);
        }
        Ok(out)
    }

    /// Look up all entries whose key columns equal `key` exactly.
    ///
    /// Walks the tree from the root to locate the first candidate leaf, then
    /// scans forward while keys match.  Intended for validation and examples,
    /// not as a high-performance access path.
    pub fn lookup(&self, key: &[Value]) -> IndexResult<Vec<IndexEntry>> {
        if key.len() != self.key_count {
            return Err(IndexError::InvalidSpec(format!(
                "lookup key has {} values but the index has {} key columns",
                key.len(),
                self.key_count
            )));
        }
        let mut key_bytes = Vec::new();
        for (pos, v) in key.iter().enumerate() {
            let col = self.table_schema.column_at(self.stored_indexes[pos]);
            encode_cell(v, &col.datatype, &mut key_bytes)?;
        }

        // Descend internal levels (from root down) to find the starting leaf.
        let mut child: u32 = 0;
        for level in self.internal_levels.iter().rev() {
            let page = &level[child as usize];
            // Descend to the last child whose separator is strictly below the
            // search key (duplicates of the key may start in that child); if
            // every separator is >= the key, take the first child.
            let mut chosen: Option<u32> = None;
            for rec in page.records() {
                let (sep, c) = decode_internal_record(rec);
                let sep_prefix = &sep[..sep.len().min(key_bytes.len())];
                if chosen.is_none() || sep_prefix < key_bytes.as_slice() {
                    chosen = Some(c);
                }
                if sep_prefix >= key_bytes.as_slice() {
                    break;
                }
            }
            child = chosen.unwrap_or(0);
        }

        // Scan from the chosen leaf forward.
        let mut results = Vec::new();
        let mut leaf_idx = child as usize;
        let mut passed_matches = false;
        while leaf_idx < self.leaf_pages.len() {
            let entries = self.leaf_entries(&self.leaf_pages[leaf_idx])?;
            let mut any_le = false;
            for e in entries {
                let entry_key: Vec<Value> = (0..self.key_count)
                    .map(|i| e.stored.value(i).clone())
                    .collect();
                match entry_key.as_slice().cmp(key) {
                    std::cmp::Ordering::Less => any_le = true,
                    std::cmp::Ordering::Equal => {
                        any_le = true;
                        passed_matches = true;
                        results.push(e);
                    }
                    std::cmp::Ordering::Greater => {
                        return Ok(results);
                    }
                }
            }
            if passed_matches && !any_le {
                break;
            }
            leaf_idx += 1;
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{measure_index, FirstKeyStats};
    use proptest::prelude::*;
    use samplecf_compression::{
        scheme_by_name, scheme_names, CompressionScheme, NullSuppression, Uncompressed,
    };
    use samplecf_storage::{Column, DataType, StorageError, TableBuilder};
    use std::collections::HashSet;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Char(12)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap()
    }

    fn table(n: usize) -> Table {
        TableBuilder::new("t", schema())
            .build_with_rows((0..n).map(|i| {
                Row::new(vec![
                    Value::str(format!("name{:04}", i % 97)),
                    Value::int(i as i64),
                ])
            }))
            .unwrap()
    }

    #[test]
    fn bulk_load_preserves_entry_count_and_order() {
        let t = table(1000);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let idx = IndexBuilder::new().build_from_table(&t, &spec).unwrap();
        assert_eq!(idx.num_entries(), 1000);
        let entries = idx.all_entries().unwrap();
        assert_eq!(entries.len(), 1000);
        for w in entries.windows(2) {
            assert!(
                w[0].stored.value(0) <= w[1].stored.value(0),
                "leaf order violated"
            );
        }
        // Non-clustered entries carry RIDs that resolve back to the table.
        for e in entries.iter().take(20) {
            let rid = e.rid.expect("nonclustered entries carry rids");
            let row = t.get(rid).unwrap();
            assert_eq!(row.value(0), e.stored.value(0));
        }
    }

    #[test]
    fn clustered_index_stores_all_columns_without_rids() {
        let t = table(200);
        let spec = IndexSpec::clustered("i", ["id"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(1024)
            .build_from_table(&t, &spec)
            .unwrap();
        let entries = idx.all_entries().unwrap();
        assert_eq!(entries.len(), 200);
        assert!(entries.iter().all(|e| e.rid.is_none()));
        assert_eq!(entries[0].stored.arity(), 2);
        // Ordered by id.
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.stored.value(0), &Value::int(i as i64));
        }
    }

    #[test]
    fn multi_page_trees_have_internal_levels() {
        let t = table(5000);
        let spec = IndexSpec::nonclustered("i", ["name", "id"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(512)
            .build_from_table(&t, &spec)
            .unwrap();
        assert!(idx.num_leaf_pages() > 10);
        assert!(
            idx.height() >= 2,
            "expected internal levels, height = {}",
            idx.height()
        );
        assert!(idx.num_internal_pages() >= 1);
        assert_eq!(
            idx.total_bytes(),
            (idx.num_leaf_pages() + idx.num_internal_pages()) * 512
        );
    }

    #[test]
    fn fill_factor_spreads_entries_over_more_pages() {
        let t = table(2000);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let full = IndexBuilder::new()
            .page_size(1024)
            .build_from_table(&t, &spec)
            .unwrap();
        let half = IndexBuilder::new()
            .page_size(1024)
            .fill_factor(0.5)
            .build_from_table(&t, &spec)
            .unwrap();
        assert!(half.num_leaf_pages() > full.num_leaf_pages());
        assert!(IndexBuilder::new()
            .fill_factor(0.0)
            .build_from_table(&t, &spec)
            .is_err());
    }

    #[test]
    fn lookup_finds_all_matching_rows() {
        let t = table(3000);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(512)
            .build_from_table(&t, &spec)
            .unwrap();
        let needle = Value::str("name0042");
        let expected = t.scan().filter(|(_, r)| r.value(0) == &needle).count();
        assert!(expected > 0);
        let found = idx.lookup(std::slice::from_ref(&needle)).unwrap();
        assert_eq!(found.len(), expected);
        assert!(found.iter().all(|e| e.stored.value(0) == &needle));
        // Missing key returns nothing.
        assert!(idx.lookup(&[Value::str("zzzz")]).unwrap().is_empty());
        // Wrong arity is an error.
        assert!(idx.lookup(&[]).is_err());
    }

    #[test]
    fn empty_input_builds_an_empty_single_leaf_tree() {
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema(), &[], &spec)
            .unwrap();
        assert_eq!(idx.num_entries(), 0);
        assert_eq!(idx.num_leaf_pages(), 1);
        assert_eq!(idx.height(), 1);
        assert!(idx.all_entries().unwrap().is_empty());
    }

    /// Compare two trees page-by-page at the byte level, leaves and
    /// internal levels alike.
    fn assert_trees_identical(a: &BTreeIndex, b: &BTreeIndex) {
        assert_eq!(a.num_entries(), b.num_entries());
        assert_eq!(a.num_leaf_pages(), b.num_leaf_pages());
        assert_eq!(a.height(), b.height());
        for (pa, pb) in a.leaf_pages().iter().zip(b.leaf_pages()) {
            assert_eq!(pa.raw(), pb.raw(), "leaf pages must match byte-for-byte");
        }
        for (la, lb) in a.internal_levels.iter().zip(&b.internal_levels) {
            assert_eq!(la.len(), lb.len());
            for (pa, pb) in la.iter().zip(lb) {
                assert_eq!(
                    pa.raw(),
                    pb.raw(),
                    "internal pages must match byte-for-byte"
                );
            }
        }
    }

    #[test]
    fn parallel_builds_are_byte_identical_to_serial_for_every_thread_count() {
        let t = table(4_000);
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        for spec in [
            IndexSpec::nonclustered("i", ["name"]).unwrap(),
            IndexSpec::clustered("i", ["id"]).unwrap(),
        ] {
            let serial = IndexBuilder::new()
                .page_size(512)
                .build_from_rows(t.schema(), &rows, &spec)
                .unwrap();
            for threads in [0, 2, 3, 8] {
                let parallel = IndexBuilder::new()
                    .page_size(512)
                    .threads(threads)
                    .build_from_rows(t.schema(), &rows, &spec)
                    .unwrap();
                assert_trees_identical(&serial, &parallel);
            }
        }
    }

    #[test]
    fn parallel_build_from_records_matches_serial() {
        use samplecf_storage::RowCodec;
        let t = table(3_000);
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let codec = RowCodec::new(t.schema().clone());
        let encoded: Vec<(Rid, Vec<u8>)> = rows
            .iter()
            .map(|(rid, row)| (*rid, codec.encode(row).unwrap()))
            .collect();
        let records: Vec<(Rid, &[u8])> = encoded
            .iter()
            .map(|(rid, bytes)| (*rid, bytes.as_slice()))
            .collect();
        let spec = IndexSpec::nonclustered("i", ["name", "id"]).unwrap();
        let serial = IndexBuilder::new()
            .page_size(1024)
            .build_from_records(t.schema(), &records, &spec)
            .unwrap();
        for threads in [2, 5, 8] {
            let parallel = IndexBuilder::new()
                .page_size(1024)
                .threads(threads)
                .build_from_records(t.schema(), &records, &spec)
                .unwrap();
            assert_trees_identical(&serial, &parallel);
        }
    }

    #[test]
    fn parallel_packing_respects_the_fill_factor_exactly() {
        let t = table(2_500);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        for fill in [0.3, 0.5, 0.75, 1.0] {
            let serial = IndexBuilder::new()
                .page_size(1024)
                .fill_factor(fill)
                .build_from_rows(t.schema(), &rows, &spec)
                .unwrap();
            let parallel = IndexBuilder::new()
                .page_size(1024)
                .fill_factor(fill)
                .threads(4)
                .build_from_rows(t.schema(), &rows, &spec)
                .unwrap();
            assert_trees_identical(&serial, &parallel);
        }
    }

    #[test]
    fn parallel_build_handles_tiny_and_empty_inputs() {
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let builder = IndexBuilder::new().threads(8);
        let empty = builder.build_from_rows(&schema(), &[], &spec).unwrap();
        assert_eq!(empty.num_entries(), 0);
        assert_eq!(empty.num_leaf_pages(), 1);
        for n in [1, 2, 7] {
            let t = table(n);
            let rows: Vec<(Rid, Row)> = t.scan().collect();
            let serial = IndexBuilder::new()
                .build_from_rows(t.schema(), &rows, &spec)
                .unwrap();
            let parallel = builder.build_from_rows(t.schema(), &rows, &spec).unwrap();
            assert_trees_identical(&serial, &parallel);
        }
    }

    #[test]
    fn sorted_run_accumulation_is_byte_identical_to_a_from_scratch_build() {
        let t = table(3_000);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let builder = IndexBuilder::new().page_size(1024);
        let from_scratch = builder.build_from_rows(t.schema(), &rows, &spec).unwrap();

        // Accumulate the same rows in uneven batches, merging as we go —
        // the progressive estimator's checkpoint path.
        let mut run = SortedRun::new();
        for chunk in rows.chunks(700) {
            let batch = SortedRun::from_rows(t.schema(), chunk, &spec).unwrap();
            run = run.merge(&batch);
        }
        assert_eq!(run.len(), rows.len());
        let incremental = builder
            .build_from_sorted_run(t.schema(), &spec, &run)
            .unwrap();
        assert_trees_identical(&from_scratch, &incremental);
    }

    /// The route the jackknife used to take, kept as the oracle: a left fold
    /// of pairwise merges that clones every entry at every step.
    fn fold_merge<'a>(runs: impl IntoIterator<Item = &'a SortedRun>) -> SortedRun {
        runs.into_iter()
            .fold(SortedRun::new(), |acc, run| acc.merge(run))
    }

    fn all_but(runs: &[SortedRun], skip: usize) -> impl Iterator<Item = &SortedRun> {
        runs.iter()
            .enumerate()
            .filter(move |(i, _)| *i != skip)
            .map(|(_, r)| r)
    }

    /// Both size-only routes against the route they replaced, kept as the
    /// oracle: pack `kept` — the rows of every batch but `batches[skip]` —
    /// into a tree and measure it.  Every scheme is walked through the
    /// merge of the batches' runs, skipping `skip`'s; those that declare cell
    /// costs are also priced, whole report and all, from the batches' sums.
    fn assert_sized_as_packed(
        builder: &IndexBuilder,
        schema: &Schema,
        spec: &IndexSpec,
        (batches, skip): (&[&[(Rid, Row)]], usize),
        kept: &BTreeIndex,
    ) {
        let runs: Vec<SortedRun> = (batches.iter())
            .map(|rows| SortedRun::from_rows(schema, rows, spec).unwrap())
            .collect();
        let pooled_run = fold_merge(&runs);
        let sizer = builder.sizer(schema, spec).unwrap();
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            let packed = measure_index(kept, scheme.as_ref()).unwrap();
            let walked = sizer.measure_run(&pooled_run, Some(&runs[skip]), |_| true, &[&*scheme]);
            assert_eq!(
                walked.map(|(reports, _)| reports),
                Ok(vec![packed.clone()]),
                "{name}: walk of {}",
                spec.name()
            );
            if let Some(costs) = scheme.cell_costs() {
                let mut sums = vec![sizer.empty_cell_costs(); batches.len()];
                for (rows, sum) in batches.iter().zip(&mut sums) {
                    let sum = std::slice::from_mut(sum);
                    sizer.add_cell_costs(rows, &costs, sum, |_| 0).unwrap();
                }
                let mut pooled = sizer.empty_cell_costs();
                sums.iter().for_each(|sum| pooled.merge(sum));
                let priced = sizer.price(scheme.as_ref(), &costs, &pooled, Some(&sums[skip]));
                assert_eq!(priced, Ok(packed), "{name}: cell sums of {}", spec.name());
            }
        }
    }

    /// The held-sample route against the packed one: the entries of
    /// `ordered` that `keep` admits, walked under all schemes at once, give
    /// each scheme the whole report of `packed` — the tree over those entries.
    fn assert_walked_as_packed(
        ordered: &OrderedEntries<'_>,
        keep: impl Fn(usize) -> bool,
        packed: &BTreeIndex,
    ) {
        let schemes: Vec<Box<dyn CompressionScheme>> = (scheme_names().iter())
            .map(|name| scheme_by_name(name).unwrap())
            .collect();
        let schemes: Vec<&dyn CompressionScheme> = schemes.iter().map(AsRef::as_ref).collect();
        let (reports, _) = ordered.measure_where(keep, &schemes).unwrap();
        assert_eq!(reports.len(), schemes.len());
        for (report, scheme) in reports.iter().zip(schemes) {
            assert_eq!(report, &measure_index(packed, scheme).unwrap());
        }
    }

    #[test]
    fn excluding_a_batch_equals_a_fold_merge_of_the_others() {
        let t = table(900);
        let spec = IndexSpec::nonclustered("i", ["name", "id"]).unwrap();
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let chunks: Vec<&[(Rid, Row)]> = rows.chunks(250).collect();
        let batches: Vec<SortedRun> = (chunks.iter())
            .map(|c| SortedRun::from_rows(t.schema(), c, &spec).unwrap())
            .collect();
        let all = fold_merge(&batches);
        let builder = IndexBuilder::new().page_size(512);
        let build = |run: &SortedRun| {
            builder
                .build_from_sorted_run(t.schema(), &spec, run)
                .unwrap()
        };
        for skip in 0..batches.len() {
            let partial = fold_merge(all_but(&batches, skip));
            assert_eq!(partial.len(), all.len() - batches[skip].len());
            let split = (&chunks[..], skip);
            assert_sized_as_packed(&builder, t.schema(), &spec, split, &build(&partial));
        }
        // A run with everything excluded is sized as the empty single-leaf
        // tree an empty run builds; excluding nothing changes nothing.
        let empty = build(&SortedRun::new());
        assert_eq!((empty.num_entries(), empty.num_leaf_pages()), (0, 1));
        let everything = (&[&rows[..]][..], 0);
        assert_sized_as_packed(&builder, t.schema(), &spec, everything, &empty);
        let nothing = (&[&rows[..], &[]][..], 1);
        assert_sized_as_packed(&builder, t.schema(), &spec, nothing, &build(&all));
    }

    #[test]
    fn excluding_a_run_that_is_not_part_of_the_run_is_a_typed_error() {
        let t = table(600);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let run = |rows: &[(Rid, Row)]| SortedRun::from_rows(t.schema(), rows, &spec).unwrap();
        let (first, second) = (run(&rows[..200]), run(&rows[200..400]));
        let pooled = first.merge(&second);
        let sizer = IndexBuilder::new().sizer(t.schema(), &spec).unwrap();
        // Entries kept: the one stored column, `name`, is twelve bytes wide.
        let exclude = |excluded: &SortedRun| {
            sizer
                .measure_run(&pooled, Some(excluded), |_| true, &[&Uncompressed])
                .map(|(kept, _)| kept[0].uncompressed_data_bytes() / 12)
        };
        assert_eq!(exclude(&first), Ok(200));
        // A foreign run: none of its entries is in the pooled run.
        let foreign = run(&rows[400..]);
        assert_eq!(
            exclude(&foreign),
            Err(IndexError::ExclusionMismatch { left_over: 200 })
        );
        // A run that overlaps the pooled run only in part: the walk stalls
        // on its first entry without a counterpart.
        assert!(matches!(
            exclude(&run(&rows[300..450])),
            Err(IndexError::ExclusionMismatch {
                left_over: 50..=150
            })
        ));
        // A batch excluded twice: the pooled run holds each entry once, so
        // the walk stalls on the twin of the first entry it consumed.
        assert_eq!(
            exclude(&first.merge(&first)),
            Err(IndexError::ExclusionMismatch { left_over: 399 })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The jackknife's contract: for any split of a sample into batches
        /// — rows drawn with replacement, so the same `(key, RID)` entry
        /// turns up in several batches and several times in one — skipping
        /// batch `i` in the pooled run sizes, to the byte and under every
        /// scheme, the tree built from a merge of the other batches.
        #[test]
        fn excluding_any_batch_is_byte_identical_to_merging_the_others(
            batches in 2usize..=8,
            draws in proptest::collection::vec((0usize..150, 0usize..8), 2..500),
            page_size in prop_oneof![Just(256usize), Just(512), Just(4096)],
        ) {
            let t = table(150);
            let source: Vec<(Rid, Row)> = t.scan().collect();
            let mut batch_rows: Vec<Vec<(Rid, Row)>> = vec![Vec::new(); batches];
            for (row, owner) in draws {
                batch_rows[owner % batches].push(source[row].clone());
            }
            for spec in [
                IndexSpec::nonclustered("i", ["name"]).unwrap(),
                IndexSpec::clustered("i", ["id"]).unwrap(),
            ] {
                let runs: Vec<SortedRun> = batch_rows
                    .iter()
                    .map(|rows| SortedRun::from_rows(t.schema(), rows, &spec).unwrap())
                    .collect();
                let builder = IndexBuilder::new().page_size(page_size);
                let rows: Vec<&[(Rid, Row)]> = batch_rows.iter().map(Vec::as_slice).collect();
                for skip in 0..batches {
                    let expected = builder
                        .build_from_sorted_run(t.schema(), &spec, &fold_merge(all_but(&runs, skip)))
                        .unwrap();
                    assert_sized_as_packed(&builder, t.schema(), &spec, (&rows, skip), &expected);
                }
            }
        }
    }

    /// The representation this module replaced, kept as the oracle: one
    /// `(sort key, leaf record)` pair of `Vec`s per entry, a stable
    /// comparison sort on the key `Vec`s, and the serial fill loop that
    /// walked the sorted pairs carrying the fill rule with it.  Only the
    /// internal levels go through the builder — they are built from the
    /// oracle's own leaves and first keys.
    mod oracle {
        use super::super::*;
        use samplecf_storage::{PAGE_HEADER_SIZE, SLOT_SIZE};

        pub type Pair = (Vec<u8>, Vec<u8>);

        pub fn encode_rows(schema: &Schema, rows: &[(Rid, Row)], spec: &IndexSpec) -> Vec<Pair> {
            let key_indexes = spec.key_indexes(schema).unwrap();
            let stored_indexes = spec.stored_column_indexes(schema).unwrap();
            rows.iter()
                .map(|(rid, row)| {
                    let mut sort_key = Vec::new();
                    for &i in &key_indexes {
                        encode_cell(row.value(i), &schema.column_at(i).datatype, &mut sort_key)
                            .unwrap();
                    }
                    sort_key.extend_from_slice(&rid.encode());
                    let mut record = vec![0u8; stored_indexes.len().div_ceil(8)];
                    for (pos, &i) in stored_indexes.iter().enumerate() {
                        if row.value(i).is_null() {
                            record[pos / 8] |= 1 << (pos % 8);
                        }
                    }
                    for &i in &stored_indexes {
                        encode_cell(row.value(i), &schema.column_at(i).datatype, &mut record)
                            .unwrap();
                    }
                    if spec.kind() == IndexKind::NonClustered {
                        record.extend_from_slice(&rid.encode());
                    }
                    (sort_key, record)
                })
                .collect()
        }

        pub fn tree(
            builder: &IndexBuilder,
            schema: &Schema,
            spec: &IndexSpec,
            mut entries: Vec<Pair>,
        ) -> BTreeIndex {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let usable = builder.page_size - PAGE_HEADER_SIZE;
            let target_fill = (usable as f64 * builder.fill_factor) as usize;
            let mut leaf_pages: Vec<Page> = Vec::new();
            let mut first_keys: Vec<&[u8]> = Vec::new();
            let mut current = Page::new(0, builder.page_size).unwrap();
            let mut current_used = 0usize;
            for (key, record) in &entries {
                let needed = record.len() + SLOT_SIZE;
                let over_fill = current_used + needed > target_fill && current.slot_count() > 0;
                if over_fill || !current.fits(record.len()) {
                    leaf_pages.push(current);
                    current = Page::new(leaf_pages.len() as u32, builder.page_size).unwrap();
                    current_used = 0;
                }
                if current.slot_count() == 0 {
                    first_keys.push(key);
                }
                current.insert(record).unwrap().expect("the record fits");
                current_used += needed;
            }
            if current.slot_count() > 0 || leaf_pages.is_empty() {
                leaf_pages.push(current);
            }
            first_keys.resize(leaf_pages.len(), &[]);
            BTreeIndex {
                spec: spec.clone(),
                table_schema: schema.clone(),
                stored_indexes: spec.stored_column_indexes(schema).unwrap(),
                key_count: spec.key_indexes(schema).unwrap().len(),
                page_size: builder.page_size,
                internal_levels: builder.internal_levels(first_keys).unwrap(),
                leaf_pages,
                num_entries: entries.len(),
            }
        }
    }

    /// A table whose columns give the sort every shape of key it could
    /// order differently from a comparison of key `Vec`s: a key shorter
    /// than the 8-byte prefix even with its RID (`Bool`), the prefix ending
    /// inside the RID (`Int32`, `Char(3)`), exactly at the cell (`Int64`),
    /// inside a cell whose values share their first 14 bytes (`Char(24)`),
    /// NULL cells, and one value everywhere (so the RID alone orders).
    fn shaped_table(n: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Column::new("flag", DataType::Bool),
            Column::new("i32", DataType::Int32),
            Column::new("i64", DataType::Int64),
            Column::new("c3", DataType::Char(3)),
            Column::new("c24", DataType::Char(24)),
            Column::nullable("n6", DataType::Char(6)),
            Column::new("same", DataType::Char(4)),
        ])
        .unwrap();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        TableBuilder::new("t", schema)
            .build_with_rows((0..n).map(|_| {
                let r = next();
                Row::new(vec![
                    Value::Bool(r & 1 == 1),
                    Value::int((((r >> 8) % 7) as i64 - 3) * i64::from(i32::MAX / 4)),
                    Value::int((next() as i64) >> (r % 60)),
                    Value::str(format!("{}", (r >> 16) % 40)),
                    Value::str(format!("shared-prefix-{:x}", next() % 4096)),
                    if r % 5 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("n{}", (r >> 24) % 9))
                    },
                    Value::str("same"),
                ])
            }))
            .unwrap()
    }

    const SHAPED_KEYS: [&[&str]; 8] = [
        &["flag"],
        &["i32"],
        &["i64"],
        &["c3"],
        &["c24"],
        &["c3", "i32"],
        &["n6"],
        &["same"],
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Byte identity against the old representation, where the new sort
        /// could differ: every key shape × clustered / non-clustered, rows
        /// drawn with replacement (so `(key, RID)` duplicates exist) into
        /// random batches, every build route — every leaf and internal page
        /// byte equals the pair-of-`Vec`s oracle's tree.
        #[test]
        fn every_build_route_is_byte_identical_to_the_pair_of_vecs_oracle(
            seed in any::<u64>(),
            table_rows in 1usize..120,
            draws in proptest::collection::vec((0usize..120, 0usize..4), 0..400),
            page_size in prop_oneof![Just(256usize), Just(512), Just(4096)],
            fill_factor in prop_oneof![Just(0.5f64), Just(1.0)],
            threads in prop_oneof![Just(1usize), Just(2), Just(0)],
        ) {
            use samplecf_storage::RowCodec;
            let t = shaped_table(table_rows, seed);
            let schema = t.schema();
            let source: Vec<(Rid, Row)> = t.scan().collect();
            let mut batches: Vec<Vec<(Rid, Row)>> = vec![Vec::new(); 4];
            for (row, batch) in draws {
                batches[batch].push(source[row % table_rows].clone());
            }
            let rows = batches.concat();
            let codec = RowCodec::new(schema.clone());
            let encoded: Vec<Vec<u8>> =
                rows.iter().map(|(_, row)| codec.encode(row).unwrap()).collect();
            let records: Vec<(Rid, &[u8])> =
                rows.iter().zip(&encoded).map(|((rid, _), bytes)| (*rid, &bytes[..])).collect();
            let builder = IndexBuilder::new()
                .page_size(page_size)
                .fill_factor(fill_factor)
                .threads(threads);

            for keys in SHAPED_KEYS {
                // The key alone orders the entries: one sort serves both kinds.
                let by_key = IndexSpec::nonclustered("k", keys.iter().copied()).unwrap();
                let sorted = builder.order_records(schema, &records, &by_key).unwrap();
                for spec in [
                    IndexSpec::nonclustered("i", keys.iter().copied()).unwrap(),
                    IndexSpec::clustered("i", keys.iter().copied()).unwrap(),
                ] {
                    let expected =
                        oracle::tree(&builder, schema, &spec, oracle::encode_rows(schema, &rows, &spec));
                    assert_trees_identical(
                        &expected,
                        &builder.build_from_rows(schema, &rows, &spec).unwrap(),
                    );
                    assert_trees_identical(
                        &expected,
                        &builder.build_from_records(schema, &records, &spec).unwrap(),
                    );
                    // The records ordered and walked, no tree packed: every
                    // scheme's whole report, and the first key's statistics
                    // against a decode of every row.
                    let ordered = builder.order_records(schema, &records, &spec).unwrap();
                    assert_walked_as_packed(&ordered, |_| true, &expected);
                    assert_eq!(ordered.key_order(), sorted.key_order());
                    let reused = Arc::clone(sorted.key_order());
                    let held = builder.encode_in_order(schema, &records, &spec, reused).unwrap();
                    assert_walked_as_packed(&held, |_| true, &expected);
                    let first_key = spec.key_indexes(schema).unwrap()[0];
                    let values = || rows.iter().map(|(_, row)| row.value(first_key));
                    let stats = FirstKeyStats {
                        nulls: values().filter(|v| v.is_null()).count(),
                        distinct: values().filter(|v| !v.is_null()).collect::<HashSet<_>>().len(),
                        logical_len_sum: values().map(Value::logical_len).sum(),
                    };
                    assert_eq!(ordered.measure(&[]).unwrap().1, stats, "{keys:?}");
                    let runs: Vec<SortedRun> = batches
                        .iter()
                        .map(|batch| SortedRun::from_rows(schema, batch, &spec).unwrap())
                        .collect();
                    let pooled = runs
                        .iter()
                        .fold(SortedRun::new(), |pooled, run| pooled.into_merged(run));
                    assert_trees_identical(
                        &expected,
                        &builder.build_from_sorted_run(schema, &spec, &pooled).unwrap(),
                    );
                    // Sizing the pooled run minus any one batch is sizing the
                    // oracle's tree over the other batches' rows.
                    let batch_rows: Vec<&[(Rid, Row)]> = batches.iter().map(Vec::as_slice).collect();
                    for skip in 0..batches.len() {
                        let others = [&batches[..skip], &batches[skip + 1..]].concat().concat();
                        let kept =
                            oracle::tree(&builder, schema, &spec, oracle::encode_rows(schema, &others, &spec));
                        assert_sized_as_packed(&builder, schema, &spec, (&batch_rows, skip), &kept);
                        // ... and so is walking the one order filtered to them.
                        let skipped = batches[..skip].iter().map(Vec::len).sum::<usize>();
                        let skipped = skipped..skipped + batches[skip].len();
                        assert_walked_as_packed(&ordered, |i| !skipped.contains(&i), &kept);
                    }
                }
            }
        }
    }

    #[test]
    fn a_page_size_outside_the_supported_range_is_a_typed_error() {
        use samplecf_storage::MAX_PAGE_SIZE;
        let t = table(10);
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let run = SortedRun::from_rows(t.schema(), &rows, &spec).unwrap();
        for page_size in [0, 8, 63, MAX_PAGE_SIZE + 1] {
            let builder = IndexBuilder::new().page_size(page_size);
            let out_of_range = |result: IndexResult<()>| {
                assert!(
                    matches!(
                        &result,
                        Err(IndexError::Storage(StorageError::PageCorruption(msg)))
                            if msg.contains("outside supported range [64, 32768]")
                    ),
                    "page size {page_size}: {result:?}"
                );
            };
            out_of_range(builder.build_from_table(&t, &spec).map(drop));
            out_of_range(builder.build_from_rows(t.schema(), &[], &spec).map(drop));
            out_of_range(
                builder
                    .build_from_sorted_run(t.schema(), &spec, &run)
                    .map(drop),
            );
            out_of_range(builder.sizer(t.schema(), &spec).map(drop));
            out_of_range(builder.order_records(t.schema(), &[], &spec).map(drop));
        }
    }

    #[test]
    fn a_record_too_large_for_the_page_is_a_typed_error() {
        // A clustered record of `table` is 21 bytes + a 4-byte slot: one fits
        // the 48 usable bytes of a 64-byte page, two do not.
        let spec = IndexSpec::clustered("i", ["name"]).unwrap();
        let tiny = IndexBuilder::new().page_size(64);
        let one = tiny.build_from_table(&table(1), &spec).unwrap();
        assert_eq!((one.num_leaf_pages(), one.height()), (1, 1));
        // Two leaves need a root, and a 64-byte internal page holds a single
        // 18-byte separator: levels would never narrow.
        assert!(matches!(
            tiny.build_from_table(&table(2), &spec),
            Err(IndexError::InvalidSpec(msg)) if msg.contains("one separator key")
        ));
        // The walk packs no internal page, and reports the same.
        let (schema, rows) = (schema(), table(2).scan().collect::<Vec<_>>());
        with_heap_records(&schema, &rows, |records| {
            let ordered = |n: usize| tiny.order_records(&schema, &records[..n], &spec).unwrap();
            assert_walked_as_packed(&ordered(1), |_| true, &one);
            assert_eq!(
                ordered(2).measure(&[&Uncompressed]).map(drop),
                tiny.build_from_table(&table(2), &spec).map(drop)
            );
        });
        let wide = Schema::new(vec![Column::new("w", DataType::Char(60))]).unwrap();
        let rows = [(Rid::new(0, 0), Row::new(vec![Value::str("w")]))];
        let spec = IndexSpec::nonclustered("i", ["w"]).unwrap();
        // The same variant at every thread count, and with no rows at all:
        // the layout is checked before any input is read.
        for (threads, rows) in [(1, &rows[..]), (2, &rows[..]), (1, &[][..])] {
            let tiny = tiny.threads(threads);
            let ordered = with_heap_records(&wide, rows, |records| {
                tiny.order_records(&wide, records, &spec).map(drop)
            });
            for result in [tiny.build_from_rows(&wide, rows, &spec).map(drop), ordered] {
                assert!(
                    matches!(&result, Err(IndexError::InvalidSpec(msg))
                        if msg.contains("does not fit in a 64-byte page")),
                    "threads {threads}, {} rows: {result:?}",
                    rows.len()
                );
            }
        }
    }

    /// `f` over `rows` as a heap holds them: each RID beside its encoded record.
    fn with_heap_records<T>(
        schema: &Schema,
        rows: &[(Rid, Row)],
        f: impl FnOnce(&[(Rid, &[u8])]) -> T,
    ) -> T {
        let codec = RowCodec::new(schema.clone());
        let encoded: Vec<Vec<u8>> = (rows.iter())
            .map(|(_, row)| codec.encode(row).unwrap())
            .collect();
        let records: Vec<(Rid, &[u8])> = (rows.iter().zip(&encoded))
            .map(|((rid, _), record)| (*rid, &record[..]))
            .collect();
        f(&records)
    }

    #[test]
    fn a_heap_record_of_the_wrong_length_is_a_typed_error() {
        let t = table(3);
        let codec = RowCodec::new(t.schema().clone());
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let good = codec
            .encode(&Row::new(vec![Value::str("a"), Value::int(1)]))
            .unwrap();
        for bad in [&good[..good.len() - 1], &[good.as_slice(), &[0]].concat()] {
            let records = [(Rid::new(0, 0), good.as_slice()), (Rid::new(0, 1), bad)];
            for threads in [1, 2] {
                let builder = IndexBuilder::new().threads(threads);
                for result in [
                    builder
                        .build_from_records(t.schema(), &records, &spec)
                        .map(drop),
                    builder.order_records(t.schema(), &records, &spec).map(drop),
                ] {
                    assert!(
                        matches!(&result, Err(IndexError::Storage(StorageError::Decode(msg)))
                            if msg.contains("does not match schema record size")),
                        "{result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_first_key_cell_that_does_not_decode_is_the_same_storage_error() {
        let schema = schema();
        let codec = RowCodec::new(schema.clone());
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let mut record = codec
            .encode(&Row::new(vec![Value::str("a"), Value::int(1)]))
            .unwrap();
        // Not UTF-8 before the padding: the cell follows the one-byte bitmap.
        record[1..3].copy_from_slice(&[0xC3, 0x28]);
        let builder = IndexBuilder::new();
        let records = [(Rid::new(0, 0), record.as_slice())];
        // Sizing never decodes a cell, the statistics read the value's length.
        let tree = builder.build_from_records(&schema, &records, &spec);
        assert!(measure_index(&tree.unwrap(), &Uncompressed).is_ok());
        let undecodable = decode_cell(&record[1..13], &DataType::Char(12)).unwrap_err();
        assert!(matches!(&undecodable, StorageError::Decode(msg) if msg.contains("utf8")));
        let ordered = builder.order_records(&schema, &records, &spec).unwrap();
        assert_eq!(
            ordered.measure(&[&Uncompressed]).map(drop),
            Err(IndexError::Storage(undecodable))
        );
        // A NULL cell is not a value: its bytes are never read.
        record[0] |= 1;
        let records = [(Rid::new(0, 0), record.as_slice())];
        let ordered = builder.order_records(&schema, &records, &spec).unwrap();
        let (_, first_key) = ordered.measure(&[]).unwrap();
        assert_eq!((first_key.nulls, first_key.distinct), (1, 0));
    }

    #[test]
    fn a_run_built_for_another_spec_is_refused_not_mislabelled() {
        let t = table(300);
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let by_name = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let by_id = IndexSpec::nonclustered("i", ["id"]).unwrap();
        let run = SortedRun::from_rows(t.schema(), &rows, &by_name).unwrap();
        let builder = IndexBuilder::new();
        let refused = |result: IndexResult<()>| {
            assert!(
                matches!(&result, Err(IndexError::InvalidSpec(msg)) if msg.contains("sorted run")),
                "{result:?}"
            );
        };
        let build = |spec: &IndexSpec, run: &SortedRun| {
            builder.build_from_sorted_run(t.schema(), spec, run)
        };
        refused(build(&by_id, &run).map(drop));
        // Same key columns, other kind: the keys agree, the records do not.
        let clustered = IndexSpec::clustered("i", ["name"]).unwrap();
        refused(build(&clustered, &run).map(drop));
        // Either side of an exclusion is checked.
        let other = SortedRun::from_rows(t.schema(), &rows[..10], &by_id).unwrap();
        for spec in [&by_name, &by_id] {
            let sizer = builder.sizer(t.schema(), spec).unwrap();
            refused(
                sizer
                    .measure_run(&run, Some(&other), |_| true, &[&NullSuppression])
                    .map(drop),
            );
        }
        // An empty run was built for nothing in particular: it matches any
        // spec, whether it was never filled or encoded from no rows.
        for empty in [
            SortedRun::new(),
            SortedRun::from_rows(t.schema(), &[], &by_name).unwrap(),
        ] {
            assert_eq!(build(&by_id, &empty).unwrap().num_entries(), 0);
            let sizer = builder.sizer(t.schema(), &by_name).unwrap();
            let (whole, _) =
                (sizer.measure_run(&run, Some(&empty), |_| true, &[&Uncompressed])).unwrap();
            assert_eq!(whole[0].uncompressed_data_bytes(), 300 * 12);
            // ... and merges with any run, as a copy or a move of the other.
            assert_eq!(empty.merge(&run).len(), 300);
            assert_eq!(run.merge(&empty).len(), 300);
            assert_eq!(empty.into_merged(&run).len(), 300);
        }
    }

    #[test]
    fn a_key_order_for_other_keys_or_other_records_is_refused_not_walked() {
        let (schema, rows) = (schema(), table(300).scan().collect::<Vec<_>>());
        let by_name = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let builder = IndexBuilder::new();
        with_heap_records(&schema, &rows, |records| {
            let sorted = builder.order_records(&schema, records, &by_name).unwrap();
            let order = sorted.key_order();
            assert_eq!((order.key_columns(), order.len()), (&[0][..], 300));
            assert_eq!(order.bytes(), 4 * 300);
            let refused = |spec: &IndexSpec, records: &[(Rid, &[u8])]| {
                let reused = Arc::clone(order);
                let result = builder.encode_in_order(&schema, records, spec, reused);
                let result = result.map(|ordered| ordered.len());
                assert!(
                    matches!(&result, Err(IndexError::InvalidSpec(msg)) if msg.contains("key order")),
                    "{result:?}"
                );
            };
            // Sorted by other key columns...
            refused(&IndexSpec::nonclustered("i", ["id"]).unwrap(), records);
            refused(&IndexSpec::clustered("i", ["name", "id"]).unwrap(), records);
            // ...or over other records: a sample's rows are only ever
            // appended to, so a stale order is one of another length.
            let grown = [records, &records[..1]].concat();
            refused(&by_name, &grown);
            refused(&by_name, &records[..299]);
            // The other kind over the same key walks the order as if it had
            // sorted it itself.
            let clustered = IndexSpec::clustered("c", ["name"]).unwrap();
            let reused = Arc::clone(order);
            let held = builder
                .encode_in_order(&schema, records, &clustered, reused)
                .unwrap();
            let fresh = builder.order_records(&schema, records, &clustered).unwrap();
            assert_eq!(held.key_order(), fresh.key_order());
            let schemes: [&dyn CompressionScheme; 2] = [&NullSuppression, &Uncompressed];
            assert_eq!(
                held.measure(&schemes).unwrap(),
                fresh.measure(&schemes).unwrap()
            );
        });
    }

    #[test]
    #[should_panic(expected = "one (key, record) entry layout")]
    fn merging_runs_of_different_layouts_panics() {
        let t = table(20);
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let by_name = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let by_id = IndexSpec::nonclustered("i", ["id"]).unwrap();
        let _ = SortedRun::from_rows(t.schema(), &rows, &by_name)
            .unwrap()
            .merge(&SortedRun::from_rows(t.schema(), &rows, &by_id).unwrap());
    }

    #[test]
    fn build_from_records_is_byte_identical_to_build_from_rows() {
        use samplecf_storage::RowCodec;
        let schema = Schema::new(vec![
            Column::nullable("a", DataType::Char(10)),
            Column::new("b", DataType::Int32),
            Column::new("id", DataType::Int64),
        ])
        .unwrap();
        let rows: Vec<(Rid, Row)> = (0..1500u32)
            .map(|i| {
                let v = if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("k{}", i % 37))
                };
                (
                    Rid::new(i / 100, (i % 100) as u16),
                    Row::new(vec![
                        v,
                        Value::int(i64::from(i % 13)),
                        Value::int(i64::from(i)),
                    ]),
                )
            })
            .collect();
        let codec = RowCodec::new(schema.clone());
        let encoded: Vec<(Rid, Vec<u8>)> = rows
            .iter()
            .map(|(rid, row)| (*rid, codec.encode(row).unwrap()))
            .collect();
        let records: Vec<(Rid, &[u8])> = encoded
            .iter()
            .map(|(rid, bytes)| (*rid, bytes.as_slice()))
            .collect();
        let builder = IndexBuilder::new().page_size(1024);
        for spec in [
            IndexSpec::nonclustered("i", ["a", "b"]).unwrap(),
            IndexSpec::clustered("i", ["id"]).unwrap(),
        ] {
            let from_rows = builder.build_from_rows(&schema, &rows, &spec).unwrap();
            let from_records = builder
                .build_from_records(&schema, &records, &spec)
                .unwrap();
            assert_trees_identical(&from_rows, &from_records);
        }
        // A record of the wrong length is rejected up front.
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        assert!(builder
            .build_from_records(&schema, &[(Rid::new(0, 0), &[0u8; 3][..])], &spec)
            .is_err());
    }

    #[test]
    fn stored_cell_bytes_per_entry_matches_schema() {
        let spec_nc = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let spec_cl = IndexSpec::clustered("i", ["name"]).unwrap();
        let t = table(10);
        let nc = IndexBuilder::new().build_from_table(&t, &spec_nc).unwrap();
        let cl = IndexBuilder::new().build_from_table(&t, &spec_cl).unwrap();
        assert_eq!(nc.stored_cell_bytes_per_entry(), 12);
        assert_eq!(cl.stored_cell_bytes_per_entry(), 20);
    }

    #[test]
    fn nulls_roundtrip_through_leaf_records() {
        let schema = Schema::new(vec![
            Column::nullable("a", DataType::Char(6)),
            Column::new("b", DataType::Int32),
        ])
        .unwrap();
        let rows: Vec<(Rid, Row)> = (0..50)
            .map(|i| {
                let v = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("v{i}"))
                };
                (Rid::new(0, i as u16), Row::new(vec![v, Value::int(i)]))
            })
            .collect();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema, &rows, &spec)
            .unwrap();
        let entries = idx.all_entries().unwrap();
        assert_eq!(
            entries
                .iter()
                .filter(|e| e.stored.value(0).is_null())
                .count(),
            17
        );
    }
}
