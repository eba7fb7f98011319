//! B+-tree indexes built by bulk loading.
//!
//! The estimator's procedure is "build an index on the sample, compress it".
//! This module provides the index: a bulk-loaded B+-tree whose leaf level is
//! made of real slotted [`Page`]s, so that page counts, slot overheads and
//! fill factors are all measurable.  Only the leaves are packed: separator
//! records are one length, so the levels above them are a count
//! ([`IndexSizeEstimate::internal_pages`]), taken once per build.  Nothing
//! here navigates or decodes a tree; the dev-only `samplecf-oracle` crate
//! decodes leaf entries and packs real separator pages to check that count.
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
    encode_cell, Page, Rid, Row, RowCodec, RowRef, Schema, Table, TableSource, DEFAULT_PAGE_SIZE,
};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A bulk-loaded B+-tree: its leaf pages, and the size model's shape of
/// the levels above them.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    spec: IndexSpec,
    table_schema: Schema,
    stored_indexes: Vec<usize>,
    leaf_pages: Vec<Page>,
    /// Entries, leaf pages, page size and separator width.
    shape: IndexSizeEstimate,
    /// `shape.internal_pages()`, taken when the tree was built.
    internal_pages: usize,
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
    pub(crate) fn workers(&self, entries: usize) -> usize {
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
        self.pack(spec, layout, shape.with_entries(len), entry)
    }

    /// Build an index over all rows of a table.
    pub fn build_from_table(&self, table: &Table, spec: &IndexSpec) -> IndexResult<BTreeIndex> {
        self.build_from_rows(table.schema(), &table.scan_rows()?, spec)
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
    /// `InvalidSpec`, and one that holds none is `Storage`
    /// (`RecordTooLarge`) — [`IndexSizeEstimate::internal_pages`]'s errors.
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
    /// straight into the arena — no [`Value`](samplecf_storage::Value) is
    /// decoded or re-encoded — and the tree is byte-identical to
    /// `build_from_rows` over the decoded rows.
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
            layout.encode_records(records[range].iter().copied(), out)
        })
    }

    /// Build an index from an already-sorted run of encoded entries:
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
        self.pack(spec, layout, shape.with_entries(run.len()), entry)
    }

    /// Entries of no records yet, for [`OrderedEntries::extend`] to encode
    /// records into and [`OrderedEntries::order`] to put in key order —
    /// sized, under any number of schemes, without packing the index.
    /// `held`, if given, is a [`KeyOrder`] an earlier measure sorted over a
    /// prefix of the records to come: the entries it covers are not sorted
    /// again.
    ///
    /// # Errors
    /// Page size, fill factor and record length are checked here, as
    /// [`build_from_rows`](Self::build_from_rows) checks them before any row
    /// is read; a `held` order sorted by other key columns is
    /// [`IndexError::InvalidSpec`].
    pub fn entries<'a>(
        &self,
        schema: &'a Schema,
        spec: &IndexSpec,
        held: Option<Arc<KeyOrder>>,
    ) -> IndexResult<OrderedEntries<'a>> {
        let (layout, shape) = self.plan(schema, spec)?;
        let order = match held {
            Some(order) => {
                layout.admit_order(&order, order.len())?;
                order
            }
            None => Arc::new(KeyOrder {
                key_columns: layout.key_indexes.clone(),
                entries: Vec::new(),
            }),
        };
        Ok(OrderedEntries::new(RunSizer::new(layout, shape), order))
    }

    /// [`entries`](Self::entries) over `records`, encoded and put in key
    /// order: every scheme's size over them is then a walk
    /// ([`OrderedEntries::measure`]), and the [`KeyOrder`] sorted is handed
    /// out ([`OrderedEntries::key_order`]) for a later measure to start from.
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
        let mut entries = self.entries(schema, spec, None)?;
        entries.extend(records.iter().copied())?;
        entries.order()?;
        Ok(entries)
    }

    /// What sizes entries as the index this builder would load from them,
    /// without loading it (see [`RunSizer`]).
    ///
    /// # Errors
    /// As [`build_from_rows`](Self::build_from_rows) before any row is read:
    /// page size, fill factor and record length are checked here.
    pub fn sizer<'a>(&self, schema: &'a Schema, spec: &IndexSpec) -> IndexResult<RunSizer<'a>> {
        let (layout, shape) = self.plan(schema, spec)?;
        Ok(RunSizer::new(layout, shape))
    }

    /// Pack `shape.num_entries` sorted entries — `entry(i)` is a slice of
    /// some arena — into leaf pages, and count the internal pages above
    /// them ([`IndexSizeEstimate::internal_pages`]: a tree whose levels
    /// cannot narrow fails here).  Records are one length, so the fill rule
    /// is arithmetic: page `p` holds entries `p × per_leaf ..`, an empty
    /// build one empty leaf; pages fill independently.
    fn pack<'a>(
        &self,
        spec: &IndexSpec,
        layout: EntryLayout<'_>,
        shape: IndexSizeEstimate,
        entry: impl Fn(usize) -> &'a [u8] + Sync,
    ) -> IndexResult<BTreeIndex> {
        let internal_pages = shape.internal_pages()?;
        let (key_len, per_leaf, n) = (layout.key_len, shape.entries_per_leaf, shape.num_entries);
        let (pages, workers) = (shape.leaf_pages, self.workers(n));
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
        Ok(BTreeIndex {
            spec: spec.clone(),
            table_schema: layout.schema.clone(),
            stored_indexes: layout.stored_indexes,
            leaf_pages,
            shape,
            internal_pages,
        })
    }
}

/// What `(schema, spec)` fixes about every entry: which cells make up the
/// sort key and the leaf record, and the two constant lengths.
pub(crate) struct EntryLayout<'a> {
    pub(crate) schema: &'a Schema,
    /// The heap record layout input records are sliced by.
    pub(crate) codec: RowCodec,
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
            codec: RowCodec::new(schema.clone()),
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
    fn admit(&self, run: &SortedRun) -> IndexResult<()> {
        if run.is_empty() || (run.key_len, run.record_len) == (self.key_len, self.record_len) {
            return Ok(());
        }
        Err(IndexError::InvalidSpec(format!(
            "sorted run holds {} + {}-byte entries, this schema and spec imply {} + {}",
            run.key_len, run.record_len, self.key_len, self.record_len
        )))
    }

    /// An order handed in beside `(schema, spec)` was sorted by this key
    /// over at most `entries` inputs: rows are only ever appended to a
    /// sample, so an order sorted before its rows grew covers a prefix of
    /// them, and one longer than them was sorted over other rows.
    fn admit_order(&self, order: &KeyOrder, entries: usize) -> IndexResult<()> {
        if order.key_columns == self.key_indexes && order.len() <= entries {
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
    fn encode_row(&self, rid: Rid, row: &Row, out: &mut Vec<u8>) -> IndexResult<()> {
        self.schema.validate_row(row.values())?;
        let datatype = |i: usize| &self.schema.column_at(i).datatype;
        let cell = |i, out: &mut Vec<u8>| Ok(encode_cell(row.value(i), datatype(i), out)?);
        self.encode_entry(rid, |i| row.value(i).is_null(), cell, out)
    }

    /// Append one entry per borrowed heap record to `out`: cells already
    /// sit in their fixed-width encoding inside the record, so they are
    /// sliced, not decoded.
    pub(crate) fn encode_records<'r>(
        &self,
        records: impl IntoIterator<Item = (Rid, &'r [u8])>,
        out: &mut Vec<u8>,
    ) -> IndexResult<()> {
        for (rid, record) in records {
            let row = RowRef::new(&self.codec, record)?;
            let cell = |i, out: &mut Vec<u8>| {
                out.extend_from_slice(row.cell(i).bytes());
                Ok(())
            };
            self.encode_entry(rid, |i| row.is_null(i), cell, out)?;
        }
        Ok(())
    }
}

/// The entry numbers of some records' entries in the order a bulk load puts
/// them — sorted by key, the key cells and then the RID — with the key
/// columns they were sorted by: four bytes per entry.
///
/// The key alone decides the order, not the index kind or the other stored
/// columns, so one order serves every index over its key columns.  An order
/// grows as its records do: the entries appended after it are sorted on
/// their own and merged in, in one pass, which gives the order a sort of
/// them all from scratch gives (equal keys keep entry-number order either
/// way).  Made by [`OrderedEntries::order`]; [`IndexBuilder::entries`]
/// starts from one, and refuses it for other key columns, or at
/// [`order`](OrderedEntries::order) for more entries than there are.
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

    /// This order over all of `arena`'s entries: those past its end sorted
    /// ([`key_order`], on the calling thread) and merged in.
    ///
    /// # Errors
    /// An order of more entries than `arena` holds was not sorted over its
    /// prefix: [`IndexError::InvalidSpec`].  More than `u32::MAX` entries is
    /// `InvalidSpec` too.
    pub(crate) fn extended(&self, arena: &[u8], layout: &EntryLayout) -> IndexResult<KeyOrder> {
        let (key_len, stride) = (layout.key_len, layout.stride());
        let (done, n) = (self.len(), arena.len() / stride);
        layout.admit_order(self, n)?;
        let first = u32::try_from(n)
            .map(|_| done as u32)
            .map_err(|_| too_many_entries())?;
        let delta = key_order(&arena[done * stride..], layout, 1)?;
        let key = |i: u32| &arena[i as usize * stride..][..key_len];
        let mut entries = Vec::with_capacity(n);
        let mut delta = (delta.into_iter()).map(|(_, i)| first + i).peekable();
        for &held in &self.entries {
            // A new entry goes before a held one only if its key is less:
            // on equal keys the held one's smaller number comes first.
            while let Some(new) = delta.next_if(|&new| key(new) < key(held)) {
                entries.push(new);
            }
            entries.push(held);
        }
        entries.extend(delta);
        Ok(KeyOrder {
            key_columns: self.key_columns.clone(),
            entries,
        })
    }
}

fn too_many_entries() -> IndexError {
    IndexError::InvalidSpec("more entries than one bulk load sorts (2^32 - 1)".into())
}

/// The key order of an arena of `layout`'s entries, as sorted `(key prefix,
/// entry number)` pairs (order-exact: see the [module docs](self)); callers
/// read the untouched arena through it, or gather it once.  Pairs are
/// counting-sorted by leading key byte into buckets — disjoint key ranges
/// in byte order — and each bucket is then sorted on its own, over `workers`
/// threads; a total order, so the same permutation for every worker count.
fn key_order(arena: &[u8], layout: &EntryLayout, workers: usize) -> IndexResult<Vec<(u64, u32)>> {
    let (key_len, stride) = (layout.key_len, layout.stride());
    let n = u32::try_from(arena.len() / stride).map_err(|_| too_many_entries())?;
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
/// Each batch is encoded and sorted on its own and merged in, in linear
/// time — a two-cursor walk appending stride-sized slices of either arena
/// to one new arena.  The `(key bytes, RID)` sort key fully determines the
/// entry order, so how the rows arrived cannot show:
/// [`IndexBuilder::build_from_sorted_run`] packs the tree
/// [`IndexBuilder::build_from_rows`] would build from the same rows.  No
/// estimator keeps a run — a measure grows a [`KeyOrder`] instead — so this
/// is the packed oracle's input, for tests and the benchmark's replay of
/// the old checkpoint chain.
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
        for entry in self.arena.chunks_exact(self.stride()) {
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

    /// Number of leaf entries (one per indexed row).
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.shape.num_entries
    }

    /// Page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.shape.page_size
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

    /// Number of internal (non-leaf) pages across all levels, by
    /// [`IndexSizeEstimate::internal_pages`] over this tree's leaves.
    #[must_use]
    pub fn num_internal_pages(&self) -> usize {
        self.internal_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{measure_index, FirstKeyStats, RunCellCosts};
    use proptest::prelude::*;
    use samplecf_compression::{
        scheme_by_name, scheme_names, CompressionScheme, NullSuppression, Uncompressed,
    };
    use samplecf_storage::{decode_cell, Column, DataType, StorageError, TableBuilder, Value};
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
    fn multi_page_trees_have_internal_levels() {
        let t = table(5000);
        let spec = IndexSpec::nonclustered("i", ["name", "id"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(512)
            .build_from_table(&t, &spec)
            .unwrap();
        assert!(idx.num_leaf_pages() > 10);
        assert!(idx.num_internal_pages() >= 1);
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
    fn empty_input_builds_an_empty_single_leaf_tree() {
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema(), &[], &spec)
            .unwrap();
        assert_eq!(idx.num_entries(), 0);
        assert_eq!(idx.num_leaf_pages(), 1);
        assert_eq!(idx.leaf_pages()[0].slot_count(), 0);
        assert_eq!(idx.num_internal_pages(), 0);
    }

    /// Compare two trees page by page at the byte level, and the internal
    /// page counts above their leaves.
    fn assert_trees_identical(a: &BTreeIndex, b: &BTreeIndex) {
        assert_eq!(a.num_entries(), b.num_entries());
        assert_eq!(a.num_leaf_pages(), b.num_leaf_pages());
        assert_eq!(a.num_internal_pages(), b.num_internal_pages());
        for (pa, pb) in a.leaf_pages().iter().zip(b.leaf_pages()) {
            assert_eq!(pa.raw(), pb.raw(), "leaf pages must match byte-for-byte");
        }
    }

    #[test]
    fn parallel_builds_are_byte_identical_to_serial_for_every_thread_count() {
        let t = table(4_000);
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
            let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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

    /// A left fold of pairwise merges that clones every entry at every step,
    /// kept as the oracle of a merge of several runs.
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

    fn all_but_sums(sums: &[RunCellCosts], skip: usize) -> impl Iterator<Item = &RunCellCosts> {
        (sums.iter().enumerate())
            .filter(move |(i, _)| *i != skip)
            .map(|(_, sum)| sum)
    }

    /// Both size-only routes against the route they replaced, kept as the
    /// oracle: pack `kept` — the rows of every batch but `batches[skip]` —
    /// into a tree and measure it.  Every scheme is walked through the key
    /// order of all the batches' entries, grown a batch at a time, skipping
    /// `skip`'s; those that declare cell costs are also priced, whole report
    /// and all, from the other batches' sums merged.
    fn assert_sized_as_packed(
        builder: &IndexBuilder,
        schema: &Schema,
        spec: &IndexSpec,
        (batches, skip): (&[&[(Rid, Row)]], usize),
        kept: &BTreeIndex,
    ) {
        let codec = RowCodec::new(schema.clone());
        let encoded: Vec<Vec<Vec<u8>>> = (batches.iter())
            .map(|rows| {
                (rows.iter())
                    .map(|(_, row)| codec.encode(row).unwrap())
                    .collect()
            })
            .collect();
        let records = |b: usize| {
            (batches[b].iter().zip(&encoded[b])).map(|((rid, _), record)| (*rid, &record[..]))
        };
        let mut ordered = builder.entries(schema, spec, None).unwrap();
        let mut skipped = 0..0;
        for (b, rows) in batches.iter().enumerate() {
            let start = ordered.len();
            ordered.extend(records(b)).unwrap();
            assert_eq!(ordered.order().unwrap(), rows.len());
            if b == skip {
                skipped = start..ordered.len();
            }
        }
        let sizer = builder.sizer(schema, spec).unwrap();
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            let packed = measure_index(kept, scheme.as_ref()).unwrap();
            let walked = ordered.measure_where(|i| !skipped.contains(&i), &[&*scheme]);
            assert_eq!(
                walked.map(|(reports, _)| reports),
                Ok(vec![packed.clone()]),
                "{name}: walk of {}",
                spec.name()
            );
            if let Some(costs) = scheme.cell_costs() {
                let mut sums = vec![sizer.empty_cell_costs(); batches.len()];
                for (b, sum) in sums.iter_mut().enumerate() {
                    let sum = std::slice::from_mut(sum);
                    sizer
                        .add_cell_costs(records(b), &costs, sum, |_| 0, |_, _| Ok(()))
                        .unwrap();
                }
                let mut others = sizer.empty_cell_costs();
                all_but_sums(&sums, skip).for_each(|sum| others.merge(sum));
                let priced = sizer.price(scheme.as_ref(), &costs, &others);
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
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Leaving one batch out: for any split of a sample into batches
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
            let source: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
    /// walked the sorted pairs carrying the fill rule with it.  The levels
    /// above are the size model's count over the oracle's own leaf pages
    /// (`samplecf-oracle` packs real separator pages to check that count).
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
            let mut current = Page::new(0, builder.page_size).unwrap();
            let mut current_used = 0usize;
            for (_, record) in &entries {
                let needed = record.len() + SLOT_SIZE;
                let over_fill = current_used + needed > target_fill && current.slot_count() > 0;
                if over_fill || !current.fits(record.len()) {
                    leaf_pages.push(current);
                    current = Page::new(leaf_pages.len() as u32, builder.page_size).unwrap();
                    current_used = 0;
                }
                current.insert(record).unwrap().expect("the record fits");
                current_used += needed;
            }
            if current.slot_count() > 0 || leaf_pages.is_empty() {
                leaf_pages.push(current);
            }
            let (_, shape) = builder.plan(schema, spec).unwrap();
            let shape = IndexSizeEstimate {
                num_entries: entries.len(),
                leaf_pages: leaf_pages.len(),
                ..shape
            };
            BTreeIndex {
                spec: spec.clone(),
                table_schema: schema.clone(),
                stored_indexes: spec.stored_column_indexes(schema).unwrap(),
                leaf_pages,
                internal_pages: shape.internal_pages().unwrap(),
                shape,
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
            let source: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
                    let held = reorder(&builder, schema, &records, &spec, reused).unwrap();
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
                        .fold(SortedRun::new(), |pooled, run| pooled.merge(run));
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
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
        assert_eq!((one.num_leaf_pages(), one.num_internal_pages()), (1, 0));
        // Two leaves need a root, and a 64-byte internal page holds a single
        // 18-byte separator: levels would never narrow.
        assert!(matches!(
            tiny.build_from_table(&table(2), &spec),
            Err(IndexError::InvalidSpec(msg)) if msg.contains("one separator key")
        ));
        // The walk packs no internal page, and reports the same.
        let (schema, rows) = (schema(), table(2).scan_rows().unwrap());
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

    /// `records` encoded and put in key order from `held`, an order of a
    /// prefix of them — as a held sample is measured again.
    fn reorder<'a>(
        builder: &IndexBuilder,
        schema: &'a Schema,
        records: &[(Rid, &[u8])],
        spec: &IndexSpec,
        held: Arc<KeyOrder>,
    ) -> IndexResult<OrderedEntries<'a>> {
        let mut entries = builder.entries(schema, spec, Some(held))?;
        entries.extend(records.iter().copied())?;
        entries.order()?;
        Ok(entries)
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
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
        // An empty run was built for nothing in particular: it matches any
        // spec, whether it was never filled or encoded from no rows.
        for empty in [
            SortedRun::new(),
            SortedRun::from_rows(t.schema(), &[], &by_name).unwrap(),
        ] {
            assert_eq!(build(&by_id, &empty).unwrap().num_entries(), 0);
            // ... and merges with any run.
            assert_eq!(empty.merge(&run).len(), 300);
            assert_eq!(run.merge(&empty).len(), 300);
        }
    }

    #[test]
    fn a_key_order_for_other_keys_or_other_records_is_refused_not_walked() {
        let (schema, rows) = (schema(), table(300).scan_rows().unwrap());
        let by_name = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let builder = IndexBuilder::new();
        with_heap_records(&schema, &rows, |records| {
            let sorted = builder.order_records(&schema, records, &by_name).unwrap();
            let order = sorted.key_order();
            assert_eq!((order.key_columns(), order.len()), (&[0][..], 300));
            assert_eq!(order.bytes(), 4 * 300);
            let refused = |spec: &IndexSpec, records: &[(Rid, &[u8])]| {
                let reused = Arc::clone(order);
                let result = reorder(&builder, &schema, records, spec, reused);
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
            // appended to, so an order longer than the rows is of others.
            refused(&by_name, &records[..299]);
            // An order of a prefix is grown: the records past it are sorted
            // and merged in, as a sort of them all would place them.
            let grown = [records, &records[..1]].concat();
            let merged = reorder(&builder, &schema, &grown, &by_name, Arc::clone(order)).unwrap();
            let fresh = builder.order_records(&schema, &grown, &by_name).unwrap();
            assert_eq!(merged.key_order(), fresh.key_order());
            // The other kind over the same key walks the order as if it had
            // sorted it itself.
            let clustered = IndexSpec::clustered("c", ["name"]).unwrap();
            let reused = Arc::clone(order);
            let held = reorder(&builder, &schema, records, &clustered, reused).unwrap();
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
    fn a_key_order_grown_by_merging_a_sorted_delta_equals_a_fresh_sort() {
        // Rows drawn with replacement, so equal keys span the prefix and the
        // delta, and some entries are equal outright.
        let t = shaped_table(300, 7);
        let source: Vec<(Rid, Row)> = t.scan_rows().unwrap();
        let rows: Vec<(Rid, Row)> = (0..900).map(|i| source[(i * 37) % 300].clone()).collect();
        with_heap_records(t.schema(), &rows, |records| {
            let builder = IndexBuilder::new().page_size(512);
            for keys in SHAPED_KEYS {
                let spec = IndexSpec::nonclustered("i", keys.iter().copied()).unwrap();
                let fresh = builder.order_records(t.schema(), records, &spec).unwrap();
                for splits in [
                    &[0, 900][..],
                    &[1, 900],
                    &[450, 900],
                    &[899, 900],
                    &[7, 100, 101, 900],
                ] {
                    // Grow one order a delta at a time, handing it on as a
                    // held sample does between measures.
                    let mut held = None;
                    let mut sorted = 0;
                    for &end in splits {
                        let mut grown = builder.entries(t.schema(), &spec, held.take()).unwrap();
                        grown.extend(records[..end].iter().copied()).unwrap();
                        sorted += grown.order().unwrap();
                        held = Some(Arc::clone(grown.key_order()));
                    }
                    assert_eq!(sorted, 900, "{keys:?} split at {splits:?}");
                    assert_eq!(
                        held.as_deref(),
                        Some(&**fresh.key_order()),
                        "{keys:?} {splits:?}"
                    );
                }
                // Nothing past the order's end: nothing sorted, the order kept.
                let mut again = builder
                    .entries(t.schema(), &spec, Some(Arc::clone(fresh.key_order())))
                    .unwrap();
                again.extend(records.iter().copied()).unwrap();
                assert_eq!(again.order().unwrap(), 0);
                assert!(Arc::ptr_eq(again.key_order(), fresh.key_order()));
                // An order of more entries than there are is refused.
                let mut fewer = builder
                    .entries(t.schema(), &spec, Some(Arc::clone(fresh.key_order())))
                    .unwrap();
                fewer.extend(records[..899].iter().copied()).unwrap();
                assert!(
                    matches!(fewer.order(), Err(IndexError::InvalidSpec(msg)) if msg.contains("key order"))
                );
            }
        });
    }

    #[test]
    #[should_panic(expected = "one (key, record) entry layout")]
    fn merging_runs_of_different_layouts_panics() {
        let t = table(20);
        let rows: Vec<(Rid, Row)> = t.scan_rows().unwrap();
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
}
