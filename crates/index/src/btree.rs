//! B+-tree indexes built by bulk loading.
//!
//! The estimator's procedure is "build an index on the sample, compress it".
//! This module provides the index: a bulk-loaded B+-tree whose leaf level is
//! made of real slotted [`Page`]s, so that page counts, slot overheads and
//! fill factors are all measurable.  Internal levels store separator keys and
//! child page numbers.
//!
//! Leaf record layout (stored column order comes from
//! [`IndexSpec::stored_column_indexes`]):
//!
//! ```text
//! [null bitmap][fixed-width stored cells][RID (non-clustered only)]
//! ```

use crate::error::{IndexError, IndexResult};
use crate::spec::{IndexKind, IndexSpec};
use samplecf_parallel::{parallel_indexed_map, resolve_threads};
use samplecf_storage::{
    decode_cell, encode_cell, Page, Rid, Row, Schema, Table, Value, DEFAULT_PAGE_SIZE,
    PAGE_HEADER_SIZE, SLOT_SIZE,
};
use std::borrow::Borrow;

/// One encoded `(sort key, leaf record)` pair.
type EncodedEntry = (Vec<u8>, Vec<u8>);

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
/// loads.
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
    /// Create a builder with the default page size, a 100% fill factor and
    /// the serial (single-threaded) build path.
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
    /// parallelism, 1 = the serial oracle path; the default).
    ///
    /// The parallel path radix-partitions entries on the leading sort-key
    /// byte (partitions are disjoint key ranges, so per-partition sorts
    /// concatenate into a globally sorted run with no merge step) and fans
    /// both the per-partition sorts and the leaf packing over a strided
    /// worker pool.  The resulting tree is byte-identical to the serial
    /// build for every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker thread count (0 = all available parallelism).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Workers the builder will actually use for `jobs` units of work
    /// (resolves 0 to the machine's parallelism, clamps to the job count).
    fn effective_workers(&self, jobs: usize) -> usize {
        resolve_threads(self.threads, jobs)
    }

    /// The parallel sort pipeline: encode contiguous row chunks in parallel,
    /// radix-partition the encoded entries on the leading sort-key byte,
    /// sort each partition in parallel, and concatenate.
    ///
    /// Why concatenation needs no merge: every sort key starts with the
    /// first byte of an order-preserving cell encoding (or of the RID
    /// tie-break for zero-key specs), so the 256 partitions are disjoint
    /// key ranges and per-partition sorted runs laid out in byte order
    /// already form a globally sorted run.  Byte-identity to the serial
    /// path holds because entries with equal sort keys are fully equal —
    /// the RID tie-break is part of the key and, for one input set, a
    /// `(key, RID)` pair determines the leaf record — so even an unstable
    /// per-partition sort cannot produce a byte-different tree.
    fn encode_and_sort_parallel<E>(
        &self,
        len: usize,
        encode_chunk: E,
    ) -> IndexResult<Vec<(Vec<u8>, Vec<u8>)>>
    where
        E: Fn(std::ops::Range<usize>) -> IndexResult<Vec<(Vec<u8>, Vec<u8>)>> + Sync,
    {
        use std::sync::Mutex;
        type Bucket = Vec<(Vec<u8>, Vec<u8>)>;
        let workers = self.effective_workers(len);
        let chunk = len.div_ceil(workers).max(1);
        let chunks = len.div_ceil(chunk);
        let encoded = parallel_indexed_map(chunks, workers, |i| {
            encode_chunk(i * chunk..((i + 1) * chunk).min(len))
        });

        // Serial O(n) radix partition on the leading sort-key byte.
        let mut buckets: Vec<Bucket> = (0..256).map(|_| Vec::new()).collect();
        for part in encoded {
            for entry in part? {
                buckets[usize::from(entry.0[0])].push(entry);
            }
        }

        // Per-partition parallel sorts.  The mutexes exist only so each
        // strided sort job can take ownership of its bucket; there is no
        // contention — every bucket is locked exactly once.
        let buckets: Vec<Mutex<Bucket>> = buckets.into_iter().map(Mutex::new).collect();
        let sorted = parallel_indexed_map(buckets.len(), workers, |b| {
            let mut bucket = std::mem::take(&mut *buckets[b].lock().expect("bucket lock poisoned"));
            bucket.sort_unstable_by(|x, y| x.0.cmp(&y.0));
            bucket
        });

        let mut entries = Vec::with_capacity(len);
        for bucket in sorted {
            entries.extend(bucket);
        }
        Ok(entries)
    }

    /// Parallel leaf packing: compute page breaks serially (pure arithmetic
    /// mirroring the serial loop's fill rule), then build each page's slots
    /// independently on the worker pool.
    ///
    /// The mirrored rule: a new page starts when the page already holds an
    /// entry and adding the next record would push the used bytes (records
    /// plus slot directory) past the fill target; a record that cannot fit
    /// in an empty page is an error.  `target_fill <= usable`, so the fill
    /// check subsumes the serial loop's physical `fits` check.
    fn pack_leaves_parallel<E: Borrow<EncodedEntry> + Sync>(
        &self,
        entries: &[E],
        usable: usize,
        target_fill: usize,
    ) -> IndexResult<Vec<Page>> {
        let oversized = |len: usize| {
            IndexError::InvalidSpec(format!(
                "index entry of {len} bytes does not fit in a {}-byte page",
                self.page_size
            ))
        };
        let mut starts: Vec<usize> = vec![0];
        let mut used = 0usize;
        let mut count = 0usize;
        for (i, entry) in entries.iter().enumerate() {
            let record = &entry.borrow().1;
            let needed = record.len() + SLOT_SIZE;
            if needed > usable {
                return Err(oversized(record.len()));
            }
            if count > 0 && used + needed > target_fill {
                starts.push(i);
                used = 0;
                count = 0;
            }
            used += needed;
            count += 1;
        }

        let workers = self.effective_workers(starts.len());
        let pages = parallel_indexed_map(starts.len(), workers, |p| -> IndexResult<Page> {
            let lo = starts[p];
            let hi = starts.get(p + 1).copied().unwrap_or(entries.len());
            let mut page = Page::new(p as u32, self.page_size)?;
            for entry in &entries[lo..hi] {
                let record = &entry.borrow().1;
                page.insert(record)?
                    .ok_or_else(|| oversized(record.len()))?;
            }
            Ok(page)
        });
        pages.into_iter().collect()
    }

    /// Build an index over all rows of a table.
    pub fn build_from_table(&self, table: &Table, spec: &IndexSpec) -> IndexResult<BTreeIndex> {
        let rows: Vec<(Rid, Row)> = table.scan().collect();
        self.build_from_rows(table.schema(), &rows, spec)
    }

    /// Build an index over an explicit set of `(rid, row)` pairs — this is how
    /// SampleCF builds the index on a sample.
    pub fn build_from_rows(
        &self,
        schema: &Schema,
        rows: &[(Rid, Row)],
        spec: &IndexSpec,
    ) -> IndexResult<BTreeIndex> {
        let entries = if self.effective_workers(rows.len()) > 1 {
            self.encode_and_sort_parallel(rows.len(), |range| {
                encode_entries(schema, &rows[range], spec)
            })?
        } else {
            let mut entries = encode_entries(schema, rows, spec)?;
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            entries
        };
        self.build_from_sorted_entries(schema, spec, &entries)
    }

    /// Build an index from borrowed, already-encoded heap records — the
    /// zero-copy counterpart of [`build_from_rows`](Self::build_from_rows).
    ///
    /// Heap records keep every cell in the same canonical fixed-width
    /// encoding an index entry uses (NULL cells included: both sides
    /// materialise them as all-zero placeholders, with the null bitmap
    /// authoritative), so sort keys and leaf records can be assembled by
    /// pure byte slicing — no [`Value`] is decoded or re-encoded.  The
    /// resulting tree is byte-identical to `build_from_rows` over the
    /// decoded rows.
    pub fn build_from_records(
        &self,
        schema: &Schema,
        records: &[(Rid, &[u8])],
        spec: &IndexSpec,
    ) -> IndexResult<BTreeIndex> {
        let entries = if self.effective_workers(records.len()) > 1 {
            self.encode_and_sort_parallel(records.len(), |range| {
                encode_entries_from_records(schema, &records[range], spec)
            })?
        } else {
            let mut entries = encode_entries_from_records(schema, records, spec)?;
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            entries
        };
        self.build_from_sorted_entries(schema, spec, &entries)
    }

    /// Build an index from an already-sorted run of encoded entries — the
    /// checkpoint-friendly path progressive estimation uses.
    ///
    /// A [`SortedRun`] accumulated over several sample batches is merged
    /// (linear time), never re-sorted, so re-measuring the CF after each
    /// batch costs `O(r)` per checkpoint instead of `O(r log r)`.  The
    /// resulting tree is byte-identical to
    /// [`build_from_rows`](Self::build_from_rows) over the concatenation of
    /// the batches.
    pub fn build_from_sorted_run(
        &self,
        schema: &Schema,
        spec: &IndexSpec,
        run: &SortedRun,
    ) -> IndexResult<BTreeIndex> {
        self.build_from_sorted_entries(schema, spec, &run.entries)
    }

    /// Build an index over `run` minus (as a multiset) `excluded` — how the
    /// progressive jackknife forms a delete-one-batch estimate.
    ///
    /// `excluded` must be a sorted sub-multiset of `run`, as one batch's
    /// run is of the pooled run it was merged into.  One linear walk of
    /// `run` with a cursor over `excluded` keeps every entry the cursor
    /// does not match, *by reference*: nothing is merged, and no entry is
    /// cloned.  Entries with equal sort keys are fully equal (the RID is
    /// part of the key), so which of several equal entries the cursor
    /// consumes cannot show: the tree is byte-identical to
    /// [`build_from_sorted_run`](Self::build_from_sorted_run) over a merge
    /// of the other batches' runs.
    ///
    /// Entries left on the cursor after the walk mean `excluded` was not
    /// drawn from `run`; that is [`IndexError::ExclusionMismatch`], never a
    /// silently wrong tree.
    pub fn build_from_sorted_run_excluding(
        &self,
        schema: &Schema,
        spec: &IndexSpec,
        run: &SortedRun,
        excluded: &SortedRun,
    ) -> IndexResult<BTreeIndex> {
        let mut cursor = excluded.entries.iter().peekable();
        let mut kept: Vec<&EncodedEntry> =
            Vec::with_capacity(run.len().saturating_sub(excluded.len()));
        for entry in &run.entries {
            if cursor.next_if(|x| x.0 == entry.0).is_none() {
                kept.push(entry);
            }
        }
        let left_over = cursor.count();
        if left_over > 0 {
            return Err(IndexError::ExclusionMismatch { left_over });
        }
        self.build_from_sorted_entries(schema, spec, &kept)
    }

    /// Pack sorted entries — owned, or borrowed out of a [`SortedRun`] — into
    /// leaf pages and build the internal levels over them.
    fn build_from_sorted_entries<E: Borrow<EncodedEntry> + Sync>(
        &self,
        schema: &Schema,
        spec: &IndexSpec,
        entries: &[E],
    ) -> IndexResult<BTreeIndex> {
        if !(self.fill_factor > 0.0 && self.fill_factor <= 1.0) {
            return Err(IndexError::InvalidSpec(format!(
                "fill factor must be in (0, 1], got {}",
                self.fill_factor
            )));
        }
        let key_indexes = spec.key_indexes(schema)?;
        let stored_indexes = spec.stored_column_indexes(schema)?;

        // Pack leaf pages respecting the fill factor.
        let usable = self.page_size - PAGE_HEADER_SIZE;
        let target_fill = (usable as f64 * self.fill_factor) as usize;
        let leaf_pages: Vec<Page> = if self.effective_workers(entries.len()) > 1 {
            self.pack_leaves_parallel(entries, usable, target_fill)?
        } else {
            let mut leaf_pages: Vec<Page> = Vec::new();
            let mut current = Page::new(0, self.page_size)?;
            let mut current_used = 0usize;
            for entry in entries {
                let record = &entry.borrow().1;
                let needed = record.len() + SLOT_SIZE;
                let over_fill = current_used + needed > target_fill && current.slot_count() > 0;
                if over_fill || !current.fits(record.len()) {
                    leaf_pages.push(current);
                    current = Page::new(leaf_pages.len() as u32, self.page_size)?;
                    current_used = 0;
                }
                current.insert(record)?.ok_or_else(|| {
                    IndexError::InvalidSpec(format!(
                        "index entry of {} bytes does not fit in a {}-byte page",
                        record.len(),
                        self.page_size
                    ))
                })?;
                current_used += needed;
            }
            if current.slot_count() > 0 || leaf_pages.is_empty() {
                leaf_pages.push(current);
            }
            leaf_pages
        };

        // Build internal levels bottom-up.  Each internal entry is
        // [2-byte key length][separator key bytes][4-byte child page number].
        let mut internal_levels: Vec<Vec<Page>> = Vec::new();
        // First key of each leaf page, borrowed straight from the sorted
        // entries — separator keys are only ever copied into the internal
        // records themselves, never cloned as scratch.
        let mut child_keys: Vec<&[u8]> = Vec::with_capacity(leaf_pages.len());
        {
            let mut idx = 0usize;
            for page in &leaf_pages {
                if page.slot_count() > 0 {
                    child_keys.push(entries[idx].borrow().0.as_slice());
                    idx += usize::from(page.slot_count());
                } else {
                    child_keys.push(&[]);
                }
            }
        }

        let mut level_children: Vec<(&[u8], u32)> = child_keys
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
            internal_levels.push(pages);
            level_children = next_children;
        }

        Ok(BTreeIndex {
            spec: spec.clone(),
            table_schema: schema.clone(),
            stored_indexes,
            key_count: key_indexes.len(),
            page_size: self.page_size,
            leaf_pages,
            internal_levels,
            num_entries: entries.len(),
        })
    }
}

/// Encode rows into `(sort key, leaf record)` pairs, unsorted.
fn encode_entries(
    schema: &Schema,
    rows: &[(Rid, Row)],
    spec: &IndexSpec,
) -> IndexResult<Vec<(Vec<u8>, Vec<u8>)>> {
    let key_indexes = spec.key_indexes(schema)?;
    let stored_indexes = spec.stored_column_indexes(schema)?;
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(rows.len());
    for (rid, row) in rows {
        schema.validate_row(row.values())?;
        let mut sort_key = Vec::new();
        for &i in &key_indexes {
            encode_cell(row.value(i), &schema.column_at(i).datatype, &mut sort_key)?;
        }
        // Tie-break equal keys by RID so the load is deterministic.
        sort_key.extend_from_slice(&rid.encode());
        let record = encode_leaf_record(schema, &stored_indexes, row, *rid, spec.kind())?;
        entries.push((sort_key, record));
    }
    Ok(entries)
}

/// Encode borrowed heap records into `(sort key, leaf record)` pairs by byte
/// slicing, unsorted.  Mirrors [`encode_entries`] exactly: cells already sit
/// in their order-preserving fixed-width encoding inside the record, so the
/// sort key is a concatenation of cell subslices and the leaf record is the
/// remapped null bitmap plus stored-cell subslices (plus the RID for
/// non-clustered indexes).
fn encode_entries_from_records(
    schema: &Schema,
    records: &[(Rid, &[u8])],
    spec: &IndexSpec,
) -> IndexResult<Vec<(Vec<u8>, Vec<u8>)>> {
    let key_indexes = spec.key_indexes(schema)?;
    let stored_indexes = spec.stored_column_indexes(schema)?;
    let arity = schema.arity();
    let heap_bitmap_len = arity.div_ceil(8);

    // Fixed offset and width of each cell within a heap record.
    let mut offsets = Vec::with_capacity(arity);
    let mut widths = Vec::with_capacity(arity);
    let mut off = heap_bitmap_len;
    for i in 0..arity {
        let w = schema.column_at(i).datatype.uncompressed_width();
        offsets.push(off);
        widths.push(w);
        off += w;
    }
    let record_size = off;
    let leaf_bitmap_len = stored_indexes.len().div_ceil(8);

    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(records.len());
    for (rid, rec) in records {
        if rec.len() != record_size {
            return Err(IndexError::InvalidSpec(format!(
                "heap record of {} bytes does not match schema record size {record_size}",
                rec.len()
            )));
        }
        let mut sort_key = Vec::new();
        for &i in &key_indexes {
            sort_key.extend_from_slice(&rec[offsets[i]..offsets[i] + widths[i]]);
        }
        sort_key.extend_from_slice(&rid.encode());

        let mut record = vec![0u8; leaf_bitmap_len];
        for (pos, &i) in stored_indexes.iter().enumerate() {
            if rec[i / 8] & (1 << (i % 8)) != 0 {
                record[pos / 8] |= 1 << (pos % 8);
            }
        }
        for &i in &stored_indexes {
            record.extend_from_slice(&rec[offsets[i]..offsets[i] + widths[i]]);
        }
        if spec.kind() == IndexKind::NonClustered {
            record.extend_from_slice(&rid.encode());
        }
        entries.push((sort_key, record));
    }
    Ok(entries)
}

/// A sorted run of encoded index entries, accumulated batch by batch.
///
/// Progressive estimation re-measures the CF of a growing sample at every
/// checkpoint; rebuilding the index from scratch would re-sort all prior
/// batches each time.  A `SortedRun` keeps the entries of the batches seen
/// so far in sorted order: each new batch is encoded and sorted on its own
/// (`O(b log b)` for `b` new rows) and then merged into the accumulated run
/// in linear time — [`into_merged`](Self::into_merged) moves the accumulated
/// entries and clones only the new batch's.  Feeding the run to
/// [`IndexBuilder::build_from_sorted_run`] produces a tree byte-identical
/// to a from-scratch [`IndexBuilder::build_from_rows`] over the same rows —
/// the entry order is fully determined by the `(key bytes, RID)` sort key,
/// so how the rows arrived cannot show in the output.
///
/// The same determinism runs backwards: the pooled run minus one batch's
/// own run *is* the merge of the other batches, so a delete-one-batch tree
/// is built by skipping that batch's entries in the pooled run
/// ([`IndexBuilder::build_from_sorted_run_excluding`]) — no run is ever
/// merged a second time.
#[derive(Debug, Clone, Default)]
pub struct SortedRun {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
}

impl SortedRun {
    /// An empty run.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode one batch of rows into a sorted run of its own.
    pub fn from_rows(schema: &Schema, rows: &[(Rid, Row)], spec: &IndexSpec) -> IndexResult<Self> {
        let mut entries = encode_entries(schema, rows, spec)?;
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(SortedRun { entries })
    }

    /// Number of entries in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the run holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge two sorted runs into one, in linear time, leaving both intact.
    #[must_use]
    pub fn merge(&self, other: &SortedRun) -> SortedRun {
        self.clone().into_merged(other)
    }

    /// Merge `other` into this run, in linear time: this run's entries are
    /// moved, only `other`'s are cloned.  On equal keys this run's entry
    /// comes first.
    #[must_use]
    pub fn into_merged(self, other: &SortedRun) -> SortedRun {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let mut incoming = other.entries.iter().peekable();
        for entry in self.entries {
            while let Some(before) = incoming.next_if(|x| x.0 < entry.0) {
                out.push(before.clone());
            }
            out.push(entry);
        }
        out.extend(incoming.cloned());
        SortedRun { entries: out }
    }
}

fn encode_leaf_record(
    schema: &Schema,
    stored_indexes: &[usize],
    row: &Row,
    rid: Rid,
    kind: IndexKind,
) -> IndexResult<Vec<u8>> {
    let bitmap_len = stored_indexes.len().div_ceil(8);
    let mut out = vec![0u8; bitmap_len];
    for (pos, &i) in stored_indexes.iter().enumerate() {
        if row.value(i).is_null() {
            out[pos / 8] |= 1 << (pos % 8);
        }
    }
    for &i in stored_indexes {
        encode_cell(row.value(i), &schema.column_at(i).datatype, &mut out)?;
    }
    if kind == IndexKind::NonClustered {
        out.extend_from_slice(&rid.encode());
    }
    Ok(out)
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
    use proptest::prelude::*;
    use samplecf_storage::{Column, DataType, TableBuilder};

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

    #[test]
    fn excluding_a_batch_equals_a_fold_merge_of_the_others() {
        let t = table(900);
        let spec = IndexSpec::nonclustered("i", ["name", "id"]).unwrap();
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let batches: Vec<SortedRun> = rows
            .chunks(250)
            .map(|c| SortedRun::from_rows(t.schema(), c, &spec).unwrap())
            .collect();
        let all = fold_merge(&batches);
        let builder = IndexBuilder::new().page_size(512);
        for skip in 0..batches.len() {
            let partial = fold_merge(all_but(&batches, skip));
            assert_eq!(partial.len(), all.len() - batches[skip].len());
            let merged = builder
                .build_from_sorted_run(t.schema(), &spec, &partial)
                .unwrap();
            let excluded = builder
                .build_from_sorted_run_excluding(t.schema(), &spec, &all, &batches[skip])
                .unwrap();
            assert_eq!(excluded.num_entries(), partial.len());
            assert_trees_identical(&merged, &excluded);
        }
        // An empty run builds the empty single-leaf tree, and so does a run
        // with everything excluded; excluding nothing changes nothing.
        let empty = builder
            .build_from_sorted_run(t.schema(), &spec, &SortedRun::new())
            .unwrap();
        assert_eq!(empty.num_entries(), 0);
        assert!(SortedRun::new().is_empty());
        let nothing_left = builder
            .build_from_sorted_run_excluding(t.schema(), &spec, &all, &all)
            .unwrap();
        assert_trees_identical(&empty, &nothing_left);
        let whole = builder
            .build_from_sorted_run(t.schema(), &spec, &all)
            .unwrap();
        let nothing_excluded = builder
            .build_from_sorted_run_excluding(t.schema(), &spec, &all, &SortedRun::new())
            .unwrap();
        assert_trees_identical(&whole, &nothing_excluded);
    }

    #[test]
    fn excluding_a_run_that_is_not_part_of_the_run_is_a_typed_error() {
        let t = table(600);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let rows: Vec<(Rid, Row)> = t.scan().collect();
        let run = |rows: &[(Rid, Row)]| SortedRun::from_rows(t.schema(), rows, &spec).unwrap();
        let (first, second) = (run(&rows[..200]), run(&rows[200..400]));
        let pooled = first.merge(&second);
        let builder = IndexBuilder::new();
        let exclude = |excluded: &SortedRun| {
            builder
                .build_from_sorted_run_excluding(t.schema(), &spec, &pooled, excluded)
                .map(|tree| tree.num_entries())
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
        /// batch `i` in the pooled run gives, byte for byte, the tree built
        /// from a merge of the other batches.
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
                let pooled = fold_merge(&runs);
                let serial = IndexBuilder::new().page_size(page_size);
                for skip in 0..batches {
                    let expected = serial
                        .build_from_sorted_run(t.schema(), &spec, &fold_merge(all_but(&runs, skip)))
                        .unwrap();
                    for builder in [serial, serial.threads(2)] {
                        let actual = builder
                            .build_from_sorted_run_excluding(t.schema(), &spec, &pooled, &runs[skip])
                            .unwrap();
                        assert_trees_identical(&expected, &actual);
                    }
                }
            }
        }
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
