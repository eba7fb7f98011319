//! What a row-level draw yields and what it costs.
//!
//! The row-position stream (uniform, Bernoulli, reservoir and stratified kinds) fetches verified pages
//! — held in a [`PageCache`] for the stream's later batches, lent from a run read by
//! its last — and checks only the drawn slots.  These tests pin
//! the two halves of that contract: the draw is what its position sequence
//! says (every yielded `(rid, row)` is the record at `rid` decoded, RID-sorted within
//! a batch, one physical read per distinct page, the rows at the positions
//! a plain `gen_range` loop / `index::sample` (after a binomial count, for
//! Bernoulli; capped at its size, for a reservoir) names, seed-for-seed, over
//! a `Table` in memory and in a file alike), and the check is
//! lazy (a malformed record only fails the draw that asks for its slot, a
//! bad rid or a failed read comes back as the storage layer's typed error).

use rand::rngs::StdRng;
use rand::seq::index;
use rand::{Rng, SeedableRng};
use samplecf_sampling::{
    bernoulli_size, fetch_positions_coalesced, Allocation, BatchSchedule, CountingSource,
    PageCache, RecordBatch, SampledRow, SamplerKind, SamplingError, StrataMode,
};
use samplecf_storage::{
    Frame, Page, PageId, Rid, Row, RowCodec, Schema, StorageError, StorageResult, Table,
    TableBuilder, TableSource, Value,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn row(i: usize) -> Row {
    Row::new(vec![Value::str(format!("v{i:06}"))])
}

fn table(n: usize) -> Table {
    TableBuilder::new("t", Schema::single_char("a", 32))
        .page_size(512)
        .build_with_rows((0..n).map(row))
        .unwrap()
}

/// Removes the table file when the test ends, pass or fail.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn drain_batches(
    kind: SamplerKind,
    schedule: BatchSchedule,
    source: &dyn TableSource,
    seed: u64,
) -> Vec<Vec<SampledRow>> {
    let mut stream = kind.stream(schedule).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    loop {
        let batch = stream.next_batch(source, &mut rng).unwrap();
        if batch.is_empty() {
            return batches;
        }
        batches.push(batch);
    }
}

/// The row stored at `rid`: its page read, its record decoded.
fn row_at(source: &dyn TableSource, rid: Rid) -> Row {
    let page = source.read_page_ref(rid.page).unwrap();
    source.codec().decode(page.get(rid.slot).unwrap()).unwrap()
}

/// The rows at `positions` of the frame, in position order, one page read
/// each — what a coalesced fetch of them must return.
fn rows_at(source: &dyn TableSource, mut positions: Vec<usize>) -> Vec<SampledRow> {
    let frame = Frame::of(source);
    positions.sort_unstable();
    (positions.iter())
        .map(|&p| (frame.rid(p), row_at(source, frame.rid(p))))
        .collect()
}

fn sorted(mut rows: Vec<SampledRow>) -> Vec<SampledRow> {
    rows.sort_by_key(|(rid, _)| *rid);
    rows
}

#[test]
fn draws_are_identical_and_decodes_are_lazy() {
    let memory = table(3_000);
    let file = TempFile(
        std::env::temp_dir().join(format!("samplecf_row_draws_{}.scf", std::process::id())),
    );
    let disk = Table::materialize(&file.0, &memory).unwrap();
    let sources: [&dyn TableSource; 2] = [&memory, &disk];
    // Each kind with the positions its one-shot draw names: a `gen_range`
    // loop with replacement, `index::sample` without (a reservoir of 150
    // rows too), and for Bernoulli `index::sample` of as many positions as
    // the binomial count names on the same RNG; the stratified draw's
    // oracle is its own one-batch drain (the proptests pin k = 1 to
    // uniform-wr).
    let with_replacement: Vec<usize> = {
        let mut rng = StdRng::seed_from_u64(11);
        (0..150).map(|_| rng.gen_range(0..3_000)).collect()
    };
    let without = index::sample(&mut StdRng::seed_from_u64(11), 3_000, 150).into_vec();
    let bernoulli = {
        let mut rng = StdRng::seed_from_u64(11);
        let size = bernoulli_size(3_000, 0.05, &mut rng);
        index::sample(&mut rng, 3_000, size).into_vec()
    };
    let kinds = [
        (
            SamplerKind::UniformWithReplacement(0.05),
            Some(with_replacement),
        ),
        (
            SamplerKind::UniformWithoutReplacement(0.05),
            Some(without.clone()),
        ),
        (SamplerKind::Reservoir(150), Some(without)),
        (SamplerKind::Bernoulli(0.05), Some(bernoulli)),
        (
            SamplerKind::Stratified {
                fraction: 0.05,
                strata: 4,
                alloc: Allocation::Proportional,
                mode: StrataMode::EquiWidth,
            },
            None,
        ),
    ];
    let schedules = [
        BatchSchedule::one_shot(),
        BatchSchedule::default(),
        BatchSchedule::new(0.001, 1.3).unwrap(),
        BatchSchedule::new(0.02, 4.0).unwrap(),
    ];
    for source in sources {
        for (kind, positions) in &kinds {
            let kind = *kind;
            let oneshot = match positions {
                Some(positions) => rows_at(source, positions.clone()),
                None => drain_batches(kind, BatchSchedule::one_shot(), source, 11).concat(),
            };
            assert_eq!(oneshot.len(), positions.as_ref().map_or(150, Vec::len));
            for schedule in schedules {
                let counting = CountingSource::new(source);
                let batches = drain_batches(kind, schedule, &counting, 11);
                for batch in &batches {
                    // RID-sorted, duplicates adjacent.
                    assert!(batch.windows(2).all(|w| w[0].0 <= w[1].0));
                    for (rid, row) in batch {
                        assert_eq!(row, &row_at(source, *rid), "{rid}");
                    }
                }
                let drawn: Vec<SampledRow> = batches.concat();
                let distinct_pages: BTreeSet<PageId> =
                    drawn.iter().map(|(rid, _)| rid.page).collect();
                assert_eq!(counting.pages_read(), distinct_pages.len() as u64);
                if schedule == BatchSchedule::one_shot() {
                    assert_eq!(drawn, oneshot, "one batch is the one-shot draw, in order");
                } else {
                    assert!(batches.len() > 1);
                    assert_eq!(sorted(drawn), sorted(oneshot.clone()));
                }
            }
        }
    }
}

/// A source over hand-built pages, so a test can plant a malformed record
/// or make the next physical read fail.
struct PagesSource {
    codec: RowCodec,
    pages: Vec<Page>,
    fail_next_read: AtomicBool,
    reads: AtomicU64,
}

impl PagesSource {
    /// A full page of good rows, then a page of five good rows and, in
    /// slot 5, a record of the wrong length — laid out as the frame says,
    /// so position `i` holds `row(i)`.
    fn with_a_malformed_record() -> Self {
        let codec = RowCodec::new(Schema::single_char("a", 32));
        let mut pages = vec![Page::new(0, 512).unwrap(), Page::new(1, 512).unwrap()];
        let mut i = 0;
        while let Some(_slot) = pages[0].insert(&codec.encode(&row(i)).unwrap()).unwrap() {
            i += 1;
        }
        for i in i..i + 5 {
            pages[1]
                .insert(&codec.encode(&row(i)).unwrap())
                .unwrap()
                .unwrap();
        }
        pages[1].insert(b"torn").unwrap().unwrap();
        PagesSource {
            codec,
            pages,
            fail_next_read: AtomicBool::new(false),
            reads: AtomicU64::new(0),
        }
    }
}

impl TableSource for PagesSource {
    fn name(&self) -> &str {
        "pages"
    }

    fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    fn codec(&self) -> &RowCodec {
        &self.codec
    }

    fn num_rows(&self) -> usize {
        self.pages.iter().map(|p| usize::from(p.slot_count())).sum()
    }

    fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_size(&self) -> usize {
        512
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.fail_next_read.swap(false, Ordering::Relaxed) {
            return Err(StorageError::Io(format!("reading page {id}: injected")));
        }
        self.pages
            .get(id as usize)
            .cloned()
            .ok_or(StorageError::InvalidRid { page: id, slot: 0 })
    }
}

#[test]
fn a_malformed_record_only_fails_the_draw_that_asks_for_it() {
    let source = PagesSource::with_a_malformed_record();
    let frame = Frame::of(&source);
    let per_page = frame.rows_per_page();
    assert_eq!(frame.len(), per_page + 6);
    let reads_before = source.reads.load(Ordering::Relaxed);
    let mut cache = PageCache::new();
    // Positions per_page.. are the good rows of the page holding the torn
    // record.
    let (first, last) = (per_page, per_page + 4);
    let mut batch = RecordBatch::new(source.codec());
    fetch_positions_coalesced(
        &source,
        frame,
        vec![last, 0, first, last],
        &mut cache,
        true,
        &mut batch,
    )
    .unwrap();
    let expected: Vec<SampledRow> = [0, first, last, last]
        .iter()
        .map(|&i| (frame.rid(i), row(i)))
        .collect();
    assert_eq!(batch.decode(source.codec()).unwrap(), expected);
    // Drawing the torn slot itself is the codec's error, not a panic.
    let mut batch = RecordBatch::new(source.codec());
    let torn = vec![first, last + 1];
    let err =
        fetch_positions_coalesced(&source, frame, torn, &mut cache, true, &mut batch).unwrap_err();
    assert!(
        matches!(err, SamplingError::Storage(StorageError::Decode(_))),
        "{err:?}"
    );
    assert_eq!(cache.pages_cached(), 2);
    assert_eq!(source.reads.load(Ordering::Relaxed) - reads_before, 2);
}

#[test]
fn a_last_batch_reads_each_page_once_and_keeps_none() {
    let source = PagesSource::with_a_malformed_record();
    let frame = Frame::of(&source);
    let per_page = frame.rows_per_page();
    let reads = || source.reads.load(Ordering::Relaxed);
    // An earlier batch kept page 0.
    let mut cache = PageCache::new();
    let mut batch = RecordBatch::new(source.codec());
    fetch_positions_coalesced(&source, frame, vec![1], &mut cache, true, &mut batch).unwrap();
    assert_eq!((cache.pages_cached(), reads()), (1, 1));
    // The last batch reads page 0 from the cache and page 1 once, through
    // its slot, without keeping it.
    let positions = vec![per_page + 4, 0, per_page, 2, per_page + 4];
    let expected: Vec<SampledRow> = [0, 2, per_page, per_page + 4, per_page + 4]
        .iter()
        .map(|&i| (frame.rid(i), row(i)))
        .collect();
    for (held, reads_paid) in [(cache, 1), (PageCache::new(), 2)] {
        let mut held = held;
        let (kept, before) = (held.pages_cached(), reads());
        let mut batch = RecordBatch::new(source.codec());
        fetch_positions_coalesced(
            &source,
            frame,
            positions.clone(),
            &mut held,
            false,
            &mut batch,
        )
        .unwrap();
        assert_eq!(batch.decode(source.codec()).unwrap(), expected);
        assert_eq!(reads() - before, reads_paid);
        assert_eq!(held.pages_cached(), kept);
    }
    // The torn slot is still the codec's error.
    let mut batch = RecordBatch::new(source.codec());
    let torn = vec![per_page, per_page + 5];
    let err = fetch_positions_coalesced(
        &source,
        frame,
        torn,
        &mut PageCache::new(),
        false,
        &mut batch,
    )
    .unwrap_err();
    assert!(
        matches!(err, SamplingError::Storage(StorageError::Decode(_))),
        "{err:?}"
    );
}

#[test]
fn a_slot_past_the_page_is_the_storage_layers_invalid_rid() {
    let t = table(100);
    let (frame, last) = (Frame::of(&t), t.num_pages() - 1);
    let slots = t.read_page_ref(last as PageId).unwrap().slot_count();
    assert!(
        usize::from(slots) < frame.rows_per_page(),
        "the last page has room"
    );
    // A frame that counts the last page full has a position at each slot
    // past its records.
    let source = Overcounted {
        inner: &t,
        rows: t.num_pages() * frame.rows_per_page(),
    };
    let at = frame.rows_before(last) + usize::from(slots);
    let fetch = |position: usize| {
        let mut batch = RecordBatch::new(t.codec());
        let (full, mut cache) = (Frame::of(&source), PageCache::new());
        fetch_positions_coalesced(&source, full, vec![position], &mut cache, true, &mut batch)
    };
    assert!(fetch(at - 1).is_ok());
    assert_eq!(
        fetch(at).unwrap_err(),
        SamplingError::Storage(StorageError::InvalidRid {
            page: last as PageId,
            slot: slots
        })
    );
}

#[test]
fn a_failed_page_read_is_not_cached_so_a_retry_reads_again() {
    let source = PagesSource::with_a_malformed_record();
    let frame = Frame::of(&source);
    let mut cache = PageCache::new();
    let mut batch = RecordBatch::new(source.codec());
    let mut fetch = |position: usize, cache: &mut PageCache| {
        fetch_positions_coalesced(&source, frame, vec![position], cache, true, &mut batch)
    };
    source.fail_next_read.store(true, Ordering::Relaxed);
    let err = fetch(2, &mut cache).unwrap_err();
    assert!(
        matches!(err, SamplingError::Storage(StorageError::Io(_))),
        "{err:?}"
    );
    assert_eq!(cache.pages_cached(), 0);
    assert_eq!(cache.bytes_cached(), 0);
    // The retry pays a second physical read and succeeds; a third fetch
    // from the same page is served from the cache.
    fetch(2, &mut cache).unwrap();
    fetch(4, &mut cache).unwrap();
    assert!(batch.len() == 2, "the failed fetch appended nothing");
    let rows: Vec<Row> = (batch.decode(source.codec()).unwrap().into_iter())
        .map(|(_, row)| row)
        .collect();
    assert_eq!(rows, [row(2), row(4)]);
    assert_eq!(source.reads.load(Ordering::Relaxed), 2);
    assert_eq!(cache.bytes_cached(), 512);
}

/// A table that reports more rows than its pages hold — what a file header
/// whose counts disagree would say, had `Table::open` not refused it.
struct Overcounted<'a> {
    inner: &'a Table,
    rows: usize,
}

impl TableSource for Overcounted<'_> {
    fn name(&self) -> &str {
        "overcounted"
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn codec(&self) -> &RowCodec {
        self.inner.codec()
    }

    fn num_rows(&self) -> usize {
        self.rows
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.inner.read_page(id)
    }
}

#[test]
fn a_row_draw_over_counts_that_disagree_is_a_typed_invalid_rid() {
    let t = table(100);
    let source = Overcounted {
        inner: &t,
        rows: 4 * Frame::of(&t).rows_per_page() * t.num_pages(),
    };
    for kind in [
        SamplerKind::UniformWithReplacement(0.5),
        SamplerKind::UniformWithoutReplacement(0.5),
        SamplerKind::Stratified {
            fraction: 0.5,
            strata: 4,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiDepth,
        },
    ] {
        let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
        let err = (stream.next_records(&source, &mut StdRng::seed_from_u64(1))).unwrap_err();
        match err {
            SamplingError::Storage(StorageError::InvalidRid { page, slot }) => {
                let rid = Rid::new(page, slot);
                let record = t
                    .read_page_ref(rid.page)
                    .map(|page| page.get(rid.slot).is_ok());
                assert!(!record.unwrap_or(false), "{kind:?}: {rid} is a row");
            }
            other => panic!("{kind:?}: expected InvalidRid, got {other:?}"),
        }
    }
}
