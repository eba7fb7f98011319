//! A row draw allocates nothing proportional to the table, and holds its
//! rows, not the table's pages.
//!
//! The sampling frame is arithmetic (`Frame`): binding a row-position
//! stream reads no page and builds no list of RIDs, strata are ranges of
//! frame positions, and the drawn positions map to RIDs one at a time.  So
//! the largest single allocation of a 0.1% draw from a 200 000-row table is
//! sized by the sample and the pages it touches — never by `n`.  And a page
//! is held only while a later batch of the same stream can need it: a
//! one-shot draw has one run of at most four pages in flight, and a stream
//! at its cap holds none.  A counting `#[global_allocator]` (this test binary only) holds
//! both in place: a materialised frame of `n` RIDs coming back shows up as
//! one allocation of `n × size_of::<Rid>()` bytes, and a draw that keeps
//! every page it touches as a live-heap high-water mark of hundreds of
//! pages.

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_sampling::{
    Allocation, BatchSchedule, IncrementalFisherYates, RecordBatch, SamplerKind, StrataMode,
};
use samplecf_storage::{Column, DataType, Rid, Row, Schema, Table, TableBuilder, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// last reset (tests run on threads of their own).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, since the last reset
    /// (negative when it frees what it allocated before).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest [`LIVE`] since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(grown: usize, shrunk: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(grown)));
    let live = LIVE.with(|live| {
        live.set(live.get() + grown as isize - shrunk as isize);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an update of const-initialised,
// destructor-free thread-local `Cell`s, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's, under the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` did to this thread's heap: its largest single allocation, the
/// high-water mark of its live bytes, and the live bytes it left behind
/// (what its result and anything it grew still hold).
struct Heap {
    largest: usize,
    peak: isize,
    left: isize,
}

fn measured<T>(f: impl FnOnce() -> T) -> (Heap, T) {
    LARGEST.with(|largest| largest.set(0));
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let out = f();
    let heap = Heap {
        largest: LARGEST.with(Cell::get),
        peak: PEAK.with(Cell::get),
        left: LIVE.with(Cell::get),
    };
    (heap, out)
}

const ROWS: usize = 200_000;

fn table() -> Table {
    let schema = Schema::new(vec![Column::new("a", DataType::Int64)]).unwrap();
    TableBuilder::new("t", schema)
        .build_with_rows((0..ROWS).map(|i| Row::new(vec![Value::int(i as i64)])))
        .unwrap()
}

/// Every row-position kind drawing `fraction` of the table's rows: a
/// reservoir of that many rows is uniform-wor at that cap.
fn row_kinds(fraction: f64) -> [SamplerKind; 4] {
    [
        SamplerKind::UniformWithReplacement(fraction),
        SamplerKind::UniformWithoutReplacement(fraction),
        SamplerKind::Reservoir((ROWS as f64 * fraction).round() as usize),
        SamplerKind::Stratified {
            fraction,
            strata: 16,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiWidth,
        },
    ]
}

#[test]
fn a_row_draw_allocates_nothing_the_size_of_the_table() {
    let table = table();
    let frame_bytes = ROWS * std::mem::size_of::<Rid>();
    for kind in row_kinds(0.001) {
        let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (heap, batch) = measured(|| stream.next_records(&table, &mut rng).unwrap());
        assert_eq!(batch.len(), ROWS / 1_000, "{kind:?}");
        assert!(
            heap.largest < frame_bytes,
            "{kind:?}: one allocation of {} bytes, a frame of {ROWS} RIDs is {frame_bytes}",
            heap.largest
        );
    }
}

/// Removes the table file when the test ends, pass or fail.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_row_draw_holds_its_rows_not_the_tables_pages() {
    // A file table, so every page read is a page-sized allocation.
    let file = TempFile(
        std::env::temp_dir().join(format!("samplecf_alloc_pages_{}.scf", std::process::id())),
    );
    let table = Table::materialize(&file.0, &table()).unwrap();
    let page = table.page_size();
    assert!(table.num_pages() > 250, "{} pages", table.num_pages());
    // What a draw may hold besides its sample: the page in flight and the
    // one read in its place, with room for allocator rounding.
    let few_pages = 4 * page as isize;
    // The sample's own bytes: its records and rids as drawn, and the slots
    // a without-replacement shuffle keeps for a deepening (two words each;
    // its hash table holds about twice that).  The positions a batch sorts
    // are of the same order, so a draw may hold three times as much at its
    // peak, and a drained stream with its batches twice.  Holding every
    // page a 1% draw touches is hundreds of pages.
    let kept = |kind: SamplerKind, batches: &[RecordBatch]| {
        let rows: usize = batches.iter().map(RecordBatch::len).sum();
        let slots = match kind {
            SamplerKind::UniformWithoutReplacement(_) | SamplerKind::Reservoir(_) => {
                rows * 2 * std::mem::size_of::<usize>()
            }
            _ => 0,
        };
        (batches
            .iter()
            .map(RecordBatch::retained_bytes)
            .sum::<usize>()
            + slots) as isize
    };
    for kind in row_kinds(0.01) {
        // One shot: the one batch is the last, so one page is in flight.
        let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (heap, batch) = measured(|| stream.next_records(&table, &mut rng).unwrap());
        assert_eq!(batch.len(), ROWS / 100, "{kind:?}");
        let sample = kept(kind, std::slice::from_ref(&batch));
        assert!(
            heap.peak < 3 * sample + few_pages,
            "{kind:?}: a one-shot draw peaked at {} live bytes, its sample holds {sample}",
            heap.peak
        );

        // A progressive drain to the cap: earlier batches keep the pages
        // they read for the batches after them; the last drops them all.
        let schedule = BatchSchedule::new(0.001, 2.0).unwrap();
        let mut stream = kind.stream(schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (heap, batches) = measured(|| {
            let mut batches = Vec::new();
            loop {
                let batch = stream.next_records(&table, &mut rng).unwrap();
                if batch.is_empty() {
                    return batches;
                }
                batches.push(batch);
            }
        });
        assert!(batches.len() > 2, "{kind:?}: {} batches", batches.len());
        assert_eq!(
            batches.iter().map(RecordBatch::len).sum::<usize>(),
            ROWS / 100
        );
        let sample = kept(kind, &batches);
        assert!(
            heap.left < 2 * sample + few_pages,
            "{kind:?}: a drained stream and its batches hold {} live bytes, the sample {sample}",
            heap.left
        );
    }
}

#[test]
fn a_shuffle_is_priced_at_what_its_slot_map_holds() {
    // What a cached uniform-wor or block entry is charged for its live
    // stream: the shuffle's displaced-slot map, at no less than it holds
    // and at most half again.
    for drawn in [100, 2_000, 20_000] {
        let mut rng = StdRng::seed_from_u64(7);
        let (heap, shuffle) = measured(|| {
            let mut shuffle = IncrementalFisherYates::new(ROWS);
            for _ in 0..drawn {
                shuffle.next(&mut rng).unwrap();
            }
            shuffle
        });
        let (price, live) = (shuffle.retained_bytes() as isize, heap.left);
        assert!(
            live <= price && 2 * price <= 3 * live,
            "{drawn} drawn: priced at {price} bytes, holds {live}"
        );
    }
}
