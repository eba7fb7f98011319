//! The bulk loader's allocation shape, pinned rather than just timed.
//!
//! An index entry is bytes in one arena, not two `Vec`s: encoding, sorting
//! and merging a run cost a handful of allocations however many rows there
//! are, and a delete-one-batch build allocates per leaf page, not per
//! entry.  A counting `#[global_allocator]` (this test binary only) holds
//! that shape in place — a per-entry `Vec` coming back shows up here as
//! tens of thousands of allocations, long before it shows up as a slowdown.

use samplecf_index::{BTreeIndex, IndexBuilder, IndexSpec, SortedRun};
use samplecf_storage::{Column, DataType, Rid, Row, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's, under the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const ROWS: usize = 10_000;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("name", DataType::Char(12)),
        Column::new("id", DataType::Int64),
    ])
    .unwrap()
}

fn rows() -> Vec<(Rid, Row)> {
    (0..ROWS)
        .map(|i| {
            let row = Row::new(vec![
                Value::str(format!("name{:04}", (i * 7919) % 997)),
                Value::int(i as i64),
            ]);
            (Rid::new((i / 100) as u32, (i % 100) as u16), row)
        })
        .collect()
}

#[test]
fn encoding_and_sorting_a_run_allocates_a_handful_of_times_not_per_row() {
    let (schema, rows) = (schema(), rows());
    for spec in [
        IndexSpec::nonclustered("i", ["name"]).unwrap(),
        IndexSpec::clustered("i", ["id"]).unwrap(),
    ] {
        let (count, run) = allocations(|| SortedRun::from_rows(&schema, &rows, &spec).unwrap());
        assert_eq!(run.len(), ROWS);
        assert!(
            count <= 16,
            "from_rows over {ROWS} rows: {count} allocations"
        );
    }
}

#[test]
fn merging_runs_allocates_the_merged_arena_and_nothing_per_entry() {
    let (schema, rows) = (schema(), rows());
    let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
    let (evens, odds): (Vec<_>, Vec<_>) =
        rows.iter().cloned().partition(|(rid, _)| rid.slot % 2 == 0);
    let evens = SortedRun::from_rows(&schema, &evens, &spec).unwrap();
    let odds = SortedRun::from_rows(&schema, &odds, &spec).unwrap();

    // The one-shot estimator's "merge": the first batch into an empty run.
    let (count, pooled) = allocations(|| SortedRun::new().into_merged(&evens));
    assert_eq!(pooled.len(), evens.len());
    assert!(count <= 4, "merging into an empty run: {count} allocations");
    let (count, pooled) = allocations(|| pooled.into_merged(&odds));
    assert_eq!(pooled.len(), ROWS);
    assert!(
        count <= 4,
        "merging two interleaved runs: {count} allocations"
    );
    // Nothing to merge in: the accumulator is moved, not copied.
    let (count, pooled) = allocations(|| pooled.into_merged(&SortedRun::new()));
    assert_eq!((count, pooled.len()), (0, ROWS));
}

#[test]
fn a_delete_one_batch_build_allocates_per_leaf_page_not_per_entry() {
    let (schema, rows) = (schema(), rows());
    let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
    let batch = SortedRun::from_rows(&schema, &rows[..ROWS / 10], &spec).unwrap();
    let rest = SortedRun::from_rows(&schema, &rows[ROWS / 10..], &spec).unwrap();
    let pooled = batch.merge(&rest);
    let builder = IndexBuilder::new().page_size(1024);

    let (count, tree) = allocations(|| {
        builder
            .build_from_sorted_run_excluding(&schema, &spec, &pooled, &batch)
            .unwrap()
    });
    assert_eq!(tree.num_entries(), ROWS - ROWS / 10);
    let pages = tree.num_leaf_pages() + tree.num_internal_pages();
    assert!(
        pages * 20 < tree.num_entries(),
        "the bound below must separate pages from entries"
    );
    // Per page: its buffer, its separator record, amortised `Vec` growth of
    // the level it sits on.  Per build: the kept slices, layout, metadata.
    assert!(
        count <= 3 * pages + 48,
        "excluding build of {} entries on {pages} pages: {count} allocations",
        tree.num_entries()
    );
}

#[test]
fn a_sample_sized_build_stays_on_the_calling_thread_at_any_thread_count() {
    // The counter is per thread: a load that fanned out would allocate its
    // arena chunks and leaf pages where this thread's count cannot see them.
    let (schema, rows) = (schema(), rows());
    let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
    let build = |threads: usize, rows: &[(Rid, Row)]| {
        let builder = IndexBuilder::new().threads(threads);
        allocations(|| builder.build_from_rows(&schema, rows, &spec).unwrap())
    };
    let same_leaves = |a: &BTreeIndex, b: &BTreeIndex| {
        a.leaf_pages().len() == b.leaf_pages().len()
            && (a.leaf_pages().iter().zip(b.leaf_pages())).all(|(x, y)| x.raw() == y.raw())
    };

    let (inline, serial) = build(1, &rows);
    // (Not 0: asking the OS for the core count allocates by itself.)
    for threads in [2, 4, 16] {
        let (count, tree) = build(threads, &rows);
        assert_eq!(count, inline, "{ROWS} rows at {threads} threads fanned out");
        assert!(same_leaves(&tree, &serial));
    }

    // One worker per `MIN_ENTRIES_PER_WORKER` entries: from two workers'
    // worth on, the pages are filled elsewhere — into the same bytes.
    let big: Vec<(Rid, Row)> = (rows.iter().cycle())
        .take(2 * IndexBuilder::MIN_ENTRIES_PER_WORKER)
        .cloned()
        .collect();
    let (inline, serial) = build(1, &big);
    let (split, tree) = build(2, &big);
    assert!(inline > serial.num_leaf_pages());
    assert!(
        split + serial.num_leaf_pages() <= inline + 64,
        "two workers' worth of entries did not fan out: {split} vs {inline} allocations"
    );
    assert!(same_leaves(&tree, &serial));
}
