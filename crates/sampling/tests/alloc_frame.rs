//! A row draw allocates nothing proportional to the table.
//!
//! The sampling frame is arithmetic (`Frame`): binding a row-position
//! stream reads no page and builds no list of RIDs, strata are ranges of
//! frame positions, and the drawn positions map to RIDs one at a time.  So
//! the largest single allocation of a 0.1% draw from a 200 000-row table is
//! sized by the sample and the pages it touches — never by `n`.  A
//! counting `#[global_allocator]` (this test binary only) holds that in
//! place: a materialised frame of `n` RIDs coming back shows up here as one
//! allocation of `n × size_of::<Rid>()` bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_sampling::{Allocation, BatchSchedule, SamplerKind, StrataMode};
use samplecf_storage::{Column, DataType, Rid, Row, Schema, TableBuilder, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// last reset (tests run on threads of their own).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(bytes)));
}

struct Largest;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an update of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's, under the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

#[test]
fn a_row_draw_allocates_nothing_the_size_of_the_table() {
    const ROWS: usize = 200_000;
    let schema = Schema::new(vec![Column::new("a", DataType::Int64)]).unwrap();
    let table = TableBuilder::new("t", schema)
        .build_with_rows((0..ROWS).map(|i| Row::new(vec![Value::int(i as i64)])))
        .unwrap();
    let frame_bytes = ROWS * std::mem::size_of::<Rid>();
    for kind in [
        SamplerKind::UniformWithReplacement(0.001),
        SamplerKind::UniformWithoutReplacement(0.001),
        SamplerKind::Stratified {
            fraction: 0.001,
            strata: 16,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiWidth,
        },
    ] {
        let mut stream = kind.stream(BatchSchedule::one_shot()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (largest, batch) =
            largest_allocation(|| stream.next_records(&table, &mut rng).unwrap());
        assert_eq!(batch.len(), ROWS / 1_000, "{kind:?}");
        assert!(
            largest < frame_bytes,
            "{kind:?}: one allocation of {largest} bytes, a frame of {ROWS} RIDs is {frame_bytes}"
        );
    }
}
