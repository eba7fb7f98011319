//! The bulk loader's allocation shape, pinned rather than just timed.
//!
//! An index entry is bytes in one arena, not two `Vec`s: encoding, sorting
//! and merging a run cost a handful of allocations however many rows there
//! are; entries in key order — a held sample's, or a pooled run's minus one
//! batch — are sized by a walk that allocates per leaf page, not per entry
//! or per distinct value, whatever the number of schemes; under a
//! cell-additive scheme rows are summed into cell costs through one reused
//! entry buffer, and any sample — pooled, a stratum, all but one batch — is
//! priced by arithmetic that allocates nothing but its report; and a held
//! sample walked again through the key order it keeps allocates its arena
//! and no sort buffer.  A counting `#[global_allocator]` (this test binary
//! only) holds that shape in place — a per-entry `Vec` coming back shows up
//! here as tens of thousands of allocations, long before it shows up as a
//! slowdown.

use samplecf_compression::{CompressionScheme, NullSuppression, RunLengthEncoding};
use samplecf_index::{
    leaf_record_bytes, measure_index, BTreeIndex, IndexBuilder, IndexSpec, RunCellCosts, SortedRun,
};
use samplecf_storage::{Column, DataType, Rid, Row, RowCodec, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation of `bytes` bytes on this thread.
fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of const-initialised,
// destructor-free thread-local `Cell`s, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes the allocations (and reallocations) `f` makes on this thread ask
/// for.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
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
    rows_of(997)
}

/// `ROWS` rows over `distinct` names.
fn rows_of(distinct: usize) -> Vec<(Rid, Row)> {
    (0..ROWS)
        .map(|i| {
            let row = Row::new(vec![
                Value::str(format!("name{:04}", (i * 7919) % distinct)),
                Value::int(i as i64),
            ]);
            (Rid::new((i / 100) as u32, (i % 100) as u16), row)
        })
        .collect()
}

/// What a walk over `leaf_pages` leaves of `columns` stored columns may
/// allocate for `schemes` schemes that size a chunk without allocating.  Per
/// stored column: one buffer of cells per leaf, plus the list of them (and
/// one spare for the list of columns).  Per report: itself, its scheme's
/// name, its column list and a name per column.  A `Page` per leaf — or
/// anything per entry, or per distinct value — does not fit under it.
fn walk_allowance(leaf_pages: usize, columns: usize, schemes: usize) -> usize {
    assert!(leaf_pages >= 100, "the allowance must separate leaves");
    columns * (leaf_pages + 2) + schemes * (columns + 3)
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
fn a_delete_one_batch_walk_allocates_per_leaf_page_not_per_entry() {
    let (schema, rows) = (schema(), rows());
    let spec = IndexSpec::clustered("i", ["name"]).unwrap();
    let batch = SortedRun::from_rows(&schema, &rows[..ROWS / 10], &spec).unwrap();
    let rest = SortedRun::from_rows(&schema, &rows[ROWS / 10..], &spec).unwrap();
    let pooled = batch.merge(&rest);
    let builder = IndexBuilder::new().page_size(1024);
    let sizer = builder.sizer(&schema, &spec).unwrap();
    // RLE sizes a chunk without allocating, so the counts are the walk's.
    let scheme = RunLengthEncoding;

    // The route the walk replaced: pack the kept entries, measure the tree.
    let (packing, packed) = allocations(|| {
        let tree = builder
            .build_from_sorted_run(&schema, &spec, &rest)
            .unwrap();
        measure_index(&tree, &scheme).unwrap()
    });
    let (count, (walked, _)) =
        allocations(|| (sizer.measure_run(&pooled, Some(&batch), |_| true, &[&scheme])).unwrap());
    assert_eq!(walked, std::slice::from_ref(&packed));
    assert!(
        packed.leaf_pages * 20 < packed.num_entries,
        "the bound below must separate pages from entries"
    );
    let columns = packed.per_column.len();
    assert_eq!(columns, 2);
    assert!(
        count <= walk_allowance(packed.leaf_pages, columns, 1),
        "walk of {} entries on {} pages: {count} allocations",
        packed.num_entries,
        packed.leaf_pages
    );
    assert!(count < packing, "walk {count}, pack and measure {packing}");
}

#[test]
fn sizing_a_held_sample_allocates_per_leaf_page_whatever_the_schemes_and_distinct_values() {
    let schema = schema();
    let codec = RowCodec::new(schema.clone());
    let spec = IndexSpec::clustered("i", ["name"]).unwrap();
    let builder = IndexBuilder::new().page_size(1024);
    // Neither sizes a chunk by allocating, so the counts are the walk's.
    let schemes: [&dyn CompressionScheme; 2] = [&RunLengthEncoding, &NullSuppression];
    let walk_of = |distinct: usize| {
        let rows = rows_of(distinct);
        let encoded: Vec<Vec<u8>> = (rows.iter())
            .map(|(_, row)| codec.encode(row).unwrap())
            .collect();
        let records: Vec<(Rid, &[u8])> = (rows.iter().zip(&encoded))
            .map(|((rid, _), record)| (*rid, &record[..]))
            .collect();
        let ordered = builder.order_records(&schema, &records, &spec).unwrap();
        let (count, (reports, first_key)) = allocations(|| ordered.measure(&schemes).unwrap());
        assert_eq!((first_key.distinct, first_key.nulls), (distinct, 0));
        // The packed route, which builds a `Page` per leaf, is the oracle.
        let tree = builder.build_from_records(&schema, &records, &spec);
        for (report, scheme) in reports.iter().zip(schemes) {
            assert_eq!(
                report,
                &measure_index(tree.as_ref().unwrap(), scheme).unwrap()
            );
        }
        assert!(
            count <= walk_allowance(reports[0].leaf_pages, 2, schemes.len()),
            "{ROWS} entries, {distinct} distinct, on {} pages: {count} allocations",
            reports[0].leaf_pages
        );
        count
    };
    assert_eq!(walk_of(997), walk_of(9_973));
}

#[test]
fn a_measure_through_a_held_order_allocates_no_sort_buffer() {
    let (schema, rows) = (schema(), rows());
    let codec = RowCodec::new(schema.clone());
    let encoded: Vec<Vec<u8>> = (rows.iter())
        .map(|(_, row)| codec.encode(row).unwrap())
        .collect();
    let records: Vec<(Rid, &[u8])> = (rows.iter().zip(&encoded))
        .map(|((rid, _), record)| (*rid, &record[..]))
        .collect();
    let spec = IndexSpec::clustered("i", ["name"]).unwrap();
    let builder = IndexBuilder::new().page_size(1024);
    // The arena: one `[key | record]` entry per row, the key a `char(12)`
    // cell and the RID.
    let entry = 12 + Rid::ENCODED_LEN + leaf_record_bytes(&schema, &spec).unwrap();
    let arena = ROWS * entry;
    let (sorting, sorted) =
        allocated_bytes(|| builder.order_records(&schema, &records, &spec).unwrap());
    let held = Arc::clone(sorted.key_order());
    let (walking, reused) =
        allocated_bytes(|| (builder.encode_in_order(&schema, &records, &spec, held)).unwrap());
    // Beyond its arena, the walk through a held order allocates less than
    // the bare `u32` permutation would take — let alone the sort's
    // `(prefix, entry)` pairs the sorting call pays for.
    assert!(walking >= arena, "{walking} bytes, an arena of {arena}");
    assert!(
        walking - arena < ROWS * std::mem::size_of::<u32>(),
        "{} bytes beside the arena",
        walking - arena
    );
    let sort_buffers = ROWS * (std::mem::size_of::<(u64, u32)>() + std::mem::size_of::<u32>());
    assert!(sorting - walking >= sort_buffers, "{sorting} vs {walking}");
    let schemes: [&dyn CompressionScheme; 2] = [&RunLengthEncoding, &NullSuppression];
    assert_eq!(
        reused.measure(&schemes).unwrap(),
        sorted.measure(&schemes).unwrap()
    );
}

#[test]
fn summing_cell_costs_allocates_one_buffer_whatever_the_rows() {
    let schema = schema();
    let spec = IndexSpec::clustered("i", ["name"]).unwrap();
    let sizer = IndexBuilder::new().sizer(&schema, &spec).unwrap();
    let costs = NullSuppression.cell_costs().expect("cell-additive");
    // Four groups, as a batch's rows go to their strata.
    let summed = |rows: &[(Rid, Row)]| {
        let mut sums = vec![sizer.empty_cell_costs(); 4];
        let (count, added) =
            allocations(|| sizer.add_cell_costs(rows, &costs, &mut sums, |i| i % 4));
        added.unwrap();
        let entries: usize = sums.iter().map(RunCellCosts::entries).sum();
        assert_eq!(entries, rows.len());
        count
    };
    for distinct in [10, 5_000] {
        let rows = rows_of(distinct);
        for n in [ROWS / 10, ROWS] {
            let count = summed(&rows[..n]);
            assert_eq!(
                count, 1,
                "{n} rows, {distinct} distinct: {count} allocations"
            );
        }
    }
}

#[test]
fn pricing_a_checkpoint_or_a_leave_one_out_allocates_only_its_report() {
    let (schema, rows) = (schema(), rows());
    let spec = IndexSpec::clustered("i", ["name"]).unwrap();
    let builder = IndexBuilder::new().page_size(1024);
    let sizer = builder.sizer(&schema, &spec).unwrap();
    let costs = NullSuppression.cell_costs().expect("cell-additive");
    let batches: Vec<&[(Rid, Row)]> = rows.chunks(ROWS / 8).collect();
    let mut sums = vec![sizer.empty_cell_costs(); batches.len()];
    for (batch, sum) in batches.iter().zip(&mut sums) {
        let sum = std::slice::from_mut(sum);
        sizer.add_cell_costs(batch, &costs, sum, |_| 0).unwrap();
    }
    let mut pooled = sizer.empty_cell_costs();
    sums.iter().for_each(|sum| pooled.merge(sum));
    // The report's scheme name, its column list and a name per column.
    let report = 2 + 2;
    let packed = |rows: &[(Rid, Row)]| {
        let tree = builder.build_from_rows(&schema, rows, &spec).unwrap();
        measure_index(&tree, &NullSuppression).unwrap()
    };

    let price = |excluded| sizer.price(&NullSuppression, &costs, &pooled, excluded);
    let (count, checkpoint) = allocations(|| price(None).unwrap());
    assert_eq!(count, report, "a checkpoint");
    assert_eq!(checkpoint, packed(&rows));
    for (skip, batch) in sums.iter().enumerate() {
        let (count, left_out) = allocations(|| price(Some(batch)).unwrap());
        assert_eq!(count, report, "leaving out batch {skip}");
        let others = [&batches[..skip], &batches[skip + 1..]].concat().concat();
        assert_eq!(left_out, packed(&others));
    }
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
