//! Property-based tests for the stratified sampling family.
//!
//! Three contracts, each over arbitrary table shapes, stratum counts,
//! seeds and batch schedules:
//!
//! 1. **Partition exactness** — both [`Strata`] constructors produce
//!    contiguous page ranges that cover every page exactly once and whose
//!    row ranges cover every row exactly once, with weights summing to 1.
//! 2. **Single-stratum identity** — `stratified(k=1)` is byte-identical
//!    (same rows, same order, same pages) to `uniform-wr` seed-for-seed,
//!    under every batch schedule: uniform-wr is the one-stratum draw.
//! 3. **Prefix stability** — stopping a stratified stream at fraction `f₁`
//!    and resuming it to `f₂` via `extend_cap` yields the same multiset of
//!    rows as a fresh one-shot draw at `f₂` with the same seed; each of the
//!    two draws reads the distinct pages of its own rows once.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_sampling::{
    Allocation, BatchSchedule, CountingSource, SampledRow, SamplerKind, Strata, StrataMode,
};
use samplecf_storage::{Row, Schema, Table, TableBuilder, TableSource, Value};

/// A single-column table with value lengths that vary with the row index,
/// so equi-depth strata see genuinely uneven rows-per-page.
fn table(rows: usize, page_size: usize) -> Table {
    TableBuilder::new("t", Schema::single_char("a", 32))
        .page_size(page_size)
        .build_with_rows((0..rows).map(|i| {
            let len = 4 + (i * 7) % 24;
            Row::new(vec![Value::str(format!("{i:0len$}"))])
        }))
        .unwrap()
}

fn sorted(mut rows: Vec<SampledRow>) -> Vec<SampledRow> {
    rows.sort_by_key(|(rid, _)| *rid);
    rows
}

fn stratified_kind(f: f64, k: usize, alloc: Allocation, mode: StrataMode) -> SamplerKind {
    SamplerKind::Stratified {
        fraction: f,
        strata: k,
        alloc,
        mode,
    }
}

/// The distinct pages `rows` lie on.
fn distinct_pages(rows: &[SampledRow]) -> u64 {
    let pages: std::collections::BTreeSet<_> = rows.iter().map(|(rid, _)| rid.page).collect();
    pages.len() as u64
}

/// Check that `strata` is an exact partition of `source`'s pages and rows.
fn assert_exact_partition(strata: &Strata, source: &dyn TableSource, tag: &str) {
    let num_pages = source.num_pages();
    let num_rows = source.num_rows();
    if num_rows == 0 {
        assert!(strata.is_empty(), "{tag}: empty table must yield no strata");
        return;
    }
    assert!(!strata.is_empty(), "{tag}");
    assert!(strata.len() <= num_pages, "{tag}");

    // Page ranges: contiguous, non-empty, covering [0, P) in order.
    let mut next_page = 0usize;
    let mut next_row = 0usize;
    for s in 0..strata.len() {
        let pages = strata.page_range(s);
        let rows = strata.row_range(s);
        assert_eq!(pages.start, next_page, "{tag}: stratum {s} page start");
        assert!(pages.end > pages.start, "{tag}: stratum {s} has no pages");
        assert_eq!(rows.start, next_row, "{tag}: stratum {s} row start");
        assert_eq!(rows.end - rows.start, strata.rows(s), "{tag}: stratum {s}");
        next_page = pages.end;
        next_row = rows.end;
        // Every page of the range maps back to this stratum.
        for p in pages {
            #[allow(clippy::cast_possible_truncation)]
            let found = strata.stratum_of_page(p as u32);
            assert_eq!(found, s, "{tag}: page {p}");
        }
    }
    assert_eq!(next_page, num_pages, "{tag}: pages covered");
    assert_eq!(next_row, num_rows, "{tag}: rows covered");
    assert_eq!(strata.total_rows(), num_rows, "{tag}");
    let weight_sum: f64 = strata.weights().iter().sum();
    assert!((weight_sum - 1.0).abs() < 1e-9, "{tag}: Σw = {weight_sum}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_constructors_form_an_exact_partition(
        rows in 0usize..2500,
        count in 1usize..48,
        page_size_shift in 0u32..3,  // 512, 1024, 2048
    ) {
        let t = table(rows, 512 << page_size_shift);
        let width = Strata::equi_width(&t, count).unwrap();
        assert_exact_partition(&width, &t, "equi_width");
        let depth = Strata::equi_depth(&t, count).unwrap();
        assert_exact_partition(&depth, &t, "equi_depth");
        // Equi-depth strata are row-balanced up to page granularity: no
        // stratum exceeds the ideal share by more than one page of rows
        // (boundaries can only move in whole pages).
        if !depth.is_empty() {
            let mut page_rows = vec![0usize; t.num_pages()];
            for (rid, _) in t.scan_rows().unwrap() {
                page_rows[rid.page as usize] += 1;
            }
            let max_page_rows = page_rows.iter().copied().max().unwrap_or(0);
            let ideal = rows.div_ceil(depth.len());
            for s in 0..depth.len() {
                prop_assert!(
                    depth.rows(s) <= ideal + max_page_rows,
                    "equi-depth stratum {s} has {} rows; ideal {ideal} + page {max_page_rows}",
                    depth.rows(s)
                );
            }
        }
    }

    #[test]
    fn single_stratum_is_byte_identical_to_uniform_wr(
        rows in 50usize..1500,
        seed in 0u64..1000,
        fraction_pct in 1u32..40,
        initial_permille in 2u32..100,
        growth_tenths in 12u32..40,
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        let schedule =
            BatchSchedule::new(f64::from(initial_permille) / 1000.0, f64::from(growth_tenths) / 10.0)
                .unwrap();
        let t = table(rows, 1024);
        for alloc in [Allocation::Proportional, Allocation::Neyman] {
            for mode in [StrataMode::EquiWidth, StrataMode::EquiDepth] {
                let uni_counting = CountingSource::new(&t);
                let uni_rows = SamplerKind::UniformWithReplacement(fraction)
                    .stream(schedule)
                    .unwrap()
                    .drain(&uni_counting, &mut StdRng::seed_from_u64(seed))
                    .unwrap();

                let strat_counting = CountingSource::new(&t);
                let strat_rows = stratified_kind(fraction, 1, alloc, mode)
                    .stream(schedule)
                    .unwrap()
                    .drain(&strat_counting, &mut StdRng::seed_from_u64(seed))
                    .unwrap();

                // Byte-identical: same rows in the same order, same page reads.
                prop_assert_eq!(&strat_rows, &uni_rows, "alloc {:?} mode {:?}", alloc, mode);
                prop_assert_eq!(strat_counting.pages_read(), uni_counting.pages_read());
            }
        }
    }

    #[test]
    fn stop_then_resume_equals_the_one_shot_draw(
        rows in 50usize..1500,
        seed in 0u64..1000,
        shallow_pct in 1u32..15,
        deeper_extra_pct in 0u32..20,
        strata in 1usize..9,
        neyman in 0u32..2,
        equi_depth in 0u32..2,
        initial_permille in 2u32..100,
        growth_tenths in 12u32..40,
    ) {
        let f1 = f64::from(shallow_pct) / 100.0;
        let f2 = f64::from(shallow_pct + deeper_extra_pct) / 100.0;
        let alloc = if neyman == 1 { Allocation::Neyman } else { Allocation::Proportional };
        let mode = if equi_depth == 1 { StrataMode::EquiDepth } else { StrataMode::EquiWidth };
        let schedule =
            BatchSchedule::new(f64::from(initial_permille) / 1000.0, f64::from(growth_tenths) / 10.0)
                .unwrap();
        let t = table(rows, 1024);

        // Stop at f1 (under an arbitrary schedule), then resume to f2.
        let resumed_counting = CountingSource::new(&t);
        let mut stream = stratified_kind(f1, strata, alloc, mode).stream(schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows_drawn = stream.drain(&resumed_counting, &mut rng).unwrap();
        let (shallow_rows, shallow_pages) = (rows_drawn.len(), resumed_counting.pages_read());
        prop_assert!(stream.extend_cap(stratified_kind(f2, strata, alloc, mode)));
        rows_drawn.extend(stream.drain(&resumed_counting, &mut rng).unwrap());

        // One-shot draw at f2 with the same seed.
        let oneshot_counting = CountingSource::new(&t);
        let oneshot_rows = stratified_kind(f2, strata, alloc, mode)
            .stream(BatchSchedule::one_shot())
            .unwrap()
            .drain(&oneshot_counting, &mut StdRng::seed_from_u64(seed))
            .unwrap();

        // Each draw reads the distinct pages of its rows once: a stream at
        // its cap holds no page, so the resumed draw re-reads those of its
        // new rows.
        prop_assert_eq!(oneshot_counting.pages_read(), distinct_pages(&oneshot_rows));
        prop_assert_eq!(shallow_pages, distinct_pages(&rows_drawn[..shallow_rows]));
        prop_assert_eq!(
            resumed_counting.pages_read() - shallow_pages,
            distinct_pages(&rows_drawn[shallow_rows..])
        );
        prop_assert_eq!(sorted(rows_drawn), sorted(oneshot_rows));

        // Shallower or incompatible extensions are refused, with the
        // stream left usable.
        prop_assert!(!stream.extend_cap(stratified_kind(f1 * 0.5, strata, alloc, mode)));
        prop_assert!(!stream.extend_cap(stratified_kind(f2 + 0.1, strata + 1, alloc, mode)));
        let other_mode = match mode {
            StrataMode::EquiWidth => StrataMode::EquiDepth,
            StrataMode::EquiDepth => StrataMode::EquiWidth,
        };
        prop_assert!(!stream.extend_cap(stratified_kind(f2 + 0.1, strata, alloc, other_mode)));
        prop_assert!(!stream.extend_cap(SamplerKind::UniformWithReplacement(f2 + 0.1)));
    }
}
