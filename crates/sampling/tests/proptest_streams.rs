//! Prefix stability for every sampler kind.
//!
//! One contract over arbitrary table sizes, seeds, parameters and batch
//! schedules, for all six [`SamplerKind`]s and both storage backends: a
//! stream drained under any [`BatchSchedule`] yields the same multiset of
//! `(rid, row)` pairs, at the same number of physical page reads, as the
//! same stream drained under the one-shot schedule.  (What the one-shot
//! draw *is* — which positions, which pages, which scanned rows — is pinned
//! against plain reference loops by the unit tests beside each stream.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_sampling::{
    Allocation, BatchSchedule, CountingSource, SampledRow, SamplerKind, StrataMode,
};
use samplecf_storage::{Row, Schema, Table, TableBuilder, TableSource, Value};

fn table(rows: usize) -> Table {
    TableBuilder::new("t", Schema::single_char("a", 32))
        .page_size(1024)
        .build_with_rows((0..rows).map(|i| {
            let len = 4 + (i * 7) % 24;
            Row::new(vec![Value::str(format!("{i:0len$}"))])
        }))
        .unwrap()
}

/// Removes the table file when the case ends, pass or fail.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn all_kinds(fraction: f64, size: usize, strata: usize) -> [SamplerKind; 6] {
    [
        SamplerKind::UniformWithReplacement(fraction),
        SamplerKind::UniformWithoutReplacement(fraction),
        SamplerKind::Bernoulli(fraction),
        SamplerKind::Reservoir(size),
        SamplerKind::Block(fraction),
        SamplerKind::Stratified {
            fraction,
            strata,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiDepth,
        },
    ]
}

/// Drain `kind` under `schedule`: the rows as a RID-sorted multiset, and
/// the pages the draw physically read.
fn drained(
    kind: SamplerKind,
    schedule: BatchSchedule,
    source: &dyn TableSource,
    seed: u64,
) -> (Vec<SampledRow>, u64) {
    let counting = CountingSource::new(source);
    let mut rows = kind
        .stream(schedule)
        .unwrap()
        .drain(&counting, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    rows.sort_by_key(|(rid, _)| *rid);
    (rows, counting.pages_read())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_schedule_drains_to_the_one_shot_draw_for_every_kind(
        rows in 0usize..1200,
        seed in 0u64..1000,
        fraction_pct in 1u32..60,
        size in 1usize..200,
        strata in 1usize..6,
        initial_permille in 2u32..200,
        growth_tenths in 12u32..40,
    ) {
        let schedule = BatchSchedule::new(
            f64::from(initial_permille) / 1000.0,
            f64::from(growth_tenths) / 10.0,
        )
        .unwrap();
        let memory = table(rows);
        let file = TempFile(std::env::temp_dir().join(format!(
            "samplecf_proptest_streams_{}_{rows}_{seed}.scf",
            std::process::id()
        )));
        let disk = Table::materialize(&file.0, &memory).unwrap();
        let sources: [&dyn TableSource; 2] = [&memory, &disk];
        for kind in all_kinds(f64::from(fraction_pct) / 100.0, size, strata) {
            let on_memory = drained(kind, BatchSchedule::one_shot(), &memory, seed);
            for source in sources {
                let oneshot = drained(kind, BatchSchedule::one_shot(), source, seed);
                let batched = drained(kind, schedule, source, seed);
                prop_assert_eq!(&batched, &oneshot, "{:?} under {:?}", kind, schedule);
                prop_assert_eq!(&oneshot, &on_memory, "{:?}: disk and memory differ", kind);
            }
        }
    }
}
