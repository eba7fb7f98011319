//! A run read changes what a page costs, not what is read.
//!
//! A file-backed `Table` reads a run of adjacent pages with one positional
//! read per few pages (`TableSource::read_pages`); a source that overrides
//! only the one-page read gets the trait's default, one page at a time.
//! Every draw — each sampler kind, one-shot and progressive — and every
//! measure over the two must be the same: the same batches (RIDs and record
//! bytes), the same pages counted by `CountingSource`, and the same `cf`
//! bit for bit.  And each draw asks for one run per stretch of adjacent
//! pages it needs, and for no page it does not.

use samplecf_compression::scheme_by_name;
use samplecf_core::{ExactCf, ProgressiveCf, ProgressiveConfig, SampleCf};
use samplecf_index::IndexSpec;
use samplecf_sampling::{
    Allocation, BatchSchedule, CountingSource, RecordBatch, SamplerKind, Strata, StrataMode,
};
use samplecf_storage::{
    Column, DataType, Page, PageId, PageRead, PageView, Row, RowCodec, Schema, StorageResult,
    Table, TableBuilder, TableSource, Value, MAX_RUN_PAGES,
};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Removes the table file when the test ends, pass or fail.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A file table of about 350 pages, its key values clustered in runs so
/// that block and row draws measure differently.
fn file_table(tag: &str) -> (TempFile, Table) {
    let schema = Schema::new(vec![
        Column::new("a", DataType::Char(12)),
        Column::nullable("b", DataType::Int32),
    ])
    .unwrap();
    let rows = (0..8_000).map(|i: i64| {
        let b = if i % 7 == 0 {
            Value::Null
        } else {
            Value::int(i % 50)
        };
        Row::new(vec![Value::str(format!("k{:04}", (i / 9) % 400)), b])
    });
    let memory = TableBuilder::new("t", schema)
        .page_size(512)
        .build_with_rows(rows)
        .unwrap();
    let file = TempFile(std::env::temp_dir().join(format!(
        "samplecf_run_reads_{tag}_{}.scf",
        std::process::id()
    )));
    let table = Table::materialize(&file.0, &memory).unwrap();
    assert!(table.num_pages() > 300, "{} pages", table.num_pages());
    (file, table)
}

/// The table read one page at a time: it overrides only the one-page
/// read, so `read_pages` is the trait's default.
struct PerPage<'a>(&'a Table);

impl TableSource for PerPage<'_> {
    fn name(&self) -> &str {
        TableSource::name(self.0)
    }
    fn schema(&self) -> &Schema {
        TableSource::schema(self.0)
    }
    fn codec(&self) -> &RowCodec {
        TableSource::codec(self.0)
    }
    fn num_rows(&self) -> usize {
        TableSource::num_rows(self.0)
    }
    fn num_pages(&self) -> usize {
        TableSource::num_pages(self.0)
    }
    fn page_size(&self) -> usize {
        TableSource::page_size(self.0)
    }
    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.0.read_page(id)
    }
}

/// The table, with every read it is asked for written down: each
/// `read_pages` call as `(first, count)`, and each one-page read.
struct Logged<'a> {
    table: &'a Table,
    runs: Mutex<Vec<(PageId, usize)>>,
    single: Mutex<Vec<PageId>>,
}

impl<'a> Logged<'a> {
    fn new(table: &'a Table) -> Self {
        Logged {
            table,
            runs: Mutex::new(Vec::new()),
            single: Mutex::new(Vec::new()),
        }
    }

    /// The calls made so far, and forget them.
    fn take(&self) -> (Vec<(PageId, usize)>, Vec<PageId>) {
        let runs = std::mem::take(&mut *self.runs.lock().unwrap());
        (runs, std::mem::take(&mut *self.single.lock().unwrap()))
    }
}

impl TableSource for Logged<'_> {
    fn name(&self) -> &str {
        TableSource::name(self.table)
    }
    fn schema(&self) -> &Schema {
        TableSource::schema(self.table)
    }
    fn codec(&self) -> &RowCodec {
        TableSource::codec(self.table)
    }
    fn num_rows(&self) -> usize {
        TableSource::num_rows(self.table)
    }
    fn num_pages(&self) -> usize {
        TableSource::num_pages(self.table)
    }
    fn page_size(&self) -> usize {
        TableSource::page_size(self.table)
    }
    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.single.lock().unwrap().push(id);
        self.table.read_page(id)
    }
    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        self.single.lock().unwrap().push(id);
        self.table.read_page_ref(id)
    }
    fn read_pages(
        &self,
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        self.runs.lock().unwrap().push((first, count));
        self.table.read_pages(first, count, visit)
    }
}

fn kinds() -> Vec<SamplerKind> {
    let stratified = |alloc, mode| SamplerKind::Stratified {
        fraction: 0.05,
        strata: 4,
        alloc,
        mode,
    };
    vec![
        SamplerKind::UniformWithReplacement(0.05),
        SamplerKind::UniformWithoutReplacement(0.05),
        SamplerKind::Bernoulli(0.05),
        SamplerKind::Reservoir(300),
        SamplerKind::Block(0.1),
        stratified(Allocation::Proportional, StrataMode::EquiWidth),
        stratified(Allocation::Neyman, StrataMode::EquiDepth),
    ]
}

/// Every batch of `kind`'s draw under `schedule` at `seed`, and the pages
/// it read.
fn draw(
    kind: SamplerKind,
    schedule: BatchSchedule,
    source: &dyn TableSource,
    seed: u64,
) -> (Vec<RecordBatch>, u64) {
    use rand::SeedableRng;
    let counting = CountingSource::new(source);
    let mut stream = kind.stream(schedule).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    loop {
        let batch = stream.next_records(&counting, &mut rng).unwrap();
        if batch.is_empty() {
            return (batches, counting.pages_read());
        }
        batches.push(batch);
    }
}

/// The maximal runs of adjacent pages in `pages`, none crossing from one
/// stratum of `strata` into the next.
fn runs_of(pages: &BTreeSet<PageId>, strata: Option<&Strata>) -> Vec<(PageId, usize)> {
    let stratum = |p: PageId| strata.map_or(0, |s| s.stratum_of_page(p));
    let mut runs: Vec<(PageId, usize)> = Vec::new();
    for &p in pages {
        match runs.last_mut() {
            Some((first, count))
                if *first + *count as PageId == p && stratum(*first) == stratum(p) =>
            {
                *count += 1;
            }
            _ => runs.push((p, 1)),
        }
    }
    runs
}

#[test]
fn every_draw_reads_and_yields_the_same_over_runs_as_page_by_page() {
    let (_file, table) = file_table("draws");
    let per_page = PerPage(&table);
    let schedules = [
        BatchSchedule::one_shot(),
        BatchSchedule::new(0.002, 1.5).unwrap(),
    ];
    for kind in kinds() {
        for schedule in schedules {
            for seed in [1, 2] {
                let (expected, expected_pages) = draw(kind, schedule, &per_page, seed);
                let (batches, pages) = draw(kind, schedule, &table, seed);
                assert!(!expected.is_empty(), "{kind:?}");
                assert_eq!(batches, expected, "{kind:?} {schedule:?} seed {seed}");
                assert_eq!(pages, expected_pages, "{kind:?} {schedule:?} seed {seed}");
            }
        }
    }
}

#[test]
fn a_one_shot_draw_reads_one_run_per_stretch_of_adjacent_pages_it_needs() {
    let (_file, table) = file_table("runs");
    let logged = Logged::new(&table);
    for kind in kinds() {
        let (batches, pages) = draw(kind, BatchSchedule::one_shot(), &logged, 3);
        let (runs, single) = logged.take();
        assert!(
            single.is_empty(),
            "{kind:?} read pages one at a time: {single:?}"
        );
        let needed: BTreeSet<PageId> = (batches.iter().flat_map(RecordBatch::iter))
            .map(|(rid, _)| rid.page)
            .collect();
        // A stratum's draw is fetched on its own, so a run ends at its
        // stratum's last page.
        let strata = match kind {
            SamplerKind::Stratified { strata, mode, .. } => Some(match mode {
                StrataMode::EquiWidth => Strata::equi_width(&table, strata).unwrap(),
                StrataMode::EquiDepth => Strata::equi_depth(&table, strata).unwrap(),
            }),
            _ => None,
        };
        assert_eq!(runs, runs_of(&needed, strata.as_ref()), "{kind:?}");
        assert_eq!(pages, needed.len() as u64, "{kind:?}");
        // A run longer than one positional read is still one call: a 5%
        // row draw touches most pages, so it has some.
        if !matches!(kind, SamplerKind::Block(_)) {
            assert!(
                runs.iter().any(|&(_, count)| count > MAX_RUN_PAGES),
                "{kind:?}"
            );
        }
    }
}

#[test]
fn every_estimate_and_the_exact_cf_are_the_same_over_runs_as_page_by_page() {
    let (_file, table) = file_table("measures");
    let per_page = PerPage(&table);
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
    for name in ["null-suppression", "dictionary-global"] {
        let scheme = scheme_by_name(name).unwrap();
        for kind in kinds() {
            let one_shot = |source: &dyn TableSource| {
                let counting = CountingSource::new(source);
                let m = (SampleCf::new(kind).seed(5))
                    .estimate(&counting, &spec, scheme.as_ref())
                    .unwrap();
                (m.cf.to_bits(), counting.pages_read())
            };
            assert_eq!(one_shot(&table), one_shot(&per_page), "{name} {kind:?}");
            let config = ProgressiveConfig {
                target_error: 0.05,
                schedule: BatchSchedule::new(0.002, 1.5).unwrap(),
                ..ProgressiveConfig::default()
            };
            let progressive = |source: &dyn TableSource| {
                let report = (ProgressiveCf::new(kind, config).seed(5))
                    .run(source, &spec, scheme.as_ref())
                    .unwrap();
                let cfs: Vec<u64> = (report.checkpoints.iter())
                    .map(|c| c.cf.to_bits())
                    .collect();
                (report.measurement.cf.to_bits(), cfs, report.pages_read)
            };
            assert_eq!(
                progressive(&table),
                progressive(&per_page),
                "{name} {kind:?}"
            );
        }
        let exact = |source: &dyn TableSource| {
            let counting = CountingSource::new(source);
            let m = ExactCf::new()
                .compute(&counting, &spec, scheme.as_ref())
                .unwrap();
            (m.cf.to_bits(), counting.pages_read())
        };
        let expected = exact(&per_page);
        assert_eq!(expected.1, table.num_pages() as u64);
        assert_eq!(exact(&table), expected, "{name}");
        // The exact fold reads the table in runs of the run limit.
        let logged = Logged::new(&table);
        exact(&logged);
        let (runs, single) = logged.take();
        assert!(single.is_empty(), "{name}: {single:?}");
        let chunks: Vec<(PageId, usize)> = (0..table.num_pages())
            .step_by(MAX_RUN_PAGES)
            .map(|first| {
                (
                    first as PageId,
                    MAX_RUN_PAGES.min(table.num_pages() - first),
                )
            })
            .collect();
        assert_eq!(runs, chunks, "{name}");
    }
}
