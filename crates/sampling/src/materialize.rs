//! Materialized samples: a drawn sample as a first-class, reusable object.
//!
//! The paper's motivating workflow (Section I) evaluates *many* candidate
//! indexes, and the expensive part of each evaluation is drawing the sample —
//! on a disk-resident table that is real I/O.  Re-sampling per candidate
//! multiplies that cost for no statistical benefit when the candidates share
//! a (sampler, fraction, seed) configuration.  A [`MaterializedSample`] pays
//! the I/O exactly once: it draws through any [`TableSource`] and keeps the
//! sampled rows as encoded heap pages (an owned in-memory [`Table`]), so
//! every later consumer (one per candidate index × compression scheme) works
//! from memory.
//!
//! This is the **only** form a held sample takes: heap pages, the RID each
//! row came from, and — for stratified draws — each row's stratum tag plus
//! the population weights.  The pages hold the checked records the stream
//! drew, appended as they are: no row is decoded or re-encoded on the way
//! in, and the bytes are those encoding the decoded rows would store.
//! Consumers measure it through [`records`](MaterializedSample::records),
//! borrowed slices into those pages; [`rows`](MaterializedSample::rows)
//! decodes the exact `(Rid, Row)` sequence the sampler produced — same
//! rows, same order, same duplicates — for oracles and tests that need
//! owned rows.
//!
//! Beside the rows a sample keeps the [`KeyOrder`]s its measures sorted, at
//! most one per key: sorting the entries into index order is step 2 of
//! SampleCF, and a sample whose rows have not changed need not pay it twice
//! ([`key_order`](MaterializedSample::key_order)).

use crate::batch::RecordBatch;
use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::sampler::SampledRow;
use crate::stream::{BatchSchedule, SampleStream};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use samplecf_index::KeyOrder;
use samplecf_storage::{Rid, Table, TableSource};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An owned, in-memory copy of one drawn sample, tagged with everything
/// needed to reproduce or share it.
#[derive(Debug, Clone)]
pub struct MaterializedSample {
    table: Table,
    source_rids: Vec<Rid>,
    source_name: String,
    source_rows: usize,
    source_pages: usize,
    kind: SamplerKind,
    seed: u64,
    /// Per-row stratum tags, aligned with `source_rids`.  Empty for
    /// unstratified draws (one implicit stratum).
    row_strata: Vec<u32>,
    /// Population weights `W_s = N_s/N` in tag order.  Empty for
    /// unstratified draws.
    strata_weights: Vec<f64>,
    key_orders: HeldOrders,
}

/// The key orders sorted over a sample's current rows, at most one per key.
/// Behind a lock because measures share the sample by reference; a clone
/// starts empty, as it only ever precedes an
/// [`extend_from_stream`](MaterializedSample::extend_from_stream), which
/// drops them anyway.
#[derive(Default)]
struct HeldOrders(Mutex<Vec<Arc<KeyOrder>>>);

impl HeldOrders {
    /// A holder that panicked left the list whole: under the lock it is
    /// only ever pushed to.
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<KeyOrder>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for HeldOrders {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for HeldOrders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.lock();
        f.debug_list()
            .entries(held.iter().map(|order| order.key_columns()))
            .finish()
    }
}

impl MaterializedSample {
    /// Draw a sample from `source` with the given sampler and seed, and
    /// materialize it in memory: [`from_stream`](Self::from_stream) over
    /// the kind's stream under the one-shot schedule.
    ///
    /// The RNG is seeded exactly like
    /// `SampleCf::estimate` (`StdRng::seed_from_u64(seed)`), so a
    /// materialized sample and a direct estimator run with the same
    /// `(kind, seed)` see identical rows.  All source I/O happens inside
    /// this call; wrap `source` in a
    /// [`CountingSource`](samplecf_storage::CountingSource) to measure it.
    pub fn draw(
        source: &dyn TableSource,
        kind: SamplerKind,
        seed: u64,
    ) -> SamplingResult<MaterializedSample> {
        let mut stream = kind.stream(BatchSchedule::one_shot())?;
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_stream(source, stream.as_mut(), &mut rng, seed)
    }

    /// Materialize an empty sample shell for `source`, ready to be filled
    /// by [`extend_from_stream`](Self::extend_from_stream).
    pub fn empty(
        source: &dyn TableSource,
        kind: SamplerKind,
        seed: u64,
    ) -> SamplingResult<MaterializedSample> {
        Ok(MaterializedSample {
            table: Table::with_page_size(
                format!("{}#sample", source.name()),
                source.schema().clone(),
                source.page_size(),
            )?,
            source_rids: Vec::new(),
            source_name: source.name().to_string(),
            source_rows: source.num_rows(),
            source_pages: source.num_pages(),
            kind,
            seed,
            row_strata: Vec::new(),
            strata_weights: Vec::new(),
            key_orders: HeldOrders::default(),
        })
    }

    /// Drive `stream` to exhaustion and materialize everything it drew — the
    /// lossless conversion from a finished [`SampleStream`] into the owned
    /// in-memory form a holder shares (the server's sample cache, the
    /// advisor's callers).
    ///
    /// `seed` must be the seed `rng` was created from; it is recorded so the
    /// sample stays reproducible from its metadata alone.
    pub fn from_stream(
        source: &dyn TableSource,
        stream: &mut dyn SampleStream,
        rng: &mut dyn RngCore,
        seed: u64,
    ) -> SamplingResult<MaterializedSample> {
        let mut sample = Self::empty(source, stream.kind(), seed)?;
        sample.extend_from_stream(source, stream, rng)?;
        Ok(sample)
    }

    /// Pull every remaining batch from `stream`, appending the new records
    /// to this sample as they are, and adopt the stream's (possibly
    /// deepened) sampler configuration.  Returns the number of rows
    /// appended.
    ///
    /// This is what lets a cache *deepen* a sample: raise the stream's cap
    /// (`SampleStream::extend_cap`), then extend — the source only pays the
    /// I/O of the delta, and thanks to prefix-stable draws the result holds
    /// exactly the rows a fresh, deeper draw with the same seed would hold.
    /// The key orders held for the old rows are dropped.
    pub fn extend_from_stream(
        &mut self,
        source: &dyn TableSource,
        stream: &mut dyn SampleStream,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<usize> {
        self.key_orders = HeldOrders::default();
        let before = self.source_rids.len();
        loop {
            let batch = stream.next_records(source, rng)?;
            if batch.is_empty() {
                break;
            }
            self.append(&batch)?;
            if let Some(tags) = stream.batch_strata() {
                self.row_strata.extend_from_slice(tags);
            }
        }
        if let Some(weights) = stream.strata_weights() {
            self.strata_weights = weights;
        }
        self.kind = stream.kind();
        Ok(self.source_rids.len() - before)
    }

    /// Store `batch`'s records on the sample's heap pages, remembering
    /// their source rids.
    fn append(&mut self, batch: &RecordBatch) -> SamplingResult<()> {
        for (rid, record) in batch.iter() {
            self.table.insert_record(record)?;
            self.source_rids.push(rid);
        }
        Ok(())
    }

    /// The sampled rows as an owned in-memory table (named
    /// `<source>#sample`).  Because [`Table`] implements [`TableSource`],
    /// the sample itself can feed any consumer that reads tables.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Decode the exact `(Rid, Row)` pairs the sampler produced, in draw
    /// order, with each row's RID in the *source* table — the owned-row view
    /// for oracles and tests; measurement goes through
    /// [`records`](Self::records).
    pub fn rows(&self) -> SamplingResult<Vec<SampledRow>> {
        // `append` inserts exactly one table row per recorded rid, so the
        // two sides always align.
        debug_assert_eq!(self.table.num_rows(), self.source_rids.len());
        Ok(self
            .source_rids
            .iter()
            .zip(self.table.scan())
            .map(|(&source_rid, (_, row))| (source_rid, row))
            .collect())
    }

    /// The sampled rows as *borrowed* encoded heap records, in draw order,
    /// each tagged with its RID in the source table.
    ///
    /// The slices point straight into the sample's in-page storage, so a
    /// consumer that works on encoded records (index bulk-load, the batch
    /// measure kernels) runs without decoding a cell or cloning a row.  The
    /// record layout is the table's
    /// [`RowCodec`](samplecf_storage::RowCodec) layout — fixed cell widths
    /// behind a null bitmap — available via
    /// [`table().codec()`](samplecf_storage::Table::codec).
    pub fn records(&self) -> SamplingResult<Vec<(Rid, &[u8])>> {
        debug_assert_eq!(self.table.num_rows(), self.source_rids.len());
        Ok(self
            .source_rids
            .iter()
            .zip(self.table.heap().scan())
            .map(|(&source_rid, (_, record))| (source_rid, record))
            .collect())
    }

    /// The key order of these rows' [`records`](Self::records) by the key
    /// columns `key_columns` (schema positions), if one is held: sorted by
    /// an earlier measure since the rows last changed.
    #[must_use]
    pub fn key_order(&self, key_columns: &[usize]) -> Option<Arc<KeyOrder>> {
        let held = self.key_orders.lock();
        held.iter()
            .find(|order| order.key_columns() == key_columns)
            .cloned()
    }

    /// Hold `order`, a key order of these rows' records, for later measures
    /// by the same key columns.  Of two orders for one key — two measures
    /// that sorted at once — the first held stays; they are equal.
    ///
    /// # Panics
    /// If `order` does not order exactly this sample's rows.
    pub fn hold_key_order(&self, order: Arc<KeyOrder>) {
        assert_eq!(order.len(), self.len(), "a key order of other rows");
        let mut held = self.key_orders.lock();
        if held.iter().all(|o| o.key_columns() != order.key_columns()) {
            held.push(order);
        }
    }

    /// Bytes the held key orders take: four per row per key held.
    #[must_use]
    pub fn key_order_bytes(&self) -> usize {
        self.key_orders
            .lock()
            .iter()
            .map(|order| order.bytes())
            .sum()
    }

    /// Number of sampled rows (duplicates counted, as drawn).
    #[must_use]
    pub fn len(&self) -> usize {
        self.source_rids.len()
    }

    /// Whether the sample is empty (an empty source yields an empty sample).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.source_rids.is_empty()
    }

    /// Name of the table the sample was drawn from.
    #[must_use]
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    /// Row count of the source table at draw time (the paper's `n`).
    #[must_use]
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// Page count of the source table at draw time.
    #[must_use]
    pub fn source_pages(&self) -> usize {
        self.source_pages
    }

    /// The sampler configuration the sample was drawn with.
    #[must_use]
    pub fn kind(&self) -> SamplerKind {
        self.kind
    }

    /// The RNG seed the sample was drawn with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-row stratum tags aligned with [`rows`](Self::rows), in draw
    /// order.  Empty for unstratified draws.
    #[must_use]
    pub fn row_strata(&self) -> &[u32] {
        &self.row_strata
    }

    /// Population weights `W_s = N_s/N` of the strata the sample was drawn
    /// under, in tag order.  Empty for unstratified draws.
    #[must_use]
    pub fn strata_weights(&self) -> &[f64] {
        &self.strata_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::{CountingSource, Row, Schema, TableBuilder, Value};

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    #[test]
    fn materialized_rows_equal_a_direct_draw_with_the_same_seed() {
        let t = table(2_000);
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::UniformWithoutReplacement(0.05),
            SamplerKind::Bernoulli(0.05),
            SamplerKind::Systematic(0.05),
            SamplerKind::Reservoir(97),
            SamplerKind::Block(0.05),
            SamplerKind::Stratified {
                fraction: 0.05,
                strata: 3,
                alloc: crate::kind::Allocation::Neyman,
                mode: crate::kind::StrataMode::EquiDepth,
            },
        ] {
            let direct = kind
                .stream(BatchSchedule::one_shot())
                .unwrap()
                .drain(&t, &mut StdRng::seed_from_u64(42))
                .unwrap();
            let sample = MaterializedSample::draw(&t, kind, 42).unwrap();
            assert_eq!(sample.rows().unwrap(), direct, "{kind:?}");
            assert_eq!(sample.len(), direct.len());
            assert_eq!(sample.kind(), kind);
            assert_eq!(sample.seed(), 42);
        }
    }

    #[test]
    fn with_replacement_duplicates_survive_materialization() {
        let t = table(50);
        // A 100% with-replacement sample of a small table almost surely
        // draws some rid twice.
        let sample =
            MaterializedSample::draw(&t, SamplerKind::UniformWithReplacement(1.0), 7).unwrap();
        assert_eq!(sample.len(), 50);
        let rows = sample.rows().unwrap();
        let mut rids: Vec<Rid> = rows.iter().map(|(rid, _)| *rid).collect();
        rids.sort_unstable();
        rids.dedup();
        assert!(rids.len() < 50, "expected duplicate draws, got none");
    }

    #[test]
    fn drawing_pays_the_io_once_and_reuse_is_free() {
        let t = table(3_000);
        let counting = CountingSource::new(&t);
        let sample = MaterializedSample::draw(&counting, SamplerKind::Block(0.1), 3).unwrap();
        let pages_after_draw = counting.pages_read();
        assert!(pages_after_draw > 0);
        // Re-reading the materialized rows touches the source no further.
        for _ in 0..5 {
            let rows = sample.rows().unwrap();
            assert_eq!(rows.len(), sample.len());
        }
        assert_eq!(counting.pages_read(), pages_after_draw);
    }

    #[test]
    fn sample_metadata_describes_the_source() {
        let t = table(1_000);
        let sample =
            MaterializedSample::draw(&t, SamplerKind::UniformWithReplacement(0.01), 0).unwrap();
        assert_eq!(sample.source_name(), "t");
        assert_eq!(sample.source_rows(), 1_000);
        assert_eq!(sample.source_pages(), t.num_pages());
        assert_eq!(sample.table().name(), "t#sample");
        assert!(!sample.is_empty());
        assert_eq!(sample.table().num_rows(), sample.len());
    }

    #[test]
    fn a_finished_stream_materializes_losslessly() {
        let t = table(2_000);
        for kind in [
            SamplerKind::UniformWithReplacement(0.08),
            SamplerKind::UniformWithoutReplacement(0.08),
            SamplerKind::Bernoulli(0.08),
            SamplerKind::Systematic(0.08),
            SamplerKind::Block(0.1),
            SamplerKind::Reservoir(130),
        ] {
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            let mut rng = StdRng::seed_from_u64(21);
            let via_stream =
                MaterializedSample::from_stream(&t, stream.as_mut(), &mut rng, 21).unwrap();
            let direct = MaterializedSample::draw(&t, kind, 21).unwrap();
            // Same rows as a direct draw (the stream batches in rid-sorted
            // chunks, so compare as sorted multisets).
            let mut a = via_stream.rows().unwrap();
            let mut b = direct.rows().unwrap();
            a.sort_by_key(|(rid, _)| *rid);
            b.sort_by_key(|(rid, _)| *rid);
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(via_stream.kind(), kind);
            assert_eq!(via_stream.seed(), 21);
            assert_eq!(via_stream.source_rows(), 2_000);
        }
    }

    #[test]
    fn extending_from_a_deepened_stream_matches_a_fresh_deeper_draw() {
        let t = table(2_000);
        let shallow = SamplerKind::Block(0.05);
        let deep = SamplerKind::Block(0.2);

        let mut stream = shallow.stream(BatchSchedule::one_shot()).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sample = MaterializedSample::from_stream(&t, stream.as_mut(), &mut rng, 9).unwrap();
        let shallow_len = sample.len();
        assert!(stream.extend_cap(deep));
        let added = sample
            .extend_from_stream(&t, stream.as_mut(), &mut rng)
            .unwrap();
        assert!(added > 0);
        assert_eq!(sample.len(), shallow_len + added);
        assert_eq!(sample.kind(), deep, "deepening adopts the new cap");

        let fresh = MaterializedSample::draw(&t, deep, 9).unwrap();
        let mut a = sample.rows().unwrap();
        let mut b = fresh.rows().unwrap();
        a.sort_by_key(|(rid, _)| *rid);
        b.sort_by_key(|(rid, _)| *rid);
        assert_eq!(a, b, "extension == fresh draw at the deeper fraction");
    }

    #[test]
    fn a_held_key_order_lasts_until_the_rows_change() {
        use samplecf_index::{IndexBuilder, IndexSpec};
        let t = table(2_000);
        let mut stream = SamplerKind::Block(0.05)
            .stream(BatchSchedule::one_shot())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut sample = MaterializedSample::from_stream(&t, stream.as_mut(), &mut rng, 4).unwrap();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let records = sample.records().unwrap();
        let sorted = IndexBuilder::new()
            .order_records(sample.table().schema(), &records, &spec)
            .unwrap();
        let order = Arc::clone(sorted.key_order());
        assert!(sample.key_order(&[0]).is_none());
        sample.hold_key_order(Arc::clone(&order));
        // A second order for the same key (two measures that sorted at
        // once) leaves the first in place.
        sample.hold_key_order(Arc::new((*order).clone()));
        let held = sample.key_order(&[0]).expect("held");
        assert!(Arc::ptr_eq(&held, &order));
        assert_eq!(sample.key_order_bytes(), 4 * sample.len());
        // A copy starts without orders: it is only made to be extended.
        assert_eq!(sample.clone().key_order_bytes(), 0);
        // Deepening changes the rows: their orders go.
        drop((records, sorted, held));
        assert!(stream.extend_cap(SamplerKind::Block(0.1)));
        let added = sample
            .extend_from_stream(&t, stream.as_mut(), &mut rng)
            .unwrap();
        assert!(added > 0);
        assert!(sample.key_order(&[0]).is_none());
        assert_eq!(sample.key_order_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "a key order of other rows")]
    fn an_order_of_other_rows_is_not_held() {
        use samplecf_index::{IndexBuilder, IndexSpec};
        let t = table(2_000);
        let sample = MaterializedSample::draw(&t, SamplerKind::Block(0.05), 4).unwrap();
        let records = sample.records().unwrap();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let fewer = IndexBuilder::new()
            .order_records(sample.table().schema(), &records[1..], &spec)
            .unwrap();
        sample.hold_key_order(Arc::clone(fewer.key_order()));
    }

    #[test]
    fn stratified_samples_carry_tags_and_weights_on_both_paths() {
        use crate::kind::Allocation;
        let t = table(2_000);
        let kind = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: crate::kind::StrataMode::EquiWidth,
        };
        // Path 1: the one-shot draw; its tags and weights are the
        // partition's, recomputable from metadata alone.
        let direct = MaterializedSample::draw(&t, kind, 33).unwrap();
        let partition = crate::strata::Strata::equi_width(&t, 4).unwrap();
        assert_eq!(direct.strata_weights(), partition.weights());
        let tags = (direct.rows().unwrap().iter())
            .map(|(rid, _)| partition.stratum_of_page(rid.page) as u32)
            .collect::<Vec<_>>();
        assert_eq!(direct.row_strata(), tags);
        // Path 2: many batches, tags carried batch by batch.
        let mut stream = kind.stream(BatchSchedule::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let streamed = MaterializedSample::from_stream(&t, stream.as_mut(), &mut rng, 33).unwrap();
        assert_eq!(streamed.row_strata().len(), streamed.len());
        assert_eq!(streamed.strata_weights(), direct.strata_weights());
        // Same multiset of (rid, tag) pairs on both paths.
        let pair = |s: &MaterializedSample| {
            let mut v: Vec<(Rid, u32)> = s
                .rows()
                .unwrap()
                .iter()
                .map(|(rid, _)| *rid)
                .zip(s.row_strata().iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(pair(&direct), pair(&streamed));
        // Unstratified draws stay tag-free.
        let plain =
            MaterializedSample::draw(&t, SamplerKind::UniformWithReplacement(0.1), 33).unwrap();
        assert!(plain.row_strata().is_empty());
        assert!(plain.strata_weights().is_empty());
    }

    #[test]
    fn borrowed_records_decode_to_the_exact_sampled_rows() {
        let t = table(1_500);
        let sample =
            MaterializedSample::draw(&t, SamplerKind::UniformWithReplacement(0.1), 11).unwrap();
        let rows = sample.rows().unwrap();
        let records = sample.records().unwrap();
        assert_eq!(records.len(), rows.len());
        let codec = sample.table().codec();
        for ((rec_rid, rec), (row_rid, row)) in records.iter().zip(&rows) {
            assert_eq!(rec_rid, row_rid, "records keep draw order and rids");
            assert_eq!(&codec.decode(rec).unwrap(), row);
        }
    }

    #[test]
    fn empty_source_yields_an_empty_sample() {
        let t = TableBuilder::new("empty", Schema::single_char("a", 8))
            .build()
            .unwrap();
        let sample = MaterializedSample::draw(&t, SamplerKind::Block(0.5), 1).unwrap();
        assert!(sample.is_empty());
        assert_eq!(sample.rows().unwrap(), Vec::new());
    }
}
