//! Materialized samples: a drawn sample as a first-class, reusable object.
//!
//! The paper's motivating workflow (Section I) evaluates *many* candidate
//! indexes, and the expensive part of each evaluation is drawing the sample —
//! on a disk-resident table that is real I/O.  Re-sampling per candidate
//! multiplies that cost for no statistical benefit when the candidates share
//! a (sampler, fraction, seed) configuration.  A [`MaterializedSample`] pays
//! the I/O exactly once: it draws through any [`TableSource`] and keeps what
//! the stream drew, so every later consumer (one per candidate index ×
//! compression scheme) works from memory.
//!
//! This is the **only** form a held sample takes: the stream's
//! [`RecordBatch`]es as they were drawn, moved in and never re-packed, and
//! for stratified draws each row's stratum tag plus the population weights.
//! A measure folds the [`batches`](MaterializedSample::batches) in as a
//! progressive run folds a stream's; [`rows`](MaterializedSample::rows)
//! decodes the exact `(Rid, Row)` sequence the sampler produced, for oracles
//! and tests.
//!
//! Beside the rows a sample keeps the [`KeyOrder`]s its measures sorted, at
//! most one per key: sorting the entries into index order is step 2 of
//! SampleCF, and a sample need not pay it twice
//! ([`key_order`](MaterializedSample::key_order)).  A deepening appends
//! batches and keeps the orders: each covers a prefix of the rows, and the
//! next measure by its key sorts only the rows past it and merges them in.

use crate::batch::RecordBatch;
use crate::error::SamplingResult;
use crate::kind::SamplerKind;
use crate::sampler::SampledRow;
use crate::stream::{BatchSchedule, SampleStream};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use samplecf_index::KeyOrder;
use samplecf_storage::{Rid, RowCodec, Schema, Table, TableSource};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One drawn sample, held in memory as the stream drew it, tagged with
/// everything needed to reproduce or share it.
#[derive(Debug, Clone)]
pub struct MaterializedSample {
    /// The stream's batches, in draw order.
    batches: Vec<RecordBatch>,
    /// The source's record layout, which the batches' records follow.
    codec: RowCodec,
    /// The source's page size, for [`table`](Self::table).
    page_size: usize,
    source_name: String,
    source_rows: usize,
    source_pages: usize,
    kind: SamplerKind,
    seed: u64,
    /// Per-row stratum tags, in draw order.  Empty for unstratified draws
    /// (one implicit stratum).
    row_strata: Vec<u32>,
    /// Population weights `W_s = N_s/N` in tag order.  Empty for
    /// unstratified draws.
    strata_weights: Vec<f64>,
    key_orders: HeldOrders,
}

/// The key orders measures sorted over a prefix of a sample's rows, at most
/// one per key.  Behind a lock because measures share the sample by
/// reference; a clone holds the same orders, which stay orders of a prefix
/// of the clone's rows however it is extended.
#[derive(Debug, Default)]
struct HeldOrders(Mutex<Vec<Arc<KeyOrder>>>);

impl HeldOrders {
    /// A holder that panicked left the list whole: under the lock an order
    /// is only ever pushed or swapped for a longer one.
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<KeyOrder>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for HeldOrders {
    fn clone(&self) -> Self {
        HeldOrders(Mutex::new(self.lock().clone()))
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
        let mut sample = MaterializedSample {
            batches: Vec::new(),
            codec: source.codec().clone(),
            page_size: source.page_size(),
            source_name: source.name().to_string(),
            source_rows: source.num_rows(),
            source_pages: source.num_pages(),
            kind: stream.kind(),
            seed,
            row_strata: Vec::new(),
            strata_weights: Vec::new(),
            key_orders: HeldOrders::default(),
        };
        sample.extend_from_stream(source, stream, rng)?;
        Ok(sample)
    }

    /// Pull every remaining batch from `stream`, appending each to this
    /// sample as it was drawn, and adopt the stream's (possibly deepened)
    /// sampler configuration.  Returns the number of rows appended.
    ///
    /// This is what lets a cache *deepen* a sample: raise the stream's cap
    /// (`SampleStream::extend_cap`), then extend — the source only pays the
    /// I/O of the delta, and thanks to prefix-stable draws the result holds
    /// exactly the rows a fresh, deeper draw with the same seed would hold.
    /// The key orders held stay, as orders of the rows drawn before.
    pub fn extend_from_stream(
        &mut self,
        source: &dyn TableSource,
        stream: &mut dyn SampleStream,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<usize> {
        let before = self.len();
        loop {
            let mut batch = stream.next_records(source, rng)?;
            if batch.is_empty() {
                break;
            }
            if let Some(tags) = stream.batch_strata() {
                self.row_strata.extend_from_slice(tags);
            }
            batch.shrink_to_fit();
            self.batches.push(batch);
        }
        if let Some(weights) = stream.strata_weights() {
            self.strata_weights = weights;
        }
        self.kind = stream.kind();
        Ok(self.len() - before)
    }

    /// The batches drawn, in draw order: what a measure folds in.
    #[must_use]
    pub fn batches(&self) -> &[RecordBatch] {
        &self.batches
    }

    /// The schema of the sampled rows (the source's).
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    /// The record layout of the sampled rows (the source's).
    #[must_use]
    pub fn codec(&self) -> &RowCodec {
        &self.codec
    }

    /// The sampled rows as an owned in-memory table (named
    /// `<source>#sample`), built on every call — for callers that want the
    /// rows behind a [`TableSource`]; no measure reads it.
    ///
    /// # Panics
    /// Never for a sample drawn from a [`TableSource`]: its page size was
    /// valid and each of its records came off such a page.
    #[must_use]
    pub fn table(&self) -> Table {
        let name = format!("{}#sample", self.source_name);
        let valid = "a source's page size holds its records";
        let mut table =
            Table::with_page_size(name, self.schema().clone(), self.page_size).expect(valid);
        for (_, record) in self.batches.iter().flat_map(RecordBatch::iter) {
            table.insert_record(record).expect(valid);
        }
        table
    }

    /// Decode the exact `(Rid, Row)` pairs the sampler produced, in draw
    /// order, with each row's RID in the *source* table — the owned-row view
    /// for oracles and tests; measurement folds the
    /// [`batches`](Self::batches).
    pub fn rows(&self) -> SamplingResult<Vec<SampledRow>> {
        let decoded = self.batches.iter().map(|batch| batch.decode(&self.codec));
        Ok(decoded.collect::<SamplingResult<Vec<_>>>()?.concat())
    }

    /// The sampled rows as *borrowed* encoded heap records, in draw order,
    /// each tagged with its RID in the source table: the
    /// [`batches`](Self::batches) collected.  The record layout is
    /// [`codec`](Self::codec)'s — fixed cell widths behind a null bitmap.
    pub fn records(&self) -> SamplingResult<Vec<(Rid, &[u8])>> {
        Ok(self.batches.iter().flat_map(RecordBatch::iter).collect())
    }

    /// The key order by the key columns `key_columns` (schema positions)
    /// that an earlier measure sorted, if one is held: an order of the
    /// first [`KeyOrder::len`] rows, all of them unless the sample was
    /// deepened since.
    #[must_use]
    pub fn key_order(&self, key_columns: &[usize]) -> Option<Arc<KeyOrder>> {
        let held = self.key_orders.lock();
        held.iter()
            .find(|order| order.key_columns() == key_columns)
            .cloned()
    }

    /// Hold `order`, a key order of the first `order.len()` rows, for later
    /// measures by the same key columns.  It takes the place of a held order
    /// for the same key that covers fewer rows; of two that cover as many —
    /// two measures that sorted at once — the first held stays.
    ///
    /// # Panics
    /// If `order` orders more rows than this sample holds.
    pub fn hold_key_order(&self, order: Arc<KeyOrder>) {
        assert!(order.len() <= self.len(), "a key order of other rows");
        let mut held = self.key_orders.lock();
        match held
            .iter_mut()
            .find(|o| o.key_columns() == order.key_columns())
        {
            Some(shorter) if shorter.len() < order.len() => *shorter = order,
            Some(_) => {}
            None => held.push(order),
        }
    }

    /// Bytes the sample holds on to: its batches' records and RIDs, its
    /// stratum tags and its key orders (four bytes per row each covers).
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        let orders = self
            .key_orders
            .lock()
            .iter()
            .map(|o| o.bytes())
            .sum::<usize>();
        let batches = self.batches.iter().map(RecordBatch::retained_bytes);
        batches.sum::<usize>() + self.row_strata.capacity() * std::mem::size_of::<u32>() + orders
    }

    /// Number of sampled rows (duplicates counted, as drawn).
    #[must_use]
    pub fn len(&self) -> usize {
        self.batches.iter().map(RecordBatch::len).sum()
    }

    /// Whether the sample is empty (an empty source yields an empty sample).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
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
    fn a_held_key_order_outlives_a_deepening_as_an_order_of_a_prefix() {
        use samplecf_index::{IndexBuilder, IndexSpec};
        let t = table(2_000);
        let mut stream = SamplerKind::Block(0.05)
            .stream(BatchSchedule::one_shot())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut sample = MaterializedSample::from_stream(&t, stream.as_mut(), &mut rng, 4).unwrap();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let builder = IndexBuilder::new();
        let order_of = |sample: &MaterializedSample| {
            let records = sample.records().unwrap();
            let sorted = builder.order_records(sample.schema(), &records, &spec);
            Arc::clone(sorted.unwrap().key_order())
        };
        let order = order_of(&sample);
        assert!(sample.key_order(&[0]).is_none());
        sample.hold_key_order(Arc::clone(&order));
        // A second order for the same key (two measures that sorted at
        // once) leaves the first in place.
        sample.hold_key_order(Arc::new((*order).clone()));
        let held = sample.key_order(&[0]).expect("held");
        assert!(Arc::ptr_eq(&held, &order));
        // An unstratified sample holds its batches and its orders.
        let orders = |sample: &MaterializedSample| {
            let batches = sample.batches().iter().map(RecordBatch::retained_bytes);
            sample.retained_bytes() - batches.sum::<usize>()
        };
        assert_eq!(orders(&sample), 4 * sample.len());
        // A copy holds the same orders.
        assert_eq!(orders(&sample.clone()), 4 * sample.len());
        // Deepening appends rows and keeps the order, now of a prefix...
        let shallow = sample.len();
        assert!(stream.extend_cap(SamplerKind::Block(0.1)));
        let added = sample
            .extend_from_stream(&t, stream.as_mut(), &mut rng)
            .unwrap();
        assert!(added > 0);
        let held = sample.key_order(&[0]).expect("still held");
        assert!(Arc::ptr_eq(&held, &order));
        assert_eq!(orders(&sample), 4 * shallow);
        // ...which a measure grows by sorting only the rows past it: the
        // order a sort of every row gives, taking the shorter one's place.
        let records = sample.records().unwrap();
        let mut grown = builder.entries(sample.schema(), &spec, Some(held)).unwrap();
        grown.extend(records.iter().copied()).unwrap();
        assert_eq!(grown.order().unwrap(), added);
        assert_eq!(grown.key_order(), &order_of(&sample));
        sample.hold_key_order(Arc::clone(grown.key_order()));
        assert_eq!(orders(&sample), 4 * sample.len());
        sample.hold_key_order(order);
        assert_eq!(sample.key_order(&[0]).unwrap().len(), sample.len());
    }

    #[test]
    #[should_panic(expected = "a key order of other rows")]
    fn an_order_of_other_rows_is_not_held() {
        use samplecf_index::{IndexBuilder, IndexSpec};
        let t = table(2_000);
        let sample = MaterializedSample::draw(&t, SamplerKind::Block(0.05), 4).unwrap();
        let records = sample.records().unwrap();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let more = [&records[..], &records[..1]].concat();
        let longer = IndexBuilder::new()
            .order_records(sample.schema(), &more, &spec)
            .unwrap();
        sample.hold_key_order(Arc::clone(longer.key_order()));
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
        let codec = sample.codec();
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
