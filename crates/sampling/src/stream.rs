//! Sample streams: the one way a sample is drawn.
//!
//! A [`SampleStream`] yields one draw in growing batches, so a consumer can
//! measure after every batch and stop as soon as its accuracy target is met
//! (the sequential-estimation workflow of Nirkhiwale et al.'s sampling
//! algebra).  A batch is a [`RecordBatch`]: the RIDs drawn and their heap
//! records, each checked by the source's codec as it is copied out of its
//! page — once — and never decoded.  The estimator slices cells out of the
//! records and a held sample stores them as they are;
//! [`next_batch`](SampleStream::next_batch) decodes a batch for callers
//! that want rows.  A one-shot draw of fraction `f` is the same stream
//! under the single-batch schedule, run to its cap:
//! `kind.stream(BatchSchedule::one_shot())?.drain(source, rng)`.  The
//! contract that makes the two interchangeable is **prefix stability**:
//! stopping a stream after it has drawn `r` rows yields exactly the rows
//! (and, for page-coalesced draws, exactly the physical page reads) of a
//! one-shot draw of `r` rows with the same seed.  The estimator's
//! fixed-fraction parity tests pin this bit-for-bit.
//!
//! Prefix stability holds per sampler for different reasons:
//!
//! * **Row-position draws** ([`StratifiedStream`]) split the row budget
//!   across contiguous page-range strata under a house-monotone rule and
//!   generate positions one RNG call at a time, so any prefix of the
//!   position sequence is itself the draw at that size.  **The uniform
//!   draws are the one-stratum case:** `gen_range(0..n)` on the shared RNG
//!   with replacement, the next element of an [`IncrementalFisherYates`]
//!   shuffle of the frame without; Bernoulli is the without-replacement
//!   draw capped at a binomial count made when the stream binds, and a
//!   reservoir of `k` rows the same draw capped at `min(k, n)` — the frame
//!   knows `n`, so no scan is needed to draw `k` rows uniformly without
//!   replacement; with k ≥ 2 strata each stratum is its own
//!   with-replacement substream (see [`stratified`](crate::stratified)).
//!   Fetches are page-coalesced, read runs of adjacent needed pages, and
//!   check only the drawn slots.  A page is held ([`PageCache`]) only
//!   while a later batch of the same stream can still need it: every batch
//!   but the last keeps the pages it read, and the last batch reads those
//!   from the cache, lends every other page from its run's read, and drops
//!   the cache when it returns.  So the pages physically read are the
//!   distinct pages of the rows drawn so far — independent of how the draw
//!   was split into batches — and a finished stream holds no page.  A deepening is a new last batch: it
//!   reads each distinct page of its new rows once, pages the shallower
//!   draw read included.
//! * **Block sampling** ([`BlockStream`]) selects pages by partial
//!   Fisher–Yates, which consumes exactly one RNG call per selected page;
//!   the first `k` pages of a longer selection equal a selection of `k`
//!   pages ([`IncrementalFisherYates`] replays the same sequence
//!   incrementally).
//!
//! Batch boundaries come from a [`BatchSchedule`] fixed at construction:
//! geometrically growing row targets capped at the sampler's fraction (or
//! reservoir capacity).  Because the schedule is part of the stream, two
//! consumers that construct the same stream see identical batches — which
//! is what lets `SampleCf::estimate` (one checkpoint) and `ProgressiveCf`
//! (many checkpoints) share one code path and still agree byte-for-byte.

use crate::batch::RecordBatch;
use crate::block::BlockStream;
use crate::error::{SamplingError, SamplingResult};
use crate::kind::SamplerKind;
use crate::sampler::{target_size, validate_fraction, SampledRow};
use crate::stratified::StratifiedStream;
use rand::{Rng, RngCore};
use samplecf_storage::{Frame, Page, PageId, PageView, RowCodec, StorageResult, TableSource};
use std::collections::HashMap;

/// The geometric batch schedule of a stream: the first batch targets
/// `initial_fraction` of the table's rows and every later batch grows the
/// cumulative target by `growth` until the stream's cap is reached.
///
/// The schedule is expressed in fractions of the *table*, not of the cap, so
/// `--initial-fraction 0.01` means the same thing for every sampler.  The
/// final target always lands exactly on the cap, which is what makes a
/// fully-consumed stream identical to a one-shot draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSchedule {
    /// Fraction of the table the first batch targets.
    pub initial_fraction: f64,
    /// Geometric growth factor of the cumulative target (must be > 1).
    pub growth: f64,
}

impl Default for BatchSchedule {
    fn default() -> Self {
        BatchSchedule {
            initial_fraction: 0.01,
            growth: 2.0,
        }
    }
}

impl BatchSchedule {
    /// Create a schedule, validating its parameters.
    pub fn new(initial_fraction: f64, growth: f64) -> SamplingResult<Self> {
        validate_fraction(initial_fraction)?;
        if !(growth > 1.0 && growth.is_finite()) {
            return Err(SamplingError::InvalidSize(format!(
                "batch growth factor must be > 1, got {growth}"
            )));
        }
        Ok(BatchSchedule {
            initial_fraction,
            growth,
        })
    }

    /// A schedule whose first batch already covers the whole cap: the
    /// one-shot draw, and what `SampleCf::estimate` runs.
    #[must_use]
    pub fn one_shot() -> Self {
        BatchSchedule {
            initial_fraction: 1.0,
            growth: 2.0,
        }
    }

    /// Cumulative unit targets (rows or pages) for a frame of `n` units and
    /// a cap of `max_units`: strictly increasing, ending exactly at
    /// `max_units`.  Empty when the cap is zero.
    #[must_use]
    pub fn cumulative_targets(&self, n: usize, max_units: usize) -> Vec<usize> {
        if max_units == 0 {
            return Vec::new();
        }
        let mut targets = Vec::new();
        let mut t = target_size(n, self.initial_fraction).clamp(1, max_units);
        loop {
            targets.push(t);
            if t >= max_units {
                return targets;
            }
            // Grow geometrically, always making progress, never overshooting.
            t = (((t as f64) * self.growth).ceil() as usize).clamp(t + 1, max_units);
        }
    }
}

/// A bound stream's cumulative batch targets and its place among them — the
/// bookkeeping every stream shares once it has seen its source.
#[derive(Debug)]
pub(crate) struct BatchPlan {
    targets: Vec<usize>,
    next: usize,
}

impl BatchPlan {
    /// The plan of `schedule` over a frame of `n` units capped at `cap`.
    pub(crate) fn new(schedule: BatchSchedule, n: usize, cap: usize) -> Self {
        BatchPlan {
            targets: schedule.cumulative_targets(n, cap),
            next: 0,
        }
    }

    /// The cumulative target of the next batch; `None` at the cap.
    pub(crate) fn next_target(&self) -> Option<usize> {
        self.targets.get(self.next).copied()
    }

    /// Whether the next batch is the plan's last: no later batch can need
    /// what it reads (until a deepening plans another).
    pub(crate) fn is_last(&self) -> bool {
        self.next + 1 == self.targets.len()
    }

    /// The batch up to [`next_target`](Self::next_target) has been drawn.
    pub(crate) fn advance(&mut self) {
        self.next += 1;
    }

    /// Whether every planned batch has been drawn.
    pub(crate) fn exhausted(&self) -> bool {
        self.next >= self.targets.len()
    }

    /// Re-plan after a deepening: one batch from the `drawn` units to the
    /// new `cap`.
    pub(crate) fn raise_cap(&mut self, cap: usize, drawn: usize) {
        self.targets.truncate(self.next);
        if cap > drawn {
            self.targets.push(cap);
        }
    }
}

/// A batch-extendable sample draw (see the module docs for the prefix
/// stability contract).
///
/// `Send + Sync` so that a holder (the server's sample cache) can keep a
/// live stream in an entry that request workers share; drawing itself
/// requires `&mut self`.
pub trait SampleStream: Send + Sync {
    /// The sampler configuration this stream draws for, with its *current*
    /// cap (deepening via [`extend_cap`](Self::extend_cap) updates it).
    fn kind(&self) -> SamplerKind;

    /// Draw the next batch: the RIDs drawn and their heap records, each
    /// checked by the source's codec ([`RecordBatch`]).  Returns an empty
    /// batch once the stream has reached its cap.  The same `source` and a
    /// deterministic `rng` must be passed on every call.
    fn next_records(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch>;

    /// [`next_records`](Self::next_records), decoded into `(Rid, Row)`
    /// pairs — the same draw, for callers that want owned rows.
    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        RecordBatch::decode(&self.next_records(source, rng)?, source.codec())
    }

    /// Draw every remaining batch and return the rows, decoded, in batch
    /// order.  Under [`BatchSchedule::one_shot`] this is the one-shot
    /// sample.
    fn drain(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        let mut rows = Vec::new();
        loop {
            let batch = self.next_batch(source, rng)?;
            if batch.is_empty() {
                return Ok(rows);
            }
            rows.extend(batch);
        }
    }

    /// Whether the stream has reached its cap.  `false` for a stream that
    /// has not drawn anything yet (the cap is only known once the stream
    /// has seen the source).
    fn exhausted(&self) -> bool;

    /// Raise the stream's cap to its sampler at a deeper fraction
    /// ([`SamplerKind::deepened_to`]), so further batches extend
    /// the existing draw instead of redrawing.  Returns `false` when the
    /// stream cannot be deepened (another sampler, a shallower target, a
    /// Bernoulli draw, whose cap was counted for its `p`, or a reservoir,
    /// whose cap is its size).
    fn extend_cap(&mut self, kind: SamplerKind) -> bool;

    /// Whether [`extend_cap`](Self::extend_cap) can ever succeed on this
    /// stream.  A holder that keeps a finished stream only to deepen it
    /// later drops one that says `false`.
    fn extendable(&self) -> bool {
        true
    }

    /// Approximate bytes of state this stream retains between batches for
    /// a later deepening (a shuffle's displaced slots; pages only while a
    /// batch of the plan is still to come, none once the stream is at its
    /// cap).
    /// Holders with a memory budget (the server's sample cache) charge this
    /// against the entry; dropping the stream releases it.  Only an
    /// [`extendable`](Self::extendable) stream is held, so a stream that
    /// cannot be deepened keeps the default.
    fn approx_retained_bytes(&self) -> usize {
        0
    }

    /// Per-row stratum tags of the batch most recently returned by
    /// [`next_records`](Self::next_records), aligned index-for-index with
    /// its records.  `None` for unstratified streams (a single implicit
    /// stratum).
    fn batch_strata(&self) -> Option<&[u32]> {
        None
    }

    /// Population weights `W_s = N_s/N` of the stream's strata, in tag
    /// order.  `None` for unstratified streams, or before the stream has
    /// bound its source.
    fn strata_weights(&self) -> Option<Vec<f64>> {
        None
    }

    /// Feed per-stratum standard-deviation estimates back into the stream
    /// so a variance-aware allocation (Neyman) can re-split the remaining
    /// budget.  A no-op for unstratified streams and for allocations that
    /// ignore variance.  **Feeding back makes later batches depend on when
    /// the feedback happened** — callers that need schedule-independent
    /// draws (the sample caches) simply never call this.
    fn update_stratum_variances(&mut self, sds: &[f64]) {
        let _ = sds;
    }
}

impl std::fmt::Debug for dyn SampleStream + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SampleStream({})", self.kind().label())
    }
}

impl SamplerKind {
    /// The draw this sampler kind describes, arriving in the batches of
    /// `schedule`.  Every kind is a stream, and this is the only way to
    /// draw one; the only error is a parameter
    /// [`validate`](Self::validate) rejects.
    pub fn stream(&self, schedule: BatchSchedule) -> SamplingResult<Box<dyn SampleStream>> {
        self.validate()?;
        Ok(match *self {
            SamplerKind::UniformWithReplacement(_)
            | SamplerKind::UniformWithoutReplacement(_)
            | SamplerKind::Bernoulli(_)
            | SamplerKind::Reservoir(_)
            | SamplerKind::Stratified { .. } => Box::new(StratifiedStream::new(*self, schedule)),
            SamplerKind::Block(f) => Box::new(BlockStream::new(f, schedule)),
        })
    }
}

/// The verified pages a row-position stream keeps for its later batches,
/// keyed by page id.
///
/// Row fetches coalesce through it: the first row needed from a page pays
/// its read (a page of a [`read_pages`](TableSource::read_pages) run, copied
/// in), every later row on that page is a slot lookup plus one record
/// check.  Only the drawn slots are ever checked, so a malformed record
/// fails only the draw that asks for it.  A stream keeps its cache only while a later batch
/// can need a page of it ([`fetch_positions_coalesced`]): holding pages
/// across batches is what makes the pages-read count of a draw depend only
/// on *which* rows were drawn, not on how the draw was batched, and
/// dropping them with the last batch is what makes a finished draw cost
/// what the sample keeps.
#[derive(Debug, Default)]
pub struct PageCache {
    pages: HashMap<PageId, Page>,
}

impl PageCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages cached (== the page reads that kept a
    /// page, through [`fetch_positions_coalesced`]).
    #[must_use]
    pub fn pages_cached(&self) -> usize {
        self.pages.len()
    }

    /// Total page bytes held — the unit a memory-budgeted holder prices
    /// this cache in.
    #[must_use]
    pub fn bytes_cached(&self) -> usize {
        self.pages.values().map(Page::page_size).sum()
    }
}

/// Append the records at the given positions of `frame` to `batch`, sorted
/// by RID and page-coalesced.
///
/// The positions are sorted in place — frame order is RID order — so the
/// records come in RID order (duplicates adjacent) rather than draw order,
/// an order the estimator is insensitive to, since the index bulk load
/// re-sorts by key anyway; and each distinct page is read exactly once,
/// however many drawn rows land on it.  A page `cache` holds is read from
/// there.  The other pages the positions need are read a run of adjacent
/// ones at a time ([`read_pages`](TableSource::read_pages)), and no page
/// they do not need is read.  With `keep` each page read is copied into
/// `cache` for a later batch.  Without it (a stream's last batch) the pages
/// are only lent, and gone when their run's read returns.
pub fn fetch_positions_coalesced(
    source: &dyn TableSource,
    frame: Frame,
    mut positions: Vec<usize>,
    cache: &mut PageCache,
    keep: bool,
    batch: &mut RecordBatch,
) -> SamplingResult<()> {
    positions.sort_unstable();
    let codec = source.codec();
    // The positions on pages up to `page` are those below this bound.
    let end_of = |page: PageId| frame.rows_before(page as usize + 1);
    let mut rest = &positions[..];
    while let Some(&pos) = rest.first() {
        let first = frame.rid(pos).page;
        // How many of the remaining positions lie on pages up to `last`.
        let up_to = |last: PageId| rest.partition_point(|&p| p < end_of(last));
        if let Some(page) = cache.pages.get(&first) {
            let (here, later) = rest.split_at(up_to(first));
            push_positions(codec, frame, page.view(), here, batch)?;
            rest = later;
            continue;
        }
        // The run: the adjacent pages from `first` that the positions need
        // and the cache does not hold.
        let mut last = first;
        while let Some(&pos) = rest.get(up_to(last)) {
            let next = frame.rid(pos).page;
            if next != last + 1 || cache.pages.contains_key(&next) {
                break;
            }
            last = next;
        }
        let (mut run, later) = rest.split_at(up_to(last));
        let count = (last - first) as usize + 1;
        source.read_pages(first, count, &mut |page| {
            let (here, after) = run.split_at(run.partition_point(|&p| p < end_of(page.id())));
            run = after;
            if keep {
                cache.pages.insert(page.id(), page.to_page());
            }
            push_positions(codec, frame, page, here, batch)
        })?;
        rest = later;
    }
    Ok(())
}

/// Append the records at `positions` of `frame`, all on `page`, to `batch`.
fn push_positions(
    codec: &RowCodec,
    frame: Frame,
    page: PageView<'_>,
    positions: &[usize],
    batch: &mut RecordBatch,
) -> StorageResult<()> {
    for rid in positions.iter().map(|&p| frame.rid(p)) {
        batch.push(codec, rid, page.get(rid.slot)?)?;
    }
    Ok(())
}

/// An incremental partial Fisher–Yates shuffle over `0..length`.
///
/// [`next`](Self::next) consumes exactly one `gen_range(i..length)` call per
/// element, and the sequence it produces is identical to
/// `rand::seq::index::sample(rng, length, amount)` for every `amount` — the
/// prefix-stability property block and without-replacement streaming rely
/// on.  Only displaced slots are tracked, so memory is proportional to the
/// elements drawn.
#[derive(Debug)]
pub struct IncrementalFisherYates {
    length: usize,
    next_index: usize,
    swaps: HashMap<usize, usize>,
}

impl IncrementalFisherYates {
    /// A shuffle over `0..length`.
    #[must_use]
    pub fn new(length: usize) -> Self {
        IncrementalFisherYates {
            length,
            next_index: 0,
            swaps: HashMap::new(),
        }
    }

    /// The number of elements the shuffle ranges over.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Elements drawn so far.
    #[must_use]
    pub fn drawn(&self) -> usize {
        self.next_index
    }

    /// What the displaced-slot map holds: the table std's `HashMap`
    /// allocates for its capacity.  That is a power of two of buckets with
    /// at least an eighth of them spare, each bucket an entry and a control
    /// byte, plus one trailing group of 16 control bytes.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        let capacity = self.swaps.capacity();
        if capacity == 0 {
            return 0;
        }
        let buckets = (capacity * 8 / 7).next_power_of_two();
        buckets * (std::mem::size_of::<(usize, usize)>() + 1) + 16
    }

    /// Draw the next element of the shuffle; `None` once all `length`
    /// elements are out.
    pub fn next(&mut self, rng: &mut dyn RngCore) -> Option<usize> {
        let i = self.next_index;
        if i >= self.length {
            return None;
        }
        let j = rng.gen_range(i..self.length);
        let picked = self.swaps.get(&j).copied().unwrap_or(j);
        let displaced = self.swaps.get(&i).copied().unwrap_or(i);
        self.swaps.insert(j, displaced);
        self.next_index += 1;
        Some(picked)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kind::{Allocation, StrataMode};
    use rand::rngs::StdRng;
    use rand::seq::index;
    use rand::SeedableRng;
    use samplecf_storage::{CountingSource, Rid, Row, Schema, Table, TableBuilder, Value};

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The one-shot draw of `kind` at `seed` — what every sampler test
    /// module draws with.
    pub(crate) fn draw(kind: SamplerKind, source: &dyn TableSource, seed: u64) -> Vec<SampledRow> {
        kind.stream(BatchSchedule::one_shot())
            .unwrap()
            .drain(source, &mut rng(seed))
            .unwrap()
    }

    fn sorted(mut rows: Vec<SampledRow>) -> Vec<SampledRow> {
        rows.sort_by_key(|(rid, _)| *rid);
        rows
    }

    /// The rows at `positions` of `source`'s frame, one page read and
    /// decode each.
    fn rows_at(source: &dyn TableSource, positions: &[usize]) -> Vec<SampledRow> {
        let frame = Frame::of(source);
        let row = |rid: Rid| {
            let page = source.read_page_ref(rid.page).unwrap();
            source.codec().decode(page.get(rid.slot).unwrap()).unwrap()
        };
        (positions.iter())
            .map(|&p| (frame.rid(p), row(frame.rid(p))))
            .collect()
    }

    fn all_kinds() -> [SamplerKind; 6] {
        [
            SamplerKind::UniformWithReplacement(0.1),
            SamplerKind::UniformWithoutReplacement(0.1),
            SamplerKind::Bernoulli(0.1),
            SamplerKind::Reservoir(5),
            SamplerKind::Block(0.1),
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: Allocation::Neyman,
                mode: StrataMode::EquiWidth,
            },
        ]
    }

    #[test]
    fn schedule_targets_grow_geometrically_and_land_on_the_cap() {
        let s = BatchSchedule::new(0.01, 2.0).unwrap();
        assert_eq!(s.cumulative_targets(1000, 100), vec![10, 20, 40, 80, 100]);
        // Tiny tables: one row first, always progress, exact landing.
        assert_eq!(s.cumulative_targets(100, 3), vec![1, 2, 3]);
        // Empty cap: nothing to draw.
        assert!(s.cumulative_targets(0, 0).is_empty());
        // One-shot schedule is a single batch.
        assert_eq!(
            BatchSchedule::one_shot().cumulative_targets(1000, 77),
            vec![77]
        );
    }

    #[test]
    fn schedule_rejects_bad_parameters() {
        assert!(BatchSchedule::new(0.0, 2.0).is_err());
        assert!(BatchSchedule::new(0.1, 1.0).is_err());
        assert!(BatchSchedule::new(0.1, f64::NAN).is_err());
    }

    #[test]
    fn incremental_fisher_yates_matches_vendor_index_sample_prefixes() {
        // The property the block and without-replacement streams' parity
        // rests on: for any amount, index::sample equals the first `amount`
        // draws of the incremental shuffle with the same seed.
        for length in [10usize, 100, 1000] {
            for amount in [1usize, 3, 7, length / 2, length] {
                let oneshot = index::sample(&mut rng(9), length, amount).into_vec();
                let mut fy = IncrementalFisherYates::new(length);
                let mut rng = rng(9);
                let incremental: Vec<usize> =
                    (0..amount).map(|_| fy.next(&mut rng).unwrap()).collect();
                assert_eq!(incremental, oneshot, "length={length} amount={amount}");
            }
        }
    }

    #[test]
    fn uniform_stream_drains_to_the_one_shot_multiset() {
        let t = table(2_000);
        // The references: one `gen_range(0..n)` per row with replacement,
        // `index::sample` without.
        let with: Vec<usize> = {
            let mut rng = rng(5);
            (0..200).map(|_| rng.gen_range(0..2_000)).collect()
        };
        let without = index::sample(&mut rng(5), 2_000, 200).into_vec();
        for (kind, positions) in [
            (SamplerKind::UniformWithReplacement(0.1), with),
            (SamplerKind::UniformWithoutReplacement(0.1), without),
        ] {
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            let mut rng = rng(5);
            let mut drained = stream.next_batch(&t, &mut rng).unwrap();
            assert!(!stream.exhausted(), "expected several geometric batches");
            drained.extend(stream.drain(&t, &mut rng).unwrap());
            assert_eq!(drained.len(), 200);
            assert!(stream.exhausted());
            assert_eq!(sorted(drained), sorted(rows_at(&t, &positions)), "{kind:?}");
            // A drained stream keeps returning empty batches.
            assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
        }
    }

    #[test]
    fn uniform_stream_page_reads_are_schedule_independent() {
        let t = table(3_000);
        for kind in [
            SamplerKind::UniformWithReplacement(0.05),
            SamplerKind::UniformWithoutReplacement(0.05),
        ] {
            let mut pages = Vec::new();
            for schedule in [
                BatchSchedule::one_shot(),
                BatchSchedule::default(),
                BatchSchedule::new(0.001, 1.3).unwrap(),
            ] {
                let counting = CountingSource::new(&t);
                let mut stream = kind.stream(schedule).unwrap();
                stream.drain(&counting, &mut rng(3)).unwrap();
                pages.push(counting.pages_read());
            }
            assert_eq!(pages[0], pages[1], "held pages must erase batch boundaries");
            assert_eq!(pages[0], pages[2]);
        }
    }

    #[test]
    fn block_stream_selects_the_one_shot_page_set() {
        let t = table(4_000);
        // The reference: `index::sample` over the page ids, every row of
        // each selected page.
        let count = (t.num_pages() as f64 * 0.25).round() as usize;
        let mut oneshot_ids: Vec<PageId> = index::sample(&mut rng(11), t.num_pages(), count)
            .into_iter()
            .map(|p| p as PageId)
            .collect();
        oneshot_ids.sort_unstable();
        let oneshot: Vec<SampledRow> = (t.scan_rows().unwrap().into_iter())
            .filter(|(rid, _)| oneshot_ids.contains(&rid.page))
            .collect();

        let counting = CountingSource::new(&t);
        let mut stream = SamplerKind::Block(0.25)
            .stream(BatchSchedule::default())
            .unwrap();
        let mut rng = rng(11);
        let mut drained = stream.next_batch(&counting, &mut rng).unwrap();
        assert!(!stream.exhausted(), "expected several geometric batches");
        drained.extend(stream.drain(&counting, &mut rng).unwrap());
        assert_eq!(sorted(drained), oneshot);
        assert_eq!(counting.pages_read() as usize, oneshot_ids.len());
    }

    #[test]
    fn extending_the_cap_continues_the_draw_prefix() {
        let t = table(2_000);
        type Family = fn(f64) -> SamplerKind;
        let families: [Family; 2] = [
            SamplerKind::UniformWithReplacement,
            SamplerKind::UniformWithoutReplacement,
        ];
        for family in families {
            // Stream A: draw at 5%, then deepen to 15% and drain.
            let mut a = family(0.05).stream(BatchSchedule::one_shot()).unwrap();
            let mut rng_a = rng(7);
            let mut rows_a = a.drain(&t, &mut rng_a).unwrap();
            assert_eq!(rows_a.len(), 100);
            assert!(a.extendable());
            assert!(a.extend_cap(family(0.15)));
            assert_eq!(a.kind(), family(0.15));
            rows_a.extend(a.drain(&t, &mut rng_a).unwrap());
            // Stream B: a fresh draw straight at 15%.
            let rows_b = draw(family(0.15), &t, 7);
            assert_eq!(rows_a.len(), rows_b.len());
            assert_eq!(
                sorted(rows_a),
                sorted(rows_b),
                "deepening == fresh deeper draw"
            );
            // Deepening rejects a different family or a shallower fraction.
            assert!(!a.extend_cap(SamplerKind::Block(0.5)));
            assert!(!a.extend_cap(family(0.01)));
        }
        // With and without replacement are different families.
        let mut wr = SamplerKind::UniformWithReplacement(0.05)
            .stream(BatchSchedule::one_shot())
            .unwrap();
        assert!(!wr.extend_cap(SamplerKind::UniformWithoutReplacement(0.5)));
    }

    #[test]
    fn every_kind_streams() {
        let t = table(600);
        for kind in all_kinds() {
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            assert_eq!(stream.kind(), kind);
            let rows = stream.drain(&t, &mut rng(1)).unwrap();
            assert!(!rows.is_empty(), "{kind:?}");
            assert!(stream.exhausted());
            // A reservoir's cap is its size, and a Bernoulli draw's cap
            // was counted for its `p`.
            let sealed = matches!(kind, SamplerKind::Bernoulli(_) | SamplerKind::Reservoir(_));
            assert_eq!(stream.extendable(), !sealed, "{kind:?}");
            assert_eq!(
                stream.extend_cap(kind.with_fraction(0.5).unwrap_or(kind)),
                !sealed
            );
        }
    }

    #[test]
    fn empty_table_streams_are_immediately_exhausted() {
        let t = table(0);
        for kind in all_kinds() {
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            let mut rng = rng(1);
            assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
            assert!(stream.exhausted(), "{kind:?}");
        }
    }
}
