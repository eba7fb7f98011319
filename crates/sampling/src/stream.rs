//! Streaming samplers: batch-extendable draws for progressive estimation.
//!
//! A one-shot [`RowSampler`] answers "draw a
//! sample of fraction `f`" — the caller must guess `f` up front.  A
//! [`SampleStream`] inverts that: it yields the *same* draw in growing
//! batches, so a consumer can measure after every batch and stop as soon as
//! its accuracy target is met (the sequential-estimation workflow of
//! Nirkhiwale et al.'s sampling algebra).  The contract that makes this
//! lossless is **prefix stability**: stopping a stream after it has drawn
//! `r` rows yields exactly the rows (and, for page-coalesced draws, exactly
//! the physical page reads) of a one-shot draw of `r` rows with the same
//! seed.  The estimator's fixed-fraction parity tests pin this bit-for-bit.
//!
//! Prefix stability holds per sampler for different reasons:
//!
//! * **Uniform with replacement** draws row positions one RNG call at a
//!   time, so any prefix of the position sequence is itself a uniform draw.
//!   Fetches are page-coalesced through a per-stream [`PageCache`], which
//!   holds each verified page it read and decodes only the drawn slots, so
//!   the pages physically read are the distinct pages of the rows drawn so
//!   far — independent of how the draw was split into batches.
//! * **Block sampling** selects pages by partial Fisher–Yates, which
//!   consumes exactly one RNG call per selected page; the first `k` pages
//!   of a longer selection equal a selection of `k` pages
//!   ([`IncrementalFisherYates`] replays the same sequence incrementally).
//! * **Reservoir sampling** needs the full scan before its sample is final,
//!   so the stream pays the whole scan on the first batch and then emits
//!   reservoir slices; progressive stopping saves no I/O for scan-based
//!   samplers, only wall-clock on the measurement side.
//!
//! Batch boundaries come from a [`BatchSchedule`] fixed at construction:
//! geometrically growing row targets capped at the sampler's fraction (or
//! reservoir capacity).  Because the schedule is part of the stream, two
//! consumers that construct the same stream see identical batches — which
//! is what lets `SampleCf::estimate` (one checkpoint) and `ProgressiveCf`
//! (many checkpoints) share one code path and still agree byte-for-byte.

use crate::error::{SamplingError, SamplingResult};
use crate::kind::SamplerKind;
use crate::reservoir::ReservoirSampler;
use crate::sampler::{target_page_count, target_size, validate_fraction, RowSampler, SampledRow};
use rand::{Rng, RngCore};
use samplecf_storage::{Page, PageId, Rid, TableSource};
use std::collections::hash_map::Entry;
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

    /// A schedule whose first batch already covers the whole cap — the
    /// degenerate single-batch case `SampleCf::estimate` uses.
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

/// A batch-extendable sample draw (see the module docs for the prefix
/// stability contract).
///
/// `Send + Sync` so that holders (the advisor's sample cache) can still be
/// shared across evaluation threads; drawing itself requires `&mut self`.
pub trait SampleStream: Send + Sync {
    /// The sampler configuration this stream draws for, with its *current*
    /// cap (deepening via [`extend_cap`](Self::extend_cap) updates it).
    fn kind(&self) -> SamplerKind;

    /// Draw the next batch of rows.  Returns an empty vector once the
    /// stream has reached its cap.  The same `source` and a deterministic
    /// `rng` must be passed on every call.
    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>>;

    /// Total rows drawn so far (duplicates counted).
    fn rows_drawn(&self) -> usize;

    /// Whether the stream has reached its cap.  `false` for a stream that
    /// has not drawn anything yet (the cap is only known once the stream
    /// has seen the source).
    fn exhausted(&self) -> bool;

    /// Raise the stream's cap to a deeper configuration of the same
    /// sampler family, so further `next_batch` calls extend the existing
    /// draw instead of redrawing.  Returns `false` when the stream cannot
    /// be deepened (different family, shallower target, or a scan-based
    /// sampler whose draw is already complete).
    fn extend_cap(&mut self, kind: SamplerKind) -> bool;

    /// Approximate bytes of state this stream retains between batches
    /// (rid frames, cached pages, a held-back reservoir); `row_bytes` is
    /// the price of one decoded row a stream holds.  Holders with a memory
    /// budget (the server's sample cache) charge this against the entry;
    /// dropping the stream releases it.  The default is for streams that
    /// retain nothing worth counting.
    fn approx_retained_bytes(&self, row_bytes: usize) -> usize {
        let _ = row_bytes;
        0
    }

    /// Per-row stratum tags of the batch most recently returned by
    /// [`next_batch`](Self::next_batch), aligned index-for-index with its
    /// rows.  `None` for unstratified streams (a single implicit stratum).
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
        write!(
            f,
            "SampleStream({}, {} rows drawn)",
            self.kind().label(),
            self.rows_drawn()
        )
    }
}

impl SamplerKind {
    /// Whether this sampler kind has a [`SampleStream`] implementation.
    #[must_use]
    pub fn supports_streaming(&self) -> bool {
        matches!(
            self,
            SamplerKind::UniformWithReplacement(_)
                | SamplerKind::Block(_)
                | SamplerKind::Reservoir(_)
                | SamplerKind::Stratified { .. }
        )
    }

    /// The sampler family name, without parameters — the part of the
    /// identity that survives deepening.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            SamplerKind::UniformWithReplacement(_) => "uniform-wr",
            SamplerKind::UniformWithoutReplacement(_) => "uniform-wor",
            SamplerKind::Bernoulli(_) => "bernoulli",
            SamplerKind::Systematic(_) => "systematic",
            SamplerKind::Reservoir(_) => "reservoir",
            SamplerKind::Block(_) => "block",
            SamplerKind::Stratified { .. } => "stratified",
        }
    }

    /// The sampling fraction, for fraction-parameterised kinds.
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        match *self {
            SamplerKind::UniformWithReplacement(f)
            | SamplerKind::UniformWithoutReplacement(f)
            | SamplerKind::Bernoulli(f)
            | SamplerKind::Systematic(f)
            | SamplerKind::Block(f)
            | SamplerKind::Stratified { fraction: f, .. } => Some(f),
            SamplerKind::Reservoir(_) => None,
        }
    }

    /// Create a streaming draw for this sampler kind with the given batch
    /// schedule.
    ///
    /// Supported kinds are uniform-with-replacement, block and reservoir;
    /// the others have no prefix-stable incremental form and return an
    /// error.
    pub fn stream(&self, schedule: BatchSchedule) -> SamplingResult<Box<dyn SampleStream>> {
        match *self {
            SamplerKind::UniformWithReplacement(f) => {
                Ok(Box::new(UniformWrStream::new(f, schedule)?))
            }
            SamplerKind::Block(f) => Ok(Box::new(BlockStream::new(f, schedule)?)),
            SamplerKind::Reservoir(size) => Ok(Box::new(ReservoirStream::new(size, schedule)?)),
            SamplerKind::Stratified {
                fraction,
                strata,
                alloc,
                mode,
            } => Ok(Box::new(crate::stratified::StratifiedStream::new(
                fraction, strata, alloc, mode, schedule,
            )?)),
            other => Err(SamplingError::InvalidSize(format!(
                "sampler {} has no streaming implementation \
                 (progressive estimation supports uniform-wr, block, reservoir \
                 and stratified)",
                other.label()
            ))),
        }
    }
}

/// A per-stream cache of verified pages, keyed by page id.
///
/// Row fetches coalesce through it: the first row needed from a page pays
/// one physical [`read_page_ref`](TableSource::read_page_ref), every later
/// row on that page is a slot lookup plus one record decode.  Only the
/// drawn slots are ever decoded, so a draw costs what the sample keeps.
/// Holding pages trades memory (`page_size` per distinct page the sample
/// touches) for schedule-independent I/O — the poor man's buffer pool that
/// makes the pages-read count of a draw depend only on *which* rows were
/// drawn, not on how the draw was batched.
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

    /// Number of distinct pages cached (== physical reads paid so far).
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

    /// Fetch the row at `rid`, reading (and caching) its page on first use.
    /// A failed read caches nothing, so a retry reads the page again.
    pub fn get(&mut self, source: &dyn TableSource, rid: Rid) -> SamplingResult<SampledRow> {
        let page = match self.pages.entry(rid.page) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => slot.insert(source.read_page_ref(rid.page)?.into_owned()),
        };
        Ok((rid, source.codec().decode(page.get(rid.slot)?)?))
    }
}

/// Fetch the rows at the given positions of the RID frame, sorted by RID
/// and page-coalesced through `cache`.
///
/// Compared with [`fetch_positions`](crate::sampler::fetch_positions), the
/// returned rows are in RID order (duplicates adjacent) rather than draw
/// order — an order change the estimator is insensitive to, since the index
/// bulk load re-sorts by key anyway — and each distinct page costs exactly
/// one physical read instead of one read per drawn row.
pub fn fetch_positions_coalesced(
    source: &dyn TableSource,
    rids: &[Rid],
    positions: &[usize],
    cache: &mut PageCache,
) -> SamplingResult<Vec<SampledRow>> {
    let mut sorted: Vec<usize> = positions.to_vec();
    sorted.sort_unstable();
    sorted
        .into_iter()
        .map(|p| cache.get(source, rids[p]))
        .collect()
}

// ---------------------------------------------------------------------------
// Uniform with replacement
// ---------------------------------------------------------------------------

/// Streaming uniform-with-replacement draw: row positions are generated one
/// RNG call at a time (the same sequence the one-shot sampler consumes) and
/// fetched page-coalesced through a persistent [`PageCache`].
pub struct UniformWrStream {
    fraction: f64,
    schedule: BatchSchedule,
    /// Bound on first use: (frame, cumulative row targets).
    frame: Option<(Vec<Rid>, Vec<usize>)>,
    next_target: usize,
    drawn: usize,
    cache: PageCache,
}

impl UniformWrStream {
    /// Create a stream drawing up to `round(fraction · n)` rows.
    pub fn new(fraction: f64, schedule: BatchSchedule) -> SamplingResult<Self> {
        Ok(UniformWrStream {
            fraction: validate_fraction(fraction)?,
            schedule,
            frame: None,
            next_target: 0,
            drawn: 0,
            cache: PageCache::new(),
        })
    }

    /// Physical pages read so far (the page cache's size).
    #[must_use]
    pub fn pages_read(&self) -> usize {
        self.cache.pages_cached()
    }
}

impl SampleStream for UniformWrStream {
    fn kind(&self) -> SamplerKind {
        SamplerKind::UniformWithReplacement(self.fraction)
    }

    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        if self.frame.is_none() {
            let rids = source.rids()?;
            let max_rows = target_size(rids.len(), self.fraction);
            let targets = self.schedule.cumulative_targets(rids.len(), max_rows);
            self.frame = Some((rids, targets));
        }
        let (rids, targets) = self.frame.as_ref().expect("frame bound above");
        let n = rids.len();
        let Some(&target) = targets.get(self.next_target) else {
            return Ok(Vec::new());
        };
        let batch_rows = target - self.drawn;
        let positions: Vec<usize> = (0..batch_rows).map(|_| rng.gen_range(0..n)).collect();
        let batch = fetch_positions_coalesced(source, rids, &positions, &mut self.cache)?;
        self.drawn = target;
        self.next_target += 1;
        Ok(batch)
    }

    fn rows_drawn(&self) -> usize {
        self.drawn
    }

    fn exhausted(&self) -> bool {
        self.frame
            .as_ref()
            .is_some_and(|(_, targets)| self.next_target >= targets.len())
    }

    fn extend_cap(&mut self, kind: SamplerKind) -> bool {
        let SamplerKind::UniformWithReplacement(f) = kind else {
            return false;
        };
        if f < self.fraction || validate_fraction(f).is_err() {
            return false;
        }
        self.fraction = f;
        if let Some((rids, targets)) = self.frame.as_mut() {
            let max_rows = target_size(rids.len(), f);
            // Re-plan from the rows already drawn: one batch to the new cap.
            targets.truncate(self.next_target);
            if max_rows > self.drawn {
                targets.push(max_rows);
            }
        }
        true
    }

    fn approx_retained_bytes(&self, _row_bytes: usize) -> usize {
        // The rid frame plus every page the page cache holds.
        let frame = self
            .frame
            .as_ref()
            .map_or(0, |(rids, _)| rids.len() * std::mem::size_of::<Rid>());
        frame + self.cache.bytes_cached()
    }
}

// ---------------------------------------------------------------------------
// Block sampling
// ---------------------------------------------------------------------------

/// An incremental partial Fisher–Yates shuffle over `0..length`.
///
/// [`next`](Self::next) consumes exactly one `gen_range(i..length)` call per
/// element, and the sequence it produces is identical to
/// `rand::seq::index::sample(rng, length, amount)` for every `amount` — the
/// prefix-stability property block streaming relies on.  Only displaced
/// slots are tracked, so memory is proportional to the elements drawn.
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

    /// Elements drawn so far.
    #[must_use]
    pub fn drawn(&self) -> usize {
        self.next_index
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

/// Streaming block (page) sampler: pages come out of an
/// [`IncrementalFisherYates`] permutation, so the page set after `k` draws
/// equals a one-shot selection of `k` pages with the same seed.  Each batch
/// reads its new pages in ascending page order.
pub struct BlockStream {
    fraction: f64,
    schedule: BatchSchedule,
    /// Bound on first use: (shuffle over pages, cumulative page targets).
    state: Option<(IncrementalFisherYates, Vec<usize>)>,
    next_target: usize,
    rows_drawn: usize,
}

impl BlockStream {
    /// Create a stream selecting up to `round(fraction · num_pages)` pages.
    pub fn new(fraction: f64, schedule: BatchSchedule) -> SamplingResult<Self> {
        Ok(BlockStream {
            fraction: validate_fraction(fraction)?,
            schedule,
            state: None,
            next_target: 0,
            rows_drawn: 0,
        })
    }

    /// Pages selected so far.
    #[must_use]
    pub fn pages_selected(&self) -> usize {
        self.state.as_ref().map_or(0, |(fy, _)| fy.drawn())
    }
}

impl SampleStream for BlockStream {
    fn kind(&self) -> SamplerKind {
        SamplerKind::Block(self.fraction)
    }

    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        if self.state.is_none() {
            let num_pages = source.num_pages();
            let max_pages = target_page_count(num_pages, self.fraction);
            let targets = self.schedule.cumulative_targets(num_pages, max_pages);
            self.state = Some((IncrementalFisherYates::new(num_pages), targets));
        }
        let (fy, targets) = self.state.as_mut().expect("state bound above");
        let Some(&target) = targets.get(self.next_target) else {
            return Ok(Vec::new());
        };
        let mut page_ids: Vec<PageId> = Vec::with_capacity(target - fy.drawn());
        while fy.drawn() < target {
            let p = fy.next(rng).expect("targets never exceed the page count");
            page_ids.push(p as PageId);
        }
        page_ids.sort_unstable();
        let mut batch = Vec::new();
        for pid in page_ids {
            batch.extend(source.page_rows(pid)?);
        }
        self.rows_drawn += batch.len();
        self.next_target += 1;
        Ok(batch)
    }

    fn rows_drawn(&self) -> usize {
        self.rows_drawn
    }

    fn exhausted(&self) -> bool {
        self.state
            .as_ref()
            .is_some_and(|(_, targets)| self.next_target >= targets.len())
    }

    fn extend_cap(&mut self, kind: SamplerKind) -> bool {
        let SamplerKind::Block(f) = kind else {
            return false;
        };
        if f < self.fraction || validate_fraction(f).is_err() {
            return false;
        }
        self.fraction = f;
        if let Some((fy, targets)) = self.state.as_mut() {
            let max_pages = target_page_count(fy.length, f);
            targets.truncate(self.next_target);
            if max_pages > fy.drawn() {
                targets.push(max_pages);
            }
        }
        true
    }

    fn approx_retained_bytes(&self, _row_bytes: usize) -> usize {
        // Only the displaced-slot map of the partial shuffle: two words per
        // page drawn so far.
        self.pages_selected() * 2 * std::mem::size_of::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Reservoir sampling
// ---------------------------------------------------------------------------

/// Streaming reservoir draw.  Reservoir sampling needs the complete scan
/// before any row's membership is final, so the first batch runs the
/// one-shot sampler (paying the full-scan I/O) and later batches emit
/// slices of the finished reservoir on the stream's schedule.  Progressive
/// consumers still get growing sub-samples to measure on, but no I/O is
/// saved by stopping early — the honest cost model of scan-based samplers.
pub struct ReservoirStream {
    size: usize,
    schedule: BatchSchedule,
    /// Bound on first use: (finished reservoir, cumulative row targets).
    reservoir: Option<(Vec<SampledRow>, Vec<usize>)>,
    next_target: usize,
    emitted: usize,
}

impl ReservoirStream {
    /// Create a stream for a reservoir of `size` rows.
    pub fn new(size: usize, schedule: BatchSchedule) -> SamplingResult<Self> {
        // Validate eagerly, exactly like the one-shot sampler.
        let _ = ReservoirSampler::new(size)?;
        Ok(ReservoirStream {
            size,
            schedule,
            reservoir: None,
            next_target: 0,
            emitted: 0,
        })
    }
}

impl SampleStream for ReservoirStream {
    fn kind(&self) -> SamplerKind {
        SamplerKind::Reservoir(self.size)
    }

    fn next_batch(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<Vec<SampledRow>> {
        if self.reservoir.is_none() {
            let rows = ReservoirSampler::new(self.size)?.sample(source, rng)?;
            // Slice targets follow the same row schedule as the other
            // streams, capped at the reservoir's actual size.
            let max_rows = rows.len();
            let targets = self
                .schedule
                .cumulative_targets(source.num_rows(), max_rows);
            self.reservoir = Some((rows, targets));
        }
        let (rows, targets) = self.reservoir.as_ref().expect("reservoir bound above");
        let Some(&target) = targets.get(self.next_target) else {
            return Ok(Vec::new());
        };
        let batch = rows[self.emitted..target].to_vec();
        self.emitted = target;
        self.next_target += 1;
        Ok(batch)
    }

    fn rows_drawn(&self) -> usize {
        self.emitted
    }

    fn exhausted(&self) -> bool {
        self.reservoir
            .as_ref()
            .is_some_and(|(_, targets)| self.next_target >= targets.len())
    }

    fn extend_cap(&mut self, _kind: SamplerKind) -> bool {
        // A finished reservoir cannot grow losslessly: rows evicted during
        // the scan are gone.  Callers must redraw at the larger capacity.
        false
    }

    fn approx_retained_bytes(&self, row_bytes: usize) -> usize {
        // The whole scanned reservoir is held until sliced out.
        self.reservoir.as_ref().map_or(0, |(rows, _)| {
            rows.len() * (std::mem::size_of::<SampledRow>() + row_bytes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSampler;
    use crate::uniform::UniformWithReplacement;
    use rand::rngs::StdRng;
    use rand::seq::index;
    use rand::SeedableRng;
    use samplecf_storage::{CountingSource, Row, Schema, Table, TableBuilder, Value};

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    fn drain(
        stream: &mut dyn SampleStream,
        source: &dyn TableSource,
        rng: &mut StdRng,
    ) -> Vec<Vec<SampledRow>> {
        let mut batches = Vec::new();
        loop {
            let b = stream.next_batch(source, rng).unwrap();
            if b.is_empty() {
                break;
            }
            batches.push(b);
        }
        batches
    }

    fn sorted(mut rows: Vec<SampledRow>) -> Vec<SampledRow> {
        rows.sort_by_key(|(rid, _)| *rid);
        rows
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
        // The property the block stream's parity rests on: for any amount,
        // index::sample equals the first `amount` draws of the incremental
        // shuffle with the same seed.
        for length in [10usize, 100, 1000] {
            for amount in [1usize, 3, 7, length / 2, length] {
                let oneshot =
                    index::sample(&mut StdRng::seed_from_u64(9), length, amount).into_vec();
                let mut fy = IncrementalFisherYates::new(length);
                let mut rng = StdRng::seed_from_u64(9);
                let incremental: Vec<usize> =
                    (0..amount).map(|_| fy.next(&mut rng).unwrap()).collect();
                assert_eq!(incremental, oneshot, "length={length} amount={amount}");
            }
        }
    }

    #[test]
    fn uniform_stream_drains_to_the_one_shot_multiset() {
        let t = table(2_000);
        let kind = SamplerKind::UniformWithReplacement(0.1);
        let oneshot = UniformWithReplacement::new(0.1)
            .unwrap()
            .sample(&t, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let mut stream = kind.stream(BatchSchedule::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let batches = drain(stream.as_mut(), &t, &mut rng);
        assert!(batches.len() > 1, "expected several geometric batches");
        let drained: Vec<SampledRow> = batches.into_iter().flatten().collect();
        assert_eq!(drained.len(), 200);
        assert_eq!(stream.rows_drawn(), 200);
        assert!(stream.exhausted());
        assert_eq!(sorted(drained), sorted(oneshot));
        // A drained stream keeps returning empty batches.
        assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn uniform_stream_page_reads_are_schedule_independent() {
        let t = table(3_000);
        let mut pages = Vec::new();
        for schedule in [
            BatchSchedule::one_shot(),
            BatchSchedule::default(),
            BatchSchedule::new(0.001, 1.3).unwrap(),
        ] {
            let counting = CountingSource::new(&t);
            let mut stream = SamplerKind::UniformWithReplacement(0.05)
                .stream(schedule)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            drain(stream.as_mut(), &counting, &mut rng);
            pages.push(counting.pages_read());
        }
        assert_eq!(pages[0], pages[1], "page cache must erase batch boundaries");
        assert_eq!(pages[0], pages[2]);
    }

    #[test]
    fn block_stream_selects_the_one_shot_page_set() {
        let t = table(4_000);
        let kind = SamplerKind::Block(0.25);
        let oneshot_ids = BlockSampler::new(0.25)
            .unwrap()
            .sample_page_ids(&t, &mut StdRng::seed_from_u64(11));
        let counting = CountingSource::new(&t);
        let mut stream = kind.stream(BatchSchedule::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let batches = drain(stream.as_mut(), &counting, &mut rng);
        assert!(batches.len() > 1);
        let mut pages: Vec<PageId> = batches
            .iter()
            .flatten()
            .map(|(rid, _)| rid.page)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        pages.sort_unstable();
        assert_eq!(pages, oneshot_ids);
        assert_eq!(counting.pages_read() as usize, oneshot_ids.len());
    }

    #[test]
    fn reservoir_stream_emits_the_one_shot_reservoir_in_slices() {
        let t = table(1_500);
        let oneshot = ReservoirSampler::new(120)
            .unwrap()
            .sample(&t, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let counting = CountingSource::new(&t);
        let mut stream = SamplerKind::Reservoir(120)
            .stream(BatchSchedule::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let batches = drain(stream.as_mut(), &counting, &mut rng);
        let drained: Vec<SampledRow> = batches.into_iter().flatten().collect();
        assert_eq!(drained, oneshot, "slices concatenate to the reservoir");
        // The scan was paid once, on the first batch.
        assert_eq!(counting.pages_read() as usize, t.num_pages());
        assert!(!stream.extend_cap(SamplerKind::Reservoir(500)));
    }

    #[test]
    fn extending_the_cap_continues_the_draw_prefix() {
        let t = table(2_000);
        // Stream A: draw at 5%, then deepen to 15% and drain.
        let mut a = SamplerKind::UniformWithReplacement(0.05)
            .stream(BatchSchedule::one_shot())
            .unwrap();
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rows_a: Vec<SampledRow> = drain(a.as_mut(), &t, &mut rng_a).concat();
        assert_eq!(rows_a.len(), 100);
        assert!(a.extend_cap(SamplerKind::UniformWithReplacement(0.15)));
        assert_eq!(a.kind(), SamplerKind::UniformWithReplacement(0.15));
        rows_a.extend(drain(a.as_mut(), &t, &mut rng_a).concat());
        // Stream B: a fresh draw straight at 15%.
        let rows_b = UniformWithReplacement::new(0.15)
            .unwrap()
            .sample(&t, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(rows_a.len(), rows_b.len());
        assert_eq!(
            sorted(rows_a),
            sorted(rows_b),
            "deepening == fresh deeper draw"
        );
        // Deepening rejects a different family or a shallower fraction.
        assert!(!a.extend_cap(SamplerKind::Block(0.5)));
        assert!(!a.extend_cap(SamplerKind::UniformWithReplacement(0.01)));
    }

    #[test]
    fn non_streaming_kinds_report_a_clear_error() {
        for kind in [
            SamplerKind::Bernoulli(0.1),
            SamplerKind::Systematic(0.1),
            SamplerKind::UniformWithoutReplacement(0.1),
        ] {
            assert!(!kind.supports_streaming());
            let err = kind.stream(BatchSchedule::default()).unwrap_err();
            assert!(err.to_string().contains("streaming"), "{err}");
        }
        for kind in [
            SamplerKind::UniformWithReplacement(0.1),
            SamplerKind::Block(0.1),
            SamplerKind::Reservoir(5),
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 4,
                alloc: crate::kind::Allocation::Neyman,
                mode: crate::kind::StrataMode::EquiWidth,
            },
        ] {
            assert!(kind.supports_streaming());
        }
    }

    #[test]
    fn empty_table_streams_are_immediately_exhausted() {
        let t = table(0);
        for kind in [
            SamplerKind::UniformWithReplacement(0.5),
            SamplerKind::Block(0.5),
            SamplerKind::Reservoir(5),
        ] {
            let mut stream = kind.stream(BatchSchedule::default()).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
            assert!(stream.exhausted(), "{kind:?}");
            assert_eq!(stream.rows_drawn(), 0);
        }
    }
}
