//! The shared, evicting sample cache behind `samplecfd` — the one place a
//! sample is held between requests.
//!
//! Nirkhiwale et al. (*A Sampling Algebra for Aggregate Estimation*)
//! motivate treating a sample as a first-class object with its own
//! lifecycle; a [`CachedSample`] is that object: one drawn
//! [`MaterializedSample`], what its draw cost, and the live stream that can
//! still deepen it.  The cache holds one per *(table identity, sampler
//! kind and fraction, seed)* group, shared by every request that asks for
//! that configuration:
//!
//! * **Hits are lock-light and zero-I/O** — a request that finds its group
//!   `Ready` leaves with an [`Arc`] snapshot of the drawn sample; the
//!   estimator then works entirely outside the cache lock.
//! * **Duplicate in-flight requests coalesce** — the first miss marks the
//!   group `InFlight` and draws *outside* the lock; concurrent requests for
//!   the same group block on a condvar instead of re-reading pages, and are
//!   woken into a plain hit when the draw lands.  This is what makes "M
//!   concurrent clients, one page-read pass per group" a guarantee rather
//!   than a race.
//! * **Deepening reuses shallow draws** — a request for a deeper fraction
//!   of an existing group's family extends the cached sample through its
//!   live stream ([`CachedSample::deepen`]), drawing only the new rows: a
//!   block sample reads only its new pages, a row draw each distinct page
//!   its new rows land on (a finished row stream holds no page).
//!   The shallow key retires; snapshots handed out earlier are immutable
//!   and unaffected (a deepen copies the sample's batches first only while
//!   some request still holds the shallower snapshot).
//! * **A byte budget bounds residency** — every entry is priced by
//!   [`CachedSample::approx_bytes`], the key orders its measures left with
//!   the sample included, and re-priced under the cache lock at each
//!   acquisition; when the total exceeds the budget the least-recently-used
//!   `Ready` entries are evicted (never in-flight draws, never the entry
//!   just used).  Evicted groups simply miss again.
//! * **A panicking draw fails alone** — the in-flight marker is owned by a
//!   guard that removes it and wakes the coalesced waiters if the draw
//!   unwinds instead of publishing; one of them then draws for itself.
//!
//! One lock, one condvar, one LRU and one budget: draws, deepenings and
//! measures all run outside the lock, which is held only for map
//! bookkeeping, so the daemon's worker pool is its only parallel axis.

use crate::protocol::CacheDisposition;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_core::CoreResult;
use samplecf_obs::{Counter, Gauge, MetricsRegistry};
use samplecf_sampling::{
    BatchSchedule, MaterializedSample, RecordBatch, SampleStream, SamplerKind,
};
use samplecf_storage::{CountingSource, PageId, SharedSource};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One held sample plus its cost accounting.
///
/// The entry holds the sample in its one form — a [`MaterializedSample`]
/// (the drawn batches, stratum tags and key orders) behind an [`Arc`], so
/// concurrent requests can keep an immutable snapshot and measure it with
/// [`measure_sample`](samplecf_core::measure_sample) outside any lock.
/// Entries are [`draw`](Self::draw)n and [`deepen`](Self::deepen)ed in
/// place; [`ConcurrentSampleCache`] keys, locks and evicts them.
pub struct CachedSample {
    /// The source the sample was drawn from, kept to deepen it.
    source: SharedSource,
    kind: SamplerKind,
    seed: u64,
    /// Behind an [`Arc`] so a snapshot handed out earlier survives a later
    /// [`deepen`](Self::deepen): deepening extends in place when the entry
    /// is the only holder and copies the batches first when it is not.
    sample: Arc<MaterializedSample>,
    /// What one fresh draw at this entry's configuration reads.
    pages_read: u64,
    /// Live draw state, held only while the stream can still be extended
    /// ([`SampleStream::extendable`]): keeping the stream and its RNG is
    /// what allows the entry to be deepened later by drawing only the new
    /// rows.
    stream: Option<(Box<dyn SampleStream>, StdRng)>,
}

impl CachedSample {
    /// Draw and materialize one sample, accounting its I/O.
    ///
    /// The draw goes through a [`CountingSource`], so
    /// [`pages_read`](Self::pages_read) records exactly how many physical
    /// pages it cost.  The live stream is kept in the entry while it can
    /// still be extended, so a later request for a *deeper* fraction of the
    /// same (source, family, seed) can [`deepen`](Self::deepen) the draw
    /// instead of redrawing; a stream that cannot be deepened (a
    /// reservoir's, whose cap is its size, or a Bernoulli draw's) is
    /// dropped here, with the rows and pages it held.
    pub fn draw(source: &SharedSource, kind: SamplerKind, seed: u64) -> CoreResult<CachedSample> {
        let counting = CountingSource::new(source.as_ref());
        let mut stream = kind.stream(BatchSchedule::one_shot())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = MaterializedSample::from_stream(&counting, stream.as_mut(), &mut rng, seed)?;
        let pages_read = counting.pages_read();
        Ok(CachedSample {
            source: Arc::clone(source),
            kind,
            seed,
            sample: Arc::new(sample),
            pages_read,
            stream: stream.extendable().then_some((stream, rng)),
        })
    }

    /// Whether [`deepen`](Self::deepen) to `kind` can extend this entry:
    /// the live stream is still held and `kind` is this entry's sampler at
    /// a strictly deeper fraction ([`SamplerKind::deepened_to`]) — a
    /// stratified kind's strata, allocation and mode included.
    #[must_use]
    pub fn deepenable_to(&self, kind: SamplerKind) -> bool {
        self.stream.is_some() && kind != self.kind && self.kind.deepened_to(kind).is_some()
    }

    /// Extend this entry's sample in place to the deeper configuration
    /// `kind`, drawing only the new rows.  Returns the pages physically read
    /// for them — a block sample's new pages, or each distinct page a row
    /// draw's new rows land on, once, whether or not the shallower draw read
    /// it (a finished row stream holds no page) — or `None` when the entry
    /// cannot be deepened (it holds no live
    /// stream — a reservoir's or a Bernoulli draw's never does — or `kind`
    /// differs in more than its fraction, or is not strictly deeper) — in
    /// which case it is untouched.
    ///
    /// Prefix-stable streams make deepening lossless: afterwards the entry
    /// holds exactly the rows a fresh draw at the deeper fraction with the
    /// same seed would hold (as a multiset — batches arrive rid-sorted per
    /// chunk), and its [`pages_read`](Self::pages_read) is counted afresh
    /// as that fresh draw's cost: the distinct pages of its rows.  The key
    /// orders held for the shallower rows stay: the next measure by one
    /// sorts only the new rows.
    pub fn deepen(&mut self, kind: SamplerKind) -> CoreResult<Option<u64>> {
        if !self.deepenable_to(kind) {
            return Ok(None);
        }
        let (stream, rng) = self
            .stream
            .as_mut()
            .expect("deepenable_to checked the stream");
        if !stream.extend_cap(kind) {
            return Ok(None);
        }
        let counting = CountingSource::new(self.source.as_ref());
        Arc::make_mut(&mut self.sample).extend_from_stream(&counting, stream.as_mut(), rng)?;
        self.pages_read = distinct_pages(&self.sample);
        self.kind = kind;
        Ok(Some(counting.pages_read()))
    }

    /// The sampler configuration of this entry.
    #[must_use]
    pub fn kind(&self) -> SamplerKind {
        self.kind
    }

    /// The RNG seed of this entry.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The materialized sample itself.  Clone the handle to keep a
    /// snapshot: it is immutable, so holders keep reading exactly the rows
    /// of the fraction they asked for through any later
    /// [`deepen`](Self::deepen).
    #[must_use]
    pub fn sample(&self) -> &Arc<MaterializedSample> {
        &self.sample
    }

    /// What one fresh draw at this entry's configuration reads from the
    /// source: the pages its draw read, and after a deepening the distinct
    /// pages of its rows (a block sample's pages, each page a row draw's
    /// rows land on), not the sum of the reads that built it.
    #[must_use]
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// This entry's resident size in bytes — exactly what it retains: the
    /// sample's batches (record arenas and RIDs), its stratum tags, the key
    /// orders measures left with it (four bytes per row each covers), and
    /// any state the live stream holds for deepening (a shuffle's displaced
    /// slots; a stream at its cap holds no page, and the sampling frame is
    /// arithmetic and costs nothing).  This is the unit the cache's byte
    /// budget evicts against.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.sample.retained_bytes()
            + (self.stream.as_ref()).map_or(0, |(stream, _)| stream.approx_retained_bytes())
    }
}

/// The distinct pages `sample`'s rows lie on: what one fresh draw of those
/// rows by pages or by positions reads.
fn distinct_pages(sample: &MaterializedSample) -> u64 {
    let rids = sample.batches().iter().flat_map(RecordBatch::iter);
    let mut pages: Vec<PageId> = rids.map(|(rid, _)| rid.page).collect();
    pages.sort_unstable();
    pages.dedup();
    pages.len() as u64
}

impl std::fmt::Debug for CachedSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSample")
            .field("source", &self.source.name())
            .field("kind", &self.kind)
            .field("seed", &self.seed)
            .field("rows", &self.sample.len())
            .field("pages_read", &self.pages_read)
            .field("extendable", &self.stream.is_some())
            .finish()
    }
}

/// Default byte budget: generous for tests and laptop use, small enough to
/// matter under sustained many-table traffic.
pub const DEFAULT_CACHE_BUDGET_BYTES: usize = 256 * 1024 * 1024;

type GroupKey = (usize, String, u64);

/// Identity of a source handle.  Two requests share a group only when their
/// handles point at the *same* allocation (clones of one [`SharedSource`]),
/// so distinct tables never alias — not even two handles to byte-identical
/// data.
fn source_id(source: &SharedSource) -> usize {
    Arc::as_ptr(source).cast::<()>() as usize
}

fn group_key(source: &SharedSource, kind: SamplerKind, seed: u64) -> GroupKey {
    (source_id(source), kind.label(), seed)
}

/// Counters the `stats` op reports; a consistent snapshot of cache health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready entries currently resident.
    pub entries: usize,
    /// Total priced bytes of resident entries.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Requests served from a resident entry (zero I/O).
    pub hits: u64,
    /// Requests that drew a fresh sample.
    pub misses: u64,
    /// Requests served by extending a shallower resident sample.
    pub deepened: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Times a request blocked on another request's in-flight draw instead
    /// of drawing itself — the coalescing counter.
    pub coalesced_waits: u64,
    /// Physical pages read by the cache across all draws and deepenings.
    pub pages_read: u64,
}

/// What a request leaves the cache with: an immutable snapshot of the drawn
/// sample plus this acquisition's accounting.
#[derive(Clone)]
pub struct AcquiredSample {
    /// The drawn sample at exactly the requested configuration.
    pub sample: Arc<MaterializedSample>,
    /// The configuration served.
    pub kind: SamplerKind,
    /// The seed served.
    pub seed: u64,
    /// Pages physically read *by this acquisition* (0 on a hit, the new
    /// rows' pages on a deepening, the full draw on a miss).
    pub pages_read: u64,
    /// What one fresh draw at this configuration costs
    /// ([`CachedSample::pages_read`]), not the sum of the acquisitions that
    /// built the entry: the per-request unit of the naive no-cache
    /// baseline.
    pub entry_pages_total: u64,
    /// How the cache served this request.
    pub disposition: CacheDisposition,
}

struct ReadyGroup {
    /// The live entry.  Readers leave with a clone of its sample handle; a
    /// deepener takes the whole group out of the cache first, so the entry
    /// is only ever mutated by its exclusive owner.
    entry: CachedSample,
    /// `entry.approx_bytes()` as charged against the budget when it
    /// was last acquired — its readers' measures may have left key orders
    /// with the sample since.
    bytes: usize,
    last_used: u64,
}

enum Slot {
    /// A draw for this key is running on some worker; wait, don't redraw.
    InFlight,
    Ready(ReadyGroup),
}

/// The cache's instruments, registry-backed so the daemon's `metrics`
/// exposition sees cache behavior live.  The counters live under the
/// cache's mutex, so increments are uncontended relaxed stores — the
/// registry handle is the storage, not a copy.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    deepened: Counter,
    evictions: Counter,
    coalesced_waits: Counter,
    pages_read: Counter,
    bytes: Gauge,
    entries: Gauge,
}

impl CacheMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let name = |metric: &str| format!("samplecf_cache_{metric}");
        CacheMetrics {
            hits: registry.counter(&name("hits_total")),
            misses: registry.counter(&name("misses_total")),
            deepened: registry.counter(&name("deepened_total")),
            evictions: registry.counter(&name("evictions_total")),
            coalesced_waits: registry.counter(&name("coalesced_waits_total")),
            pages_read: registry.counter(&name("pages_read_total")),
            bytes: registry.gauge(&name("bytes")),
            entries: registry.gauge(&name("entries")),
        }
    }
}

struct State {
    slots: HashMap<GroupKey, Slot>,
    clock: u64,
    total_bytes: usize,
    metrics: CacheMetrics,
}

impl State {
    fn new(metrics: CacheMetrics) -> Self {
        State {
            slots: HashMap::new(),
            clock: 0,
            total_bytes: 0,
            metrics,
        }
    }

    fn ready_entries(&self) -> usize {
        self.slots
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Re-publish the residency gauges after any slot/byte mutation.
    fn sync_gauges(&self) {
        self.metrics.bytes.set(self.total_bytes as u64);
        self.metrics.entries.set(self.ready_entries() as u64);
    }
}

/// The concurrent, evicting sample cache (see the module docs).
pub struct ConcurrentSampleCache {
    budget_bytes: usize,
    state: Mutex<State>,
    /// Woken when an in-flight draw publishes or is abandoned.
    ready: Condvar,
}

/// Recover from a poisoned lock: the data is a cache, a panicked drawer's
/// partial state was never published.
fn lock_state(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ConcurrentSampleCache {
    /// A cache holding at most `budget_bytes` (use
    /// [`DEFAULT_CACHE_BUDGET_BYTES`] when in doubt).  A budget of 0 means
    /// "cache nothing beyond the entry currently in use".  Counters feed a
    /// private metrics registry; use [`Self::with_registry`] to share the
    /// daemon's.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_registry(budget_bytes, &MetricsRegistry::new())
    }

    /// As [`Self::new`], with the hit/miss/deepen/evict counters and the
    /// byte/entry gauges registered in `registry` under `samplecf_cache_*`
    /// names.
    #[must_use]
    pub fn with_registry(budget_bytes: usize, registry: &MetricsRegistry) -> Self {
        ConcurrentSampleCache {
            budget_bytes,
            state: Mutex::new(State::new(CacheMetrics::register(registry))),
            ready: Condvar::new(),
        }
    }

    /// Serve one sample request: hit, deepen, or draw — coalescing with any
    /// concurrent request for the same group.
    ///
    /// The returned snapshot holds exactly the rows a fresh
    /// [`CachedSample::draw`] (equivalently, a single-shot
    /// `SampleCf::estimate`) with the same `(kind, seed)` would see, so
    /// measurements taken from it are byte-identical to the single-process
    /// path seed-for-seed.
    pub fn acquire(
        &self,
        source: &SharedSource,
        kind: SamplerKind,
        seed: u64,
    ) -> CoreResult<AcquiredSample> {
        // Validate the sampler before touching shared state, so a malformed
        // request can never leave an in-flight marker behind.
        kind.validate()?;
        let key = group_key(source, kind, seed);

        let mut state = lock_state(&self.state);
        loop {
            match state.slots.get_mut(&key) {
                Some(Slot::Ready(_)) => {
                    state.clock += 1;
                    let now = state.clock;
                    let Some(Slot::Ready(group)) = state.slots.get_mut(&key) else {
                        unreachable!("checked Ready above");
                    };
                    group.last_used = now;
                    let acquired = AcquiredSample {
                        sample: Arc::clone(group.entry.sample()),
                        kind,
                        seed,
                        pages_read: 0,
                        entry_pages_total: group.entry.pages_read(),
                        disposition: CacheDisposition::Hit,
                    };
                    // Re-price: the last readers may have left key orders.
                    let bytes = group.entry.approx_bytes();
                    let charged = std::mem::replace(&mut group.bytes, bytes);
                    state.total_bytes = state.total_bytes - charged + bytes;
                    self.evict_over_budget(&mut state, &key);
                    state.sync_gauges();
                    state.metrics.hits.inc();
                    return Ok(acquired);
                }
                Some(Slot::InFlight) => {
                    state.metrics.coalesced_waits.inc();
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                None => break,
            }
        }

        // Miss.  Prefer deepening the deepest extendable entry of the same
        // source, seed and kind but its fraction — one entry per fraction,
        // so no tie to break; otherwise draw fresh.  Either way the key
        // goes in-flight so concurrent requests coalesce onto this one.
        let deepen_from = Self::pick_deepen_victim(&mut state, &key, kind, seed);
        state.slots.insert(key.clone(), Slot::InFlight);
        match &deepen_from {
            Some(base) => state.total_bytes -= base.bytes,
            None => state.metrics.misses.inc(),
        }
        // Only now: the marker's drop takes the lock.
        drop(state);
        let marker = InFlight {
            cache: self,
            key: Some(key),
        };
        match deepen_from {
            Some(base) => self.deepen_into(marker, base, source, kind, seed),
            None => self.draw_into(marker, source, kind, seed),
        }
    }

    /// Draw a fresh entry outside the lock and publish it under its
    /// in-flight `marker`; if the draw fails, dropping the marker clears it.
    fn draw_into(
        &self,
        marker: InFlight<'_>,
        source: &SharedSource,
        kind: SamplerKind,
        seed: u64,
    ) -> CoreResult<AcquiredSample> {
        let entry = CachedSample::draw(source, kind, seed)?;
        let pages = entry.pages_read();
        Ok(self.publish(marker, entry, pages, CacheDisposition::Miss))
    }

    /// Under the lock: find, remove and return the deepest `Ready` entry
    /// this request may extend.  Removing it up front gives the deepener
    /// exclusive ownership; later requests for the retired shallow key
    /// redraw it.
    fn pick_deepen_victim(
        state: &mut State,
        key: &GroupKey,
        kind: SamplerKind,
        seed: u64,
    ) -> Option<ReadyGroup> {
        let source_id = key.0;
        let mut best: Option<(GroupKey, f64)> = None;
        for (candidate_key, slot) in &state.slots {
            let Slot::Ready(group) = slot else { continue };
            if candidate_key.0 != source_id || candidate_key.2 != seed {
                continue;
            }
            if !group.entry.deepenable_to(kind) {
                continue;
            }
            let fraction = group.entry.kind().fraction().unwrap_or(0.0);
            if best.as_ref().is_none_or(|(_, f)| fraction > *f) {
                best = Some((candidate_key.clone(), fraction));
            }
        }
        let (victim_key, _) = best?;
        match state.slots.remove(&victim_key) {
            Some(Slot::Ready(group)) => Some(group),
            _ => unreachable!("victim was Ready under the same lock"),
        }
    }

    /// Extend `base` to `kind` and publish it under its in-flight `marker`.
    /// Falls back to a fresh draw if the stream refuses the extension after
    /// all.
    fn deepen_into(
        &self,
        marker: InFlight<'_>,
        base: ReadyGroup,
        source: &SharedSource,
        kind: SamplerKind,
        seed: u64,
    ) -> CoreResult<AcquiredSample> {
        // The entry extends its sample in place unless a request still reads
        // the shallow snapshot, in which case it copies the pages first.
        let mut entry = base.entry;
        match entry.deepen(kind)? {
            Some(delta) => Ok(self.publish(marker, entry, delta, CacheDisposition::Deepened)),
            None => {
                // The stream refused the new cap after `deepenable_to`
                // admitted it: draw fresh under the marker we already hold.
                lock_state(&self.state).metrics.misses.inc();
                self.draw_into(marker, source, kind, seed)
            }
        }
    }

    /// Publish a finished (drawn or deepened) entry under its in-flight key,
    /// account the pages this acquisition read, evict as needed, and wake
    /// coalesced waiters.
    fn publish(
        &self,
        marker: InFlight<'_>,
        entry: CachedSample,
        acquisition_pages: u64,
        disposition: CacheDisposition,
    ) -> AcquiredSample {
        let key = marker.publish();
        let acquired = AcquiredSample {
            sample: Arc::clone(entry.sample()),
            kind: entry.kind(),
            seed: entry.seed(),
            pages_read: acquisition_pages,
            entry_pages_total: entry.pages_read(),
            disposition,
        };
        let bytes = entry.approx_bytes();
        let mut state = lock_state(&self.state);
        if disposition == CacheDisposition::Deepened {
            state.metrics.deepened.inc();
        }
        state.metrics.pages_read.add(acquisition_pages);
        state.clock += 1;
        let last_used = state.clock;
        state.total_bytes += bytes;
        state.slots.insert(
            key.clone(),
            Slot::Ready(ReadyGroup {
                entry,
                bytes,
                last_used,
            }),
        );
        self.evict_over_budget(&mut state, &key);
        state.sync_gauges();
        drop(state);
        self.ready.notify_all();
        acquired
    }

    /// Evict least-recently-used `Ready` entries until the budget fits,
    /// never touching in-flight draws or the entry just used
    /// (`protect`).  If the protected entry alone exceeds the budget it
    /// stays — the cache must still serve it; it will be the first victim
    /// of the next insert.
    fn evict_over_budget(&self, state: &mut State, protect: &GroupKey) {
        while state.total_bytes > self.budget_bytes {
            let victim = state
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready(group) if key != protect => Some((key.clone(), group.last_used)),
                    _ => None,
                })
                .min_by_key(|(_, last_used)| *last_used)
                .map(|(key, _)| key);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready(group)) = state.slots.remove(&victim) {
                state.total_bytes -= group.bytes;
                state.metrics.evictions.inc();
            }
        }
    }

    /// A consistent snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let state = lock_state(&self.state);
        CacheStats {
            entries: state.ready_entries(),
            bytes: state.total_bytes,
            budget_bytes: self.budget_bytes,
            hits: state.metrics.hits.get(),
            misses: state.metrics.misses.get(),
            deepened: state.metrics.deepened.get(),
            evictions: state.metrics.evictions.get(),
            coalesced_waits: state.metrics.coalesced_waits.get(),
            pages_read: state.metrics.pages_read.get(),
        }
    }
}

/// A group's in-flight marker, owned by the request drawing (or deepening)
/// it.  [`publish`](Self::publish) hands the key over to the `Ready` entry;
/// dropped any other way — the draw failed, or panicked and is unwinding —
/// the marker removes itself and wakes the waiters, so one of them can draw
/// instead (and surface its own error if that fails too).
struct InFlight<'c> {
    cache: &'c ConcurrentSampleCache,
    /// `None` once published.
    key: Option<GroupKey>,
}

impl InFlight<'_> {
    fn publish(mut self) -> GroupKey {
        self.key.take().expect("a marker is published once")
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else { return };
        let mut state = lock_state(&self.cache.state);
        state.slots.remove(&key);
        state.sync_gauges();
        drop(state);
        self.cache.ready.notify_all();
    }
}

impl std::fmt::Debug for ConcurrentSampleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ConcurrentSampleCache")
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("budget_bytes", &stats.budget_bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use samplecf_compression::RunLengthEncoding;
    use samplecf_core::{measure_sample, SampleCf};
    use samplecf_datagen::presets;
    use samplecf_index::{IndexBuilder, IndexSpec};
    use samplecf_sampling::IncrementalFisherYates;
    use samplecf_storage::{
        IntoShared, Page, PageId, Rid, RowCodec, Schema, StorageResult, TableSource,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// A source whose first page read panics once `released` is raised (so
    /// a test can line requests up behind the read first); every later read
    /// passes through.
    pub(crate) struct PanickingReads {
        pub(crate) inner: SharedSource,
        pub(crate) armed: AtomicBool,
        pub(crate) released: AtomicBool,
    }

    impl TableSource for PanickingReads {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn codec(&self) -> &RowCodec {
            self.inner.codec()
        }
        fn num_rows(&self) -> usize {
            self.inner.num_rows()
        }
        fn num_pages(&self) -> usize {
            self.inner.num_pages()
        }
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn read_page(&self, id: PageId) -> StorageResult<Page> {
            if self.armed.swap(false, Ordering::SeqCst) {
                while !self.released.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                panic!("injected page-read panic");
            }
            self.inner.read_page(id)
        }
    }

    fn counted_table(rows: usize, seed: u64) -> (Arc<CountingSource<SharedSource>>, SharedSource) {
        let table = presets::single_char_table("t", rows, 24, 40, 8, seed)
            .generate()
            .unwrap()
            .table;
        let counting = Arc::new(CountingSource::new(table.into_shared()));
        let shared = Arc::clone(&counting) as SharedSource;
        (counting, shared)
    }

    fn table(name: &str, seed: u64) -> SharedSource {
        presets::single_char_table(name, 2_000, 16, 50, 8, seed)
            .generate()
            .unwrap()
            .table
            .into_shared()
    }

    #[test]
    fn identical_tables_behind_distinct_handles_do_not_alias() {
        let a = table("same", 7);
        let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
        let kind = SamplerKind::Block(0.1);
        let drawn = cache.acquire(&a, kind, 0).unwrap();
        assert_eq!(drawn.disposition, CacheDisposition::Miss);
        // A clone of the same handle aliases...
        let a2 = Arc::clone(&a);
        let hit = cache.acquire(&a2, kind, 0).unwrap();
        assert_eq!(hit.disposition, CacheDisposition::Hit);
        // ...but a fresh handle to byte-identical data never does.
        let b = table("same", 7);
        let fresh = cache.acquire(&b, kind, 0).unwrap();
        assert_eq!(
            fresh.disposition,
            CacheDisposition::Miss,
            "identity is the allocation, not the name"
        );
        assert_eq!(fresh.sample.rows().unwrap(), drawn.sample.rows().unwrap());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn standalone_entries_draw_and_deepen_without_a_cache() {
        // The concurrent cache builds directly on CachedSample; this pins
        // the standalone contract it relies on.
        let t = table("t", 31);
        // What a without-replacement stream holds after `rows` draws: its
        // shuffle's displaced-slot map, replayed on the entry's seed.
        let shuffle_bytes = |rows: usize| {
            let mut shuffle = IncrementalFisherYates::new(t.num_rows());
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..rows {
                shuffle.next(&mut rng).unwrap();
            }
            shuffle.retained_bytes()
        };
        // (family, bytes its live stream holds after so many rows)
        type Family = fn(f64) -> SamplerKind;
        let families: [(Family, &dyn Fn(usize) -> usize); 2] = [
            (SamplerKind::UniformWithReplacement, &|_| 0),
            (SamplerKind::UniformWithoutReplacement, &shuffle_bytes),
        ];
        for (family, stream_bytes) in families {
            let (shallow, deep) = (family(0.02), family(0.08));
            let mut entry = CachedSample::draw(&t, shallow, 9).unwrap();
            assert!(entry.deepenable_to(deep));
            assert!(!entry.deepenable_to(shallow), "not strictly deeper");
            assert!(!entry.deepenable_to(SamplerKind::Block(0.5)), "family");
            // A finished row stream holds no page: a shallow entry is
            // priced at its records and rids and the shuffle's slots.
            let shallow_rows = entry.sample().len();
            assert_eq!(
                entry.approx_bytes() - records_and_rids(&entry),
                stream_bytes(shallow_rows)
            );
            let delta = entry.deepen(deep).unwrap().expect("deepenable");
            assert_eq!(entry.kind(), deep);
            // The deepening read each distinct page of its new rows once,
            // pages the shallow draw read included.
            let records = entry.sample().records().unwrap();
            let mut new_pages: Vec<_> = (records[shallow_rows..].iter())
                .map(|(rid, _)| rid.page)
                .collect();
            new_pages.sort_unstable();
            new_pages.dedup();
            assert_eq!(delta, new_pages.len() as u64, "{deep:?}");
            // Cumulative rows equal a fresh deep draw's rows (as multisets).
            let fresh = CachedSample::draw(&t, deep, 9).unwrap();
            let mut a = entry.sample().rows().unwrap();
            let mut b = fresh.sample().rows().unwrap();
            a.sort_by_key(|(rid, _)| *rid);
            b.sort_by_key(|(rid, _)| *rid);
            assert_eq!(a, b, "{deep:?}");
            // The entry's cost is still that of one fresh deep draw.
            assert_eq!(entry.pages_read(), fresh.pages_read());
            // The live stream's retained state is priced into the entry at
            // what it holds — a shuffle's displaced slots; no page, no
            // frame — beside the sample's records and rids.
            assert_eq!(
                entry.approx_bytes() - records_and_rids(&entry),
                stream_bytes(entry.sample().len())
            );
            assert_eq!(entry.sample().len(), fresh.sample().len());
        }
    }

    /// What an unstratified entry without a stream or key orders retains:
    /// each row's checked record and its source rid, no more — the batches
    /// are held as drawn, their spare capacity given back.
    fn records_and_rids(entry: &CachedSample) -> usize {
        let sample = entry.sample();
        sample.len() * (sample.codec().record_size() + std::mem::size_of::<Rid>())
    }

    #[test]
    fn a_sealed_entry_prices_exactly_its_pages_and_rids() {
        // A reservoir's cap is its size, and a Bernoulli draw's cap was
        // counted for its `p`: the entry never keeps either
        // stream — nor the records or pages it held — so it is priced at its
        // rows' records and rids, no page and no per-row decoded term, and
        // can never be picked to deepen.
        let t = table("t", 37);
        let live = CachedSample::draw(&t, SamplerKind::Block(0.2), 5).unwrap();
        assert!(live.approx_bytes() > records_and_rids(&live), "live stream");
        for (kind, deeper) in [
            (SamplerKind::Reservoir(100), SamplerKind::Reservoir(400)),
            (SamplerKind::Bernoulli(0.05), SamplerKind::Bernoulli(0.1)),
        ] {
            let mut drawn = CachedSample::draw(&t, kind, 5).unwrap();
            assert_eq!(drawn.approx_bytes(), records_and_rids(&drawn), "{kind:?}");
            assert!(!drawn.deepenable_to(deeper), "{kind:?}");
            assert_eq!(drawn.deepen(deeper).unwrap(), None);
        }
    }

    #[test]
    fn concurrent_same_group_requests_read_pages_once_and_agree_byte_for_byte() {
        let (counting, shared) = counted_table(6_000, 5);
        let num_pages = shared.num_pages() as u64;
        let expected_pages = (num_pages as f64 * 0.2).round().max(1.0) as u64;
        let kind = SamplerKind::Block(0.2);

        // The serial truth: one standalone draw with the same seed.
        let serial = CachedSample::draw(&shared, kind, 3).unwrap();
        counting.reset();

        let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
        const THREADS: usize = 16;
        let barrier = Barrier::new(THREADS);
        let results: Vec<AcquiredSample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.acquire(&shared, kind, 3).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // One page-read pass for the whole stampede, physically measured.
        assert_eq!(counting.pages_read(), expected_pages);
        // Every thread sees byte-identical rows, equal to the serial draw.
        let serial_rows = serial.sample().rows().unwrap();
        for acquired in &results {
            assert_eq!(acquired.sample.rows().unwrap(), serial_rows);
            assert_eq!(acquired.entry_pages_total, expected_pages);
        }
        // Exactly one miss paid the pages; the rest were hits, and each
        // response's accounting sums back to one draw.
        let misses = results
            .iter()
            .filter(|a| a.disposition == CacheDisposition::Miss)
            .count();
        assert_eq!(misses, 1);
        assert_eq!(
            results.iter().map(|a| a.pages_read).sum::<u64>(),
            expected_pages
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, THREADS - 1);
        assert_eq!(stats.pages_read, expected_pages);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn deepening_serves_the_deeper_fraction_at_delta_cost() {
        let (counting, shared) = counted_table(6_000, 7);
        let num_pages = shared.num_pages() as u64;
        let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);

        let shallow = cache.acquire(&shared, SamplerKind::Block(0.1), 9).unwrap();
        assert_eq!(shallow.disposition, CacheDisposition::Miss);
        let shallow_pages = (num_pages as f64 * 0.1).round().max(1.0) as u64;
        assert_eq!(shallow.pages_read, shallow_pages);
        let shallow_rows = shallow.sample.rows().unwrap();

        let deep = cache.acquire(&shared, SamplerKind::Block(0.3), 9).unwrap();
        assert_eq!(deep.disposition, CacheDisposition::Deepened);
        let deep_pages = (num_pages as f64 * 0.3).round().max(1.0) as u64;
        assert_eq!(deep.pages_read, deep_pages - shallow_pages, "delta only");
        assert_eq!(deep.entry_pages_total, deep_pages);
        assert_eq!(
            counting.pages_read(),
            deep_pages,
            "total I/O = one deep draw"
        );
        // The shallow snapshot handed out earlier is untouched.
        assert_eq!(shallow.sample.rows().unwrap(), shallow_rows);
        assert_eq!(shallow.sample.kind(), SamplerKind::Block(0.1));
        assert!(shallow.sample.len() < deep.sample.len());
        // The deepened rows equal a fresh deep draw as a multiset.
        let fresh = CachedSample::draw(&shared, SamplerKind::Block(0.3), 9).unwrap();
        let mut a = deep.sample.rows().unwrap();
        let mut b = fresh.sample().rows().unwrap();
        a.sort_by_key(|(rid, _)| *rid);
        b.sort_by_key(|(rid, _)| *rid);
        assert_eq!(a, b);
        // ...and measuring from them is byte-identical to the single-shot
        // estimator at the deep fraction.
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let scheme = samplecf_compression::NullSuppression;
        let direct = SampleCf::new(SamplerKind::Block(0.3))
            .seed(9)
            .estimate(&shared, &spec, &scheme)
            .unwrap();
        let from_cache = samplecf_core::measure_sample(
            &deep.sample,
            &spec,
            &scheme,
            &samplecf_index::IndexBuilder::new(),
        )
        .unwrap();
        assert_eq!(from_cache.cf, direct.cf);
        assert_eq!(from_cache.cf_with_pointers, direct.cf_with_pointers);
        assert_eq!(from_cache.cf_pages, direct.cf_pages);
        assert_eq!(from_cache.data, direct.data);

        // The deep key now hits; the retired shallow key redraws.
        let hit = cache.acquire(&shared, SamplerKind::Block(0.3), 9).unwrap();
        assert_eq!(hit.disposition, CacheDisposition::Hit);
        assert_eq!(hit.pages_read, 0);
        let shallow_again = cache.acquire(&shared, SamplerKind::Block(0.1), 9).unwrap();
        assert_eq!(shallow_again.disposition, CacheDisposition::Miss);
        // Only the same family and seed extends an entry: a deeper request
        // under another seed or sampler family draws afresh.
        for (kind, seed) in [
            (SamplerKind::Block(0.5), 10),
            (SamplerKind::UniformWithReplacement(0.5), 9),
        ] {
            let fresh = cache.acquire(&shared, kind, seed).unwrap();
            assert_eq!(fresh.disposition, CacheDisposition::Miss, "{kind:?}/{seed}");
        }
        let stats = cache.stats();
        assert_eq!(stats.deepened, 1);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn a_scan_sample_is_never_taken_to_deepen() {
        // A Bernoulli entry holds no stream, as a reservoir's does not,
        // so a deeper request of its family must not remove it as a
        // deepening victim only to be refused and redraw: the deeper draw is
        // a plain miss and both stay resident.
        let (_counting, shared) = counted_table(4_000, 19);
        let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
        let (shallow, deep) = (SamplerKind::Bernoulli(0.05), SamplerKind::Bernoulli(0.1));
        let drawn = cache.acquire(&shared, shallow, 3).unwrap();
        assert_eq!(drawn.disposition, CacheDisposition::Miss);
        let deeper = cache.acquire(&shared, deep, 3).unwrap();
        assert_eq!(deeper.disposition, CacheDisposition::Miss);
        assert_eq!(deeper.sample.kind(), deep);
        for kind in [shallow, deep] {
            let again = cache.acquire(&shared, kind, 3).unwrap();
            assert_eq!(again.disposition, CacheDisposition::Hit, "{kind:?}");
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.deepened), (2, 2, 0));
    }

    #[test]
    fn a_stratified_request_deepens_only_an_entry_of_its_own_kind() {
        // Two stratified entries at one fraction that differ only in their
        // allocation.  A victim chosen by sampler family alone could be
        // either — whichever the cache's map met first — and the stream's
        // refusal then dropped it and drew afresh.  Fresh caches re-seed
        // that map order, so repeat.
        use samplecf_sampling::{Allocation, StrataMode};
        let (_counting, shared) = counted_table(4_000, 23);
        let kind = |fraction, strata, alloc, mode| SamplerKind::Stratified {
            fraction,
            strata,
            alloc,
            mode,
        };
        let width = StrataMode::EquiWidth;
        let allocs = [Allocation::Proportional, Allocation::Neyman];
        let rows = |sample: &MaterializedSample| {
            let mut rows = sample.rows().unwrap();
            rows.sort_by_key(|(rid, _)| *rid);
            rows
        };
        for round in 0..8 {
            let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
            let acquire = |wanted| cache.acquire(&shared, wanted, 3).unwrap();
            for alloc in allocs {
                let drawn = acquire(kind(0.05, 4, alloc, width));
                assert_eq!(drawn.disposition, CacheDisposition::Miss);
            }
            let (mine, other) = (allocs[round % 2], allocs[1 - round % 2]);
            let deeper = kind(0.1, 4, mine, width);
            let deepened = acquire(deeper);
            assert_eq!(deepened.disposition, CacheDisposition::Deepened, "{round}");
            let fresh = CachedSample::draw(&shared, deeper, 3).unwrap();
            assert_eq!(rows(&deepened.sample), rows(fresh.sample()), "{round}");
            // Another configuration — mode or stratum count — is a miss that
            // takes out neither entry.
            for third in [
                kind(0.2, 4, mine, StrataMode::EquiDepth),
                kind(0.2, 8, mine, width),
            ] {
                assert_eq!(acquire(third).disposition, CacheDisposition::Miss);
            }
            for kept in [deeper, kind(0.05, 4, other, width)] {
                assert_eq!(acquire(kept).disposition, CacheDisposition::Hit, "{kept:?}");
            }
            let stats = cache.stats();
            assert_eq!((stats.entries, stats.misses, stats.deepened), (4, 4, 1));
        }
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // A block entry is priced by its sample alone; a live uniform entry
        // also by the pages its stream holds for deepening.
        for kind in [
            SamplerKind::Block(0.1),
            SamplerKind::UniformWithReplacement(0.1),
        ] {
            lru_eviction_respects_the_byte_budget_for(kind);
        }
    }

    fn lru_eviction_respects_the_byte_budget_for(kind: SamplerKind) {
        let (_counting, shared) = counted_table(4_000, 11);
        // Price the three entries the test will draw (per-seed sizes vary
        // by up to a tail page), then budget for exactly two of them: A+B
        // and A+C fit, A+B+C overflows.
        let bytes_of = |seed: u64| {
            CachedSample::draw(&shared, kind, seed)
                .unwrap()
                .approx_bytes()
        };
        let (b1, b2, b3) = (bytes_of(1), bytes_of(2), bytes_of(3));
        let budget = (b1 + b2).max(b1 + b3).max(b2 + b3) + 1;
        let cache = ConcurrentSampleCache::new(budget);

        cache.acquire(&shared, kind, 1).unwrap(); // A
        cache.acquire(&shared, kind, 2).unwrap(); // B
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 0);

        // Touch A so B becomes the LRU, then insert C: B must be evicted.
        assert_eq!(
            cache.acquire(&shared, kind, 1).unwrap().disposition,
            CacheDisposition::Hit
        );
        cache.acquire(&shared, kind, 3).unwrap(); // C evicts B
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= stats.budget_bytes);

        // A (recently used) and C (just inserted) are still resident...
        assert_eq!(
            cache.acquire(&shared, kind, 1).unwrap().disposition,
            CacheDisposition::Hit
        );
        assert_eq!(
            cache.acquire(&shared, kind, 3).unwrap().disposition,
            CacheDisposition::Hit
        );
        // ...while the evicted B misses and redraws.
        assert_eq!(
            cache.acquire(&shared, kind, 2).unwrap().disposition,
            CacheDisposition::Miss
        );
        assert_eq!(cache.stats().evictions, 2, "reinserting B evicted the LRU");
    }

    #[test]
    fn a_zero_budget_cache_still_serves_but_retains_nothing_else() {
        let (_counting, shared) = counted_table(2_000, 13);
        let cache = ConcurrentSampleCache::new(0);
        let kind = SamplerKind::Block(0.2);
        let first = cache.acquire(&shared, kind, 1).unwrap();
        assert_eq!(first.disposition, CacheDisposition::Miss);
        // The protected just-used entry survives its own insertion, so an
        // immediate same-key request still hits...
        assert_eq!(
            cache.acquire(&shared, kind, 1).unwrap().disposition,
            CacheDisposition::Hit
        );
        // ...but any other group pushes it out.
        cache.acquire(&shared, kind, 2).unwrap();
        assert_eq!(
            cache.acquire(&shared, kind, 1).unwrap().disposition,
            CacheDisposition::Miss
        );
    }

    #[test]
    fn a_draw_that_panics_clears_its_marker_and_wakes_its_waiters() {
        let source = Arc::new(PanickingReads {
            inner: table("t", 43),
            armed: AtomicBool::new(true),
            released: AtomicBool::new(false),
        });
        let shared = Arc::clone(&source) as SharedSource;
        let cache = Arc::new(ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES));
        let kind = SamplerKind::Block(0.1);
        // Two requests for one group: one draws and blocks in its first
        // page read, the other waits on its in-flight marker.  Results come
        // back over a channel with a deadline, so a waiter that is never
        // woken fails the test instead of hanging it.
        let (sender, results) = std::sync::mpsc::channel();
        let requests: Vec<_> = (0..2)
            .map(|_| {
                let (cache, shared, sender) =
                    (Arc::clone(&cache), Arc::clone(&shared), sender.clone());
                std::thread::spawn(move || {
                    let acquire = std::panic::AssertUnwindSafe(|| cache.acquire(&shared, kind, 1));
                    let acquired = std::panic::catch_unwind(acquire);
                    sender
                        .send(acquired.map(|a| a.unwrap().disposition))
                        .unwrap();
                })
            })
            .collect();
        while cache.stats().coalesced_waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The read panics: the drawer unwinds, the waiter draws for itself.
        source.released.store(true, Ordering::SeqCst);
        let outcomes: Vec<_> = (0..2)
            .map(|_| {
                results
                    .recv_timeout(Duration::from_secs(60))
                    .expect("woken")
            })
            .map(|outcome| outcome.ok())
            .collect();
        for request in requests {
            request.join().expect("the panic was caught in the thread");
        }
        assert!(outcomes.contains(&None), "one draw panicked");
        assert!(outcomes.contains(&Some(CacheDisposition::Miss)), "one drew");
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.misses, stats.coalesced_waits),
            (1, 2, 1)
        );
        let again = cache.acquire(&shared, kind, 1).unwrap();
        assert_eq!(again.disposition, CacheDisposition::Hit);
    }

    fn orders(rows: usize, seed: u64) -> SharedSource {
        presets::orders_table("orders", rows, seed)
            .generate()
            .unwrap()
            .table
            .into_shared()
    }

    /// A measure that walks a key order (null suppression would sum cell
    /// costs and hold none).
    fn measure(sample: &MaterializedSample, spec: &IndexSpec) {
        let walks = RunLengthEncoding;
        measure_sample(sample, spec, &walks, &IndexBuilder::new()).unwrap();
    }

    #[test]
    fn an_entry_is_repriced_for_its_key_orders_at_each_acquisition() {
        let shared = orders(6_000, 5);
        let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
        let (shallow, deep) = (SamplerKind::Block(0.2), SamplerKind::Block(0.4));
        let charged = || cache.stats().bytes;
        let acquire = |kind| cache.acquire(&shared, kind, 1).unwrap();
        let by_status = IndexSpec::nonclustered("s", ["status"]).unwrap();

        let drawn = acquire(shallow);
        let base = CachedSample::draw(&shared, shallow, 1)
            .unwrap()
            .approx_bytes();
        assert_eq!(charged(), base);
        let rows = drawn.sample.len();
        measure(&drawn.sample, &by_status);
        assert_eq!(charged(), base, "priced at the next acquisition");
        assert_eq!(acquire(shallow).disposition, CacheDisposition::Hit);
        assert_eq!(charged(), base + 4 * rows);
        // Another kind over the same key walks the same order...
        measure(
            &drawn.sample,
            &IndexSpec::clustered("c", ["status"]).unwrap(),
        );
        acquire(shallow);
        assert_eq!(charged(), base + 4 * rows);
        // ...another key holds one more.
        let by_two = IndexSpec::clustered("cs", ["customer", "status"]).unwrap();
        measure(&drawn.sample, &by_two);
        acquire(shallow);
        assert_eq!(charged(), base + 8 * rows);

        // A deepen appends rows and keeps both orders, of the rows before.
        drop(drawn);
        let deepened = acquire(deep);
        assert_eq!(deepened.disposition, CacheDisposition::Deepened);
        let deep_base = CachedSample::draw(&shared, deep, 1).unwrap().approx_bytes();
        assert_eq!(charged(), deep_base + 8 * rows);
        // A measure by one key grows its order to every row.
        measure(&deepened.sample, &by_status);
        assert_eq!(acquire(deep).disposition, CacheDisposition::Hit);
        assert_eq!(charged(), deep_base + 4 * deepened.sample.len() + 4 * rows);
    }

    #[test]
    fn held_key_orders_count_against_the_budget() {
        let shared = orders(6_000, 7);
        let kind = SamplerKind::Block(0.2);
        let bytes_of = |seed| {
            CachedSample::draw(&shared, kind, seed)
                .unwrap()
                .approx_bytes()
        };
        let (a, b) = (bytes_of(1), bytes_of(2));
        // Room for both entries, not for a key order more.
        let cache = ConcurrentSampleCache::new(a + b + 1);
        let first = cache.acquire(&shared, kind, 1).unwrap();
        cache.acquire(&shared, kind, 2).unwrap();
        assert_eq!(cache.stats().entries, 2);
        measure(
            &first.sample,
            &IndexSpec::nonclustered("s", ["status"]).unwrap(),
        );
        // Touching the first re-prices it over the budget: the second, least
        // recently used, goes.
        let again = cache.acquire(&shared, kind, 1).unwrap();
        assert_eq!(again.disposition, CacheDisposition::Hit);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert_eq!(stats.bytes, a + 4 * first.sample.len());
    }

    #[test]
    fn failed_draws_clear_the_inflight_marker() {
        let (_counting, shared) = counted_table(1_000, 17);
        let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
        // Reservoir size 0 is invalid: the acquire fails...
        assert!(cache
            .acquire(&shared, SamplerKind::Reservoir(0), 1)
            .is_err());
        // ...and leaves no debris: a valid request for the same table works
        // and the failed key can be retried.
        assert!(cache
            .acquire(&shared, SamplerKind::Reservoir(50), 1)
            .is_ok());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn the_whole_budget_serves_every_group() {
        // Two groups of one (table, seed), each about 0.3 of the budget:
        // together they fit, so neither pushes the other out.  An entry is
        // held against the one configured budget, not a slice of it.
        let t = table("t", 47);
        let (block, uniform) = (
            SamplerKind::Block(0.3),
            SamplerKind::UniformWithReplacement(0.3),
        );
        let bytes_of = |kind| CachedSample::draw(&t, kind, 5).unwrap().approx_bytes();
        let largest = bytes_of(block).max(bytes_of(uniform));
        let budget = largest * 10 / 3;
        let cache = ConcurrentSampleCache::new(budget);
        assert_eq!(cache.stats().budget_bytes, budget);
        for kind in [block, uniform] {
            let drawn = cache.acquire(&t, kind, 5).unwrap();
            assert_eq!(drawn.disposition, CacheDisposition::Miss, "{kind:?}");
        }
        let again = cache.acquire(&t, block, 5).unwrap();
        assert_eq!(again.disposition, CacheDisposition::Hit);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 0));
        assert!(stats.bytes <= budget);
    }

    #[test]
    fn eviction_takes_the_least_recently_used_entry_of_any_table() {
        // Three tables filled and touched in a known order, then one more
        // group: the one entry evicted is the least recently used overall,
        // whichever table it belongs to.
        let kind = SamplerKind::Block(0.1);
        let (a, b, c) = (table("a", 51), table("b", 52), table("c", 53));
        let bytes_of =
            |t: &SharedSource, seed| CachedSample::draw(t, kind, seed).unwrap().approx_bytes();
        let (ab, c_bytes, d_bytes) = (
            bytes_of(&a, 1) + bytes_of(&b, 1),
            bytes_of(&c, 1),
            bytes_of(&a, 2),
        );
        // A, B and C fit; adding D overflows; A, B and D fit.
        let cache = ConcurrentSampleCache::new(ab + c_bytes.max(d_bytes));
        let acquire = |t: &SharedSource, seed| cache.acquire(t, kind, seed).unwrap().disposition;
        for t in [&c, &a, &b] {
            assert_eq!(acquire(t, 1), CacheDisposition::Miss);
        }
        // Touch A, then B: C is now the least recently used.
        for t in [&a, &b] {
            assert_eq!(acquire(t, 1), CacheDisposition::Hit);
        }
        assert_eq!(acquire(&a, 2), CacheDisposition::Miss);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (3, 1));
        for (t, seed) in [(&a, 1), (&b, 1), (&a, 2)] {
            assert_eq!(
                acquire(t, seed),
                CacheDisposition::Hit,
                "{}/{seed}",
                t.name()
            );
        }
        assert_eq!(acquire(&c, 1), CacheDisposition::Miss, "C was evicted");
    }
}
