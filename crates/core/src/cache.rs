//! The sample cache: one materialized sample per (source, sampler, seed)
//! configuration, shared by every consumer that asks for it.
//!
//! Nirkhiwale et al. (*A Sampling Algebra for Aggregate Estimation*)
//! motivate treating a sample as a first-class object with its own
//! lifecycle; this module gives it one.  A [`SampleCache`] is keyed by
//! *(source identity, sampler kind + fraction, seed)* — exactly the triple
//! that determines which rows a draw produces — so any two requests with
//! the same key share one [`MaterializedSample`], and the source pays its
//! sampling I/O once per key however many candidates are evaluated.  The
//! cache records what each entry cost (pages read, wall-clock) and how many
//! times it was reused, which is where the advisor's plan accounting comes
//! from.
//!
//! The cache is **owned** (`'static`): sources are held as
//! [`SharedSource`] handles rather than borrows, so a cache can outlive the
//! scope its tables were opened in and be shared across threads — which is
//! what lets the `samplecfd` server wrap [`CachedSample`]s in a concurrent,
//! evicting cache while this type keeps the single-owner, dense-id
//! semantics the batch advisor's plan accounting is built on.

use crate::error::CoreResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_parallel::parallel_indexed_map;
use samplecf_sampling::{BatchSchedule, MaterializedSample, SampleStream, SamplerKind};
use samplecf_storage::{CountingSource, Rid, SharedSource, TableSource};
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a source handle.  Two requests share a cache entry only when
/// their handles point at the *same* allocation (clones of one
/// [`SharedSource`]), so distinct tables never alias — not even two handles
/// to byte-identical data.
fn source_key(source: &SharedSource) -> usize {
    Arc::as_ptr(source).cast::<()>() as usize
}

/// One cached sample plus its cost accounting.
///
/// The entry holds the sample in its one form — a [`MaterializedSample`]
/// (heap pages + source rids + stratum tags) behind an [`Arc`], so
/// concurrent consumers can keep an immutable snapshot and measure it with
/// [`measure_sample`](crate::estimator::measure_sample) outside any lock.
///
/// Entries can be created directly — [`draw`](Self::draw) — and
/// [`deepen`](Self::deepen)ed in place; [`SampleCache`] builds its keyed,
/// dense-id bookkeeping on top of these, and the server's concurrent cache
/// wraps the same type under its own locking and eviction policy.
pub struct CachedSample {
    source: SharedSource,
    kind: SamplerKind,
    seed: u64,
    /// Behind an [`Arc`] so a snapshot handed out earlier survives a later
    /// [`deepen`](Self::deepen): deepening extends in place when the entry
    /// is the only holder and copies the pages first when it is not.
    sample: Arc<MaterializedSample>,
    pages_read: u64,
    uses: usize,
    /// Live draw state, held only while the stream can still be extended
    /// ([`SampleStream::extendable`]): keeping the stream and its RNG is
    /// what allows the entry to be deepened later at only the delta's I/O
    /// cost.
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
    /// instead of redrawing; a scan sampler's stream is finished after its
    /// one scan and is dropped here, with the rows it held.
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
            uses: 1,
            stream: stream.extendable().then_some((stream, rng)),
        })
    }

    /// Whether [`deepen`](Self::deepen) to `kind` can extend this entry:
    /// the live stream is still held, the family matches, and the requested
    /// fraction is strictly deeper than the current one.
    #[must_use]
    pub fn deepenable_to(&self, kind: SamplerKind) -> bool {
        self.stream.is_some()
            && self.kind.family() == kind.family()
            && matches!(
                (self.kind.fraction(), kind.fraction()),
                (Some(have), Some(want)) if have < want
            )
    }

    /// Extend this entry's sample in place to the deeper configuration
    /// `kind`, paying only the delta's I/O.  Returns the pages read for the
    /// delta, or `None` when the entry cannot be deepened (sealed, wrong
    /// family, or not strictly deeper) — in which case it is untouched.
    ///
    /// Prefix-stable streams make deepening lossless: afterwards the entry
    /// holds exactly the rows a fresh draw at the deeper fraction with the
    /// same seed would hold (as a multiset — batches arrive rid-sorted per
    /// chunk), and its cumulative [`pages_read`](Self::pages_read) equals
    /// that fresh draw's cost.
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
        let delta = counting.pages_read();
        self.pages_read += delta;
        self.kind = kind;
        Ok(Some(delta))
    }

    /// Drop the live stream state, fixing the entry's fraction for good.
    ///
    /// An extendable entry keeps its stream (and, for uniform draws, the
    /// stream's page cache — every page the draw touched) so that a later,
    /// deeper request costs only the delta.  When no deeper fraction is
    /// coming, sealing releases that memory; the materialized sample itself
    /// is untouched and keeps serving hits.
    pub fn seal(&mut self) {
        self.stream = None;
    }

    /// The source the sample was drawn from.
    #[must_use]
    pub fn source(&self) -> &SharedSource {
        &self.source
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

    /// Physical pages read from the source to draw (and deepen) this sample.
    #[must_use]
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// How many times this entry was requested (1 = drawn, never reused).
    #[must_use]
    pub fn uses(&self) -> usize {
        self.uses
    }

    /// This entry's resident size in bytes — exactly what it retains: the
    /// sample's heap pages, its source-rid vector and stratum tags, and any
    /// state the live stream holds for deepening (rid frame, cached
    /// pages).  This is the unit the server cache's byte budget
    /// evicts against; [`seal`](Self::seal)ing releases the stream's share.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let table = self.sample.table();
        table.num_pages() * table.page_size()
            + self.sample.len() * std::mem::size_of::<Rid>()
            + std::mem::size_of_val(self.sample.row_strata())
            + self.stream.as_ref().map_or(0, |(stream, _)| {
                stream.approx_retained_bytes(table.codec().record_size())
            })
    }
}

impl std::fmt::Debug for CachedSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSample")
            .field("source", &self.source.name())
            .field("kind", &self.kind)
            .field("seed", &self.seed)
            .field("rows", &self.sample.len())
            .field("pages_read", &self.pages_read)
            .field("uses", &self.uses)
            .field("extendable", &self.stream.is_some())
            .finish()
    }
}

/// A cache of materialized samples keyed by (source, sampler, seed).
///
/// [`get_or_draw`](Self::get_or_draw) returns a stable entry id: the first
/// request with a given key draws (paying the I/O, which the cache
/// accounts); every later request is a hit.  Entry ids are dense indexes in
/// first-use order, so callers can use them to group their own bookkeeping
/// (the advisor's `Recommendation::group` is exactly this id).
#[derive(Default)]
pub struct SampleCache {
    entries: Vec<CachedSample>,
    index: HashMap<(usize, String, u64), usize>,
}

impl SampleCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the entry id for (source, kind, seed), drawing and
    /// materializing the sample on first use.
    ///
    /// The draw goes through a [`CountingSource`] so the entry records
    /// exactly how many physical pages it cost; hits cost nothing.
    pub fn get_or_draw(
        &mut self,
        source: &SharedSource,
        kind: SamplerKind,
        seed: u64,
    ) -> CoreResult<usize> {
        let key = (source_key(source), kind.label(), seed);
        if let Some(&id) = self.index.get(&key) {
            self.entries[id].uses += 1;
            return Ok(id);
        }
        let id = self.entries.len();
        self.entries.push(Self::draw_sealed(source, kind, seed)?);
        self.index.insert(key, id);
        Ok(id)
    }

    /// Resolve a whole batch of requests at once, drawing every cache miss
    /// concurrently (`threads` workers; 0 = all available parallelism).
    ///
    /// Ids, use counts and entry order are identical to issuing the
    /// requests one at a time through [`get_or_draw`](Self::get_or_draw) —
    /// only the draws themselves run in parallel, and each draw is
    /// independently seeded, so the cache contents are deterministic.  This
    /// is the batch advisor's sampling phase: when candidates span several
    /// disk-resident tables (or seeds), their per-group I/O overlaps
    /// instead of summing.  On error the cache is left exactly as it was
    /// before the call.
    pub fn get_or_draw_batch(
        &mut self,
        requests: &[(SharedSource, SamplerKind, u64)],
        threads: usize,
    ) -> CoreResult<Vec<usize>> {
        // Resolve ids first, deferring every `uses` increment (on existing
        // and pending entries alike) until all draws have succeeded, so a
        // failed batch leaves the cache untouched.
        let mut ids = Vec::with_capacity(requests.len());
        let mut hit_uses: HashMap<usize, usize> = HashMap::new();
        let mut pending: Vec<(SharedSource, SamplerKind, u64)> = Vec::new();
        let mut pending_keys: Vec<(usize, String, u64)> = Vec::new();
        for (source, kind, seed) in requests {
            let key = (source_key(source), kind.label(), *seed);
            let id = match self.index.get(&key) {
                Some(&id) => id,
                None => {
                    let id = self.entries.len() + pending.len();
                    self.index.insert(key.clone(), id);
                    pending.push((Arc::clone(source), *kind, *seed));
                    pending_keys.push(key);
                    id
                }
            };
            *hit_uses.entry(id).or_insert(0) += 1;
            ids.push(id);
        }

        let pending_ref = &pending;
        let mut drawn = Vec::with_capacity(pending.len());
        for result in parallel_indexed_map(pending.len(), threads, |i| {
            let (source, kind, seed) = &pending_ref[i];
            Self::draw_sealed(source, *kind, *seed).map(|mut e| {
                e.uses = 0;
                e
            })
        }) {
            match result {
                Ok(entry) => drawn.push(entry),
                Err(e) => {
                    // Roll the reservations back so the cache stays exactly
                    // as it was, then report the first failure in request
                    // order.
                    for key in &pending_keys {
                        self.index.remove(key);
                    }
                    return Err(e);
                }
            }
        }
        self.entries.extend(drawn);
        for (id, uses) in hit_uses {
            self.entries[id].uses += uses;
        }
        Ok(ids)
    }

    /// This cache never deepens an entry, so it keeps no stream state.
    fn draw_sealed(
        source: &SharedSource,
        kind: SamplerKind,
        seed: u64,
    ) -> CoreResult<CachedSample> {
        let mut entry = CachedSample::draw(source, kind, seed)?;
        entry.seal();
        Ok(entry)
    }

    /// The cached entry with the given id.
    #[must_use]
    pub fn entry(&self, id: usize) -> &CachedSample {
        &self.entries[id]
    }

    /// All entries, in first-use order.
    #[must_use]
    pub fn entries(&self) -> &[CachedSample] {
        &self.entries
    }

    /// Number of distinct samples drawn.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has drawn anything yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total physical pages read across all entries.
    #[must_use]
    pub fn pages_read(&self) -> u64 {
        self.entries.iter().map(|e| e.pages_read).sum()
    }

    /// Pages a caller would have read had every request drawn afresh
    /// instead of hitting the cache: each entry's cost times its use count.
    #[must_use]
    pub fn naive_pages_read(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.pages_read * e.uses as u64)
            .sum()
    }
}

impl std::fmt::Debug for SampleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleCache")
            .field("samples", &self.len())
            .field("pages_read", &self.pages_read())
            .field("naive_pages_read", &self.naive_pages_read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_datagen::presets;
    use samplecf_storage::IntoShared;

    fn table(name: &str, seed: u64) -> SharedSource {
        presets::single_char_table(name, 2_000, 16, 50, 8, seed)
            .generate()
            .unwrap()
            .table
            .into_shared()
    }

    #[test]
    fn same_key_hits_and_different_keys_miss() {
        let a = table("a", 1);
        let b = table("b", 2);
        let mut cache = SampleCache::new();
        let kind = SamplerKind::Block(0.1);
        let id0 = cache.get_or_draw(&a, kind, 0).unwrap();
        assert_eq!(cache.get_or_draw(&a, kind, 0).unwrap(), id0);
        // A different seed, sampler or source each draws afresh.
        let id1 = cache.get_or_draw(&a, kind, 1).unwrap();
        let id2 = cache.get_or_draw(&a, SamplerKind::Block(0.2), 0).unwrap();
        let id3 = cache.get_or_draw(&b, kind, 0).unwrap();
        assert_eq!(
            [id0, id1, id2, id3],
            [0, 1, 2, 3],
            "ids are dense in first-use order"
        );
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.entry(id0).uses(), 2);
        assert_eq!(cache.entry(id1).uses(), 1);
    }

    #[test]
    fn identical_tables_behind_distinct_handles_do_not_alias() {
        let a = table("same", 7);
        let mut cache = SampleCache::new();
        let kind = SamplerKind::Block(0.1);
        let id_a = cache.get_or_draw(&a, kind, 0).unwrap();
        // A clone of the same handle aliases...
        let a2 = Arc::clone(&a);
        assert_eq!(cache.get_or_draw(&a2, kind, 0).unwrap(), id_a);
        // ...but a fresh handle to byte-identical data never does.
        let b = table("same", 7);
        let id_b = cache.get_or_draw(&b, kind, 0).unwrap();
        assert_ne!(id_a, id_b, "identity is the allocation, not the name");
    }

    #[test]
    fn batch_resolution_matches_serial_resolution() {
        let a = table("a", 11);
        let b = table("b", 12);
        let kind = SamplerKind::Block(0.1);
        let requests: Vec<(SharedSource, SamplerKind, u64)> = vec![
            (Arc::clone(&a), kind, 0),
            (Arc::clone(&a), kind, 0),
            (Arc::clone(&b), kind, 0),
            (Arc::clone(&a), kind, 9),
            (Arc::clone(&b), kind, 0),
        ];

        let mut serial = SampleCache::new();
        let serial_ids: Vec<usize> = requests
            .iter()
            .map(|(s, k, seed)| serial.get_or_draw(s, *k, *seed).unwrap())
            .collect();

        for threads in [1, 4] {
            let mut batch = SampleCache::new();
            let batch_ids = batch.get_or_draw_batch(&requests, threads).unwrap();
            assert_eq!(batch_ids, serial_ids, "threads = {threads}");
            assert_eq!(batch.len(), serial.len());
            for (be, se) in batch.entries().iter().zip(serial.entries()) {
                assert_eq!(be.uses(), se.uses());
                assert_eq!(be.sample().rows().unwrap(), se.sample().rows().unwrap());
                assert_eq!(be.pages_read(), se.pages_read());
            }
            // Resolving the same batch again is all hits: nothing new drawn.
            let again = batch.get_or_draw_batch(&requests, threads).unwrap();
            assert_eq!(again, serial_ids);
            assert_eq!(batch.len(), serial.len());
        }
    }

    #[test]
    fn failed_batch_leaves_the_cache_unchanged() {
        let t = table("t", 13);
        let mut cache = SampleCache::new();
        let good = SamplerKind::Block(0.1);
        cache.get_or_draw(&t, good, 0).unwrap();
        // A failing batch that also hits the pre-existing entry and draws a
        // fresh one: nothing — entries, keys or use counts — may change.
        let requests: Vec<(SharedSource, SamplerKind, u64)> = vec![
            (Arc::clone(&t), good, 0),
            (Arc::clone(&t), good, 1),
            (Arc::clone(&t), SamplerKind::Reservoir(0), 0),
        ];
        assert!(cache.get_or_draw_batch(&requests, 2).is_err());
        assert_eq!(cache.len(), 1, "failed batch must not leave entries");
        assert_eq!(
            cache.entry(0).uses(),
            1,
            "failed batch must not bump use counts on existing entries"
        );
        // The rolled-back keys can be requested again cleanly.
        let id = cache.get_or_draw(&t, good, 1).unwrap();
        assert_eq!(id, 1);
    }

    #[test]
    fn accounting_tracks_draws_and_reuse() {
        let t = table("t", 3);
        let mut cache = SampleCache::new();
        let kind = SamplerKind::Block(0.25);
        let id = cache.get_or_draw(&t, kind, 5).unwrap();
        for _ in 0..3 {
            assert_eq!(cache.get_or_draw(&t, kind, 5).unwrap(), id);
        }
        let entry = cache.entry(id);
        assert_eq!(entry.uses(), 4);
        let expected_pages = ((t.num_pages() as f64) * 0.25).round().max(1.0) as u64;
        assert_eq!(entry.pages_read(), expected_pages);
        assert_eq!(cache.pages_read(), expected_pages);
        assert_eq!(cache.naive_pages_read(), expected_pages * 4);
        assert!(!entry.sample().is_empty());
        assert_eq!(entry.kind(), kind);
        assert_eq!(entry.seed(), 5);
        assert!(entry.approx_bytes() > 0);
    }

    #[test]
    fn standalone_entries_draw_and_deepen_without_a_cache() {
        // The server's concurrent cache builds directly on CachedSample;
        // this pins the standalone contract it relies on.
        let t = table("t", 31);
        // (family, bytes its live stream holds per drawn row: the
        // without-replacement shuffle's displaced slots)
        type Family = fn(f64) -> SamplerKind;
        let families: [(Family, usize); 2] = [
            (SamplerKind::UniformWithReplacement, 0),
            (
                SamplerKind::UniformWithoutReplacement,
                2 * std::mem::size_of::<usize>(),
            ),
        ];
        for (family, shuffle_bytes_per_row) in families {
            let (shallow, deep) = (family(0.02), family(0.08));
            let mut entry = CachedSample::draw(&t, shallow, 9).unwrap();
            assert!(entry.deepenable_to(deep));
            assert!(!entry.deepenable_to(shallow), "not strictly deeper");
            assert!(!entry.deepenable_to(SamplerKind::Block(0.5)), "family");
            let before = entry.pages_read();
            let delta = entry.deepen(deep).unwrap().expect("deepenable");
            assert_eq!(entry.pages_read(), before + delta);
            assert_eq!(entry.kind(), deep);
            // Cumulative rows equal a fresh deep draw's rows (as multisets).
            let fresh = CachedSample::draw(&t, deep, 9).unwrap();
            let mut a = entry.sample().rows().unwrap();
            let mut b = fresh.sample().rows().unwrap();
            a.sort_by_key(|(rid, _)| *rid);
            b.sort_by_key(|(rid, _)| *rid);
            assert_eq!(a, b, "{deep:?}");
            assert_eq!(entry.pages_read(), fresh.pages_read());
            // The live stream's retained state is priced into the entry at
            // what it holds — the rid frame plus one source page per physical
            // read — and sealing releases exactly that.
            let bytes_with_stream = entry.approx_bytes();
            entry.seal();
            assert_eq!(
                bytes_with_stream - entry.approx_bytes(),
                t.num_rows() * std::mem::size_of::<Rid>()
                    + entry.pages_read() as usize * t.page_size()
                    + entry.sample().len() * shuffle_bytes_per_row
            );
            assert!(!entry.deepenable_to(family(0.2)));
            assert_eq!(entry.deepen(family(0.2)).unwrap(), None);
            assert_eq!(entry.sample().len(), fresh.sample().len());
        }
    }

    #[test]
    fn a_sealed_entry_prices_exactly_its_pages_and_rids() {
        // No per-row decoded term: a sealed, unstratified entry retains its
        // heap pages and one source rid per row, nothing else.
        let t = table("t", 37);
        let pages_and_rids = |entry: &CachedSample| {
            let sample = entry.sample();
            sample.table().num_pages() * sample.table().page_size()
                + sample.len() * std::mem::size_of::<Rid>()
        };
        let mut entry = CachedSample::draw(&t, SamplerKind::Block(0.2), 5).unwrap();
        assert!(entry.approx_bytes() > pages_and_rids(&entry), "live stream");
        entry.seal();
        assert_eq!(entry.approx_bytes(), pages_and_rids(&entry));
        // A scan sampler's stream is finished by its one scan: the entry
        // never keeps it — nor the decoded rows it held — and can never be
        // picked to deepen.
        for (kind, deeper) in [
            (SamplerKind::Reservoir(100), SamplerKind::Reservoir(400)),
            (SamplerKind::Bernoulli(0.05), SamplerKind::Bernoulli(0.1)),
            (SamplerKind::Systematic(0.05), SamplerKind::Systematic(0.1)),
        ] {
            let mut drawn = CachedSample::draw(&t, kind, 5).unwrap();
            assert_eq!(drawn.approx_bytes(), pages_and_rids(&drawn), "{kind:?}");
            assert!(!drawn.deepenable_to(deeper), "{kind:?}");
            assert_eq!(drawn.deepen(deeper).unwrap(), None);
        }
    }
}
