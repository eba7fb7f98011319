//! Row-position draws: uniform, Bernoulli, reservoir and stratified
//! sampling over contiguous page-range strata.
//!
//! A [`StratifiedStream`] is the one stream that draws *positions* of the
//! table's [`Frame`].  It splits the row budget `round(f·n)` across the
//! strata of a [`Strata`] partition and draws uniformly within each stratum,
//! mapping the drawn positions to RIDs by the frame's arithmetic and
//! fetching them page-coalesced.  Each batch but the plan's last keeps the
//! pages it read in the stream's [`PageCache`], for the batches after it;
//! the last batch (the only one of a one-shot draw) reads those from the
//! cache, lends every other page it needs from a run read of adjacent
//! pages and drops the cache when it returns, so a stream at its cap holds
//! no page and a deepening re-reads the pages its new rows land on.
//! Binding a stream to its source reads no page and allocates nothing the
//! size of the table: the frame is two counts and a stratum is a range of
//! positions, and a one-shot draw holds, besides its records, one run of
//! at most four pages at a time.
//!
//! **The uniform draws are its one-stratum case.**  With one stratum there
//! is nothing to allocate, so positions come straight from the shared
//! stream RNG, one call per row: `gen_range(0..n)` for uniform-wr (the
//! procedure the paper's analysis assumes, Section II-C) and for
//! `stratified(k=1)`, which is therefore the same draw seed for seed; the
//! next element of an [`IncrementalFisherYates`] shuffle of the frame
//! (≡ `rand::seq::index::sample` for every prefix) for uniform-wor.
//! Bernoulli(`p`) is uniform-wor at a random cap: binding counts
//! `M ~ Binomial(n, p)` on the shared RNG by geometric skips
//! ([`bernoulli_size`]), reading no page, and the draw is the first `M`
//! elements of the same shuffle.  A reservoir of `k` rows is uniform-wor at
//! the fixed cap `min(k, n)`: Vitter's Algorithm R scans because it does
//! not know `n`, but the frame is arithmetic, so `n` is known before the
//! first position and the first `k` elements of the shuffle have the
//! reservoir's inclusion probabilities (`k/n` for a row, `k(k−1)/(n(n−1))`
//! for a pair).  It consumes no randomness before the shuffle, so it draws
//! the rows of uniform-wor at that cap, seed for seed, and reads only the
//! pages they land on.  Only [`SamplerKind::Stratified`] reports stratum
//! tags and weights: to its consumers a uniform, Bernoulli or reservoir
//! draw is unstratified.
//!
//! **With k ≥ 2 strata** each stratum draws with replacement from an
//! independent, prefix-stable substream: stratum `s` owns its own RNG
//! (seeded from one `next_u64` of the shared stream RNG at bind time, in
//! stratum order), so the *rows stratum `s` contributes* depend only on
//! *how many* rows it was asked for — never on how the other strata were
//! scheduled.  That is the property that lets Neyman allocation re-split
//! the budget between batches without perturbing any stratum's draw
//! sequence.
//!
//! Budget splitting is **house monotone**: conceptually the draws are
//! assigned one at a time, each to the stratum whose allocation lags its
//! quota the most (largest deficit `a_s/Σa·t − k_s`, ties to the lowest
//! index).  Cumulative per-stratum counts therefore never decrease as the
//! total target grows, and — for a fixed weight vector — depend only on the
//! cumulative total, not on batch boundaries.  Together with per-stratum
//! prefix stability this makes the whole stream prefix-stable: draining it
//! under any batch schedule yields the same multiset of rows as under the
//! one-shot schedule, and [`extend_cap`](crate::SampleStream::extend_cap) deepening
//! continues the same draw.  (Feeding variance estimates back via
//! [`update_stratum_variances`](crate::SampleStream::update_stratum_variances)
//! deliberately breaks schedule independence — adapting the allocation to
//! what was measured *is the point* — so the cache paths, which never feed
//! back, stay deterministic, while `ProgressiveCf` adapts.)

use crate::batch::RecordBatch;
use crate::error::SamplingResult;
use crate::kind::{Allocation, SamplerKind, StrataMode};
use crate::sampler::{bernoulli_size, target_size};
use crate::strata::Strata;
use crate::stream::{
    fetch_positions_coalesced, BatchPlan, BatchSchedule, IncrementalFisherYates, PageCache,
    SampleStream,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use samplecf_storage::{Frame, TableSource};

/// Floor for fed-back stratum standard deviations, so a stratum whose
/// measured variance is (so far) zero keeps receiving a trickle of draws
/// instead of being starved forever on a possibly-premature estimate.
const SD_FLOOR: f64 = 1e-9;

/// Where a bound stream's row positions come from.
enum Positions {
    /// The shared stream RNG, one `gen_range` per row: the one-stratum
    /// with-replacement draw (uniform-wr, and stratified with one stratum).
    Shared,
    /// The next elements of a shuffle of the frame, on the shared RNG:
    /// uniform-wor, Bernoulli and the reservoir.
    Shuffle(IncrementalFisherYates),
    /// One RNG per stratum, derived from the shared RNG at bind time:
    /// stratified with k ≥ 2 strata.
    PerStratum(Vec<StdRng>),
}

/// State bound on the first batch, once the stream has seen the source.
struct BoundFrame {
    frame: Frame,
    strata: Strata,
    /// Cumulative row targets from the batch schedule.
    plan: BatchPlan,
    positions: Positions,
    /// Rows drawn per stratum so far.
    counts: Vec<usize>,
    /// Per-stratum standard-deviation estimates for Neyman allocation
    /// (all equal until a consumer feeds measurements back).
    sds: Vec<f64>,
}

impl BoundFrame {
    /// The allocation weight of each stratum under the current policy.
    fn alloc_weights(&self, alloc: Allocation) -> Vec<f64> {
        (0..self.strata.len())
            .map(|s| {
                let size = self.strata.rows(s) as f64;
                match alloc {
                    Allocation::Proportional => size,
                    Allocation::Neyman => size * self.sds[s],
                }
            })
            .collect()
    }

    /// Advance the house-monotone assignment from the current total to
    /// `target` rows, returning how many *new* draws each stratum gets.
    fn assign_up_to(&mut self, target: usize, alloc: Allocation) -> Vec<usize> {
        let mut drawn: usize = self.counts.iter().sum();
        if self.counts.len() == 1 {
            // One stratum: nothing to allocate.
            return vec![target - drawn];
        }
        let weights = self.alloc_weights(alloc);
        let total_weight: f64 = weights.iter().sum();
        let mut delta = vec![0usize; self.counts.len()];
        while drawn < target {
            let t = (drawn + 1) as f64;
            let mut best: Option<(usize, f64)> = None;
            for (s, &w) in weights.iter().enumerate() {
                if self.strata.rows(s) == 0 {
                    continue;
                }
                // With all weights zero (possible only if every sd was fed
                // back as zero and floored away), fall back to proportional.
                let share = if total_weight > 0.0 {
                    w / total_weight
                } else {
                    self.strata.weight(s)
                };
                let deficit = share * t - (self.counts[s] + delta[s]) as f64;
                if best.is_none_or(|(_, d)| deficit > d) {
                    best = Some((s, deficit));
                }
            }
            let (s, _) = best.expect("a non-empty table has a non-empty stratum");
            delta[s] += 1;
            drawn += 1;
        }
        delta
    }

    /// The frame positions of `count` more draws in stratum `s`.
    fn draw_positions(&mut self, s: usize, count: usize, rng: &mut dyn RngCore) -> Vec<usize> {
        let range = self.strata.row_range(s);
        let span = range.len();
        match &mut self.positions {
            Positions::Shared => (0..count)
                .map(|_| range.start + rng.gen_range(0..span))
                .collect(),
            Positions::Shuffle(shuffle) => (0..count)
                .map(|_| range.start + shuffle.next(rng).expect("targets never exceed the frame"))
                .collect(),
            Positions::PerStratum(rngs) => {
                let stratum_rng = &mut rngs[s];
                (0..count)
                    .map(|_| range.start + stratum_rng.gen_range(0..span))
                    .collect()
            }
        }
    }
}

/// The row-position stream (see the module docs for the contract): draws
/// uniform-wr, uniform-wor, Bernoulli, reservoir and stratified kinds.
pub struct StratifiedStream {
    /// The kind drawn, with its current cap.
    kind: SamplerKind,
    schedule: BatchSchedule,
    frame: Option<BoundFrame>,
    drawn: usize,
    cache: PageCache,
    /// Stratum tag of each row of the batch most recently returned.
    last_tags: Vec<u32>,
}

impl StratifiedStream {
    /// A stream drawing up to `round(fraction·n)` rows for `kind`, one of
    /// the row-position kinds.
    pub(crate) fn new(kind: SamplerKind, schedule: BatchSchedule) -> Self {
        StratifiedStream {
            kind,
            schedule,
            frame: None,
            drawn: 0,
            cache: PageCache::new(),
            last_tags: Vec::new(),
        }
    }

    /// The requested stratum count, allocation and cut of the draw: a
    /// uniform kind is the one-stratum draw.
    fn design(&self) -> (usize, Allocation, StrataMode) {
        match self.kind {
            SamplerKind::Stratified {
                strata,
                alloc,
                mode,
                ..
            } => (strata, alloc, mode),
            _ => (1, Allocation::Proportional, StrataMode::EquiWidth),
        }
    }

    fn is_stratified(&self) -> bool {
        matches!(self.kind, SamplerKind::Stratified { .. })
    }

    fn bind(&mut self, source: &dyn TableSource, rng: &mut dyn RngCore) -> SamplingResult<()> {
        if self.frame.is_some() {
            return Ok(());
        }
        let frame = Frame::of(source);
        let (count, _, mode) = self.design();
        let strata = match mode {
            StrataMode::EquiWidth => Strata::equi_width(source, count)?,
            StrataMode::EquiDepth => Strata::equi_depth(source, count)?,
        };
        let max_rows = match self.kind {
            SamplerKind::Bernoulli(p) => bernoulli_size(frame.len(), p, rng),
            SamplerKind::Reservoir(size) => size.min(frame.len()),
            kind => target_size(frame.len(), kind.fraction().expect("a row fraction")),
        };
        let plan = BatchPlan::new(self.schedule, frame.len(), max_rows);
        // Multi-stratum draws get independent per-stratum RNGs, derived
        // from the shared RNG in stratum order at bind time: one next_u64
        // each, so the derivation itself is part of the deterministic
        // prefix.  A one-stratum draw derives nothing.
        let positions = if matches!(
            self.kind,
            SamplerKind::UniformWithoutReplacement(_)
                | SamplerKind::Bernoulli(_)
                | SamplerKind::Reservoir(_)
        ) {
            Positions::Shuffle(IncrementalFisherYates::new(frame.len()))
        } else if strata.len() > 1 {
            Positions::PerStratum(
                (0..strata.len())
                    .map(|_| StdRng::seed_from_u64(rng.next_u64()))
                    .collect(),
            )
        } else {
            Positions::Shared
        };
        let count = strata.len();
        self.frame = Some(BoundFrame {
            frame,
            strata,
            plan,
            positions,
            counts: vec![0; count],
            sds: vec![1.0; count],
        });
        Ok(())
    }
}

impl SampleStream for StratifiedStream {
    fn kind(&self) -> SamplerKind {
        self.kind
    }

    fn next_records(
        &mut self,
        source: &dyn TableSource,
        rng: &mut dyn RngCore,
    ) -> SamplingResult<RecordBatch> {
        self.bind(source, rng)?;
        let (_, alloc, _) = self.design();
        let tagged = self.is_stratified();
        let frame = self.frame.as_mut().expect("frame bound above");
        self.last_tags.clear();
        let Some(target) = frame.plan.next_target() else {
            return Ok(RecordBatch::new(source.codec()));
        };
        let mut batch = RecordBatch::with_capacity(source.codec(), target - self.drawn);
        // Only a later batch can need a page again: the last batch takes
        // the pages kept so far, and they go when it returns.
        let keep = !frame.plan.is_last();
        let mut cache = std::mem::take(&mut self.cache);
        let delta = frame.assign_up_to(target, alloc);
        for (s, &extra) in delta.iter().enumerate() {
            if extra == 0 {
                continue;
            }
            let positions = frame.draw_positions(s, extra, rng);
            fetch_positions_coalesced(
                source,
                frame.frame,
                positions,
                &mut cache,
                keep,
                &mut batch,
            )?;
            if tagged {
                self.last_tags.resize(batch.len(), s as u32);
            }
            frame.counts[s] += extra;
        }
        if keep {
            self.cache = cache;
        }
        self.drawn = target;
        frame.plan.advance();
        Ok(batch)
    }

    fn exhausted(&self) -> bool {
        (self.frame.as_ref()).is_some_and(|frame| frame.plan.exhausted())
    }

    fn extend_cap(&mut self, kind: SamplerKind) -> bool {
        let Some(fraction) = self.kind.deepened_to(kind) else {
            return false;
        };
        self.kind = kind;
        if let Some(frame) = self.frame.as_mut() {
            // Re-plan from the rows already drawn: one batch to the new cap.
            let max_rows = target_size(frame.frame.len(), fraction);
            frame.plan.raise_cap(max_rows, self.drawn);
        }
        true
    }

    /// A Bernoulli or reservoir draw is not ([`SamplerKind::with_fraction`]).
    fn extendable(&self) -> bool {
        !matches!(
            self.kind,
            SamplerKind::Bernoulli(_) | SamplerKind::Reservoir(_)
        )
    }

    fn approx_retained_bytes(&self) -> usize {
        // A shuffle's displaced slots and the pages kept for a later batch
        // of the plan (none at the cap); the frame itself is two counts.
        let shuffle = (self.frame.as_ref()).map_or(0, |frame| match &frame.positions {
            Positions::Shuffle(shuffle) => shuffle.retained_bytes(),
            Positions::Shared | Positions::PerStratum(_) => 0,
        });
        shuffle + self.cache.bytes_cached()
    }

    fn batch_strata(&self) -> Option<&[u32]> {
        self.is_stratified().then_some(self.last_tags.as_slice())
    }

    fn strata_weights(&self) -> Option<Vec<f64>> {
        let frame = self.frame.as_ref().filter(|_| self.is_stratified())?;
        Some(frame.strata.weights())
    }

    fn update_stratum_variances(&mut self, sds: &[f64]) {
        if let Some(frame) = self.frame.as_mut() {
            for (slot, &sd) in frame.sds.iter_mut().zip(sds) {
                if sd.is_finite() && sd >= 0.0 {
                    *slot = sd.max(SD_FLOOR);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SampledRow;
    use crate::stream::tests::draw;
    use samplecf_storage::{CountingSource, Row, Schema, Table, TableBuilder, Value};

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    /// Rows drawn per stratum so far.
    fn stratum_counts(stream: &StratifiedStream) -> Vec<usize> {
        stream
            .frame
            .as_ref()
            .map_or(Vec::new(), |f| f.counts.clone())
    }

    fn sorted(mut rows: Vec<SampledRow>) -> Vec<SampledRow> {
        rows.sort_by_key(|(rid, _)| *rid);
        rows
    }

    fn kind(f: f64, k: usize, alloc: Allocation) -> SamplerKind {
        SamplerKind::Stratified {
            fraction: f,
            strata: k,
            alloc,
            mode: StrataMode::EquiWidth,
        }
    }

    #[test]
    fn single_stratum_is_byte_identical_to_uniform_wr() {
        let t = table(2_000);
        for seed in [0u64, 7, 99] {
            let uniform = draw(SamplerKind::UniformWithReplacement(0.1), &t, seed);
            let stratified = draw(kind(0.1, 1, Allocation::Neyman), &t, seed);
            assert_eq!(stratified, uniform, "seed {seed}");
        }
    }

    #[test]
    fn stream_drains_to_the_one_shot_multiset() {
        let t = table(3_000);
        for alloc in [Allocation::Proportional, Allocation::Neyman] {
            let oneshot = draw(kind(0.08, 5, alloc), &t, 13);
            let mut stream = kind(0.08, 5, alloc)
                .stream(BatchSchedule::default())
                .unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            let mut drained = stream.next_batch(&t, &mut rng).unwrap();
            assert!(!stream.exhausted(), "expected several geometric batches");
            drained.extend(stream.drain(&t, &mut rng).unwrap());
            assert_eq!(drained.len(), 240);
            assert!(stream.exhausted());
            assert_eq!(sorted(drained), sorted(oneshot), "{alloc:?}");
        }
    }

    #[test]
    fn batches_carry_aligned_stratum_tags() {
        let t = table(2_000);
        let mut stream = kind(0.1, 4, Allocation::Proportional)
            .stream(BatchSchedule::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let weights = loop {
            let batch = stream.next_batch(&t, &mut rng).unwrap();
            if batch.is_empty() {
                break stream.strata_weights().unwrap();
            }
            let tags = stream.batch_strata().unwrap().to_vec();
            assert_eq!(tags.len(), batch.len(), "tags align with batch rows");
            // Tags must agree with the page-range partition.
            let strata = Strata::equi_width(&t, 4).unwrap();
            for ((rid, _), &tag) in batch.iter().zip(&tags) {
                assert_eq!(strata.stratum_of_page(rid.page) as u32, tag);
            }
        };
        assert_eq!(weights.len(), 4);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_allocation_tracks_stratum_sizes() {
        let t = table(4_000);
        let mut stream = StratifiedStream::new(
            kind(0.1, 4, Allocation::Proportional),
            BatchSchedule::one_shot(),
        );
        let rows = stream.drain(&t, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(rows.len(), 400);
        let counts = stratum_counts(&stream);
        assert_eq!(counts.iter().sum::<usize>(), 400);
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - 100).unsigned_abs() <= 2,
                "stratum {s} got {c} of an even 400/4 split"
            );
        }
    }

    #[test]
    fn neyman_feedback_shifts_the_allocation() {
        let t = table(4_000);
        let mut stream = StratifiedStream::new(
            kind(0.1, 4, Allocation::Neyman),
            BatchSchedule::new(0.02, 2.0).unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        // First batch under equal sds: proportional split.
        let first = stream.next_batch(&t, &mut rng).unwrap();
        assert!(!first.is_empty());
        // Declare stratum 2 wildly more variable than the rest.
        stream.update_stratum_variances(&[0.0, 0.0, 10.0, 0.0]);
        stream.drain(&t, &mut rng).unwrap();
        let counts = stratum_counts(&stream);
        assert_eq!(counts.iter().sum::<usize>(), 400);
        // Nearly the whole remaining budget goes to the noisy stratum.
        assert!(
            counts[2] > counts[0] + counts[1] + counts[3],
            "Neyman must chase the variance: {counts:?}"
        );
    }

    #[test]
    fn extending_the_cap_continues_the_draw_prefix() {
        let t = table(2_000);
        let shallow = kind(0.05, 3, Allocation::Proportional);
        let deep = kind(0.2, 3, Allocation::Proportional);
        let mut stream = shallow.stream(BatchSchedule::one_shot()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut rows = stream.drain(&t, &mut rng).unwrap();
        assert_eq!(rows.len(), 100);
        assert!(stream.extend_cap(deep));
        assert_eq!(stream.kind(), deep);
        rows.extend(stream.drain(&t, &mut rng).unwrap());
        let fresh = draw(deep, &t, 17);
        assert_eq!(
            sorted(rows),
            sorted(fresh),
            "deepening == fresh deeper draw"
        );
        // Mismatched strata, allocation, family or a shallower fraction all
        // refuse.
        assert!(!stream.extend_cap(kind(0.5, 4, Allocation::Proportional)));
        assert!(!stream.extend_cap(kind(0.5, 3, Allocation::Neyman)));
        assert!(!stream.extend_cap(kind(0.01, 3, Allocation::Proportional)));
        assert!(!stream.extend_cap(SamplerKind::Stratified {
            fraction: 0.5,
            strata: 3,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiDepth,
        }));
        assert!(!stream.extend_cap(SamplerKind::Block(0.5)));
    }

    #[test]
    fn equi_depth_tags_agree_with_the_equi_depth_partition() {
        let t = table(2_000);
        let mut stream = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiDepth,
        }
        .stream(BatchSchedule::default())
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let strata = Strata::equi_depth(&t, 4).unwrap();
        let mut total = 0;
        loop {
            let batch = stream.next_batch(&t, &mut rng).unwrap();
            if batch.is_empty() {
                break;
            }
            let tags = stream.batch_strata().unwrap().to_vec();
            assert_eq!(tags.len(), batch.len());
            for ((rid, _), &tag) in batch.iter().zip(&tags) {
                assert_eq!(strata.stratum_of_page(rid.page) as u32, tag);
            }
            total += batch.len();
        }
        assert_eq!(total, 200);
        assert_eq!(stream.strata_weights().unwrap(), strata.weights());
    }

    #[test]
    fn page_reads_are_schedule_independent() {
        let t = table(3_000);
        let mut pages = Vec::new();
        for schedule in [
            BatchSchedule::one_shot(),
            BatchSchedule::default(),
            BatchSchedule::new(0.001, 1.3).unwrap(),
        ] {
            let counting = CountingSource::new(&t);
            let mut stream = kind(0.05, 4, Allocation::Proportional)
                .stream(schedule)
                .unwrap();
            stream
                .drain(&counting, &mut StdRng::seed_from_u64(3))
                .unwrap();
            pages.push(counting.pages_read());
        }
        assert_eq!(pages[0], pages[1], "held pages must erase batch boundaries");
        assert_eq!(pages[0], pages[2]);
    }

    #[test]
    fn empty_table_stream_is_immediately_exhausted() {
        let t = table(0);
        let mut stream = kind(0.5, 4, Allocation::Neyman)
            .stream(BatchSchedule::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(stream.next_batch(&t, &mut rng).unwrap().is_empty());
        assert!(stream.exhausted());
    }
}
