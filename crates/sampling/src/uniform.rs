//! What every row-position kind draws one-shot: uniform with and without
//! replacement, Bernoulli and the reservoir, each a draw of the
//! [`StratifiedStream`](crate::stratified::StratifiedStream) (Bernoulli is
//! uniform-wor at a binomial cap, a reservoir uniform-wor at its size).
//! Only the tests live here.

#[cfg(test)]
mod tests {
    use crate::sampler::{bernoulli_size, SampledRow};
    use crate::stream::tests::draw;
    use crate::{BatchSchedule, RecordBatch, SamplerKind};
    use rand::rngs::StdRng;
    use rand::seq::index;
    use rand::SeedableRng;
    use samplecf_storage::{
        CountingSource, Frame, Row, Schema, Table, TableBuilder, TableSource, Value,
    };
    use std::collections::HashSet;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 16))
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The rows at `positions` of `t`'s frame, in frame order, decoded.
    fn rows_at(t: &Table, mut positions: Vec<usize>) -> Vec<SampledRow> {
        let frame = Frame::of(t);
        positions.sort_unstable();
        (positions.into_iter())
            .map(|pos| {
                let rid = frame.rid(pos);
                let page = t.read_page_ref(rid.page).unwrap();
                (rid, t.codec().decode(page.get(rid.slot).unwrap()).unwrap())
            })
            .collect()
    }

    /// Every batch of `kind` under the default schedule, and the pages the
    /// draw read.
    fn batches(kind: SamplerKind, t: &Table, seed: u64) -> (Vec<RecordBatch>, u64) {
        let counting = CountingSource::new(t);
        let mut stream = kind.stream(BatchSchedule::default()).unwrap();
        let mut rng = rng(seed);
        let mut batches = Vec::new();
        loop {
            let batch = stream.next_records(&counting, &mut rng).unwrap();
            if batch.is_empty() {
                return (batches, counting.pages_read());
            }
            batches.push(batch);
        }
    }

    fn distinct_rids(sample: &[SampledRow]) -> usize {
        let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
        distinct.len()
    }

    #[test]
    fn with_replacement_draws_exact_count_and_allows_duplicates() {
        let t = table(200);
        let sample = draw(SamplerKind::UniformWithReplacement(0.5), &t, 1);
        assert_eq!(sample.len(), 100);
        // With 100 draws from 200 rows, duplicates are essentially certain.
        assert!(distinct_rids(&sample) < sample.len());
    }

    #[test]
    fn without_replacement_draws_distinct_rows() {
        let t = table(200);
        let sample = draw(SamplerKind::UniformWithoutReplacement(0.25), &t, 2);
        assert_eq!(sample.len(), 50);
        assert_eq!(distinct_rids(&sample), 50);
    }

    #[test]
    fn bernoulli_sample_size_is_near_expectation() {
        let t = table(5000);
        let sample = draw(SamplerKind::Bernoulli(0.1), &t, 3);
        assert!((sample.len() as f64 - 500.0).abs() < 5.0 * (5000.0f64 * 0.1 * 0.9).sqrt());
    }

    #[test]
    fn bernoulli_is_uniform_wor_at_a_binomial_cap_seed_for_seed() {
        // The reference counts the binomial cap, then takes `index::sample`
        // of that many positions on the same RNG, and decodes them.
        let t = table(3_000);
        for seed in [0u64, 1, 42] {
            for p in [0.01, 0.3, 1.0] {
                let mut r = rng(seed);
                let size = bernoulli_size(t.num_rows(), p, &mut r);
                let reference = rows_at(&t, index::sample(&mut r, t.num_rows(), size).into_vec());
                let sample = draw(SamplerKind::Bernoulli(p), &t, seed);
                assert_eq!(sample, reference, "bernoulli p={p} seed={seed}");
            }
        }
    }

    #[test]
    fn reservoir_is_uniform_wor_at_a_fixed_cap_seed_for_seed() {
        // A reservoir of `k` rows is uniform-wor at `round(f·n) = k`: the
        // same records and RIDs, in the same batches, from the same pages;
        // and both are the `index::sample(n, k)` prefix on the same RNG.
        let t = table(3_000);
        let n = t.num_rows();
        for seed in [0u64, 1, 42, 2_024] {
            for k in [1, 37, 100, 1_500, n] {
                let uniform_wor = SamplerKind::UniformWithoutReplacement(k as f64 / n as f64);
                let (reservoir, reservoir_pages) = batches(SamplerKind::Reservoir(k), &t, seed);
                let (wor, wor_pages) = batches(uniform_wor, &t, seed);
                assert_eq!(reservoir, wor, "k={k} seed={seed}");
                assert_eq!(reservoir_pages, wor_pages, "k={k} seed={seed}");
                let sample = draw(SamplerKind::Reservoir(k), &t, seed);
                assert_eq!(sample.len(), k);
                assert_eq!(distinct_rids(&sample), k, "without replacement");
                let reference = index::sample(&mut rng(seed), n, k).into_vec();
                assert_eq!(sample, rows_at(&t, reference), "k={k} seed={seed}");
            }
        }
        // A reservoir larger than the table holds all of it; an empty
        // table gives an empty sample.
        let small = table(5);
        let whole = draw(SamplerKind::Reservoir(50), &small, 2);
        assert_eq!(whole, small.scan_rows().unwrap());
        assert_eq!(
            whole,
            draw(SamplerKind::UniformWithoutReplacement(1.0), &small, 2)
        );
        assert!(draw(SamplerKind::Reservoir(10), &table(0), 9).is_empty());
    }

    #[test]
    fn small_fractions_still_return_at_least_one_row() {
        let t = table(50);
        for kind in [
            SamplerKind::UniformWithReplacement(0.001),
            SamplerKind::UniformWithoutReplacement(0.001),
        ] {
            assert_eq!(draw(kind, &t, 5).len(), 1);
        }
    }

    #[test]
    fn empty_table_yields_empty_samples() {
        let t = table(0);
        for kind in [
            SamplerKind::UniformWithReplacement(0.1),
            SamplerKind::UniformWithoutReplacement(0.1),
            SamplerKind::Bernoulli(0.1),
            SamplerKind::Reservoir(10),
        ] {
            assert!(draw(kind, &t, 6).is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn full_fraction_returns_the_whole_table() {
        // Unified edge behaviour: fraction == 1.0 covers every row.
        let t = table(120);
        let sample = draw(SamplerKind::UniformWithoutReplacement(1.0), &t, 8);
        assert_eq!(sample.len(), 120);
        assert_eq!(distinct_rids(&sample), 120);
        for kind in [
            SamplerKind::UniformWithReplacement(1.0),
            SamplerKind::Bernoulli(1.0),
        ] {
            assert_eq!(draw(kind, &t, 8).len(), 120, "{kind:?}");
        }
    }

    #[test]
    fn invalid_fractions_rejected() {
        for kind in [
            SamplerKind::UniformWithReplacement(0.0),
            SamplerKind::UniformWithoutReplacement(2.0),
            SamplerKind::Bernoulli(-1.0),
            SamplerKind::Bernoulli(f64::INFINITY),
        ] {
            assert!(kind.stream(BatchSchedule::one_shot()).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn sampling_is_reproducible_for_a_fixed_seed() {
        let t = table(300);
        let kind = SamplerKind::UniformWithReplacement(0.1);
        let a = draw(kind, &t, 42);
        let b = draw(kind, &t, 42);
        assert_eq!(a, b);
        let c = draw(kind, &t, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn inclusion_probabilities_are_roughly_uniform() {
        // Draw many with-replacement samples and check that every row is hit
        // a comparable number of times (loose 3x band).
        let t = table(50);
        let mut counts = vec![0usize; 50];
        for seed in 0..200 {
            for (_, row) in draw(SamplerKind::UniformWithReplacement(1.0), &t, seed) {
                let id: usize = row.value(0).as_str().unwrap()[1..].parse().unwrap();
                counts[id] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let mean = total as f64 / 50.0;
        for c in counts {
            assert!(
                (c as f64) > mean / 3.0 && (c as f64) < mean * 3.0,
                "count {c} vs mean {mean}"
            );
        }
    }
}
