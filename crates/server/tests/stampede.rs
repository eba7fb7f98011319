//! Stress tests for the sample cache: a cross-table stampede must still
//! draw once per group and agree byte-for-byte with the serial estimator, a
//! stampede under a tight budget must stay within it and never wedge, and
//! the cache's decisions must not depend on where a table handle happens to
//! be allocated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplecf_core::SampleCf;
use samplecf_datagen::presets;
use samplecf_index::IndexSpec;
use samplecf_sampling::SamplerKind;
use samplecf_server::{
    CacheDisposition, CachedSample, ConcurrentSampleCache, DEFAULT_CACHE_BUDGET_BYTES,
};
use samplecf_storage::{CountingSource, IntoShared, SharedSource, TableSource};
use std::sync::{Arc, Barrier};

fn counted_tables(
    count: usize,
    rows: usize,
) -> Vec<(Arc<CountingSource<SharedSource>>, SharedSource)> {
    (0..count)
        .map(|i| {
            let table =
                presets::single_char_table(&format!("st_{i}"), rows, 24, 40, 8, 900 + i as u64)
                    .generate()
                    .expect("generation succeeds")
                    .table;
            let counting = Arc::new(CountingSource::new(table.into_shared()));
            let shared = Arc::clone(&counting) as SharedSource;
            (counting, shared)
        })
        .collect()
}

#[test]
fn a_cross_table_stampede_draws_once_per_group_and_matches_serial() {
    const THREADS: usize = 16;
    const SEEDS: [u64; 4] = [1, 2, 3, 4];
    let kind = SamplerKind::Block(0.2);
    let tables = counted_tables(4, 6_000);

    // The serial truth: one standalone draw per (table, seed) group.
    let serial: Vec<(usize, u64)> = (0..tables.len())
        .flat_map(|t| SEEDS.iter().map(move |&seed| (t, seed)))
        .collect();
    let serial_rows: Vec<_> = serial
        .iter()
        .map(|&(t, seed)| {
            CachedSample::draw(&tables[t].1, kind, seed)
                .expect("serial draw")
                .sample()
                .rows()
                .expect("sample decodes")
        })
        .collect();
    let expected_pages_per_table: Vec<u64> = tables
        .iter()
        .map(|(counting, shared)| {
            let per_draw = ((shared.num_pages() as f64) * 0.2).round().max(1.0) as u64;
            counting.reset();
            per_draw * SEEDS.len() as u64
        })
        .collect();

    // 16 threads sweep all 16 groups, each starting at a different
    // rotation so every group sees genuine cross-thread contention.
    let cache = ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES);
    let barrier = Barrier::new(THREADS);
    let groups = serial.clone();
    let acquired: Vec<Vec<(usize, samplecf_server::AcquiredSample)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let cache = &cache;
                    let tables = &tables;
                    let groups = &groups;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..groups.len())
                            .map(|step| {
                                let g = (step + thread) % groups.len();
                                let (t, seed) = groups[g];
                                let sample = cache
                                    .acquire(&tables[t].1, kind, seed)
                                    .expect("acquire succeeds");
                                (g, sample)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

    // Byte-identical to the serial draw, for every thread and group.
    for per_thread in &acquired {
        for (g, sample) in per_thread {
            assert_eq!(
                sample.sample.rows().expect("sample decodes"),
                serial_rows[*g],
                "group {g} diverged from the serial draw"
            );
        }
    }

    // Physically: each table's pages were read once per seed group, no
    // matter that 16 threads requested each group.
    for ((counting, _), expected) in tables.iter().zip(&expected_pages_per_table) {
        assert_eq!(counting.pages_read(), *expected);
    }

    // Cache accounting: one miss per group, everything else hits.
    let stats = cache.stats();
    assert_eq!(stats.misses, groups.len() as u64);
    assert_eq!(stats.hits, (THREADS * groups.len() - groups.len()) as u64);
    assert_eq!(stats.entries, groups.len());
    assert_eq!(stats.evictions, 0);

    // And estimates measured from a cached sample are byte-identical to
    // the single-shot estimator, seed for seed.
    let (_, shared) = &tables[0];
    let spec = IndexSpec::nonclustered("idx", ["a"]).expect("valid spec");
    let scheme = samplecf_compression::NullSuppression;
    let direct = SampleCf::new(kind)
        .seed(SEEDS[0])
        .estimate(shared, &spec, &scheme)
        .expect("direct estimate");
    let handle = cache.acquire(shared, kind, SEEDS[0]).expect("cached");
    let from_cache = samplecf_core::measure_sample(
        &handle.sample,
        &spec,
        &scheme,
        &samplecf_index::IndexBuilder::new(),
    )
    .expect("measure succeeds");
    assert_eq!(from_cache.cf, direct.cf);
    assert_eq!(from_cache.cf_with_pointers, direct.cf_with_pointers);
    assert_eq!(from_cache.data, direct.data);
}

#[test]
fn a_tight_budget_stampede_stays_within_the_budget_and_never_wedges() {
    const THREADS: usize = 16;
    let tables = counted_tables(4, 2_000);
    let kind = SamplerKind::Block(0.2);
    let entry_bytes = CachedSample::draw(&tables[0].1, kind, 0)
        .expect("probe draw")
        .approx_bytes();
    // Room for about eight entries: the revisited working set alone fills
    // it, so every fresh group evicts.
    let cache = ConcurrentSampleCache::new(entry_bytes * 8);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = &cache;
            let tables = &tables;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for i in 0..200u64 {
                    // Half the ops revisit a small working set (hits under
                    // churn), half are fresh groups (forced evictions).
                    let seed = if i % 2 == 0 {
                        i % 8
                    } else {
                        thread as u64 * 1_000 + i
                    };
                    let table = &tables[(seed as usize) % tables.len()].1;
                    cache
                        .acquire(table, kind, seed)
                        .expect("acquire under churn");
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * 200) as u64);
    assert!(stats.evictions > 0, "the budget was never under pressure");
    // The one budget holds (two entries of slack: the protected entry just
    // used, and per-seed size differences).
    assert!(
        stats.bytes <= stats.budget_bytes + entry_bytes * 2,
        "the cache exceeded its budget: {} > {} + slack",
        stats.bytes,
        stats.budget_bytes
    );
}

/// One step of [`a_replayed_sequence_is_independent_of_the_handle_address`]:
/// what the cache did with the request and its eviction count after it.
type Step = (CacheDisposition, u64);

fn replay(source: &SharedSource, requests: &[(SamplerKind, u64)], budget: usize) -> Vec<Step> {
    let cache = ConcurrentSampleCache::new(budget);
    requests
        .iter()
        .map(|&(kind, seed)| {
            let acquired = cache.acquire(source, kind, seed).expect("acquire");
            (acquired.disposition, cache.stats().evictions)
        })
        .collect()
}

#[test]
fn a_replayed_sequence_is_independent_of_the_handle_address() {
    // Two separately allocated handles of one table, each behind its own
    // cache, serve one fixed 200-request sequence: every hit, miss,
    // deepening and eviction lands at the same step.  (A cache routed by
    // the handle's address would not promise this.)
    let handle = || {
        presets::single_char_table("replay", 3_000, 24, 40, 8, 77)
            .generate()
            .expect("generation succeeds")
            .table
            .into_shared()
    };
    let (first, second) = (handle(), handle());
    assert!(!Arc::ptr_eq(&first, &second));

    let mut rng = StdRng::seed_from_u64(2024);
    let families: [fn(f64) -> SamplerKind; 2] =
        [SamplerKind::Block, SamplerKind::UniformWithReplacement];
    let requests: Vec<(SamplerKind, u64)> = (0..200)
        .map(|_| {
            let family = families[rng.gen_range(0..families.len())];
            let fraction = [0.05, 0.1, 0.2][rng.gen_range(0..3usize)];
            (family(fraction), rng.gen_range(0..4u64))
        })
        .collect();
    // About five shallow entries fit: deeper ones push several out.
    let budget = CachedSample::draw(&first, SamplerKind::Block(0.05), 0)
        .expect("probe draw")
        .approx_bytes()
        * 5;

    let steps = replay(&first, &requests, budget);
    assert_eq!(steps, replay(&second, &requests, budget));
    for disposition in [
        CacheDisposition::Hit,
        CacheDisposition::Miss,
        CacheDisposition::Deepened,
    ] {
        assert!(
            steps.iter().any(|(d, _)| *d == disposition),
            "the sequence never produced a {disposition:?}"
        );
    }
    assert!(
        steps.last().expect("200 steps").1 > 0,
        "nothing was evicted"
    );
}
