//! Stress tests for the **sharded** sample cache: a cross-table stampede
//! must still draw once per group and agree byte-for-byte with the serial
//! estimator, and eviction pressure in one shard must not disturb entries
//! resident in the others.

use samplecf_core::SampleCf;
use samplecf_datagen::presets;
use samplecf_index::IndexSpec;
use samplecf_sampling::SamplerKind;
use samplecf_server::{
    CacheDisposition, CachedSample, ConcurrentSampleCache, DEFAULT_CACHE_BUDGET_BYTES,
};
use samplecf_storage::{IntoShared, SharedCountingSource, SharedSource, TableSource};
use std::sync::{Arc, Barrier};

fn counted_tables(count: usize, rows: usize) -> Vec<(Arc<SharedCountingSource>, SharedSource)> {
    (0..count)
        .map(|i| {
            let table =
                presets::single_char_table(&format!("st_{i}"), rows, 24, 40, 8, 900 + i as u64)
                    .generate()
                    .expect("generation succeeds")
                    .table;
            let counting = Arc::new(SharedCountingSource::new(table.into_shared()));
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
    let cache = ConcurrentSampleCache::with_shards(DEFAULT_CACHE_BUDGET_BYTES, 8);
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

    // Cache accounting: one miss per group, everything else hits, and the
    // per-shard breakdown sums to the totals.
    let stats = cache.stats();
    assert_eq!(stats.misses, groups.len() as u64);
    assert_eq!(stats.hits, (THREADS * groups.len() - groups.len()) as u64);
    assert_eq!(stats.entries, groups.len());
    assert_eq!(stats.evictions, 0);
    let per_shard = cache.per_shard_stats();
    assert_eq!(per_shard.len(), 8);
    assert_eq!(
        per_shard.iter().map(|s| s.entries).sum::<usize>(),
        stats.entries
    );
    assert_eq!(
        per_shard.iter().map(|s| s.misses).sum::<u64>(),
        stats.misses
    );
    assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), stats.hits);

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
fn eviction_pressure_in_one_shard_leaves_the_others_untouched() {
    let tables = counted_tables(1, 4_000);
    let (_, shared) = &tables[0];
    let kind = SamplerKind::Block(0.1);

    // Bucket seeds by the shard they route to (the routing is public
    // precisely so tests can aim load at one shard).
    let probe = ConcurrentSampleCache::with_shards(1, 8);
    let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); 8];
    for seed in 0..256u64 {
        by_shard[probe.shard_of(shared, seed)].push(seed);
    }
    let hot = by_shard
        .iter()
        .position(|seeds| seeds.len() >= 8)
        .expect("some shard collects 8 of 256 seeds");
    let cold = (0..8)
        .find(|&s| s != hot && by_shard[s].len() >= 2)
        .expect("another shard collects 2 seeds");

    // Budget: every shard holds about two entries.  Block draws differ in
    // byte size seed to seed (variable-length values), and which seeds land
    // where changes run to run (routing hashes the source *address*), so
    // size the budget from the largest entry this test will actually insert
    // — otherwise an unlucky pair of large cold-shard entries overflows the
    // 2.5-entry budget and evicts without "pressure".
    let entry_bytes = [by_shard[cold][0], by_shard[cold][1], by_shard[hot][0]]
        .iter()
        .map(|&seed| {
            CachedSample::draw(shared, kind, seed)
                .expect("probe draw")
                .approx_bytes()
        })
        .max()
        .expect("non-empty");
    let cache = ConcurrentSampleCache::with_shards((2 * entry_bytes + entry_bytes / 2) * 8, 8);

    // Two residents in the cold shard...
    let cold_seeds = [by_shard[cold][0], by_shard[cold][1]];
    for seed in cold_seeds {
        assert_eq!(
            cache.acquire(shared, kind, seed).expect("fill").disposition,
            CacheDisposition::Miss
        );
    }
    // ...then eviction pressure aimed entirely at the hot shard.
    for &seed in by_shard[hot].iter().take(8) {
        cache.acquire(shared, kind, seed).expect("hot acquire");
    }

    let per_shard = cache.per_shard_stats();
    assert!(
        per_shard[hot].evictions >= 4,
        "hot shard should be evicting: {:?}",
        per_shard[hot]
    );
    for (s, stats) in per_shard.iter().enumerate() {
        if s != hot {
            assert_eq!(stats.evictions, 0, "shard {s} evicted without pressure");
        }
    }
    // The cold shard's residents are still hits.
    for seed in cold_seeds {
        assert_eq!(
            cache
                .acquire(shared, kind, seed)
                .expect("cold hit")
                .disposition,
            CacheDisposition::Hit,
            "cold-shard entry for seed {seed} was lost"
        );
    }
}

#[test]
fn a_tight_budget_stampede_stays_within_shard_budgets_and_never_wedges() {
    const THREADS: usize = 16;
    let tables = counted_tables(4, 2_000);
    let kind = SamplerKind::Block(0.2);
    let entry_bytes = CachedSample::draw(&tables[0].1, kind, 0)
        .expect("probe draw")
        .approx_bytes();
    // Roughly three entries per shard — constant eviction churn.
    let cache = ConcurrentSampleCache::with_shards(entry_bytes * 3 * 8, 8);

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
    // Each shard respects its own budget (one in-flight protected entry
    // of slack, same as the single-lock contract).
    for (s, shard) in cache.per_shard_stats().iter().enumerate() {
        assert!(
            shard.bytes <= shard.budget_bytes + entry_bytes * 2,
            "shard {s} exceeded its budget: {} > {} + slack",
            shard.bytes,
            shard.budget_bytes
        );
    }
}
