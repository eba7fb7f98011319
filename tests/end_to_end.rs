//! End-to-end integration tests spanning every crate: generate data, build
//! indexes, compress them, sample, estimate, and compare with ground truth.

use samplecf::prelude::*;
use samplecf_oracle::{codec_by_name, compress_index, leaf_entries, LeafEntry};

fn demo_table(n: usize, d: usize, seed: u64) -> Table {
    presets::variable_length_table("t", n, 32, d, 4, 28, seed)
        .generate()
        .expect("generation succeeds")
        .table
}

#[test]
fn every_scheme_and_sampler_combination_produces_a_sane_estimate() {
    let table = demo_table(8_000, 400, 1);
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
    let samplers = [
        SamplerKind::UniformWithReplacement(0.05),
        SamplerKind::UniformWithoutReplacement(0.05),
        SamplerKind::Bernoulli(0.05),
        SamplerKind::Reservoir(400),
        SamplerKind::Block(0.05),
    ];
    for scheme_name in scheme_names() {
        let scheme = scheme_by_name(scheme_name).unwrap();
        let exact = ExactCf::new()
            .compute(&table, &spec, scheme.as_ref())
            .unwrap();
        assert!(
            exact.cf > 0.0 && exact.cf < 1.2,
            "{scheme_name}: exact cf {}",
            exact.cf
        );
        for sampler in samplers {
            let est = SampleCf::new(sampler)
                .seed(3)
                .estimate(&table, &spec, scheme.as_ref())
                .unwrap();
            assert!(
                est.cf > 0.0 && est.cf < 1.5,
                "{scheme_name} with {sampler:?}: estimate {}",
                est.cf
            );
            assert!(est.data.rows > 0);
            assert!(est.data.rows < table.num_rows());
        }
    }
}

#[test]
fn clustered_and_nonclustered_indexes_compress_consistently() {
    let generated = presets::orders_table("orders", 6_000, 2)
        .generate()
        .unwrap();
    let table = generated.table;
    let clustered = IndexSpec::clustered("pk", ["order_id"]).unwrap();
    let secondary = IndexSpec::nonclustered("by_status", ["status"]).unwrap();
    let scheme = DictionaryCompression::default();

    let pk = ExactCf::new().compute(&table, &clustered, &scheme).unwrap();
    let by_status = ExactCf::new().compute(&table, &secondary, &scheme).unwrap();

    // The clustered index stores every column so its uncompressed footprint
    // is much larger than the single-column secondary index's.
    assert!(pk.report.uncompressed_data_bytes() > by_status.report.uncompressed_data_bytes());
    // The status column has 5 distinct values, so dictionary compression
    // crushes the secondary index.
    assert!(by_status.cf < 0.45, "status index cf = {}", by_status.cf);
    // Estimates track both.
    for (spec, exact) in [(&clustered, &pk), (&secondary, &by_status)] {
        let est = SampleCf::with_fraction(0.05)
            .seed(5)
            .estimate(&table, spec, &scheme)
            .unwrap();
        assert!(
            ratio_error(est.cf, exact.cf) < 1.6,
            "{}: est {} vs exact {}",
            spec.name(),
            est.cf,
            exact.cf
        );
    }
}

#[test]
fn index_lookup_agrees_with_table_scan_after_compression_roundtrip() {
    let table = demo_table(3_000, 40, 3);
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
    let index = IndexBuilder::new().build_from_table(&table, &spec).unwrap();

    // Pick an existing key and check the index's leaves hold all of its
    // rows, each pointing back at a row with that key.
    let rows = table.scan_rows().unwrap();
    let needle = rows[17].1.value(0).clone();
    let from_scan = rows
        .iter()
        .filter(|(_, row)| row.value(0) == &needle)
        .count();
    let from_index: Vec<LeafEntry> = (index.leaf_pages().iter())
        .flat_map(|page| leaf_entries(&index, page).unwrap())
        .filter(|entry| entry.stored.value(0) == &needle)
        .collect();
    assert_eq!(from_index.len(), from_scan);
    for entry in from_index {
        let rid = entry.rid.expect("nonclustered entries have rids");
        let page = table.read_page_ref(rid.page).unwrap();
        let row = table.codec().decode(page.get(rid.slot).unwrap()).unwrap();
        assert_eq!(row.value(0), &needle);
    }

    // Compressing the leaf level through every codec keeps every entry.
    for scheme_name in scheme_names() {
        let codec = codec_by_name(scheme_name).unwrap();
        let report = compress_index(&index, codec.as_ref()).unwrap();
        assert_eq!(report.num_entries, 3_000, "{scheme_name}");
    }
}

#[test]
fn estimator_handles_tiny_tables_and_full_sampling() {
    let table = demo_table(25, 5, 4);
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
    // A 100% "sample" reproduces the exact CF for deterministic samplers.
    let exact = ExactCf::new()
        .compute(&table, &spec, &NullSuppression)
        .unwrap();
    let est = SampleCf::new(SamplerKind::UniformWithoutReplacement(1.0))
        .estimate(&table, &spec, &NullSuppression)
        .unwrap();
    assert!((est.cf - exact.cf).abs() < 1e-9);
    // Tiny fractions still work (they draw at least one row).
    let est = SampleCf::with_fraction(0.001)
        .estimate(&table, &spec, &NullSuppression)
        .unwrap();
    assert!(est.data.rows >= 1);
}

/// A unique temp path for disk-backed tests, removed on drop.
struct TempTableFile(std::path::PathBuf);

impl TempTableFile {
    fn new(tag: &str) -> Self {
        TempTableFile(
            std::env::temp_dir().join(format!("samplecf_e2e_{tag}_{}.scf", std::process::id())),
        )
    }
}

impl Drop for TempTableFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn disk_estimation_matches_in_memory_estimation_seed_for_seed() {
    let mem = demo_table(12_000, 600, 21);
    let file = TempTableFile::new("parity");
    let disk = Table::materialize(&file.0, &mem).unwrap();
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();

    for sampler in [
        SamplerKind::UniformWithReplacement(0.05),
        SamplerKind::UniformWithoutReplacement(0.05),
        SamplerKind::Bernoulli(0.05),
        SamplerKind::Reservoir(500),
        SamplerKind::Block(0.05),
    ] {
        for scheme_name in scheme_names() {
            let scheme = scheme_by_name(scheme_name).unwrap();
            let on_mem = SampleCf::new(sampler)
                .seed(77)
                .estimate(&mem, &spec, scheme.as_ref())
                .unwrap();
            let on_disk = SampleCf::new(sampler)
                .seed(77)
                .estimate(&disk, &spec, scheme.as_ref())
                .unwrap();
            assert_eq!(
                on_mem.cf, on_disk.cf,
                "{sampler:?}/{scheme_name}: disk and memory disagree"
            );
            assert_eq!(on_mem.data, on_disk.data, "{sampler:?}/{scheme_name}");
        }
    }

    // The exact baseline agrees too.
    let exact_mem = ExactCf::new()
        .compute(&mem, &spec, &NullSuppression)
        .unwrap();
    let exact_disk = ExactCf::new()
        .compute(&disk, &spec, &NullSuppression)
        .unwrap();
    assert_eq!(exact_mem.cf, exact_disk.cf);
}

#[test]
fn block_sampling_on_disk_reads_only_the_sampled_pages() {
    let mem = demo_table(30_000, 1_000, 22);
    let file = TempTableFile::new("block_io");
    let disk = Table::materialize(&file.0, &mem).unwrap();
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
    let num_pages = TableSource::num_pages(&disk);
    assert!(num_pages > 20, "need a multi-page table, got {num_pages}");

    for f in [0.02, 0.1, 0.5] {
        let counting = CountingSource::new(&disk);
        let est = SampleCf::new(SamplerKind::Block(f))
            .seed(5)
            .estimate(&counting, &spec, &NullSuppression)
            .unwrap();
        assert!(est.cf > 0.0);
        let expected = ((num_pages as f64 * f).round() as u64).max(1);
        assert_eq!(
            counting.pages_read(),
            expected,
            "block sampling at f = {f} must read round(f x {num_pages}) pages"
        );
    }

    // The exact computation, by contrast, reads every page.
    let counting = CountingSource::new(&disk);
    ExactCf::new()
        .compute(&counting, &spec, &NullSuppression)
        .unwrap();
    assert_eq!(counting.pages_read(), num_pages as u64);
}

/// A table file without write permission opens and serves a block
/// estimate, because `Table::open` asks only for read access.  Root ignores
/// permission bits, so this test can only fail when run unprivileged, as CI
/// runs it, or as root without `CAP_DAC_OVERRIDE`: there, opening the file
/// for writing is `Permission denied`.
#[test]
fn a_read_only_table_file_opens_and_serves_a_block_estimate() {
    use std::os::unix::fs::PermissionsExt;
    let mem = demo_table(6_000, 300, 23);
    let file = TempTableFile::new("read_only");
    let num_pages = Table::materialize(&file.0, &mem).unwrap().num_pages();
    std::fs::set_permissions(&file.0, std::fs::Permissions::from_mode(0o444)).unwrap();

    let disk = Table::open(&file.0).unwrap();
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
    let counting = CountingSource::new(&disk);
    let sampler = SampleCf::new(SamplerKind::Block(0.1)).seed(9);
    let on_disk = sampler
        .estimate(&counting, &spec, &NullSuppression)
        .unwrap();
    let on_mem = sampler.estimate(&mem, &spec, &NullSuppression).unwrap();
    assert_eq!(on_disk.cf, on_mem.cf);
    assert_eq!(
        counting.pages_read(),
        ((num_pages as f64 * 0.1).round() as u64).max(1)
    );
}

#[test]
fn shared_sample_advisor_reads_sampled_pages_exactly_once_on_disk() {
    // The acceptance test for the batch advisor: k candidates priced on one
    // held (sampler, fraction, seed) sample of a disk-backed table cost
    // round(f · num_pages) physical page reads *in total*, not per
    // candidate — and each recommendation is the direct estimate.
    let mem = demo_table(24_000, 800, 31);
    let file = TempTableFile::new("advisor_shared");
    let disk = Table::materialize(&file.0, &mem).unwrap();
    let num_pages = TableSource::num_pages(&disk);
    assert!(num_pages > 20, "need a multi-page table, got {num_pages}");
    let disk = disk.into_shared();

    let (kind, seed) = (SamplerKind::Block(0.05), 9);
    let specs = [
        IndexSpec::nonclustered("by_a", ["a"]).unwrap(),
        IndexSpec::clustered("cl_a", ["a"]).unwrap(),
    ];
    // k = 6 candidates: every (spec × scheme) pair, all on one sample.
    let candidates: Vec<(IndexSpec, Box<dyn CompressionScheme>)> = specs
        .iter()
        .flat_map(|spec| {
            ["null-suppression", "dictionary-global", "rle"]
                .map(|name| (spec.clone(), scheme_by_name(name).unwrap()))
        })
        .collect();
    assert_eq!(candidates.len(), 6);

    let counting = CountingSource::new(disk.clone());
    let sample = MaterializedSample::draw(&counting, kind, seed).unwrap();
    let draw_pages = counting.pages_read();
    let plan = CompressionAdvisor::new(AdvisorConfig::default())
        .unwrap()
        .plan(&[(&sample, draw_pages, &candidates)])
        .unwrap();

    // One group, one sample, round(f·N) pages — once, total: planning
    // reads nothing.
    let expected_pages = ((num_pages as f64 * 0.05).round() as u64).max(1);
    assert_eq!(counting.pages_read(), expected_pages);
    assert_eq!(plan.samples_drawn(), 1);
    assert_eq!(plan.pages_read(), expected_pages);
    assert_eq!(plan.groups[0].candidates, 6);
    // The naive baseline would have paid that six times over.
    assert_eq!(plan.naive_pages_read(), expected_pages * 6);

    // Each shared estimate equals a direct estimator run with the same
    // sampler and seed.
    for ((spec, scheme), r) in candidates.iter().zip(&plan.recommendations) {
        let direct = SampleCf::new(kind)
            .seed(seed)
            .estimate(&disk, spec, scheme.as_ref())
            .unwrap();
        assert_eq!(r.estimated_cf, direct.cf, "{}/{}", r.index, r.scheme);
        assert_eq!(r.sample_rows, direct.data.rows);
    }
}

#[test]
fn trial_runner_parallelism_is_deterministic_over_disk_tables() {
    let mem = demo_table(6_000, 300, 23);
    let file = TempTableFile::new("trials");
    let disk = Table::materialize(&file.0, &mem).unwrap();
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();

    let single = TrialRunner::new(TrialConfig::new(8).base_seed(3).threads(1))
        .run_estimates(
            &disk,
            &spec,
            &NullSuppression,
            SamplerKind::UniformWithReplacement(0.05),
        )
        .unwrap();
    let multi = TrialRunner::new(TrialConfig::new(8).base_seed(3).threads(4))
        .run_estimates(
            &disk,
            &spec,
            &NullSuppression,
            SamplerKind::UniformWithReplacement(0.05),
        )
        .unwrap();
    assert_eq!(single, multi, "thread count must not change disk results");

    // And the disk trials equal the in-memory trials seed-for-seed.
    let in_memory = TrialRunner::new(TrialConfig::new(8).base_seed(3))
        .run_estimates(
            &mem,
            &spec,
            &NullSuppression,
            SamplerKind::UniformWithReplacement(0.05),
        )
        .unwrap();
    assert_eq!(single, in_memory);
}

#[test]
fn stopping_rules_on_a_disk_table_stop_early_only_with_an_honest_interval() {
    use samplecf::sampling::{Allocation, StrataMode};

    let spec = IndexSpec::nonclustered("idx_a", ["a"]).unwrap();
    let config = ProgressiveConfig {
        target_error: 0.1,
        confidence: 0.95,
        schedule: BatchSchedule::new(0.002, 3.0).unwrap(),
    };
    let run = |table: &Table, kind: SamplerKind| {
        ProgressiveCf::new(kind, config)
            .seed(2)
            .run(table, &spec, &NullSuppression)
            .unwrap()
    };
    // Pages a fixed-fraction block draw at the same seed costs, and its CF.
    let one_shot = |table: &Table, fraction: f64| {
        let counting = CountingSource::new(table);
        let estimate = SampleCf::new(SamplerKind::Block(fraction))
            .seed(2)
            .estimate(&counting, &spec, &NullSuppression)
            .unwrap();
        (estimate.cf, counting.pages_read())
    };

    // (a) Value-clustered variable-length rows.  Strata aligned with the
    // value runs leave almost no within-stratum variance, which the design
    // variance prices stratum by stratum; uniform rows see the whole
    // between-run spread.  Small
    // pages keep the page count well above the sampled row count, so
    // pages-to-target tracks rows-to-target instead of saturating the table.
    let clustered = presets::clustered_variable_table("strat_clustered", 24_000, 64, 8, 9);
    let file = TempTableFile::new("stopping_small_pages");
    let small_pages = clustered.clone().page_size(1024).generate().unwrap().table;
    let disk = Table::materialize(&file.0, &small_pages).unwrap();
    let exact = ExactCf::new()
        .compute(&disk, &spec, &NullSuppression)
        .unwrap();
    let neyman = run(
        &disk,
        SamplerKind::Stratified {
            fraction: 0.2,
            strata: 16,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiWidth,
        },
    );
    let uniform = run(&disk, SamplerKind::UniformWithReplacement(0.2));
    assert!(neyman.target_met && uniform.target_met);
    assert!(ratio_error(neyman.measurement.cf, exact.cf) < 1.1);
    assert!(
        neyman.pages_read * 2 <= uniform.pages_read,
        "stratified+Neyman must need at most half of uniform's pages: {} vs {}",
        neyman.pages_read,
        uniform.pages_read
    );

    // (b) The same rows on default-size pages, each inside one value run:
    // block batches disagree, the interval never tightens, the run spends
    // its whole cap — and a fully consumed prefix-stable stream is the
    // one-shot draw, reported with an honest "target not met".
    let file = TempTableFile::new("stopping_clustered");
    let disk = Table::materialize(&file.0, &clustered.generate().unwrap().table).unwrap();
    let block = run(&disk, SamplerKind::Block(0.2));
    assert!(!block.target_met && !block.stopped_early);
    assert_eq!(
        (block.measurement.cf, block.pages_read),
        one_shot(&disk, 0.2)
    );

    // (c) On all-equal rows the same rule stops long before a fixed
    // f = 0.1 draw would — once the sample holds the pages a design
    // variance needs (`theory::MIN_DESIGN_UNITS`), which small pages put
    // well inside the cap.
    let constant = presets::constant_table("const", 24_000, 24, 8, 41)
        .page_size(1024)
        .generate()
        .unwrap()
        .table;
    let file = TempTableFile::new("stopping_constant");
    let disk = Table::materialize(&file.0, &constant).unwrap();
    let adaptive = run(&disk, SamplerKind::Block(0.1));
    let (_, fixed_pages) = one_shot(&disk, 0.1);
    assert!(adaptive.target_met);
    assert!(
        adaptive.pages_read < fixed_pages,
        "adaptive read {} pages, the fixed draw {fixed_pages}",
        adaptive.pages_read
    );
}

/// A disk table whose every record holds a character cell that is not
/// UTF-8, on pages whose checksums are valid: the file reads back, and only
/// the record check can refuse it.
fn table_with_invalid_utf8(path: &std::path::Path) -> Table {
    let schema = Schema::single_char("a", 8);
    let codec = samplecf::storage::RowCodec::new(schema.clone());
    Table::create(path, "bad_utf8", schema, 512).unwrap();
    let mut heap = samplecf::storage::HeapFile::open(path).unwrap();
    let mut record = codec.encode(&Row::new(vec![Value::str("ok")])).unwrap();
    record[1] = 0xFF;
    for _ in 0..120 {
        heap.insert(&record).unwrap();
    }
    heap.sync().unwrap();
    drop(heap);
    Table::open(path).unwrap()
}

#[test]
fn a_record_that_is_not_utf8_fails_the_estimate_that_draws_it_with_a_typed_error() {
    use samplecf::core::CoreError;
    use samplecf::sampling::SamplingError;
    use samplecf::server::{Json, ServiceState, DEFAULT_CACHE_BUDGET_BYTES};
    use samplecf::storage::StorageError;

    /// Removes the table files when the test ends, pass or fail.
    struct Cleanup([std::path::PathBuf; 2]);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            for path in &self.0 {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let files = Cleanup(["bad", "good"].map(|name| {
        let file = format!("samplecf_{name}_utf8_{}.scf", std::process::id());
        std::env::temp_dir().join(file)
    }));
    let [bad_path, good_path] = &files.0;
    let bad = table_with_invalid_utf8(bad_path);
    assert!(bad.num_pages() > 1);
    Table::materialize(good_path, &demo_table(2_000, 50, 4)).unwrap();
    let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();

    // The library: the draw's check is the decoder's, as a storage error.
    for sampler in [
        SamplerKind::Block(0.5),
        SamplerKind::UniformWithReplacement(0.5),
    ] {
        let err = SampleCf::new(sampler)
            .seed(1)
            .estimate(&bad, &spec, &NullSuppression)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::Sampling(SamplingError::Storage(StorageError::Decode(message)))
                    if message.contains("utf8")
            ),
            "{sampler:?}: {err:?}"
        );
    }

    // Served: a typed error, twice (nothing is left in flight), and the
    // cache still serves another table.
    let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
    let reply = |line: String| Json::parse(&state.handle_line(&line)).unwrap();
    for (path, name) in [(bad_path, "bad"), (good_path, "good")] {
        let registered = reply(format!(
            r#"{{"op":"register","path":"{}","name":"{name}"}}"#,
            path.display()
        ));
        assert_eq!(registered.get("ok").and_then(Json::as_bool), Some(true));
    }
    let estimate = |table: &str| {
        reply(format!(
            r#"{{"op":"estimate","table":"{table}","sampler":"block","fraction":0.5,"seed":1}}"#
        ))
    };
    for _ in 0..2 {
        let failed = estimate("bad");
        assert_eq!(failed.get("ok").and_then(Json::as_bool), Some(false));
        let error = failed.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("estimate_failed")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("utf8"), "{message}");
    }
    let served = estimate("good");
    assert_eq!(
        served.get("ok").and_then(Json::as_bool),
        Some(true),
        "{served}"
    );
    let stats = reply(r#"{"op":"stats"}"#.to_string());
    let cache = stats.get("stats").and_then(|s| s.get("cache")).unwrap();
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
}
