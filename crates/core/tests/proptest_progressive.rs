//! Property-based parity tests for progressive estimation.
//!
//! The refactor's central promise: a `ProgressiveCf` run that stops at
//! exactly fraction `f` (early stopping disabled, cap at `f`) is
//! **byte-identical** — CF (all three variants), `DataStats`, the full
//! per-column report, and physical pages read — to the one-shot
//! `SampleCf` at `f`, for every streaming sampler, over both the
//! in-memory and the disk-backed table sources.  Prefix-stable streams
//! and the schedule-independent page-coalesced fetch are what make this
//! hold however the progressive run batches its draw.
//!
//! The variance side has its own oracle: every checkpoint's interval must
//! equal, bit for bit, a jackknife recomputed the slow way — a from-scratch
//! index over the rows of the other batches for every deleted batch, packed
//! and measured — under every scheme, whichever way the run priced its
//! leave-one-outs (arithmetic on per-cell costs or a size-only walk).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_compression::{scheme_by_name, scheme_names, CompressionScheme};
use samplecf_core::{
    grouped_jackknife_variance, measure_rows, ns_row_statistic, theory, weighted_combine,
    MomentSketch, ProgressiveCf, ProgressiveConfig, SampleCf, VarianceNode,
};
use samplecf_datagen::presets;
use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
use samplecf_sampling::{Allocation, BatchSchedule, CountingSource, SamplerKind, StrataMode};
use samplecf_storage::{Rid, Row, Table, TableSource};

/// A disk copy of `table` in a unique temp file, removed on drop.
struct TempDisk {
    path: std::path::PathBuf,
    disk: Option<Table>,
}

impl TempDisk {
    fn materialize(table: &Table, tag: u64) -> TempDisk {
        let path = std::env::temp_dir().join(format!(
            "samplecf_proptest_prog_{}_{tag}.scf",
            std::process::id()
        ));
        let disk = Table::materialize(&path, table).expect("materialisation succeeds");
        TempDisk {
            path,
            disk: Some(disk),
        }
    }

    fn source(&self) -> &dyn TableSource {
        self.disk.as_ref().expect("open")
    }
}

impl Drop for TempDisk {
    fn drop(&mut self) {
        self.disk = None;
        let _ = std::fs::remove_file(&self.path);
    }
}

proptest! {
    // Each case draws a table, materialises it to disk, and runs six
    // estimator pairs (3 samplers x 2 backends): keep the case count
    // moderate so the suite stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn progressive_at_fraction_f_is_byte_identical_to_one_shot(
        rows in 400usize..1600,
        distinct in 1usize..200,
        seed in 0u64..1000,
        // The vendored proptest only generates integer ranges; derive the
        // real-valued knobs from them.
        fraction_pct in 2u32..30,          // fraction in [0.02, 0.30)
        scheme_name in prop_oneof![
            Just("null-suppression"),
            Just("dictionary-global"),
            Just("rle"),
        ],
        initial_permille in 2u32..50,      // initial fraction in [0.002, 0.050)
        growth_tenths in 13u32..30,        // growth in [1.3, 3.0)
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        let initial = f64::from(initial_permille) / 1000.0;
        let growth = f64::from(growth_tenths) / 10.0;
        let table = presets::variable_length_table("t", rows, 24, distinct, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let disk = TempDisk::materialize(&table, seed.wrapping_mul(31).wrapping_add(rows as u64));
        let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
        let scheme = scheme_by_name(scheme_name).expect("known scheme");
        let schedule = BatchSchedule::new(initial, growth).expect("valid schedule");

        let memory: &dyn TableSource = &table;
        let backends: [(&str, &dyn TableSource); 2] = [("memory", memory), ("disk", disk.source())];
        for (backend, source) in backends {
            for kind in [
                SamplerKind::UniformWithReplacement(fraction),
                SamplerKind::Block(fraction),
                SamplerKind::Reservoir((rows / 20).max(5)),
            ] {
                // One-shot draw at fraction f, pages counted.
                let oneshot_counting = CountingSource::new(source);
                let oneshot = SampleCf::new(kind)
                    .seed(seed)
                    .estimate(&oneshot_counting, &spec, scheme.as_ref())
                    .expect("one-shot estimate succeeds");
                let oneshot_pages = oneshot_counting.pages_read();

                // Progressive run: early stopping disabled, so it stops at
                // exactly fraction f — in several batches of the drawn
                // schedule, not one.
                let prog_counting = CountingSource::new(source);
                let progressive = ProgressiveCf::new(
                    kind,
                    ProgressiveConfig {
                        target_error: 0.0,
                        confidence: 0.95,
                        schedule,
                    },
                )
                .seed(seed)
                .run(&prog_counting, &spec, scheme.as_ref())
                .expect("progressive run succeeds");

                let tag = format!("{backend}/{kind:?}/{scheme_name}");
                prop_assert_eq!(progressive.measurement.cf, oneshot.cf, "cf: {}", &tag);
                prop_assert_eq!(
                    progressive.measurement.cf_with_pointers,
                    oneshot.cf_with_pointers,
                    "cf_with_pointers: {}",
                    &tag
                );
                prop_assert_eq!(
                    progressive.measurement.cf_pages,
                    oneshot.cf_pages,
                    "cf_pages: {}",
                    &tag
                );
                prop_assert_eq!(
                    &progressive.measurement.data,
                    &oneshot.data,
                    "data stats: {}",
                    &tag
                );
                prop_assert_eq!(
                    &progressive.measurement.report.per_column,
                    &oneshot.report.per_column,
                    "per-column report: {}",
                    &tag
                );
                prop_assert_eq!(
                    &progressive.measurement.sampler,
                    &oneshot.sampler,
                    "sampler label: {}",
                    &tag
                );
                prop_assert_eq!(
                    prog_counting.pages_read(),
                    oneshot_pages,
                    "pages read: {}",
                    &tag
                );
                prop_assert_eq!(progressive.pages_read, oneshot_pages, "report pages: {}", &tag);
            }
        }
    }

    #[test]
    fn disk_and_memory_backends_agree_seed_for_seed(
        rows in 400usize..1200,
        seed in 0u64..500,
        fraction_pct in 5u32..25,
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        // The progressive path must stay backend-transparent, like the
        // one-shot path before it.
        let table = presets::variable_length_table("t", rows, 24, rows / 10, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let disk = TempDisk::materialize(&table, seed.wrapping_mul(17).wrapping_add(rows as u64));
        let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
        let scheme = scheme_by_name("null-suppression").expect("known scheme");
        let config = ProgressiveConfig {
            target_error: 0.1,
            ..ProgressiveConfig::default()
        };
        let kind = SamplerKind::UniformWithReplacement(fraction);
        let mem = ProgressiveCf::new(kind, config)
            .seed(seed)
            .run(&table, &spec, scheme.as_ref())
            .expect("memory run succeeds");
        let dsk = ProgressiveCf::new(kind, config)
            .seed(seed)
            .run(disk.source(), &spec, scheme.as_ref())
            .expect("disk run succeeds");
        prop_assert_eq!(mem.measurement.cf, dsk.measurement.cf);
        prop_assert_eq!(&mem.measurement.data, &dsk.measurement.data);
        prop_assert_eq!(mem.checkpoints.len(), dsk.checkpoints.len());
        prop_assert_eq!(mem.pages_read, dsk.pages_read);
        prop_assert_eq!(mem.target_met, dsk.target_met);
    }

    #[test]
    fn checkpoint_intervals_equal_a_from_scratch_jackknife(
        rows in 600usize..1600,
        distinct in 1usize..200,
        seed in 0u64..1000,
        fraction_pct in 5u32..30,
        initial_permille in 5u32..50,
        growth_tenths in 13u32..30,
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        let narrow = presets::variable_length_table("t", rows, 24, distinct, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let wide = presets::orders_table("o", rows, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let setups = [
            (
                &narrow,
                IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec"),
                IndexBuilder::new(),
            ),
            // Two key columns, four stored ones — the last nullable — and two
            // or three 125-byte records a leaf: many leaves, a short last
            // one, per-column sums that differ.
            (
                &wide,
                IndexSpec::clustered("pk", ["status", "customer"]).expect("valid spec"),
                IndexBuilder::new().page_size(512).fill_factor(0.7),
            ),
        ];
        let schedule = BatchSchedule::new(
            f64::from(initial_permille) / 1000.0,
            f64::from(growth_tenths) / 10.0,
        )
        .expect("valid schedule");
        let config = ProgressiveConfig {
            target_error: 0.0,
            confidence: 0.95,
            schedule,
        };
        let z = theory::chebyshev_z(config.confidence);

        for ((table, spec, builder), scheme_name) in setups
            .iter()
            .flat_map(|setup| scheme_names().into_iter().map(move |name| (setup, name)))
        {
            let scheme = scheme_by_name(scheme_name).expect("known scheme");
            // The CF of a from-scratch index over the given batches' rows.
            let cf_of = |batches: &[&Vec<_>]| {
                let rows: Vec<_> = batches.iter().flat_map(|b| b.iter().cloned()).collect();
                let index = builder
                    .build_from_rows(table.schema(), &rows, spec)
                    .expect("build succeeds");
                measure_index(&index, scheme.as_ref()).expect("measure succeeds").cf()
            };

            for kind in [
                SamplerKind::UniformWithReplacement(fraction),
                SamplerKind::Block(fraction),
                SamplerKind::Reservoir((rows / 10).max(5)),
            ] {
                let report = ProgressiveCf::new(kind, config)
                    .builder(*builder)
                    .seed(seed)
                    .run(*table, spec, scheme.as_ref())
                    .expect("progressive run succeeds");

                // The batches the run drew: same stream, same seed.
                let mut stream = kind.stream(schedule).expect("streaming kind");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut batches = Vec::new();
                loop {
                    let batch = stream.next_batch(*table, &mut rng).expect("draw succeeds");
                    if batch.is_empty() {
                        break;
                    }
                    batches.push(batch);
                }
                prop_assert_eq!(batches.len(), report.checkpoints.len(), "{:?}", kind);

                for (c, cp) in report.checkpoints.iter().enumerate() {
                    let tag = format!("{}/{kind:?}/{scheme_name} checkpoint {c}", spec.name());
                    let drawn: Vec<&Vec<_>> = batches[..=c].iter().collect();
                    prop_assert_eq!(cp.cf.to_bits(), cf_of(&drawn).to_bits(), "cf: {}", &tag);
                    let leave_one_out: Vec<f64> = (0..=c)
                        .map(|skip| {
                            let mut others = drawn.clone();
                            others.remove(skip);
                            cf_of(&others)
                        })
                        .collect();
                    let sizes: Vec<usize> = drawn.iter().map(|b| b.len()).collect();
                    let std_error =
                        grouped_jackknife_variance(cp.cf, &leave_one_out, &sizes).map(f64::sqrt);
                    let half_width = std_error.map(|se| z * se);
                    let bits = |x: Option<f64>| x.map(f64::to_bits);
                    prop_assert_eq!(std_error.is_some(), c > 0, "{}", &tag);
                    prop_assert_eq!(bits(cp.std_error), bits(std_error), "std_error: {}", &tag);
                    prop_assert_eq!(bits(cp.half_width), bits(half_width), "half_width: {}", &tag);
                    prop_assert_eq!(
                        bits(cp.ci_low),
                        bits(half_width.map(|hw| (cp.cf - hw).max(0.0))),
                        "ci_low: {}",
                        &tag
                    );
                    prop_assert_eq!(
                        bits(cp.ci_high),
                        bits(half_width.map(|hw| cp.cf + hw)),
                        "ci_high: {}",
                        &tag
                    );
                }
            }
        }
    }
}

/// What a fresh stream of `kind` draws from `source` under `schedule` and
/// `seed`: its batches, each row beside its stratum tag (0 unstratified),
/// and the strata's population weights (none unstratified).
type Drawn = (Vec<Vec<((Rid, Row), u32)>>, Vec<f64>);

fn drain_batches(
    kind: SamplerKind,
    schedule: BatchSchedule,
    seed: u64,
    source: &dyn TableSource,
) -> Drawn {
    let mut stream = kind.stream(schedule).expect("streaming kind");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    loop {
        let batch = stream.next_batch(source, &mut rng).expect("draw succeeds");
        if batch.is_empty() {
            break;
        }
        let tags = stream
            .batch_strata()
            .map_or(vec![0; batch.len()], <[u32]>::to_vec);
        batches.push(batch.into_iter().zip(tags).collect());
    }
    (batches, stream.strata_weights().unwrap_or_default())
}

proptest! {
    // Each case runs 6 schemes × 5 kinds × 2 backends, and the oracle packs
    // a tree per checkpoint, per stratum and per leave-one-out.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every checkpoint of a run, under every scheme — priced from cell
    /// sums (`none`, null suppression) or by merged, walked sorted runs (the
    /// rest) — against an oracle that shares none of that pricing:
    /// [`measure_rows`] — a tree packed from decoded rows — over the first
    /// `b` batches a fresh stream draws with the same seed and schedule; for
    /// stratified kinds, their per-stratum `measure_rows` combined by the
    /// population weights.  A jackknifed checkpoint's standard error is
    /// [`grouped_jackknife_variance`] over `measure_rows` of each
    /// all-but-one-batch row set, a stratified one the algebra over the
    /// rows' per-stratum NS statistics.  Over a `Table` in memory and in a file.
    #[test]
    fn every_checkpoint_equals_measure_rows_over_its_batches(
        rows in 600usize..1400,
        distinct in 1usize..200,
        seed in 0u64..1000,
        fraction_pct in 5u32..25,
        initial_permille in 5u32..40,
        growth_tenths in 13u32..30,
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        let table = presets::variable_length_table("t", rows, 24, distinct, 4, 20, seed)
            .generate()
            .expect("generation succeeds")
            .table;
        let disk = TempDisk::materialize(&table, seed.wrapping_mul(43).wrapping_add(rows as u64));
        let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
        let builder = IndexBuilder::new();
        let schedule = BatchSchedule::new(
            f64::from(initial_permille) / 1000.0,
            f64::from(growth_tenths) / 10.0,
        )
        .expect("valid schedule");
        let config = ProgressiveConfig { target_error: 0.0, confidence: 0.95, schedule };
        let stratified = |mode| SamplerKind::Stratified {
            fraction,
            strata: 4,
            alloc: Allocation::Proportional,
            mode,
        };
        let kinds = [
            SamplerKind::UniformWithReplacement(fraction),
            SamplerKind::Block(fraction),
            SamplerKind::Reservoir((rows / 10).max(5)),
            stratified(StrataMode::EquiWidth),
            stratified(StrataMode::EquiDepth),
        ];
        let key_width = table.schema().column_at(0).datatype.uncompressed_width();
        let memory: &dyn TableSource = &table;
        let backends: [(&str, &dyn TableSource); 2] = [("memory", memory), ("disk", disk.source())];
        let schemes: Vec<Box<dyn CompressionScheme>> = (scheme_names().into_iter())
            .map(|name| scheme_by_name(name).expect("known scheme"))
            .collect();

        let cases = (backends.iter())
            .flat_map(|backend| schemes.iter().map(move |scheme| (backend, scheme.as_ref())));
        for ((backend, source), scheme, kind) in
            cases.flat_map(|(backend, scheme)| kinds.map(|kind| (backend, scheme, kind)))
        {
            let (batches, weights) = drain_batches(kind, schedule, seed, *source);
            let measured = |keep: &dyn Fn(usize, u32) -> bool| {
                let kept: Vec<(Rid, Row)> = (batches.iter().enumerate())
                    .flat_map(|(b, batch)| batch.iter().filter(move |(_, tag)| keep(b, *tag)))
                    .map(|(row, _)| row.clone())
                    .collect();
                let label = kind.label();
                measure_rows(source.schema(), &kept, &spec, scheme, &builder, label)
                    .expect("oracle measures")
            };
            let report = ProgressiveCf::new(kind, config)
                .seed(seed)
                .run(*source, &spec, scheme)
                .expect("progressive run succeeds");
            let tag = format!("{backend}/{}/{kind:?}", scheme.name());
            prop_assert_eq!(report.checkpoints.len(), batches.len(), "{}", &tag);
            let bits = |x: Option<f64>| x.map(f64::to_bits);

            for (c, cp) in report.checkpoints.iter().enumerate() {
                let tag = format!("{tag} checkpoint {c}");
                let upto = |b: usize| b <= c;
                let pooled = measured(&|b, _| upto(b));
                let (cf, std_error) = if weights.is_empty() {
                    let sizes: Vec<usize> = batches[..=c].iter().map(Vec::len).collect();
                    let leave_one_out: Vec<f64> = (0..=c)
                        .map(|skip| measured(&|b, _| upto(b) && b != skip).cf)
                        .collect();
                    let variance = grouped_jackknife_variance(pooled.cf, &leave_one_out, &sizes);
                    (pooled.cf, variance.map(f64::sqrt))
                } else {
                    let strata: Vec<Option<f64>> = (0..weights.len() as u32)
                        .map(|s| {
                            let stratum = measured(&|b, tag| upto(b) && tag == s);
                            (stratum.data.rows > 0).then_some(stratum.cf)
                        })
                        .collect();
                    let sketches = (0..weights.len() as u32).map(|s| {
                        let mut sketch = MomentSketch::new();
                        for ((_, row), _) in (batches[..=c].iter().flatten())
                            .filter(|(_, tag)| *tag == s)
                        {
                            sketch.observe(ns_row_statistic(row.value(0).logical_len(), key_width));
                        }
                        sketch
                    });
                    let node = VarianceNode::stratified(weights.clone(), sketches.collect());
                    let cf = weighted_combine(&weights, &strata).expect("a sampled stratum");
                    (cf, node.variance().map(f64::sqrt))
                };
                prop_assert_eq!(cp.cf.to_bits(), cf.to_bits(), "cf: {}", &tag);
                prop_assert_eq!(bits(cp.std_error), bits(std_error), "std_error: {}", &tag);
                prop_assert_eq!(cp.rows, pooled.data.rows, "rows: {}", &tag);
            }
            let all = measured(&|_, _| true);
            prop_assert_eq!(&report.measurement.report, &all.report, "report: {}", &tag);
            prop_assert_eq!(&report.measurement.data, &all.data, "data: {}", &tag);
        }
    }
}
