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
//! equal a design variance recomputed the slow way — each drawn row's cost
//! from the real codec, one cell at a time, grouped into the draw's units
//! and strata and put through the ratio estimator's formula in floating
//! point — for a cell-additive scheme, and be absent for any other.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_compression::{scheme_by_name, scheme_names, CompressionScheme};
use samplecf_core::{
    measure_rows, theory, weighted_combine, ProgressiveCf, ProgressiveConfig, SampleCf,
};
use samplecf_datagen::presets;
use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
use samplecf_oracle::{codec_by_name, ColumnChunk};
use samplecf_sampling::{Allocation, BatchSchedule, CountingSource, SamplerKind, StrataMode};
use samplecf_storage::{Rid, Row, Schema, Table, TableSource};
use std::collections::BTreeMap;

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
    fn checkpoint_intervals_equal_a_from_scratch_design_variance(
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
            // The CF of a from-scratch index over the given rows.
            let cf_of = |rows: &[(Rid, Row)]| {
                let index = builder
                    .build_from_rows(table.schema(), rows, spec)
                    .expect("build succeeds");
                measure_index(&index, scheme.as_ref()).expect("measure succeeds").cf()
            };
            // Entries a full leaf holds: the first leaf of the whole table's
            // packed tree.
            let whole = builder
                .build_from_rows(table.schema(), &table.scan_rows().expect("scan"), spec)
                .expect("build succeeds");
            prop_assert!(whole.num_leaf_pages() > 1);
            let per_leaf = usize::from(whole.leaf_pages()[0].slot_count());

            for kind in [
                SamplerKind::UniformWithReplacement(fraction),
                SamplerKind::UniformWithoutReplacement(fraction),
                SamplerKind::Block(fraction),
                SamplerKind::Reservoir((rows / 10).max(5)),
                SamplerKind::Stratified {
                    fraction,
                    strata: 4,
                    alloc: Allocation::Proportional,
                    mode: StrataMode::EquiWidth,
                },
            ] {
                let report = ProgressiveCf::new(kind, config)
                    .builder(*builder)
                    .seed(seed)
                    .run(*table, spec, scheme.as_ref())
                    .expect("progressive run succeeds");
                let (batches, weights) = drain_batches(kind, schedule, seed, *table);
                prop_assert_eq!(batches.len(), report.checkpoints.len(), "{:?}", kind);

                let mut drawn: Vec<Tagged> = Vec::new();
                for (c, (cp, batch)) in report.checkpoints.iter().zip(&batches).enumerate() {
                    let tag = format!("{}/{kind:?}/{scheme_name} checkpoint {c}", spec.name());
                    drawn.extend(batch.iter().cloned());
                    let rows_of = |keep: &dyn Fn(u32) -> bool| -> Vec<(Rid, Row)> {
                        (drawn.iter())
                            .filter(|(_, tag)| keep(*tag))
                            .map(|(row, _)| row.clone())
                            .collect()
                    };
                    let cf = if weights.is_empty() {
                        cf_of(&rows_of(&|_| true))
                    } else {
                        let strata: Vec<Option<f64>> = (0..weights.len() as u32)
                            .map(|s| Some(rows_of(&|tag| tag == s)).filter(|rows| !rows.is_empty()))
                            .map(|rows| rows.map(|rows| cf_of(&rows)))
                            .collect();
                        weighted_combine(&weights, &strata).expect("a sampled stratum")
                    };
                    prop_assert_eq!(cp.cf.to_bits(), cf.to_bits(), "cf: {}", &tag);
                    let expected = design_oracle(
                        kind,
                        *table,
                        spec,
                        scheme.as_ref(),
                        &drawn,
                        &weights,
                        per_leaf,
                    );
                    match expected {
                        Some((variance, slack)) => {
                            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-12);
                            let std_error = cp.std_error.expect("an interval");
                            prop_assert!(close(std_error, variance.sqrt()), "std_error: {}", &tag);
                            let half_width = cp.half_width.expect("an interval");
                            let expected_half = z * variance.sqrt() + slack;
                            prop_assert!(close(half_width, expected_half), "half_width: {}", &tag);
                            prop_assert_eq!(cp.variance_source, Some("design"), "{}", &tag);
                            prop_assert_eq!(cp.ci_low, Some((cp.cf - half_width).max(0.0)));
                            prop_assert_eq!(cp.ci_high, Some(cp.cf + half_width));
                        }
                        None => {
                            prop_assert_eq!(cp.std_error, None, "std_error: {}", &tag);
                            prop_assert_eq!(cp.half_width, None, "half_width: {}", &tag);
                            prop_assert_eq!(cp.variance_source, None, "{}", &tag);
                        }
                    }
                }
            }
        }
    }
}

/// The design variance of a checkpoint and its partial-leaf slack, from
/// scratch: `None` for a scheme that declares no cell costs, and below
/// [`theory::MIN_DESIGN_UNITS`] units or a stratum of one.  A row's cost is
/// its stored cells', each the length of a one-cell chunk the scheme
/// compresses less that chunk's declared header; a block draw's unit is the
/// page, every other draw's the row.
fn design_oracle(
    kind: SamplerKind,
    source: &dyn TableSource,
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    drawn: &[Tagged],
    weights: &[f64],
    per_leaf: usize,
) -> Option<(f64, f64)> {
    let costs = scheme.cell_costs()?;
    let codec = codec_by_name(scheme.name()).expect("a codec");
    let schema: &Schema = source.schema();
    let stored = spec.stored_column_indexes(schema).expect("stored columns");
    let width = |c: usize| schema.column_at(c).datatype.uncompressed_width();
    let x = stored.iter().map(|&c| width(c)).sum::<usize>() as f64;
    let cost = |row: &Row| -> f64 {
        let cell = |&c: &usize| {
            let chunk = ColumnChunk::new(schema.column_at(c).datatype, vec![row.value(c).clone()])
                .expect("a chunk");
            let compressed = codec.compress_chunk(&chunk).expect("compresses");
            compressed.bytes().len() - (costs.chunk_header)(1)
        };
        stored.iter().map(cell).sum::<usize>() as f64
    };
    let (by_page, population) = match kind {
        SamplerKind::UniformWithReplacement(_) | SamplerKind::Stratified { .. } => (false, None),
        SamplerKind::Block(_) => (true, Some(source.num_pages() as f64)),
        _ => (false, Some(source.num_rows() as f64)),
    };
    let weights = if weights.is_empty() {
        &[1.0][..]
    } else {
        weights
    };
    // Per stratum, each unit's (entries, cost).
    let mut strata: Vec<BTreeMap<usize, (f64, f64)>> = vec![BTreeMap::new(); weights.len()];
    for (i, ((rid, row), tag)) in drawn.iter().enumerate() {
        let unit = if by_page { rid.page as usize } else { i };
        let entry = strata[*tag as usize].entry(unit).or_default();
        entry.0 += 1.0;
        entry.1 += cost(row);
    }
    let units: usize = strata.iter().map(BTreeMap::len).sum();
    if (units as u64) < theory::MIN_DESIGN_UNITS {
        return None;
    }
    let live: f64 = (weights.iter().zip(&strata))
        .filter(|(_, u)| !u.is_empty())
        .map(|(w, _)| w)
        .sum();
    let header = (stored.len() * (costs.chunk_header)(per_leaf)) as f64;
    let (mut variance, mut slack) = (0.0, 0.0);
    for (w, units) in weights.iter().zip(&strata).filter(|(_, u)| !u.is_empty()) {
        let m = units.len() as f64;
        if m < 2.0 {
            return None;
        }
        let n: f64 = units.values().map(|(n, _)| n).sum();
        let y: f64 = units.values().map(|(_, y)| y).sum();
        let ratio = y / (x * n);
        let residuals: f64 = units
            .values()
            .map(|(n, y)| (y - ratio * x * n).powi(2))
            .sum();
        let mean_x = x * n / m;
        let fpc = population.map_or(1.0, |all| 1.0 - m / all);
        let w = w / live;
        variance += w * w * fpc * residuals / ((m - 1.0) * m * mean_x * mean_x);
        slack += w * header / (x * n);
    }
    Some((variance, slack))
}

/// What a fresh stream of `kind` draws from `source` under `schedule` and
/// `seed`: its batches, each row beside its stratum tag (0 unstratified),
/// and the strata's population weights (none unstratified).
type Drawn = (Vec<Vec<Tagged>>, Vec<f64>);

/// A drawn row beside its stratum tag.
type Tagged = ((Rid, Row), u32);

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
    // a tree per checkpoint and per stratum.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every checkpoint of a run, under every scheme — priced from cell
    /// sums (`none`, null suppression) or by merged, walked sorted runs (the
    /// rest) — against an oracle that shares none of that pricing:
    /// [`measure_rows`] — a tree packed from decoded rows — over the first
    /// `b` batches a fresh stream draws with the same seed and schedule; for
    /// stratified kinds, their per-stratum `measure_rows` combined by the
    /// population weights.  Over a `Table` in memory and in a file.
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
            for (c, cp) in report.checkpoints.iter().enumerate() {
                let tag = format!("{tag} checkpoint {c}");
                let upto = |b: usize| b <= c;
                let pooled = measured(&|b, _| upto(b));
                let cf = if weights.is_empty() {
                    pooled.cf
                } else {
                    let strata: Vec<Option<f64>> = (0..weights.len() as u32)
                        .map(|s| {
                            let stratum = measured(&|b, tag| upto(b) && tag == s);
                            (stratum.data.rows > 0).then_some(stratum.cf)
                        })
                        .collect();
                    weighted_combine(&weights, &strata).expect("a sampled stratum")
                };
                prop_assert_eq!(cp.cf.to_bits(), cf.to_bits(), "cf: {}", &tag);
                prop_assert_eq!(cp.rows, pooled.data.rows, "rows: {}", &tag);
            }
            let all = measured(&|_, _| true);
            prop_assert_eq!(&report.measurement.report, &all.report, "report: {}", &tag);
            prop_assert_eq!(&report.measurement.data, &all.data, "data: {}", &tag);
        }
    }
}
