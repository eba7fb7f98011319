//! Differential suite for the zero-copy measure kernels.
//!
//! Two independent implementations exist for every (scheme, sample) pair:
//!
//! * the **byte-producing oracle** — decode rows, bulk-load the index from
//!   [`Row`]s, materialise every compressed column
//!   ([`compress_index`]), and
//! * the **batch kernels** — bulk-load from borrowed encoded records
//!   ([`IndexBuilder::build_from_records`]) and compute encoded sizes
//!   without materialising a byte ([`measure_index`]).
//!
//! The estimator's exactness claim (METHODOLOGY.md) requires the two to be
//! *bit-identical*, not approximately equal.  This suite pins that across
//! every registered scheme × {uniform, block, stratified} samplers ×
//! {in-memory, on-disk} sources, and fuzzes the kernels with NULL-heavy,
//! variable-length rows via proptest.

use proptest::prelude::*;
use samplecf_compression::CompressionScheme;
use samplecf_compression::{scheme_by_name, scheme_names};
use samplecf_core::{measure_rows, measure_sample, weighted_combine, CfMeasurement};
use samplecf_index::{compress_index, measure_index, IndexBuilder, IndexSpec};
use samplecf_sampling::{Allocation, MaterializedSample, SamplerKind, Strata, StrataMode};
use samplecf_storage::{
    Column, DataType, DiskTable, Rid, Row, RowCodec, Schema, Table, TableBuilder, TableSource,
    Value,
};

/// A mixed-type table with a nullable, variable-length key column: the
/// shape that stresses padding, bitmaps and per-page dictionaries at once.
fn mixed_table(rows: usize, page_size: usize) -> Table {
    let schema = Schema::new(vec![
        Column::nullable("a", DataType::Char(18)),
        Column::new("b", DataType::Int32),
        Column::nullable("c", DataType::VarChar(12)),
    ])
    .unwrap();
    TableBuilder::new("diff", schema)
        .page_size(page_size)
        .build_with_rows((0..rows).map(|i| {
            let a = if i % 5 == 0 {
                Value::Null
            } else {
                let len = 3 + (i * 7) % 14;
                Value::str(format!("{:0len$}", i % 97))
            };
            let c = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(format!("v{:x}", i % 41))
            };
            #[allow(clippy::cast_possible_wrap)]
            Row::new(vec![a, Value::Int(i as i64 % 211 - 100), c])
        }))
        .unwrap()
}

fn samplers() -> [SamplerKind; 3] {
    [
        SamplerKind::UniformWithReplacement(0.15),
        SamplerKind::Block(0.2),
        SamplerKind::Stratified {
            fraction: 0.15,
            strata: 4,
            alloc: Allocation::Proportional,
            mode: StrataMode::EquiWidth,
        },
    ]
}

/// The decoded-row oracle for [`measure_sample`], composed from public
/// pieces only: the pooled [`measure_rows`] over the sample's decoded rows
/// and — when the sample carries stratum tags — the CF triple replaced by
/// `Σ W_s·CF_s` over a [`measure_rows`] of each stratum's rows, combined
/// with [`weighted_combine`].
fn oracle_measure(
    sample: &MaterializedSample,
    rows: &[(Rid, Row)],
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
) -> CfMeasurement {
    let schema = sample.table().schema();
    let builder = IndexBuilder::new();
    let measure = |rows: &[(Rid, Row)]| {
        measure_rows(schema, rows, spec, scheme, &builder, sample.kind().label()).unwrap()
    };
    let mut pooled = measure(rows);
    let weights = sample.strata_weights();
    let per_stratum: Vec<Option<CfMeasurement>> = (0..weights.len())
        .map(|s| {
            let group: Vec<(Rid, Row)> = rows
                .iter()
                .zip(sample.row_strata())
                .filter(|(_, &tag)| tag as usize == s)
                .map(|(row, _)| row.clone())
                .collect();
            (!group.is_empty()).then(|| measure(&group))
        })
        .collect();
    let combine = |field: fn(&CfMeasurement) -> f64| {
        let values: Vec<Option<f64>> = per_stratum.iter().map(|m| m.as_ref().map(field)).collect();
        weighted_combine(weights, &values)
    };
    if let Some(cf) = combine(|m| m.cf) {
        pooled.cf = cf;
        pooled.cf_with_pointers = combine(|m| m.cf_with_pointers).unwrap();
        pooled.cf_pages = combine(|m| m.cf_pages).unwrap();
    }
    pooled
}

/// Assert the batch kernels agree with the byte-producing oracle on one
/// drawn sample, at both layers: identical compression reports from the
/// two index-build paths, and a `measure_sample` `CfMeasurement` identical
/// to the decoded-row oracle's.
fn assert_differential(source: &dyn TableSource, kind: SamplerKind, tag: &str) {
    let sample = MaterializedSample::draw(source, kind, 97).unwrap();
    let rows = sample.rows().unwrap();
    let records = sample.records().unwrap();
    let schema = sample.table().schema();
    let builder = IndexBuilder::new();
    for spec in [
        IndexSpec::nonclustered("idx", ["a"]).unwrap(),
        IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
    ] {
        let from_rows = builder.build_from_rows(schema, &rows, &spec).unwrap();
        let from_records = builder.build_from_records(schema, &records, &spec).unwrap();
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            // Layer 1: the measure kernels equal the byte-producing oracle,
            // field for field, across the two build paths.
            let oracle = compress_index(&from_rows, scheme.as_ref()).unwrap();
            let measured = measure_index(&from_records, scheme.as_ref()).unwrap();
            assert_eq!(measured, oracle, "{tag}/{name}/{}", spec.name());

            // Layer 2: the sample measure agrees end to end with the
            // decoded-row oracle taking the same combination path.
            let via_rows = oracle_measure(&sample, &rows, &spec, scheme.as_ref());
            let via_records = measure_sample(&sample, &spec, scheme.as_ref(), &builder).unwrap();
            assert_eq!(via_records.cf, via_rows.cf, "{tag}/{name} pooled cf");
            assert_eq!(
                via_records.cf_with_pointers, via_rows.cf_with_pointers,
                "{tag}/{name} cf with pointers"
            );
            assert_eq!(
                via_records.cf_pages, via_rows.cf_pages,
                "{tag}/{name} page-granular cf"
            );
            assert_eq!(via_records.data, via_rows.data, "{tag}/{name} stats");
            assert_eq!(
                via_records.report, via_rows.report,
                "{tag}/{name} full report"
            );
        }
    }
}

/// Assert two builds are the same tree, byte for byte: every leaf page's
/// raw backing buffer, plus the shape the leaves hang off.
fn assert_same_leaf_bytes(a: &samplecf_index::BTreeIndex, b: &samplecf_index::BTreeIndex) {
    assert_eq!(a.num_entries(), b.num_entries());
    assert_eq!(a.height(), b.height());
    assert_eq!(a.num_internal_pages(), b.num_internal_pages());
    assert_eq!(a.num_leaf_pages(), b.num_leaf_pages());
    for (pa, pb) in a.leaf_pages().iter().zip(b.leaf_pages()) {
        assert_eq!(pa.raw(), pb.raw(), "leaf page {} diverged", pa.id());
    }
}

/// The determinism contract of the parallel pipeline: for every sampler,
/// spec, scheme and source, a build-and-measure at `threads` ∈ {2, 8} (and
/// 0 = all cores) is byte-identical to the serial oracle at `threads` = 1.
#[test]
fn thread_counts_do_not_change_a_single_byte() {
    let t = mixed_table(2_500, 1024);
    let serial = IndexBuilder::new();
    for kind in samplers() {
        let sample = MaterializedSample::draw(&t, kind, 97).unwrap();
        let rows = sample.rows().unwrap();
        let records = sample.records().unwrap();
        let schema = sample.table().schema();
        for spec in [
            IndexSpec::nonclustered("idx", ["a"]).unwrap(),
            IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
        ] {
            let oracle_rows = serial.build_from_rows(schema, &rows, &spec).unwrap();
            let oracle_records = serial.build_from_records(schema, &records, &spec).unwrap();
            for threads in [2usize, 8, 0] {
                let builder = IndexBuilder::new().threads(threads);
                let par_rows = builder.build_from_rows(schema, &rows, &spec).unwrap();
                let par_records = builder.build_from_records(schema, &records, &spec).unwrap();
                assert_same_leaf_bytes(&oracle_rows, &par_rows);
                assert_same_leaf_bytes(&oracle_records, &par_records);
                for name in scheme_names() {
                    let scheme = scheme_by_name(name).unwrap();
                    assert_eq!(
                        measure_index(&par_records, scheme.as_ref()).unwrap(),
                        measure_index(&oracle_records, scheme.as_ref()).unwrap(),
                        "threads={threads}/{name}/{}",
                        spec.name()
                    );
                }
            }

            // The sample measure fans strata over the same pool; its
            // combined measurement must not move either, and stays equal to
            // the serial decoded-row oracle.
            let scheme = scheme_by_name("dictionary-paged").unwrap();
            let baseline = measure_sample(&sample, &spec, scheme.as_ref(), &serial).unwrap();
            let oracle = oracle_measure(&sample, &rows, &spec, scheme.as_ref());
            assert_eq!(baseline.cf, oracle.cf, "{kind:?} oracle cf");
            assert_eq!(baseline.cf_with_pointers, oracle.cf_with_pointers);
            assert_eq!(baseline.cf_pages, oracle.cf_pages);
            for threads in [2usize, 8, 0] {
                let threaded = IndexBuilder::new().threads(threads);
                let parallel = measure_sample(&sample, &spec, scheme.as_ref(), &threaded).unwrap();
                assert_eq!(parallel.cf, baseline.cf, "threads={threads} {kind:?} cf");
                assert_eq!(parallel.cf_with_pointers, baseline.cf_with_pointers);
                assert_eq!(parallel.cf_pages, baseline.cf_pages);
                assert_eq!(parallel.data, baseline.data);
                assert_eq!(parallel.report, baseline.report);
            }
        }
    }
}

#[test]
fn batch_kernels_equal_the_byte_path_on_memory_sources() {
    let t = mixed_table(2_500, 1024);
    for kind in samplers() {
        assert_differential(&t, kind, "memory");
    }
}

#[test]
fn batch_kernels_equal_the_byte_path_on_disk_sources() {
    let t = mixed_table(2_500, 1024);
    let path = std::env::temp_dir().join(format!(
        "samplecf_differential_kernels_{}.scf",
        std::process::id()
    ));
    let disk = DiskTable::materialize(&path, &t).unwrap();
    for kind in samplers() {
        assert_differential(&disk, kind, "disk");
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn equi_depth_stratified_samples_are_differential_too() {
    // Ragged page fills (variable-length values) make equi-depth boundaries
    // genuinely different from equi-width ones.
    let t = mixed_table(3_000, 512);
    let kind = SamplerKind::Stratified {
        fraction: 0.12,
        strata: 5,
        alloc: Allocation::Neyman,
        mode: StrataMode::EquiDepth,
    };
    assert_differential(&t, kind, "equi-depth");
    // And the sample's tags really follow the equi-depth partition.
    let sample = MaterializedSample::draw(&t, kind, 97).unwrap();
    let partition = Strata::equi_depth(&t, 5).unwrap();
    for ((rid, _), &tag) in sample.rows().unwrap().iter().zip(sample.row_strata()) {
        assert_eq!(partition.stratum_of_page(rid.page) as u32, tag);
    }
}

/// Strategy for one row of a NULL-heavy, variable-length fuzz schema:
/// `(nullable Char(16), nullable Int64, nullable VarChar(10), Bool)`.
fn fuzz_row() -> impl Strategy<Value = Row> {
    let regex = |pattern| proptest::string::string_regex(pattern).unwrap();
    let a = prop_oneof![
        2 => Just(Value::Null),
        3 => regex("[a-p]{0,16}").prop_map(Value::str),
    ];
    let b = prop_oneof![
        2 => Just(Value::Null),
        3 => any::<i64>().prop_map(Value::Int),
    ];
    let c = prop_oneof![
        1 => Just(Value::Null),
        1 => regex("[0-9]{0,10}").prop_map(Value::str),
    ];
    (a, b, c, any::<bool>()).prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, Value::Bool(d)]))
}

fn fuzz_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("a", DataType::Char(16)),
        Column::nullable("b", DataType::Int64),
        Column::nullable("c", DataType::VarChar(10)),
        Column::new("d", DataType::Bool),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary NULL-heavy variable-length row sets, both build paths
    /// and both measure paths agree bit-for-bit, for every scheme.
    #[test]
    fn fuzzed_rows_measure_identically(
        rows in proptest::collection::vec(fuzz_row(), 1..300),
        page_size_shift in 0u32..3, // 512, 1024, 2048
        clustered in any::<bool>(),
    ) {
        let schema = fuzz_schema();
        let codec = RowCodec::new(schema.clone());
        #[allow(clippy::cast_possible_truncation)]
        let pairs: Vec<(Rid, Row)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (Rid::new((i / 64) as u32, (i % 64) as u16), r.clone()))
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| codec.encode(r).unwrap()).collect();
        let records: Vec<(Rid, &[u8])> = pairs
            .iter()
            .zip(&encoded)
            .map(|(&(rid, _), bytes)| (rid, bytes.as_slice()))
            .collect();

        let spec = if clustered {
            IndexSpec::clustered("pk", ["a", "b"]).unwrap()
        } else {
            IndexSpec::nonclustered("idx", ["a"]).unwrap()
        };
        let builder = IndexBuilder::new().page_size(512usize << page_size_shift);
        let from_rows = builder.build_from_rows(&schema, &pairs, &spec).unwrap();
        let from_records = builder.build_from_records(&schema, &records, &spec).unwrap();
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            let oracle = compress_index(&from_rows, scheme.as_ref()).unwrap();
            let measured = measure_index(&from_records, scheme.as_ref()).unwrap();
            prop_assert_eq!(measured, oracle, "scheme {}", name);
        }
    }

    /// An arbitrary thread count never changes the built tree: the radix
    /// bulk-load at any fan-out (including 0 = all cores) equals the
    /// serial sort, byte for byte, on both build paths.
    #[test]
    fn fuzzed_thread_counts_build_identical_trees(
        rows in proptest::collection::vec(fuzz_row(), 1..200),
        threads in 0usize..9,
        page_size_shift in 0u32..3,
    ) {
        let schema = fuzz_schema();
        let codec = RowCodec::new(schema.clone());
        #[allow(clippy::cast_possible_truncation)]
        let pairs: Vec<(Rid, Row)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (Rid::new((i / 64) as u32, (i % 64) as u16), r.clone()))
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| codec.encode(r).unwrap()).collect();
        let records: Vec<(Rid, &[u8])> = pairs
            .iter()
            .zip(&encoded)
            .map(|(&(rid, _), bytes)| (rid, bytes.as_slice()))
            .collect();

        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let serial = IndexBuilder::new().page_size(512usize << page_size_shift);
        let parallel = serial.threads(threads);
        let oracle = serial.build_from_rows(&schema, &pairs, &spec).unwrap();
        for built in [
            parallel.build_from_rows(&schema, &pairs, &spec).unwrap(),
            parallel.build_from_records(&schema, &records, &spec).unwrap(),
        ] {
            prop_assert_eq!(oracle.num_entries(), built.num_entries());
            prop_assert_eq!(oracle.num_leaf_pages(), built.num_leaf_pages());
            for (pa, pb) in oracle.leaf_pages().iter().zip(built.leaf_pages()) {
                prop_assert_eq!(pa.raw(), pb.raw(), "threads {}", threads);
            }
        }
    }
}
