//! Differential suite for the zero-copy measure kernels.
//!
//! Two independent implementations exist for every (scheme, sample) pair:
//!
//! * the **byte-producing oracle** — decode rows, bulk-load the index from
//!   [`Row`]s, materialise every compressed column through the scheme's
//!   real codec (`samplecf_oracle`'s [`compress_index`]), and
//! * the **batch kernels** — bulk-load from borrowed encoded records
//!   ([`IndexBuilder::build_from_records`]) and compute encoded sizes
//!   without materialising a byte ([`measure_index`]).
//!
//! The estimator's exactness claim (METHODOLOGY.md) requires the two to be
//! *bit-identical*, not approximately equal.  This suite pins that across
//! every registered scheme × {uniform, block, stratified} samplers ×
//! {in-memory, on-disk} sources, and fuzzes the kernels with NULL-heavy,
//! variable-length rows via proptest.
//!
//! A held sample takes a third route — [`measure_sample`] orders the
//! sample's entries once and walks them, packing no tree and decoding no
//! value — so its whole [`CfMeasurement`], page counts and first-key
//! statistics included, is pinned here against the packed, decoded-row
//! oracle too, over random schemas and key shapes.  So are the one measure's
//! two routes, over heap records as a stream yields them: for a
//! cell-additive scheme, records summed unsorted into cell costs and priced
//! by arithmetic
//! ([`RunSizer::price`](samplecf_index::RunSizer::price)); for any other,
//! each batch's entries sorted and merged into one key order and walked
//! ([`OrderedEntries::measure_where`](samplecf_index::OrderedEntries::measure_where)).
//! The exact CF is the same measure over every row; `ExactCf` is pinned to
//! [`measure_rows`] here too.

use proptest::prelude::*;
use samplecf_compression::{scheme_by_name, scheme_names};
use samplecf_compression::{CompressionScheme, NullSuppression, Uncompressed};
use samplecf_core::{
    measure_rows, measure_sample, measure_sample_schemes, weighted_combine, CfMeasurement,
    DataStats, DataStatsAccumulator, ExactCf, KeyOrderOutcome, SampleCf,
};
use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
use samplecf_oracle::{codec_by_name, compress_index};
use samplecf_sampling::{Allocation, MaterializedSample, SamplerKind, Strata, StrataMode};
use samplecf_storage::{
    CellRef, Column, DataType, Rid, Row, RowCodec, Schema, Table, TableBuilder, TableSource, Value,
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
    builder: &IndexBuilder,
) -> CfMeasurement {
    let schema = sample.schema();
    let measure = |rows: &[(Rid, Row)]| {
        measure_rows(schema, rows, spec, scheme, builder, sample.kind().label()).unwrap()
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
    let schema = sample.schema();
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
            let codec = codec_by_name(name).unwrap();
            let oracle = compress_index(&from_rows, codec.as_ref()).unwrap();
            let measured = measure_index(&from_records, scheme.as_ref()).unwrap();
            assert_eq!(measured, oracle, "{tag}/{name}/{}", spec.name());

            // Layer 2: the sample measure agrees end to end with the
            // decoded-row oracle taking the same combination path.
            let via_rows = oracle_measure(&sample, &rows, &spec, scheme.as_ref(), &builder);
            let via_records = measure_sample(&sample, &spec, scheme.as_ref(), &builder).unwrap();
            assert_same_measurement(&via_records, &via_rows, &format!("{tag}/{name}"));
        }
    }
}

/// Every field of two measurements but the wall clock.
fn assert_same_measurement(measured: &CfMeasurement, oracle: &CfMeasurement, tag: &str) {
    assert_eq!(measured.cf, oracle.cf, "{tag} pooled cf");
    assert_eq!(
        measured.cf_with_pointers, oracle.cf_with_pointers,
        "{tag} cf with pointers"
    );
    assert_eq!(measured.cf_pages, oracle.cf_pages, "{tag} page-granular cf");
    assert_eq!(measured.scheme, oracle.scheme, "{tag} scheme");
    assert_eq!(measured.sampler, oracle.sampler, "{tag} sampler");
    assert_eq!(measured.data, oracle.data, "{tag} stats");
    assert_eq!(measured.report, oracle.report, "{tag} full report");
}

/// The held-sample routes against the packed one, on one sample and index:
/// under every scheme — each on its own and all six in one walk —
/// `measure_sample`'s whole measurement (`leaf_pages`, `internal_bytes`
/// and the first-key statistics included) is the decoded-row oracle's,
/// whether the walk sorted its key order or found it held.
fn assert_walk_equals_packed_route(
    sample: &MaterializedSample,
    spec: &IndexSpec,
    builder: &IndexBuilder,
    tag: &str,
) {
    let rows = sample.rows().unwrap();
    let schemes: Vec<Box<dyn CompressionScheme>> = (scheme_names().iter())
        .map(|name| scheme_by_name(name).unwrap())
        .collect();
    let schemes: Vec<&dyn CompressionScheme> = schemes.iter().map(AsRef::as_ref).collect();
    // Alone first: the first measure sorts the sample's order by the key
    // (unless it already holds one) and every later one walks it, all six
    // schemes in one walk or one at a time.
    let first: Vec<CfMeasurement> = (schemes.iter())
        .map(|scheme| measure_sample(sample, spec, *scheme, builder).unwrap())
        .collect();
    let (together, _) = measure_sample_schemes(sample, spec, &schemes, builder).unwrap();
    assert_eq!(together.len(), schemes.len());
    for ((scheme, together), first) in schemes.into_iter().zip(&together).zip(&first) {
        let tag = format!("{tag}/{}", scheme.name());
        let packed = oracle_measure(sample, &rows, spec, scheme, builder);
        let (mut alone, outcome) =
            measure_sample_schemes(sample, spec, &[scheme], builder).unwrap();
        assert_eq!(outcome, KeyOrderOutcome::Held, "{tag}");
        assert_same_measurement(first, &packed, &tag);
        assert_same_measurement(&alone.remove(0), &packed, &format!("{tag}, walked"));
        assert_same_measurement(together, &packed, &format!("{tag}, in one walk"));
    }
}

/// Assert two builds are the same tree, byte for byte: every leaf page's
/// raw backing buffer, plus the shape the leaves hang off.
fn assert_same_leaf_bytes(a: &samplecf_index::BTreeIndex, b: &samplecf_index::BTreeIndex) {
    assert_eq!(a.num_entries(), b.num_entries());
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
        let schema = sample.schema();
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
            let oracle = oracle_measure(&sample, &rows, &spec, scheme.as_ref(), &serial);
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
    let disk = Table::materialize(&path, &t).unwrap();
    for kind in samplers() {
        assert_differential(&disk, kind, "disk");
    }
    drop(disk);
    let _ = std::fs::remove_file(&path);
}

/// `ExactCf` sorts the whole table's entries into one run and walks it;
/// the oracle, [`measure_rows`] over the same scan, packs the tree and
/// hashes the first-key values.  Every field but the clock agrees — report,
/// CF triple and first-key stats — under every scheme, for a nullable first
/// key and two-column keys, at two page shapes, over a `Table` in memory
/// and in a file.
#[test]
fn exact_cf_is_measure_rows_over_the_scan() {
    let t = mixed_table(2_000, 1024);
    let path = std::env::temp_dir().join(format!("samplecf_exact_cf_{}.scf", std::process::id()));
    let disk = Table::materialize(&path, &t).unwrap();
    let sources: [(&str, &dyn TableSource); 2] = [("memory", &t), ("disk", &disk)];
    for (backend, source) in sources {
        let rows = source.scan_rows().unwrap();
        for spec in [
            IndexSpec::nonclustered("idx", ["a"]).unwrap(),
            IndexSpec::clustered("pk", ["b", "a"]).unwrap(),
            IndexSpec::nonclustered("cb", ["c", "b"]).unwrap(),
        ] {
            for builder in [
                IndexBuilder::new(),
                IndexBuilder::new().page_size(512).fill_factor(0.7),
            ] {
                for name in scheme_names() {
                    let scheme = scheme_by_name(name).unwrap();
                    let exact = ExactCf::with_builder(builder)
                        .compute(source, &spec, scheme.as_ref())
                        .unwrap();
                    let label = "exact".to_string();
                    let oracle = measure_rows(
                        source.schema(),
                        &rows,
                        &spec,
                        scheme.as_ref(),
                        &builder,
                        label,
                    )
                    .unwrap();
                    let tag = format!("{backend}/{}/{name}/{builder:?}", spec.name());
                    assert_same_measurement(&exact, &oracle, &tag);
                }
            }
        }
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

/// Trap one of reading statistics off the key order.  A NULL cell is stored
/// as zeros, and so is `Int32`'s `i32::MIN` (`cell.rs`): the two share
/// their key bytes and interleave by RID, so the cell before an `i32::MIN`
/// is as often a NULL as the same value.  "A change of cell" must mean a
/// change against the previous *non-NULL* cell — or every NULL between two
/// `i32::MIN`s would count a new distinct value.
#[test]
fn a_null_first_key_shares_its_key_bytes_with_i32_min_and_interleaves_with_it() {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int64),
        Column::nullable("k", DataType::Int32),
    ])
    .unwrap();
    let min = i64::from(i32::MIN);
    let keys = [
        Some(min),
        None,
        Some(min),
        None,
        None,
        Some(min),
        Some(7),
        None,
    ];
    let t = TableBuilder::new("t", schema)
        .page_size(256)
        .build_with_rows((0..64).map(|i| {
            Row::new(vec![
                Value::Int(i),
                keys[i as usize % 8].map_or(Value::Null, Value::Int),
            ])
        }))
        .unwrap();
    let sample = MaterializedSample::draw(&t, SamplerKind::Block(1.0), 5).unwrap();
    for spec in [
        IndexSpec::nonclustered("i", ["k"]).unwrap(),
        IndexSpec::clustered("i", ["k", "id"]).unwrap(),
    ] {
        let measured = measure_sample(
            &sample,
            &spec,
            &samplecf_compression::NullSuppression,
            &IndexBuilder::new(),
        );
        let data = measured.unwrap().data;
        assert_eq!(
            (data.rows, data.null_first_key, data.distinct_first_key),
            (64, 32, 2)
        );
        assert_eq!(data.sum_logical_len_first_key, 32 * 8);
        let builder = IndexBuilder::new().page_size(256);
        assert_walk_equals_packed_route(&sample, &spec, &builder, spec.name());
        assert_summed_route_equals_packed_route(&t, &sample, 5, &spec, &builder, spec.name());
    }
}

/// Trap two.  The null bitmap of a heap record has a bit per *table* column
/// — the first key's is bit `first_key` — but an entry's leaf record has one
/// per *stored* column, key columns first: there the first key's is bit 0.
/// Here the first key is table column 9 (second bitmap byte of the heap
/// record), and column 0, whose heap bit *is* bit 0, is NULL exactly where
/// the key is not.
#[test]
fn the_first_keys_null_bit_is_bit_zero_of_the_leaf_record_not_its_heap_bit() {
    let mut columns: Vec<Column> = (0..9)
        .map(|i| Column::nullable(format!("c{i}"), DataType::Bool))
        .collect();
    columns.push(Column::nullable("k", DataType::VarChar(4)));
    let t = TableBuilder::new("t", Schema::new(columns).unwrap())
        .page_size(256)
        .build_with_rows((0..90).map(|i| {
            let key_is_null = i % 3 == 0;
            let mut values = vec![Value::Bool(i % 2 == 0); 9];
            if !key_is_null {
                values[0] = Value::Null;
            }
            values.push(if key_is_null {
                Value::Null
            } else {
                Value::str(format!("k{}", i % 5))
            });
            Row::new(values)
        }))
        .unwrap();
    let sample = MaterializedSample::draw(&t, SamplerKind::UniformWithReplacement(1.0), 5).unwrap();
    let builder = IndexBuilder::new().page_size(256);
    for spec in [
        IndexSpec::nonclustered("i", ["k"]).unwrap(),
        IndexSpec::clustered("i", ["k", "c0"]).unwrap(),
    ] {
        assert_walk_equals_packed_route(&sample, &spec, &builder, spec.name());
        assert_summed_route_equals_packed_route(&t, &sample, 5, &spec, &builder, spec.name());
    }
}

/// The summed route against the packed one, on the traps' tables: under
/// `none` and null suppression, [`ExactCf`] over `t` and a one-shot
/// [`SampleCf`] with `sample`'s sampler and `seed` — each of which sums
/// cells and reads its first-key statistics off the records, in no key
/// order — give the decoded-row oracle's measurement, its `DataStats`
/// included.
fn assert_summed_route_equals_packed_route(
    t: &Table,
    sample: &MaterializedSample,
    seed: u64,
    spec: &IndexSpec,
    builder: &IndexBuilder,
    tag: &str,
) {
    let (table_rows, sample_rows) = (t.scan_rows().unwrap(), sample.rows().unwrap());
    let schemes: [&dyn CompressionScheme; 2] = [&Uncompressed, &NullSuppression];
    for scheme in schemes {
        let tag = format!("{tag}/{}", scheme.name());
        let oracle = |rows: &[(Rid, Row)], label: String| {
            measure_rows(t.schema(), rows, spec, scheme, builder, label).unwrap()
        };
        let exact = ExactCf::with_builder(*builder)
            .compute(t, spec, scheme)
            .unwrap();
        let packed = oracle(&table_rows, "exact".to_string());
        assert_same_measurement(&exact, &packed, &format!("{tag}, exact"));
        let estimated = SampleCf::new(sample.kind())
            .seed(seed)
            .builder(*builder)
            .estimate(t, spec, scheme)
            .unwrap();
        let packed = oracle(&sample_rows, sample.kind().label());
        assert_same_measurement(&estimated, &packed, &format!("{tag}, one-shot"));
    }
}

/// Column `c{i}` of random type `kind`, nullable, and a strategy for its
/// cells, chosen to collide — a two-letter alphabet, values that end in
/// spaces (insignificant, so equal to their trimmed twins), `MIN` (whose
/// `Int32` key bytes are a NULL's).
fn random_column(i: usize, kind: u8) -> (Column, BoxedStrategy<Value>) {
    let regex = |pattern| proptest::string::string_regex(pattern).unwrap();
    let (datatype, value) = match kind {
        0 => (
            DataType::Char(6),
            regex("[ab]{0,3} {0,2}").prop_map(Value::str).boxed(),
        ),
        1 => (
            DataType::VarChar(5),
            regex("[ab]{0,3} {0,2}").prop_map(Value::str).boxed(),
        ),
        2 => (
            DataType::Int32,
            prop_oneof![
                Just(i64::from(i32::MIN)),
                -2i64..3,
                any::<i32>().prop_map(i64::from)
            ]
            .prop_map(Value::Int)
            .boxed(),
        ),
        3 => (
            DataType::Int64,
            prop_oneof![Just(i64::MIN), -2i64..3, any::<i64>()]
                .prop_map(Value::Int)
                .boxed(),
        ),
        _ => (DataType::Bool, any::<bool>().prop_map(Value::Bool).boxed()),
    };
    let cell = prop_oneof![1 => Just(Value::Null), 3 => value].boxed();
    (Column::nullable(format!("c{i}"), datatype), cell)
}

/// A random table for the held-sample route: between two and ten
/// [`random_column`]s and a few rows to many.  Returns the table and its
/// column count.
fn held_sample_table() -> impl Strategy<Value = (Table, usize)> {
    let table = |kinds: Vec<u8>| {
        let (columns, cells): (Vec<Column>, Vec<BoxedStrategy<Value>>) = (kinds.iter())
            .enumerate()
            .map(|(i, &kind)| random_column(i, kind))
            .unzip();
        let schema = Schema::new(columns).unwrap();
        let rows = proptest::collection::vec(cells.prop_map(Row::new), 0..120);
        let page_size = prop_oneof![Just(256usize), Just(1024)];
        (rows, page_size).prop_map(move |(rows, page_size)| {
            let table = TableBuilder::new("held", schema.clone()).page_size(page_size);
            (table.build_with_rows(rows).unwrap(), schema.arity())
        })
    };
    proptest::collection::vec(0u8..5, 2..11).prop_flat_map(table)
}

/// Rows for the progressive estimator's sums route: one to ten
/// [`random_column`]s and up to 300 rows, each with a stratum tag (of three)
/// and the batch (of four) it was drawn in.
fn tagged_rows() -> impl Strategy<Value = (Schema, Vec<(Row, u8, u8)>)> {
    let rows = |kinds: Vec<u8>| {
        let (columns, cells): (Vec<Column>, Vec<BoxedStrategy<Value>>) = (kinds.iter())
            .enumerate()
            .map(|(i, &kind)| random_column(i, kind))
            .unzip();
        let row = (cells.prop_map(Row::new), 0u8..3, 0u8..4);
        (
            Just(Schema::new(columns).unwrap()),
            proptest::collection::vec(row, 0..300),
        )
    };
    proptest::collection::vec(0u8..5, 1..11).prop_flat_map(rows)
}

/// What no sums can be priced for, the sizer refuses as the builder does: a
/// page size out of range or a record too large for the page, before any
/// row is read; and pricing meets the single-separator internal page where
/// packing does.
#[test]
fn cell_sums_are_refused_or_fail_as_the_builder_does() {
    let schema = |width| Schema::new(vec![Column::new("w", DataType::Char(width))]).unwrap();
    let rows = |n: usize| -> Vec<(Rid, Row)> {
        #[allow(clippy::cast_possible_truncation)]
        (0..n)
            .map(|i| (Rid::new(0, i as u16), Row::new(vec![Value::str("w")])))
            .collect()
    };
    let nonclustered = IndexSpec::nonclustered("i", ["w"]).unwrap();
    let clustered = IndexSpec::clustered("i", ["w"]).unwrap();
    // A page size out of range; a 60-byte record on a 64-byte page.
    for (builder, width, spec) in [
        (IndexBuilder::new().page_size(32), 8, &nonclustered),
        (IndexBuilder::new().page_size(64), 60, &nonclustered),
    ] {
        let schema = schema(width);
        let refused = builder.sizer(&schema, spec).map(drop);
        assert!(refused.is_err());
        assert_eq!(
            refused,
            builder.build_from_rows(&schema, &[], spec).map(drop)
        );
    }
    // A clustered `char(13)` record fits a 64-byte page twice, its 25-byte
    // separator once: past one leaf, no internal level can narrow.
    let (schema, tiny) = (schema(13), IndexBuilder::new().page_size(64));
    let sizer = tiny.sizer(&schema, &clustered).unwrap();
    let costs = NullSuppression.cell_costs().unwrap();
    for n in [2, 3, 5] {
        let mut sums = [sizer.empty_cell_costs()];
        let encoded = encode(&schema, &rows(n));
        sizer
            .add_cell_costs(
                records(&encoded).iter().copied(),
                &costs,
                &mut sums,
                |_| 0,
                |_, _| Ok(()),
            )
            .unwrap();
        let priced = sizer.price(&NullSuppression, &costs, &sums[0]);
        let packed = tiny.build_from_rows(&schema, &rows(n), &clustered);
        let packed = packed.and_then(|tree| measure_index(&tree, &NullSuppression));
        assert_eq!(priced, packed, "{n} rows");
        assert_eq!(
            priced.is_err(),
            n > 2,
            "{n} rows: {:?}",
            priced.map(|r| r.leaf_pages)
        );
    }
}

/// `rows` as heap records of `schema`, each beside its RID.
fn encode(schema: &Schema, rows: &[(Rid, Row)]) -> Vec<(Rid, Vec<u8>)> {
    let codec = RowCodec::new(schema.clone());
    (rows.iter())
        .map(|(rid, row)| (*rid, codec.encode(row).unwrap()))
        .collect()
}

/// Borrowed `(rid, record)` pairs of `encoded`, as a stream's batch gives
/// them.
fn records(encoded: &[(Rid, Vec<u8>)]) -> Vec<(Rid, &[u8])> {
    (encoded.iter())
        .map(|(rid, record)| (*rid, &record[..]))
        .collect()
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
            let codec = codec_by_name(name).unwrap();
            let oracle = compress_index(&from_rows, codec.as_ref()).unwrap();
            let measured = measure_index(&from_records, codec.as_ref()).unwrap();
            prop_assert_eq!(measured, oracle, "scheme {}", name);
        }
    }

    /// The held-sample route — ordered and walked, nothing packed, no value
    /// decoded — against the packed, decoded-row one: random schemas and
    /// rows, clustered and not, one- and two-column keys whose first key is
    /// never table column 0, every sampler family (with-replacement
    /// duplicates; the per-stratum filter), the empty sample and the sample
    /// of one row included.
    #[test]
    fn a_held_sample_measures_as_its_packed_tree_and_decoded_rows(
        (table, arity) in held_sample_table(),
        (first, second) in (1usize..64, 0usize..64),
        clustered in any::<bool>(),
        sampler in 0u8..3,
        threads in prop_oneof![Just(1usize), Just(2)],
    ) {
        let first = 1 + first % (arity - 1);
        let second = second % (arity + 1);
        let mut key = vec![format!("c{first}")];
        if second < arity && second != first {
            key.push(format!("c{second}"));
        }
        let spec = if clustered {
            IndexSpec::clustered("held", key).unwrap()
        } else {
            IndexSpec::nonclustered("held", key).unwrap()
        };
        let kind = match sampler {
            0 => SamplerKind::UniformWithReplacement(1.0),
            1 => SamplerKind::Block(0.6),
            _ => SamplerKind::Stratified {
                fraction: 1.0,
                strata: 3,
                alloc: Allocation::Proportional,
                mode: StrataMode::EquiWidth,
            },
        };
        let sample = MaterializedSample::draw(&table, kind, 11).unwrap();
        let builder = IndexBuilder::new().page_size(table.page_size()).threads(threads);
        let tag = format!("{} rows, {}, {kind:?}", sample.len(), spec);
        assert_walk_equals_packed_route(&sample, &spec, &builder, &tag);
    }

    /// The progressive estimator's two routes are the packed tree, as a
    /// whole report or as the builder's error: for the pooled rows and each
    /// stratum's.  The sums route — rows encoded once, unsorted, into
    /// per-column cell costs by stratum and by batch, merged, then priced —
    /// under `none` and null suppression, whose row moments agree however
    /// the rows were grouped, and whose pass hands out first key cells that
    /// decode to the walk's first-key statistics and row count; the walk
    /// route — each batch's entries sorted and merged into one key order,
    /// walked whole or filtered by tag to a stratum — under all six
    /// schemes.  Random one- to ten-column schemas, one- and two-column
    /// keys, clustered and not, the empty set included; at 256-byte pages
    /// wide keys meet the single-separator internal page.
    #[test]
    fn cell_sums_and_walks_price_the_packed_tree_of_every_stratum(
        (schema, tagged) in tagged_rows(),
        (first, second) in (0usize..64, 0usize..64),
        clustered in any::<bool>(),
        page_size in prop_oneof![Just(256usize), Just(1024), Just(8192)],
        fill_factor in prop_oneof![Just(0.5f64), Just(1.0)],
    ) {
        const STRATA: usize = 3;
        const BATCHES: usize = 4;
        let arity = schema.arity();
        let (first, second) = (first % arity, second % (arity + 1));
        let mut key = vec![format!("c{first}")];
        if second < arity && second != first {
            key.push(format!("c{second}"));
        }
        let spec = if clustered {
            IndexSpec::clustered("priced", key).unwrap()
        } else {
            IndexSpec::nonclustered("priced", key).unwrap()
        };
        let builder = IndexBuilder::new().page_size(page_size).fill_factor(fill_factor);
        #[allow(clippy::cast_possible_truncation)]
        let rows: Vec<(Rid, Row)> = (tagged.iter().enumerate())
            .map(|(i, (row, _, _))| (Rid::new((i / 64) as u32, (i % 64) as u16), row.clone()))
            .collect();
        let sizer = match builder.sizer(&schema, &spec) {
            Ok(sizer) => sizer,
            Err(err) => {
                prop_assert_eq!(Err(err), builder.build_from_rows(&schema, &rows, &spec).map(drop));
                return Ok(());
            }
        };
        let packed = |keep: &dyn Fn(usize, usize) -> bool, scheme: &dyn CompressionScheme| {
            let kept: Vec<(Rid, Row)> = (rows.iter().zip(&tagged))
                .filter(|(_, (_, tag, batch))| keep(usize::from(*tag), usize::from(*batch)))
                .map(|(row, _)| row.clone())
                .collect();
            let tree = builder.build_from_rows(&schema, &kept, &spec)?;
            measure_index(&tree, scheme)
        };
        let encoded = encode(&schema, &rows);
        let records = records(&encoded);
        let schemes: [&dyn CompressionScheme; 2] = [&Uncompressed, &NullSuppression];
        // Per scheme, the first key cells its pass handed out, decoded.
        let mut first_keys = Vec::new();
        for scheme in schemes {
            let costs = scheme.cell_costs().expect("cell-additive");
            let mut strata = vec![sizer.empty_cell_costs(); STRATA];
            let mut batches = vec![sizer.empty_cell_costs(); BATCHES];
            let mut first_key = DataStatsAccumulator::new();
            let decode = |cell: CellRef<'_>, datatype: &DataType| {
                first_key.observe(&cell.to_value(datatype)?);
                Ok(())
            };
            let tag = |i: usize| usize::from(tagged[i].1);
            sizer.add_cell_costs(records.iter().copied(), &costs, &mut strata, tag, decode).unwrap();
            first_keys.push(first_key.snapshot());
            let batch = |i: usize| usize::from(tagged[i].2);
            let ignore = |_: CellRef<'_>, _: &DataType| Ok(());
            sizer.add_cell_costs(records.iter().copied(), &costs, &mut batches, batch, ignore).unwrap();
            let mut pooled = sizer.empty_cell_costs();
            batches.iter().for_each(|sum| pooled.merge(sum));
            let mut by_strata = sizer.empty_cell_costs();
            strata.iter().for_each(|sum| by_strata.merge(sum));
            let price = |sums| sizer.price(scheme, &costs, sums);

            let name = scheme.name();
            prop_assert_eq!(pooled.rows(), by_strata.rows(), "{} row moments", name);
            prop_assert_eq!(price(&pooled), packed(&|_, _| true, scheme), "{} pooled", name);
            for (s, stratum) in strata.iter().enumerate() {
                let tree = packed(&|tag, _| tag == s, scheme);
                prop_assert_eq!(price(stratum), tree, "{} stratum {}", name, s);
            }
        }

        // The walk: the batches' entries folded in batch by batch, the key
        // order grown by a sorted delta each time, as a progressive run
        // grows it.
        let mut ordered = builder.entries(&schema, &spec, None).unwrap();
        let mut folded: Vec<usize> = Vec::new();
        for b in 0..BATCHES {
            let in_batch = |i: &usize| usize::from(tagged[*i].2) == b;
            let batch: Vec<usize> = (0..records.len()).filter(in_batch).collect();
            ordered.extend(batch.iter().map(|&i| records[i])).unwrap();
            ordered.order().unwrap();
            folded.extend(batch);
        }
        let (_, walked) = ordered.measure(&[]).unwrap();
        let walked = DataStats {
            rows: ordered.len(),
            distinct_first_key: walked.distinct,
            sum_logical_len_first_key: walked.logical_len_sum,
            null_first_key: walked.nulls,
        };
        for (scheme, summed) in schemes.iter().zip(first_keys) {
            prop_assert_eq!(&summed, &walked, "{} first key", scheme.name());
        }
        for name in scheme_names() {
            let scheme = scheme_by_name(name).unwrap();
            let walk = |keep: &dyn Fn(usize) -> bool| {
                let walked = ordered.measure_where(keep, &[scheme.as_ref()]);
                walked.map(|(mut reports, _)| reports.remove(0))
            };
            let tree = |keep: &dyn Fn(usize, usize) -> bool| packed(keep, scheme.as_ref());
            prop_assert_eq!(walk(&|_| true), tree(&|_, _| true), "{} walked", name);
            for s in 0..STRATA {
                let stratum = walk(&|i| usize::from(tagged[folded[i]].1) == s);
                prop_assert_eq!(stratum, tree(&|tag, _| tag == s), "{} stratum {} walked", name, s);
            }
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
