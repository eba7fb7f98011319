//! Property-based tests for the compression schemes: every scheme must
//! round-trip arbitrary chunks, and the size invariants the estimator relies
//! on must hold for arbitrary data.

use proptest::prelude::*;
use samplecf_compression::{
    scheme_names, CompressionScheme, DictionaryCompression, GlobalDictionaryCompression,
    NullSuppression, PrefixCompression, RunLengthEncoding,
};
use samplecf_oracle::{codec_by_name, measure_column, Codec, ColumnChunk, CompressedChunk};
use samplecf_storage::{encode_cell, CellRef, DataType, Value};

fn char_value(max_len: usize) -> impl Strategy<Value = String> {
    // Trailing spaces are not significant under SQL CHAR semantics (the
    // fixed-width codec trims them), so generated values never end in one.
    proptest::string::string_regex(&format!("[a-zA-Z0-9 _.-]{{0,{max_len}}}"))
        .expect("valid regex")
        .prop_map(|s| s.trim_end().to_string())
}

/// Chunks of char(32) data with optional NULLs and duplicated values.
fn char_chunk() -> impl Strategy<Value = ColumnChunk> {
    proptest::collection::vec(
        prop_oneof![
            4 => char_value(32).prop_map(Value::Str),
            1 => Just(Value::Null),
        ],
        0..300,
    )
    .prop_flat_map(|values| {
        // Duplicate a random prefix to create repeated values.
        let len = values.len();
        (Just(values), 0..=len).prop_map(|(base, dup)| {
            let mut values = base.clone();
            values.extend(base.iter().take(dup).cloned());
            ColumnChunk::new(DataType::Char(32), values).expect("values fit char(32)")
        })
    })
}

fn int_chunk() -> impl Strategy<Value = ColumnChunk> {
    proptest::collection::vec(
        prop_oneof![
            5 => any::<i64>().prop_map(Value::Int),
            1 => Just(Value::Null),
        ],
        0..200,
    )
    .prop_map(|values| ColumnChunk::new(DataType::Int64, values).expect("ints fit int64"))
}

/// NULL-heavy chunks: 4 NULLs to every value on average.  Exercises the
/// run/prefix handling of the null marker, which ordinary chunks rarely
/// stress (long NULL runs, all-NULL chunks, NULL-only prefixes).
fn null_heavy_chunk() -> impl Strategy<Value = ColumnChunk> {
    proptest::collection::vec(
        prop_oneof![
            1 => char_value(32).prop_map(Value::Str),
            4 => Just(Value::Null),
        ],
        0..300,
    )
    .prop_map(|values| ColumnChunk::new(DataType::Char(32), values).expect("values fit char(32)"))
}

/// All-equal chunks: one value pool of size one, with NULLs interleaved —
/// the degenerate pool where RLE collapses to a handful of runs and prefix
/// compression's common prefix is the entire payload.
fn all_equal_chunk_with_nulls() -> impl Strategy<Value = ColumnChunk> {
    (char_value(32), 0..300usize).prop_map(|(value, n)| {
        let values: Vec<Value> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Str(value.clone())
                }
            })
            .collect();
        ColumnChunk::new(DataType::Char(32), values).expect("values fit char(32)")
    })
}

/// All-equal chunks without NULLs (never empty): exactly one run for RLE, an
/// all-prefix payload for prefix compression.
fn all_equal_chunk() -> impl Strategy<Value = ColumnChunk> {
    (char_value(32), 1..300usize).prop_map(|(value, n)| {
        let values: Vec<Value> = (0..n).map(|_| Value::Str(value.clone())).collect();
        ColumnChunk::new(DataType::Char(32), values).expect("values fit char(32)")
    })
}

fn roundtrip(scheme: &dyn Codec, chunk: &ColumnChunk) -> Result<(), TestCaseError> {
    let compressed = scheme.compress_chunk(chunk).expect("compression succeeds");
    let decompressed = scheme
        .decompress_chunk(&compressed, chunk.datatype())
        .expect("decompression succeeds");
    prop_assert_eq!(
        &decompressed,
        chunk,
        "scheme {} failed to round-trip",
        scheme.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_scheme_roundtrips_char_chunks(chunk in char_chunk()) {
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            roundtrip(scheme.as_ref(), &chunk)?;
        }
    }

    #[test]
    fn every_scheme_roundtrips_integer_chunks(chunk in int_chunk()) {
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            roundtrip(scheme.as_ref(), &chunk)?;
        }
    }

    #[test]
    fn compression_is_deterministic(chunk in char_chunk()) {
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            let a = scheme.compress_chunk(&chunk).unwrap();
            let b = scheme.compress_chunk(&chunk).unwrap();
            prop_assert_eq!(a.bytes(), b.bytes(), "scheme {} is not deterministic", name);
        }
    }

    #[test]
    fn null_suppression_size_matches_prediction(chunk in char_chunk()) {
        let compressed = NullSuppression.compress_chunk(&chunk).unwrap();
        let (costs, dt) = (NullSuppression.cell_costs().unwrap(), chunk.datatype());
        let cost = |value: &Value| {
            let mut raw = Vec::new();
            encode_cell(value, &dt, &mut raw).unwrap();
            (costs.cell)(CellRef::new(value.is_null(), &raw), &dt)
        };
        let declared = (costs.chunk_header)(chunk.len()) + chunk.values().iter().map(cost).sum::<usize>();
        prop_assert_eq!(compressed.compressed_bytes(), declared);
        // NS size is bounded: count + per cell (marker + at most width bytes).
        let upper = 2 + chunk.len() * (1 + 32);
        prop_assert!(compressed.compressed_bytes() <= upper);
    }

    #[test]
    fn compression_fraction_is_finite_and_positive(chunks in proptest::collection::vec(char_chunk(), 0..4)) {
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            let outcome = measure_column(scheme.as_ref(), &chunks).unwrap();
            let cf = outcome.compression_fraction();
            prop_assert!(cf.is_finite() && cf > 0.0, "scheme {name}: cf = {cf}");
            // Nothing in this crate should ever blow data up by more than ~3x
            // even on adversarial inputs (tiny chunks of full-width values).
            if outcome.uncompressed_bytes > 1024 {
                prop_assert!(cf < 3.0, "scheme {name}: cf = {cf}");
            }
        }
    }

    #[test]
    fn global_dictionary_never_stores_more_than_paged_at_equal_pointer_width(chunks in proptest::collection::vec(char_chunk(), 1..4)) {
        // With the pointer width pinned, the global dictionary stores each
        // distinct value at most once while the paged variant may repeat it
        // per page, so (up to a few header bytes per chunk) global <= paged.
        let paged = measure_column(&DictionaryCompression::with_pointer_bytes(4), &chunks).unwrap();
        let global = measure_column(&GlobalDictionaryCompression::with_pointer_bytes(4), &chunks).unwrap();
        let slack = 8 + 2 * chunks.len();
        prop_assert!(global.compressed_bytes <= paged.compressed_bytes + slack,
            "global {} vs paged {}", global.compressed_bytes, paged.compressed_bytes);
        prop_assert_eq!(global.uncompressed_bytes, paged.uncompressed_bytes);
    }

    #[test]
    fn rle_and_prefix_roundtrip_null_heavy_chunks(chunk in null_heavy_chunk()) {
        roundtrip(&RunLengthEncoding, &chunk)?;
        roundtrip(&PrefixCompression, &chunk)?;
    }

    #[test]
    fn rle_and_prefix_roundtrip_all_equal_chunks(chunk in all_equal_chunk_with_nulls()) {
        roundtrip(&RunLengthEncoding, &chunk)?;
        roundtrip(&PrefixCompression, &chunk)?;
    }

    #[test]
    fn rle_collapses_an_all_equal_pool_to_constant_size(chunk in all_equal_chunk()) {
        let compressed = RunLengthEncoding.compress_chunk(&chunk).unwrap();
        // One run: 2-byte count + 2-byte run length + one NS cell
        // (1-byte marker + at most 32 payload bytes) — independent of the
        // chunk length.
        prop_assert!(
            compressed.compressed_bytes() <= 2 + 2 + 1 + 32,
            "all-equal RLE chunk of {} values took {} bytes",
            chunk.len(),
            compressed.compressed_bytes()
        );
    }

    #[test]
    fn prefix_stores_an_all_equal_pool_as_suffix_markers(chunk in all_equal_chunk()) {
        let compressed = PrefixCompression.compress_chunk(&chunk).unwrap();
        // The shared payload is the common prefix, stored once; every cell
        // then stores only an (empty-)suffix length marker.
        prop_assert!(
            compressed.compressed_bytes() <= 2 + 1 + 32 + chunk.len(),
            "all-equal prefix chunk of {} values took {} bytes",
            chunk.len(),
            compressed.compressed_bytes()
        );
    }

    #[test]
    fn rle_and_prefix_reject_corrupt_trailing_bytes(chunk in char_chunk()) {
        for scheme in [&RunLengthEncoding as &dyn Codec, &PrefixCompression] {
            let compressed = scheme.compress_chunk(&chunk).unwrap();
            let mut bytes = compressed.bytes().to_vec();
            bytes.push(0xAB);
            let tampered = CompressedChunk::new(bytes);
            prop_assert!(
                scheme.decompress_chunk(&tampered, chunk.datatype()).is_err(),
                "{} accepted trailing garbage",
                scheme.name()
            );
        }
    }

    #[test]
    fn global_dictionary_roundtrips_whole_columns(chunks in proptest::collection::vec(char_chunk(), 0..4)) {
        let scheme = GlobalDictionaryCompression::default();
        let col = scheme.compress_column(&chunks).unwrap();
        let back = scheme.decompress_column(&col, DataType::Char(32)).unwrap();
        prop_assert_eq!(back, chunks);
    }
}
