//! Property-based tests for the storage substrate: row codec round-trips,
//! the record check against decode-then-validate, slotted-page invariants,
//! one append path for in-memory and file heaps, and the on-disk page
//! serialisation (round-trip equality, checksum corruption detection, and
//! schema metadata round-trips).

use proptest::prelude::*;
use samplecf_storage::{
    decode_cell, disk, Column, DataType, HeapFile, Page, PageId, Rid, Row, RowCodec, Schema,
    StorageError, TableSource, Value, MIN_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh path under the temp dir; removed when the guard drops.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("samplecf_proptest_{tag}_{}_{n}.scf", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A string value that survives CHAR round-trips (no trailing spaces, ASCII).
fn char_value(max_len: usize) -> impl Strategy<Value = String> {
    proptest::string::string_regex(&format!("[a-zA-Z0-9_-]{{0,{max_len}}}")).expect("valid regex")
}

fn arbitrary_schema_and_row() -> impl Strategy<Value = (Schema, Row)> {
    // Between 1 and 5 columns of mixed types.
    proptest::collection::vec(0u8..4, 1..6).prop_flat_map(|kinds| {
        let columns: Vec<Column> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| match k {
                0 => Column::nullable(format!("c{i}"), DataType::Char(24)),
                1 => Column::nullable(format!("c{i}"), DataType::Int32),
                2 => Column::nullable(format!("c{i}"), DataType::Int64),
                _ => Column::nullable(format!("c{i}"), DataType::Bool),
            })
            .collect();
        let value_strategies: Vec<BoxedStrategy<Value>> = kinds
            .iter()
            .map(|k| match k {
                0 => prop_oneof![char_value(24).prop_map(Value::Str), Just(Value::Null)].boxed(),
                1 => prop_oneof![
                    (i32::MIN..i32::MAX).prop_map(|i| Value::Int(i64::from(i))),
                    Just(Value::Null)
                ]
                .boxed(),
                2 => prop_oneof![any::<i64>().prop_map(Value::Int), Just(Value::Null)].boxed(),
                _ => prop_oneof![any::<bool>().prop_map(Value::Bool), Just(Value::Null)].boxed(),
            })
            .collect();
        (
            Just(Schema::new(columns).expect("generated schema is valid")),
            value_strategies,
        )
            .prop_map(|(schema, values)| (schema, Row::new(values)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_codec_roundtrips_any_valid_row((schema, row) in arbitrary_schema_and_row()) {
        let codec = RowCodec::new(schema);
        let encoded = codec.encode(&row).expect("row conforms to schema");
        prop_assert_eq!(encoded.len(), codec.record_size());
        let decoded = codec.decode(&encoded).expect("decoding succeeds");
        prop_assert_eq!(decoded, row);
    }

    #[test]
    fn char_cell_encoding_preserves_order(a in char_value(16), b in char_value(16)) {
        let dt = DataType::Char(16);
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        samplecf_storage::encode_cell(&Value::str(a.clone()), &dt, &mut ea).unwrap();
        samplecf_storage::encode_cell(&Value::str(b.clone()), &dt, &mut eb).unwrap();
        // Space-padded comparison must agree with the padded string order.
        let pa = format!("{a:<16}");
        let pb = format!("{b:<16}");
        prop_assert_eq!(ea.cmp(&eb), pa.cmp(&pb));
    }

    #[test]
    fn int_cell_encoding_preserves_order(a in any::<i64>(), b in any::<i64>()) {
        let dt = DataType::Int64;
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        samplecf_storage::encode_cell(&Value::int(a), &dt, &mut ea).unwrap();
        samplecf_storage::encode_cell(&Value::int(b), &dt, &mut eb).unwrap();
        prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
    }

    /// The length rule the held-sample statistics read off cell bytes is
    /// `decode_cell`'s: over arbitrary bytes — valid cells, trailing spaces,
    /// embedded NULs, broken UTF-8 before or inside the padding, truncated
    /// cells — the same length, or the same error.
    #[test]
    fn cell_logical_len_is_the_decoded_values_and_errs_where_decoding_errs(
        kind in 0u8..5,
        width in 0u16..20,
        bytes in proptest::collection::vec(
            prop_oneof![Just(b' '), Just(b'a'), Just(0u8), Just(0xC3u8), Just(0xA9u8), any::<u8>()],
            0..24,
        ),
    ) {
        let dt = match kind {
            0 => DataType::Char(width),
            1 => DataType::VarChar(width),
            2 => DataType::Int32,
            3 => DataType::Int64,
            _ => DataType::Bool,
        };
        let decoded = samplecf_storage::decode_cell(&bytes, &dt);
        let len = samplecf_storage::cell_logical_len(&bytes, &dt);
        prop_assert_eq!(len, decoded.map(|value| value.logical_len()));
    }

    #[test]
    fn page_accounting_is_conserved(
        page_size in MIN_PAGE_SIZE..4096usize,
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..200)
    ) {
        let mut page = Page::new(0, page_size).unwrap();
        let mut stored = Vec::new();
        for rec in &records {
            match page.insert(rec) {
                Ok(Some(slot)) => stored.push((slot, rec.clone())),
                Ok(None) => break,
                Err(_) => {
                    // Record larger than the page payload; skip it.
                    continue;
                }
            }
        }
        // Everything stored reads back byte-identical.
        for (slot, rec) in &stored {
            prop_assert_eq!(page.get(*slot).unwrap(), rec.as_slice());
        }
        // Accounting: payload + overhead + free space == page size.
        prop_assert_eq!(
            page.payload_bytes() + page.overhead_bytes() + page.free_space(),
            page.page_size()
        );
        prop_assert_eq!(usize::from(page.slot_count()), stored.len());
        prop_assert_eq!(page.overhead_bytes(), PAGE_HEADER_SIZE + stored.len() * SLOT_SIZE);
    }

    /// One append path for both stores: the same records into an
    /// in-memory heap and into a file heap that is synced and reopened at
    /// `split` give the same RIDs, the same page bytes and the same counts.
    #[test]
    fn heap_scan_returns_records_in_insertion_order(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..300),
        split in any::<usize>()
    ) {
        let path = TempFile::new("heap_split");
        let split = split % (records.len() + 1);
        let mut memory = HeapFile::with_page_size(256).unwrap();
        let mut file = HeapFile::create(&path.0, 256, b"").unwrap();
        let mut rids = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            if i == split {
                file.sync().unwrap();
                file = HeapFile::open(&path.0).unwrap();
            }
            let rid = memory.insert(rec).unwrap();
            prop_assert_eq!(file.insert(rec).unwrap(), rid);
            rids.push(rid);
        }
        file.sync().unwrap();
        let reopened = HeapFile::open(&path.0).unwrap();
        prop_assert_eq!(std::fs::metadata(&path.0).unwrap().len(), memory.file_len());
        for heap in [&file, &reopened] {
            prop_assert_eq!(
                (heap.num_pages(), heap.num_records(), heap.file_len()),
                (memory.num_pages(), memory.num_records(), memory.file_len())
            );
            for pid in 0..memory.num_pages() as PageId {
                let page = heap.read_page_ref(pid).unwrap();
                prop_assert_eq!(page.raw(), memory.read_page_ref(pid).unwrap().raw());
            }
        }
        // Page by page, the records come back in insertion order, each at
        // the RID its insert returned.
        let mut scanned = Vec::new();
        for pid in 0..memory.num_pages() as PageId {
            let page = memory.read_page_ref(pid).unwrap();
            for slot in 0..page.slot_count() {
                scanned.push((Rid::new(pid, slot), page.get(slot).unwrap().to_vec()));
            }
        }
        prop_assert_eq!(scanned, rids.into_iter().zip(records).collect::<Vec<_>>());
    }

    #[test]
    fn disk_page_serialization_roundtrips(
        page_size in MIN_PAGE_SIZE..4096usize,
        id in 0u32..10_000,
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..120)
    ) {
        let mut page = Page::new(id, page_size).unwrap();
        for rec in &records {
            match page.insert(rec) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => continue, // record larger than the page payload
            }
        }
        let block = disk::format::encode_page(&page);
        prop_assert_eq!(block.len(), disk::DISK_PAGE_HEADER_SIZE + page_size);
        let decoded = disk::format::decode_page(id, page_size, block).unwrap();
        // Byte-identical payload and identical record content.
        prop_assert_eq!(decoded.raw(), page.raw());
        prop_assert_eq!(decoded.slot_count(), page.slot_count());
        for slot in 0..page.slot_count() {
            prop_assert_eq!(decoded.get(slot).unwrap(), page.get(slot).unwrap());
        }
    }

    #[test]
    fn disk_page_checksum_detects_any_single_byte_corruption(
        id in 0u32..1_000,
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..40),
        corrupt_pos in any::<u64>(),
        corrupt_mask in 1u8..=255
    ) {
        let page_size = 1024usize;
        let mut page = Page::new(id, page_size).unwrap();
        for rec in &records {
            if page.insert(rec).unwrap().is_none() {
                break;
            }
        }
        let block = disk::format::encode_page(&page);
        let pos = (corrupt_pos % block.len() as u64) as usize;
        let mut corrupted = block.clone();
        corrupted[pos] ^= corrupt_mask;
        prop_assert!(
            disk::format::decode_page(id, page_size, corrupted).is_err(),
            "flipping byte {} with mask {:#04x} went unnoticed", pos, corrupt_mask
        );
        // The pristine block still decodes.
        prop_assert!(disk::format::decode_page(id, page_size, block).is_ok());
    }

    #[test]
    fn table_meta_roundtrips_any_schema(
        kinds in proptest::collection::vec((0u8..5, 1u16..64, any::<bool>()), 1..8),
        name in char_value(20)
    ) {
        let columns: Vec<Column> = kinds
            .iter()
            .enumerate()
            .map(|(i, (k, width, nullable))| {
                let dt = match k {
                    0 => DataType::Char(*width),
                    1 => DataType::VarChar(*width),
                    2 => DataType::Int32,
                    3 => DataType::Int64,
                    _ => DataType::Bool,
                };
                if *nullable {
                    Column::nullable(format!("c{i}"), dt)
                } else {
                    Column::new(format!("c{i}"), dt)
                }
            })
            .collect();
        let schema = Schema::new(columns).unwrap();
        let meta = disk::format::encode_table_meta(&name, &schema);
        let (decoded_name, decoded_schema) = disk::format::decode_table_meta(&meta).unwrap();
        prop_assert_eq!(decoded_name, name);
        prop_assert_eq!(decoded_schema, schema);
    }

    #[test]
    fn table_roundtrips_generated_rows(
        strings in proptest::collection::vec(char_value(12), 1..100)
    ) {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(12)),
            Column::new("id", DataType::Int64),
        ]).unwrap();
        let rows: Vec<Row> = strings
            .iter()
            .enumerate()
            .map(|(i, s)| Row::new(vec![Value::str(s.clone()), Value::int(i as i64)]))
            .collect();
        let table = samplecf_storage::TableBuilder::new("t", schema)
            .page_size(512)
            .build_with_rows(rows.clone())
            .unwrap();
        prop_assert_eq!(table.num_rows(), rows.len());
        let scanned: Vec<Row> = table.scan_rows().unwrap().into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(scanned, rows);
    }
}

/// The record check's schema: nullable and NOT NULL columns of every type,
/// nine in all, so the null bitmap's second byte has seven unused bits.
fn check_schema() -> Schema {
    Schema::new(vec![
        Column::new("c0", DataType::Char(6)),
        Column::nullable("c1", DataType::VarChar(5)),
        Column::new("c2", DataType::Int32),
        Column::nullable("c3", DataType::Int32),
        Column::new("c4", DataType::Int64),
        Column::nullable("c5", DataType::Int64),
        Column::new("c6", DataType::Bool),
        Column::nullable("c7", DataType::Bool),
        Column::nullable("c8", DataType::Char(4)),
    ])
    .expect("valid schema")
}

/// A valid row of [`check_schema`]: ASCII and multi-byte strings, NULLs
/// where the column allows them.
fn check_row() -> impl Strategy<Value = Row> {
    let text = |max: usize| {
        prop_oneof![
            3 => char_value(max).prop_map(Value::Str),
            1 => Just(Value::str("é")),
            1 => Just(Value::str("€a")),
        ]
        .boxed()
    };
    let nullable =
        |value: BoxedStrategy<Value>| prop_oneof![3 => value, 1 => Just(Value::Null)].boxed();
    let int32 = || {
        (i32::MIN..i32::MAX)
            .prop_map(|i| Value::Int(i64::from(i)))
            .boxed()
    };
    let int64 = || any::<i64>().prop_map(Value::Int).boxed();
    let boolean = || any::<bool>().prop_map(Value::Bool).boxed();
    vec![
        text(6),
        nullable(text(5)),
        int32(),
        nullable(int32()),
        int64(),
        nullable(int64()),
        boolean(),
        nullable(boolean()),
        nullable(text(4)),
    ]
    .prop_map(Row::new)
}

/// One damage done to an encoded record: `(what, where, byte)`.
type Mutation = (u8, usize, u8);

/// Apply `mutations` to `record` of [`check_schema`]: a random byte
/// anywhere, a NULL bit set (NOT NULL columns included), a non-UTF-8 byte
/// in a character cell, non-zero bytes under a NULL bit, a `Bool` byte of
/// 2–255, or a bitmap bit past the last column.
fn mutate(codec: &RowCodec, record: &mut [u8], mutations: &[Mutation]) {
    let arity = codec.schema().arity();
    let chars = [0usize, 1, 8];
    let bools = [6usize, 7];
    let cell = |column: usize, at: usize| {
        let width = codec
            .schema()
            .column_at(column)
            .datatype
            .uncompressed_width();
        codec.cell_offset(column) + at % width
    };
    for &(what, at, byte) in mutations {
        match what % 6 {
            0 => record[at % record.len()] = byte,
            1 => record[(at % arity) / 8] |= 1 << ((at % arity) % 8),
            2 => record[cell(chars[at % 3], at / 3)] = 0x80 | byte,
            3 => {
                let column = at % arity;
                record[column / 8] |= 1 << (column % 8);
                record[cell(column, at / arity)] = byte | 1;
            }
            4 => record[cell(bools[at % 2], 0)] = byte.max(2),
            _ => record[1] |= 1 << (1 + at % 7),
        }
    }
}

/// What `decode` followed by `Schema::validate_row` made of a record before
/// the codec had one check — cell by cell with the public [`decode_cell`] —
/// re-encoded: the canonical record, or the first error.
fn decode_validate_encode(codec: &RowCodec, record: &[u8]) -> Result<Vec<u8>, StorageError> {
    if record.len() != codec.record_size() {
        return Err(StorageError::Decode(format!(
            "record length {} does not match schema record size {}",
            record.len(),
            codec.record_size()
        )));
    }
    let mut values = Vec::new();
    for (i, column) in codec.schema().columns().iter().enumerate() {
        values.push(if record[i / 8] & (1 << (i % 8)) != 0 {
            Value::Null
        } else {
            decode_cell(&record[codec.cell_offset(i)..], &column.datatype)?
        });
    }
    codec.schema().validate_row(&values)?;
    codec.encode(&Row::new(values))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The record check accepts exactly what decoding and validating
    /// accepted, failing with the same error, and writes the bytes encoding
    /// the decoded row would: over valid records, damaged ones and random
    /// bytes of the right and of a wrong length.
    #[test]
    fn the_record_check_is_decode_then_validate_then_encode(
        row in check_row(),
        mutations in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..4),
        noise in proptest::collection::vec(any::<u8>(), 0..80),
        source in 0u8..4,
    ) {
        let codec = RowCodec::new(check_schema());
        let encoded = codec.encode(&row).expect("the row is valid");
        let record = match source {
            // Mostly damaged valid records; then the valid record itself,
            // random bytes of its length and random bytes of any length.
            0 | 1 => {
                let mut damaged = encoded.clone();
                mutate(&codec, &mut damaged, &mutations);
                damaged
            }
            2 => encoded.clone(),
            _ => {
                let mut bytes = noise.clone();
                if source == 3 && !mutations.is_empty() {
                    bytes.resize(codec.record_size(), 0x41);
                }
                bytes
            }
        };
        let expected = decode_validate_encode(&codec, &record);
        let checked = codec.check(&record).map(|c| c.into_owned());
        prop_assert_eq!(&checked, &expected);
        if source == 2 {
            prop_assert_eq!(checked, Ok(encoded));
        }
        // `decode` checks first: it accepts what the check accepts.
        prop_assert_eq!(codec.decode(&record).is_ok(), expected.is_ok());
    }
}
