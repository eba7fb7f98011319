//! A packed tree's leaf level through the real codec: the reference for
//! [`measure_index`](samplecf_index::measure_index).

use crate::btree::{leaf_entries, separator_levels};
use crate::chunk::ColumnChunk;
use crate::codec::Codec;
use crate::error::CodecResult;
use samplecf_index::{BTreeIndex, ColumnCompressionStat, CompressedIndexReport, IndexKind};
use samplecf_storage::Rid;

/// Compress every stored column of the index's leaf level with `codec` and
/// report the resulting sizes — the reference for
/// [`measure_index`](samplecf_index::measure_index), which must return the
/// same report field for field.  Leaves are decoded by [`leaf_entries`],
/// and `internal_bytes` are the separator pages [`separator_levels`]
/// packs above them.
pub fn compress_index(index: &BTreeIndex, codec: &dyn Codec) -> CodecResult<CompressedIndexReport> {
    let schema = index.table_schema();
    let stored = index.stored_column_indexes();

    // Decode each leaf page once, then slice per column.
    let mut per_page_entries = Vec::with_capacity(index.num_leaf_pages());
    for page in index.leaf_pages() {
        per_page_entries.push(leaf_entries(index, page)?);
    }

    let mut per_column = Vec::with_capacity(stored.len());
    for (pos, &col_idx) in stored.iter().enumerate() {
        let column = schema.column_at(col_idx);
        let chunks: Vec<ColumnChunk> = per_page_entries
            .iter()
            .map(|entries| {
                ColumnChunk::new(
                    column.datatype,
                    entries
                        .iter()
                        .map(|e| e.stored.value(pos).clone())
                        .collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        let uncompressed_bytes: usize = chunks.iter().map(ColumnChunk::uncompressed_bytes).sum();
        let compressed_bytes = codec.compress_column(&chunks)?.compressed_bytes();
        per_column.push(ColumnCompressionStat {
            column: column.name.clone(),
            uncompressed_bytes,
            compressed_bytes,
        });
    }

    let n = index.num_entries();
    let rid_bytes = if index.spec().kind() == IndexKind::NonClustered {
        n * Rid::ENCODED_LEN
    } else {
        0
    };
    let bitmap_bytes = n * stored.len().div_ceil(8);
    let internal_pages: usize = separator_levels(index)?.iter().map(Vec::len).sum();

    Ok(CompressedIndexReport {
        scheme: codec.name().to_string(),
        num_entries: n,
        leaf_pages: index.num_leaf_pages(),
        page_size: index.page_size(),
        per_column,
        rid_bytes,
        bitmap_bytes,
        internal_bytes: internal_pages * index.page_size(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::codec_by_name;
    use samplecf_compression::scheme_names;
    use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
    use samplecf_storage::{Column, DataType, Row, Schema, Table, TableBuilder, Value};

    fn table(n: usize, distinct: usize, value_len: usize, k: u16) -> Table {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(k)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap();
        TableBuilder::new("t", schema)
            .build_with_rows((0..n).map(|i| {
                Row::new(vec![
                    Value::str(format!("{:0width$}", i % distinct, width = value_len)),
                    Value::int(i as i64),
                ])
            }))
            .unwrap()
    }

    #[test]
    fn measure_index_matches_compress_index_for_every_scheme() {
        let t = table(3000, 40, 8, 24);
        for spec in [
            IndexSpec::nonclustered("i", ["a"]).unwrap(),
            IndexSpec::clustered("i", ["a"]).unwrap(),
        ] {
            let idx = IndexBuilder::new()
                .page_size(2048)
                .build_from_table(&t, &spec)
                .unwrap();
            for name in scheme_names() {
                let scheme = codec_by_name(name).unwrap();
                let compressed = compress_index(&idx, scheme.as_ref()).unwrap();
                let measured = measure_index(&idx, scheme.as_ref()).unwrap();
                assert_eq!(
                    measured,
                    compressed,
                    "scheme {} report mismatch",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn measure_index_matches_compress_index_with_nulls() {
        let schema = Schema::new(vec![
            Column::nullable("a", DataType::Char(10)),
            Column::new("b", DataType::Int32),
        ])
        .unwrap();
        let rows: Vec<(samplecf_storage::Rid, Row)> = (0..800)
            .map(|i| {
                let v = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("v{}", i % 25))
                };
                (
                    samplecf_storage::Rid::new(i / 100, (i % 100) as u16),
                    Row::new(vec![v, Value::int(i64::from(i))]),
                )
            })
            .collect();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(1024)
            .build_from_rows(&schema, &rows, &spec)
            .unwrap();
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            assert_eq!(
                measure_index(&idx, scheme.as_ref()).unwrap(),
                compress_index(&idx, scheme.as_ref()).unwrap(),
                "scheme {} report mismatch on NULL-heavy index",
                scheme.name()
            );
        }
    }

    #[test]
    fn measure_index_handles_the_empty_tree() {
        let schema = Schema::single_char("a", 8);
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema, &[], &spec)
            .unwrap();
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            assert_eq!(
                measure_index(&idx, scheme.as_ref()).unwrap(),
                compress_index(&idx, scheme.as_ref()).unwrap()
            );
        }
    }
}
