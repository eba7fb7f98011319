//! A column's sizes by its codec: the reference for
//! [`measure_cells`](samplecf_compression::measure_cells).

use crate::chunk::ColumnChunk;
use crate::codec::Codec;
use crate::error::CodecResult;
use samplecf_compression::CompressionOutcome;

/// Compress a column segment and report its sizes.
pub fn measure_column(
    codec: &dyn Codec,
    chunks: &[ColumnChunk],
) -> CodecResult<CompressionOutcome> {
    let uncompressed: usize = chunks.iter().map(ColumnChunk::uncompressed_bytes).sum();
    let compressed = codec.compress_column(chunks)?.compressed_bytes();
    Ok(CompressionOutcome::new(uncompressed, compressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::codec_by_name;
    use samplecf_compression::{measure_cells, scheme_names, CellChunk};
    use samplecf_storage::{encode_cell, CellRef, DataType, Value};

    /// Encode values into raw fixed-width cells, returning the backing store
    /// plus the null flags (a NULL is stored as a zeroed placeholder, exactly
    /// as the row codec writes it).
    fn raw_cells(values: &[Value], dt: &DataType) -> Vec<(bool, Vec<u8>)> {
        values
            .iter()
            .map(|v| {
                let mut out = Vec::new();
                if v.is_null() {
                    out.resize(dt.uncompressed_width(), 0);
                } else {
                    encode_cell(v, dt, &mut out).unwrap();
                }
                (v.is_null(), out)
            })
            .collect()
    }

    fn assert_measures_match(dt: DataType, pages: &[Vec<Value>]) {
        let backing: Vec<Vec<(bool, Vec<u8>)>> =
            pages.iter().map(|vals| raw_cells(vals, &dt)).collect();
        let cell_chunks: Vec<CellChunk<'_>> = backing
            .iter()
            .map(|cells| {
                CellChunk::new(
                    dt,
                    cells
                        .iter()
                        .map(|(null, bytes)| CellRef::new(*null, bytes))
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let value_chunks: Vec<ColumnChunk> = pages
            .iter()
            .map(|vals| ColumnChunk::new(dt, vals.clone()).unwrap())
            .collect();
        for name in scheme_names() {
            let scheme = codec_by_name(name).unwrap();
            let oracle = measure_column(scheme.as_ref(), &value_chunks).unwrap();
            let batch = measure_cells(scheme.as_ref(), &cell_chunks).unwrap();
            assert_eq!(
                batch,
                oracle,
                "scheme {} disagrees on {dt:?}",
                scheme.name()
            );
            // Per-chunk kernels agree with the byte-producing oracle too
            // (global dictionary's per-chunk API degenerates to paged).
            for (cc, vc) in cell_chunks.iter().zip(&value_chunks) {
                let codec_bytes = scheme.compress_chunk(vc).unwrap().compressed_bytes();
                assert_eq!(
                    scheme.measure_chunk(cc).unwrap(),
                    codec_bytes,
                    "scheme {} per-chunk size",
                    scheme.name()
                );
                // A declared per-cell cost is the codec's, cell by cell.
                if let Some(costs) = scheme.cell_costs() {
                    let cells = cc.cells().iter().map(|c| (costs.cell)(*c, &dt));
                    assert_eq!(
                        (costs.chunk_header)(cc.len()) + cells.sum::<usize>(),
                        codec_bytes,
                        "scheme {} header + cell costs",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_match_oracle_on_text() {
        let pages = vec![
            vec![
                Value::str("alpha"),
                Value::str("alphabet"),
                Value::Null,
                Value::str("alp"),
                Value::str("alpha"),
                Value::str("alpha"),
            ],
            vec![Value::str(""), Value::Null, Value::str("zzzz")],
        ];
        assert_measures_match(DataType::Char(12), &pages);
        assert_measures_match(DataType::VarChar(12), &pages);
    }

    #[test]
    fn kernels_match_oracle_on_integers() {
        let pages = vec![
            vec![
                Value::int(0),
                Value::int(0),
                Value::int(-1),
                Value::Null,
                Value::int(i64::from(i32::MIN)),
                Value::int(i64::from(i32::MAX)),
            ],
            vec![Value::int(7), Value::int(7), Value::int(7)],
        ];
        assert_measures_match(DataType::Int32, &pages);
        let pages64 = vec![vec![
            Value::int(i64::MIN),
            Value::int(i64::MAX),
            Value::int(0),
            Value::Null,
            Value::Null,
        ]];
        assert_measures_match(DataType::Int64, &pages64);
    }

    #[test]
    fn kernels_match_oracle_on_bools_and_all_null() {
        assert_measures_match(
            DataType::Bool,
            &[vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Bool(true),
            ]],
        );
        // All-NULL pages: NULL placeholders must not leak into dictionaries
        // or prefixes as fake values.
        assert_measures_match(DataType::Char(8), &[vec![Value::Null; 5]]);
    }

    #[test]
    fn kernels_match_oracle_on_empty_chunks() {
        assert_measures_match(DataType::Char(8), &[vec![]]);
        assert_measures_match(DataType::Int64, &[]);
    }

    #[test]
    fn null_placeholder_bytes_do_not_alias_real_zeros() {
        // Int32 of i32::MIN encodes to all-zero bytes, identical to the NULL
        // placeholder.  The null flag must keep them distinct in every
        // kernel (dictionary distinctness, RLE runs, NS sizing).
        let pages = vec![vec![
            Value::int(i64::from(i32::MIN)),
            Value::Null,
            Value::int(i64::from(i32::MIN)),
            Value::Null,
        ]];
        assert_measures_match(DataType::Int32, &pages);
    }
}
