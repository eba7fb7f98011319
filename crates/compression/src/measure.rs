//! Batch measure kernels over borrowed cells.
//!
//! The estimator only ever needs the compressed *size* of a chunk, not its
//! bytes.  [`CellChunk`] is the zero-copy input to that size computation: a
//! column's worth of [`CellRef`]s borrowed straight out of page records, with
//! no [`Value`](samplecf_storage::Value) materialised.  Each scheme computes
//! its exact output size from these views alone — run counting for RLE, a
//! common-prefix scan for prefix compression, distinct-cell accounting for
//! dictionaries — while the byte-producing `compress_*` path remains the
//! oracle the kernels are verified against (the default
//! [`measure_chunk`](crate::CompressionScheme::measure_chunk) decodes and
//! compresses for real, and the differential test suite asserts every
//! override matches it byte for byte).
//!
//! This is sound because the stored fixed-width encoding is canonical and
//! injective per datatype: two non-null cells are value-equal iff their raw
//! bytes are equal, and every null-suppressed payload is a subslice of the
//! raw cell (see [`ns_payload_from_raw`]).  Equal inputs therefore take equal
//! branches in both paths, so the computed size is the byte count the codec
//! would have written.

use crate::chunk::ColumnChunk;
use crate::encoding::{marker_width, ns_payload_from_raw};
use crate::error::{CompressionError, CompressionResult};
use crate::scheme::{CompressionOutcome, CompressionScheme};
use samplecf_storage::{CellRef, DataType};

/// A column's worth of borrowed cells (one page), the zero-copy counterpart
/// of [`ColumnChunk`].
#[derive(Debug, Clone)]
pub struct CellChunk<'a> {
    datatype: DataType,
    cells: Vec<CellRef<'a>>,
}

impl<'a> CellChunk<'a> {
    /// Create a chunk, validating that every cell has the datatype's
    /// declared fixed width.
    pub fn new(datatype: DataType, cells: Vec<CellRef<'a>>) -> CompressionResult<Self> {
        let width = datatype.uncompressed_width();
        for c in &cells {
            if c.bytes().len() != width {
                return Err(CompressionError::Corrupt(format!(
                    "cell of {} bytes in a column of declared width {width}",
                    c.bytes().len()
                )));
            }
        }
        Ok(CellChunk { datatype, cells })
    }

    /// The column datatype.
    #[must_use]
    pub fn datatype(&self) -> DataType {
        self.datatype
    }

    /// The borrowed cells.
    #[must_use]
    pub fn cells(&self) -> &[CellRef<'a>] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the chunk holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Uncompressed size: every cell at its declared fixed width (matches
    /// [`ColumnChunk::uncompressed_bytes`]).
    #[must_use]
    pub fn uncompressed_bytes(&self) -> usize {
        self.len() * self.datatype.uncompressed_width()
    }

    /// Materialise the owned [`ColumnChunk`] — the oracle path the batch
    /// kernels are verified against.
    pub fn decode(&self) -> CompressionResult<ColumnChunk> {
        let values = self
            .cells
            .iter()
            .map(|c| {
                c.to_value(&self.datatype)
                    .map_err(|e| CompressionError::Corrupt(e.to_string()))
            })
            .collect::<CompressionResult<Vec<_>>>()?;
        ColumnChunk::new(self.datatype, values)
    }
}

/// Size in bytes that [`write_ns_cell`](crate::encoding::write_ns_cell)
/// produces for a raw cell: null suppression's one size formula.
#[must_use]
pub fn ns_cell_size_raw(cell: CellRef<'_>, dt: &DataType) -> usize {
    let width = marker_width(dt);
    if cell.is_null() {
        width
    } else {
        width + ns_payload_from_raw(cell.bytes(), dt).len()
    }
}

/// What a *cell-additive* scheme declares through
/// [`CompressionScheme::cell_costs`]: its chunk size is
/// `chunk_header(len) + Σ cell(cᵢ)`, each cell's cost the same on whatever
/// page the cell lands — so a column's size over any set of rows needs the
/// rows' cell costs summed once and the page lengths, not the pages.
#[derive(Debug, Clone, Copy)]
pub struct CellCosts {
    /// Bytes a chunk of `len` cells costs before any cell's own.
    pub chunk_header: fn(len: usize) -> usize,
    /// Bytes one cell adds to the chunk that holds it.
    pub cell: fn(cell: CellRef<'_>, datatype: &DataType) -> usize,
}

impl CellCosts {
    /// Exact compressed size of one chunk — the declaring scheme's
    /// [`measure_chunk`](CompressionScheme::measure_chunk).
    #[must_use]
    pub fn chunk_bytes(&self, chunk: &CellChunk<'_>) -> usize {
        let dt = chunk.datatype();
        let cells = chunk.cells().iter().map(|c| (self.cell)(*c, &dt));
        (self.chunk_header)(chunk.len()) + cells.sum::<usize>()
    }
}

/// Measure a column of borrowed chunks and report its sizes — the zero-copy
/// counterpart of [`measure_column`](crate::measure_column).
pub fn measure_cells(
    scheme: &dyn CompressionScheme,
    chunks: &[CellChunk<'_>],
) -> CompressionResult<CompressionOutcome> {
    let uncompressed: usize = chunks.iter().map(CellChunk::uncompressed_bytes).sum();
    let compressed = scheme.measure_chunks(chunks)?;
    Ok(CompressionOutcome::new(uncompressed, compressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{DictionaryCompression, GlobalDictionaryCompression};
    use crate::none::Uncompressed;
    use crate::null_suppression::NullSuppression;
    use crate::prefix::PrefixCompression;
    use crate::rle::RunLengthEncoding;
    use crate::scheme::measure_column;
    use samplecf_storage::{encode_cell, Value};

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

    fn schemes() -> Vec<Box<dyn CompressionScheme>> {
        vec![
            Box::new(Uncompressed),
            Box::new(NullSuppression),
            Box::new(RunLengthEncoding),
            Box::new(PrefixCompression),
            Box::new(DictionaryCompression::default()),
            Box::new(GlobalDictionaryCompression::default()),
        ]
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
        for scheme in schemes() {
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

    #[test]
    fn only_schemes_whose_cells_cost_the_same_on_any_page_declare_cell_costs() {
        let declaring: Vec<&str> = schemes()
            .iter()
            .filter(|s| s.cell_costs().is_some())
            .map(|s| s.name())
            .collect();
        assert_eq!(declaring, ["none", "null-suppression"]);
    }

    #[test]
    fn cell_chunk_validates_width() {
        let bytes = [0u8; 3];
        assert!(CellChunk::new(DataType::Int32, vec![CellRef::new(false, &bytes)]).is_err());
        assert!(CellChunk::new(DataType::Int32, vec![]).unwrap().is_empty());
    }
}
