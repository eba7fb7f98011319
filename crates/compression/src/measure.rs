//! Batch measure kernels over borrowed cells.
//!
//! The estimator only ever needs the compressed *size* of a chunk, not its
//! bytes.  [`CellChunk`] is the zero-copy input to that size computation: a
//! column's worth of [`CellRef`]s borrowed straight out of page records, with
//! no [`Value`](samplecf_storage::Value) materialised.  Each scheme computes
//! its exact output size from these views alone — run counting for RLE, a
//! common-prefix scan for prefix compression, distinct-cell accounting for
//! dictionaries.  The byte-producing codecs live in the dev-only
//! `samplecf-oracle` crate, whose tests assert every kernel matches its codec
//! byte for byte.
//!
//! This is sound because the stored fixed-width encoding is canonical and
//! injective per datatype: two non-null cells are value-equal iff their raw
//! bytes are equal, and every null-suppressed payload is a subslice of the
//! raw cell (see [`ns_payload_from_raw`]).  Equal inputs therefore take equal
//! branches in the kernel and the codec, so the computed size is the byte
//! count the codec would have written.

use crate::encoding::{marker_width, ns_payload_from_raw};
use crate::error::{CompressionError, CompressionResult};
use crate::scheme::{CompressionOutcome, CompressionScheme};
use samplecf_storage::{CellRef, DataType};

/// A column's worth of borrowed cells (one page): the input to a scheme's
/// size.
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
                return Err(CompressionError::CellWidth(format!(
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

    /// Uncompressed size: every cell at its declared fixed width.
    #[must_use]
    pub fn uncompressed_bytes(&self) -> usize {
        self.len() * self.datatype.uncompressed_width()
    }
}

/// Size in bytes of a raw cell in the null-suppressed cell format (length
/// marker + unpadded payload): null suppression's one size formula.
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

/// Measure a column of borrowed chunks and report its sizes.
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
    use crate::registry::{scheme_by_name, scheme_names};

    #[test]
    fn only_schemes_whose_cells_cost_the_same_on_any_page_declare_cell_costs() {
        let declaring: Vec<&str> = scheme_names()
            .into_iter()
            .filter(|name| scheme_by_name(name).unwrap().cell_costs().is_some())
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
