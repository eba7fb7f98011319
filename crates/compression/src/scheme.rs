//! The [`CompressionScheme`] trait.
//!
//! A scheme knows how to compress the values of one column.  The per-chunk
//! methods operate on a single page's worth of values; the column-level
//! methods compress a whole column segment (one chunk per page) and exist so
//! that schemes with cross-page shared state — the paper's simplified
//! *global* dictionary model — can be expressed.  The default column-level
//! implementations simply map the per-chunk methods, which is the behaviour
//! of real page-local compression.

use crate::chunk::{ColumnChunk, CompressedChunk, CompressedColumn};
use crate::error::{CompressionError, CompressionResult};
use crate::measure::{CellChunk, CellCosts};
use samplecf_storage::DataType;

/// A column compression algorithm.
///
/// Implementations must be deterministic: compressing the same chunk twice
/// yields byte-identical output.  This matters because SampleCF compares
/// compressed sizes between a sample and the full data set.
pub trait CompressionScheme: Send + Sync {
    /// Short stable name of the scheme (used in reports and the registry).
    fn name(&self) -> &'static str;

    /// Compress a single chunk (one column within one page).
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CompressionResult<CompressedChunk>;

    /// Decompress a chunk produced by [`compress_chunk`](Self::compress_chunk).
    fn decompress_chunk(
        &self,
        chunk: &CompressedChunk,
        datatype: DataType,
    ) -> CompressionResult<ColumnChunk>;

    /// Compress a whole column segment (one chunk per page).
    ///
    /// The default implementation compresses each chunk independently, which
    /// models page-local compression.  Schemes with shared state (a global
    /// dictionary) override this.
    fn compress_column(&self, chunks: &[ColumnChunk]) -> CompressionResult<CompressedColumn> {
        let compressed = chunks
            .iter()
            .map(|c| self.compress_chunk(c))
            .collect::<CompressionResult<Vec<_>>>()?;
        Ok(CompressedColumn::from_chunks(compressed))
    }

    /// The scheme's per-cell costs, if it is *cell-additive*: a chunk's size
    /// is a header that depends only on how many cells the chunk holds, plus
    /// a cost per cell that is the same on whatever page the cell lands —
    /// whichever cells share the page, in whatever order.  The default,
    /// `None`, claims nothing.
    ///
    /// A declaring scheme writes its size formula here and nowhere else:
    /// the default [`measure_chunk`](Self::measure_chunk) is derived from
    /// it.  It also makes the size of any set of rows arithmetic, in any
    /// order — the rows' cell costs summed once, plus one header per page of
    /// the set — which is how the progressive estimator prices its pooled
    /// sample, its strata and its delete-one-batch samples without sorting,
    /// packing or walking any of them.
    ///
    /// [`NullSuppression`](crate::NullSuppression) (`2 + Σ (marker +
    /// payload)`) and [`Uncompressed`](crate::Uncompressed) (`2 + ⌈len/8⌉ +
    /// len·width`) declare theirs.  The other built-in schemes cannot: a
    /// dictionary charges a value's bytes only where the page (or column)
    /// first meets it and sizes its pointers by the page's distinct count,
    /// RLE charges a cell only where it differs from its predecessor, and
    /// prefix compression charges each cell less the prefix the whole page
    /// shares — move a row to another page and its cost changes.
    fn cell_costs(&self) -> Option<CellCosts> {
        None
    }

    /// Exact compressed size in bytes of one chunk of borrowed cells,
    /// computed without materialising the compressed byte stream.
    ///
    /// The default reads it off the declared [`cell_costs`](Self::cell_costs);
    /// for a scheme that declares none it decodes the cells and runs the
    /// byte-producing [`compress_chunk`](Self::compress_chunk) — correct for
    /// any scheme, and the oracle the batch kernels are verified against.
    /// Every other built-in scheme overrides this with a closed-form size
    /// computation over the raw cell bytes.
    fn measure_chunk(&self, chunk: &CellChunk<'_>) -> CompressionResult<usize> {
        match self.cell_costs() {
            Some(costs) => Ok(costs.chunk_bytes(chunk)),
            None => Ok(self.compress_chunk(&chunk.decode()?)?.compressed_bytes()),
        }
    }

    /// Exact compressed size in bytes of a whole column segment of borrowed
    /// cells (one chunk per page) — the measure counterpart of
    /// [`compress_column`](Self::compress_column).
    ///
    /// The default sums per-chunk sizes, which models page-local
    /// compression; schemes with shared column state (the global dictionary)
    /// override it.
    fn measure_chunks(&self, chunks: &[CellChunk<'_>]) -> CompressionResult<usize> {
        let mut total = 0usize;
        for c in chunks {
            total += self.measure_chunk(c)?;
        }
        Ok(total)
    }

    /// Decompress a column segment produced by
    /// [`compress_column`](Self::compress_column).
    fn decompress_column(
        &self,
        column: &CompressedColumn,
        datatype: DataType,
    ) -> CompressionResult<Vec<ColumnChunk>> {
        if !column.shared.is_empty() {
            return Err(CompressionError::Corrupt(format!(
                "scheme `{}` does not produce shared column state",
                self.name()
            )));
        }
        column
            .chunks
            .iter()
            .map(|c| self.decompress_chunk(c, datatype))
            .collect()
    }
}

impl std::fmt::Debug for dyn CompressionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompressionScheme({})", self.name())
    }
}

/// Outcome of compressing data: uncompressed and compressed byte counts plus
/// the resulting compression fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionOutcome {
    /// Size of the uncompressed representation in bytes.
    pub uncompressed_bytes: usize,
    /// Size of the compressed representation in bytes.
    pub compressed_bytes: usize,
}

impl CompressionOutcome {
    /// Create an outcome from raw byte counts.
    #[must_use]
    pub fn new(uncompressed_bytes: usize, compressed_bytes: usize) -> Self {
        CompressionOutcome {
            uncompressed_bytes,
            compressed_bytes,
        }
    }

    /// The compression fraction CF = compressed / uncompressed.
    ///
    /// Returns 1.0 for empty inputs (compressing nothing neither helps nor
    /// hurts), matching the convention used throughout the estimator.
    #[must_use]
    pub fn compression_fraction(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            1.0
        } else {
            self.compressed_bytes as f64 / self.uncompressed_bytes as f64
        }
    }

    /// Space saved as a fraction of the original size (1 - CF).
    #[must_use]
    pub fn space_saving(&self) -> f64 {
        1.0 - self.compression_fraction()
    }

    /// Combine two outcomes (sizes add).
    #[must_use]
    pub fn merge(&self, other: &CompressionOutcome) -> CompressionOutcome {
        CompressionOutcome {
            uncompressed_bytes: self.uncompressed_bytes + other.uncompressed_bytes,
            compressed_bytes: self.compressed_bytes + other.compressed_bytes,
        }
    }
}

/// Compress a column segment and report its sizes.
pub fn measure_column(
    scheme: &dyn CompressionScheme,
    chunks: &[ColumnChunk],
) -> CompressionResult<CompressionOutcome> {
    let uncompressed: usize = chunks.iter().map(ColumnChunk::uncompressed_bytes).sum();
    let compressed = scheme.compress_column(chunks)?.compressed_bytes();
    Ok(CompressionOutcome::new(uncompressed, compressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_fraction_math() {
        let o = CompressionOutcome::new(100, 25);
        assert!((o.compression_fraction() - 0.25).abs() < 1e-12);
        assert!((o.space_saving() - 0.75).abs() < 1e-12);
        let empty = CompressionOutcome::new(0, 0);
        assert_eq!(empty.compression_fraction(), 1.0);
    }

    #[test]
    fn merge_adds_sizes() {
        let a = CompressionOutcome::new(100, 30);
        let b = CompressionOutcome::new(50, 20);
        let m = a.merge(&b);
        assert_eq!(m.uncompressed_bytes, 150);
        assert_eq!(m.compressed_bytes, 50);
    }
}
