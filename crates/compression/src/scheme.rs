//! The [`CompressionScheme`] trait.
//!
//! A scheme is its size: how many bytes it would write for the values of one
//! column.  The per-chunk method sizes a single page's worth of cells; the
//! column-level method sizes a whole column segment (one chunk per page) and
//! exists so that schemes with cross-page shared state — the paper's
//! simplified *global* dictionary model — can be expressed.  The default
//! column-level implementation sums the per-chunk sizes, which is the
//! behaviour of real page-local compression.

use crate::error::{CompressionError, CompressionResult};
use crate::measure::{CellChunk, CellCosts};

/// A column compression algorithm, known by the bytes it writes.
///
/// Implementations must be deterministic: sizing the same chunk twice
/// yields the same count.  This matters because SampleCF compares
/// compressed sizes between a sample and the full data set.
pub trait CompressionScheme: Send + Sync {
    /// Short stable name of the scheme (used in reports and the registry).
    fn name(&self) -> &'static str;

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
    /// The default reads it off the declared [`cell_costs`](Self::cell_costs).
    /// Every built-in scheme that declares none overrides this with a
    /// closed-form size computation over the raw cell bytes; a scheme that
    /// does neither cannot be sized and says so.
    fn measure_chunk(&self, chunk: &CellChunk<'_>) -> CompressionResult<usize> {
        match self.cell_costs() {
            Some(costs) => Ok(costs.chunk_bytes(chunk)),
            None => Err(CompressionError::InvalidConfig(format!(
                "scheme `{}` declares neither cell costs nor a chunk size",
                self.name()
            ))),
        }
    }

    /// Exact compressed size in bytes of a whole column segment of borrowed
    /// cells (one chunk per page).
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

    /// Combine two outcomes (sizes add).
    #[must_use]
    pub fn merge(&self, other: &CompressionOutcome) -> CompressionOutcome {
        CompressionOutcome {
            uncompressed_bytes: self.uncompressed_bytes + other.uncompressed_bytes,
            compressed_bytes: self.compressed_bytes + other.compressed_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_fraction_math() {
        let o = CompressionOutcome::new(100, 25);
        assert!((o.compression_fraction() - 0.25).abs() < 1e-12);
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

    #[test]
    fn a_scheme_with_neither_cell_costs_nor_a_chunk_size_cannot_be_sized() {
        struct Unsized;
        impl CompressionScheme for Unsized {
            fn name(&self) -> &'static str {
                "unsized"
            }
        }
        let chunk = CellChunk::new(samplecf_storage::DataType::Int32, vec![]).unwrap();
        let err = Unsized.measure_chunk(&chunk).unwrap_err();
        assert!(err.to_string().contains("`unsized`"), "{err}");
    }
}
