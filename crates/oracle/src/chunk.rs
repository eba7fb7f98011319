//! Column chunks: the unit of compression.
//!
//! Commercial engines apply null suppression and dictionary compression
//! *per column within a page* (the paper, Section II-A: "each column is
//! compressed independently" and "commercial systems typically apply this
//! technique at a page level").  A [`ColumnChunk`] is exactly that unit: the
//! values of one column for the entries of one index (or heap) page, as the
//! codecs read and write them.

use crate::error::{CodecError, CodecResult};
use samplecf_storage::{DataType, Value};

/// The values of one column within one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnChunk {
    datatype: DataType,
    values: Vec<Value>,
}

impl ColumnChunk {
    /// Create a chunk, validating every value against the data type.
    pub fn new(datatype: DataType, values: Vec<Value>) -> CodecResult<Self> {
        for v in &values {
            v.conforms_to(&datatype, "<chunk>")
                .map_err(|_| CodecError::TypeMismatch {
                    expected: datatype.sql_name(),
                    found: v.kind_name().to_string(),
                })?;
        }
        Ok(ColumnChunk { datatype, values })
    }

    /// The chunk's data type.
    #[must_use]
    pub fn datatype(&self) -> DataType {
        self.datatype
    }

    /// The values in the chunk.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the chunk holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Size of the chunk in its uncompressed fixed-width representation:
    /// `len × uncompressed_width` (the denominator of the per-chunk
    /// compression fraction).
    #[must_use]
    pub fn uncompressed_bytes(&self) -> usize {
        self.values.len() * self.datatype.uncompressed_width()
    }

    /// Sum of the logical (null-suppressed) lengths of the cells — the
    /// paper's `Σ ℓᵢ` restricted to this chunk.
    #[must_use]
    pub fn logical_bytes(&self) -> usize {
        self.values.iter().map(Value::logical_len).sum()
    }
}

/// A compressed column chunk: opaque bytes produced by a
/// [`Codec`](crate::Codec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedChunk {
    bytes: Vec<u8>,
}

impl CompressedChunk {
    /// Wrap compressed bytes.
    #[must_use]
    pub fn new(bytes: Vec<u8>) -> Self {
        CompressedChunk { bytes }
    }

    /// The compressed byte stream.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Compressed size in bytes.
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A compressed column segment: one compressed chunk per page, plus optional
/// shared bytes stored once for the whole column (used by the global
/// dictionary model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedColumn {
    /// Bytes stored once for the whole column (e.g. a global dictionary).
    pub shared: Vec<u8>,
    /// Per-page compressed chunks.
    pub chunks: Vec<CompressedChunk>,
}

impl CompressedColumn {
    /// A compressed column with no shared bytes.
    #[must_use]
    pub fn from_chunks(chunks: Vec<CompressedChunk>) -> Self {
        CompressedColumn {
            shared: Vec::new(),
            chunks,
        }
    }

    /// Total compressed size in bytes, counting the shared section once.
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.shared.len()
            + self
                .chunks
                .iter()
                .map(CompressedChunk::compressed_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_validates_values() {
        assert!(ColumnChunk::new(DataType::Char(3), vec![Value::str("abcd")]).is_err());
        assert!(ColumnChunk::new(DataType::Char(4), vec![Value::int(1)]).is_err());
        assert!(ColumnChunk::new(DataType::Char(4), vec![Value::str("ab"), Value::Null]).is_ok());
    }

    #[test]
    fn size_accounting() {
        let c = ColumnChunk::new(
            DataType::Char(10),
            vec![Value::str("ab"), Value::str("abcde"), Value::str("")],
        )
        .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.uncompressed_bytes(), 30);
        assert_eq!(c.logical_bytes(), 7);
    }

    #[test]
    fn empty_chunk() {
        let c = ColumnChunk::new(DataType::Int64, vec![]).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.uncompressed_bytes(), 0);
    }

    #[test]
    fn compressed_column_counts_shared_once() {
        let col = CompressedColumn {
            shared: vec![0u8; 100],
            chunks: vec![
                CompressedChunk::new(vec![0u8; 10]),
                CompressedChunk::new(vec![0u8; 20]),
            ],
        };
        assert_eq!(col.compressed_bytes(), 130);
        let col2 = CompressedColumn::from_chunks(vec![CompressedChunk::new(vec![1, 2, 3])]);
        assert_eq!(col2.compressed_bytes(), 3);
    }
}
