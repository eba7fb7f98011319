//! Error types for index construction and compression.

use samplecf_compression::CompressionError;
use samplecf_storage::StorageError;
use std::fmt;

/// Errors produced while building or compressing an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The index specification was invalid (no key columns, duplicates, ...).
    InvalidSpec(String),
    /// An underlying storage operation failed.
    Storage(StorageError),
    /// An underlying compression operation failed.
    Compression(CompressionError),
    /// The index has no entries where at least one was required.
    Empty(String),
    /// A run to exclude was not a sub-multiset of the run it was excluded
    /// from.
    ExclusionMismatch {
        /// Entries of the excluded run left over after the walk: the first
        /// one that had no counterpart, and every entry behind it.
        left_over: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::InvalidSpec(msg) => write!(f, "invalid index specification: {msg}"),
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::Compression(e) => write!(f, "compression error: {e}"),
            IndexError::Empty(msg) => write!(f, "empty index: {msg}"),
            IndexError::ExclusionMismatch { left_over } => write!(
                f,
                "excluded run is not part of the run: {left_over} of its entries were left over"
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            IndexError::Compression(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

impl From<CompressionError> for IndexError {
    fn from(e: CompressionError) -> Self {
        IndexError::Compression(e)
    }
}

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, IndexError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: IndexError = StorageError::UnknownColumn("x".into()).into();
        assert!(e.to_string().contains("storage error"));
        let e: IndexError = CompressionError::Corrupt("bad".into()).into();
        assert!(e.to_string().contains("compression error"));
        assert!(IndexError::InvalidSpec("no keys".into())
            .to_string()
            .contains("no keys"));
        assert!(IndexError::ExclusionMismatch { left_over: 3 }
            .to_string()
            .contains("3 of its entries"));
    }

    #[test]
    fn source_is_exposed() {
        use std::error::Error;
        let e: IndexError = StorageError::UnknownColumn("x".into()).into();
        assert!(e.source().is_some());
        assert!(IndexError::Empty("e".into()).source().is_none());
    }
}
