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
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::InvalidSpec(msg) => write!(f, "invalid index specification: {msg}"),
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::Compression(e) => write!(f, "compression error: {e}"),
            IndexError::Empty(msg) => write!(f, "empty index: {msg}"),
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
        let e: IndexError = CompressionError::CellWidth("bad".into()).into();
        assert!(e.to_string().contains("compression error"));
        assert!(IndexError::InvalidSpec("no keys".into())
            .to_string()
            .contains("no keys"));
        assert!(IndexError::Empty("no rows".into())
            .to_string()
            .contains("no rows"));
    }

    #[test]
    fn source_is_exposed() {
        use std::error::Error;
        let e: IndexError = StorageError::UnknownColumn("x".into()).into();
        assert!(e.source().is_some());
        assert!(IndexError::Empty("e".into()).source().is_none());
    }
}
