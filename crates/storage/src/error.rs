//! Error types for the storage substrate.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A value did not match the column's declared data type.
    TypeMismatch {
        /// Column name the value was destined for.
        column: String,
        /// Declared type of the column.
        expected: String,
        /// Description of the offending value.
        found: String,
    },
    /// A fixed-width character value exceeded its declared width.
    ValueTooWide {
        /// Column name.
        column: String,
        /// Declared width in bytes.
        declared: usize,
        /// Actual encoded length in bytes.
        actual: usize,
    },
    /// A row had a different number of cells than the schema has columns.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of cells in the row.
        found: usize,
    },
    /// A record was too large to ever fit in a page of the configured size.
    RecordTooLarge {
        /// Encoded record length.
        record_len: usize,
        /// Maximum payload a page can hold.
        max_payload: usize,
    },
    /// A page, slot or row identifier did not resolve to a live record.
    InvalidRid {
        /// Page number requested.
        page: u32,
        /// Slot number requested.
        slot: u16,
    },
    /// A referenced column name does not exist in the schema.
    UnknownColumn(String),
    /// The schema was structurally invalid (duplicate names, zero columns, ...).
    InvalidSchema(String),
    /// A page-level invariant was violated (corrupt slot directory, overflow, ...).
    PageCorruption(String),
    /// The requested table does not exist in the catalog.
    UnknownTable(String),
    /// Raw byte decoding failed.
    Decode(String),
    /// An on-disk file did not match the expected format (bad magic,
    /// unsupported version, truncated metadata, ...).
    InvalidFormat(String),
    /// An operating-system I/O operation failed.
    ///
    /// Stored as the rendered message (not the [`std::io::Error`] itself) so
    /// the error type stays `Clone + PartialEq` for the rest of the crate.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in column `{column}`: expected {expected}, found {found}"
            ),
            StorageError::ValueTooWide {
                column,
                declared,
                actual,
            } => write!(
                f,
                "value too wide for column `{column}`: declared {declared} bytes, got {actual}"
            ),
            StorageError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {found}"
                )
            }
            StorageError::RecordTooLarge {
                record_len,
                max_payload,
            } => write!(
                f,
                "record of {record_len} bytes exceeds maximum page payload of {max_payload} bytes"
            ),
            StorageError::InvalidRid { page, slot } => {
                write!(f, "invalid row id: page {page}, slot {slot}")
            }
            StorageError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            StorageError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            StorageError::PageCorruption(msg) => write!(f, "page corruption: {msg}"),
            StorageError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            StorageError::Decode(msg) => write!(f, "decode error: {msg}"),
            StorageError::InvalidFormat(msg) => write!(f, "invalid file format: {msg}"),
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Convenient result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_fields() {
        let e = StorageError::TypeMismatch {
            column: "a".into(),
            expected: "char(10)".into(),
            found: "int".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("`a`"));
        assert!(msg.contains("char(10)"));

        let e = StorageError::ValueTooWide {
            column: "c".into(),
            declared: 4,
            actual: 9,
        };
        assert!(e.to_string().contains("declared 4"));

        let e = StorageError::InvalidRid { page: 3, slot: 7 };
        assert!(e.to_string().contains("page 3"));
        assert!(e.to_string().contains("slot 7"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&StorageError::UnknownColumn("x".into()));
    }
}
