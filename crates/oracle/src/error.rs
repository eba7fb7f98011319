//! Errors of the reference codecs and reports.

use samplecf_compression::CompressionError;
use samplecf_index::IndexError;
use std::fmt;

/// Errors produced while compressing or decompressing column chunks, or
/// while compressing an index for its reference report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A value in the chunk does not conform to the chunk's declared data type.
    TypeMismatch {
        /// Declared data type of the chunk.
        expected: String,
        /// Runtime kind of the offending value.
        found: String,
    },
    /// The compressed byte stream was malformed.
    Corrupt(String),
    /// The shared (global) dictionary required to decode a chunk was missing.
    MissingSharedState(&'static str),
    /// The scheme refused its input (a pointer width, a mixed-type column).
    Scheme(CompressionError),
    /// The index could not be read.
    Index(IndexError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "type mismatch: chunk declared {expected}, found {found} value"
                )
            }
            CodecError::Corrupt(msg) => write!(f, "corrupt compressed data: {msg}"),
            CodecError::MissingSharedState(what) => write!(f, "missing shared state: {what}"),
            CodecError::Scheme(e) => e.fmt(f),
            CodecError::Index(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CompressionError> for CodecError {
    fn from(e: CompressionError) -> Self {
        CodecError::Scheme(e)
    }
}

impl From<IndexError> for CodecError {
    fn from(e: IndexError) -> Self {
        CodecError::Index(e)
    }
}

/// Result alias for codec operations.
pub type CodecResult<T> = Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = CodecError::TypeMismatch {
            expected: "char(4)".into(),
            found: "integer".into(),
        };
        assert!(e.to_string().contains("char(4)"));
        assert!(CodecError::Corrupt("truncated".into())
            .to_string()
            .contains("truncated"));
        assert!(CodecError::MissingSharedState("dictionary")
            .to_string()
            .contains("dictionary"));
    }
}
