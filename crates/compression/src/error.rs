//! Error types for the compression crate.

use std::fmt;

/// Errors produced while sizing column chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressionError {
    /// A borrowed cell did not have its column's declared width.
    CellWidth(String),
    /// A configuration parameter was invalid (e.g. zero-width pointers).
    InvalidConfig(String),
}

impl fmt::Display for CompressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressionError::CellWidth(msg) => f.write_str(msg),
            CompressionError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for CompressionError {}

/// Result alias for compression operations.
pub type CompressionResult<T> = Result<T, CompressionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let width =
            CompressionError::CellWidth("cell of 3 bytes in a column of declared width 4".into());
        assert_eq!(
            width.to_string(),
            "cell of 3 bytes in a column of declared width 4"
        );
        assert!(CompressionError::InvalidConfig("pointer width".into())
            .to_string()
            .contains("pointer width"));
    }
}
