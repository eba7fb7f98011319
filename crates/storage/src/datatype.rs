//! Column data types and their uncompressed on-page representation.
//!
//! The paper's analytical model assumes a single `char(k)` column, but the
//! library supports the usual fixed- and variable-width types so that
//! multi-column indexes can be exercised as well.  The important property for
//! compression-fraction estimation is [`DataType::uncompressed_width`]: the
//! number of bytes a cell of that type occupies in an *uncompressed* index
//! page, which is what the denominator of the compression fraction counts.

use std::fmt;

/// A column data type.
///
/// Widths are expressed in bytes.  Fixed-width character columns (`Char`)
/// follow SQL `CHAR(k)` semantics: values shorter than `k` are padded, so the
/// uncompressed cell always occupies `k` bytes.  This is exactly the setting
/// analysed in the paper, where Null Suppression removes the padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Fixed-width character field of `k` bytes (SQL `CHAR(k)`).
    Char(u16),
    /// Variable-width character field with a maximum of `k` bytes
    /// (SQL `VARCHAR(k)`).  The uncompressed representation stores the value
    /// padded to `k` bytes as well (some engines store varchar inline in
    /// fixed-width slots inside index pages); null suppression then recovers
    /// the actual length.
    VarChar(u16),
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// Boolean stored as one byte.
    Bool,
}

impl DataType {
    /// Number of bytes one cell of this type occupies uncompressed.
    #[must_use]
    pub fn uncompressed_width(&self) -> usize {
        match self {
            DataType::Char(k) | DataType::VarChar(k) => *k as usize,
            DataType::Int32 => 4,
            DataType::Int64 => 8,
            DataType::Bool => 1,
        }
    }

    /// A human readable SQL-ish name, e.g. `char(20)`.
    #[must_use]
    pub fn sql_name(&self) -> String {
        match self {
            DataType::Char(k) => format!("char({k})"),
            DataType::VarChar(k) => format!("varchar({k})"),
            DataType::Int32 => "int".to_string(),
            DataType::Int64 => "bigint".to_string(),
            DataType::Bool => "bool".to_string(),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncompressed_widths() {
        assert_eq!(DataType::Char(20).uncompressed_width(), 20);
        assert_eq!(DataType::VarChar(255).uncompressed_width(), 255);
        assert_eq!(DataType::Int32.uncompressed_width(), 4);
        assert_eq!(DataType::Int64.uncompressed_width(), 8);
        assert_eq!(DataType::Bool.uncompressed_width(), 1);
    }

    #[test]
    fn sql_names() {
        assert_eq!(DataType::Char(20).to_string(), "char(20)");
        assert_eq!(DataType::VarChar(7).to_string(), "varchar(7)");
        assert_eq!(DataType::Int32.to_string(), "int");
        assert_eq!(DataType::Int64.to_string(), "bigint");
        assert_eq!(DataType::Bool.to_string(), "bool");
    }
}
