//! Table schemas: ordered collections of named, typed columns.

use crate::datatype::DataType;
use crate::error::{StorageError, StorageResult};
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Declared data type.
    pub datatype: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl Column {
    /// Create a non-nullable column.
    pub fn new(name: impl Into<String>, datatype: DataType) -> Self {
        Column {
            name: name.into(),
            datatype,
            nullable: false,
        }
    }

    /// Create a nullable column.
    pub fn nullable(name: impl Into<String>, datatype: DataType) -> Self {
        Column {
            name: name.into(),
            datatype,
            nullable: true,
        }
    }
}

impl Column {
    /// The error for a NULL in this column when it is NOT NULL — one
    /// message for a row ([`Schema::validate_row`]) and a record
    /// ([`RowCodec::check`](crate::RowCodec::check)) alike.
    pub(crate) fn null_violation(&self) -> StorageError {
        StorageError::TypeMismatch {
            column: self.name.clone(),
            expected: format!("{} not null", self.datatype),
            found: "null".to_string(),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.datatype)?;
        if !self.nullable {
            write!(f, " not null")?;
        }
        Ok(())
    }
}

/// An ordered set of columns describing the shape of a table or index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<Vec<Column>>,
}

impl Schema {
    /// Build a schema from a list of columns.
    ///
    /// # Errors
    /// Returns [`StorageError::InvalidSchema`] if the column list is empty,
    /// contains duplicate names, or contains a zero-width character column.
    pub fn new(columns: Vec<Column>) -> StorageResult<Self> {
        if columns.is_empty() {
            return Err(StorageError::InvalidSchema(
                "schema must have at least one column".to_string(),
            ));
        }
        let mut seen = HashSet::new();
        for c in &columns {
            if c.name.is_empty() {
                return Err(StorageError::InvalidSchema(
                    "column names must be non-empty".to_string(),
                ));
            }
            if !seen.insert(c.name.clone()) {
                return Err(StorageError::InvalidSchema(format!(
                    "duplicate column name `{}`",
                    c.name
                )));
            }
            if let DataType::Char(0) | DataType::VarChar(0) = c.datatype {
                return Err(StorageError::InvalidSchema(format!(
                    "column `{}` has zero width",
                    c.name
                )));
            }
        }
        Ok(Schema {
            columns: Arc::new(columns),
        })
    }

    /// Convenience constructor for the paper's canonical single-column
    /// `char(k)` table.
    pub fn single_char(name: impl Into<String>, k: u16) -> Self {
        Schema::new(vec![Column::new(name, DataType::Char(k))])
            .expect("single char(k>0) column is always a valid schema")
    }

    /// The columns, in declaration order.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column with the given name.
    pub fn column_index(&self, name: &str) -> StorageResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// The column with the given name.
    pub fn column(&self, name: &str) -> StorageResult<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// The column at the given position.
    #[must_use]
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Total uncompressed width of one row in bytes (the paper's `k` summed
    /// over all columns).
    #[must_use]
    pub fn row_width(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.datatype.uncompressed_width())
            .sum()
    }

    /// Validate a row of values against this schema.
    pub fn validate_row(&self, values: &[Value]) -> StorageResult<()> {
        if values.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found: values.len(),
            });
        }
        for (v, c) in values.iter().zip(self.columns.iter()) {
            if v.is_null() && !c.nullable {
                return Err(c.null_violation());
            }
            v.conforms_to(&c.datatype, &c.name)?;
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Char(10)),
            Column::nullable("b", DataType::Int32),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_duplicate() {
        assert!(Schema::new(vec![]).is_err());
        assert!(Schema::new(vec![
            Column::new("a", DataType::Int32),
            Column::new("a", DataType::Int64),
        ])
        .is_err());
        assert!(Schema::new(vec![Column::new("a", DataType::Char(0))]).is_err());
        assert!(Schema::new(vec![Column::new("", DataType::Char(5))]).is_err());
    }

    #[test]
    fn single_char_helper() {
        let s = Schema::single_char("a", 20);
        assert_eq!(s.arity(), 1);
        assert_eq!(s.row_width(), 20);
        assert_eq!(s.column_at(0).datatype, DataType::Char(20));
    }

    #[test]
    fn row_width_sums_columns() {
        assert_eq!(two_col_schema().row_width(), 14);
    }

    #[test]
    fn column_lookup() {
        let s = two_col_schema();
        assert_eq!(s.column_index("b").unwrap(), 1);
        assert!(s.column_index("zzz").is_err());
        assert_eq!(s.column("a").unwrap().datatype, DataType::Char(10));
    }

    #[test]
    fn validate_row_checks_arity_nullability_and_types() {
        let s = two_col_schema();
        assert!(s.validate_row(&[Value::str("hi"), Value::int(3)]).is_ok());
        assert!(s.validate_row(&[Value::str("hi")]).is_err());
        assert!(s.validate_row(&[Value::Null, Value::int(3)]).is_err());
        assert!(s.validate_row(&[Value::str("hi"), Value::Null]).is_ok());
        assert!(s
            .validate_row(&[Value::str("way too long for ten"), Value::int(1)])
            .is_err());
    }

    #[test]
    fn display_is_readable() {
        let s = two_col_schema();
        let d = s.to_string();
        assert!(d.contains("a char(10) not null"));
        assert!(d.contains("b int"));
    }
}
