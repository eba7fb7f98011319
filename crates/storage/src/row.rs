//! Rows and the uncompressed row/cell codec.
//!
//! The codec defines the *uncompressed* byte representation whose size the
//! compression fraction's denominator counts: every cell occupies exactly its
//! declared width ([`DataType::uncompressed_width`]), with character values
//! space-padded as in SQL `CHAR(k)`.  A small null bitmap precedes the cells
//! in the heap record format.
//!
//! Cell encodings are *order preserving*: comparing the encoded bytes of two
//! cells of the same type with `memcmp` yields the same order as comparing
//! the [`Value`]s.  This lets the index bulk loader sort raw key bytes.

use crate::datatype::DataType;
use crate::error::{StorageError, StorageResult};
use crate::schema::Schema;
use crate::value::Value;
use std::borrow::Cow;
use std::fmt;

/// A row of cell values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from values.
    #[must_use]
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// The cell values in column order.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at column index `idx`.
    #[must_use]
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of cells.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Pad byte used for `CHAR(k)` values, matching SQL space padding.
pub const CHAR_PAD: u8 = b' ';

/// Encode a single non-null cell into its fixed-width, order-preserving
/// uncompressed representation and append it to `out`.
///
/// # Errors
/// Returns an error if the value does not conform to the data type.
pub fn encode_cell(value: &Value, dt: &DataType, out: &mut Vec<u8>) -> StorageResult<()> {
    value.conforms_to(dt, "<cell>")?;
    match (value, dt) {
        (Value::Null, _) => {
            // NULL cells are materialised as all-pad bytes; the null bitmap in
            // the record header is authoritative.
            out.extend(std::iter::repeat_n(0u8, dt.uncompressed_width()));
        }
        (Value::Str(s), DataType::Char(k)) | (Value::Str(s), DataType::VarChar(k)) => {
            out.extend_from_slice(s.as_bytes());
            out.extend(std::iter::repeat_n(CHAR_PAD, *k as usize - s.len()));
        }
        (Value::Int(i), DataType::Int32) => {
            // Flip the sign bit so that big-endian byte order matches numeric order.
            let u = (*i as i32 as u32) ^ (1 << 31);
            out.extend_from_slice(&u.to_be_bytes());
        }
        (Value::Int(i), DataType::Int64) => {
            let u = (*i as u64) ^ (1 << 63);
            out.extend_from_slice(&u.to_be_bytes());
        }
        (Value::Bool(b), DataType::Bool) => out.push(u8::from(*b)),
        (v, dt) => {
            return Err(StorageError::TypeMismatch {
                column: "<cell>".to_string(),
                expected: dt.sql_name(),
                found: v.kind_name().to_string(),
            })
        }
    }
    Ok(())
}

/// The first `dt.uncompressed_width()` bytes of `bytes`: one cell, or a
/// `Decode` error for a slice too short to hold it.
fn cell_bytes<'a>(bytes: &'a [u8], dt: &DataType) -> StorageResult<&'a [u8]> {
    let w = dt.uncompressed_width();
    bytes.get(..w).ok_or_else(|| {
        StorageError::Decode(format!(
            "cell truncated: need {w} bytes, have {}",
            bytes.len()
        ))
    })
}

/// A `CHAR` / `VARCHAR` cell less its trailing pad bytes (SQL `CHAR`
/// semantics: trailing spaces are not significant).
fn unpadded(cell: &[u8]) -> &[u8] {
    let end = cell
        .iter()
        .rposition(|&b| b != CHAR_PAD)
        .map_or(0, |p| p + 1);
    &cell[..end]
}

/// The characters of an [`unpadded`] cell, checked to be UTF-8.
fn characters(unpadded: &[u8]) -> StorageResult<&str> {
    std::str::from_utf8(unpadded)
        .map_err(|e| StorageError::Decode(format!("invalid utf8 in char cell: {e}")))
}

/// Decode a single cell from its fixed-width representation.
///
/// Character values have trailing pad bytes trimmed (SQL `CHAR` semantics:
/// trailing spaces are not significant).
pub fn decode_cell(bytes: &[u8], dt: &DataType) -> StorageResult<Value> {
    let bytes = cell_bytes(bytes, dt)?;
    match dt {
        DataType::Char(_) | DataType::VarChar(_) => {
            Ok(Value::Str(characters(unpadded(bytes))?.to_string()))
        }
        DataType::Int32 => {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(bytes);
            let u = u32::from_be_bytes(buf) ^ (1 << 31);
            Ok(Value::Int(i64::from(u as i32)))
        }
        DataType::Int64 => {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(bytes);
            let u = u64::from_be_bytes(buf) ^ (1 << 63);
            Ok(Value::Int(u as i64))
        }
        DataType::Bool => Ok(Value::Bool(bytes[0] != 0)),
    }
}

/// [`Value::logical_len`] of the value a non-null cell decodes to, read off
/// the cell's bytes: `decode_cell(bytes, dt)?.logical_len()` without the
/// [`Value`].
///
/// # Errors
/// Exactly [`decode_cell`]'s: a truncated cell, or a character cell whose
/// bytes before the padding are not UTF-8.
pub fn cell_logical_len(bytes: &[u8], dt: &DataType) -> StorageResult<usize> {
    let bytes = cell_bytes(bytes, dt)?;
    Ok(match dt {
        DataType::Char(_) | DataType::VarChar(_) => match unpadded(bytes) {
            // ASCII is UTF-8: the common cell needs no decoder's check.
            ascii if ascii.is_ascii() => ascii.len(),
            other => characters(other)?.len(),
        },
        // An integer's logical length is that of `Value::Int`'s `i64`,
        // whichever column width stores it.
        DataType::Int32 | DataType::Int64 => 8,
        DataType::Bool => 1,
    })
}

/// Codec translating [`Row`]s to and from the uncompressed heap record format.
///
/// Record layout: `[null bitmap: ceil(arity/8) bytes][cell 0][cell 1]...`
/// where every cell occupies its declared uncompressed width.
#[derive(Debug, Clone)]
pub struct RowCodec {
    schema: Schema,
    /// Byte offset of each cell within the record (after the null bitmap),
    /// precomputed so borrowed cell access is O(1).
    cell_offsets: Vec<usize>,
}

impl RowCodec {
    /// Create a codec for the given schema.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        let bitmap = schema.arity().div_ceil(8);
        let mut cell_offsets = Vec::with_capacity(schema.arity());
        let mut offset = bitmap;
        for c in schema.columns() {
            cell_offsets.push(offset);
            offset += c.datatype.uncompressed_width();
        }
        RowCodec {
            schema,
            cell_offsets,
        }
    }

    /// Byte offset of column `idx`'s cell within an encoded record.
    #[must_use]
    pub fn cell_offset(&self, idx: usize) -> usize {
        self.cell_offsets[idx]
    }

    /// The schema this codec encodes for.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Size in bytes of the null bitmap for this schema.
    #[must_use]
    pub fn bitmap_bytes(&self) -> usize {
        self.schema.arity().div_ceil(8)
    }

    /// Total encoded record size in bytes (fixed for a given schema).
    #[must_use]
    pub fn record_size(&self) -> usize {
        self.bitmap_bytes() + self.schema.row_width()
    }

    /// Encode a row into record bytes, validating it against the schema.
    pub fn encode(&self, row: &Row) -> StorageResult<Vec<u8>> {
        self.schema.validate_row(row.values())?;
        let mut out = Vec::with_capacity(self.record_size());
        let mut bitmap = vec![0u8; self.bitmap_bytes()];
        for (i, v) in row.values().iter().enumerate() {
            if v.is_null() {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bitmap);
        for (v, c) in row.values().iter().zip(self.schema.columns()) {
            encode_cell(v, &c.datatype, &mut out)?;
        }
        debug_assert_eq!(out.len(), self.record_size());
        Ok(out)
    }

    /// Check record bytes as a record of this schema, and return them in
    /// canonical form: what [`decode`](Self::decode) and
    /// [`Schema::validate_row`] accept, with no [`Value`] made.
    ///
    /// The canonical form is `encode(decode(record))`: NULL cells and the
    /// bitmap's bits past the last column are zeros, and a `Bool` cell is 0
    /// or 1.  Every other byte is kept (a character cell re-encodes to its
    /// own bytes), so a record [`encode`](Self::encode) wrote comes back
    /// borrowed, and any other is copied once and fixed.
    ///
    /// # Errors
    /// Exactly those of `decode` and then `validate_row`, in that order: a
    /// record that is not [`record_size`](Self::record_size) bytes, or the
    /// first non-NULL character cell (in column order) whose bytes before
    /// the padding are not UTF-8, is [`StorageError::Decode`]; then the
    /// first NULL bit on a NOT NULL column is
    /// [`StorageError::TypeMismatch`].
    pub fn check<'r>(&self, record: &'r [u8]) -> StorageResult<Cow<'r, [u8]>> {
        if record.len() != self.record_size() {
            return Err(StorageError::Decode(format!(
                "record length {} does not match schema record size {}",
                record.len(),
                self.record_size()
            )));
        }
        let is_null = |i: usize| record[i / 8] & (1 << (i % 8)) != 0;
        let columns = self.schema.columns();
        let mut canonical = true;
        // The first NULL on a NOT NULL column: reported only once every
        // cell has decoded, as `validate_row` runs after `decode`.
        let mut null_violation = None;
        for (i, (c, &offset)) in columns.iter().zip(&self.cell_offsets).enumerate() {
            let cell = &record[offset..offset + c.datatype.uncompressed_width()];
            if is_null(i) {
                canonical &= cell.iter().all(|&b| b == 0);
                null_violation = null_violation.or((!c.nullable).then_some(c));
                continue;
            }
            match c.datatype {
                // ASCII (the pad included) is UTF-8: the common cell needs
                // no decoder's check.
                DataType::Char(_) | DataType::VarChar(_) if !cell.is_ascii() => {
                    characters(unpadded(cell))?;
                }
                DataType::Bool => canonical &= cell[0] <= 1,
                _ => {}
            }
        }
        if let Some(c) = null_violation {
            return Err(c.null_violation());
        }
        let unused_bits = (8 - columns.len() % 8) % 8;
        let last_bitmap_byte = self.bitmap_bytes() - 1;
        canonical &= record[last_bitmap_byte].leading_zeros() as usize >= unused_bits;
        if canonical {
            return Ok(Cow::Borrowed(record));
        }
        let mut fixed = record.to_vec();
        fixed[last_bitmap_byte] &= u8::MAX >> unused_bits;
        for (i, (c, &offset)) in columns.iter().zip(&self.cell_offsets).enumerate() {
            let cell = &mut fixed[offset..offset + c.datatype.uncompressed_width()];
            if is_null(i) {
                cell.fill(0);
            } else if c.datatype == DataType::Bool {
                cell[0] = u8::from(cell[0] != 0);
            }
        }
        Ok(Cow::Owned(fixed))
    }

    /// Decode record bytes back into a row: a record
    /// [`check`](Self::check) passes, cell by cell.
    pub fn decode(&self, bytes: &[u8]) -> StorageResult<Row> {
        let record = self.check(bytes)?;
        let bitmap = &record[..self.bitmap_bytes()];
        let mut values = Vec::with_capacity(self.schema.arity());
        for (i, (c, &offset)) in (self.schema.columns().iter())
            .zip(&self.cell_offsets)
            .enumerate()
        {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                values.push(Value::Null);
            } else {
                values.push(decode_cell(&record[offset..], &c.datatype)?);
            }
        }
        Ok(Row::new(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Char(12)),
            Column::nullable("qty", DataType::Int32),
            Column::new("id", DataType::Int64),
            Column::new("flag", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn record_size_is_fixed() {
        let codec = RowCodec::new(schema());
        assert_eq!(codec.bitmap_bytes(), 1);
        assert_eq!(codec.record_size(), 1 + 12 + 4 + 8 + 1);
    }

    #[test]
    fn roundtrip_plain_row() {
        let codec = RowCodec::new(schema());
        let row = Row::new(vec![
            Value::str("widget"),
            Value::int(-5),
            Value::int(1 << 40),
            Value::Bool(true),
        ]);
        let bytes = codec.encode(&row).unwrap();
        assert_eq!(bytes.len(), codec.record_size());
        assert_eq!(codec.decode(&bytes).unwrap(), row);
    }

    #[test]
    fn roundtrip_with_null() {
        let codec = RowCodec::new(schema());
        let row = Row::new(vec![
            Value::str(""),
            Value::Null,
            Value::int(0),
            Value::Bool(false),
        ]);
        let bytes = codec.encode(&row).unwrap();
        assert_eq!(codec.decode(&bytes).unwrap(), row);
    }

    #[test]
    fn encode_rejects_invalid_rows() {
        let codec = RowCodec::new(schema());
        // too wide
        assert!(codec
            .encode(&Row::new(vec![
                Value::str("longer than twelve"),
                Value::int(1),
                Value::int(1),
                Value::Bool(false)
            ]))
            .is_err());
        // wrong arity
        assert!(codec.encode(&Row::new(vec![Value::str("x")])).is_err());
        // null in non-nullable
        assert!(codec
            .encode(&Row::new(vec![
                Value::Null,
                Value::int(1),
                Value::int(1),
                Value::Bool(false)
            ]))
            .is_err());
    }

    #[test]
    fn decode_rejects_bad_length() {
        let codec = RowCodec::new(schema());
        assert!(codec.decode(&[0u8; 3]).is_err());
    }

    #[test]
    fn int_encoding_preserves_order() {
        for (a, b) in [(-10i64, -2), (-2, 0), (0, 5), (5, 1 << 20)] {
            let mut ea = Vec::new();
            let mut eb = Vec::new();
            encode_cell(&Value::int(a), &DataType::Int64, &mut ea).unwrap();
            encode_cell(&Value::int(b), &DataType::Int64, &mut eb).unwrap();
            assert!(ea < eb, "{a} should encode below {b}");

            let mut ea = Vec::new();
            let mut eb = Vec::new();
            encode_cell(&Value::int(a), &DataType::Int32, &mut ea).unwrap();
            encode_cell(&Value::int(b), &DataType::Int32, &mut eb).unwrap();
            assert!(ea < eb, "{a} should encode below {b} as int32");
        }
    }

    #[test]
    fn char_encoding_preserves_order_for_padded_values() {
        let dt = DataType::Char(8);
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        encode_cell(&Value::str("abc"), &dt, &mut ea).unwrap();
        encode_cell(&Value::str("abd"), &dt, &mut eb).unwrap();
        assert!(ea < eb);
    }

    #[test]
    fn decode_cell_trims_padding() {
        let dt = DataType::Char(6);
        let mut bytes = Vec::new();
        encode_cell(&Value::str("ab"), &dt, &mut bytes).unwrap();
        assert_eq!(bytes.len(), 6);
        assert_eq!(decode_cell(&bytes, &dt).unwrap(), Value::str("ab"));
    }

    #[test]
    fn row_projection_and_accessors() {
        let row = Row::new(vec![Value::int(1), Value::str("x"), Value::int(3)]);
        assert_eq!(row.arity(), 3);
        assert_eq!(row.value(1), &Value::str("x"));
        assert_eq!(row.to_string(), "(1, 'x', 3)");
    }
}
