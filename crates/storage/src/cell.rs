//! Borrowed views over encoded rows and cells.
//!
//! The hot estimation path (read page → decode rows → measure a scheme's
//! output size) does not need owned [`Row`]s: every stored cell already sits
//! in its canonical fixed-width encoding inside the page, and that encoding
//! is injective for non-null values (see [`encode_cell`](crate::row::encode_cell)).
//! A [`CellRef`] borrows those bytes in place, and a [`RowRef`] is the
//! per-record view that hands them out — so batch kernels can compare,
//! deduplicate and size cells without materialising a single [`Value`].
//!
//! Equality of two `CellRef`s of the same column is defined as: both NULL, or
//! both non-null with byte-equal encodings.  The null flag must participate
//! because NULL cells are materialised as all-zero bytes, which collide with
//! real values (e.g. `Int32` of `i32::MIN` also encodes to all zeros); the
//! null bitmap in the record header is authoritative.

use crate::error::{StorageError, StorageResult};
use crate::row::{cell_logical_len, decode_cell, Row, RowCodec};
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// A borrowed, fixed-width encoded cell plus its null flag.
#[derive(Debug, Clone, Copy)]
pub struct CellRef<'a> {
    is_null: bool,
    bytes: &'a [u8],
}

impl<'a> CellRef<'a> {
    /// Wrap a cell's encoded bytes.  `bytes` must be exactly the cell's
    /// declared uncompressed width; for NULL cells they are the all-zero
    /// placeholder the codec writes.
    #[must_use]
    pub fn new(is_null: bool, bytes: &'a [u8]) -> Self {
        CellRef { is_null, bytes }
    }

    /// Whether the cell is SQL NULL (per the record's null bitmap).
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.is_null
    }

    /// The cell's fixed-width encoded bytes (all zeros for NULL cells).
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// [`Value::logical_len`] of the value the cell decodes to — 0 for
    /// NULL — read off its bytes ([`cell_logical_len`]).
    ///
    /// # Errors
    /// [`cell_logical_len`]'s, for a non-NULL cell.
    pub fn logical_len(&self, dt: &crate::datatype::DataType) -> StorageResult<usize> {
        if self.is_null {
            Ok(0)
        } else {
            cell_logical_len(self.bytes, dt)
        }
    }

    /// Decode the cell back into an owned [`Value`].
    pub fn to_value(&self, dt: &crate::datatype::DataType) -> StorageResult<Value> {
        if self.is_null {
            Ok(Value::Null)
        } else {
            decode_cell(self.bytes, dt)
        }
    }
}

impl PartialEq for CellRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.is_null || other.is_null {
            self.is_null && other.is_null
        } else {
            self.bytes == other.bytes
        }
    }
}

impl Eq for CellRef<'_> {}

impl Hash for CellRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // NULL cells hash alike regardless of their placeholder bytes so that
        // Hash stays consistent with Eq.
        state.write_u8(u8::from(self.is_null));
        if !self.is_null {
            self.bytes.hash(state);
        }
    }
}

/// A borrowed view over one encoded heap record.
///
/// Layout (see [`RowCodec`]): `[null bitmap][cell 0][cell 1]...` with every
/// cell at its declared fixed width, so each cell is a subslice at a
/// schema-determined offset — no decoding happens until a caller asks for a
/// [`Value`].
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    codec: &'a RowCodec,
    record: &'a [u8],
}

impl<'a> RowRef<'a> {
    /// Wrap a record, validating its length against the codec's fixed record
    /// size.
    pub fn new(codec: &'a RowCodec, record: &'a [u8]) -> StorageResult<Self> {
        if record.len() != codec.record_size() {
            return Err(StorageError::Decode(format!(
                "record length {} does not match schema record size {}",
                record.len(),
                codec.record_size()
            )));
        }
        Ok(RowRef { codec, record })
    }

    /// Number of cells.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.codec.schema().arity()
    }

    /// The raw record bytes.
    #[must_use]
    pub fn record(&self) -> &'a [u8] {
        self.record
    }

    /// Whether the cell at `idx` is NULL, per the record's null bitmap.
    #[must_use]
    pub fn is_null(&self, idx: usize) -> bool {
        self.record[idx / 8] & (1 << (idx % 8)) != 0
    }

    /// Borrow the cell at column index `idx`.
    // Called per cell of every record a key order encodes: the hint keeps it
    // inlined across crates whatever thin LTO's partitioning of its callers.
    #[must_use]
    #[inline]
    pub fn cell(&self, idx: usize) -> CellRef<'a> {
        let offset = self.codec.cell_offset(idx);
        let width = self
            .codec
            .schema()
            .column_at(idx)
            .datatype
            .uncompressed_width();
        CellRef::new(self.is_null(idx), &self.record[offset..offset + width])
    }

    /// Decode the whole record into an owned [`Row`].
    pub fn to_row(&self) -> StorageResult<Row> {
        self.codec.decode(self.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{Column, Schema};
    use std::collections::HashSet;

    fn codec() -> RowCodec {
        RowCodec::new(
            Schema::new(vec![
                Column::new("name", DataType::Char(8)),
                Column::nullable("qty", DataType::Int32),
                Column::new("id", DataType::Int64),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn row_ref_cells_match_decoded_values() {
        let codec = codec();
        let row = Row::new(vec![Value::str("abc"), Value::Null, Value::int(-7)]);
        let bytes = codec.encode(&row).unwrap();
        let r = RowRef::new(&codec, &bytes).unwrap();
        assert_eq!(r.arity(), 3);
        assert!(!r.is_null(0));
        assert!(r.is_null(1));
        assert_eq!(
            r.cell(0).to_value(&DataType::Char(8)).unwrap(),
            Value::str("abc")
        );
        assert_eq!(r.cell(1).to_value(&DataType::Int32).unwrap(), Value::Null);
        assert_eq!(
            r.cell(2).to_value(&DataType::Int64).unwrap(),
            Value::int(-7)
        );
        assert_eq!(r.to_row().unwrap(), row);
    }

    #[test]
    fn row_ref_rejects_wrong_length() {
        let codec = codec();
        assert!(RowRef::new(&codec, &[0u8; 3]).is_err());
    }

    #[test]
    fn null_cells_are_equal_regardless_of_placeholder_bytes() {
        let zeros = [0u8; 4];
        let junk = [9u8; 4];
        assert_eq!(CellRef::new(true, &zeros), CellRef::new(true, &junk));
        // A NULL never equals a non-null cell, even with identical bytes —
        // Int32 of i32::MIN encodes to all zeros too.
        assert_ne!(CellRef::new(true, &zeros), CellRef::new(false, &zeros));
        assert_eq!(CellRef::new(false, &zeros), CellRef::new(false, &zeros));
        assert_ne!(CellRef::new(false, &zeros), CellRef::new(false, &junk));
    }

    #[test]
    fn hash_is_consistent_with_equality() {
        let zeros = [0u8; 4];
        let junk = [9u8; 4];
        let mut set = HashSet::new();
        set.insert(CellRef::new(true, &zeros));
        // Same logical cell (NULL) with different placeholder bytes: no new entry.
        assert!(!set.insert(CellRef::new(true, &junk)));
        assert!(set.insert(CellRef::new(false, &zeros)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn cell_equality_tracks_value_equality_through_the_codec() {
        let codec = codec();
        let a = codec
            .encode(&Row::new(vec![
                Value::str("x"),
                Value::int(5),
                Value::int(1),
            ]))
            .unwrap();
        let b = codec
            .encode(&Row::new(vec![
                Value::str("x"),
                Value::int(5),
                Value::int(2),
            ]))
            .unwrap();
        let ra = RowRef::new(&codec, &a).unwrap();
        let rb = RowRef::new(&codec, &b).unwrap();
        assert_eq!(ra.cell(0), rb.cell(0));
        assert_eq!(ra.cell(1), rb.cell(1));
        assert_ne!(ra.cell(2), rb.cell(2));
    }
}
