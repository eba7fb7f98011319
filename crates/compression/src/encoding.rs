//! The null-suppressed cell format every scheme's size is counted in.
//!
//! All schemes size cells in the "null-suppressed cell" format: a small
//! fixed-width *length marker* followed by the cell payload with padding
//! (and, for integers, leading zero bytes) removed.  A reserved all-ones
//! marker value encodes SQL NULL.

use samplecf_storage::{DataType, CHAR_PAD};

/// Number of bytes the length marker needs so that it can represent every
/// length in `0..=k` plus the NULL sentinel.
#[must_use]
pub fn marker_width(dt: &DataType) -> usize {
    let k = dt.uncompressed_width() as u64;
    let mut bytes = 1usize;
    // The largest representable value is reserved for NULL, so we need
    // max >= k + 1.
    while max_for_width(bytes) < k + 1 {
        bytes += 1;
    }
    bytes
}

fn max_for_width(bytes: usize) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

/// Trim SQL `CHAR` padding from a byte slice (used when compressing raw
/// fixed-width cells directly).
#[must_use]
pub fn trim_char_padding(bytes: &[u8]) -> &[u8] {
    let end = bytes
        .iter()
        .rposition(|&b| b != CHAR_PAD)
        .map_or(0, |p| p + 1);
    &bytes[..end]
}

/// The null-suppressed payload of a *raw* non-null cell, as a borrowed
/// subslice.
///
/// `raw` must be the cell's canonical fixed-width encoding (what
/// [`encode_cell`](samplecf_storage::encode_cell) writes): space-padded text,
/// order-preserving big-endian integers with the sign bit already flipped, a
/// single byte for booleans.  Padding and leading zero bytes are dropped by
/// slicing, so no bytes are materialised.
#[must_use]
pub fn ns_payload_from_raw<'a>(raw: &'a [u8], dt: &DataType) -> &'a [u8] {
    match dt {
        DataType::Char(_) | DataType::VarChar(_) => trim_char_padding(raw),
        DataType::Int32 | DataType::Int64 => {
            let start = raw.iter().position(|&b| b != 0).unwrap_or(raw.len());
            &raw[start..]
        }
        DataType::Bool => &raw[..1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressionScheme, NullSuppression};
    use samplecf_storage::{encode_cell, CellRef, Value};

    /// Null suppression's declared cost of `value`'s stored bytes.
    fn declared_cost(value: &Value, dt: &DataType) -> usize {
        let mut raw = Vec::new();
        encode_cell(value, dt, &mut raw).unwrap();
        let cell = CellRef::new(value.is_null(), &raw);
        (NullSuppression.cell_costs().unwrap().cell)(cell, dt)
    }

    #[test]
    fn marker_width_accounts_for_null_sentinel() {
        assert_eq!(marker_width(&DataType::Char(1)), 1);
        assert_eq!(marker_width(&DataType::Char(254)), 1);
        // With k = 255 the sentinel no longer fits in one byte.
        assert_eq!(marker_width(&DataType::Char(255)), 2);
        assert_eq!(marker_width(&DataType::Int64), 1);
    }

    #[test]
    fn integer_payloads_never_exceed_declared_width() {
        // The order-preserving encoding flips the sign bit, so typical values
        // keep their full width (only values near i64::MIN gain from zero
        // suppression); the payload must never exceed width + marker though.
        assert_eq!(declared_cost(&Value::int(5), &DataType::Int64), 1 + 8);
        assert!(declared_cost(&Value::int(i64::MIN), &DataType::Int64) < 1 + 8);
        assert!(declared_cost(&Value::int(-7), &DataType::Int32) <= 1 + 4);
    }

    #[test]
    fn trim_char_padding_works() {
        assert_eq!(trim_char_padding(b"ab    "), b"ab");
        assert_eq!(trim_char_padding(b"      "), b"");
        assert_eq!(trim_char_padding(b"a b"), b"a b");
    }
}
