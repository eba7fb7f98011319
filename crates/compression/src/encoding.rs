//! Low-level byte encoding helpers shared by the compression schemes.
//!
//! All schemes ultimately write cells in the "null-suppressed cell" format:
//! a small fixed-width *length marker* followed by the cell payload with
//! padding (and, for integers, leading zero bytes) removed.  A reserved
//! all-ones marker value encodes SQL NULL.

use crate::error::{CompressionError, CompressionResult};
use samplecf_storage::{DataType, Value, CHAR_PAD};

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

/// Write `value` as a big-endian unsigned integer of exactly `width` bytes.
pub fn write_uint(out: &mut Vec<u8>, value: u64, width: usize) {
    debug_assert!(width <= 8);
    debug_assert!(value <= max_for_width(width));
    let bytes = value.to_be_bytes();
    out.extend_from_slice(&bytes[8 - width..]);
}

/// Read a big-endian unsigned integer of `width` bytes starting at `*offset`,
/// advancing the offset.
pub fn read_uint(bytes: &[u8], offset: &mut usize, width: usize) -> CompressionResult<u64> {
    if *offset + width > bytes.len() {
        return Err(CompressionError::Corrupt(format!(
            "truncated integer: need {width} bytes at offset {offset}"
        )));
    }
    let mut buf = [0u8; 8];
    buf[8 - width..].copy_from_slice(&bytes[*offset..*offset + width]);
    *offset += width;
    Ok(u64::from_be_bytes(buf))
}

/// Produce the null-suppressed payload bytes of a non-null value: character
/// data without padding, integers in order-preserving big-endian form with
/// leading zero bytes suppressed, booleans as one byte.
pub fn ns_payload(value: &Value, dt: &DataType) -> CompressionResult<Vec<u8>> {
    match (value, dt) {
        (Value::Str(s), DataType::Char(_)) | (Value::Str(s), DataType::VarChar(_)) => {
            Ok(s.as_bytes().to_vec())
        }
        (Value::Int(i), DataType::Int32) => {
            let u = (*i as i32 as u32) ^ (1 << 31);
            Ok(strip_leading_zeros(&u.to_be_bytes()))
        }
        (Value::Int(i), DataType::Int64) => {
            let u = (*i as u64) ^ (1 << 63);
            Ok(strip_leading_zeros(&u.to_be_bytes()))
        }
        (Value::Bool(b), DataType::Bool) => Ok(vec![u8::from(*b)]),
        (v, dt) => Err(CompressionError::TypeMismatch {
            expected: dt.sql_name(),
            found: v.kind_name().to_string(),
        }),
    }
}

fn strip_leading_zeros(bytes: &[u8]) -> Vec<u8> {
    let start = bytes.iter().position(|&b| b != 0).unwrap_or(bytes.len());
    bytes[start..].to_vec()
}

/// Reconstruct a value from its null-suppressed payload.
pub fn value_from_ns_payload(payload: &[u8], dt: &DataType) -> CompressionResult<Value> {
    match dt {
        DataType::Char(_) | DataType::VarChar(_) => {
            let s = std::str::from_utf8(payload)
                .map_err(|e| CompressionError::Corrupt(format!("invalid utf8: {e}")))?;
            Ok(Value::Str(s.to_string()))
        }
        DataType::Int32 => {
            if payload.len() > 4 {
                return Err(CompressionError::Corrupt("int32 payload too long".into()));
            }
            let mut buf = [0u8; 4];
            buf[4 - payload.len()..].copy_from_slice(payload);
            let u = u32::from_be_bytes(buf) ^ (1 << 31);
            Ok(Value::Int(i64::from(u as i32)))
        }
        DataType::Int64 => {
            if payload.len() > 8 {
                return Err(CompressionError::Corrupt("int64 payload too long".into()));
            }
            let mut buf = [0u8; 8];
            buf[8 - payload.len()..].copy_from_slice(payload);
            let u = u64::from_be_bytes(buf) ^ (1 << 63);
            Ok(Value::Int(u as i64))
        }
        DataType::Bool => {
            if payload.len() != 1 {
                return Err(CompressionError::Corrupt(
                    "bool payload must be 1 byte".into(),
                ));
            }
            Ok(Value::Bool(payload[0] != 0))
        }
    }
}

/// Append a full null-suppressed cell (length marker + payload) to `out`.
pub fn write_ns_cell(out: &mut Vec<u8>, value: &Value, dt: &DataType) -> CompressionResult<()> {
    let width = marker_width(dt);
    if value.is_null() {
        write_uint(out, max_for_width(width), width);
        return Ok(());
    }
    let payload = ns_payload(value, dt)?;
    write_uint(out, payload.len() as u64, width);
    out.extend_from_slice(&payload);
    Ok(())
}

/// Read a null-suppressed cell written by [`write_ns_cell`], advancing `offset`.
pub fn read_ns_cell(bytes: &[u8], offset: &mut usize, dt: &DataType) -> CompressionResult<Value> {
    let width = marker_width(dt);
    let marker = read_uint(bytes, offset, width)?;
    if marker == max_for_width(width) {
        return Ok(Value::Null);
    }
    let len = marker as usize;
    if *offset + len > bytes.len() {
        return Err(CompressionError::Corrupt(format!(
            "truncated cell payload: need {len} bytes at offset {offset}"
        )));
    }
    let value = value_from_ns_payload(&bytes[*offset..*offset + len], dt)?;
    *offset += len;
    Ok(value)
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
/// subslice — the zero-copy counterpart of [`ns_payload`].
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
    use samplecf_storage::{encode_cell, CellRef};

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
    fn uint_roundtrip() {
        let mut out = Vec::new();
        write_uint(&mut out, 0x1234, 2);
        write_uint(&mut out, 7, 1);
        let mut off = 0;
        assert_eq!(read_uint(&out, &mut off, 2).unwrap(), 0x1234);
        assert_eq!(read_uint(&out, &mut off, 1).unwrap(), 7);
        assert!(read_uint(&out, &mut off, 1).is_err());
    }

    #[test]
    fn ns_cell_roundtrip_strings() {
        let dt = DataType::Char(20);
        for s in ["", "a", "abcdefghij", "exactly-twenty-chars"] {
            let mut out = Vec::new();
            write_ns_cell(&mut out, &Value::str(s), &dt).unwrap();
            assert_eq!(out.len(), 1 + s.len());
            let mut off = 0;
            assert_eq!(read_ns_cell(&out, &mut off, &dt).unwrap(), Value::str(s));
            assert_eq!(off, out.len());
        }
    }

    #[test]
    fn ns_cell_roundtrip_null() {
        let dt = DataType::Char(20);
        let mut out = Vec::new();
        write_ns_cell(&mut out, &Value::Null, &dt).unwrap();
        assert_eq!(out.len(), 1);
        let mut off = 0;
        assert_eq!(read_ns_cell(&out, &mut off, &dt).unwrap(), Value::Null);
    }

    #[test]
    fn ns_cell_roundtrip_integers() {
        for dt in [DataType::Int32, DataType::Int64] {
            for i in [-1_000_000i64, -1, 0, 1, 255, 1 << 20] {
                if dt == DataType::Int32 && i32::try_from(i).is_err() {
                    continue;
                }
                let mut out = Vec::new();
                write_ns_cell(&mut out, &Value::int(i), &dt).unwrap();
                let mut off = 0;
                assert_eq!(
                    read_ns_cell(&out, &mut off, &dt).unwrap(),
                    Value::int(i),
                    "{dt:?} {i}"
                );
            }
        }
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
    fn ns_cell_size_matches_written_length() {
        let dt = DataType::Char(40);
        for v in [Value::str("hello"), Value::Null, Value::str("")] {
            let mut out = Vec::new();
            write_ns_cell(&mut out, &v, &dt).unwrap();
            assert_eq!(out.len(), declared_cost(&v, &dt));
        }
    }

    #[test]
    fn type_mismatch_is_detected() {
        let mut out = Vec::new();
        assert!(write_ns_cell(&mut out, &Value::int(1), &DataType::Char(4)).is_err());
        assert!(ns_payload(&Value::str("x"), &DataType::Int32).is_err());
    }

    #[test]
    fn trim_char_padding_works() {
        assert_eq!(trim_char_padding(b"ab    "), b"ab");
        assert_eq!(trim_char_padding(b"      "), b"");
        assert_eq!(trim_char_padding(b"a b"), b"a b");
    }

    #[test]
    fn raw_payload_matches_value_payload() {
        let cases = [
            (Value::str("hi"), DataType::Char(8)),
            (Value::str(""), DataType::Char(8)),
            (Value::str("exact"), DataType::VarChar(5)),
            (Value::int(0), DataType::Int32),
            (Value::int(-1), DataType::Int32),
            (Value::int(i64::from(i32::MIN)), DataType::Int32),
            (Value::int(42), DataType::Int64),
            (Value::int(i64::MIN), DataType::Int64),
            (Value::Bool(true), DataType::Bool),
            (Value::Bool(false), DataType::Bool),
        ];
        for (value, dt) in &cases {
            let mut raw = Vec::new();
            encode_cell(value, dt, &mut raw).unwrap();
            assert_eq!(
                ns_payload_from_raw(&raw, dt),
                ns_payload(value, dt).unwrap().as_slice(),
                "{dt:?} {value:?}"
            );
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let dt = DataType::Char(20);
        // Marker says 5 bytes follow but only 2 do.
        let bytes = vec![5u8, b'a', b'b'];
        let mut off = 0;
        assert!(read_ns_cell(&bytes, &mut off, &dt).is_err());
    }
}
