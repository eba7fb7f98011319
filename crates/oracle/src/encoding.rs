//! The byte writers and readers the codecs share.
//!
//! Every codec writes cells in the "null-suppressed cell" format: a small
//! fixed-width *length marker* ([`marker_width`] bytes) followed by the cell
//! payload with padding (and, for integers, leading zero bytes) removed.  A
//! reserved all-ones marker value encodes SQL NULL.  The shipped size
//! kernels count these bytes from the raw cells
//! ([`ns_payload_from_raw`](samplecf_compression::encoding::ns_payload_from_raw));
//! the writers here produce them.

use crate::error::{CodecError, CodecResult};
use samplecf_compression::encoding::marker_width;
use samplecf_storage::{DataType, Value};

/// The largest value a `bytes`-wide marker holds: the NULL sentinel.
pub(crate) fn null_marker(bytes: usize) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

/// Write `value` as a big-endian unsigned integer of exactly `width` bytes.
pub fn write_uint(out: &mut Vec<u8>, value: u64, width: usize) {
    debug_assert!(width <= 8);
    debug_assert!(value <= null_marker(width));
    let bytes = value.to_be_bytes();
    out.extend_from_slice(&bytes[8 - width..]);
}

/// Read a big-endian unsigned integer of `width` bytes starting at `*offset`,
/// advancing the offset.
pub fn read_uint(bytes: &[u8], offset: &mut usize, width: usize) -> CodecResult<u64> {
    if *offset + width > bytes.len() {
        return Err(CodecError::Corrupt(format!(
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
pub fn ns_payload(value: &Value, dt: &DataType) -> CodecResult<Vec<u8>> {
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
        (v, dt) => Err(CodecError::TypeMismatch {
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
pub fn value_from_ns_payload(payload: &[u8], dt: &DataType) -> CodecResult<Value> {
    match dt {
        DataType::Char(_) | DataType::VarChar(_) => {
            let s = std::str::from_utf8(payload)
                .map_err(|e| CodecError::Corrupt(format!("invalid utf8: {e}")))?;
            Ok(Value::Str(s.to_string()))
        }
        DataType::Int32 => {
            if payload.len() > 4 {
                return Err(CodecError::Corrupt("int32 payload too long".into()));
            }
            let mut buf = [0u8; 4];
            buf[4 - payload.len()..].copy_from_slice(payload);
            let u = u32::from_be_bytes(buf) ^ (1 << 31);
            Ok(Value::Int(i64::from(u as i32)))
        }
        DataType::Int64 => {
            if payload.len() > 8 {
                return Err(CodecError::Corrupt("int64 payload too long".into()));
            }
            let mut buf = [0u8; 8];
            buf[8 - payload.len()..].copy_from_slice(payload);
            let u = u64::from_be_bytes(buf) ^ (1 << 63);
            Ok(Value::Int(u as i64))
        }
        DataType::Bool => {
            if payload.len() != 1 {
                return Err(CodecError::Corrupt("bool payload must be 1 byte".into()));
            }
            Ok(Value::Bool(payload[0] != 0))
        }
    }
}

/// Append a full null-suppressed cell (length marker + payload) to `out`.
pub fn write_ns_cell(out: &mut Vec<u8>, value: &Value, dt: &DataType) -> CodecResult<()> {
    let width = marker_width(dt);
    if value.is_null() {
        write_uint(out, null_marker(width), width);
        return Ok(());
    }
    let payload = ns_payload(value, dt)?;
    write_uint(out, payload.len() as u64, width);
    out.extend_from_slice(&payload);
    Ok(())
}

/// Read a null-suppressed cell written by [`write_ns_cell`], advancing `offset`.
pub fn read_ns_cell(bytes: &[u8], offset: &mut usize, dt: &DataType) -> CodecResult<Value> {
    let width = marker_width(dt);
    let marker = read_uint(bytes, offset, width)?;
    if marker == null_marker(width) {
        return Ok(Value::Null);
    }
    let len = marker as usize;
    if *offset + len > bytes.len() {
        return Err(CodecError::Corrupt(format!(
            "truncated cell payload: need {len} bytes at offset {offset}"
        )));
    }
    let value = value_from_ns_payload(&bytes[*offset..*offset + len], dt)?;
    *offset += len;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_compression::encoding::ns_payload_from_raw;
    use samplecf_compression::{CompressionScheme, NullSuppression};
    use samplecf_storage::{encode_cell, CellRef};

    /// Null suppression's declared cost of `value`'s stored bytes.
    fn declared_cost(value: &Value, dt: &DataType) -> usize {
        let mut raw = Vec::new();
        encode_cell(value, dt, &mut raw).unwrap();
        let cell = CellRef::new(value.is_null(), &raw);
        (NullSuppression.cell_costs().unwrap().cell)(cell, dt)
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
