//! The null-suppression codec (the paper's Figure 1.a): a count, then
//! every cell as a length marker and its unpadded payload.

use crate::chunk::{ColumnChunk, CompressedChunk};
use crate::codec::Codec;
use crate::encoding::{read_ns_cell, write_ns_cell};
use crate::error::{CodecError, CodecResult};
use samplecf_compression::NullSuppression;
use samplecf_storage::DataType;

impl Codec for NullSuppression {
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk> {
        let mut out = Vec::with_capacity(2 + chunk.logical_bytes() + chunk.len());
        out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        let dt = chunk.datatype();
        for v in chunk.values() {
            write_ns_cell(&mut out, v, &dt)?;
        }
        Ok(CompressedChunk::new(out))
    }

    fn decompress_chunk(
        &self,
        chunk: &CompressedChunk,
        datatype: DataType,
    ) -> CodecResult<ColumnChunk> {
        let bytes = chunk.bytes();
        if bytes.len() < 2 {
            return Err(CodecError::Corrupt("missing cell count".into()));
        }
        let n = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        let mut offset = 2;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(read_ns_cell(bytes, &mut offset, &datatype)?);
        }
        if offset != bytes.len() {
            return Err(CodecError::Corrupt(format!(
                "{} trailing bytes after decoding {n} cells",
                bytes.len() - offset
            )));
        }
        ColumnChunk::new(datatype, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_compression::CompressionScheme;
    use samplecf_storage::{encode_cell, CellRef, Value};

    /// The chunk's size by the declared cell costs, over each value's
    /// stored bytes.
    fn declared_bytes(chunk: &ColumnChunk) -> usize {
        let (costs, dt) = (NullSuppression.cell_costs().unwrap(), chunk.datatype());
        let cost = |value: &Value| {
            let mut raw = Vec::new();
            encode_cell(value, &dt, &mut raw).unwrap();
            (costs.cell)(CellRef::new(value.is_null(), &raw), &dt)
        };
        (costs.chunk_header)(chunk.len()) + chunk.values().iter().map(cost).sum::<usize>()
    }

    fn char_chunk(k: u16, strings: &[&str]) -> ColumnChunk {
        ColumnChunk::new(
            DataType::Char(k),
            strings.iter().map(|s| Value::str(*s)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_char() {
        let chunk = char_chunk(20, &["abc", "", "abcdefghij", "x"]);
        let ns = NullSuppression;
        let c = ns.compress_chunk(&chunk).unwrap();
        assert_eq!(ns.decompress_chunk(&c, DataType::Char(20)).unwrap(), chunk);
    }

    #[test]
    fn roundtrip_with_nulls_and_integers() {
        let ns = NullSuppression;
        let chunk = ColumnChunk::new(
            DataType::Int64,
            vec![Value::int(5), Value::Null, Value::int(-1_000_000)],
        )
        .unwrap();
        let c = ns.compress_chunk(&chunk).unwrap();
        assert_eq!(ns.decompress_chunk(&c, DataType::Int64).unwrap(), chunk);
    }

    #[test]
    fn compressed_size_matches_paper_formula() {
        // The paper's example: char(20) storing 'abc' costs 3 bytes + length.
        let chunk = char_chunk(20, &["abc"; 100]);
        let c = NullSuppression.compress_chunk(&chunk).unwrap();
        // 2-byte count + 100 * (1-byte marker + 3 bytes payload)
        assert_eq!(c.compressed_bytes(), 2 + 100 * 4);
        assert_eq!(declared_bytes(&chunk), c.compressed_bytes());
    }

    #[test]
    fn shrinks_padded_data_substantially() {
        let chunk = char_chunk(40, &["ab"; 200]);
        let c = NullSuppression.compress_chunk(&chunk).unwrap();
        let cf = c.compressed_bytes() as f64 / chunk.uncompressed_bytes() as f64;
        assert!(cf < 0.15, "expected strong compression, got cf = {cf}");
    }

    #[test]
    fn full_width_values_barely_grow() {
        let chunk = char_chunk(10, &["0123456789"; 50]);
        let c = NullSuppression.compress_chunk(&chunk).unwrap();
        let cf = c.compressed_bytes() as f64 / chunk.uncompressed_bytes() as f64;
        assert!(cf > 1.0 && cf < 1.15, "cf = {cf}");
    }

    #[test]
    fn corrupt_data_rejected() {
        let ns = NullSuppression;
        assert!(ns
            .decompress_chunk(&CompressedChunk::new(vec![]), DataType::Char(8))
            .is_err());
        // count says 2 cells but stream ends after one.
        let mut bytes = vec![0u8, 2];
        bytes.extend_from_slice(&[3, b'a', b'b', b'c']);
        assert!(ns
            .decompress_chunk(&CompressedChunk::new(bytes), DataType::Char(8))
            .is_err());
        // trailing garbage.
        let chunk = char_chunk(8, &["a"]);
        let mut bytes = ns.compress_chunk(&chunk).unwrap().bytes().to_vec();
        bytes.push(0xFF);
        assert!(ns
            .decompress_chunk(&CompressedChunk::new(bytes), DataType::Char(8))
            .is_err());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let chunk = ColumnChunk::new(DataType::Char(8), vec![]).unwrap();
        let ns = NullSuppression;
        let c = ns.compress_chunk(&chunk).unwrap();
        assert_eq!(c.compressed_bytes(), 2);
        assert!(ns
            .decompress_chunk(&c, DataType::Char(8))
            .unwrap()
            .is_empty());
    }
}
