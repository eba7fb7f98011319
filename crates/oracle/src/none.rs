//! The identity codec: every cell at its full declared width behind a
//! count and a null bitmap.

use crate::chunk::{ColumnChunk, CompressedChunk};
use crate::codec::Codec;
use crate::error::{CodecError, CodecResult};
use samplecf_compression::Uncompressed;
use samplecf_storage::{encode_cell, DataType, Value};

impl Codec for Uncompressed {
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk> {
        let n = chunk.len();
        let mut out = Vec::with_capacity(4 + n.div_ceil(8) + chunk.uncompressed_bytes());
        out.extend_from_slice(&(n as u16).to_be_bytes());
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (i, v) in chunk.values().iter().enumerate() {
            if v.is_null() {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bitmap);
        for v in chunk.values() {
            encode_cell(v, &chunk.datatype(), &mut out)
                .map_err(|e| CodecError::Corrupt(e.to_string()))?;
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
        let bitmap_len = n.div_ceil(8);
        let width = datatype.uncompressed_width();
        let expected = 2 + bitmap_len + n * width;
        if bytes.len() != expected {
            return Err(CodecError::Corrupt(format!(
                "uncompressed chunk length {} does not match expected {expected}",
                bytes.len()
            )));
        }
        let bitmap = &bytes[2..2 + bitmap_len];
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                values.push(Value::Null);
            } else {
                let start = 2 + bitmap_len + i * width;
                let v = samplecf_storage::decode_cell(&bytes[start..start + width], &datatype)
                    .map_err(|e| CodecError::Corrupt(e.to_string()))?;
                values.push(v);
            }
        }
        ColumnChunk::new(datatype, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_size() {
        let chunk = ColumnChunk::new(
            DataType::Char(10),
            vec![Value::str("abc"), Value::Null, Value::str("0123456789")],
        )
        .unwrap();
        let c = Uncompressed.compress_chunk(&chunk).unwrap();
        // count (2) + bitmap (1) + 3 cells of 10 bytes.
        assert_eq!(c.compressed_bytes(), 2 + 1 + 30);
        let back = Uncompressed
            .decompress_chunk(&c, DataType::Char(10))
            .unwrap();
        assert_eq!(back, chunk);
    }

    #[test]
    fn cf_is_close_to_one() {
        let values: Vec<Value> = (0..500).map(|i| Value::str(format!("v{i:04}"))).collect();
        let chunk = ColumnChunk::new(DataType::Char(20), values).unwrap();
        let c = Uncompressed.compress_chunk(&chunk).unwrap();
        let cf = c.compressed_bytes() as f64 / chunk.uncompressed_bytes() as f64;
        assert!(cf > 0.99 && cf < 1.02, "cf = {cf}");
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(Uncompressed
            .decompress_chunk(&CompressedChunk::new(vec![]), DataType::Char(4))
            .is_err());
        assert!(Uncompressed
            .decompress_chunk(&CompressedChunk::new(vec![0, 5, 0]), DataType::Char(4))
            .is_err());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let chunk = ColumnChunk::new(DataType::Int64, vec![]).unwrap();
        let c = Uncompressed.compress_chunk(&chunk).unwrap();
        let back = Uncompressed.decompress_chunk(&c, DataType::Int64).unwrap();
        assert!(back.is_empty());
    }
}
