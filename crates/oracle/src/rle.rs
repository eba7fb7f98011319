//! The run-length codec: a count, then every run of equal adjacent values
//! as a 2-byte length and one null-suppressed cell.

use crate::chunk::{ColumnChunk, CompressedChunk};
use crate::codec::Codec;
use crate::encoding::{read_ns_cell, read_uint, write_ns_cell, write_uint};
use crate::error::{CodecError, CodecResult};
use samplecf_compression::RunLengthEncoding;
use samplecf_storage::DataType;

impl Codec for RunLengthEncoding {
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk> {
        let dt = chunk.datatype();
        let mut out = Vec::new();
        out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        let mut values = chunk.values().iter();
        if let Some(first) = values.next() {
            let mut current = first;
            let mut run_len: u64 = 1;
            for v in values {
                if v == current {
                    run_len += 1;
                } else {
                    write_uint(&mut out, run_len, 2);
                    write_ns_cell(&mut out, current, &dt)?;
                    current = v;
                    run_len = 1;
                }
            }
            write_uint(&mut out, run_len, 2);
            write_ns_cell(&mut out, current, &dt)?;
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
        while values.len() < n {
            let run_len = read_uint(bytes, &mut offset, 2)? as usize;
            if run_len == 0 {
                return Err(CodecError::Corrupt("zero-length run".into()));
            }
            let v = read_ns_cell(bytes, &mut offset, &datatype)?;
            if values.len() + run_len > n {
                return Err(CodecError::Corrupt(
                    "runs exceed declared cell count".into(),
                ));
            }
            values.extend(std::iter::repeat_n(v, run_len));
        }
        if offset != bytes.len() {
            return Err(CodecError::Corrupt("trailing bytes in RLE chunk".into()));
        }
        ColumnChunk::new(datatype, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::Value;

    fn chunk(strings: &[&str]) -> ColumnChunk {
        ColumnChunk::new(
            DataType::Char(16),
            strings.iter().map(|s| Value::str(*s)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let c = chunk(&["a", "a", "a", "b", "c", "c", "a"]);
        let rle = RunLengthEncoding;
        let compressed = rle.compress_chunk(&c).unwrap();
        assert_eq!(
            rle.decompress_chunk(&compressed, DataType::Char(16))
                .unwrap(),
            c
        );
    }

    #[test]
    fn roundtrip_with_nulls() {
        let c = ColumnChunk::new(
            DataType::Char(8),
            vec![Value::Null, Value::Null, Value::str("x")],
        )
        .unwrap();
        let rle = RunLengthEncoding;
        let compressed = rle.compress_chunk(&c).unwrap();
        assert_eq!(
            rle.decompress_chunk(&compressed, DataType::Char(8))
                .unwrap(),
            c
        );
    }

    #[test]
    fn sorted_data_compresses_much_better_than_shuffled() {
        let sorted: Vec<&str> = ["aaa"; 200]
            .iter()
            .chain(["bbb"; 200].iter())
            .copied()
            .collect();
        let mut interleaved = Vec::new();
        for _ in 0..200 {
            interleaved.push("aaa");
            interleaved.push("bbb");
        }
        let rle = RunLengthEncoding;
        let c_sorted = rle.compress_chunk(&chunk(&sorted)).unwrap();
        let c_inter = rle.compress_chunk(&chunk(&interleaved)).unwrap();
        assert!(c_sorted.compressed_bytes() * 10 < c_inter.compressed_bytes());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = ColumnChunk::new(DataType::Char(4), vec![]).unwrap();
        let rle = RunLengthEncoding;
        let compressed = rle.compress_chunk(&c).unwrap();
        assert_eq!(compressed.compressed_bytes(), 2);
        assert!(rle
            .decompress_chunk(&compressed, DataType::Char(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corrupt_data_rejected() {
        let rle = RunLengthEncoding;
        assert!(rle
            .decompress_chunk(&CompressedChunk::new(vec![]), DataType::Char(4))
            .is_err());
        // Declared 3 cells but a run of 5.
        let mut bytes = vec![0u8, 3];
        write_uint(&mut bytes, 5, 2);
        write_ns_cell(&mut bytes, &Value::str("a"), &DataType::Char(4)).unwrap();
        assert!(rle
            .decompress_chunk(&CompressedChunk::new(bytes), DataType::Char(4))
            .is_err());
    }
}
