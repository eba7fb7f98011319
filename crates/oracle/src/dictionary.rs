//! The dictionary codecs (the paper's Figure 1.b): the paged variant writes
//! an inline dictionary on every page, the global variant one dictionary for
//! the whole column.

use crate::chunk::{ColumnChunk, CompressedChunk, CompressedColumn};
use crate::codec::Codec;
use crate::encoding::{read_ns_cell, read_uint, write_ns_cell, write_uint};
use crate::error::{CodecError, CodecResult};
use samplecf_compression::{CompressionError, DictionaryCompression, GlobalDictionaryCompression};
use samplecf_storage::{DataType, Value};
use std::collections::HashMap;

fn build_dictionary<'a, I>(values: I) -> (Vec<&'a Value>, HashMap<&'a Value, usize>)
where
    I: IntoIterator<Item = &'a Value>,
{
    let mut entries = Vec::new();
    let mut index: HashMap<&Value, usize> = HashMap::new();
    for v in values {
        if !index.contains_key(v) {
            index.insert(v, entries.len());
            entries.push(v);
        }
    }
    (entries, index)
}

fn encode_dictionary(
    entries: &[&Value],
    datatype: &DataType,
    out: &mut Vec<u8>,
) -> CodecResult<()> {
    for v in entries {
        write_ns_cell(out, v, datatype)?;
    }
    Ok(())
}

fn decode_dictionary(
    bytes: &[u8],
    offset: &mut usize,
    dict_len: usize,
    datatype: &DataType,
) -> CodecResult<Vec<Value>> {
    let mut entries = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        entries.push(read_ns_cell(bytes, offset, datatype)?);
    }
    Ok(entries)
}

impl Codec for DictionaryCompression {
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk> {
        let dt = chunk.datatype();
        let (entries, index) = build_dictionary(chunk.values());
        let ptr_width = self.config().pointer_width.resolve(entries.len().max(1))?;

        let mut out = Vec::new();
        out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        out.extend_from_slice(&(entries.len() as u16).to_be_bytes());
        out.push(ptr_width as u8);
        encode_dictionary(&entries, &dt, &mut out)?;
        for v in chunk.values() {
            write_uint(&mut out, index[v] as u64, ptr_width);
        }
        Ok(CompressedChunk::new(out))
    }

    fn decompress_chunk(
        &self,
        chunk: &CompressedChunk,
        datatype: DataType,
    ) -> CodecResult<ColumnChunk> {
        let bytes = chunk.bytes();
        if bytes.len() < 5 {
            return Err(CodecError::Corrupt(
                "dictionary chunk header truncated".into(),
            ));
        }
        let n = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
        let dict_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        let ptr_width = bytes[4] as usize;
        if ptr_width == 0 || ptr_width > 8 {
            return Err(CodecError::Corrupt(format!(
                "invalid pointer width {ptr_width}"
            )));
        }
        let mut offset = 5;
        let entries = decode_dictionary(bytes, &mut offset, dict_len, &datatype)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = read_uint(bytes, &mut offset, ptr_width)? as usize;
            let v = entries.get(idx).ok_or_else(|| {
                CodecError::Corrupt(format!("pointer {idx} outside dictionary of {dict_len}"))
            })?;
            values.push(v.clone());
        }
        if offset != bytes.len() {
            return Err(CodecError::Corrupt(
                "trailing bytes in dictionary chunk".into(),
            ));
        }
        ColumnChunk::new(datatype, values)
    }
}

impl Codec for GlobalDictionaryCompression {
    /// Per-chunk compression degenerates to the paged variant: a global
    /// dictionary over a single page *is* a page-local dictionary.
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk> {
        DictionaryCompression::new(self.config()).compress_chunk(chunk)
    }

    fn decompress_chunk(
        &self,
        chunk: &CompressedChunk,
        datatype: DataType,
    ) -> CodecResult<ColumnChunk> {
        DictionaryCompression::new(self.config()).decompress_chunk(chunk, datatype)
    }

    fn compress_column(&self, chunks: &[ColumnChunk]) -> CodecResult<CompressedColumn> {
        if chunks.is_empty() {
            return Ok(CompressedColumn::from_chunks(Vec::new()));
        }
        let dt = chunks[0].datatype();
        for c in chunks {
            if c.datatype() != dt {
                return Err(CodecError::Scheme(CompressionError::InvalidConfig(
                    "all chunks of a column must share a data type".to_string(),
                )));
            }
        }
        let (entries, index) = build_dictionary(chunks.iter().flat_map(ColumnChunk::values));
        let ptr_width = self.config().pointer_width.resolve(entries.len().max(1))?;

        let mut shared = Vec::new();
        shared.extend_from_slice(&(entries.len() as u32).to_be_bytes());
        shared.push(ptr_width as u8);
        encode_dictionary(&entries, &dt, &mut shared)?;

        let mut compressed_chunks = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let mut out = Vec::with_capacity(2 + chunk.len() * ptr_width);
            out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
            for v in chunk.values() {
                write_uint(&mut out, index[v] as u64, ptr_width);
            }
            compressed_chunks.push(CompressedChunk::new(out));
        }
        Ok(CompressedColumn {
            shared,
            chunks: compressed_chunks,
        })
    }

    fn decompress_column(
        &self,
        column: &CompressedColumn,
        datatype: DataType,
    ) -> CodecResult<Vec<ColumnChunk>> {
        if column.chunks.is_empty() {
            return Ok(Vec::new());
        }
        if column.shared.is_empty() {
            return Err(CodecError::MissingSharedState("global dictionary"));
        }
        let shared = &column.shared;
        if shared.len() < 5 {
            return Err(CodecError::Corrupt(
                "global dictionary header truncated".into(),
            ));
        }
        let dict_len = u32::from_be_bytes([shared[0], shared[1], shared[2], shared[3]]) as usize;
        let ptr_width = shared[4] as usize;
        if ptr_width == 0 || ptr_width > 8 {
            return Err(CodecError::Corrupt(format!(
                "invalid pointer width {ptr_width}"
            )));
        }
        let mut offset = 5;
        let entries = decode_dictionary(shared, &mut offset, dict_len, &datatype)?;

        let mut result = Vec::with_capacity(column.chunks.len());
        for chunk in &column.chunks {
            let bytes = chunk.bytes();
            if bytes.len() < 2 {
                return Err(CodecError::Corrupt("chunk header truncated".into()));
            }
            let n = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
            let mut off = 2;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = read_uint(bytes, &mut off, ptr_width)? as usize;
                let v = entries.get(idx).ok_or_else(|| {
                    CodecError::Corrupt(format!(
                        "pointer {idx} outside global dictionary of {dict_len}"
                    ))
                })?;
                values.push(v.clone());
            }
            result.push(ColumnChunk::new(datatype, values)?);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_column;
    use crate::CompressedColumn;
    use samplecf_storage::Value;

    fn chunk(k: u16, strings: &[&str]) -> ColumnChunk {
        ColumnChunk::new(
            DataType::Char(k),
            strings.iter().map(|s| Value::str(*s)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn paged_roundtrip() {
        let c = chunk(12, &["aa", "bb", "aa", "cc", "aa", "bb"]);
        let dict = DictionaryCompression::default();
        let compressed = dict.compress_chunk(&c).unwrap();
        assert_eq!(
            dict.decompress_chunk(&compressed, DataType::Char(12))
                .unwrap(),
            c
        );
    }

    #[test]
    fn paged_roundtrip_with_nulls() {
        let c = ColumnChunk::new(
            DataType::Char(6),
            vec![Value::Null, Value::str("x"), Value::Null, Value::str("x")],
        )
        .unwrap();
        let dict = DictionaryCompression::default();
        let compressed = dict.compress_chunk(&c).unwrap();
        assert_eq!(
            dict.decompress_chunk(&compressed, DataType::Char(6))
                .unwrap(),
            c
        );
    }

    #[test]
    fn repeated_values_compress_well() {
        let c = chunk(20, &["abcdefghij"; 500]);
        let dict = DictionaryCompression::default();
        let compressed = dict.compress_chunk(&c).unwrap();
        let cf = compressed.compressed_bytes() as f64 / c.uncompressed_bytes() as f64;
        assert!(
            cf < 0.1,
            "one distinct value over 500 rows should compress hard, cf = {cf}"
        );
    }

    #[test]
    fn all_distinct_values_do_not_compress() {
        let strings: Vec<String> = (0..300).map(|i| format!("value-{i:06}")).collect();
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let c = chunk(12, &refs);
        let dict = DictionaryCompression::default();
        let compressed = dict.compress_chunk(&c).unwrap();
        let cf = compressed.compressed_bytes() as f64 / c.uncompressed_bytes() as f64;
        assert!(
            cf > 0.9,
            "all-distinct data should not shrink much, cf = {cf}"
        );
    }

    #[test]
    fn global_roundtrip_across_chunks() {
        let chunks = vec![
            chunk(10, &["a", "b", "c", "a"]),
            chunk(10, &["b", "b", "d"]),
            chunk(10, &["a"]),
        ];
        let global = GlobalDictionaryCompression::default();
        let col = global.compress_column(&chunks).unwrap();
        assert!(!col.shared.is_empty());
        let back = global.decompress_column(&col, DataType::Char(10)).unwrap();
        assert_eq!(back, chunks);
    }

    #[test]
    fn global_stores_each_distinct_value_once() {
        // 4 pages all containing the same single value: the global variant
        // should be smaller than the paged variant, which repeats the value
        // in every page's dictionary.
        let chunks: Vec<ColumnChunk> = (0..4).map(|_| chunk(30, &["shared-value"; 100])).collect();
        let paged = measure_column(&DictionaryCompression::default(), &chunks).unwrap();
        let global = measure_column(&GlobalDictionaryCompression::default(), &chunks).unwrap();
        assert!(global.compressed_bytes < paged.compressed_bytes);
    }

    #[test]
    fn global_per_chunk_api_degenerates_to_paged() {
        let c = chunk(8, &["x", "y", "x"]);
        let g = GlobalDictionaryCompression::default();
        let p = DictionaryCompression::default();
        assert_eq!(
            g.compress_chunk(&c).unwrap().bytes(),
            p.compress_chunk(&c).unwrap().bytes()
        );
    }

    #[test]
    fn mismatched_chunk_types_rejected() {
        let chunks = vec![
            chunk(8, &["a"]),
            ColumnChunk::new(DataType::Int64, vec![Value::int(1)]).unwrap(),
        ];
        assert!(GlobalDictionaryCompression::default()
            .compress_column(&chunks)
            .is_err());
    }

    #[test]
    fn corrupt_streams_rejected() {
        let dict = DictionaryCompression::default();
        assert!(dict
            .decompress_chunk(&CompressedChunk::new(vec![0, 1]), DataType::Char(4))
            .is_err());
        // Pointer outside dictionary.
        let c = chunk(4, &["a", "b"]);
        let mut bytes = dict.compress_chunk(&c).unwrap().bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] = 250;
        assert!(dict
            .decompress_chunk(&CompressedChunk::new(bytes), DataType::Char(4))
            .is_err());
        // Global decompress without shared state.
        let col = CompressedColumn::from_chunks(vec![CompressedChunk::new(vec![0, 0])]);
        assert!(GlobalDictionaryCompression::default()
            .decompress_column(&col, DataType::Char(4))
            .is_err());
    }

    #[test]
    fn empty_column_roundtrips() {
        let global = GlobalDictionaryCompression::default();
        let col = global.compress_column(&[]).unwrap();
        assert_eq!(col.compressed_bytes(), 0);
        assert!(global
            .decompress_column(&col, DataType::Char(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fixed_pointer_width_is_respected() {
        let c = chunk(10, &["a", "b", "c"]);
        let auto = DictionaryCompression::default().compress_chunk(&c).unwrap();
        let wide = DictionaryCompression::with_pointer_bytes(4)
            .compress_chunk(&c)
            .unwrap();
        assert_eq!(wide.compressed_bytes() - auto.compressed_bytes(), 3 * 3);
    }
}
