//! The prefix codec: a count, the longest common prefix of the chunk's
//! null-suppressed payloads once, then every cell's suffix behind a length
//! marker.

use crate::chunk::{ColumnChunk, CompressedChunk};
use crate::codec::Codec;
use crate::encoding::{ns_payload, null_marker, read_uint, value_from_ns_payload, write_uint};
use crate::error::{CodecError, CodecResult};
use samplecf_compression::encoding::marker_width;
use samplecf_compression::PrefixCompression;
use samplecf_storage::DataType;

fn common_prefix_len(payloads: &[Option<Vec<u8>>]) -> usize {
    let mut iter = payloads.iter().flatten();
    let Some(first) = iter.next() else {
        return 0;
    };
    let mut prefix = first.len();
    for p in iter {
        let mut l = 0;
        while l < prefix && l < p.len() && p[l] == first[l] {
            l += 1;
        }
        prefix = l;
        if prefix == 0 {
            break;
        }
    }
    prefix
}

impl Codec for PrefixCompression {
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk> {
        let dt = chunk.datatype();
        let width = marker_width(&dt);
        let null = null_marker(width);

        let payloads: Vec<Option<Vec<u8>>> = chunk
            .values()
            .iter()
            .map(|v| {
                if v.is_null() {
                    Ok(None)
                } else {
                    ns_payload(v, &dt).map(Some)
                }
            })
            .collect::<CodecResult<_>>()?;
        let prefix_len = common_prefix_len(&payloads);
        let prefix: &[u8] = payloads
            .iter()
            .flatten()
            .next()
            .map_or(&[], |p| &p[..prefix_len]);

        let mut out = Vec::new();
        out.extend_from_slice(&(chunk.len() as u16).to_be_bytes());
        write_uint(&mut out, prefix_len as u64, width);
        out.extend_from_slice(prefix);
        for p in &payloads {
            match p {
                None => write_uint(&mut out, null, width),
                Some(p) => {
                    let suffix = &p[prefix_len..];
                    write_uint(&mut out, suffix.len() as u64, width);
                    out.extend_from_slice(suffix);
                }
            }
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
        let width = marker_width(&datatype);
        let null = null_marker(width);
        let mut offset = 2;
        let prefix_len = read_uint(bytes, &mut offset, width)? as usize;
        if offset + prefix_len > bytes.len() {
            return Err(CodecError::Corrupt("prefix extends past chunk end".into()));
        }
        let prefix = bytes[offset..offset + prefix_len].to_vec();
        offset += prefix_len;

        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let marker = read_uint(bytes, &mut offset, width)?;
            if marker == null {
                values.push(samplecf_storage::Value::Null);
                continue;
            }
            let suffix_len = marker as usize;
            if offset + suffix_len > bytes.len() {
                return Err(CodecError::Corrupt("suffix extends past chunk end".into()));
            }
            let mut payload = prefix.clone();
            payload.extend_from_slice(&bytes[offset..offset + suffix_len]);
            offset += suffix_len;
            values.push(value_from_ns_payload(&payload, &datatype)?);
        }
        if offset != bytes.len() {
            return Err(CodecError::Corrupt("trailing bytes in prefix chunk".into()));
        }
        ColumnChunk::new(datatype, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::Value;

    fn chunk(k: u16, strings: &[&str]) -> ColumnChunk {
        ColumnChunk::new(
            DataType::Char(k),
            strings.iter().map(|s| Value::str(*s)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let c = chunk(32, &["prefix-alpha", "prefix-beta", "prefix-gamma", "pre"]);
        let p = PrefixCompression;
        let compressed = p.compress_chunk(&c).unwrap();
        assert_eq!(
            p.decompress_chunk(&compressed, DataType::Char(32)).unwrap(),
            c
        );
    }

    #[test]
    fn roundtrip_with_nulls_and_empty() {
        let c = ColumnChunk::new(
            DataType::Char(10),
            vec![Value::Null, Value::str(""), Value::str("abc")],
        )
        .unwrap();
        let p = PrefixCompression;
        let compressed = p.compress_chunk(&c).unwrap();
        assert_eq!(
            p.decompress_chunk(&compressed, DataType::Char(10)).unwrap(),
            c
        );
    }

    #[test]
    fn shared_prefix_data_compresses_better_than_disjoint() {
        let shared: Vec<String> = (0..200).map(|i| format!("customer-code-{i:03}")).collect();
        let disjoint: Vec<String> = (0..200).map(|i| format!("{i:03}-customer-code")).collect();
        let shared_refs: Vec<&str> = shared.iter().map(String::as_str).collect();
        let disjoint_refs: Vec<&str> = disjoint.iter().map(String::as_str).collect();
        let p = PrefixCompression;
        let a = p.compress_chunk(&chunk(24, &shared_refs)).unwrap();
        let b = p.compress_chunk(&chunk(24, &disjoint_refs)).unwrap();
        assert!(a.compressed_bytes() < b.compressed_bytes());
    }

    #[test]
    fn integers_roundtrip() {
        let c = ColumnChunk::new(
            DataType::Int64,
            vec![Value::int(1000), Value::int(1001), Value::int(-5)],
        )
        .unwrap();
        let p = PrefixCompression;
        let compressed = p.compress_chunk(&c).unwrap();
        assert_eq!(p.decompress_chunk(&compressed, DataType::Int64).unwrap(), c);
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = ColumnChunk::new(DataType::Char(4), vec![]).unwrap();
        let p = PrefixCompression;
        let compressed = p.compress_chunk(&c).unwrap();
        assert!(p
            .decompress_chunk(&compressed, DataType::Char(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corrupt_data_rejected() {
        let p = PrefixCompression;
        assert!(p
            .decompress_chunk(&CompressedChunk::new(vec![]), DataType::Char(4))
            .is_err());
        assert!(p
            .decompress_chunk(&CompressedChunk::new(vec![0, 1, 9]), DataType::Char(4))
            .is_err());
    }
}
