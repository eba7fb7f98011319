//! The [`Codec`] trait: a scheme that writes and reads its bytes.
//!
//! The per-chunk methods operate on a single page's worth of values; the
//! column-level methods compress a whole column segment (one chunk per page)
//! and exist so that schemes with cross-page shared state — the paper's
//! simplified *global* dictionary model — can be expressed.  The default
//! column-level implementations simply map the per-chunk methods, which is
//! the behaviour of real page-local compression.

use crate::chunk::{ColumnChunk, CompressedChunk, CompressedColumn};
use crate::error::{CodecError, CodecResult};
use samplecf_compression::{
    scheme_by_name, CompressionScheme, DictionaryCompression, GlobalDictionaryCompression,
    NullSuppression, PrefixCompression, RunLengthEncoding, Uncompressed,
};
use samplecf_storage::DataType;

/// A compression scheme's real codec.
///
/// Implementations must be deterministic: compressing the same chunk twice
/// yields byte-identical output, and its length is what the scheme's
/// [`measure_chunk`](CompressionScheme::measure_chunk) counts.
pub trait Codec: CompressionScheme {
    /// Compress a single chunk (one column within one page).
    fn compress_chunk(&self, chunk: &ColumnChunk) -> CodecResult<CompressedChunk>;

    /// Decompress a chunk produced by [`compress_chunk`](Self::compress_chunk).
    fn decompress_chunk(
        &self,
        chunk: &CompressedChunk,
        datatype: DataType,
    ) -> CodecResult<ColumnChunk>;

    /// Compress a whole column segment (one chunk per page).
    ///
    /// The default compresses each chunk independently, which models
    /// page-local compression.  Schemes with shared state (a global
    /// dictionary) override this.
    fn compress_column(&self, chunks: &[ColumnChunk]) -> CodecResult<CompressedColumn> {
        let compressed = chunks
            .iter()
            .map(|c| self.compress_chunk(c))
            .collect::<CodecResult<Vec<_>>>()?;
        Ok(CompressedColumn::from_chunks(compressed))
    }

    /// Decompress a column segment produced by
    /// [`compress_column`](Self::compress_column).
    fn decompress_column(
        &self,
        column: &CompressedColumn,
        datatype: DataType,
    ) -> CodecResult<Vec<ColumnChunk>> {
        if !column.shared.is_empty() {
            return Err(CodecError::Corrupt(format!(
                "scheme `{}` does not produce shared column state",
                self.name()
            )));
        }
        column
            .chunks
            .iter()
            .map(|c| self.decompress_chunk(c, datatype))
            .collect()
    }
}

/// The codec of the scheme [`scheme_by_name`] resolves `name` to (aliases
/// included), in its default configuration.
pub fn codec_by_name(name: &str) -> CodecResult<Box<dyn Codec>> {
    Ok(match scheme_by_name(name)?.name() {
        "none" => Box::new(Uncompressed),
        "null-suppression" => Box::new(NullSuppression),
        "dictionary-paged" => Box::new(DictionaryCompression::default()),
        "dictionary-global" => Box::new(GlobalDictionaryCompression::default()),
        "rle" => Box::new(RunLengthEncoding),
        "prefix" => Box::new(PrefixCompression),
        other => unreachable!("scheme `{other}` is registered without a codec"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_compression::scheme_names;

    #[test]
    fn every_registered_scheme_has_a_codec_of_its_name() {
        for name in scheme_names() {
            assert_eq!(codec_by_name(name).unwrap().name(), name);
        }
        assert_eq!(codec_by_name("dc").unwrap().name(), "dictionary-paged");
        assert!(codec_by_name("zstd").is_err_and(|e| e.to_string().contains("zstd")));
    }
}
