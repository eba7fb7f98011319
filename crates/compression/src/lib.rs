//! # samplecf-compression
//!
//! Database compression schemes used by the SampleCF reproduction.
//!
//! The paper analyses two techniques that commercial engines ship:
//!
//! * **Null Suppression** ([`NullSuppression`]) — store the actual length of
//!   each fixed-width value instead of its padded width,
//! * **Dictionary Compression** — replace repeated values with small pointers
//!   into a dictionary, either per page ([`DictionaryCompression`], the
//!   realistic variant with an inline dictionary on every page) or globally
//!   ([`GlobalDictionaryCompression`], the paper's simplified analytical
//!   model).
//!
//! Two additional schemes, [`RunLengthEncoding`] and [`PrefixCompression`],
//! are included for ablation benchmarks: SampleCF is agnostic to the
//! algorithm, so the benchmark suite also measures how it behaves on schemes
//! whose effectiveness depends on value ordering or shared structure.
//!
//! All schemes implement [`CompressionScheme`] and are *real* codecs — they
//! produce byte streams that decompress back to the original values — so the
//! sizes the estimator sees are the sizes an engine would actually write.
//! The closed-form CF model of Section III lives with the theorems that
//! reason about it, in `samplecf_core::theory`.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_compression::{ColumnChunk, CompressionScheme, NullSuppression};
//! use samplecf_storage::{DataType, Value};
//!
//! // A chunk of char(12) values that are shorter than their padded width.
//! let values: Vec<Value> = (0..200).map(|i| Value::str(format!("v{}", i % 20))).collect();
//! let chunk = ColumnChunk::new(DataType::Char(12), values)?;
//!
//! let compressed = NullSuppression.compress_chunk(&chunk)?;
//! assert!(compressed.compressed_bytes() < chunk.uncompressed_bytes());
//!
//! // Schemes are real codecs: the bytes decompress back to the same chunk.
//! let back = NullSuppression.decompress_chunk(&compressed, DataType::Char(12))?;
//! assert_eq!(back, chunk);
//! # Ok::<(), samplecf_compression::CompressionError>(())
//! ```

pub mod chunk;
pub mod dictionary;
pub mod encoding;
pub mod error;
pub mod measure;
pub mod none;
pub mod null_suppression;
pub mod prefix;
pub mod registry;
pub mod rle;
pub mod scheme;
pub mod scratch;

pub use chunk::{ColumnChunk, CompressedChunk, CompressedColumn};
pub use dictionary::{
    DictionaryCompression, DictionaryConfig, GlobalDictionaryCompression, PointerWidth,
};
pub use error::{CompressionError, CompressionResult};
pub use measure::{measure_cells, ns_cell_size_raw, CellChunk, CellCosts};
pub use none::Uncompressed;
pub use null_suppression::NullSuppression;
pub use prefix::PrefixCompression;
pub use registry::{scheme_by_name, scheme_names};
pub use rle::RunLengthEncoding;
pub use scheme::{measure_column, CompressionOutcome, CompressionScheme};
pub use scratch::{with_distinct_scratch, DistinctScratch};
