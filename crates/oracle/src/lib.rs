//! # samplecf-oracle
//!
//! The references the SampleCF size kernels are tested against.  Nothing
//! ships with this crate: it is a dev-dependency of the suites that compare
//! a shipped size with the bytes a real codec writes, and no workspace
//! package depends on it through a normal edge.
//!
//! * [`Codec`] — the byte-producing half of every built-in
//!   [`CompressionScheme`](samplecf_compression::CompressionScheme):
//!   `compress_*` writes the bytes whose length the scheme's
//!   `measure_chunk` / `measure_chunks` kernels count, and `decompress_*`
//!   reads them back to the original values.  [`codec_by_name`] resolves
//!   the names [`scheme_by_name`](samplecf_compression::scheme_by_name) does.
//! * [`ColumnChunk`] / [`CompressedChunk`] / [`CompressedColumn`] — the
//!   owned values a codec reads and the bytes it writes.
//! * [`measure_column`] — a column's sizes by its codec, the reference for
//!   [`measure_cells`](samplecf_compression::measure_cells).
//! * [`compress_index`] — a packed tree's leaf level through the codec, the
//!   reference for [`measure_index`](samplecf_index::measure_index).
//! * [`IndexSizeReport`] — where a built tree's uncompressed bytes go, the
//!   reference for the analytic
//!   [`IndexSizeModel`](samplecf_index::IndexSizeModel).
//! * [`pack_separators`] / [`separator_levels`] — the separator pages a
//!   B+-tree keeps above its leaves, packed for real: the reference for
//!   [`IndexSizeEstimate::internal_pages`](samplecf_index::IndexSizeEstimate::internal_pages),
//!   which is all a shipped tree keeps of them.
//! * [`leaf_entries`] / [`LeafEntry`] — a leaf page decoded back into
//!   stored values and RIDs, for tests that read a tree's entries.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_compression::CompressionScheme;
//! use samplecf_oracle::{codec_by_name, ColumnChunk};
//! use samplecf_storage::{DataType, Value};
//!
//! let values: Vec<Value> = (0..200).map(|i| Value::str(format!("v{}", i % 20))).collect();
//! let chunk = ColumnChunk::new(DataType::Char(12), values)?;
//!
//! let codec = codec_by_name("null-suppression")?;
//! let compressed = codec.compress_chunk(&chunk)?;
//! assert!(compressed.compressed_bytes() < chunk.uncompressed_bytes());
//! assert_eq!(codec.name(), "null-suppression");
//!
//! // The bytes decompress back to the same chunk.
//! let back = codec.decompress_chunk(&compressed, DataType::Char(12))?;
//! assert_eq!(back, chunk);
//! # Ok::<(), samplecf_oracle::CodecError>(())
//! ```

pub mod btree;
pub mod chunk;
pub mod codec;
pub mod compress;
pub mod dictionary;
pub mod encoding;
pub mod error;
pub mod measure;
pub mod none;
pub mod null_suppression;
pub mod prefix;
pub mod rle;
pub mod size;

pub use btree::{leaf_entries, pack_separators, separator_levels, LeafEntry};
pub use chunk::{ColumnChunk, CompressedChunk, CompressedColumn};
pub use codec::{codec_by_name, Codec};
pub use compress::compress_index;
pub use error::{CodecError, CodecResult};
pub use measure::measure_column;
pub use size::IndexSizeReport;
