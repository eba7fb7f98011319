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
//! All schemes implement [`CompressionScheme`], which is a scheme's *size*:
//! [`measure_cells`] prices a column of cells borrowed straight out of page
//! records at the byte count the scheme's codec would write, without writing
//! it.  The codecs themselves — byte streams that decompress back to the
//! original values — are the reference those sizes are tested against and
//! live in the dev-only `samplecf-oracle` crate.  The closed-form CF model of
//! Section III lives with the theorems that reason about it, in
//! `samplecf_core::theory`.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_compression::{measure_cells, CellChunk, NullSuppression};
//! use samplecf_storage::{encode_cell, CellRef, DataType, Value};
//!
//! // A page of char(12) cells, each stored space-padded to its full width.
//! let dt = DataType::Char(12);
//! let stored: Vec<Vec<u8>> = (0..200)
//!     .map(|i| {
//!         let mut raw = Vec::new();
//!         encode_cell(&Value::str(format!("v{}", i % 20)), &dt, &mut raw).unwrap();
//!         raw
//!     })
//!     .collect();
//! let cells = stored.iter().map(|raw| CellRef::new(false, raw)).collect();
//! let page = CellChunk::new(dt, cells)?;
//!
//! // Null suppression writes a 2-byte count, then a 1-byte length marker and
//! // the unpadded payload of every cell: "v0".."v9" are 2 bytes, the rest 3.
//! let outcome = measure_cells(&NullSuppression, &[page])?;
//! assert_eq!(outcome.uncompressed_bytes, 200 * 12);
//! assert_eq!(outcome.compressed_bytes, 2 + 100 * (1 + 2) + 100 * (1 + 3));
//! assert!(outcome.compression_fraction() < 0.3);
//! # Ok::<(), samplecf_compression::CompressionError>(())
//! ```

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
pub use scheme::{CompressionOutcome, CompressionScheme};
pub use scratch::{with_distinct_scratch, DistinctScratch};
