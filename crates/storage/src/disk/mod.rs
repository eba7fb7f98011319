//! Persistent on-disk storage: table files with checksummed pages.
//!
//! The paper's case for block sampling (Section II-C) is an *I/O* argument —
//! reading `f·N` physical pages is cheaper than reading the scattered pages
//! that `f·n` uniformly sampled rows live on.  The in-memory
//! [`Table`](crate::table::Table) can only simulate that; this module makes
//! it real:
//!
//! * [`format`](mod@format) — the binary file layout: CRC-32-protected file header and
//!   table metadata, and per-page blocks whose checksums catch any
//!   single-byte corruption (specified in `docs/FORMAT.md`),
//! * [`crc32`] — that checksum: one value from two kernels, slice-by-8
//!   tables everywhere and carry-less-multiply folding on x86-64 CPUs that
//!   have `pclmulqdq`, picked per call ([`crc32_kernel`] names the one this
//!   host runs); every line of it lives in the private `crc` module,
//! * [`DiskHeapFile`] — create/open/append/read-page over one file, with an
//!   in-memory tail page for appends and *no* buffer pool for reads,
//! * [`DiskTable`] — a named, schema-carrying table over a `DiskHeapFile`
//!   that implements [`TableSource`](crate::source::TableSource), so every
//!   sampler and the whole estimator pipeline run over it unchanged.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_storage::disk::DiskTable;
//! use samplecf_storage::{Column, DataType, Row, Schema, TableSource, Value};
//!
//! let path = std::env::temp_dir().join(format!("doc_disk_{}.scf", std::process::id()));
//! let schema = Schema::new(vec![Column::new("a", DataType::Char(8))])?;
//! let mut table = DiskTable::create(&path, "demo", schema, 4096)?;
//! for i in 0..100 {
//!     table.insert(&Row::new(vec![Value::str(format!("v{i}"))]))?;
//! }
//! table.sync()?;
//!
//! let reopened = DiskTable::open(&path)?;
//! assert_eq!(reopened.num_rows(), 100);
//! assert_eq!(reopened.scan_rows()?.len(), 100);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), samplecf_storage::StorageError>(())
//! ```

mod crc;
pub mod file;
pub mod format;
pub mod table;

pub use crc::{crc32, crc32_kernel};
pub use file::DiskHeapFile;
pub use format::{FileHeader, DISK_PAGE_HEADER_SIZE, FILE_HEADER_SIZE, FORMAT_VERSION};
pub use table::DiskTable;
