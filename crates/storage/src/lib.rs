//! # samplecf-storage
//!
//! Page-based storage substrate for the SampleCF reproduction.
//!
//! The paper ("Estimating the Compression Fraction of an Index using
//! Sampling", ICDE 2010) analyses an estimator that runs inside a database
//! engine: it samples rows from a table, builds an index on the sample,
//! compresses that index with the engine's actual compression code, and
//! returns the observed compression fraction.  This crate provides the engine
//! substrate those steps rely on:
//!
//! * [`DataType`] / [`Value`] / [`Schema`] / [`Row`] — column types, cell
//!   values and the fixed-width uncompressed row representation whose size the
//!   compression fraction's denominator counts,
//! * [`Page`] — slotted pages with explicit header and slot-directory
//!   overheads, and [`PageView`], a page's read half lent from wherever its
//!   bytes lie,
//! * [`HeapFile`] / [`Table`] — base tables that samplers draw rows and
//!   blocks from: one heap of slotted pages whose constructor picks its
//!   store, in memory or in a table file, where block sampling's "read
//!   only the selected pages" is physically true,
//! * [`TableSource`] — the read abstraction samplers and the estimator run
//!   over, implemented by [`Table`], with the [`Frame`] row samplers draw
//!   positions of computed from its metadata — and [`SharedSource`], its
//!   reference-counted `Send + Sync` handle form (via [`IntoShared`]) that
//!   the owned sample cache and the `samplecfd` catalog share across
//!   threads,
//! * [`CountingSource`] — the decorator that counts physical page reads
//!   through a borrowed or a shared handle, the accounting behind every
//!   "pages read" figure the CLI, the server, the advisor and the
//!   experiments report,
//! * [`disk`] — the table file format: checksummed pages and headers.
//!
//! Everything is deterministic: a table materialised to a file has the same
//! page bytes (and therefore the same sampling frame) as its in-memory
//! source, so estimates match seed for seed across stores.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_storage::{Column, DataType, Row, Schema, TableBuilder, TableSource, Value};
//!
//! let schema = Schema::new(vec![
//!     Column::new("a", DataType::Char(16)),
//!     Column::new("id", DataType::Int64),
//! ])?;
//! let rows: Vec<Row> = (0..100)
//!     .map(|i| Row::new(vec![Value::str(format!("value-{:02}", i % 10)), Value::int(i)]))
//!     .collect();
//! let table = TableBuilder::new("demo", schema)
//!     .page_size(4096)
//!     .build_with_rows(rows)?;
//!
//! assert_eq!(table.num_rows(), 100);
//! // Every stored row reads back through the slotted pages.
//! assert_eq!(table.scan_rows()?.len(), 100);
//! # Ok::<(), samplecf_storage::StorageError>(())
//! ```

// One module is exempt: the carry-less-multiply CRC kernel
// (`disk::crc::clmul`) re-allows the first lint for itself alone.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(unix))]
compile_error!("samplecf-storage needs unix: heap files read and write pages by position");

pub mod cell;
pub mod counting;
pub mod datatype;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;
pub mod rid;
pub mod row;
pub mod schema;
pub mod source;
pub mod table;
pub mod value;

pub use cell::{CellRef, RowRef};
pub use counting::CountingSource;
pub use datatype::DataType;
pub use error::{StorageError, StorageResult};
pub use heap::{HeapFile, MAX_RUN_PAGES};
pub use page::{
    Page, PageView, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE, PAGE_HEADER_SIZE, SLOT_SIZE,
};
pub use rid::{PageId, Rid};
pub use row::{cell_logical_len, decode_cell, encode_cell, Row, RowCodec, CHAR_PAD};
pub use schema::{Column, Schema};
pub use source::{Frame, IntoShared, PageRead, SharedSource, TableSource};
pub use table::{DiskTable, Table, TableBuilder};
pub use value::Value;
