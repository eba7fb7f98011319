//! # samplecf-index
//!
//! B+-tree indexes and their compression, for the SampleCF reproduction.
//!
//! The SampleCF estimator's procedure (paper Figure 2) is: draw a random
//! sample of rows, *build an index on the sample*, *compress that index*, and
//! return the observed compression fraction.  This crate provides those two
//! middle steps — literally, as the differential oracle (the first four
//! below), and as the size-only walk every estimator runs:
//!
//! * [`IndexSpec`] / [`IndexBuilder`] / [`BTreeIndex`] — bulk-loaded B+-trees
//!   (clustered and non-clustered) over real slotted pages,
//! * [`IndexSizeReport`] — where the uncompressed index's bytes go,
//! * [`compress_index`] / [`CompressedIndexReport`] — per-column, per-page
//!   compression of the leaf level with any
//!   [`CompressionScheme`](samplecf_compression::CompressionScheme), and the
//!   resulting compression fraction,
//! * [`measure_index`] — the same report by the batch measure kernels over
//!   cells borrowed in place from the leaf pages,
//! * [`IndexSizeModel`] — the same leaf-level accounting predicted
//!   analytically from schema + row count, without building (how the
//!   advisor prices the uncompressed side of a candidate for free),
//! * [`OrderedEntries`] / [`RunSizer`] — the same reports without the tree:
//!   one walk of entries in key order sizes them under any number of schemes
//!   and reads the first key column's [`FirstKeyStats`] off the order.  A
//!   held sample is sorted once per key ([`IndexBuilder::order_records`]),
//!   keeps that [`KeyOrder`] beside its rows, and is walked through it —
//!   whole, or a stratum at a time, re-encoded but never re-sorted
//!   ([`IndexBuilder::encode_in_order`]); a progressive checkpoint or the
//!   exact CF walks a [`SortedRun`] ([`RunSizer::measure_run`]).  For a
//!   cell-additive scheme no order is needed: rows are summed, unsorted, into
//!   [`RunCellCosts`] and [`RunSizer::price`] turns any sum — a progressive
//!   run's pooled sample, a stratum, a delete-one-batch sample — into the
//!   whole report by arithmetic.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_compression::NullSuppression;
//! use samplecf_index::{compress_index, IndexBuilder, IndexSpec};
//! use samplecf_storage::{Column, DataType, Row, Schema, TableBuilder, Value};
//!
//! let schema = Schema::new(vec![Column::new("a", DataType::Char(12))])?;
//! let rows: Vec<Row> = (0..500)
//!     .map(|i| Row::new(vec![Value::str(format!("val-{:03}", i % 50))]))
//!     .collect();
//! let table = TableBuilder::new("t", schema).build_with_rows(rows)?;
//!
//! // Bulk-load a non-clustered B+-tree on column "a", then compress its
//! // leaf level with Null Suppression.
//! let spec = IndexSpec::nonclustered("idx_a", ["a"])?;
//! let index = IndexBuilder::new().build_from_table(&table, &spec)?;
//! let report = compress_index(&index, &NullSuppression)?;
//!
//! assert_eq!(index.num_entries(), 500);
//! // "val-000" stores 7 of its 12 padded bytes, so CF is well below 1.
//! assert!(report.cf() < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod btree;
pub mod compress;
pub mod error;
pub mod size;
pub mod spec;

pub use btree::{BTreeIndex, IndexBuilder, IndexEntry, KeyOrder, SortedRun};
pub use compress::{
    compress_index, measure_index, ColumnCompressionStat, CompressedIndexReport, FirstKeyStats,
    OrderedEntries, RunCellCosts, RunSizer,
};
pub use error::{IndexError, IndexResult};
pub use size::{leaf_record_bytes, IndexSizeEstimate, IndexSizeModel, IndexSizeReport};
pub use spec::{IndexKind, IndexSpec};
