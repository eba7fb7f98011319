//! # samplecf-index
//!
//! B+-tree indexes and their compression, for the SampleCF reproduction.
//!
//! The SampleCF estimator's procedure (paper Figure 2) is: draw a random
//! sample of rows, *build an index on the sample*, *compress that index*, and
//! return the observed compression fraction.  This crate provides those two
//! middle steps — literally, as the differential oracle (the first two
//! below), and as the size-only walk every estimator runs:
//!
//! * [`IndexSpec`] / [`IndexBuilder`] / [`BTreeIndex`] — bulk-loaded B+-trees
//!   (clustered and non-clustered): real slotted leaf pages, and the levels
//!   above them counted ([`IndexSizeEstimate::internal_pages`]), not packed,
//! * [`measure_index`] / [`CompressedIndexReport`] — per-column, per-page
//!   compressed sizes of the leaf level under any
//!   [`CompressionScheme`](samplecf_compression::CompressionScheme), by the
//!   batch measure kernels over cells borrowed in place from the leaf pages,
//!   and the resulting compression fraction,
//! * [`IndexSizeModel`] — the same leaf-level accounting predicted
//!   analytically from schema + row count, without building (how the
//!   advisor prices the uncompressed side of a candidate for free),
//! * [`OrderedEntries`] / [`RunSizer`] — the same reports without the tree:
//!   one walk of entries in key order sizes them under any number of schemes
//!   and reads the first key column's [`FirstKeyStats`] off the order —
//!   whole, or a stratum at a time.  Entries are encoded
//!   batch by batch ([`IndexBuilder::entries`], [`OrderedEntries::extend`])
//!   and their [`KeyOrder`] grows by sorting only the entries past its end
//!   and merging them in ([`OrderedEntries::order`]), so a held sample that
//!   keeps its order beside its rows is never sorted twice, deepened or
//!   not.  For a cell-additive scheme no order is needed: rows are summed,
//!   unsorted, into [`RunCellCosts`] and [`RunSizer::price`] turns any sum —
//!   a pooled sample, a stratum — into the whole report by arithmetic.  The
//!   same pass keeps the [`UnitSums`] of each row's and each page's cost
//!   that a design variance is priced from, and hands each row's first key
//!   cell to its caller, who counts the [`FirstKeyStats`] from them
//!   ([`RunSizer::add_cell_costs`]): each row is read once.  ([`SortedRun`]
//!   is the packed oracle's accumulator; no estimator keeps one.)
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_compression::NullSuppression;
//! use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
//! use samplecf_storage::{Column, DataType, Row, Schema, TableBuilder, Value};
//!
//! let schema = Schema::new(vec![Column::new("a", DataType::Char(12))])?;
//! let rows: Vec<Row> = (0..500)
//!     .map(|i| Row::new(vec![Value::str(format!("val-{:03}", i % 50))]))
//!     .collect();
//! let table = TableBuilder::new("t", schema).build_with_rows(rows)?;
//!
//! // Bulk-load a non-clustered B+-tree on column "a", then size its leaf
//! // level under Null Suppression.
//! let spec = IndexSpec::nonclustered("idx_a", ["a"])?;
//! let index = IndexBuilder::new().build_from_table(&table, &spec)?;
//! let report = measure_index(&index, &NullSuppression)?;
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

pub use btree::{BTreeIndex, IndexBuilder, KeyOrder, SortedRun};
pub use compress::{
    measure_index, ColumnCompressionStat, CompressedIndexReport, FirstKeyStats, OrderedEntries,
    RunCellCosts, RunSizer, UnitSums,
};
pub use error::{IndexError, IndexResult};
pub use size::{leaf_record_bytes, IndexSizeEstimate, IndexSizeModel};
pub use spec::{IndexKind, IndexSpec};
