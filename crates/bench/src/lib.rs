//! # samplecf-bench
//!
//! Experiment harness shared by the reproduction binaries
//! (`src/bin/exp_*`).  Each binary regenerates one table or figure from
//! the paper, prints a markdown table, and (via [`Report`]) writes it
//! under `results/`.  See `crates/bench/README.md` for the full
//! experiment-to-paper mapping.
//!
//! [`distinct`] holds the classical distinct-value estimators that
//! `exp_dv_baselines` sets beside SampleCF; the shipped library needs none
//! of them.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_bench::paper_table;
//! use samplecf_bench::report::{Report, Table};
//!
//! // The workload the paper's evaluation uses: one char(20) column with a
//! // controlled distinct count.
//! let generated = paper_table(2_000, 20, 100, 7);
//! assert_eq!(generated.table.num_rows(), 2_000);
//!
//! // Experiments assemble markdown tables into a Report.
//! let mut table = Table::new("Demo", &["metric", "value"]);
//! table.row(&["rows".to_string(), generated.table.num_rows().to_string()]);
//! let mut report = Report::new("demo");
//! report.add(table);
//! assert!(report.to_markdown().contains("rows"));
//! ```

pub mod distinct;
pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::{Report, Table};
pub use workloads::{paper_table, PaperWorkload};
