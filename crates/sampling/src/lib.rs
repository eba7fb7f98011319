//! # samplecf-sampling
//!
//! Sampling procedures for the SampleCF reproduction.
//!
//! The paper's estimator assumes **uniform row sampling with replacement**
//! ([`SamplerKind::UniformWithReplacement`]); commercial systems typically
//! use **block-level sampling** ([`SamplerKind::Block`]), which the paper
//! leaves to future work.  Both — plus without-replacement, Bernoulli,
//! reservoir and stratified variants — are one family of draw over one
//! frame: every [`SamplerKind`] is a [`SampleStream`]
//! ([`SamplerKind::stream`]), so the estimator and the experiment harness
//! swap them freely and there is one way to draw a sample.  Every kind but
//! the reservoir draws by position — rows of the frame, or a block sample's
//! pages — and reads only the pages its draw lands on; the reservoir is the
//! one scan.
//!
//! A stream's draw is prefix-stable and arrives in geometrically growing
//! batches (see [`BatchSchedule`]), so a consumer can measure after every
//! batch and stop as soon as its error target is met; a one-shot draw is the
//! same stream under [`BatchSchedule::one_shot`], run to its cap with
//! [`SampleStream::drain`].
//!
//! Streams draw through the
//! [`TableSource`](samplecf_storage::TableSource) abstraction, so they run
//! unchanged over [`Table`](samplecf_storage::Table)s in memory and in
//! files — where a block sample physically reads only the selected
//! pages.  Wrap any source in
//! [`CountingSource`] to measure exactly how many pages a sampling
//! procedure touches, and draw through [`MaterializedSample`] to pay that
//! I/O once and share the sample across many consumers (the advisor's
//! batch-estimation trick) — or *deepen* it in place via
//! [`MaterializedSample::extend_from_stream`] instead of redrawing.
//!
//! ## Quickstart
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use samplecf_sampling::{BatchSchedule, SamplerKind};
//! use samplecf_storage::{Column, DataType, Row, Schema, TableBuilder, Value};
//!
//! let schema = Schema::new(vec![Column::new("a", DataType::Int64)])?;
//! let rows: Vec<Row> = (0..1_000).map(|i| Row::new(vec![Value::int(i)])).collect();
//! let table = TableBuilder::new("t", schema).build_with_rows(rows)?;
//!
//! // Draw a 10% uniform-with-replacement sample, as the paper's estimator does.
//! let mut stream = SamplerKind::UniformWithReplacement(0.1).stream(BatchSchedule::one_shot())?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let sample = stream.drain(&table, &mut rng)?;
//!
//! assert_eq!(sample.len(), 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod block;
pub mod error;
pub mod io;
pub mod kind;
pub mod materialize;
pub mod reservoir;
pub mod sampler;
pub mod strata;
pub mod stratified;
pub mod stream;
mod uniform;

pub use batch::RecordBatch;
pub use error::{SamplingError, SamplingResult};
pub use io::CountingSource;
pub use kind::{Allocation, SamplerKind, StrataMode};
pub use materialize::MaterializedSample;
pub use sampler::{bernoulli_size, target_size, validate_fraction, SampledRow};
pub use strata::Strata;
pub use stream::{
    fetch_positions_coalesced, BatchSchedule, IncrementalFisherYates, PageCache, SampleStream,
};
