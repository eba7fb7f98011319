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
//! swap them freely and there is one way to draw a sample.  Every kind
//! draws by position — rows of the frame, or a block sample's pages — and
//! reads only the pages its draw lands on: a reservoir of `k` rows is the
//! uniform-without-replacement draw capped at `k`, since the frame knows
//! the row count a scan would discover.
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

/// The reservoir's contract: `Reservoir(k)` keeps exactly `min(k, n)`
/// distinct rows, uniformly over positions, refuses `k = 0`, and gives an
/// empty sample of an empty table.  The kind has no stream of its own — it
/// is uniform-wor at the fixed cap `k` — so only the tests live here.
#[cfg(test)]
mod reservoir {
    mod tests {
        use crate::stream::tests::draw;
        use crate::{BatchSchedule, SamplerKind};
        use samplecf_storage::{Row, Schema, Table, TableBuilder, TableSource, Value};
        use std::collections::HashSet;

        fn table(n: usize) -> Table {
            TableBuilder::new("t", Schema::single_char("a", 12))
                .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:05}"))])))
                .unwrap()
        }

        #[test]
        fn keeps_exactly_the_requested_size() {
            let t = table(1000);
            let sample = draw(SamplerKind::Reservoir(37), &t, 1);
            assert_eq!(sample.len(), 37);
            let distinct: HashSet<_> = sample.iter().map(|(rid, _)| *rid).collect();
            assert_eq!(
                distinct.len(),
                37,
                "reservoir sampling is without replacement"
            );
        }

        #[test]
        fn small_tables_are_returned_whole() {
            let t = table(5);
            let sample = draw(SamplerKind::Reservoir(50), &t, 2);
            assert_eq!(sample, t.scan_rows().unwrap());
        }

        #[test]
        fn zero_size_is_rejected() {
            assert!(SamplerKind::Reservoir(0)
                .stream(BatchSchedule::one_shot())
                .is_err());
        }

        #[test]
        fn empty_table_yields_empty_reservoir() {
            // Unified edge behaviour with the fraction-based samplers.
            let t = table(0);
            assert!(draw(SamplerKind::Reservoir(10), &t, 9).is_empty());
        }

        #[test]
        fn inclusion_is_roughly_uniform_across_positions() {
            // Early rows must not be favoured over late rows.
            let t = table(200);
            let mut first_half = 0usize;
            let mut second_half = 0usize;
            for seed in 0..300 {
                for (_, row) in draw(SamplerKind::Reservoir(20), &t, seed) {
                    let id: usize = row.value(0).as_str().unwrap()[1..].parse().unwrap();
                    if id < 100 {
                        first_half += 1;
                    } else {
                        second_half += 1;
                    }
                }
            }
            let ratio = first_half as f64 / second_half as f64;
            assert!(ratio > 0.8 && ratio < 1.25, "ratio = {ratio}");
        }
    }
}
