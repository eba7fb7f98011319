//! # samplecf-obs
//!
//! The observability substrate for the SampleCF system: a dependency-free,
//! `std`-only metrics layer every other crate can afford to call on its
//! hottest path.
//!
//! Three pieces:
//!
//! * [`MetricsRegistry`] — a named registry of [`Counter`]s, [`Gauge`]s,
//!   high-watermark gauges ([`HwmGauge`]) and fixed-bucket log₂-scale
//!   [`Histogram`]s.  Registration takes a short-lived lock; **recording is
//!   lock-free** (relaxed atomics on pre-registered `Arc` handles), and a
//!   default handle that was never registered records nothing behind the
//!   *same* API, so instrumented code pays a single branch when it carries
//!   no registry.
//! * Snapshots — [`HistogramSnapshot`] and [`RegistrySnapshot`] are plain
//!   data: quantile-queryable (within-bucket linear interpolation) and
//!   renderable as Prometheus-style text exposition via
//!   [`RegistrySnapshot::expose`].
//! * Spans — [`Stage`], [`StageTimings`] and the RAII [`Span`] record where
//!   a request's wall-clock time goes (parse vs. queue wait vs. execute vs.
//!   serialize vs. drain vs. write), cheaply enough to run on every request.
//!
//! The metric name catalog and the stage taxonomy the daemon uses are
//! documented in `docs/OBSERVABILITY.md`.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_obs::{MetricsRegistry, Stage, StageTimings, Span};
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("samplecf_requests_total{op=\"estimate\"}");
//! let latency = registry.histogram("samplecf_request_duration_ns{op=\"estimate\"}");
//!
//! let mut timings = StageTimings::start();
//! {
//!     let _span = Span::enter(&mut timings, Stage::Execute);
//!     requests.inc();
//! }
//! latency.record(timings.total_nanos());
//!
//! let text = registry.snapshot().expose();
//! assert!(text.contains("samplecf_requests_total{op=\"estimate\"} 1"));
//! ```

mod histogram;
mod registry;
mod span;

pub use histogram::{bucket_le, bucket_lower_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    Counter, Gauge, HwmGauge, MetricValue, MetricsRegistry, RegistrySnapshot, SnapshotEntry,
};
pub use span::{Span, Stage, StageTimings, Timer};
