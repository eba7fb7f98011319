//! # samplecf-server
//!
//! `samplecfd`: a concurrent compression-fraction estimation **service**.
//!
//! The paper's pitch is that CF estimation is cheap enough to run inside a
//! live tuning loop — Kimura et al.'s compression-aware advisor assumes an
//! always-on "what-if" service, and Nirkhiwale et al.'s sampling algebra
//! treats samples as reusable server-side state.  This crate is that
//! service layer: a std-only threaded TCP daemon speaking a small
//! line-delimited JSON protocol (`register`, `estimate`,
//! `estimate_progressive`, `advise`, `info`, `stats`, `metrics`,
//! `shutdown`), backed by
//!
//! * a [`TableCatalog`] of registered
//!   [`Table`](samplecf_storage::Table) files, handed out as
//!   [`SharedSource`](samplecf_storage::SharedSource) handles so every
//!   request for a table shares one identity, and
//! * a [`ConcurrentSampleCache`], the one place a sample is held: one
//!   [`CachedSample`] per *(table, sampler, fraction, seed)* group,
//!   with duplicate in-flight requests coalesced onto one draw,
//!   progressive deepening of shallow samples
//!   ([`CachedSample::deepen`] under concurrency: the deepest extendable
//!   entry of the same source, family and seed is extended by drawing
//!   only the new rows), and LRU eviction against one byte budget under one lock —
//!   `estimate` and `advise` both measure its snapshots, and
//! * one [`MetricsRegistry`] per server, threaded through every layer:
//!   request/error counters, per-kind and per-stage latency histograms
//!   (accept → parse → queue-wait → execute → serialize → drain → write), cache
//!   and catalog counters, progressive-estimator and advisor instruments.
//!   The `metrics` op exposes it all in Prometheus-style text; `samplecf
//!   top ADDR` renders a live view over `stats`.
//!
//! The daemon's worker pool is its only parallelism; a request never fans
//! out.  Results are **byte-identical to the single-shot `samplecf` CLI**
//! seed-for-seed — the cache serves exactly the rows a fresh draw would
//! produce — and every response reports what the request physically cost
//! (`pages_read`, cache hit/miss/deepened, sample rows).
//!
//! The protocol is specified in `docs/API.md`; `ARCHITECTURE.md` has the
//! catalog/cache/worker data-flow diagram.
//!
//! ## Quickstart (in-process)
//!
//! ```no_run
//! use samplecf_server::{Server, ServerConfig};
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! println!("samplecfd listening on {}", handle.addr());
//! handle.run(); // blocks until a client sends {"op":"shutdown"}
//! # Ok::<(), std::io::Error>(())
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("samplecf-server needs Linux: the event loop polls sockets with epoll");

pub mod cache;
pub mod catalog;
mod execute;
pub mod json;
mod poll;
pub mod protocol;
pub mod response;
pub mod server;
pub mod service;

pub use cache::{
    AcquiredSample, CacheStats, CachedSample, ConcurrentSampleCache, DEFAULT_CACHE_BUDGET_BYTES,
};
pub use catalog::{CatalogEntry, TableCatalog};
pub use json::Json;
pub use protocol::{ApiError, CacheDisposition, IndexChoice, Request, RequestKind, SampleSpec};
pub use response::{Accounting, Response};
pub use samplecf_obs::{MetricsRegistry, RegistrySnapshot, Stage, StageTimings};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{Instruments, ServiceState};
