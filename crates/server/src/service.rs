//! Request dispatch: one parsed protocol request in, one response out.
//!
//! [`ServiceState`] is everything the daemon shares across connections —
//! the table catalog, the concurrent sample cache, request counters and
//! the shutdown flag — and [`ServiceState::handle_line`] is the whole
//! protocol state machine, independent of any transport.  The TCP layer
//! ([`crate::server`]) feeds it lines; tests and the throughput experiment
//! can call it directly.
//!
//! Every data-touching op reports per-request accounting (`pages_read`,
//! how the cache served it, sample rows), so a client can audit exactly
//! what its request cost — the paper's "estimation is cheap" claim made
//! observable per call.

use crate::cache::ConcurrentSampleCache;
use crate::catalog::TableCatalog;
use crate::json::Json;
use crate::protocol::{
    accounting, codes, error_response, ok_response, opt_bool, opt_f64, opt_str, opt_string_array,
    opt_u64, req_str, sampler_by_name, table_info_json, ApiError, CacheDisposition,
};
use samplecf_compression::scheme_by_name;
use samplecf_core::{
    decide, evaluate_shared, measure_sample, ProgressiveCf, ProgressiveConfig, Recommendation,
};
use samplecf_index::{IndexBuilder, IndexSpec};
use samplecf_obs::{
    Counter, Gauge, Histogram, HwmGauge, MetricsRegistry, Span, Stage, StageTimings,
};
use samplecf_sampling::BatchSchedule;
use samplecf_storage::{CountingSource, TableSource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The kind of one request, as classified by the dispatcher — the label
/// axis of the per-request latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A `register` request.
    Register,
    /// An `info` request.
    Info,
    /// An `estimate` request.
    Estimate,
    /// An `estimate_progressive` request.
    EstimateProgressive,
    /// An `advise` request.
    Advise,
    /// A `stats` request.
    Stats,
    /// A `metrics` request.
    Metrics,
    /// A `shutdown` request.
    Shutdown,
    /// A line that failed to parse or named an unknown op.
    Invalid,
}

impl RequestKind {
    /// Every kind, in protocol order.
    pub const ALL: [RequestKind; 9] = [
        RequestKind::Register,
        RequestKind::Info,
        RequestKind::Estimate,
        RequestKind::EstimateProgressive,
        RequestKind::Advise,
        RequestKind::Stats,
        RequestKind::Metrics,
        RequestKind::Shutdown,
        RequestKind::Invalid,
    ];

    /// The op string (or `"invalid"`), used as the `op` label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Register => "register",
            RequestKind::Info => "info",
            RequestKind::Estimate => "estimate",
            RequestKind::EstimateProgressive => "estimate_progressive",
            RequestKind::Advise => "advise",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Invalid => "invalid",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-op request counters, reported by the `stats` op and exposed as
/// `samplecf_requests_total{op="..."}` (errors under
/// `samplecf_request_errors_total`).
#[derive(Debug)]
pub struct RequestCounters {
    register: Counter,
    info: Counter,
    estimate: Counter,
    estimate_progressive: Counter,
    advise: Counter,
    stats: Counter,
    metrics: Counter,
    shutdown: Counter,
    errors: Counter,
}

impl RequestCounters {
    fn register_in(registry: &MetricsRegistry) -> Self {
        let op = |o: &str| registry.counter(&format!("samplecf_requests_total{{op=\"{o}\"}}"));
        RequestCounters {
            register: op("register"),
            info: op("info"),
            estimate: op("estimate"),
            estimate_progressive: op("estimate_progressive"),
            advise: op("advise"),
            stats: op("stats"),
            metrics: op("metrics"),
            shutdown: op("shutdown"),
            errors: registry.counter("samplecf_request_errors_total"),
        }
    }

    fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("register", self.register.get()),
            ("info", self.info.get()),
            ("estimate", self.estimate.get()),
            ("estimate_progressive", self.estimate_progressive.get()),
            ("advise", self.advise.get()),
            ("stats", self.stats.get()),
            ("metrics", self.metrics.get()),
            ("shutdown", self.shutdown.get()),
        ]
    }
}

/// Transport-level gauges the event loop maintains and the `stats` op
/// reports: connection and backpressure health.  Registry-backed — the
/// same cells surface in the `metrics` exposition under
/// `samplecf_connections_*` / `samplecf_queue_*` names.
///
/// The queue depth is a [`HwmGauge`]: it is written from both the event
/// loop (enqueue) and the worker drain path, and a plain last-write-wins
/// gauge silently erased depth spikes that happened between two `stats`
/// snapshots.  The watermark keeps the max since the last snapshot.
#[derive(Debug)]
pub struct ServerGauges {
    open_connections: Gauge,
    connections_accepted: Counter,
    connections_rejected: Counter,
    busy_rejections: Counter,
    queue_depth: HwmGauge,
    queue_capacity: Gauge,
    max_connections: Gauge,
}

impl Default for ServerGauges {
    fn default() -> Self {
        Self::with_registry(&MetricsRegistry::new())
    }
}

impl ServerGauges {
    /// Gauges registered in `registry` (see `docs/OBSERVABILITY.md` for the
    /// metric names).
    #[must_use]
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        ServerGauges {
            open_connections: registry.gauge("samplecf_connections_open"),
            connections_accepted: registry.counter("samplecf_connections_accepted_total"),
            connections_rejected: registry.counter("samplecf_connections_rejected_total"),
            busy_rejections: registry.counter("samplecf_busy_rejections_total"),
            queue_depth: registry.hwm_gauge("samplecf_queue_depth"),
            queue_capacity: registry.gauge("samplecf_queue_capacity"),
            max_connections: registry.gauge("samplecf_max_connections"),
        }
    }

    /// Record the configured limits (once, at bind time).
    pub fn set_limits(&self, max_connections: usize, queue_capacity: usize) {
        self.max_connections.set(max_connections as u64);
        self.queue_capacity.set(queue_capacity as u64);
    }

    /// A connection was accepted and occupies a slot.
    pub fn connection_opened(&self) {
        self.connections_accepted.inc();
        self.open_connections.add(1);
    }

    /// A connection's slot was released.
    pub fn connection_closed(&self) {
        self.open_connections.sub(1);
    }

    /// A connection was turned away at the `max_connections` limit.
    pub fn connection_rejected(&self) {
        self.connections_rejected.inc();
    }

    /// A request was answered `busy` because the request queue was full.
    pub fn busy_rejected(&self) {
        self.busy_rejections.inc();
    }

    /// The request queue's current depth (set by enqueue/dequeue sites;
    /// every write also raises the high watermark).
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as u64);
    }

    /// Currently open connections.
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        self.open_connections.get()
    }

    /// Connections accepted since start.
    #[must_use]
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.get()
    }

    /// Connections rejected at the limit since start.
    #[must_use]
    pub fn connections_rejected(&self) -> u64 {
        self.connections_rejected.get()
    }

    /// `busy` responses issued since start.
    #[must_use]
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.get()
    }

    /// Requests currently queued for the worker pool.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.current()
    }

    /// The deepest the queue has been since the watermark was last taken
    /// (non-destructive; `stats` uses the destructive
    /// [`Self::take_queue_depth_max`]).
    #[must_use]
    pub fn queue_depth_max(&self) -> u64 {
        self.queue_depth.max()
    }

    /// The deepest the queue has been since the last call, resetting the
    /// watermark to the current depth.
    #[must_use]
    pub fn take_queue_depth_max(&self) -> u64 {
        self.queue_depth.take_max()
    }

    /// The configured queue capacity.
    #[must_use]
    pub fn queue_capacity(&self) -> u64 {
        self.queue_capacity.get()
    }

    /// The configured connection limit.
    #[must_use]
    pub fn max_connections(&self) -> u64 {
        self.max_connections.get()
    }
}

/// The service's own instruments: per-kind request latency, per-stage
/// latency, and the slow-request counter.
#[derive(Debug)]
struct ServiceInstruments {
    /// End-to-end latency per request kind
    /// (`samplecf_request_duration_ns{op="..."}`).
    request_duration: [Histogram; RequestKind::ALL.len()],
    /// Wall time per stage, summed over requests
    /// (`samplecf_stage_duration_ns{stage="..."}`).
    stage_duration: [Histogram; Stage::ALL.len()],
    /// Requests slower than the configured threshold
    /// (`samplecf_slow_requests_total`).
    slow_requests: Counter,
    /// Pages-read distribution of progressive runs
    /// (`samplecf_source_pages_read{source="progressive"}`).
    progressive_pages: Histogram,
    /// Progressive estimator instruments, shared with the core crate.
    progressive: samplecf_core::ProgressiveMetrics,
    /// Shared-sample accounting of `advise` requests: pages actually read.
    advisor_pages_read: Counter,
    /// Pages a naive per-candidate redraw would have read.
    advisor_naive_pages: Counter,
    /// Candidates evaluated by `advise` requests.
    advisor_candidates: Counter,
}

impl ServiceInstruments {
    fn register_in(registry: &MetricsRegistry) -> Self {
        ServiceInstruments {
            request_duration: RequestKind::ALL.map(|kind| {
                registry.histogram(&format!(
                    "samplecf_request_duration_ns{{op=\"{}\"}}",
                    kind.name()
                ))
            }),
            stage_duration: Stage::ALL.map(|stage| {
                registry.histogram(&format!(
                    "samplecf_stage_duration_ns{{stage=\"{}\"}}",
                    stage.name()
                ))
            }),
            slow_requests: registry.counter("samplecf_slow_requests_total"),
            progressive_pages: registry
                .histogram("samplecf_source_pages_read{source=\"progressive\"}"),
            progressive: samplecf_core::ProgressiveMetrics::register_in(registry),
            advisor_pages_read: registry.counter("samplecf_advisor_shared_pages_read_total"),
            advisor_naive_pages: registry.counter("samplecf_advisor_naive_pages_total"),
            advisor_candidates: registry.counter("samplecf_advisor_evaluated_candidates_total"),
        }
    }
}

/// The shared state of one running `samplecfd` instance.
pub struct ServiceState {
    /// Registered tables.
    pub catalog: TableCatalog,
    /// The shared, evicting sample cache.
    pub cache: ConcurrentSampleCache,
    /// Transport gauges (connections, backpressure) for the `stats` op.
    pub gauges: ServerGauges,
    /// The daemon-wide metrics registry.  Every layer's instruments —
    /// catalog, cache shards, transport gauges, request/stage latency, the
    /// progressive estimator — registers here, and the `metrics` op
    /// renders it as text exposition.  `Arc`-shared under the hood, so an
    /// in-process load harness can clone the handle and assert on it.
    pub metrics: MetricsRegistry,
    /// Default inner parallelism of one estimation request (0 = all
    /// cores); a request's `"threads"` field overrides it.  The daemon
    /// keeps this at 1 by default because the worker pool is already the
    /// parallel axis — `workers` requests run concurrently, and fanning
    /// each of them over every core would oversubscribe the machine.
    estimator_threads: usize,
    counters: RequestCounters,
    instruments: ServiceInstruments,
    started: Instant,
    shutdown: AtomicBool,
}

impl ServiceState {
    /// Fresh state with an empty catalog and a cache of the given budget
    /// (default shard counts; see [`Self::with_shards`]).
    #[must_use]
    pub fn new(cache_budget_bytes: usize) -> Self {
        Self::with_shards(cache_budget_bytes, crate::cache::DEFAULT_CACHE_SHARDS)
    }

    /// Fresh state with an explicit cache shard count.  Builds its own
    /// [`MetricsRegistry`] and threads it through every layer; pass one in
    /// with [`Self::with_registry`] to share it more widely.
    #[must_use]
    pub fn with_shards(cache_budget_bytes: usize, cache_shards: usize) -> Self {
        Self::with_registry(cache_budget_bytes, cache_shards, MetricsRegistry::new())
    }

    /// Fresh state whose instruments all feed `registry`.
    #[must_use]
    pub fn with_registry(
        cache_budget_bytes: usize,
        cache_shards: usize,
        registry: MetricsRegistry,
    ) -> Self {
        ServiceState {
            catalog: TableCatalog::with_registry(crate::catalog::DEFAULT_CATALOG_SHARDS, &registry),
            cache: ConcurrentSampleCache::with_registry(
                cache_budget_bytes,
                cache_shards,
                &registry,
            ),
            gauges: ServerGauges::with_registry(&registry),
            estimator_threads: 1,
            counters: RequestCounters::register_in(&registry),
            instruments: ServiceInstruments::register_in(&registry),
            metrics: registry,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Set the default per-request estimator parallelism (0 = all cores).
    /// Estimates are byte-identical at any thread count, so this is a
    /// throughput-vs-latency dial, not a semantic one.
    #[must_use]
    pub fn with_estimator_threads(mut self, threads: usize) -> Self {
        self.estimator_threads = threads;
        self
    }

    /// The configured default per-request estimator parallelism.
    #[must_use]
    pub fn estimator_threads(&self) -> usize {
        self.estimator_threads
    }

    /// The effective thread count of one request: its optional `"threads"`
    /// field, falling back to the daemon-wide default.
    fn request_threads(&self, request: &Json) -> Result<usize, ApiError> {
        #[allow(clippy::cast_possible_truncation)]
        Ok(opt_u64(request, "threads", self.estimator_threads as u64)? as usize)
    }

    /// Whether a `shutdown` request has been accepted.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown (also reachable through the `shutdown` op).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Handle one request line, returning one response line (no trailing
    /// newline).  Never panics on untrusted input; failures become
    /// `{"ok": false, "error": ...}` responses.
    ///
    /// This convenience wrapper times its own stages and records the
    /// request into the registry; the daemon's event loop instead calls
    /// [`Self::handle_line_traced`] with the `Job`'s timings (which already
    /// carry queue wait) and observes the request at completion drain.
    pub fn handle_line(&self, line: &str) -> String {
        let mut timings = StageTimings::start();
        let (response, kind) = self.handle_line_traced(line, &mut timings);
        self.observe_request(kind, &timings);
        response
    }

    /// Handle one request line, attributing parse/execute/serialize wall
    /// time to `timings`, and returning the response line plus the
    /// request's classified kind.  Does **not** record into the registry —
    /// the caller observes the finished timings via
    /// [`Self::observe_request`] once the request's life is over.
    pub fn handle_line_traced(
        &self,
        line: &str,
        timings: &mut StageTimings,
    ) -> (String, RequestKind) {
        let parsed = {
            let _parse = Span::enter(timings, Stage::Parse);
            Json::parse(line.trim())
        };
        let (kind, response) = match parsed {
            Ok(request) => {
                let _execute = Span::enter(timings, Stage::Execute);
                let (kind, result) = self.dispatch(&request);
                match result {
                    Ok(body) => (kind, body),
                    Err(e) => {
                        self.counters.errors.inc();
                        (kind, error_response(&e))
                    }
                }
            }
            Err(e) => {
                self.counters.errors.inc();
                (
                    RequestKind::Invalid,
                    error_response(&ApiError::new(
                        codes::PARSE_ERROR,
                        format!("invalid JSON: {e}"),
                    )),
                )
            }
        };
        let line = {
            let _serialize = Span::enter(timings, Stage::Serialize);
            response.to_line()
        };
        (line, kind)
    }

    /// Record one finished request into the per-kind and per-stage latency
    /// histograms.  Returns the request's end-to-end nanoseconds (measured
    /// from `timings`' start) so the caller can apply its slow-request
    /// threshold.
    pub fn observe_request(&self, kind: RequestKind, timings: &StageTimings) -> u64 {
        let total = timings.total_nanos();
        self.instruments.request_duration[kind.index()].record(total);
        let mut staged = 0u64;
        for (stage, nanos) in timings.recorded() {
            self.instruments.stage_duration[stage.index()].record(nanos);
            staged = staged.saturating_add(nanos);
        }
        // Whatever the request clock saw that no explicit span claimed is
        // the completion-drain wait: time spent in the worker → event-loop
        // completion queue before the loop observed the response.  Making
        // it a real stage keeps per-request stage sums exactly equal to
        // the end-to-end total, so per-stage histograms fully account for
        // tail latency instead of explaining only part of it.
        self.instruments.stage_duration[Stage::Drain.index()].record(total.saturating_sub(staged));
        total
    }

    /// Record one stage observation outside any per-request timings (e.g.
    /// the event loop's accept and write stages).
    pub fn observe_stage(&self, stage: Stage, d: std::time::Duration) {
        self.instruments.stage_duration[stage.index()].record_duration(d);
    }

    /// Count one request that exceeded the slow-request threshold.
    pub fn note_slow_request(&self) {
        self.instruments.slow_requests.inc();
    }

    fn dispatch(&self, request: &Json) -> (RequestKind, Result<Json, ApiError>) {
        let op = match req_str(request, "op") {
            Ok(op) => op,
            Err(e) => return (RequestKind::Invalid, Err(e)),
        };
        match op {
            "register" => {
                self.counters.register.inc();
                (RequestKind::Register, self.op_register(request))
            }
            "info" => {
                self.counters.info.inc();
                (RequestKind::Info, self.op_info(request))
            }
            "estimate" => {
                self.counters.estimate.inc();
                (RequestKind::Estimate, self.op_estimate(request))
            }
            "estimate_progressive" => {
                self.counters.estimate_progressive.inc();
                (
                    RequestKind::EstimateProgressive,
                    self.op_estimate_progressive(request),
                )
            }
            "advise" => {
                self.counters.advise.inc();
                (RequestKind::Advise, self.op_advise(request))
            }
            "stats" => {
                self.counters.stats.inc();
                (RequestKind::Stats, Ok(self.op_stats()))
            }
            "metrics" => {
                self.counters.metrics.inc();
                (RequestKind::Metrics, Ok(self.op_metrics()))
            }
            "shutdown" => {
                self.counters.shutdown.inc();
                self.request_shutdown();
                (
                    RequestKind::Shutdown,
                    Ok(ok_response("shutdown", Json::obj())),
                )
            }
            other => (
                RequestKind::Invalid,
                Err(ApiError::new(
                    codes::UNKNOWN_OP,
                    format!(
                        "unknown op {other:?} (register, info, estimate, estimate_progressive, \
                         advise, stats, metrics, shutdown)"
                    ),
                )),
            ),
        }
    }

    fn op_register(&self, request: &Json) -> Result<Json, ApiError> {
        let path = req_str(request, "path")?;
        let name = opt_str(request, "name")?;
        let entry = self.catalog.register(path, name)?;
        Ok(ok_response(
            "register",
            Json::obj()
                .field("table", table_info_json(&entry.table, &entry.path))
                .field("accounting", accounting(0, CacheDisposition::None, None)),
        ))
    }

    fn op_info(&self, request: &Json) -> Result<Json, ApiError> {
        let name = req_str(request, "table")?;
        let entry = self.catalog.get(name)?;
        Ok(ok_response(
            "info",
            Json::obj()
                .field("table", table_info_json(&entry.table, &entry.path))
                .field("accounting", accounting(0, CacheDisposition::None, None)),
        ))
    }

    /// Parse the (table, sampler, seed) block shared by every sampling op.
    /// Per-candidate concerns (scheme, index columns) are parsed separately
    /// by [`index_setup`](Self::index_setup), because `advise` takes them
    /// inside its `candidates` array, not at the top level.
    fn sampler_setup(
        &self,
        request: &Json,
        default_sampler: &str,
        default_fraction: f64,
    ) -> Result<SamplerSetup, ApiError> {
        let entry = self.catalog.get(req_str(request, "table")?)?;
        let sampler_name = opt_str(request, "sampler")?
            .unwrap_or(default_sampler)
            .to_string();
        let fraction = opt_f64(request, "fraction", default_fraction)?;
        #[allow(clippy::cast_possible_truncation)]
        let size = opt_u64(request, "size", 1_000)? as usize;
        #[allow(clippy::cast_possible_truncation)]
        let strata = opt_u64(request, "strata", 8)? as usize;
        let alloc = opt_str(request, "alloc")?.unwrap_or("prop").to_string();
        let strata_mode = opt_str(request, "strata_mode")?
            .unwrap_or("equi-width")
            .to_string();
        let kind = sampler_by_name(&sampler_name, fraction, size, strata, &alloc, &strata_mode)
            .map_err(ApiError::bad_request)?;
        let seed = opt_u64(request, "seed", 0)?;
        Ok(SamplerSetup { entry, kind, seed })
    }

    /// Parse the top-level scheme + index-column block of the single-index
    /// ops (`estimate`, `estimate_progressive`).
    fn index_setup(&self, request: &Json, setup: &SamplerSetup) -> Result<IndexSetup, ApiError> {
        let scheme_name = opt_str(request, "scheme")?
            .unwrap_or("null-suppression")
            .to_string();
        let scheme =
            scheme_by_name(&scheme_name).map_err(|e| ApiError::bad_request(e.to_string()))?;
        let columns = match opt_string_array(request, "columns")? {
            Some(columns) => columns,
            None => vec![setup.entry.shared.schema().columns()[0].name.clone()],
        };
        let spec = IndexSpec::nonclustered("idx", columns)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
        Ok(IndexSetup { scheme, spec })
    }

    fn op_estimate(&self, request: &Json) -> Result<Json, ApiError> {
        let setup = self.sampler_setup(request, "uniform", 0.01)?;
        let index = self.index_setup(request, &setup)?;
        let builder = IndexBuilder::new().threads(self.request_threads(request)?);
        let acquired = self
            .cache
            .acquire(&setup.entry.shared, setup.kind, setup.seed)
            .map_err(|e| ApiError::new(codes::ESTIMATE_FAILED, e.to_string()))?;
        // A stratified sample carries its tags and weights, so this is the
        // weighted per-stratum combination there and the pooled CF
        // otherwise — `SampleCf::estimate` bit-for-bit either way.
        let measurement = measure_sample(
            &acquired.sample,
            &index.spec,
            index.scheme.as_ref(),
            &builder,
        )
        .map_err(|e| ApiError::new(codes::ESTIMATE_FAILED, e.to_string()))?;
        let result = Json::obj()
            .field("table", Json::str(setup.entry.shared.name()))
            .field("sampler", Json::str(setup.kind.label()))
            .field("scheme", Json::str(index.scheme.name()))
            .field("seed", Json::uint(setup.seed))
            .field("cf", Json::Num(measurement.cf))
            .field("cf_with_pointers", Json::Num(measurement.cf_with_pointers))
            .field("cf_pages", Json::Num(measurement.cf_pages))
            .field("rows", Json::uint(measurement.data.rows as u64))
            .field(
                "distinct_first_key",
                Json::uint(measurement.data.distinct_first_key as u64),
            )
            .field(
                "source_rows",
                Json::uint(setup.entry.shared.num_rows() as u64),
            )
            .field(
                "source_pages",
                Json::uint(setup.entry.shared.num_pages() as u64),
            );
        Ok(ok_response(
            "estimate",
            Json::obj().field("result", result).field(
                "accounting",
                accounting(
                    acquired.pages_read,
                    acquired.disposition,
                    Some(acquired.sample.len()),
                ),
            ),
        ))
    }

    fn op_estimate_progressive(&self, request: &Json) -> Result<Json, ApiError> {
        // `fraction` is the cap here, mirroring `--max-fraction`.
        let setup = self.sampler_setup(request, "uniform", 0.1)?;
        let index = self.index_setup(request, &setup)?;
        let target_error = request
            .get("target_error")
            .and_then(Json::as_f64)
            .ok_or_else(|| ApiError::bad_request("missing numeric field \"target_error\""))?;
        let confidence = opt_f64(request, "confidence", 0.95)?;
        let initial_fraction = opt_f64(request, "initial_fraction", 0.01)?;
        let growth = opt_f64(request, "growth", 2.0)?;
        let schedule = BatchSchedule::new(initial_fraction, growth)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
        let config = ProgressiveConfig {
            target_error,
            confidence,
            schedule,
        };
        // Progressive runs stream their own pages and bypass the sample
        // cache: their stopping point depends on the data, not on a fixed
        // fraction a later request could share.
        let counting = CountingSource::observed(
            setup.entry.shared.as_ref(),
            self.instruments.progressive_pages.clone(),
        );
        let report = ProgressiveCf::new(setup.kind, config)
            .seed(setup.seed)
            .threads(self.request_threads(request)?)
            .metrics(self.instruments.progressive.clone())
            .run(&counting, &index.spec, index.scheme.as_ref())
            .map_err(|e| ApiError::new(codes::ESTIMATE_FAILED, e.to_string()))?;

        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let checkpoints: Vec<Json> = report
            .checkpoints
            .iter()
            .map(|c| {
                Json::obj()
                    .field("batch", Json::uint(c.batch as u64))
                    .field("rows", Json::uint(c.rows as u64))
                    .field("fraction", Json::Num(c.fraction))
                    .field("cf", Json::Num(c.cf))
                    .field("std_error", opt_num(c.std_error))
                    .field("half_width", opt_num(c.half_width))
                    .field("ci_low", opt_num(c.ci_low))
                    .field("ci_high", opt_num(c.ci_high))
                    .field("pages_read", Json::uint(c.pages_read))
                    .field(
                        "variance_source",
                        c.variance_source.map_or(Json::Null, Json::str),
                    )
                    .field(
                        "strata_rows",
                        c.strata_rows.as_ref().map_or(Json::Null, |rows| {
                            Json::Arr(rows.iter().map(|&r| Json::uint(r as u64)).collect())
                        }),
                    )
            })
            .collect();
        let (ci_low, ci_high) = report
            .ci()
            .map_or((None, None), |(a, b)| (Some(a), Some(b)));
        let result = Json::obj()
            .field("table", Json::str(setup.entry.shared.name()))
            .field("sampler", Json::str(setup.kind.label()))
            .field("scheme", Json::str(index.scheme.name()))
            .field("seed", Json::uint(setup.seed))
            .field("target_error", Json::Num(report.target_error))
            .field("confidence", Json::Num(report.confidence))
            .field("cf", Json::Num(report.measurement.cf))
            .field("ci_low", opt_num(ci_low))
            .field("ci_high", opt_num(ci_high))
            .field("rows", Json::uint(report.measurement.data.rows as u64))
            .field("source_rows", Json::uint(report.source_rows as u64))
            .field("stopped_early", Json::Bool(report.stopped_early))
            .field("target_met", Json::Bool(report.target_met))
            .field("pages_read", Json::uint(report.pages_read))
            .field("source_pages", Json::uint(report.source_pages as u64))
            .field("checkpoints", Json::Arr(checkpoints));
        let rows = report.measurement.data.rows;
        Ok(ok_response(
            "estimate_progressive",
            Json::obj().field("result", result).field(
                "accounting",
                accounting(report.pages_read, CacheDisposition::Bypass, Some(rows)),
            ),
        ))
    }

    fn op_advise(&self, request: &Json) -> Result<Json, ApiError> {
        let setup = self.sampler_setup(request, "block", 0.01)?;
        let min_saving = opt_f64(request, "min_saving", 0.1)?;
        let budget = match request.get("budget") {
            None | Some(Json::Null) => None,
            Some(value) => Some(value.as_u64().ok_or_else(|| {
                ApiError::bad_request("field \"budget\" must be a non-negative integer")
            })? as usize),
        };
        let candidate_specs = request
            .get("candidates")
            .and_then(Json::as_array)
            .ok_or_else(|| ApiError::bad_request("missing array field \"candidates\""))?;
        if candidate_specs.is_empty() {
            return Err(ApiError::bad_request("\"candidates\" must not be empty"));
        }
        let mut specs = Vec::with_capacity(candidate_specs.len());
        for (i, c) in candidate_specs.iter().enumerate() {
            let index = req_str(c, "index")
                .map_err(|e| ApiError::bad_request(format!("candidate {i}: {}", e.message)))?;
            let scheme_name = req_str(c, "scheme")
                .map_err(|e| ApiError::bad_request(format!("candidate {i}: {}", e.message)))?;
            let scheme = scheme_by_name(scheme_name)
                .map_err(|e| ApiError::bad_request(format!("candidate {i}: {e}")))?;
            let columns = match opt_string_array(c, "columns")? {
                Some(columns) => columns,
                None => vec![setup.entry.shared.schema().columns()[0].name.clone()],
            };
            let clustered = opt_bool(c, "clustered", false)?;
            let spec = if clustered {
                IndexSpec::clustered(index, columns)
            } else {
                IndexSpec::nonclustered(index, columns)
            }
            .map_err(|e| ApiError::bad_request(format!("candidate {i}: {e}")))?;
            specs.push((spec, scheme));
        }

        // One shared sample serves every candidate of the request — and,
        // through the concurrent cache, every other request with the same
        // (table, sampler, fraction, seed) group.
        let acquired = self
            .cache
            .acquire(&setup.entry.shared, setup.kind, setup.seed)
            .map_err(|e| ApiError::new(codes::ESTIMATE_FAILED, e.to_string()))?;
        // Candidates are independent given the shared sample, so they fan
        // out over the request's thread budget; reassembly by job index
        // keeps the recommendation order (and the response bytes)
        // identical to the serial loop.
        let threads = self.request_threads(request)?;
        let evaluated = samplecf_parallel::parallel_indexed_map(specs.len(), threads, |i| {
            let (spec, scheme) = &specs[i];
            evaluate_shared(
                setup.entry.shared.as_ref(),
                spec,
                scheme.as_ref(),
                &acquired.sample,
                0,
            )
        });
        let mut recommendations: Vec<Recommendation> = Vec::with_capacity(specs.len());
        for result in evaluated {
            recommendations
                .push(result.map_err(|e| ApiError::new(codes::ESTIMATE_FAILED, e.to_string()))?);
        }
        decide(&mut recommendations, min_saving, budget);

        let total_uncompressed: usize = recommendations.iter().map(|r| r.uncompressed_bytes).sum();
        let total_chosen: usize = recommendations
            .iter()
            .map(Recommendation::chosen_bytes)
            .sum();
        let fits = budget.is_none_or(|b| total_chosen <= b);
        let recommendation_json: Vec<Json> = recommendations
            .iter()
            .map(|r| {
                Json::obj()
                    .field("index", Json::str(&r.index))
                    .field("scheme", Json::str(&r.scheme))
                    .field(
                        "uncompressed_bytes",
                        Json::uint(r.uncompressed_bytes as u64),
                    )
                    .field(
                        "estimated_compressed_bytes",
                        Json::uint(r.estimated_compressed_bytes as u64),
                    )
                    .field("estimated_cf", Json::Num(r.estimated_cf))
                    .field("sample_rows", Json::uint(r.sample_rows as u64))
                    .field("compress", Json::Bool(r.compress))
            })
            .collect();
        let result = Json::obj()
            .field("table", Json::str(setup.entry.shared.name()))
            .field("sampler", Json::str(setup.kind.label()))
            .field("seed", Json::uint(setup.seed))
            .field(
                "budget_bytes",
                budget.map_or(Json::Null, |b| Json::uint(b as u64)),
            )
            .field("fits_budget", Json::Bool(fits))
            .field(
                "total_uncompressed_bytes",
                Json::uint(total_uncompressed as u64),
            )
            .field("total_chosen_bytes", Json::uint(total_chosen as u64))
            .field("recommendations", Json::Arr(recommendation_json));
        let naive_pages = acquired.entry_pages_total * specs.len() as u64;
        self.instruments.advisor_pages_read.add(acquired.pages_read);
        self.instruments.advisor_naive_pages.add(naive_pages);
        self.instruments.advisor_candidates.add(specs.len() as u64);
        Ok(ok_response(
            "advise",
            Json::obj().field("result", result).field(
                "accounting",
                accounting(
                    acquired.pages_read,
                    acquired.disposition,
                    Some(acquired.sample.len()),
                )
                .field("naive_pages_read", Json::uint(naive_pages)),
            ),
        ))
    }

    fn op_stats(&self) -> Json {
        let cache = self.cache.stats();
        let shards = Json::Arr(
            self.cache
                .per_shard_stats()
                .into_iter()
                .map(|s| {
                    Json::obj()
                        .field("entries", Json::uint(s.entries as u64))
                        .field("bytes", Json::uint(s.bytes as u64))
                        .field("hits", Json::uint(s.hits))
                        .field("misses", Json::uint(s.misses))
                        .field("evictions", Json::uint(s.evictions))
                })
                .collect(),
        );
        let server = Json::obj()
            .field(
                "open_connections",
                Json::uint(self.gauges.open_connections()),
            )
            .field(
                "connections_accepted",
                Json::uint(self.gauges.connections_accepted()),
            )
            .field(
                "connections_rejected",
                Json::uint(self.gauges.connections_rejected()),
            )
            .field("busy_rejections", Json::uint(self.gauges.busy_rejections()))
            .field("queue_depth", Json::uint(self.gauges.queue_depth()))
            .field(
                "queue_depth_max",
                Json::uint(self.gauges.take_queue_depth_max()),
            )
            .field("queue_capacity", Json::uint(self.gauges.queue_capacity()))
            .field("max_connections", Json::uint(self.gauges.max_connections()));
        let mut requests = Json::obj();
        let mut total = 0u64;
        for (name, count) in self.counters.snapshot() {
            requests = requests.field(name, Json::uint(count));
            total += count;
        }
        requests = requests.field("total", Json::uint(total));
        let stats = Json::obj()
            .field(
                "uptime_seconds",
                Json::Num(self.started.elapsed().as_secs_f64()),
            )
            .field(
                "tables",
                Json::Arr(self.catalog.names().into_iter().map(Json::Str).collect()),
            )
            .field("requests", requests)
            .field("errors", Json::uint(self.counters.errors.get()))
            .field(
                "cache",
                Json::obj()
                    .field("entries", Json::uint(cache.entries as u64))
                    .field("bytes", Json::uint(cache.bytes as u64))
                    .field("budget_bytes", Json::uint(cache.budget_bytes as u64))
                    .field("hits", Json::uint(cache.hits))
                    .field("misses", Json::uint(cache.misses))
                    .field("deepened", Json::uint(cache.deepened))
                    .field("evictions", Json::uint(cache.evictions))
                    .field("coalesced_waits", Json::uint(cache.coalesced_waits))
                    .field("pages_read", Json::uint(cache.pages_read))
                    .field("shards", shards),
            )
            .field("server", server)
            .field("latency", self.latency_json());
        ok_response("stats", Json::obj().field("stats", stats))
    }

    /// Per-kind latency quantiles (nanoseconds) from the request-duration
    /// histograms.  Kinds that have seen no requests are omitted so the
    /// object stays small on a fresh server.
    fn latency_json(&self) -> Json {
        let mut latency = Json::obj();
        for kind in RequestKind::ALL {
            let snap = self.instruments.request_duration[kind.index()].snapshot();
            if snap.count == 0 {
                continue;
            }
            let q = |p: f64| Json::uint(snap.quantile(p) as u64);
            latency = latency.field(
                kind.name(),
                Json::obj()
                    .field("count", Json::uint(snap.count))
                    .field("p50_ns", q(0.50))
                    .field("p95_ns", q(0.95))
                    .field("p99_ns", q(0.99)),
            );
        }
        latency
    }

    /// The `metrics` op: the full registry in Prometheus-style text
    /// exposition, wrapped in the protocol's JSON envelope.
    fn op_metrics(&self) -> Json {
        ok_response(
            "metrics",
            Json::obj().field("exposition", Json::str(self.metrics.expose())),
        )
    }
}

/// The parsed (table, sampler, seed) block every sampling op shares.
struct SamplerSetup {
    entry: crate::catalog::CatalogEntry,
    kind: samplecf_sampling::SamplerKind,
    seed: u64,
}

/// The parsed top-level scheme + index spec of the single-index ops.
struct IndexSetup {
    scheme: Box<dyn samplecf_compression::CompressionScheme>,
    spec: IndexSpec,
}

impl std::fmt::Debug for ServiceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceState")
            .field("catalog", &self.catalog)
            .field("cache", &self.cache)
            .field("shutdown", &self.shutdown_requested())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CACHE_BUDGET_BYTES;
    use samplecf_core::SampleCf;
    use samplecf_datagen::presets;
    use samplecf_sampling::SamplerKind;
    use samplecf_storage::DiskTable;
    use std::path::PathBuf;

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn scratch_table(tag: &str, rows: usize) -> (String, Cleanup) {
        let path =
            std::env::temp_dir().join(format!("samplecf_service_{tag}_{}.scf", std::process::id()));
        let table = presets::single_char_table("svc_t", rows, 24, 50, 8, 3)
            .generate()
            .unwrap()
            .table;
        DiskTable::materialize(&path, &table).unwrap();
        (path.to_string_lossy().into_owned(), Cleanup(path))
    }

    fn ok(state: &ServiceState, line: &str) -> Json {
        let reply = Json::parse(&state.handle_line(line)).expect("reply is valid JSON");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected success, got {reply}"
        );
        reply
    }

    fn err_code(state: &ServiceState, line: &str) -> String {
        let reply = Json::parse(&state.handle_line(line)).expect("reply is valid JSON");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error has a code")
            .to_string()
    }

    #[test]
    fn register_info_estimate_loop_matches_the_direct_estimator() {
        let (path, _cleanup) = scratch_table("loop", 8_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);

        let registered = ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        let table = registered.get("table").unwrap();
        assert_eq!(table.get("name").and_then(Json::as_str), Some("svc_t"));
        assert_eq!(table.get("rows").and_then(Json::as_u64), Some(8_000));

        let info = ok(&state, r#"{"op":"info","table":"svc_t"}"#);
        assert_eq!(info.get("table").unwrap(), table, "info echoes register");

        let estimate = ok(
            &state,
            r#"{"op":"estimate","table":"svc_t","sampler":"block","fraction":0.1,"scheme":"dictionary-global","seed":7}"#,
        );
        let result = estimate.get("result").unwrap();
        let acc = estimate.get("accounting").unwrap();
        assert_eq!(acc.get("cache").and_then(Json::as_str), Some("miss"));

        // Byte-identical to the single-shot estimator, seed for seed.
        let disk = DiskTable::open(&path).unwrap();
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let scheme = scheme_by_name("dictionary-global").unwrap();
        let direct = SampleCf::new(SamplerKind::Block(0.1))
            .seed(7)
            .estimate(&disk, &spec, scheme.as_ref())
            .unwrap();
        assert_eq!(result.get("cf").and_then(Json::as_f64), Some(direct.cf));
        assert_eq!(
            result.get("cf_with_pointers").and_then(Json::as_f64),
            Some(direct.cf_with_pointers)
        );
        assert_eq!(
            result.get("rows").and_then(Json::as_u64),
            Some(direct.data.rows as u64)
        );
        assert_eq!(
            acc.get("pages_read").and_then(Json::as_u64),
            Some((disk.num_pages() as f64 * 0.1).round() as u64)
        );

        // The same request again is a hit with zero pages.
        let again = ok(
            &state,
            r#"{"op":"estimate","table":"svc_t","sampler":"block","fraction":0.1,"scheme":"dictionary-global","seed":7}"#,
        );
        let acc = again.get("accounting").unwrap();
        assert_eq!(acc.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(acc.get("pages_read").and_then(Json::as_u64), Some(0));
        assert_eq!(
            again.get("result").unwrap(),
            result,
            "hit is byte-identical"
        );
    }

    #[test]
    fn advise_matches_the_in_process_advisor_and_reports_naive_baseline() {
        let (path, _cleanup) = scratch_table("advise", 10_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        let reply = ok(
            &state,
            r#"{"op":"advise","table":"svc_t","sampler":"block","fraction":0.05,"seed":2,"candidates":[{"index":"idx_dict","scheme":"dictionary-global"},{"index":"idx_ns","scheme":"null-suppression"},{"index":"pk","scheme":"rle","clustered":true}]}"#,
        );
        let result = reply.get("result").unwrap();
        let recs = result
            .get("recommendations")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(recs.len(), 3);

        // Equal to CompressionAdvisor::plan over the same configuration.
        use samplecf_core::{AdvisorConfig, Candidate, CompressionAdvisor};
        use samplecf_storage::IntoShared;
        let disk = DiskTable::open(&path).unwrap().into_shared();
        let specs = [
            IndexSpec::nonclustered("idx_dict", ["a"]).unwrap(),
            IndexSpec::nonclustered("idx_ns", ["a"]).unwrap(),
            IndexSpec::clustered("pk", ["a"]).unwrap(),
        ];
        let schemes = [
            scheme_by_name("dictionary-global").unwrap(),
            scheme_by_name("null-suppression").unwrap(),
            scheme_by_name("rle").unwrap(),
        ];
        let candidates: Vec<Candidate<'_>> = specs
            .iter()
            .zip(&schemes)
            .map(|(spec, scheme)| Candidate::new(&disk, spec, scheme.as_ref()))
            .collect();
        let plan = CompressionAdvisor::new(AdvisorConfig {
            sampler: SamplerKind::Block(0.05),
            seed: 2,
            ..Default::default()
        })
        .unwrap()
        .plan(&candidates)
        .unwrap();
        for (rec, json) in plan.recommendations.iter().zip(recs) {
            assert_eq!(
                json.get("index").and_then(Json::as_str),
                Some(rec.index.as_str())
            );
            assert_eq!(
                json.get("estimated_cf").and_then(Json::as_f64),
                Some(rec.estimated_cf)
            );
            assert_eq!(
                json.get("estimated_compressed_bytes")
                    .and_then(Json::as_u64),
                Some(rec.estimated_compressed_bytes as u64)
            );
            assert_eq!(
                json.get("compress").and_then(Json::as_bool),
                Some(rec.compress)
            );
        }

        // Accounting: one draw shared by 3 candidates; naive = 3 draws.
        let acc = reply.get("accounting").unwrap();
        let pages = acc.get("pages_read").and_then(Json::as_u64).unwrap();
        assert_eq!(pages, plan.pages_read());
        assert_eq!(
            acc.get("naive_pages_read").and_then(Json::as_u64),
            Some(pages * 3)
        );
    }

    #[test]
    fn progressive_op_reports_checkpoints_and_bypasses_the_cache() {
        let (path, _cleanup) = scratch_table("progressive", 12_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        let reply = ok(
            &state,
            r#"{"op":"estimate_progressive","table":"svc_t","sampler":"block","fraction":0.2,"target_error":0.2,"seed":4}"#,
        );
        let result = reply.get("result").unwrap();
        assert!(result.get("cf").and_then(Json::as_f64).unwrap() > 0.0);
        let checkpoints = result.get("checkpoints").and_then(Json::as_array).unwrap();
        assert!(!checkpoints.is_empty());
        let acc = reply.get("accounting").unwrap();
        assert_eq!(acc.get("cache").and_then(Json::as_str), Some("bypass"));
        assert!(acc.get("pages_read").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            state.cache.stats().misses,
            0,
            "progressive bypasses the cache"
        );
    }

    #[test]
    fn stratified_estimate_matches_direct_and_deepens_in_the_cache() {
        // A value-clustered variable-length table: the case stratification
        // exists for, and the one where a pooled (unweighted) measurement
        // would actually diverge from the weighted combination.
        let path = std::env::temp_dir().join(format!(
            "samplecf_service_stratified_{}.scf",
            std::process::id()
        ));
        let table = presets::clustered_variable_table("svc_strat", 6_000, 32, 12, 5)
            .generate()
            .unwrap()
            .table;
        DiskTable::materialize(&path, &table).unwrap();
        let _cleanup = Cleanup(path.clone());
        let path = path.to_string_lossy().into_owned();

        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        let reply = ok(
            &state,
            r#"{"op":"estimate","table":"svc_strat","sampler":"stratified","fraction":0.1,"strata":6,"alloc":"prop","seed":11}"#,
        );
        let result = reply.get("result").unwrap();
        assert_eq!(
            reply
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("miss")
        );

        // Bit-identical to the in-process estimator, which routes stratified
        // kinds through the weighted progressive checkpoint.
        let disk = DiskTable::open(&path).unwrap();
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let kind = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 6,
            alloc: samplecf_sampling::Allocation::Proportional,
            mode: samplecf_sampling::StrataMode::EquiWidth,
        };
        let direct = SampleCf::new(kind)
            .seed(11)
            .estimate(
                &disk,
                &spec,
                scheme_by_name("null-suppression").unwrap().as_ref(),
            )
            .unwrap();
        assert_eq!(result.get("cf").and_then(Json::as_f64), Some(direct.cf));
        assert_eq!(
            result.get("cf_with_pointers").and_then(Json::as_f64),
            Some(direct.cf_with_pointers)
        );
        assert_eq!(
            result.get("rows").and_then(Json::as_u64),
            Some(direct.data.rows as u64)
        );
        assert_eq!(
            result.get("sampler").and_then(Json::as_str),
            Some(kind.label().as_str())
        );

        // Same configuration again: served from the cache, byte-identical.
        let again = ok(
            &state,
            r#"{"op":"estimate","table":"svc_strat","sampler":"stratified","fraction":0.1,"strata":6,"alloc":"prop","seed":11}"#,
        );
        assert_eq!(
            again
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("hit")
        );
        assert_eq!(again.get("result").unwrap(), result);

        // A deeper fraction with the same (strata, alloc, seed) extends the
        // cached prefix-stable stream instead of redrawing...
        let deeper = ok(
            &state,
            r#"{"op":"estimate","table":"svc_strat","sampler":"stratified","fraction":0.2,"strata":6,"alloc":"prop","seed":11}"#,
        );
        assert_eq!(
            deeper
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("deepened")
        );
        // ...and still matches a fresh direct estimate at the deep fraction.
        let deep_kind = SamplerKind::Stratified {
            fraction: 0.2,
            strata: 6,
            alloc: samplecf_sampling::Allocation::Proportional,
            mode: samplecf_sampling::StrataMode::EquiWidth,
        };
        let deep_direct = SampleCf::new(deep_kind)
            .seed(11)
            .estimate(
                &disk,
                &spec,
                scheme_by_name("null-suppression").unwrap().as_ref(),
            )
            .unwrap();
        assert_eq!(
            deeper
                .get("result")
                .unwrap()
                .get("cf")
                .and_then(Json::as_f64),
            Some(deep_direct.cf)
        );

        // A mismatched stratified config (different strata count) cannot
        // share the entry: it is a miss, not an error.
        let other = ok(
            &state,
            r#"{"op":"estimate","table":"svc_strat","sampler":"stratified","fraction":0.1,"strata":3,"alloc":"prop","seed":11}"#,
        );
        assert_eq!(
            other
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("miss")
        );
        // Bad allocation names are rejected up front.
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"estimate","table":"svc_strat","sampler":"stratified","alloc":"bogus"}"#
            ),
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn advise_and_estimate_agree_on_a_stratified_sample() {
        // Both ops measure the one cached sample the one way: a stratified
        // `advise` reports the weighted per-stratum CF `estimate` (and the
        // in-process `SampleCf::estimate`) report, not the pooled ratio.
        let path = std::env::temp_dir().join(format!(
            "samplecf_service_stratified_advise_{}.scf",
            std::process::id()
        ));
        let table = presets::clustered_variable_table("svc_strat_adv", 6_000, 32, 12, 5)
            .generate()
            .unwrap()
            .table;
        DiskTable::materialize(&path, &table).unwrap();
        let _cleanup = Cleanup(path.clone());
        let path = path.to_string_lossy().into_owned();
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));

        let disk = DiskTable::open(&path).unwrap();
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        for (alloc_name, alloc) in [
            ("prop", samplecf_sampling::Allocation::Proportional),
            ("neyman", samplecf_sampling::Allocation::Neyman),
        ] {
            let kind = SamplerKind::Stratified {
                fraction: 0.1,
                strata: 6,
                alloc,
                mode: samplecf_sampling::StrataMode::EquiWidth,
            };
            let sampler = format!(
                r#""table":"svc_strat_adv","sampler":"stratified","fraction":0.1,"strata":6,"alloc":"{alloc_name}","seed":11"#
            );
            let advise = ok(
                &state,
                &format!(
                    r#"{{"op":"advise",{sampler},"candidates":[{{"index":"i_rle","scheme":"rle"}},{{"index":"i_dict","scheme":"dictionary-paged"}},{{"index":"i_ns","scheme":"null-suppression"}}]}}"#
                ),
            );
            let recs = advise
                .get("result")
                .unwrap()
                .get("recommendations")
                .and_then(Json::as_array)
                .unwrap();
            for (rec, scheme_name) in
                recs.iter()
                    .zip(["rle", "dictionary-paged", "null-suppression"])
            {
                let estimate = ok(
                    &state,
                    &format!(r#"{{"op":"estimate",{sampler},"scheme":"{scheme_name}"}}"#),
                );
                let direct = SampleCf::new(kind)
                    .seed(11)
                    .estimate(&disk, &spec, scheme_by_name(scheme_name).unwrap().as_ref())
                    .unwrap();
                let advised = rec.get("estimated_cf").and_then(Json::as_f64);
                assert_eq!(advised, Some(direct.cf), "{alloc_name}/{scheme_name}");
                assert_eq!(
                    advised,
                    estimate
                        .get("result")
                        .unwrap()
                        .get("cf")
                        .and_then(Json::as_f64),
                    "{alloc_name}/{scheme_name}"
                );
            }
        }
    }

    #[test]
    fn equi_depth_estimates_do_not_alias_equi_width_cache_entries() {
        let path = std::env::temp_dir().join(format!(
            "samplecf_service_equi_depth_{}.scf",
            std::process::id()
        ));
        // Variable-length rows give ragged page fills, so equi-depth row
        // boundaries genuinely differ from equi-width page boundaries.
        let table = presets::clustered_variable_table("svc_depth", 6_000, 32, 12, 5)
            .generate()
            .unwrap()
            .table;
        DiskTable::materialize(&path, &table).unwrap();
        let _cleanup = Cleanup(path.clone());
        let path = path.to_string_lossy().into_owned();

        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));

        // Seed the cache with an equi-width stratified estimate.
        let width = ok(
            &state,
            r#"{"op":"estimate","table":"svc_depth","sampler":"stratified","fraction":0.1,"strata":6,"alloc":"prop","seed":11}"#,
        );
        assert_eq!(
            width
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("miss")
        );

        // The identical request with equi-depth strata must NOT be served
        // from (or deepen) the equi-width entry: different partition,
        // different sample, so it keys a fresh cache group.
        let depth = ok(
            &state,
            r#"{"op":"estimate","table":"svc_depth","sampler":"stratified","fraction":0.1,"strata":6,"alloc":"prop","strata_mode":"equi-depth","seed":11}"#,
        );
        assert_eq!(
            depth
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("miss"),
            "equi-depth must not alias the equi-width cache entry"
        );
        assert_eq!(state.cache.stats().misses, 2);
        assert_eq!(state.cache.stats().hits, 0);

        // The reply is bit-identical to the in-process estimator with the
        // equi-depth kind, and carries the de-aliased sampler label.
        let disk = DiskTable::open(&path).unwrap();
        let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
        let kind = SamplerKind::Stratified {
            fraction: 0.1,
            strata: 6,
            alloc: samplecf_sampling::Allocation::Proportional,
            mode: samplecf_sampling::StrataMode::EquiDepth,
        };
        let direct = SampleCf::new(kind)
            .seed(11)
            .estimate(
                &disk,
                &spec,
                scheme_by_name("null-suppression").unwrap().as_ref(),
            )
            .unwrap();
        let result = depth.get("result").unwrap();
        assert_eq!(result.get("cf").and_then(Json::as_f64), Some(direct.cf));
        assert_eq!(
            result.get("sampler").and_then(Json::as_str),
            Some(kind.label().as_str())
        );
        assert!(
            kind.label().contains("mode=equi-depth"),
            "equi-depth label must be distinguishable"
        );

        // Repeating the equi-depth request hits its own entry.
        let again = ok(
            &state,
            r#"{"op":"estimate","table":"svc_depth","sampler":"stratified","fraction":0.1,"strata":6,"alloc":"prop","strata_mode":"equi-depth","seed":11}"#,
        );
        assert_eq!(
            again
                .get("accounting")
                .unwrap()
                .get("cache")
                .and_then(Json::as_str),
            Some("hit")
        );
        assert_eq!(again.get("result").unwrap(), result);

        // Unknown strata modes are rejected up front.
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"estimate","table":"svc_depth","sampler":"stratified","strata_mode":"sideways"}"#
            ),
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn stratified_progressive_reports_algebra_variance_per_checkpoint() {
        let (path, _cleanup) = scratch_table("strat_prog", 10_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        let reply = ok(
            &state,
            r#"{"op":"estimate_progressive","table":"svc_t","sampler":"stratified","fraction":0.2,"strata":4,"alloc":"neyman","target_error":0.2,"seed":6}"#,
        );
        let result = reply.get("result").unwrap();
        let checkpoints = result.get("checkpoints").and_then(Json::as_array).unwrap();
        assert!(!checkpoints.is_empty());
        for c in checkpoints {
            assert_eq!(
                c.get("variance_source").and_then(Json::as_str),
                Some("algebra"),
                "stratified checkpoints carry the algebra variance: {c}"
            );
            let strata_rows = c.get("strata_rows").and_then(Json::as_array).unwrap();
            assert_eq!(strata_rows.len(), 4);
            let sum: u64 = strata_rows.iter().filter_map(Json::as_u64).sum();
            assert_eq!(c.get("rows").and_then(Json::as_u64), Some(sum));
        }
        // Unstratified runs keep the jackknife label (or null for a single
        // batch) and a null strata_rows.
        let uni = ok(
            &state,
            r#"{"op":"estimate_progressive","table":"svc_t","sampler":"uniform","fraction":0.2,"target_error":0.2,"seed":6}"#,
        );
        let checkpoints = uni
            .get("result")
            .unwrap()
            .get("checkpoints")
            .and_then(Json::as_array)
            .unwrap();
        for c in checkpoints {
            let source = c.get("variance_source").unwrap();
            assert!(
                matches!(source.as_str(), Some("jackknife") | None),
                "unexpected variance source {source}"
            );
            assert_eq!(c.get("strata_rows"), Some(&Json::Null));
        }
    }

    #[test]
    fn protocol_errors_carry_typed_codes() {
        let (path, _cleanup) = scratch_table("errors", 1_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        assert_eq!(err_code(&state, "not json"), codes::PARSE_ERROR);
        assert_eq!(err_code(&state, r#"{"no_op":1}"#), codes::BAD_REQUEST);
        assert_eq!(
            err_code(&state, r#"{"op":"frobnicate"}"#),
            codes::UNKNOWN_OP
        );
        assert_eq!(
            err_code(&state, r#"{"op":"estimate","table":"absent"}"#),
            codes::NO_SUCH_TABLE
        );
        assert_eq!(
            err_code(&state, r#"{"op":"register","path":"/no/such.scf"}"#),
            codes::STORAGE
        );
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"estimate","table":"svc_t","sampler":"warp-drive"}"#
            ),
            codes::BAD_REQUEST
        );
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"estimate","table":"svc_t","fraction":5.0}"#
            ),
            codes::ESTIMATE_FAILED
        );
        assert_eq!(
            err_code(&state, r#"{"op":"advise","table":"svc_t","candidates":[]}"#),
            codes::BAD_REQUEST
        );

        // The stats op reflects both the traffic and the error count.
        let stats = ok(&state, r#"{"op":"stats"}"#);
        let stats = stats.get("stats").unwrap();
        assert!(stats.get("errors").and_then(Json::as_u64).unwrap() >= 7);
        assert_eq!(
            stats
                .get("tables")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn request_thread_counts_do_not_change_any_response_byte() {
        // `"threads"` is a throughput dial: estimate and advise replies
        // must be byte-identical whether a request runs serially, on a
        // fixed pool, or on every core.
        let (path, _cleanup) = scratch_table("threads", 9_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES).with_estimator_threads(2);
        assert_eq!(state.estimator_threads(), 2);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));

        // Only `result` is compared: the cache accounting legitimately
        // flips from miss to hit between otherwise-identical requests.
        let estimate = |threads: &str| {
            ok(
                &state,
                &format!(
                    r#"{{"op":"estimate","table":"svc_t","sampler":"stratified","fraction":0.1,"strata":4,"seed":9{threads}}}"#
                ),
            )
        };
        let baseline = estimate(r#","threads":1"#);
        let baseline = baseline.get("result").unwrap();
        assert_eq!(
            Some(baseline),
            estimate("").get("result"),
            "daemon default matches serial"
        );
        assert_eq!(Some(baseline), estimate(r#","threads":8"#).get("result"));
        assert_eq!(
            Some(baseline),
            estimate(r#","threads":0"#).get("result"),
            "0 = all cores"
        );

        let advise = |threads: &str| {
            ok(
                &state,
                &format!(
                    r#"{{"op":"advise","table":"svc_t","sampler":"block","fraction":0.05,"seed":3{threads},"candidates":[{{"index":"i1","scheme":"dictionary-global"}},{{"index":"i2","scheme":"null-suppression"}},{{"index":"i3","scheme":"rle"}}]}}"#
                ),
            )
        };
        assert_eq!(
            advise(r#","threads":1"#).get("result"),
            advise(r#","threads":4"#).get("result")
        );
    }

    #[test]
    fn shutdown_op_raises_the_flag() {
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        assert!(!state.shutdown_requested());
        ok(&state, r#"{"op":"shutdown"}"#);
        assert!(state.shutdown_requested());
    }

    /// Pins the `stats.server` object shape: these names are consumed by
    /// the committed BENCH_server.json validation, the CI python gate, and
    /// `samplecf top` — additions go at the end of this list, renames are
    /// breaking.
    #[test]
    fn stats_server_object_shape_is_pinned() {
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        let reply = ok(&state, r#"{"op":"stats"}"#);
        let stats = reply.get("stats").unwrap();
        let top_keys: Vec<&str> = match stats {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("stats is not an object: {other}"),
        };
        assert_eq!(
            top_keys,
            [
                "uptime_seconds",
                "tables",
                "requests",
                "errors",
                "cache",
                "server",
                "latency"
            ]
        );
        let server_keys: Vec<&str> = match stats.get("server").unwrap() {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("server is not an object: {other}"),
        };
        assert_eq!(
            server_keys,
            [
                "open_connections",
                "connections_accepted",
                "connections_rejected",
                "busy_rejections",
                "queue_depth",
                "queue_depth_max",
                "queue_capacity",
                "max_connections",
            ]
        );
    }

    /// The queue-depth gauge is a high-watermark: `queue_depth_max`
    /// reports the deepest point since the previous stats snapshot, not
    /// the (racy) last write.
    #[test]
    fn queue_depth_max_is_a_high_watermark_reset_per_snapshot() {
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        state.gauges.set_queue_depth(7);
        state.gauges.set_queue_depth(2);
        let depth = |reply: &Json, key: &str| {
            reply
                .get("stats")
                .and_then(|s| s.get("server"))
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap()
        };
        let first = ok(&state, r#"{"op":"stats"}"#);
        assert_eq!(depth(&first, "queue_depth"), 2, "current survives the max");
        assert_eq!(depth(&first, "queue_depth_max"), 7, "max since start");
        let second = ok(&state, r#"{"op":"stats"}"#);
        assert_eq!(
            depth(&second, "queue_depth_max"),
            2,
            "the watermark resets to the current depth at each snapshot"
        );
    }

    #[test]
    fn metrics_op_exposes_request_counters_and_latency_histograms() {
        let (path, _cleanup) = scratch_table("metrics", 6_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        ok(
            &state,
            r#"{"op":"estimate","table":"svc_t","sampler":"block","fraction":0.1,"scheme":"rle","seed":3}"#,
        );
        let reply = ok(&state, r#"{"op":"metrics"}"#);
        let text = reply
            .get("exposition")
            .and_then(Json::as_str)
            .expect("metrics reply carries the exposition text");
        for needle in [
            "samplecf_requests_total{op=\"register\"} 1",
            "samplecf_requests_total{op=\"estimate\"} 1",
            "samplecf_request_duration_ns_count{op=\"estimate\"} 1",
            "samplecf_stage_duration_ns_count{stage=\"execute\"} 2",
            "samplecf_cache_misses_total{shard=",
            "samplecf_catalog_hits_total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The registry handed to the server is the one the service uses:
        // an in-process harness can clone it and assert directly.
        let snap = state.metrics.snapshot();
        assert_eq!(
            snap.get("samplecf_requests_total{op=\"estimate\"}"),
            Some(&samplecf_obs::MetricValue::Counter(1))
        );
    }

    /// Stage accounting is internally consistent: the stages measured
    /// inside `handle_line_traced` can never exceed the request's
    /// end-to-end clock.
    #[test]
    fn stage_nanos_are_bounded_by_the_total() {
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        let mut timings = StageTimings::start();
        let (_response, kind) = state.handle_line_traced(r#"{"op":"stats"}"#, &mut timings);
        assert_eq!(kind, RequestKind::Stats);
        let total = state.observe_request(kind, &timings);
        let staged: u64 = timings.recorded().map(|(_, n)| n).sum();
        assert!(
            staged <= total,
            "stage sum {staged}ns exceeds request total {total}ns"
        );
    }
}
