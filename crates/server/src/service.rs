//! The shared state of one service instance, and its line-level front.
//!
//! [`ServiceState`] is everything a `samplecfd` shares across connections —
//! the table catalog, the concurrent sample cache (one lock, one byte
//! budget), the one instrument set and the shutdown flag.  Nothing here
//! starts a thread: a request runs on its caller's, so the daemon's worker
//! pool is its only parallelism.  [`ServiceState::handle_line`] is the whole
//! protocol state machine, independent of any transport: parse the line
//! into a typed [`Request`], [`execute`](ServiceState::execute) it, render
//! the typed [`Response`](crate::Response).  The TCP layer
//! ([`crate::server`]) feeds it lines; the `samplecf` CLI calls `execute`
//! on a private instance, so a one-shot and a served answer are one value.

use crate::cache::ConcurrentSampleCache;
use crate::catalog::TableCatalog;
use crate::json::Json;
use crate::protocol::{codes, error_response, ApiError, Request, RequestKind};
use samplecf_core::KeyOrderOutcome::{self, Held, Merged, Sorted};
use samplecf_obs::{
    Counter, Gauge, Histogram, HwmGauge, MetricsRegistry, Span, Stage, StageTimings,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The service's one instrument set: every handle is a cell of the
/// daemon-wide [`MetricsRegistry`] (names in `docs/OBSERVABILITY.md`), so
/// the `stats` op, the `metrics` exposition and an in-process harness all
/// read the same numbers.  Per-kind and per-stage instruments are arrays
/// indexed by [`RequestKind`] / [`Stage`].
#[derive(Debug)]
pub struct Instruments {
    /// Requests dispatched per kind (`samplecf_requests_total{op="..."}`).
    /// `invalid` lines never reach dispatch, so that slot is detached.
    requests: [Counter; RequestKind::ALL.len()],
    /// Requests answered with an error (`samplecf_request_errors_total`).
    errors: Counter,
    /// End-to-end latency per request kind
    /// (`samplecf_request_duration_ns{op="..."}`).
    request_duration: [Histogram; RequestKind::ALL.len()],
    /// Wall time per stage, summed over requests
    /// (`samplecf_stage_duration_ns{stage="..."}`).
    stage_duration: [Histogram; Stage::ALL.len()],
    /// Requests slower than the configured threshold
    /// (`samplecf_slow_requests_total`).
    pub(crate) slow_requests: Counter,
    /// Pages-read distribution of progressive runs, one sample per
    /// completed run (`samplecf_source_pages_read{source="progressive"}`).
    pub(crate) progressive_pages: Histogram,
    /// Progressive estimator instruments, shared with the core crate.
    pub(crate) progressive: samplecf_core::ProgressiveMetrics,
    /// Shared-sample accounting of `advise` requests: pages actually read.
    pub(crate) advisor_pages_read: Counter,
    /// Pages a naive per-candidate redraw would have read.
    pub(crate) advisor_naive_pages: Counter,
    /// Candidates evaluated by `advise` requests.
    pub(crate) advisor_candidates: Counter,
    /// Sorts those evaluations made, of every row or of the rows a deepening
    /// added: at most one per key per request, none for a key whose order
    /// the sample held over every row.
    pub(crate) advisor_key_sorts: Counter,
    /// Measures of a held sample by how they came by their key order
    /// (`samplecf_key_orders_total{outcome="held"|"merged"|"sorted"}`), in
    /// [`KeyOrderOutcome`] order: `estimate` and `advise` alike.
    key_orders: [Counter; 3],
    /// Requests whose answering panicked (`samplecf_panics_total`).
    pub(crate) panics: Counter,
    // The connection plane, maintained by the event loop.
    pub(crate) open_connections: Gauge,
    pub(crate) connections_accepted: Counter,
    pub(crate) connections_rejected: Counter,
    pub(crate) busy_rejections: Counter,
    /// A high-watermark gauge: the depth is written from both the event
    /// loop (enqueue) and the worker drain path, and a last-write-wins
    /// gauge silently erased spikes between two `stats` snapshots.
    queue_depth: HwmGauge,
    pub(crate) queue_capacity: Gauge,
    pub(crate) max_connections: Gauge,
}

impl Instruments {
    fn register_in(registry: &MetricsRegistry) -> Self {
        // A constant of the host, not a measurement: which checksum kernel
        // every page read of this process runs.
        registry
            .gauge(&format!(
                "samplecf_storage_crc32_kernel{{kernel=\"{}\"}}",
                samplecf_storage::disk::crc32_kernel()
            ))
            .set(1);
        Instruments {
            requests: RequestKind::ALL.map(|kind| match kind {
                RequestKind::Invalid => Counter::default(),
                kind => registry.counter(&format!(
                    "samplecf_requests_total{{op=\"{}\"}}",
                    kind.name()
                )),
            }),
            errors: registry.counter("samplecf_request_errors_total"),
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
            advisor_key_sorts: registry.counter("samplecf_advisor_key_sorts_total"),
            key_orders: [Held, Merged, Sorted].map(|outcome: KeyOrderOutcome| {
                registry.counter(&format!(
                    "samplecf_key_orders_total{{outcome=\"{}\"}}",
                    outcome.label()
                ))
            }),
            panics: registry.counter("samplecf_panics_total"),
            open_connections: registry.gauge("samplecf_connections_open"),
            connections_accepted: registry.counter("samplecf_connections_accepted_total"),
            connections_rejected: registry.counter("samplecf_connections_rejected_total"),
            busy_rejections: registry.counter("samplecf_busy_rejections_total"),
            queue_depth: registry.hwm_gauge("samplecf_queue_depth"),
            queue_capacity: registry.gauge("samplecf_queue_capacity"),
            max_connections: registry.gauge("samplecf_max_connections"),
        }
    }

    /// The counter of measures whose key order came about as `outcome`.
    pub(crate) fn key_orders(&self, outcome: KeyOrderOutcome) -> &Counter {
        &self.key_orders[outcome as usize]
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
}

/// The shared state of one running `samplecfd` instance.
pub struct ServiceState {
    /// Registered tables.
    pub catalog: TableCatalog,
    /// The shared, evicting sample cache.
    pub cache: ConcurrentSampleCache,
    /// The service's instruments: request counters and latency, the
    /// estimator's, and the transport gauges the event loop maintains.
    pub gauges: Instruments,
    /// The daemon-wide metrics registry.  Every layer's instruments —
    /// catalog, cache, [`Instruments`] — registers here, and the `metrics`
    /// op renders it as text exposition.  `Arc`-shared under the hood, so an
    /// in-process load harness can clone the handle and assert on it.
    pub metrics: MetricsRegistry,
    started: Instant,
    shutdown: AtomicBool,
}

impl ServiceState {
    /// Fresh state with an empty catalog and a cache of the given budget.
    /// Builds the [`MetricsRegistry`] every layer's instruments feed.
    #[must_use]
    pub fn new(cache_budget_bytes: usize) -> Self {
        let registry = MetricsRegistry::new();
        ServiceState {
            catalog: TableCatalog::with_registry(&registry),
            cache: ConcurrentSampleCache::with_registry(cache_budget_bytes, &registry),
            gauges: Instruments::register_in(&registry),
            metrics: registry,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
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

    /// Handle one request line — parse, [`execute`](Self::execute), render
    /// — attributing each step's wall time to `timings`, and returning the
    /// response line plus the request's classified kind.  Does **not**
    /// record into the registry — the caller observes the finished timings
    /// via [`Self::observe_request`] once the request's life is over.
    pub fn handle_line_traced(
        &self,
        line: &str,
        timings: &mut StageTimings,
    ) -> (String, RequestKind) {
        let (kind, request) = {
            let _parse = Span::enter(timings, Stage::Parse);
            self.parse_line(line)
        };
        let response = {
            let _execute = Span::enter(timings, Stage::Execute);
            request.and_then(|request| self.execute(&request))
        };
        let _serialize = Span::enter(timings, Stage::Serialize);
        let line = match response {
            Ok(response) => response.to_json(),
            Err(e) => {
                self.gauges.errors.inc();
                error_response(&e)
            }
        }
        .to_line();
        (line, kind)
    }

    /// Parse one line into a typed request, counting it under its kind as
    /// soon as the `"op"` is known (so a malformed `estimate` still counts
    /// as an `estimate`).
    fn parse_line(&self, line: &str) -> (RequestKind, Result<Request, ApiError>) {
        let json = match Json::parse(line.trim()) {
            Ok(json) => json,
            Err(e) => {
                let error = ApiError::new(codes::PARSE_ERROR, format!("invalid JSON: {e}"));
                return (RequestKind::Invalid, Err(error));
            }
        };
        match RequestKind::of(&json) {
            Ok(kind) => {
                self.gauges.requests[kind.index()].inc();
                (kind, Request::parse_as(kind, &json))
            }
            Err(e) => (RequestKind::Invalid, Err(e)),
        }
    }

    /// Record one finished request into the per-kind and per-stage latency
    /// histograms.  Returns the request's end-to-end nanoseconds (measured
    /// from `timings`' start) so the caller can apply its slow-request
    /// threshold.
    pub fn observe_request(&self, kind: RequestKind, timings: &StageTimings) -> u64 {
        let total = timings.total_nanos();
        self.gauges.request_duration[kind.index()].record(total);
        let mut staged = 0u64;
        for (stage, nanos) in timings.recorded() {
            self.gauges.stage_duration[stage.index()].record(nanos);
            staged = staged.saturating_add(nanos);
        }
        // Whatever the request clock saw that no explicit span claimed is
        // the completion-drain wait: time spent in the worker → event-loop
        // completion queue before the loop observed the response.  Making
        // it a real stage keeps per-request stage sums exactly equal to
        // the end-to-end total, so per-stage histograms fully account for
        // tail latency instead of explaining only part of it.
        self.gauges.stage_duration[Stage::Drain.index()].record(total.saturating_sub(staged));
        total
    }

    /// Record one stage observation outside any per-request timings (e.g.
    /// the event loop's accept and write stages).
    pub fn observe_stage(&self, stage: Stage, d: std::time::Duration) {
        self.gauges.stage_duration[stage.index()].record_duration(d);
    }

    /// The `stats` object: a snapshot of the catalog, the cache and the
    /// instrument set.
    pub(crate) fn stats_json(&self) -> Json {
        let cache = self.cache.stats();
        let g = &self.gauges;
        let server = Json::obj()
            .field("open_connections", g.open_connections.get())
            .field("connections_accepted", g.connections_accepted.get())
            .field("connections_rejected", g.connections_rejected.get())
            .field("busy_rejections", g.busy_rejections.get())
            .field("queue_depth", g.queue_depth.current())
            // Destructive: each snapshot resets the watermark to the
            // current depth.
            .field("queue_depth_max", g.queue_depth.take_max())
            .field("queue_capacity", g.queue_capacity.get())
            .field("max_connections", g.max_connections.get());
        let (mut requests, mut total, mut latency) = (Json::obj(), 0u64, Json::obj());
        for kind in RequestKind::ALL {
            if kind != RequestKind::Invalid {
                let count = g.requests[kind.index()].get();
                requests = requests.field(kind.name(), count);
                total += count;
            }
            // Kinds that have seen no requests are omitted so the object
            // stays small on a fresh server.
            let snap = g.request_duration[kind.index()].snapshot();
            if snap.count > 0 {
                let quantiles = Json::obj()
                    .field("count", snap.count)
                    .field("p50_ns", snap.quantile(0.50) as u64)
                    .field("p95_ns", snap.quantile(0.95) as u64)
                    .field("p99_ns", snap.quantile(0.99) as u64);
                latency = latency.field(kind.name(), quantiles);
            }
        }
        let cache = Json::obj()
            .field("entries", cache.entries)
            .field("bytes", cache.bytes)
            .field("budget_bytes", cache.budget_bytes)
            .field("hits", cache.hits)
            .field("misses", cache.misses)
            .field("deepened", cache.deepened)
            .field("evictions", cache.evictions)
            .field("coalesced_waits", cache.coalesced_waits)
            .field("pages_read", cache.pages_read);
        let tables = self.catalog.names().into_iter().map(Json::Str);
        Json::obj()
            .field("uptime_seconds", self.started.elapsed().as_secs_f64())
            .field("tables", Json::Arr(tables.collect()))
            .field("requests", requests.field("total", total))
            .field("errors", g.errors.get())
            .field("cache", cache)
            .field("server", server)
            .field("latency", latency)
    }
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
    use samplecf_compression::{scheme_by_name, CompressionScheme};
    use samplecf_core::SampleCf;
    use samplecf_datagen::presets;
    use samplecf_index::IndexSpec;
    use samplecf_sampling::SamplerKind;
    use samplecf_storage::Table;
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
        Table::materialize(&path, &table).unwrap();
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
        let disk = Table::open(&path).unwrap();
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

    /// The candidates of the `advise` requests below (`idx_dict`, `idx_ns`,
    /// `pk`), as the in-process advisor takes them.
    fn three_candidates() -> Vec<(IndexSpec, Box<dyn CompressionScheme>)> {
        vec![
            (
                IndexSpec::nonclustered("idx_dict", ["a"]).unwrap(),
                scheme_by_name("dictionary-global").unwrap(),
            ),
            (
                IndexSpec::nonclustered("idx_ns", ["a"]).unwrap(),
                scheme_by_name("null-suppression").unwrap(),
            ),
            (
                IndexSpec::clustered("pk", ["a"]).unwrap(),
                scheme_by_name("rle").unwrap(),
            ),
        ]
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

        // Equal to CompressionAdvisor::plan over the same sample, held.
        use samplecf_core::{AdvisorConfig, CompressionAdvisor};
        use samplecf_sampling::MaterializedSample;
        use samplecf_storage::CountingSource;
        let disk = Table::open(&path).unwrap();
        let candidates = three_candidates();
        let counting = CountingSource::new(&disk);
        let sample = MaterializedSample::draw(&counting, SamplerKind::Block(0.05), 2).unwrap();
        let plan = CompressionAdvisor::new(AdvisorConfig::default())
            .unwrap()
            .plan(&[(&sample, counting.pages_read(), &candidates)])
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
    fn served_advise_equals_the_held_sample_plan_for_every_cache_disposition() {
        use crate::protocol::CacheDisposition;
        use crate::response::{Accounting, Measured, Response};
        use samplecf_core::{AdvisorConfig, CompressionAdvisor};
        use samplecf_sampling::{Allocation, MaterializedSample, StrataMode};
        use samplecf_storage::CountingSource;
        let (path, _cleanup) = scratch_table("dispositions", 10_000);
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));
        let disk = Table::open(&path).unwrap();
        let listed = r#"[{"index":"idx_dict","scheme":"dictionary-global"},{"index":"idx_ns","scheme":"null-suppression"},{"index":"pk","scheme":"rle","clustered":true}]"#;
        let candidates = three_candidates();
        type Family = fn(f64) -> SamplerKind;
        let neyman: Family = |fraction| SamplerKind::Stratified {
            fraction,
            strata: 4,
            alloc: Allocation::Neyman,
            mode: StrataMode::EquiWidth,
        };
        let families: [(&str, Family); 4] = [
            (r#""sampler":"block""#, SamplerKind::Block),
            (
                r#""sampler":"uniform""#,
                SamplerKind::UniformWithReplacement,
            ),
            (
                r#""sampler":"uniform-wor""#,
                SamplerKind::UniformWithoutReplacement,
            ),
            (
                r#""sampler":"stratified","strata":4,"alloc":"neyman""#,
                neyman,
            ),
        ];
        for (fields, family) in families {
            let request = |op: &str, fraction: f64, rest: &str| {
                ok(
                    &state,
                    &format!(
                        r#"{{"op":"{op}","table":"svc_t",{fields},"fraction":{fraction},"seed":2{rest}}}"#
                    ),
                )
            };
            let advise =
                |fraction| request("advise", fraction, &format!(r#","candidates":{listed}"#));
            // The served reply against the plan over a fresh draw at the
            // same fraction and seed, rendered the one way a plan renders.
            let check = |reply: Json, fraction: f64, disposition: &str| {
                let kind = family(fraction);
                let counting = CountingSource::new(&disk);
                let sample = MaterializedSample::draw(&counting, kind, 2).unwrap();
                let fresh_pages = counting.pages_read();
                let plan = CompressionAdvisor::new(AdvisorConfig::default())
                    .unwrap()
                    .plan(&[(&sample, fresh_pages, &candidates)])
                    .unwrap();
                let expected = Response::Advise {
                    sample: Measured {
                        table: "svc_t".into(),
                        sampler: kind,
                        seed: 2,
                    },
                    plan,
                    accounting: Accounting {
                        pages_read: 0,
                        cache: CacheDisposition::Hit,
                        sample_rows: None,
                    },
                }
                .to_json();
                assert_eq!(
                    reply.get("result"),
                    expected.get("result"),
                    "{kind:?}, {disposition}"
                );
                let acc = reply.get("accounting").unwrap();
                assert_eq!(
                    acc.get("cache").and_then(Json::as_str),
                    Some(disposition),
                    "{kind:?}"
                );
                assert_eq!(
                    acc.get("naive_pages_read").and_then(Json::as_u64),
                    Some(3 * fresh_pages),
                    "{kind:?}, {disposition}"
                );
            };
            check(advise(0.05), 0.05, "miss");
            check(advise(0.05), 0.05, "hit");
            let estimate = request("estimate", 0.05, "");
            assert_eq!(
                estimate
                    .get("accounting")
                    .and_then(|a| a.get("cache"))
                    .and_then(Json::as_str),
                Some("hit"),
                "{fields}"
            );
            check(advise(0.1), 0.1, "deepened");
        }
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

        // Every checkpoint is counted under the route its scheme picked:
        // null suppression (the default) prices cell sums, a dictionary
        // walks the key order (`tree`).
        let priced = |route: &str| {
            let name = format!("samplecf_progressive_pricing_total{{route=\"{route}\"}}");
            match state.metrics.snapshot().get(&name) {
                Some(samplecf_obs::MetricValue::Counter(n)) => *n,
                other => panic!("{name} is not a counter: {other:?}"),
            }
        };
        assert_eq!(
            (priced("cell_sums"), priced("tree")),
            (checkpoints.len() as u64, 0)
        );
        let reply = ok(
            &state,
            r#"{"op":"estimate_progressive","table":"svc_t","sampler":"block","fraction":0.2,"target_error":0.2,"scheme":"dictionary-paged","seed":4}"#,
        );
        let result = reply.get("result").unwrap();
        let paged = result.get("checkpoints").and_then(Json::as_array).unwrap();
        assert_eq!(
            (priced("cell_sums"), priced("tree")),
            (checkpoints.len() as u64, paged.len() as u64)
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
        Table::materialize(&path, &table).unwrap();
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
        let disk = Table::open(&path).unwrap();
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
        Table::materialize(&path, &table).unwrap();
        let _cleanup = Cleanup(path.clone());
        let path = path.to_string_lossy().into_owned();
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        ok(&state, &format!(r#"{{"op":"register","path":"{path}"}}"#));

        let disk = Table::open(&path).unwrap();
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
        Table::materialize(&path, &table).unwrap();
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
        let disk = Table::open(&path).unwrap();
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
    fn stratified_progressive_reports_design_variance_per_checkpoint() {
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
                Some("design"),
                "stratified null-suppression checkpoints carry the design variance: {c}"
            );
            let strata_rows = c.get("strata_rows").and_then(Json::as_array).unwrap();
            assert_eq!(strata_rows.len(), 4);
            let sum: u64 = strata_rows.iter().filter_map(Json::as_u64).sum();
            assert_eq!(c.get("rows").and_then(Json::as_u64), Some(sum));
        }
        // A walked scheme's CF is not a sum of row costs: no interval, so
        // no variance source, at any checkpoint.
        let dictionary = ok(
            &state,
            r#"{"op":"estimate_progressive","table":"svc_t","sampler":"stratified","fraction":0.2,"strata":4,"alloc":"neyman","scheme":"dictionary-paged","target_error":0.2,"seed":6}"#,
        );
        let checkpoints = dictionary.get("result").unwrap().get("checkpoints");
        for c in checkpoints.and_then(Json::as_array).unwrap() {
            assert_eq!(c.get("variance_source"), Some(&Json::Null), "{c}");
            assert_eq!(c.get("half_width"), Some(&Json::Null), "{c}");
        }
        // Unstratified runs carry the same design label and a null
        // strata_rows.
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
            assert_eq!(source.as_str(), Some("design"), "{source}");
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
            codes::BAD_REQUEST
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
    fn a_panicking_request_is_answered_internal_and_its_worker_lives_on() {
        use crate::cache::tests::PanickingReads;
        use crate::catalog::CatalogEntry;
        use crate::server::{Server, ServerConfig};
        use std::io::{BufRead, BufReader, Write};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let (path, _cleanup) = scratch_table("panic", 4_000);
        // One worker: if the panic took it, nothing would answer again.
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", config).unwrap();
        let state = Arc::clone(handle.state());
        let entry = state.catalog.register(&path, None).unwrap();
        let panicking = PanickingReads {
            inner: Arc::clone(&entry.shared),
            armed: AtomicBool::new(true),
            released: AtomicBool::new(true),
        };
        let shared: samplecf_storage::SharedSource = Arc::new(panicking);
        state
            .catalog
            .insert("boom", CatalogEntry { shared, ..entry });

        let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        // A worker lost to the panic would leave the reply unwritten.
        let deadline = Some(std::time::Duration::from_secs(30));
        stream.set_read_timeout(deadline).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut call = |line: &str| {
            (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim()).unwrap()
        };
        let estimate = |table: &str| {
            format!(
                r#"{{"op":"estimate","table":"{table}","sampler":"block","fraction":0.1,"seed":1}}"#
            )
        };
        let failed = call(&estimate("boom"));
        let error = failed.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some(codes::INTERNAL)
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("injected page-read panic"), "{message}");
        // The one worker answers again, on the same connection: the table
        // that panicked (its draw left no in-flight marker) and another.
        for table in ["boom", "svc_t"] {
            let reply = call(&estimate(table));
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{reply}"
            );
            let acc = reply.get("accounting").unwrap();
            assert_eq!(acc.get("cache").and_then(Json::as_str), Some("miss"));
        }
        let panics = state.metrics.snapshot();
        assert_eq!(
            panics.get("samplecf_panics_total"),
            Some(&samplecf_obs::MetricValue::Counter(1))
        );
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn shutdown_op_raises_the_flag() {
        let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
        assert!(!state.shutdown_requested());
        ok(&state, r#"{"op":"shutdown"}"#);
        assert!(state.shutdown_requested());
    }

    /// Pins the `stats.server` object shape: these names are consumed by
    /// `samplecf top` and the `perfbench/` harness — additions go at the
    /// end of this list, renames are breaking.
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
            "samplecf_cache_misses_total 1\n",
            "samplecf_catalog_hits_total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let kernel = format!(
            "samplecf_storage_crc32_kernel{{kernel=\"{}\"}} 1\n",
            samplecf_storage::disk::crc32_kernel()
        );
        assert!(text.contains(&kernel), "missing {kernel:?} in:\n{text}");
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
