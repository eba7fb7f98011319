//! The named metrics registry and its scalar instruments.
//!
//! A [`MetricsRegistry`] maps metric names (labels embedded in the name,
//! e.g. `samplecf_requests_total{op="estimate"}`) to atomic instruments.
//! The map itself sits behind a mutex that is touched only at registration
//! and snapshot time; hot-path recording goes through pre-registered `Arc`
//! handles and is lock-free.  A default (unregistered) handle has no inner
//! `Arc` and records nothing, so code that carries instruments it may never
//! register pays one branch per call — the same API, no `#[cfg]`s.

use crate::histogram::{bucket_le, Histogram, HistogramCore, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Increase by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Decrease by `n` (saturating at zero under single-writer use;
    /// concurrent over-subtraction wraps like the underlying atomic).
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HwmCore {
    current: AtomicU64,
    max: AtomicU64,
}

/// A high-watermark gauge: tracks the current value *and* the maximum seen
/// since the watermark was last taken.  This replaces last-write-wins
/// gauges written from racing paths (e.g. queue depth set from both the
/// event loop and the worker drain): every writer publishes through
/// `fetch_max`, so a depth spike between two snapshots is never lost.
#[derive(Debug, Clone, Default)]
pub struct HwmGauge {
    core: Option<Arc<HwmCore>>,
}

impl HwmGauge {
    /// Publish a new current value, raising the watermark if it is higher.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(core) = &self.core {
            core.current.store(v, Ordering::Relaxed);
            core.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The most recently published value.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.current.load(Ordering::Relaxed))
    }

    /// The maximum value published since the last [`Self::take_max`] (or
    /// since creation).  Non-destructive.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.max.load(Ordering::Relaxed))
    }

    /// The watermark since the last call, resetting it to the current
    /// value.  `stats`-style consumers call this once per snapshot.
    #[must_use]
    pub fn take_max(&self) -> u64 {
        match &self.core {
            Some(core) => {
                let max = core.max.load(Ordering::Relaxed);
                // Reset to the live value so the next interval starts from
                // reality rather than zero.  A concurrent set() between the
                // load and the store re-raises via fetch_max on its side,
                // and at worst the reset keeps a value the interval did see.
                core.max
                    .store(core.current.load(Ordering::Relaxed), Ordering::Relaxed);
                max
            }
            None => 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hwm(Arc<HwmCore>),
    Histogram(Arc<HistogramCore>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Hwm(_) => "hwm_gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// The value of one metric in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A high-watermark gauge: `(current, max_since_creation_or_reset)`.
    Hwm(u64, u64),
    /// A histogram's buckets, sum and count (boxed: the fixed bucket
    /// array is ~7.7 KiB, far larger than the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One named metric in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Metric name, labels included (`name{key="value"}`).
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Captured metrics in name order.
    pub entries: Vec<SnapshotEntry>,
}

impl RegistrySnapshot {
    /// Look up an entry by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Render the snapshot as Prometheus-style text exposition.
    ///
    /// Counters and gauges render as `name value`; a high-watermark gauge
    /// additionally renders its running watermark under `name_hwm`; a
    /// histogram renders cumulative `name_bucket{le="..."}` lines (buckets
    /// with no observations are elided except the terminal `+Inf`), then
    /// `name_sum` and `name_count`.  Output is sorted by metric name and
    /// fully deterministic.
    #[must_use]
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            match &entry.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", entry.name);
                }
                MetricValue::Hwm(current, max) => {
                    let _ = writeln!(out, "{} {current}", entry.name);
                    let _ = writeln!(out, "{} {max}", suffixed(&entry.name, "_hwm"));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        if let Some(le) = bucket_le(i) {
                            let _ = writeln!(
                                out,
                                "{} {cumulative}",
                                labeled(&suffixed(&entry.name, "_bucket"), &format!("le=\"{le}\""))
                            );
                        }
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        labeled(&suffixed(&entry.name, "_bucket"), "le=\"+Inf\""),
                        h.count
                    );
                    let _ = writeln!(out, "{} {}", suffixed(&entry.name, "_sum"), h.sum);
                    let _ = writeln!(out, "{} {}", suffixed(&entry.name, "_count"), h.count);
                }
            }
        }
        out
    }
}

/// Insert a suffix into a metric name before any `{labels}` part:
/// `req{op="x"}` + `_sum` → `req_sum{op="x"}`.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(brace) => format!("{}{}{}", &name[..brace], suffix, &name[brace..]),
        None => format!("{name}{suffix}"),
    }
}

/// Add a label to a metric name, appending to an existing label set:
/// `req_bucket{op="x"}` + `le="4"` → `req_bucket{op="x",le="4"}`.
fn labeled(name: &str, label: &str) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{label}}}"),
        None => format!("{name}{{{label}}}"),
    }
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Slot>>,
}

/// The registry: see the [crate docs](crate) for the design.
///
/// Cloning shares the underlying map (`Arc`), so the daemon's service
/// state, its worker pool and an in-process load harness can all hold the
/// same registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut metrics = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Get or register the counter `name`.  Re-registering the same name
    /// returns a handle to the same underlying cell.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Arc::new(AtomicU64::new(0)))) {
            Slot::Counter(cell) => Counter { cell: Some(cell) },
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Get or register the gauge `name` (same idempotence and panic rules
    /// as [`Self::counter`]).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Arc::new(AtomicU64::new(0)))) {
            Slot::Gauge(cell) => Gauge { cell: Some(cell) },
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Get or register the high-watermark gauge `name` (same idempotence
    /// and panic rules as [`Self::counter`]).
    #[must_use]
    pub fn hwm_gauge(&self, name: &str) -> HwmGauge {
        let make = || {
            Slot::Hwm(Arc::new(HwmCore {
                current: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }))
        };
        match self.slot(name, make) {
            Slot::Hwm(core) => HwmGauge { core: Some(core) },
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Get or register the histogram `name` (same idempotence and panic
    /// rules as [`Self::counter`]).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || Slot::Histogram(Arc::new(HistogramCore::new()))) {
            Slot::Histogram(core) => Histogram { core: Some(core) },
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Capture every registered metric, sorted by name.  Takes the
    /// registration lock briefly; recording proceeds concurrently.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self
            .inner
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entries = metrics
            .iter()
            .map(|(name, slot)| SnapshotEntry {
                name: name.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    Slot::Hwm(h) => MetricValue::Hwm(
                        h.current.load(Ordering::Relaxed),
                        h.max.load(Ordering::Relaxed),
                    ),
                    Slot::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        RegistrySnapshot { entries }
    }

    /// Shorthand for `self.snapshot().expose()`.
    #[must_use]
    pub fn expose(&self) -> String {
        self.snapshot().expose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        r.counter("requests").add(2);
        r.counter("requests").add(3);
        assert_eq!(r.counter("requests").get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered as counter")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn hwm_tracks_and_resets_the_watermark() {
        let r = MetricsRegistry::new();
        let w = r.hwm_gauge("depth");
        w.set(3);
        w.set(9);
        w.set(2);
        assert_eq!(w.current(), 2);
        assert_eq!(w.take_max(), 9);
        // After the take, the watermark restarts from the live value.
        assert_eq!(w.max(), 2);
        w.set(5);
        assert_eq!(w.take_max(), 5);
    }

    #[test]
    fn exposition_formats_each_kind() {
        let r = MetricsRegistry::new();
        r.counter("samplecf_requests_total{op=\"estimate\"}").add(4);
        r.gauge("samplecf_tables").set(2);
        let w = r.hwm_gauge("samplecf_queue_depth");
        w.set(6);
        w.set(1);
        let h = r.histogram("samplecf_latency_ns{op=\"info\"}");
        h.record(1);
        h.record(3);
        h.record(4);
        let text = r.expose();
        assert!(text.contains("samplecf_requests_total{op=\"estimate\"} 4\n"));
        assert!(text.contains("samplecf_tables 2\n"));
        assert!(text.contains("samplecf_queue_depth 1\n"));
        assert!(text.contains("samplecf_queue_depth_hwm 6\n"));
        assert!(text.contains("samplecf_latency_ns_bucket{op=\"info\",le=\"1\"} 1\n"));
        assert!(text.contains("samplecf_latency_ns_bucket{op=\"info\",le=\"4\"} 3\n"));
        assert!(text.contains("samplecf_latency_ns_bucket{op=\"info\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("samplecf_latency_ns_sum{op=\"info\"} 8\n"));
        assert!(text.contains("samplecf_latency_ns_count{op=\"info\"} 3\n"));
    }
}
