//! The named metrics registry and its scalar instruments.
//!
//! A [`MetricsRegistry`] maps metric names (labels embedded in the name,
//! e.g. `samplecf_requests_total{op="estimate"}`) to atomic instruments.
//! The map itself sits behind a mutex that is touched only at registration
//! and snapshot time; hot-path recording goes through pre-registered `Arc`
//! handles and is lock-free.  A registry built with
//! [`MetricsRegistry::disabled`] hands out handles whose inner `Arc` is
//! absent, so every instrumented call site pays exactly one branch when
//! telemetry is off — the same API, no `#[cfg]`s, measurable overhead.

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
    /// A detached no-op handle.
    #[must_use]
    pub fn disabled() -> Self {
        Counter { cell: None }
    }

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
    /// A detached no-op handle.
    #[must_use]
    pub fn disabled() -> Self {
        Gauge { cell: None }
    }

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
    /// A detached no-op handle.
    #[must_use]
    pub fn disabled() -> Self {
        HwmGauge { core: None }
    }

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

    /// Merge another snapshot into this one: counters/histograms add,
    /// gauges take the other's value when present on both sides, and
    /// metrics unique to either side are kept.  Associative, so snapshots
    /// from many workers can be folded in any order.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for entry in &other.entries {
            match self
                .entries
                .binary_search_by(|e| e.name.as_str().cmp(&entry.name))
            {
                Ok(i) => {
                    let mine = &mut self.entries[i].value;
                    match (mine, &entry.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        (MetricValue::Hwm(c, m), MetricValue::Hwm(oc, om)) => {
                            *c = (*c).max(*oc);
                            *m = (*m).max(*om);
                        }
                        (mine, theirs) => *mine = theirs.clone(),
                    }
                }
                Err(i) => self.entries.insert(i, entry.clone()),
            }
        }
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
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// An enabled registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A disabled registry: every instrument it hands out is a no-op
    /// behind the identical API, and [`Self::snapshot`] is empty.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Option<Slot> {
        let inner = self.inner.as_ref()?;
        let mut metrics = inner
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let slot = metrics.entry(name.to_string()).or_insert_with(make).clone();
        Some(slot)
    }

    /// Get or register the counter `name`.  Re-registering the same name
    /// returns a handle to the same underlying cell.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Arc::new(AtomicU64::new(0)))) {
            Some(Slot::Counter(cell)) => Counter { cell: Some(cell) },
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Counter::disabled(),
        }
    }

    /// Get or register the gauge `name` (same idempotence and panic rules
    /// as [`Self::counter`]).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Arc::new(AtomicU64::new(0)))) {
            Some(Slot::Gauge(cell)) => Gauge { cell: Some(cell) },
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Gauge::disabled(),
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
            Some(Slot::Hwm(core)) => HwmGauge { core: Some(core) },
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => HwmGauge::disabled(),
        }
    }

    /// Get or register the histogram `name` (same idempotence and panic
    /// rules as [`Self::counter`]).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || Slot::Histogram(Arc::new(HistogramCore::new()))) {
            Some(Slot::Histogram(core)) => Histogram { core: Some(core) },
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Histogram::disabled(),
        }
    }

    /// Capture every registered metric, sorted by name.  Takes the
    /// registration lock briefly; recording proceeds concurrently.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let Some(inner) = self.inner.as_ref() else {
            return RegistrySnapshot::default();
        };
        let metrics = inner
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
    fn disabled_registry_is_inert() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        let w = r.hwm_gauge("w");
        c.inc();
        g.set(7);
        h.record(42);
        w.set(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(w.take_max(), 0);
        assert!(r.snapshot().entries.is_empty());
        assert!(r.expose().is_empty());
    }

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

    #[test]
    fn snapshot_lookup_and_merge() {
        let r = MetricsRegistry::new();
        r.counter("a").add(1);
        r.histogram("h").record(10);
        let mut s1 = r.snapshot();
        r.counter("a").add(2);
        r.counter("b").inc();
        let s2 = r.snapshot();
        s1.merge(&s2);
        assert_eq!(s1.get("a"), Some(&MetricValue::Counter(4)));
        assert_eq!(s1.get("b"), Some(&MetricValue::Counter(1)));
        match s1.get("h") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
