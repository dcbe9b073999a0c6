//! The recording handles.
//!
//! Handles are `Arc`-shared atomic cells handed out by the registry at
//! registration time; recording is a single relaxed atomic op and never
//! allocates or locks. Only registration and snapshotting take the registry
//! mutex.

use crate::snapshot::{HistogramSnapshot, ScalarMetric, Snapshot, Unit};
use crate::trace::{chrome_trace_json, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotone event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value / high-water gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is higher (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// Inclusive upper bounds, ascending; bucket `i` counts `v <= bounds[i]`.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
}

/// Fixed-bucket histogram. Bounds are set at registration, so recording is
/// a bounded linear scan plus one atomic increment — no allocation.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        let mut idx = inner.bounds.len();
        for (i, &b) in inner.bounds.iter().enumerate() {
            if v <= b {
                idx = i;
                break;
            }
        }
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn snapshot(&self, name: &str, unit: Unit) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            unit,
            bounds: self.0.bounds.clone(),
            counts: self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<(String, Unit, Counter)>,
    gauges: Vec<(String, Unit, Gauge)>,
    histograms: Vec<(String, Unit, Histogram)>,
}

/// A value-typed registry of named metrics. Clones share the same store, so
/// a registry can be threaded through the stack like a handle; there is no
/// global state and two registries never interfere.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch the existing) counter named `name`. Idempotent:
    /// the same name always yields a handle to the same cell.
    pub fn counter(&self, name: &str, unit: Unit) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, _, c)) = inner.counters.iter().find(|(n, _, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.push((name.to_string(), unit, c.clone()));
        c
    }

    /// Register (or fetch the existing) gauge named `name`.
    pub fn gauge(&self, name: &str, unit: Unit) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, _, g)) = inner.gauges.iter().find(|(n, _, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        inner.gauges.push((name.to_string(), unit, g.clone()));
        g
    }

    /// Register (or fetch the existing) histogram named `name` with the
    /// given inclusive bucket bounds (ascending; an overflow bucket is
    /// appended automatically).
    pub fn histogram(&self, name: &str, unit: Unit, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, _, h)) = inner.histograms.iter().find(|(n, _, _)| n == name) {
            return h.clone();
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be ascending");
        let h = Histogram(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        }));
        inner.histograms.push((name.to_string(), unit, h.clone()));
        h
    }

    /// All metrics at this instant, sorted by name within each kind.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut s = Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, u, c)| ScalarMetric { name: n.clone(), unit: *u, value: c.get() })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, u, g)| ScalarMetric { name: n.clone(), unit: *u, value: g.get() })
                .collect(),
            histograms: inner.histograms.iter().map(|(n, u, h)| h.snapshot(n, *u)).collect(),
        };
        s.counters.sort_by(|a, b| a.name.cmp(&b.name));
        s.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        s.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        s
    }

    /// [`snapshot`](Self::snapshot) restricted to seed-reproducible metrics
    /// (wall-clock-valued ones dropped) — the golden-comparable document.
    pub fn snapshot_deterministic(&self) -> Snapshot {
        let mut s = self.snapshot();
        s.retain_deterministic();
        s
    }
}

#[derive(Debug)]
struct TraceInner {
    origin: Instant,
    events: Vec<TraceEvent>,
}

/// Shared buffer of completed spans, exported as a Chrome trace. Clones
/// share the same buffer and origin.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    inner: Arc<Mutex<TraceInner>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuffer {
    /// Empty buffer; timestamps are measured from now.
    #[expect(clippy::disallowed_methods, reason = "WallNs timing")]
    pub fn new() -> Self {
        TraceBuffer {
            inner: Arc::new(Mutex::new(TraceInner { origin: Instant::now(), events: Vec::new() })),
        }
    }

    /// Record an already-measured span from its wall-clock endpoints.
    pub fn push_complete(&self, name: &'static str, start: Instant, end: Instant) {
        let mut inner = self.inner.lock().unwrap();
        let ts_ns = start.saturating_duration_since(inner.origin).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        inner.events.push(TraceEvent { name, tid: 0, ts_ns, dur_ns });
    }

    /// Copy of all recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the buffer as a Chrome trace-event JSON array.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.inner.lock().unwrap().events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c.events", Unit::Count);
        c.inc();
        c.add(4);
        let g = reg.gauge("g.peak", Unit::Bytes);
        g.set_max(10);
        g.set_max(3);
        let s = reg.snapshot();
        assert_eq!(s.counter("c.events"), Some(5));
        assert_eq!(s.gauge("g.peak"), Some(10));
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("same", Unit::Count);
        let b = reg.counter("same", Unit::Count);
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("same"), Some(2));
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    fn histogram_buckets_by_inclusive_bound_with_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", Unit::Count, &[0, 2, 4]);
        for v in [0, 1, 2, 3, 4, 5, 100] {
            h.record(v);
        }
        let s = reg.snapshot();
        let hs = s.histogram("h").unwrap();
        assert_eq!(hs.counts, vec![1, 2, 2, 2]);
        assert_eq!(hs.total(), 7);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn clones_share_the_store() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("shared", Unit::Count);
        let reg2 = reg.clone();
        reg2.counter("shared", Unit::Count).add(3);
        c.inc();
        assert_eq!(reg.snapshot().counter("shared"), Some(4));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last", Unit::Count);
        reg.counter("a.first", Unit::Count);
        let s = reg.snapshot();
        assert_eq!(s.counters[0].name, "a.first");
        assert_eq!(s.counters[1].name, "z.last");
    }

    #[test]
    fn pushed_spans_nest_and_export_a_valid_trace() {
        let trace = TraceBuffer::new();
        let t0 = trace.inner.lock().unwrap().origin;
        let at = |us| t0 + std::time::Duration::from_micros(us);
        // Inner ends first, so it is recorded first and sits inside outer.
        trace.push_complete("inner", at(1), at(2));
        trace.push_complete("outer", at(0), at(3));
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        crate::trace::validate_well_nested(&events).unwrap();
        let json = trace.to_chrome_json();
        crate::schema::validate_trace_json(&json).unwrap();
    }
}
