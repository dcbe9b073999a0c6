//! Zero-cost mirrors of the recording handles, compiled when the `capture`
//! feature is off (the default).
//!
//! Every type is a zero-sized struct and every recording method an empty
//! `#[inline]` body, so instrumentation threaded through hot paths
//! disappears entirely in production builds. The API matches `capture.rs`
//! exactly; call sites never mention the feature.

use crate::snapshot::{Snapshot, Unit};
use crate::trace::TraceEvent;
use std::time::Instant;

/// No-op counter (capture disabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter;

impl Counter {
    /// Does nothing.
    #[inline]
    pub fn inc(&self) {}

    /// Does nothing.
    #[inline]
    pub fn add(&self, _n: u64) {}

    /// Always zero.
    #[inline]
    pub fn get(&self) -> u64 {
        0
    }
}

/// No-op gauge (capture disabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// Does nothing.
    #[inline]
    pub fn set(&self, _v: u64) {}

    /// Does nothing.
    #[inline]
    pub fn set_max(&self, _v: u64) {}

    /// Always zero.
    #[inline]
    pub fn get(&self) -> u64 {
        0
    }
}

/// No-op histogram (capture disabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// Does nothing.
    #[inline]
    pub fn record(&self, _v: u64) {}

    /// Always zero.
    #[inline]
    pub fn total(&self) -> u64 {
        0
    }
}

/// No-op registry (capture disabled): hands out zero-sized handles and
/// snapshots empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry
    }

    /// Always false: recording is compiled out.
    pub fn is_enabled(&self) -> bool {
        false
    }

    /// Zero-sized handle; nothing is registered.
    #[inline]
    pub fn counter(&self, _name: &str, _unit: Unit) -> Counter {
        Counter
    }

    /// Zero-sized handle; nothing is registered.
    #[inline]
    pub fn gauge(&self, _name: &str, _unit: Unit) -> Gauge {
        Gauge
    }

    /// Zero-sized handle; nothing is registered.
    #[inline]
    pub fn histogram(&self, _name: &str, _unit: Unit, _bounds: &[u64]) -> Histogram {
        Histogram
    }

    /// Always empty.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    /// Always empty.
    pub fn snapshot_deterministic(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// No-op trace buffer (capture disabled). Not `Copy`, like the capturing
/// buffer it stands in for, so callers `clone()` it in both builds.
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer;

impl TraceBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        TraceBuffer
    }

    /// Zero-sized guard; nothing is recorded.
    #[inline]
    pub fn span(&self, _name: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// Does nothing.
    #[inline]
    pub fn push_complete(&self, _name: &'static str, _start: Instant, _end: Instant) {}

    /// Always empty.
    pub fn events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Always zero.
    pub fn len(&self) -> usize {
        0
    }

    /// Always true.
    pub fn is_empty(&self) -> bool {
        true
    }

    /// An empty Chrome trace (`[]`).
    pub fn to_chrome_json(&self) -> String {
        "[]".to_string()
    }
}

/// No-op span guard (capture disabled).
#[derive(Debug)]
pub struct SpanGuard;
