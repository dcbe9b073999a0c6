//! # dpmd-obs — the measurement substrate of the reproduction.
//!
//! The paper's results rest on attribution: the 81 % communication saving
//! and the 14.11× compute speedup were found by charging time and bytes to
//! individual kernels and exchange phases. This crate is the repro's
//! equivalent instrument: a **global-free** [`MetricsRegistry`] of typed
//! counters, gauges and fixed-bucket histograms, plus a [`TraceBuffer`] of
//! completed spans that exports `chrome://tracing` / Perfetto event files.
//!
//! Design constraints (per the observability issue):
//!
//! * **Global-free** — a registry is a value you thread through the stack;
//!   two simulations in one process never share counters.
//! * **Allocation-free on the hot path** — handles are registered once
//!   (`registry.counter(...)`) and then increment a pre-allocated atomic
//!   cell; recording never allocates.
//! * **Attached at run time** — there is one build. Every instrumented
//!   subsystem holds its handles in an `Option` that is `None` until its
//!   `attach_obs` (or `EngineBuilder::observe`) is called with a registry;
//!   a detached recording site costs one `Option` test and nothing is
//!   allocated, registered or timed on its behalf.
//! * **Deterministic** — [`MetricsRegistry::snapshot_deterministic`] drops
//!   wall-clock-valued metrics ([`Unit::WallNs`]) and sorts by name, so the
//!   same seed yields a bit-identical JSON snapshot; wall times live in the
//!   (schema-validated, not golden-compared) Chrome trace instead.
//!
//! Beside the handles: [`schema`] (JSON validators for profile and trace
//! files) and [`trace::TraceEvent`] utilities.
//!
//! Wall-clock values feed only [`Unit::WallNs`] metrics, span traces and
//! human-facing timing printouts. `clippy.toml` bans `Instant::now` and
//! `SystemTime::now`; each function that reads the clock carries
//! `#[expect(clippy::disallowed_methods, reason = "WallNs timing")]`, so the
//! list of clock readers is in the code and a stale `expect` fails the lint.

pub mod schema;
pub mod snapshot;
pub mod trace;

mod capture;
pub use capture::{Counter, Gauge, Histogram, MetricsRegistry, TraceBuffer};

pub use snapshot::{HistogramSnapshot, ScalarMetric, Snapshot, Unit};
pub use trace::TraceEvent;
