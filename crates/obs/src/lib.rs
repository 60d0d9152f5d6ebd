//! # gpl-obs — observability for the GPL reproduction
//!
//! The paper's whole evaluation (Sections 2.2 and 5) is read off
//! profiler counters; this crate is the structured replacement for the
//! free-form `Display` output the rest of the workspace produced:
//!
//! * [`record`] — a span/event/counter [`Recorder`] threaded through
//!   SQL planning, the cost-model search, execution-mode dispatch and
//!   the simulator. Timestamps are simulated device cycles (or a
//!   logical clock for host-side phases), never wall-clock, so traces
//!   are byte-stable across runs.
//! * [`metrics`] — a [`MetricsRegistry`] of monotonic counters, gauges
//!   and log2-bucketed histograms, keyed by name × sorted labels.
//! * [`drift`] — per-kernel predicted-vs-observed joins ([`KernelDrift`],
//!   [`DriftReport`], [`DriftSummary`]): the model's λ / Eq. 8 cycle
//!   estimates against the simulator's observed row counts and cycles,
//!   keyed by the shared `SegmentIr` kernel names.
//! * [`json`] / [`mod@parse`] — a hand-rolled JSON writer (correct string
//!   escaping, deterministic number formatting, non-finite floats →
//!   `null`) and the minimal parser that lets tests and the verify
//!   smoke-run round-trip every export without external crates.
//! * [`export`] — Chrome trace-event JSON (`chrome://tracing` /
//!   Perfetto-loadable) and a flat metrics report.
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! `gpl-sim` and the layers above it push their events in.

pub mod drift;
pub mod export;
pub mod json;
pub mod metrics;
pub mod parse;
pub mod record;

pub use drift::{DriftReport, DriftSummary, KernelDrift};
pub use export::{chrome_trace, chrome_trace_string, metrics_report};
pub use json::Json;
pub use metrics::{Histogram, Metric, MetricKey, MetricsRegistry};
pub use parse::{parse, ParseError};
pub use record::{
    CounterId, CounterSeries, Event, Recorder, RecorderDump, Span, SpanId, TrackId, Value,
};
