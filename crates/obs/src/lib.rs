//! CORNET observability: spans, metrics, exportable traces.
//!
//! This crate is the repo's tracing seam. It depends on nothing outside
//! the workspace (only on `cornet-types`, for the JSON writer the sinks
//! render through) and is cheap enough to leave compiled into every
//! subsystem:
//!
//! * [`Tracer`] — a cloneable handle that is either *attached* (records
//!   into a shared collector) or a *noop* (`Tracer::default()`); the noop
//!   path is a single `Option` check so instrumented code pays nothing
//!   when tracing is off.
//! * [`ActiveSpan`] — an in-flight span; add attributes with
//!   [`ActiveSpan::attr`], finish explicitly or let `Drop` record it so
//!   error paths still trace.
//! * [`MetricsRegistry`] — named counters and fixed-bucket
//!   [`Histogram`]s, shared with the tracer.
//! * Sinks — [`JsonLinesSink`] and [`ChromeTraceSink`] render a
//!   [`Trace`] snapshot; the in-memory [`Trace`] itself is the test
//!   collector.
//! * [`TraceSummary`] — per-span-kind count/p50/p95/max rollup printed at
//!   the end of `--trace` runs.
//!
//! Timestamps come from an injectable [`Clock`]: [`WallClock`] in
//! production, [`ManualClock`] in tests (deterministic, optionally
//! self-ticking so nested spans order strictly without sleeping).
//!
//! ```
//! use cornet_obs::{ChromeTraceSink, ManualClock, TraceSink, Tracer, TraceSummary};
//!
//! let tracer = Tracer::with_clock(ManualClock::ticking(1_000));
//! let root = tracer.span("dispatch");
//! let mut child = tracer.child_span("instance", root.id());
//! child.attr("node", "enb-1");
//! child.finish();
//! root.finish();
//! tracer.incr("instances.completed", 1);
//!
//! let trace = tracer.snapshot();
//! assert_eq!(trace.spans.len(), 2);
//! let json = ChromeTraceSink.render(&trace);
//! assert!(json.contains("\"traceEvents\""));
//! let summary = TraceSummary::from_trace(&trace);
//! assert_eq!(summary.span_count, 2);
//! ```

#![forbid(unsafe_code)]
pub mod clock;
pub mod export;
pub mod metrics;
pub mod span;
pub mod summary;

pub use clock::{Clock, ManualClock, WallClock};
pub use export::{write_trace, ChromeTraceSink, JsonLinesSink, TraceSink};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot, DEFAULT_BOUNDS_MS};
pub use span::{ActiveSpan, AttrValue, Span, SpanId, Trace, Tracer};
pub use summary::{SpanKindStats, TraceSummary};
