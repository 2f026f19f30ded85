//! Trace exporters (the pluggable sinks).
//!
//! The in-memory collector is [`Trace`] itself — tests assert against it
//! directly. For everything else a [`TraceSink`] renders a trace to text:
//!
//! * [`JsonLinesSink`] — one JSON object per line (spans, then counters,
//!   then histograms); trivially greppable and stream-appendable;
//! * [`ChromeTraceSink`] — the `trace_event` format `chrome://tracing`
//!   and Perfetto open natively: complete (`"ph":"X"`) events whose
//!   nesting is conveyed by containment of `[ts, ts+dur]` ranges within a
//!   track, plus explicit `span_id`/`parent_id` args so tools (and our
//!   round-trip tests) can rebuild the tree without timing heuristics.
//!
//! Rendering is deterministic: field order is fixed, spans render in
//! finish order, metrics name-sorted — the property the golden-file test
//! pins. The text itself is written by [`cornet_types::json::JsonWriter`].

use crate::metrics::Histogram;
use crate::span::{AttrValue, Span, SpanId, Trace};
use cornet_types::json::{FloatFmt, JsonWriter};
use std::collections::HashMap;

/// Renders a [`Trace`] to an exportable text document.
pub trait TraceSink {
    /// Render the trace.
    fn render(&self, trace: &Trace) -> String;

    /// Suggested file extension (without the dot).
    fn extension(&self) -> &'static str {
        "json"
    }
}

fn write_attrs(w: &mut JsonWriter<'_>, attrs: &[(&'static str, AttrValue)]) {
    for (k, v) in attrs {
        w.key(k);
        match v {
            AttrValue::Str(s) => w.str(s),
            AttrValue::Int(i) => w.int(*i),
            AttrValue::Float(x) => w.float(*x, FloatFmt::Display),
            AttrValue::Bool(b) => w.bool(*b),
        };
    }
}

fn write_histogram_totals(w: &mut JsonWriter<'_>, h: &Histogram) {
    w.key("count").int(h.count);
    w.key("sum").float(h.sum, FloatFmt::Display);
    w.key("min").float(h.min, FloatFmt::Display);
    w.key("max").float(h.max, FloatFmt::Display);
}

/// One JSON object per line: spans in finish order, then counters, then
/// histograms (both name-sorted).
pub struct JsonLinesSink;

impl TraceSink for JsonLinesSink {
    fn render(&self, trace: &Trace) -> String {
        let mut out = String::new();
        for s in &trace.spans {
            let mut w = JsonWriter::spaced(&mut out);
            w.begin_object();
            w.key("type").str("span");
            w.key("id").int(s.id.0);
            match s.parent {
                Some(p) => w.key("parent").int(p.0),
                None => w.key("parent").null(),
            };
            w.key("name").str(&s.name);
            w.key("start_ns").int(s.start_ns);
            w.key("end_ns").int(s.end_ns);
            w.key("attrs").begin_object();
            write_attrs(&mut w, &s.attrs);
            w.end_object().end_object();
            out.push('\n');
        }
        for (name, value) in &trace.metrics.counters {
            let mut w = JsonWriter::spaced(&mut out);
            w.begin_object();
            w.key("type").str("counter");
            w.key("name").str(name);
            w.key("value").int(*value);
            w.end_object();
            out.push('\n');
        }
        for (name, h) in &trace.metrics.histograms {
            let mut w = JsonWriter::spaced(&mut out);
            w.begin_object();
            w.key("type").str("histogram");
            w.key("name").str(name);
            w.key("bounds").begin_array();
            for b in &h.bounds {
                w.float(*b, FloatFmt::Display);
            }
            w.end_array();
            w.key("counts").begin_array();
            for c in &h.counts {
                w.int(*c);
            }
            w.end_array();
            write_histogram_totals(&mut w, h);
            w.end_object();
            out.push('\n');
        }
        out
    }

    fn extension(&self) -> &'static str {
        "jsonl"
    }
}

/// The Chrome `trace_event` JSON format (open in `chrome://tracing` or
/// <https://ui.perfetto.dev>).
///
/// Each span becomes one complete event (`"ph": "X"`). Track assignment
/// (`tid`) groups each span under its *root ancestor* — every top-level
/// span (a dispatch, a plan, a verification rule) gets its own track and
/// its descendants nest inside it by time containment. `args` carry the
/// span id, parent id, and every attribute.
pub struct ChromeTraceSink;

/// Resolve each span's root ancestor. Spans whose parent never finished
/// (or was recorded by another tracer) act as their own roots.
fn root_of(spans: &[Span]) -> HashMap<SpanId, SpanId> {
    let parent: HashMap<SpanId, Option<SpanId>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut roots: HashMap<SpanId, SpanId> = HashMap::with_capacity(spans.len());
    for s in spans {
        let mut cur = s.id;
        // Walk up; bounded by the span count so a (never expected) cycle
        // cannot hang the exporter.
        for _ in 0..=spans.len() {
            match parent.get(&cur) {
                Some(Some(p)) if parent.contains_key(p) => cur = *p,
                _ => break,
            }
        }
        roots.insert(s.id, cur);
    }
    roots
}

impl TraceSink for ChromeTraceSink {
    fn render(&self, trace: &Trace) -> String {
        let roots = root_of(&trace.spans);
        // Deterministic tid per root: order of first appearance.
        let mut tid_of: HashMap<SpanId, u64> = HashMap::new();
        for s in &trace.spans {
            let root = roots[&s.id];
            let next = tid_of.len() as u64 + 1;
            tid_of.entry(root).or_insert(next);
        }
        let mut out = String::new();
        let mut w = JsonWriter::spaced(&mut out);
        w.begin_object();
        w.line(2).key("traceEvents").begin_array();
        for s in &trace.spans {
            w.line(4).begin_object();
            w.key("name").str(&s.name);
            w.key("cat").str("cornet");
            w.key("ph").str("X");
            // trace_event timestamps are microseconds; keep nanosecond
            // precision with 3 decimals.
            w.key("ts")
                .float(s.start_ns as f64 / 1_000.0, FloatFmt::Fixed(3));
            w.key("dur")
                .float(s.duration_ns() as f64 / 1_000.0, FloatFmt::Fixed(3));
            w.key("pid").int(1);
            w.key("tid").int(tid_of[&roots[&s.id]]);
            w.key("args").begin_object();
            w.key("span_id").int(s.id.0);
            if let Some(p) = s.parent {
                w.key("parent_id").int(p.0);
            }
            write_attrs(&mut w, &s.attrs);
            w.end_object().end_object();
        }
        w.line(2).end_array();
        w.line(2).key("displayTimeUnit").str("ms");
        w.line(2).key("otherData").begin_object();
        w.line(4).key("counters").begin_object();
        for (name, value) in &trace.metrics.counters {
            w.key(name).int(*value);
        }
        w.end_object();
        w.line(4).key("histograms").begin_object();
        for (name, h) in &trace.metrics.histograms {
            w.key(name).begin_object();
            write_histogram_totals(&mut w, h);
            w.end_object();
        }
        w.end_object();
        w.line(2).end_object();
        w.line(0).end_object();
        out.push('\n');
        out
    }
}

/// Render `trace` through `sink` and write it to `path`.
pub fn write_trace(
    path: &str,
    sink: &dyn TraceSink,
    trace: &Trace,
) -> std::result::Result<(), std::io::Error> {
    std::fs::write(path, sink.render(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::span::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::with_clock(ManualClock::ticking(500));
        let root = t.span("dispatch");
        let mut child = t.child_span("instance", root.id());
        child.attr("node", "enb-\"1\"");
        child.attr("attempts", 2u32);
        child.attr("recovered", true);
        child.finish();
        root.finish();
        t.incr("instances.completed", 1);
        t.observe("block.duration_ms", 1.5);
        t.snapshot()
    }

    #[test]
    fn jsonl_renders_one_line_per_record() {
        let body = JsonLinesSink.render(&sample_trace());
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "2 spans + 1 counter + 1 histogram");
        assert!(lines[0].contains("\"name\": \"instance\""));
        assert!(lines[0].contains("\"parent\": 1"));
        assert!(lines[1].contains("\"parent\": null"));
        assert!(lines[2].contains("\"counter\""));
        assert!(lines[3].contains("\"histogram\""));
        assert!(lines[0].contains("enb-\\\"1\\\""), "escaping: {}", lines[0]);
    }

    #[test]
    fn chrome_trace_is_balanced_and_carries_links() {
        let body = ChromeTraceSink.render(&sample_trace());
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"ph\": \"X\""));
        assert!(body.contains("\"parent_id\": 1"));
        assert!(body.contains("\"attempts\": 2"));
        assert!(body.contains("\"recovered\": true"));
        // Both spans share the root's track.
        assert_eq!(body.matches("\"tid\": 1").count(), 2);
        // Structural sanity: balanced braces/brackets outside strings.
        let (mut depth, mut brackets, mut in_str, mut esc) = (0i64, 0i64, false, false);
        for c in body.chars() {
            if in_str {
                match (esc, c) {
                    (true, _) => esc = false,
                    (false, '\\') => esc = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth += 1,
                '}' => depth -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
            assert!(depth >= 0 && brackets >= 0);
        }
        assert_eq!((depth, brackets, in_str), (0, 0, false));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample_trace();
        let b = sample_trace();
        assert_eq!(ChromeTraceSink.render(&a), ChromeTraceSink.render(&b));
        assert_eq!(JsonLinesSink.render(&a), JsonLinesSink.render(&b));
    }

    #[test]
    fn orphan_spans_get_their_own_track() {
        let t = Tracer::with_clock(ManualClock::new());
        // Parent id from a *different* tracer: unknown in this trace.
        let mut orphan = t.span_with_parent("lost", Some(crate::span::SpanId(9999)));
        orphan.attr("k", 1i64);
        orphan.finish();
        t.span("root").finish();
        let body = ChromeTraceSink.render(&t.snapshot());
        assert!(body.contains("\"tid\": 1"));
        assert!(body.contains("\"tid\": 2"));
    }
}
