//! End-of-run trace summaries.
//!
//! A [`TraceSummary`] aggregates a finished [`Trace`] by span kind (name):
//! how many spans of each kind ran, and nearest-rank p50/p95/max of their
//! durations computed from the *exact* per-span durations, not histogram
//! buckets. The CLI prints [`TraceSummary::render`] after `--trace` runs;
//! [`TraceSummary::render_json`] is the same table as one JSON object,
//! byte-pinned by `tests/golden/trace_summary.json`.

use crate::span::Trace;
use cornet_types::json::{FloatFmt, JsonWriter};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate duration stats for one span kind.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanKindStats {
    /// Span name this row aggregates.
    pub name: String,
    /// Number of spans with this name.
    pub count: usize,
    /// Median duration, milliseconds (nearest-rank).
    pub p50_ms: f64,
    /// 95th-percentile duration, milliseconds (nearest-rank).
    pub p95_ms: f64,
    /// Maximum duration, milliseconds.
    pub max_ms: f64,
    /// Total time spent in spans of this kind, milliseconds.
    pub total_ms: f64,
}

/// Per-kind rollup of a trace, name-sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// One row per distinct span name.
    pub kinds: Vec<SpanKindStats>,
    /// Total spans in the trace.
    pub span_count: usize,
    /// Counters copied from the trace's metrics snapshot.
    pub counters: Vec<(String, u64)>,
}

/// Nearest-rank quantile over a sorted slice (q in [0, 1]).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl TraceSummary {
    /// Aggregate a finished trace by span name.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &trace.spans {
            by_name
                .entry(s.name.as_str())
                .or_default()
                .push(s.duration_ns() as f64 / 1e6);
        }
        let kinds = by_name
            .into_iter()
            .map(|(name, mut durs)| {
                durs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
                SpanKindStats {
                    name: name.to_owned(),
                    count: durs.len(),
                    p50_ms: nearest_rank(&durs, 0.50),
                    p95_ms: nearest_rank(&durs, 0.95),
                    max_ms: *durs.last().expect("group is non-empty"),
                    total_ms: durs.iter().sum(),
                }
            })
            .collect();
        TraceSummary {
            kinds,
            span_count: trace.spans.len(),
            counters: trace.metrics.counters.clone(),
        }
    }

    /// Stats for one span kind, if present.
    pub fn kind(&self, name: &str) -> Option<&SpanKindStats> {
        self.kinds.iter().find(|k| k.name == name)
    }

    /// Human-readable table for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary ({} spans)", self.span_count);
        let _ = writeln!(
            out,
            "  {:<24} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "span kind", "count", "p50 ms", "p95 ms", "max ms", "total ms"
        );
        for k in &self.kinds {
            let _ = writeln!(
                out,
                "  {:<24} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                k.name, k.count, k.p50_ms, k.p95_ms, k.max_ms, k.total_ms
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "    {name:<30} {value}");
            }
        }
        out
    }

    /// Deterministic JSON object mapping span kind → stats.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::spaced(&mut out);
        w.begin_object();
        for k in &self.kinds {
            w.key(&k.name).begin_object();
            w.key("count").int(k.count);
            for (name, ms) in [
                ("p50_ms", k.p50_ms),
                ("p95_ms", k.p95_ms),
                ("max_ms", k.max_ms),
                ("total_ms", k.total_ms),
            ] {
                w.key(name).float(ms, FloatFmt::Fixed(3));
            }
            w.end_object();
        }
        w.end_object();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::span::Tracer;

    #[test]
    fn summary_groups_by_kind_with_nearest_rank_quantiles() {
        let clock = ManualClock::new();
        let t = Tracer::with_clock(clock.clone());
        // Three "block" spans of 1 ms, 2 ms, 10 ms; one "instance" of 20 ms.
        for ms in [1u64, 2, 10] {
            let s = t.span("block");
            clock.advance(ms * 1_000_000);
            s.finish();
        }
        let s = t.span("instance");
        clock.advance(20_000_000);
        s.finish();

        let summary = TraceSummary::from_trace(&t.snapshot());
        assert_eq!(summary.span_count, 4);
        let block = summary.kind("block").unwrap();
        assert_eq!(block.count, 3);
        assert_eq!(block.p50_ms, 2.0);
        assert_eq!(block.p95_ms, 10.0);
        assert_eq!(block.max_ms, 10.0);
        assert_eq!(block.total_ms, 13.0);
        let inst = summary.kind("instance").unwrap();
        assert_eq!(inst.count, 1);
        assert_eq!(inst.p50_ms, 20.0);
        // BTreeMap ordering: "block" before "instance".
        assert_eq!(summary.kinds[0].name, "block");
        assert_eq!(summary.kinds[1].name, "instance");
    }

    #[test]
    fn render_includes_counters() {
        let t = Tracer::with_clock(ManualClock::new());
        t.span("plan").finish();
        t.incr("cache.hit", 7);
        let text = TraceSummary::from_trace(&t.snapshot()).render();
        assert!(text.contains("trace summary (1 spans)"));
        assert!(text.contains("plan"));
        assert!(text.contains("cache.hit"));
        assert!(text.contains('7'));
    }

    #[test]
    fn render_json_is_deterministic_and_balanced() {
        let t = Tracer::with_clock(ManualClock::ticking(1_000));
        t.span("verify.rule").finish();
        t.span("verify.unit").finish();
        let summary = TraceSummary::from_trace(&t.snapshot());
        let a = summary.render_json();
        let b = summary.render_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"verify.rule\""));
        assert!(a.contains("\"count\": 1"));
    }

    #[test]
    fn empty_trace_summarizes_cleanly() {
        let summary = TraceSummary::from_trace(&Trace::default());
        assert_eq!(summary.span_count, 0);
        assert!(summary.kinds.is_empty());
        assert_eq!(summary.render_json(), "{}");
    }
}
