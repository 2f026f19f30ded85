//! The traced run: bench-side spans around every call into a layer,
//! recorded on the workspace's own collecting [`Tracer`] so that they share
//! one clock and one Chrome trace with whatever spans the program emits
//! when the same tracer is attached through its public config fields.
//!
//! Bench-side span names start with [`BENCH_PREFIX`]: `e2e:op` is one op,
//! `e2e:<layer>.<call>` one call into `<layer>`. Program spans keep their
//! own names (`plan`, `solve.exact`, `dispatch`, `block`, `journal.append`,
//! `verify.unit`, …) and are mapped to a layer by [`layer_of`].

use crate::measure::Metric;
use cornet_obs::{ActiveSpan, Span, SpanId, Trace, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

pub const BENCH_PREFIX: &str = "e2e:";
const OP_SPAN: &str = "e2e:op";
/// Program spans under which the program opens unlinked spans of another
/// layer (a campaign runs a `dispatch`, an instance appends to the journal),
/// besides the bench-side layer calls.
const ADOPTERS: [&str; 3] = ["campaign", "dispatch", "instance"];

/// Layers of the per-layer self-time rows, in print order.
pub const LAYERS: [&str; 9] = [
    "workflow",
    "planner",
    "solver",
    "orchestrator",
    "journal",
    "verifier",
    "daemon",
    "netsim",
    "harness",
];

/// Open the root span of one op.
pub fn op_span(tracer: &Tracer, op: usize, class: &str) -> ActiveSpan {
    let mut span = tracer.span(OP_SPAN);
    span.attr("op", op);
    span.attr("class", class.to_string());
    span
}

/// Time `f` as one call into a layer, nested under `op`. `name` is
/// `<layer>.<call>`.
pub fn layer_call<T>(
    tracer: &Tracer,
    op: &ActiveSpan,
    name: &str,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    if !tracer.is_enabled() {
        return f(None);
    }
    let span = tracer.child_span(&format!("{BENCH_PREFIX}{name}"), op.id());
    let out = f(Some(span.id()));
    span.finish();
    out
}

/// The layer a span's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    let name = match name.strip_prefix(BENCH_PREFIX) {
        Some("op") => return "harness",
        Some(rest) => rest.split('.').next().unwrap_or(rest),
        None => name,
    };
    match name {
        "workflow" => "workflow",
        "planner" | "plan" => "planner",
        n if n == "solver" || n.starts_with("solve.") => "solver",
        "orchestrator" | "dispatch" | "slot" | "instance" | "backout" => "orchestrator",
        // Executors are the simulated network; their time is not CORNET's.
        "block" | "netsim" => "netsim",
        n if n == "journal" || n.starts_with("journal.") => "journal",
        n if n == "verifier" || n.starts_with("verify.") || n.starts_with("stream.") => "verifier",
        "daemon" | "http" | "campaign" => "daemon",
        _ => "harness",
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Running aggregate over the traced cycles of one run.
#[derive(Default)]
pub struct TraceAgg {
    pub by_name: BTreeMap<String, NameStats>,
    /// Wall time of the traced cycles.
    pub wall_ns: u64,
    /// Part of it inside at least one bench-side layer-call span.
    pub covered_ns: u64,
    pub spans: u64,
    pub ops: u64,
    /// Spans of the last traced cycle, kept for the Chrome trace file.
    pub last_cycle: Option<Trace>,
}

impl TraceAgg {
    /// Fold one traced cycle (everything the tracer collected during it).
    pub fn absorb(&mut self, trace: Trace, cycle_wall_ns: u64) {
        let spans = &trace.spans;
        let index: HashMap<SpanId, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let calls: Vec<usize> = (0..spans.len())
            .filter(|&i| is_layer_call(&spans[i]))
            .collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        let mut orphans: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent.and_then(|p| index.get(&p).copied()) {
                Some(p) if p != i => children[p].push((s.start_ns, s.end_ns)),
                Some(_) => {}
                None if s.name.starts_with(BENCH_PREFIX) => {}
                None => orphans.push(i),
            }
        }
        // The program opens some spans without a parent link (`plan`,
        // `dispatch`, `journal.append`). Each is adopted by the shortest
        // adopter that contains it in time, found by a sweep over start
        // times: at most a few adopters are open at any instant.
        let mut adopters: Vec<usize> = (0..spans.len())
            .filter(|&i| is_layer_call(&spans[i]) || ADOPTERS.contains(&spans[i].name.as_str()))
            .collect();
        adopters.sort_unstable_by_key(|&i| spans[i].start_ns);
        orphans.sort_unstable_by_key(|&i| spans[i].start_ns);
        let (mut next, mut open): (usize, Vec<usize>) = (0, Vec::new());
        for &o in &orphans {
            let s = &spans[o];
            while next < adopters.len() && spans[adopters[next]].start_ns <= s.start_ns {
                open.push(adopters[next]);
                next += 1;
            }
            open.retain(|&a| spans[a].end_ns >= s.start_ns);
            let parent = open
                .iter()
                .copied()
                .filter(|&a| a != o && spans[a].name != s.name && spans[a].end_ns >= s.end_ns)
                .min_by_key(|&a| spans[a].duration_ns());
            if let Some(p) = parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let covered = union_len(&mut children[i], s.start_ns, s.end_ns);
            let stats = self.by_name.entry(s.name.clone()).or_default();
            stats.count += 1;
            stats.total_ns += s.duration_ns();
            stats.self_ns += s.duration_ns() - covered;
            if s.name == OP_SPAN {
                self.ops += 1;
            }
        }
        let mut call_intervals: Vec<(u64, u64)> = calls
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        self.covered_ns += union_len(&mut call_intervals, 0, u64::MAX);
        self.wall_ns += cycle_wall_ns;
        self.spans += spans.len() as u64;
        self.last_cycle = Some(trace);
    }

    /// Share of the traced wall time inside named layer-call spans.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.covered_ns as f64 / self.wall_ns as f64).min(1.0)
    }

    /// Self time per layer, nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        for (name, stats) in &self.by_name {
            *out.entry(layer_of(name)).or_default() += stats.self_ns;
        }
        out
    }

    /// `trace.*` per-layer metrics of this run.
    pub fn metrics(&self) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let mut out = vec![
            Metric::new("trace.coverage_share", self.coverage(), "ratio"),
            Metric::new("trace.spans_per_op", self.spans as f64 / ops, "count"),
        ];
        for (layer, ns) in self.layer_self_ns() {
            out.push(Metric::new(
                format!("trace.self_ms_per_op.{layer}"),
                ns as f64 / 1e6 / ops,
                "ms",
            ));
        }
        out
    }

    /// The self-time table: one row per span name, then one per layer.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<28} {:<13} {:>9} {:>12} {:>12}",
            "span", "layer", "count", "total ms", "self ms"
        );
        for (name, s) in &self.by_name {
            let _ = writeln!(
                out,
                "  {:<28} {:<13} {:>9} {:>12.3} {:>12.3}",
                name,
                layer_of(name),
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        let _ = writeln!(out, "  per-layer self time over {} traced ops:", self.ops);
        for (layer, ns) in self.layer_self_ns() {
            if ns > 0 {
                let _ = writeln!(out, "    {:<14} {:>12.3} ms", layer, ns as f64 / 1e6);
            }
        }
        let _ = writeln!(
            out,
            "  named layer spans cover {:.1} % of the traced wall time",
            self.coverage() * 100.0
        );
        out
    }
}

fn is_layer_call(span: &Span) -> bool {
    span.name.starts_with(BENCH_PREFIX) && span.name != OP_SPAN
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_obs::ManualClock;

    #[test]
    fn union_clips_and_merges() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_len(&mut v, 0, 25), 3 + 7 + 5);
        assert_eq!(union_len(&mut [], 0, 10), 0);
    }

    #[test]
    fn span_names_map_to_layers() {
        assert_eq!(layer_of("e2e:op"), "harness");
        assert_eq!(layer_of("e2e:workflow.package"), "workflow");
        assert_eq!(layer_of("e2e:http.submit"), "daemon");
        assert_eq!(layer_of("solve.exact"), "solver");
        assert_eq!(layer_of("journal.fsync"), "journal");
        assert_eq!(layer_of("verify.unit"), "verifier");
        assert_eq!(layer_of("block"), "netsim");
        assert_eq!(layer_of("mystery"), "harness");
        for layer in ["e2e:planner.plan", "plan", "dispatch", "campaign"] {
            assert!(LAYERS.contains(&layer_of(layer)));
        }
    }

    #[test]
    fn self_time_subtracts_children_and_adopts_program_roots() {
        // Clock ticks 10 ns per reading, so every duration is exact.
        let tracer = Tracer::with_clock(ManualClock::ticking(10));
        let op = op_span(&tracer, 0, "c"); // start 0
        layer_call(&tracer, &op, "planner.plan", |_| {
            // call start 10; a parentless program span inside it:
            let plan = tracer.span("plan"); // start 20
            let solve = tracer.child_span("solve.exact", plan.id()); // start 30
            solve.finish(); // end 40
            plan.finish(); // end 50
        }); // call end 60
        op.finish(); // end 70
        let mut agg = TraceAgg::default();
        agg.absorb(tracer.take(), 70);
        let get = |n: &str| agg.by_name[n].clone();
        assert_eq!(get("solve.exact").self_ns, 10);
        assert_eq!(get("plan").self_ns, 30 - 10);
        assert_eq!(get("e2e:planner.plan").self_ns, 50 - 30, "plan was adopted");
        assert_eq!(get("e2e:op").self_ns, 70 - 50);
        assert_eq!(agg.ops, 1);
        assert_eq!(agg.covered_ns, 50);
        assert!((agg.coverage() - 50.0 / 70.0).abs() < 1e-12);
        let layers = agg.layer_self_ns();
        assert_eq!(layers["planner"], 20 + 20);
        assert_eq!(layers["solver"], 10);
        assert_eq!(layers["harness"], 20);
        assert_eq!(layers.values().sum::<u64>(), 70, "self times sum to the op");
        assert!(agg.render_table().contains("e2e:planner.plan"));
    }
}
