//! Metric catalogues, the human report, and `--workload all`.

use crate::measure::Metric;
use crate::workload::WORKLOADS;
use crate::Args;
use cornet_types::json::parse;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// End-to-end metrics: `(name, unit, better, bound)`; BENCHMARK.json holds
/// the same table (a unit test keeps them equal). `failed_share` is
/// reported beside them from the result line's `failed`/`attempted`: its
/// bound is absolute zero, which a relative bound cannot express.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics: `(name, unit, better)`, the order of every report.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("types.json_parse_mb_s", "MB/s", "higher"),
    ("check.load_bundle_us.n24", "us", "lower"),
    ("check.load_bundle_us.n384", "us", "lower"),
    ("check.gate_us.n24", "us", "lower"),
    ("check.gate_us.n384", "us", "lower"),
    ("blast.radii_us.n384", "us", "lower"),
    ("blast.conflict_checks_per_s", "1/s", "higher"),
    ("workflow.package_us", "us", "lower"),
    ("planner.translate_ms.n1k", "ms", "lower"),
    ("planner.translate_ms.n100k", "ms", "lower"),
    ("planner.heuristic_ms.n100k", "ms", "lower"),
    ("planner.shard_overhead_ms", "ms", "lower"),
    ("planner.portfolio_waste_share", "ratio", "lower"),
    ("model.vars.n1k", "count", "lower"),
    ("model.constraints.n1k", "count", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.backtracks", "count", "lower"),
    ("solver.nodes_per_s.n200", "1/s", "higher"),
    ("solver.nodes_per_s.n1k", "1/s", "higher"),
    ("solver.nodes_per_s.n3k", "1/s", "higher"),
    ("solver.optimal_share", "ratio", "higher"),
    ("engine.ns_per_block", "ns", "lower"),
    ("dispatch.instances_per_s.plain", "1/s", "higher"),
    ("dispatch.instances_per_s.journaled", "1/s", "higher"),
    ("dispatch.resume_ms", "ms", "lower"),
    ("dispatch.replayed_blocks", "count", "higher"),
    ("dispatch.executor_calls", "count", "lower"),
    ("journal.append_us.never", "us", "lower"),
    ("journal.append_us.every64", "us", "lower"),
    ("journal.append_us.always", "us", "lower"),
    ("journal.read_mb_s", "MB/s", "higher"),
    ("journal.bytes_per_instance", "B", "lower"),
    ("verifier.ingest_samples_per_s", "1/s", "higher"),
    ("verifier.poll_ms", "ms", "lower"),
    ("verifier.batch_ms", "ms", "lower"),
    ("verifier.units", "count", "lower"),
    ("verifier.detect_p99_ms", "ms", "lower"),
    ("verifier.shed_share", "ratio", "lower"),
    ("stats.rank_order_ns_per_sample", "ns", "lower"),
    ("stats.theil_sen_ns_per_sample", "ns", "lower"),
    ("stats.online_ns_per_sample", "ns", "lower"),
    ("http.req_per_s", "1/s", "higher"),
    ("daemon.submit_ms", "ms", "lower"),
    ("http.submit_overhead_ms", "ms", "lower"),
    ("daemon.phase_ms.submit", "ms", "lower"),
    ("daemon.phase_ms.wait", "ms", "lower"),
    ("daemon.phase_ms.ingest", "ms", "lower"),
    ("daemon.phase_ms.verdict", "ms", "lower"),
    ("daemon.quota_high_water", "count", "lower"),
    ("daemon.ingest_samples_per_s", "1/s", "higher"),
    ("rayon.speedup_2cpu", "ratio", "higher"),
    ("obs.trace_overhead_share", "ratio", "lower"),
    ("trace.coverage_share", "ratio", "higher"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.self_ms_per_op.workflow", "ms", "lower"),
    ("trace.self_ms_per_op.planner", "ms", "lower"),
    ("trace.self_ms_per_op.solver", "ms", "lower"),
    ("trace.self_ms_per_op.orchestrator", "ms", "lower"),
    ("trace.self_ms_per_op.journal", "ms", "lower"),
    ("trace.self_ms_per_op.verifier", "ms", "lower"),
    ("trace.self_ms_per_op.daemon", "ms", "lower"),
    ("trace.self_ms_per_op.netsim", "ms", "lower"),
    ("trace.self_ms_per_op.harness", "ms", "lower"),
    ("machine.dilation", "ratio", "lower"),
];

/// One `scope name value unit` line per metric; end-to-end metrics also
/// say which direction is better and by how much they may worsen.
pub fn render_metric_lines(scope: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = write!(out, "{scope} {} {} {}", m.name, m.value, m.unit);
        if let Some((_, _, better, bound)) = END_TO_END.iter().find(|e| e.0 == m.name) {
            let _ = write!(out, " ({better} is better; bound {} %)", bound * 100.0);
        }
        out.push('\n');
    }
    out
}

/// The value of metric `name` in a result line, if the line is one.
pub fn metric_of_result_line(line: &str, name: &str) -> Option<f64> {
    parse(line)
        .ok()?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Run `workload` in a child process of this executable and return its
/// result line; the child's report is echoed as it ends.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = &args.out {
        cmd.arg("--out").arg(dir);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, line)) => (report, line),
        None => ("", stdout.trim_end()),
    };
    println!("{report}");
    if parse(line).is_err() {
        return Err(format!(
            "{workload} printed no result line ({})",
            output.status
        ));
    }
    Ok(line.to_string())
}

/// `--workload all`: every workload in its own process (so `peak_rss_mb`
/// is per workload), the traced run after the plain one when asked for.
/// Writes `DIR/e2e.json` with `--out`. False if any oracle failed.
pub fn run_all_workloads(args: &Args) -> bool {
    let mut ok = true;
    let mut doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"cpus\": {}, \"workloads\": {{",
        args.seed,
        args.seconds(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let mut lines = Vec::new();
        for trace in [false, true] {
            if trace && !args.trace {
                lines.push("null".to_string());
                continue;
            }
            match run_child(workload, args, trace) {
                Ok(line) => {
                    ok &= line.contains("\"correct\": true");
                    lines.push(line);
                }
                Err(e) => {
                    eprintln!("cornet_e2e: {e}");
                    ok = false;
                    lines.push("null".to_string());
                }
            }
        }
        let _ = write!(
            doc,
            "{}\"{workload}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            if i > 0 { ", " } else { "" },
            lines[0],
            lines[1]
        );
    }
    doc.push_str("}}");
    if let Some(dir) = &args.out {
        let path = dir.join("e2e.json");
        let written =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, format!("{doc}\n")));
        match written {
            Ok(()) => println!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("cornet_e2e: {}: {e}", path.display());
                ok = false;
            }
        }
    }
    println!("{doc}");
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::render_result;
    use cornet_types::json::JsonValue;

    fn names(v: &JsonValue, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogues() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        for (entry, (_, unit, better, bound)) in doc
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(better)
            );
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), Some(bound));
        }
        for (entry, (_, unit, better)) in doc
            .get("per_layer")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(better)
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _, _) in PER_LAYER {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64);
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = render_result(true, 3, 0, &[Metric::new("wall_s", 2.5, "s")]);
        assert_eq!(metric_of_result_line(&line, "wall_s"), Some(2.5));
        assert_eq!(metric_of_result_line(&line, "absent"), None);
        assert_eq!(metric_of_result_line("# a comment", "wall_s"), None);
        assert_eq!(
            render_metric_lines("w", &[Metric::new("wall_s", 2.5, "s")]),
            "w wall_s 2.5 s (lower is better; bound 25 %)\n"
        );
    }
}
