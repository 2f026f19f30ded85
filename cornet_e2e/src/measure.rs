//! Measurement helpers shared by every workload: the percentile picker,
//! the `VmHWM` reader, and the metric/result documents the harness prints.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil().max(1.0) as usize).min(n);
    n - rank
}

/// The highest of p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it (choosing-metrics §1), or `None` below 100 samples.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// `VmHWM` (peak resident set) in MiB out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(kib / 1024.0),
        Some(_) => None,
    }
}

/// Peak RSS of this process so far, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// JSON number with every measured digit; non-finite values render as 0
/// so the document stays valid.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn render_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// The one-line result document the benchmark contract asks for.
pub fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        render_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::json::parse;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly ten beyond it; 99 leaves nine.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(highest_reportable_percentile(100), Some(0.90));
        assert_eq!(highest_reportable_percentile(99), None);
        assert_eq!(highest_reportable_percentile(200), Some(0.95));
        assert_eq!(highest_reportable_percentile(1_000), Some(0.99));
        assert_eq!(highest_reportable_percentile(10_000), Some(0.999));
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tcornet_e2e\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mib() >= 0.0);
    }

    #[test]
    fn result_document_schema() {
        let doc = render_result(
            true,
            12,
            0,
            &[
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("op_p50_ms", f64::NAN, "ms"),
            ],
        );
        assert!(!doc.contains('\n'));
        let v = parse(&doc).expect("result line is JSON");
        let keys: Vec<&str> = v
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(12.0));
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        let nan = v.get("metrics").unwrap().get("op_p50_ms").unwrap();
        assert_eq!(nan.get("value").unwrap().as_f64(), Some(0.0));
    }
}
