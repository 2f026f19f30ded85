//! `/v1/ingest` — the daemon face of the streaming verification engine.
//!
//! A tenant POSTs KPI samples as JSONL and GETs back live detections plus
//! the current go/no-go verdicts. The session (change scope, synthetic
//! study/control inventory, verification rule) is declared by query
//! parameters on the **first** POST, [`JournalScenario`]-style: every
//! parameter has a deterministic default, so `POST /v1/ingest` with a
//! body alone starts a sensible session.
//!
//! | Method | Path         | Purpose                                       |
//! |--------|--------------|-----------------------------------------------|
//! | POST   | `/v1/ingest` | append samples (JSONL body), pump the engine  |
//! | GET    | `/v1/ingest` | ingest counters, detections, current verdicts |
//!
//! Sample lines look like
//! `{"node":"study-0","kpi":"thr","minute":4200,"value":97.3}` with an
//! optional `"carrier":<n>`. Off-grid minutes and unknown node names are
//! counted as rejected, never fatal — a live feed must not lose a whole
//! batch to one bad line. Sessions are per tenant and isolated.
//!
//! [`JournalScenario`]: crate::scenario::JournalScenario

use cornet_obs::Tracer;
use cornet_types::json::{parse, FloatFmt, JsonValue, JsonWriter};
use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};
use cornet_verifier::{
    ChangeScope, Expectation, GoNoGo, KpiQuery, StreamConfig, StreamDetection, StreamSample,
    StreamingVerifier, VerificationRule,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

/// Detections retained per session for `GET /v1/ingest`.
const DETECTION_RING: usize = 64;

/// Declarative shape of one ingest session, from first-POST query
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSpec {
    /// Study nodes (`study-0` … `study-{n-1}`), each paired with a
    /// control (`control-i`).
    pub nodes: usize,
    /// KPI name carried by the session's verification rule.
    pub kpi: String,
    /// Change execution minute shared by every study node.
    pub change_minute: u64,
    /// Sampling grid, minutes per step.
    pub step_minutes: u64,
    /// Two-window size of the per-sample detectors.
    pub window: usize,
    /// Detection threshold in robust sigma units.
    pub threshold: f64,
    /// Expectation of the rule's KPI query.
    pub expect: Expectation,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            nodes: 8,
            kpi: "kpi".to_string(),
            change_minute: 6000,
            step_minutes: 60,
            window: 8,
            threshold: 5.0,
            expect: Expectation::Any,
        }
    }
}

impl StreamSpec {
    /// Spec from query parameters; unknown keys are rejected so typos
    /// fail loudly instead of silently running the defaults.
    pub fn from_params<'a>(
        params: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<StreamSpec, String> {
        let mut spec = StreamSpec::default();
        for (key, value) in params {
            match key {
                "nodes" => {
                    spec.nodes = value
                        .parse()
                        .ok()
                        .filter(|n| (1..=4096).contains(n))
                        .ok_or_else(|| format!("nodes: want 1..=4096, got {value:?}"))?
                }
                "kpi" => {
                    if value.is_empty() {
                        return Err("kpi: must be non-empty".to_string());
                    }
                    spec.kpi = value.to_string();
                }
                "change_minute" => {
                    spec.change_minute = value
                        .parse()
                        .map_err(|_| format!("change_minute: want u64, got {value:?}"))?
                }
                "step_minutes" => {
                    spec.step_minutes = value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or_else(|| format!("step_minutes: want >= 1, got {value:?}"))?
                }
                "window" => {
                    spec.window = value
                        .parse()
                        .ok()
                        .filter(|&w: &usize| w >= 2)
                        .ok_or_else(|| format!("window: want >= 2, got {value:?}"))?
                }
                "threshold" => {
                    spec.threshold = value
                        .parse()
                        .ok()
                        .filter(|t: &f64| t.is_finite() && *t > 0.0)
                        .ok_or_else(|| format!("threshold: want finite > 0, got {value:?}"))?
                }
                "expect" => {
                    spec.expect = match value {
                        "improve" => Expectation::Improve,
                        "degrade" => Expectation::Degrade,
                        "nochange" => Expectation::NoChange,
                        "any" => Expectation::Any,
                        other => {
                            return Err(format!(
                                "expect: want improve|degrade|nochange|any, got {other:?}"
                            ))
                        }
                    };
                }
                other => return Err(format!("unknown ingest parameter {other:?}")),
            }
        }
        Ok(spec)
    }
}

/// One tenant's live session: the engine plus name→node resolution and a
/// bounded ring of recent detections.
struct StreamSession {
    spec: StreamSpec,
    engine: StreamingVerifier,
    nodes_by_name: HashMap<String, NodeId>,
    recent: Mutex<VecDeque<StreamDetection>>,
}

impl StreamSession {
    fn new(spec: StreamSpec, tracer: Tracer) -> StreamSession {
        // Synthetic paired inventory: study-i ↔ control-i, markets
        // round-robin so location slicing has something to group.
        let mut inv = Inventory::new();
        let mut nodes_by_name = HashMap::new();
        let markets = ["NYC", "DFW", "SEA"];
        let mut study = Vec::with_capacity(spec.nodes);
        for i in 0..spec.nodes {
            let name = format!("study-{i}");
            let id = inv.push(
                name.clone(),
                NfType::ENodeB,
                Attributes::new().with("market", markets[i % markets.len()]),
            );
            nodes_by_name.insert(name, id);
            study.push(id);
        }
        let mut topo = Topology::with_capacity(spec.nodes * 2);
        for i in 0..spec.nodes {
            let name = format!("control-{i}");
            let id = inv.push(
                name.clone(),
                NfType::ENodeB,
                Attributes::new().with("market", markets[i % markets.len()]),
            );
            nodes_by_name.insert(name, id);
            topo.add_edge(study[i], id);
        }
        let mut rule = VerificationRule::standard(
            "ingest",
            vec![KpiQuery::expecting(spec.kpi.clone(), true, spec.expect)],
        );
        rule.location_attributes = vec!["market".into()];
        let scope = ChangeScope::simultaneous(&study, spec.change_minute);
        let config = StreamConfig {
            step_minutes: spec.step_minutes,
            detect_window: spec.window,
            detect_threshold: spec.threshold,
            ..StreamConfig::default()
        };
        let engine = StreamingVerifier::new(vec![rule], scope, inv, topo, config, tracer);
        StreamSession {
            spec,
            engine,
            nodes_by_name,
            recent: Mutex::new(VecDeque::with_capacity(DETECTION_RING)),
        }
    }
}

/// Per-tenant registry of ingest sessions.
pub struct StreamHub {
    tracer: Tracer,
    sessions: RwLock<HashMap<String, Arc<StreamSession>>>,
}

/// Outcome of one `POST /v1/ingest` body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Samples enqueued.
    pub accepted: usize,
    /// Lines refused: malformed JSON, missing fields, unknown node, or
    /// off-grid minute.
    pub rejected: usize,
    /// Samples shed by the bounded queue during this batch.
    pub shed: usize,
    /// Detector candidates fired while applying this batch.
    pub detections: usize,
}

impl StreamHub {
    /// Empty hub; sessions appear on first POST.
    pub fn new(tracer: Tracer) -> StreamHub {
        StreamHub {
            tracer,
            sessions: RwLock::new(HashMap::new()),
        }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    fn session_of(&self, tenant: &str) -> Option<Arc<StreamSession>> {
        self.sessions
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
            .cloned()
    }

    fn session_or_create(
        &self,
        tenant: &str,
        params: impl Iterator<Item = (String, String)>,
    ) -> Result<Arc<StreamSession>, String> {
        if let Some(s) = self.session_of(tenant) {
            return Ok(s);
        }
        let collected: Vec<(String, String)> = params.collect();
        let spec =
            StreamSpec::from_params(collected.iter().map(|(k, v)| (k.as_str(), v.as_str())))?;
        let mut w = self.sessions.write().unwrap_or_else(|e| e.into_inner());
        Ok(Arc::clone(w.entry(tenant.to_string()).or_insert_with(
            || Arc::new(StreamSession::new(spec, self.tracer.clone())),
        )))
    }

    /// Apply one JSONL batch for `tenant`, creating the session from
    /// `params` if this is its first POST. Returns the receipt JSON.
    pub fn ingest(
        &self,
        tenant: &str,
        params: impl Iterator<Item = (String, String)>,
        body: &str,
    ) -> Result<String, String> {
        let session = self.session_or_create(tenant, params)?;
        let before = session.engine.stats();
        let mut receipt = IngestReceipt::default();
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_sample(line, &session.nodes_by_name) {
                Some(sample) => {
                    session.engine.offer(sample);
                    receipt.accepted += 1;
                }
                None => receipt.rejected += 1,
            }
        }
        let pump = session.engine.pump();
        let after = session.engine.stats();
        receipt.rejected += pump.rejected;
        receipt.accepted -= pump.rejected.min(receipt.accepted);
        receipt.shed = (after.shed - before.shed) as usize;
        receipt.detections = pump.detections;
        {
            let mut recent = session.recent.lock().unwrap_or_else(|e| e.into_inner());
            for d in session.engine.take_detections() {
                if recent.len() == DETECTION_RING {
                    recent.pop_front();
                }
                recent.push_back(d);
            }
        }
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("accepted").int(receipt.accepted);
        w.key("rejected").int(receipt.rejected);
        w.key("shed").int(receipt.shed);
        w.key("detections").int(receipt.detections);
        w.key("streams").int(session.engine.store().stream_count());
        w.end_object();
        Ok(out)
    }

    /// Render the tenant's session snapshot: counters, recent
    /// detections, and the current verdicts. `None` when the tenant has
    /// no session yet.
    pub fn snapshot(&self, tenant: &str) -> Option<String> {
        let session = self.session_of(tenant)?;
        let stats = session.engine.stats();
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("spec").begin_object();
        w.key("nodes").int(session.spec.nodes);
        w.key("kpi").str(&session.spec.kpi);
        w.key("change_minute").int(session.spec.change_minute);
        w.key("step_minutes").int(session.spec.step_minutes);
        w.key("window").int(session.spec.window);
        w.key("threshold")
            .float(session.spec.threshold, FloatFmt::Display);
        w.end_object();
        w.key("stats").begin_object();
        w.key("accepted").int(stats.accepted);
        w.key("shed").int(stats.shed);
        w.key("processed").int(stats.processed);
        w.key("rejected").int(stats.rejected);
        w.key("detections").int(stats.detections);
        w.end_object();
        match session.engine.detection_latency_quantile(0.99) {
            Some(p99) => w
                .key("detection_latency_p99_ms")
                .float(p99 * 1e3, FloatFmt::Fixed(3)),
            None => w.key("detection_latency_p99_ms").null(),
        };
        w.key("detections").begin_array();
        {
            let recent = session.recent.lock().unwrap_or_else(|e| e.into_inner());
            for d in recent.iter() {
                w.begin_object();
                w.key("node")
                    .str(&node_name(&session.nodes_by_name, d.node));
                w.key("kpi").str(&d.kpi);
                w.key("timescale").int(d.timescale);
                w.key("minute").int(d.minute);
                w.key("delta").float(d.delta, FloatFmt::Fixed(6));
                w.key("score").float(d.score, FloatFmt::Fixed(3));
                w.end_object();
            }
        }
        w.end_array();
        match session.engine.poll_verdicts() {
            Ok(reports) => {
                w.key("verdicts").begin_array();
                for report in &reports {
                    w.begin_object();
                    w.key("rule").str(&report.rule);
                    w.key("decision").str(match report.decision {
                        GoNoGo::Go => "go",
                        GoNoGo::NoGo => "no-go",
                    });
                    w.key("kpis").begin_array();
                    for kr in &report.kpis {
                        w.begin_object();
                        w.key("kpi").str(&kr.query.kpi);
                        w.key("verdict")
                            .display(format_args!("{:?}", kr.overall.verdict));
                        w.key("p_value").float(kr.overall.p_value, FloatFmt::Exp);
                        w.key("relative_shift")
                            .float(kr.overall.relative_shift, FloatFmt::Fixed(6));
                        w.key("meets_expectation").bool(kr.meets_expectation);
                        w.end_object();
                    }
                    w.end_array().end_object();
                }
                w.end_array();
                w.key("error").null();
            }
            Err(e) => {
                // Not enough data yet (or an integrity failure): surface
                // it as a field, not an HTTP error — the feed is healthy.
                w.key("verdicts").null();
                w.key("error").display(e);
            }
        }
        w.end_object();
        Some(out)
    }
}

fn node_name(nodes_by_name: &HashMap<String, NodeId>, id: NodeId) -> String {
    nodes_by_name
        .iter()
        .find(|(_, v)| **v == id)
        .map(|(k, _)| k.clone())
        .unwrap_or_else(|| format!("node-{}", id.0))
}

/// Parse one JSONL sample line; `None` on any malformation.
fn parse_sample(line: &str, nodes_by_name: &HashMap<String, NodeId>) -> Option<StreamSample> {
    let value = parse(line).ok()?;
    let node = *nodes_by_name.get(value.get("node")?.as_str()?)?;
    let kpi = value.get("kpi")?.as_str()?.to_string();
    let minute = value.get("minute")?.as_f64()?;
    if !(minute.is_finite() && minute >= 0.0 && minute.fract() == 0.0) {
        return None;
    }
    // Value may be null (an explicit missing sample) or a number.
    let sample_value = match value.get("value")? {
        JsonValue::Null => f64::NAN,
        v => v.as_f64()?,
    };
    let carrier = match value.get("carrier") {
        None | Some(JsonValue::Null) => None,
        Some(c) => {
            let c = c.as_f64()?;
            if c.fract() != 0.0 || c < 0.0 {
                return None;
            }
            Some(c as usize)
        }
    };
    Some(StreamSample {
        node,
        kpi,
        carrier,
        minute: minute as u64,
        value: sample_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> StreamHub {
        StreamHub::new(Tracer::noop())
    }

    fn no_params() -> std::iter::Empty<(String, String)> {
        std::iter::empty()
    }

    fn line(node: &str, minute: u64, value: f64) -> String {
        format!("{{\"node\":\"{node}\",\"kpi\":\"kpi\",\"minute\":{minute},\"value\":{value}}}")
    }

    #[test]
    fn spec_defaults_and_overrides() {
        assert_eq!(
            StreamSpec::from_params(std::iter::empty()).unwrap(),
            StreamSpec::default()
        );
        let spec = StreamSpec::from_params(
            [
                ("nodes", "4"),
                ("kpi", "thr"),
                ("change_minute", "120"),
                ("expect", "improve"),
            ]
            .into_iter(),
        )
        .unwrap();
        assert_eq!(spec.nodes, 4);
        assert_eq!(spec.kpi, "thr");
        assert_eq!(spec.change_minute, 120);
        assert_eq!(spec.expect, Expectation::Improve);
        assert!(StreamSpec::from_params([("bogus", "1")].into_iter()).is_err());
        assert!(StreamSpec::from_params([("nodes", "0")].into_iter()).is_err());
    }

    #[test]
    fn ingest_counts_and_isolates_tenants() {
        let hub = hub();
        let spec_params = [("kpi".to_string(), "kpi".to_string())];
        let body = format!(
            "{}\n{}\nnot json\n{}\n",
            line("study-0", 0, 1.0),
            line("study-0", 60, 2.0),
            line("nobody", 120, 3.0),
        );
        let receipt = hub
            .ingest("alice", spec_params.iter().cloned(), &body)
            .unwrap();
        assert!(receipt.contains("\"accepted\":2"), "{receipt}");
        assert!(receipt.contains("\"rejected\":2"), "{receipt}");
        assert_eq!(hub.session_count(), 1);
        // A second tenant gets an independent session.
        hub.ingest("bob", no_params(), &line("study-1", 0, 9.0))
            .unwrap();
        assert_eq!(hub.session_count(), 2);
        let alice = hub.snapshot("alice").unwrap();
        assert!(alice.contains("\"processed\":2"), "{alice}");
        assert!(hub.snapshot("carol").is_none());
    }

    #[test]
    fn snapshot_reports_verdicts_after_enough_data() {
        let hub = hub();
        let params = [
            ("nodes".to_string(), "2".to_string()),
            ("kpi".to_string(), "kpi".to_string()),
            ("change_minute".to_string(), "3000".to_string()),
            ("expect".to_string(), "improve".to_string()),
        ];
        let mut body = String::new();
        for k in 0..100u64 {
            for node in ["study-0", "study-1", "control-0", "control-1"] {
                let mut v = 100.0 + ((k * 7) % 5) as f64 * 0.2;
                if node.starts_with("study") && k * 60 >= 3000 {
                    v += 25.0;
                }
                body.push_str(&line(node, k * 60, v));
                body.push('\n');
            }
        }
        hub.ingest("t", params.iter().cloned(), &body).unwrap();
        let snap = hub.snapshot("t").unwrap();
        assert!(snap.contains("\"decision\":\"go\""), "{snap}");
        assert!(snap.contains("\"verdict\":\"Improvement\""), "{snap}");
        assert!(snap.contains("\"error\":null"), "{snap}");
        // The step also fired the live detectors.
        assert!(!snap.contains("\"detections\":[]"), "{snap}");
        parse(&snap).expect("snapshot is JSON");

        // Every post-change study sample is an explicit gap: no rank
        // test has data, so no finite p-value exists and the snapshot
        // must say `null`, not `inf`.
        let gapped: String = (0..100u64)
            .flat_map(|k| {
                ["study-0", "study-1", "control-0", "control-1"].map(|node| {
                    if node.starts_with("study") && k * 60 >= 3000 {
                        line(node, k * 60, f64::NAN).replace("NaN", "null") + "\n"
                    } else {
                        line(node, k * 60, 100.0 + (k % 5) as f64) + "\n"
                    }
                })
            })
            .collect();
        hub.ingest("gapped", params.iter().cloned(), &gapped)
            .unwrap();
        let snap = hub.snapshot("gapped").unwrap();
        assert!(snap.contains("\"p_value\":null"), "{snap}");
        parse(&snap).expect("snapshot with a non-finite p-value is JSON");
    }

    #[test]
    fn off_grid_minutes_count_rejected() {
        let hub = hub();
        let body = format!("{}\n{}", line("study-0", 0, 1.0), line("study-0", 61, 2.0));
        let receipt = hub.ingest("t", no_params(), &body).unwrap();
        assert!(receipt.contains("\"accepted\":1"), "{receipt}");
        assert!(receipt.contains("\"rejected\":1"), "{receipt}");
    }

    #[test]
    fn null_value_is_missing_sample() {
        let hub = hub();
        let body = "{\"node\":\"study-0\",\"kpi\":\"kpi\",\"minute\":0,\"value\":null}";
        let receipt = hub.ingest("t", no_params(), body).unwrap();
        assert!(receipt.contains("\"accepted\":1"), "{receipt}");
    }
}
