//! The journaled upgrade scenario: the one deterministic campaign shape
//! shared by `cornet run --journal`, `cornet resume`, and every campaign
//! the daemon drives.
//!
//! The workspace is simulation-first — executors are seeded fault-storm
//! simulations, not SSH sessions — so a campaign's entire execution is
//! determined by a handful of parameters (seed, node count, fault rate,
//! retry budget, breaker thresholds). Those parameters round-trip through
//! the journal's `campaign_opened` metadata and the daemon's campaign
//! manifests: whoever holds the meta map can rebuild the exact dispatcher
//! the original run used, which is what makes resume (CLI or daemon,
//! same process or after `kill -9`) replay bit-identically.

use cornet_catalog::builtin_catalog;
use cornet_journal::{CrashMode, CrashSwitch};
use cornet_orchestrator::resilience::{
    BreakerTrip, CircuitBreaker, FaultPlan, FaultyExecutor, RetryPolicy,
};
use cornet_orchestrator::{report_fingerprint, DispatchReport, ExecutorRegistry, GlobalState};
use cornet_types::json::JsonValue;
use cornet_types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet_workflow::builtin::software_upgrade_workflow;
use cornet_workflow::{Designer, WarArtifact};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a submitted scenario may ask for. The schedule, the fault plan
/// and every retry loop are sized by these keys, so a value past its
/// bound is a 400 at submission, not an allocation the daemon dies of.
/// `nodes` is the ingest session's bound. No slot holds more instances
/// than `PER_SLOT` allows, so no more workers than that can ever run one;
/// a breaker threshold is a share, in thousandths.
const NODES: RangeInclusive<u64> = 1..=4096;
const PER_SLOT: RangeInclusive<u64> = 1..=4096;
const ATTEMPTS: RangeInclusive<u64> = 1..=64;
const LATENCY_MS: RangeInclusive<u64> = 0..=60_000;
const FAULT_RATE_MILLI: RangeInclusive<u64> = 0..=1000;
const CONCURRENCY: RangeInclusive<u64> = 1..=4096;
const BREAKER_THRESHOLD_MILLI: RangeInclusive<u64> = 0..=1000;
const BREAKER_MIN_SAMPLES: RangeInclusive<u64> = 0..=4096;

/// JSON numbers are doubles: an integer past 2^53 arrives rounded, so it
/// is refused rather than run as a different value.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Counts executor invocations that actually ran (as opposed to being
/// replayed from a journal) — the zero-re-execution witness used by the
/// recovery tests and surfaced per campaign in the daemon API.
pub type ExecutionWitness = Arc<AtomicUsize>;

/// The fixed parameters of a journaled demo campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalScenario {
    /// Fault-storm RNG seed.
    pub seed: u64,
    /// Roll-out size (instances).
    pub nodes: u32,
    /// Instances per timeslot.
    pub per_slot: u32,
    /// Dispatcher worker-pool size.
    pub concurrency: usize,
    /// Transient-fault probability in thousandths (200 = 20%).
    pub fault_rate_milli: u32,
    /// Simulated per-block latency in milliseconds.
    pub latency_ms: u64,
    /// Retry budget per block.
    pub attempts: u32,
    /// Breaker failure threshold in thousandths (900 = 90%).
    pub breaker_threshold_milli: u32,
    /// Minimum samples before the breaker may trip.
    pub breaker_min_samples: usize,
}

impl Default for JournalScenario {
    fn default() -> Self {
        JournalScenario {
            seed: 42,
            nodes: 24,
            per_slot: 8,
            concurrency: 4,
            fault_rate_milli: 200,
            latency_ms: 5,
            attempts: 6,
            breaker_threshold_milli: 900,
            breaker_min_samples: 8,
        }
    }
}

impl JournalScenario {
    /// Parse the optional `scenario` object of a submitted campaign spec;
    /// absent keys keep their defaults, and a sized key outside its bound
    /// is refused.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let mut s = JournalScenario::default();
        let Some(entries) = value.entries() else {
            return Err("scenario must be a JSON object".into());
        };
        for (key, v) in entries {
            let n = v
                .as_f64()
                .filter(|n| (0.0..=MAX_EXACT_INT).contains(n) && n.fract() == 0.0)
                .ok_or_else(|| format!("scenario.{key} must be an integer in 0..=2^53"))?
                as u64;
            let within = |bound: RangeInclusive<u64>| {
                bound.contains(&n).then_some(n).ok_or_else(|| {
                    format!(
                        "scenario.{key}: want {}..={}, got {n}",
                        bound.start(),
                        bound.end()
                    )
                })
            };
            match key.as_str() {
                "seed" => s.seed = n,
                "nodes" => s.nodes = within(NODES)? as u32,
                "per_slot" => s.per_slot = within(PER_SLOT)? as u32,
                "concurrency" => s.concurrency = within(CONCURRENCY)? as usize,
                "fault_rate_milli" => s.fault_rate_milli = within(FAULT_RATE_MILLI)? as u32,
                "latency_ms" => s.latency_ms = within(LATENCY_MS)?,
                "attempts" => s.attempts = within(ATTEMPTS)? as u32,
                "breaker_threshold_milli" => {
                    s.breaker_threshold_milli = within(BREAKER_THRESHOLD_MILLI)? as u32
                }
                "breaker_min_samples" => {
                    s.breaker_min_samples = within(BREAKER_MIN_SAMPLES)? as usize
                }
                other => return Err(format!("unknown scenario key {other:?}")),
            }
        }
        Ok(s)
    }

    /// Serialize as journal/manifest metadata.
    pub fn meta(&self) -> BTreeMap<String, String> {
        BTreeMap::from([
            ("scenario".into(), "journaled_upgrade".into()),
            ("seed".into(), self.seed.to_string()),
            ("nodes".into(), self.nodes.to_string()),
            ("per_slot".into(), self.per_slot.to_string()),
            ("concurrency".into(), self.concurrency.to_string()),
            ("fault_rate_milli".into(), self.fault_rate_milli.to_string()),
            ("latency_ms".into(), self.latency_ms.to_string()),
            ("attempts".into(), self.attempts.to_string()),
            (
                "breaker_threshold_milli".into(),
                self.breaker_threshold_milli.to_string(),
            ),
            (
                "breaker_min_samples".into(),
                self.breaker_min_samples.to_string(),
            ),
        ])
    }

    /// Rebuild from journal/manifest metadata (the resume path).
    pub fn from_meta(meta: &BTreeMap<String, String>) -> Result<Self, String> {
        fn field<T: std::str::FromStr>(
            meta: &BTreeMap<String, String>,
            key: &str,
        ) -> Result<T, String> {
            meta.get(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("journal metadata is missing or corrupt: '{key}'"))
        }
        if meta.get("scenario").map(String::as_str) != Some("journaled_upgrade") {
            return Err("journal was not written by a cornet campaign".into());
        }
        Ok(JournalScenario {
            seed: field(meta, "seed")?,
            nodes: field(meta, "nodes")?,
            // Journals written before the slot width was recorded used 8.
            per_slot: field(meta, "per_slot").unwrap_or(8),
            concurrency: field(meta, "concurrency")?,
            fault_rate_milli: field(meta, "fault_rate_milli")?,
            latency_ms: field(meta, "latency_ms")?,
            attempts: field(meta, "attempts")?,
            breaker_threshold_milli: field(meta, "breaker_threshold_milli")?,
            breaker_min_samples: field(meta, "breaker_min_samples")?,
        })
    }

    /// The campaign schedule: `nodes` instances, `per_slot` per timeslot.
    pub fn schedule(&self) -> Schedule {
        let mut s = Schedule::default();
        for i in 0..self.nodes {
            s.assignments
                .insert(NodeId(i), Timeslot(i / self.per_slot.max(1) + 1));
        }
        s
    }

    /// The campaign's circuit breaker.
    pub fn breaker(&self) -> CircuitBreaker {
        CircuitBreaker {
            failure_threshold: self.breaker_threshold_milli as f64 / 1000.0,
            min_samples: self.breaker_min_samples,
        }
    }

    /// The Fig. 4 upgrade workflow with a roll_back backout flow, packaged.
    pub fn war(&self) -> Result<WarArtifact, String> {
        let cat = builtin_catalog();
        let mut wf = software_upgrade_workflow(&cat);
        let mut d = Designer::new(&cat, "backout");
        let s = d.start();
        let rb = d.task("roll_back").expect("catalog has roll_back");
        let e = d.end();
        d.connect(s, rb).connect(rb, e);
        wf.set_backout(d.build());
        WarArtifact::package(&wf, &cat).map_err(|e| e.to_string())
    }

    /// The seeded fault-storm registry. `crash` arms a deterministic kill
    /// at the given node's first software_upgrade invocation; `witness`
    /// counts every executor invocation that actually runs (replayed
    /// blocks never touch an executor, so resumed campaigns increment it
    /// only for the remainder).
    pub fn registry(
        &self,
        crash: Option<(u32, CrashSwitch)>,
        witness: Option<ExecutionWitness>,
    ) -> ExecutorRegistry {
        let mut plan = FaultPlan::transient(self.seed, self.fault_rate_milli as f64 / 1000.0)
            .with_latency_ms(self.latency_ms);
        let happy = happy_upgrade_registry(witness);
        let mut reg = match crash {
            Some((node, switch)) => {
                // Node names render as `enb-id000009` (NodeId's Display).
                plan = plan.crash_at(
                    "software_upgrade",
                    &format!("enb-{}", NodeId(node)),
                    1,
                    CrashMode::MidBlock,
                );
                FaultyExecutor::wrap_with_crash(&happy, &plan, switch)
            }
            None => FaultyExecutor::wrap(&happy, &plan),
        };
        reg.set_default_retry_policy(RetryPolicy::with_attempts(self.attempts));
        reg
    }

    /// Per-node workflow inputs.
    pub fn inputs(node: NodeId) -> GlobalState {
        let mut g = GlobalState::new();
        g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
        g.insert("software_version".into(), ParamValue::from("20.1"));
        g
    }

    /// One-line human summary (the line `cornet run --journal` prints).
    pub fn summary_line(report: &DispatchReport, trip: Option<&BreakerTrip>) -> String {
        format!(
            "campaign: {} instances, {} completed, {} failed, {} rolled back, \
             trip={} fingerprint={:016x}",
            report.instances.len(),
            report.completed(),
            report.failures().len(),
            report.rolled_back(),
            trip.map_or_else(|| "none".into(), |t| t.block.clone()),
            report_fingerprint(report),
        )
    }
}

/// The happy-path upgrade executor set, optionally counting invocations.
fn happy_upgrade_registry(witness: Option<ExecutionWitness>) -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    let count = move |w: &Option<ExecutionWitness>| {
        if let Some(w) = w {
            w.fetch_add(1, Ordering::SeqCst);
        }
    };
    let w = witness.clone();
    reg.register("health_check", move |s| {
        count(&w);
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    let w = witness.clone();
    reg.register("software_upgrade", move |s| {
        count(&w);
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    let w = witness.clone();
    reg.register("pre_post_comparison", move |s| {
        count(&w);
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    let w = witness;
    reg.register("roll_back", move |_| {
        count(&w);
        Ok(())
    });
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_orchestrator::Dispatcher;

    #[test]
    fn meta_round_trips() {
        let s = JournalScenario {
            seed: 7,
            nodes: 12,
            per_slot: 3,
            concurrency: 2,
            fault_rate_milli: 100,
            latency_ms: 1,
            attempts: 4,
            breaker_threshold_milli: 800,
            breaker_min_samples: 5,
        };
        assert_eq!(JournalScenario::from_meta(&s.meta()).unwrap(), s);
    }

    #[test]
    fn from_meta_defaults_the_slot_width_for_old_journals() {
        let mut meta = JournalScenario::default().meta();
        meta.remove("per_slot");
        assert_eq!(JournalScenario::from_meta(&meta).unwrap().per_slot, 8);
    }

    #[test]
    fn from_json_overrides_and_validates() {
        use cornet_types::json::parse;
        let v = parse(r#"{"nodes": 6, "seed": 9, "per_slot": 2}"#).unwrap();
        let s = JournalScenario::from_json(&v).unwrap();
        assert_eq!((s.nodes, s.seed, s.per_slot), (6, 9, 2));
        assert_eq!(s.concurrency, 4, "unset keys keep defaults");
        assert!(JournalScenario::from_json(&parse(r#"{"nodes": 0}"#).unwrap()).is_err());
        assert!(JournalScenario::from_json(&parse(r#"{"bogus": 1}"#).unwrap()).is_err());
    }

    #[test]
    fn from_json_holds_every_sized_key_to_its_bound() {
        use cornet_types::json::parse;
        let scenario = |text: &str| JournalScenario::from_json(&parse(text).unwrap());
        for (key, bound) in [
            ("nodes", NODES),
            ("per_slot", PER_SLOT),
            ("attempts", ATTEMPTS),
            ("latency_ms", LATENCY_MS),
            ("fault_rate_milli", FAULT_RATE_MILLI),
            ("concurrency", CONCURRENCY),
            ("breaker_threshold_milli", BREAKER_THRESHOLD_MILLI),
            ("breaker_min_samples", BREAKER_MIN_SAMPLES),
        ] {
            for edge in [*bound.start(), *bound.end()] {
                let s = scenario(&format!("{{\"{key}\": {edge}}}"));
                assert!(s.is_ok(), "{key} = {edge}: {s:?}");
            }
            let past = scenario(&format!("{{\"{key}\": {}}}", bound.end() + 1)).unwrap_err();
            assert!(past.contains(&format!("scenario.{key}: want")), "{past}");
            if *bound.start() > 0 {
                assert!(scenario(&format!("{{\"{key}\": 0}}")).is_err(), "{key} = 0");
            }
        }
        // A wire number the u32 would once have saturated into.
        let huge = scenario(r#"{"nodes": 1e12}"#).unwrap_err();
        assert_eq!(huge, "scenario.nodes: want 1..=4096, got 1000000000000");
        // Past 2^53 a double no longer names one integer.
        assert!(scenario(r#"{"seed": 9007199254740992}"#).is_ok());
        assert!(scenario(r#"{"seed": 1e16}"#).is_err());
        assert!(scenario(r#"{"seed": -1}"#).is_err());
        assert!(scenario(r#"{"concurrency": 0}"#).is_err());
        // Once journaled `as u32`, this ran and recorded a concurrency of 0.
        let wrapped = scenario(r#"{"concurrency": 4294967296}"#).unwrap_err();
        assert_eq!(
            wrapped,
            "scenario.concurrency: want 1..=4096, got 4294967296"
        );
    }

    #[test]
    fn identical_scenarios_produce_identical_fingerprints() {
        let s = JournalScenario {
            nodes: 8,
            latency_ms: 1,
            ..Default::default()
        };
        let run = || {
            let d =
                Dispatcher::new(s.war().unwrap(), s.registry(None, None), s.concurrency).unwrap();
            let outcome = d
                .run_campaign(
                    &s.schedule(),
                    JournalScenario::inputs,
                    Some(&s.breaker()),
                    None,
                )
                .unwrap();
            report_fingerprint(&outcome.report)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn witness_counts_executor_invocations() {
        let s = JournalScenario {
            nodes: 4,
            fault_rate_milli: 0,
            latency_ms: 1,
            ..Default::default()
        };
        let witness: ExecutionWitness = Arc::new(AtomicUsize::new(0));
        let d = Dispatcher::new(
            s.war().unwrap(),
            s.registry(None, Some(witness.clone())),
            s.concurrency,
        )
        .unwrap();
        let report = d.run(&s.schedule(), JournalScenario::inputs).unwrap();
        assert_eq!(report.completed(), 4);
        // 3 mainline blocks per instance, no faults, no backouts.
        assert_eq!(witness.load(Ordering::SeqCst), 12);
    }
}
