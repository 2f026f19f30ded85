//! The resilience layer: retry policies, circuit breaking, fault injection.
//!
//! §3.4's fall-out analysis exists because production change execution
//! fails partway — §5.1 reports SSH connectivity losses mid-deployment as
//! a routine failure mode. This module gives the orchestrator the policy
//! vocabulary to survive those failures: [`RetryPolicy`] re-attempts
//! transient block errors with deterministic exponential backoff,
//! [`CircuitBreaker`] turns the running [`FalloutAnalysis`] into an
//! automatic halt-the-rollout decision, and [`FaultyExecutor`] wraps any
//! registry with seeded fault injection so every path is exercisable
//! deterministically in tests and benches.
//!
//! All time accounting is simulated: backoffs advance a virtual clock and
//! injected latency is reported through the [`SIM_LATENCY_KEY`] state
//! variable, so resilience tests complete in microseconds of wall time.

use crate::executor::{ExecutorRegistry, GlobalState};
use crate::falloutanalysis::FalloutAnalysis;
use cornet_types::hash::fnv1a64;
use cornet_types::{CornetError, ParamValue};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Reserved global-state key through which executors report simulated
/// latency (milliseconds, accumulated). The engine drains it after every
/// block invocation and uses it as the block's logged duration, keeping
/// the execution log deterministic under fault injection.
pub const SIM_LATENCY_KEY: &str = "__sim_latency_ms";

/// splitmix64 finalizer; decorrelates structured inputs into uniform bits.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from 53 high bits.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Retry policy for one building block: bounded attempts with
/// deterministic exponential backoff and seeded jitter.
///
/// Only [transient](CornetError::is_transient) errors retry; permanent
/// errors fail (or back out) immediately regardless of remaining attempts.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied per further retry (2.0 = classic doubling).
    pub multiplier: f64,
    /// Upper bound on a single backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter stream; same seed ⇒ identical backoff series.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(100),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(30),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` and the default backoff curve.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..Default::default()
        }
    }

    /// Whether another attempt is allowed after `attempts` tries so far.
    pub fn allows_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Deterministic backoff before retry number `attempt` (1-based: the
    /// backoff taken after the `attempt`-th failed try) of `block`.
    /// Exponential with up to +50% seeded jitter, capped at `max_backoff`.
    pub fn backoff_for(&self, block: &str, attempt: u32) -> Duration {
        let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let bits = splitmix(self.jitter_seed ^ fnv1a64(block.as_bytes()) ^ (attempt as u64));
        let jitter = 1.0 + 0.5 * unit_f64(bits);
        Duration::from_secs_f64(capped * jitter)
    }

    /// Upper bound on the total time spent backing off if every attempt
    /// fails: the sum over the `max_attempts - 1` backoffs of the capped
    /// exponential term at maximum (+50%) jitter. Static analysis compares
    /// this against block deadlines to flag policies whose retries cannot
    /// complete in time.
    pub fn worst_case_backoff_total(&self) -> Duration {
        let mut total = 0.0;
        for attempt in 1..self.max_attempts {
            let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
            let raw = self.base_backoff.as_secs_f64() * exp;
            total += raw.min(self.max_backoff.as_secs_f64()) * 1.5;
        }
        Duration::from_secs_f64(total)
    }
}

/// Why the circuit breaker tripped.
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerTrip {
    /// The offending building block.
    pub block: String,
    /// Its observed failure rate at trip time.
    pub failure_rate: f64,
    /// Executions of the block observed so far.
    pub samples: usize,
}

/// Auto-halt gate over the running fall-out analysis (§2.1: "a decision is
/// made to halt the roll-out to the rest of the network").
///
/// Trips when any block's failure rate crosses `failure_threshold` after
/// at least `min_samples` executions of that block — the sample floor
/// stops one unlucky instance from halting a 10 000-node roll-out.
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitBreaker {
    /// Failure-rate threshold in `(0, 1]`.
    pub failure_threshold: f64,
    /// Minimum executions of a block before its rate is trusted.
    pub min_samples: usize,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker {
            failure_threshold: 0.5,
            min_samples: 5,
        }
    }
}

impl CircuitBreaker {
    /// Threshold-only constructor with the default sample floor.
    pub fn with_threshold(failure_threshold: f64) -> Self {
        CircuitBreaker {
            failure_threshold,
            ..Default::default()
        }
    }

    /// Consult the breaker; `Some` means halt now. When several blocks
    /// are over threshold the worst failure rate is reported.
    pub fn check(&self, analysis: &FalloutAnalysis) -> Option<BreakerTrip> {
        let mut worst: Option<BreakerTrip> = None;
        for (block, stats) in &analysis.per_block {
            let samples = stats.successes + stats.failures;
            let rate = stats.failure_rate();
            if samples >= self.min_samples && rate >= self.failure_threshold {
                let beats = worst.as_ref().is_none_or(|w| rate > w.failure_rate);
                if beats {
                    worst = Some(BreakerTrip {
                        block: block.clone(),
                        failure_rate: rate,
                        samples,
                    });
                }
            }
        }
        worst
    }
}

/// How an injected fault manifests.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Fails with [`CornetError::TransientFailure`] — retry-eligible.
    Transient,
    /// Fails with [`CornetError::ExecutionFailed`] — permanent.
    Permanent,
    /// The first `failures` invocations per (block, node) fail
    /// transiently, then the executor recovers for good.
    FlakyThenRecover {
        /// Leading invocations that fail before recovery.
        failures: u32,
    },
}

/// A deterministic crash location for kill-safety testing: the campaign
/// "dies" when the named block reaches the given invocation on the given
/// node.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashPoint {
    /// Block whose invocation triggers the crash.
    pub block: String,
    /// Node (`state["node"]`) the crash is bound to.
    pub node: String,
    /// Per-(block, node) invocation count (1-based) at which to crash.
    pub invocation: u64,
    /// Whether the crash lands mid-block (the completion record never
    /// appends) or mid-append (the next record is torn on disk).
    pub mode: cornet_journal::CrashMode,
}

/// Seeded fault-injection plan applied on top of a registry.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed; identical plans with identical seeds inject identical faults.
    pub seed: u64,
    /// Per-invocation failure probability for `Transient` / `Permanent`
    /// kinds (ignored by `FlakyThenRecover`, which is count-driven).
    pub failure_rate: f64,
    /// Fault flavour.
    pub kind: FaultKind,
    /// Simulated latency added per invocation, reported through
    /// [`SIM_LATENCY_KEY`].
    pub latency_ms: u64,
    /// Blocks to wrap; empty means every registered block.
    pub targets: Vec<String>,
    /// Simulated process crash, armed through a
    /// [`cornet_journal::CrashSwitch`] shared with the journal (see
    /// [`FaultyExecutor::wrap_with_crash`]).
    pub crash: Option<CrashPoint>,
}

impl FaultPlan {
    /// Transient faults at `failure_rate` on all blocks.
    pub fn transient(seed: u64, failure_rate: f64) -> Self {
        FaultPlan {
            seed,
            failure_rate,
            kind: FaultKind::Transient,
            latency_ms: 0,
            targets: Vec::new(),
            crash: None,
        }
    }

    /// Permanent faults at `failure_rate` on the named block only.
    pub fn permanent_on(seed: u64, failure_rate: f64, block: &str) -> Self {
        FaultPlan {
            seed,
            failure_rate,
            kind: FaultKind::Permanent,
            latency_ms: 0,
            targets: vec![block.to_owned()],
            crash: None,
        }
    }

    /// Restrict the plan to the named blocks.
    pub fn targeting(mut self, blocks: &[&str]) -> Self {
        self.targets = blocks.iter().map(|b| b.to_string()).collect();
        self
    }

    /// Add simulated latency inflation per invocation.
    pub fn with_latency_ms(mut self, ms: u64) -> Self {
        self.latency_ms = ms;
        self
    }

    /// Arm a deterministic crash: the campaign dies when `block` reaches
    /// its `invocation`-th execution (1-based, per node) on `node`.
    pub fn crash_at(
        mut self,
        block: &str,
        node: &str,
        invocation: u64,
        mode: cornet_journal::CrashMode,
    ) -> Self {
        self.crash = Some(CrashPoint {
            block: block.to_owned(),
            node: node.to_owned(),
            invocation,
            mode,
        });
        self
    }
}

/// Adapter wrapping every (targeted) executor of a registry with seeded
/// fault injection — the orchestrator-side analogue of
/// `cornet_netsim::Testbed`'s management-plane faults.
///
/// Fault decisions are keyed by `(seed, block, node, invocation counter)`
/// where the counter is per (block, node): thread interleaving across
/// instances cannot change which invocation fails, so a whole dispatch is
/// reproducible from the seed alone.
pub struct FaultyExecutor;

impl FaultyExecutor {
    /// Wrap `registry` according to `plan`, returning the faulty registry.
    /// Retry policies and deadlines carry over unchanged.
    pub fn wrap(registry: &ExecutorRegistry, plan: &FaultPlan) -> ExecutorRegistry {
        Self::wrap_inner(registry, plan, None)
    }

    /// Like [`FaultyExecutor::wrap`], but arms the plan's [`CrashPoint`]
    /// against `switch` — share the same switch with the campaign journal
    /// (via `Journal::with_crash_switch`) and the simulated process dies
    /// at a deterministic block invocation:
    ///
    /// * [`cornet_journal::CrashMode::MidBlock`] kills the switch and
    ///   fails the block — from the journal's view the process died before
    ///   the completion record could be appended.
    /// * [`cornet_journal::CrashMode::MidAppend`] lets the block complete
    ///   but tears its completion record in half on disk, then dies.
    pub fn wrap_with_crash(
        registry: &ExecutorRegistry,
        plan: &FaultPlan,
        switch: cornet_journal::CrashSwitch,
    ) -> ExecutorRegistry {
        Self::wrap_inner(
            registry,
            plan,
            plan.crash.clone().map(|point| (point, switch)),
        )
    }

    fn wrap_inner(
        registry: &ExecutorRegistry,
        plan: &FaultPlan,
        crash: Option<(CrashPoint, cornet_journal::CrashSwitch)>,
    ) -> ExecutorRegistry {
        let counters: Arc<Mutex<BTreeMap<(String, String), u64>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let crash = Arc::new(crash);
        let mut wrapped = registry.clone();
        for block in registry
            .block_names()
            .into_iter()
            .map(str::to_owned)
            .collect::<Vec<_>>()
        {
            if !plan.targets.is_empty() && !plan.targets.contains(&block) {
                continue;
            }
            let inner = registry.clone();
            let plan = plan.clone();
            let counters = counters.clone();
            let crash = crash.clone();
            let name = block.clone();
            wrapped.register(&block, move |state: &mut GlobalState| {
                let node = state
                    .get("node")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_owned();
                let invocation = {
                    let mut c = counters.lock().unwrap_or_else(|e| e.into_inner());
                    let n = c.entry((name.clone(), node.clone())).or_insert(0);
                    *n += 1;
                    *n
                };
                if plan.latency_ms > 0 {
                    add_sim_latency(state, plan.latency_ms);
                }
                if let Some((point, switch)) = crash.as_ref() {
                    if point.block == name && point.node == node && point.invocation == invocation {
                        match point.mode {
                            cornet_journal::CrashMode::MidBlock => {
                                switch.kill();
                                return Err(CornetError::ExecutionFailed(format!(
                                    "injected crash: {name} on '{node}' (invocation {invocation})"
                                )));
                            }
                            cornet_journal::CrashMode::MidAppend => switch.tear_next(),
                        }
                    }
                }
                let draw = unit_f64(splitmix(
                    plan.seed
                        ^ fnv1a64(name.as_bytes())
                        ^ fnv1a64(node.as_bytes()).rotate_left(17)
                        ^ invocation,
                ));
                let fail = match plan.kind {
                    FaultKind::Transient | FaultKind::Permanent => draw < plan.failure_rate,
                    FaultKind::FlakyThenRecover { failures } => invocation <= failures as u64,
                };
                if fail {
                    let msg =
                        format!("injected fault: {name} on '{node}' (invocation {invocation})");
                    return Err(match plan.kind {
                        FaultKind::Permanent => CornetError::ExecutionFailed(msg),
                        _ => CornetError::TransientFailure(msg),
                    });
                }
                inner.execute(&name, state)
            });
        }
        wrapped
    }
}

/// Accumulate simulated latency into the reserved state key.
pub fn add_sim_latency(state: &mut GlobalState, ms: u64) {
    let so_far = state
        .get(SIM_LATENCY_KEY)
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    state.insert(SIM_LATENCY_KEY.into(), ParamValue::Int(so_far + ms as i64));
}

/// Remove and return the accumulated simulated latency, if any.
pub fn take_sim_latency(state: &mut GlobalState) -> Option<Duration> {
    state
        .remove(SIM_LATENCY_KEY)
        .and_then(|v| v.as_i64())
        .map(|ms| Duration::from_millis(ms.max(0) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{DispatchReport, InstanceReport};
    use crate::engine::{BlockExecution, BlockStatus, InstanceStatus};
    use cornet_types::{NodeId, Timeslot};

    fn exec(block: &str, status: BlockStatus, error: Option<&str>) -> BlockExecution {
        BlockExecution {
            block: block.into(),
            status,
            duration: Duration::ZERO,
            error: error.map(str::to_owned),
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    fn report_with(block: &str, successes: usize, failures: usize) -> DispatchReport {
        let mut instances = Vec::new();
        for i in 0..successes {
            instances.push(InstanceReport {
                node: NodeId(i as u32),
                slot: Timeslot(1),
                status: InstanceStatus::Completed,
                blocks: vec![exec(block, BlockStatus::Success, None)],
            });
        }
        for i in 0..failures {
            instances.push(InstanceReport {
                node: NodeId((successes + i) as u32),
                slot: Timeslot(1),
                status: InstanceStatus::Failed(block.into()),
                blocks: vec![exec(
                    block,
                    BlockStatus::Failed,
                    Some("execution failed: x"),
                )],
            });
        }
        DispatchReport {
            instances,
            drained: Vec::new(),
        }
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy::default();
        let b1 = p.backoff_for("software_upgrade", 1);
        let b2 = p.backoff_for("software_upgrade", 2);
        let b3 = p.backoff_for("software_upgrade", 3);
        assert_eq!(
            b1,
            p.backoff_for("software_upgrade", 1),
            "same inputs, same backoff"
        );
        // Jitter is at most +50%, so doubling dominates: b2 > b1, b3 > b2.
        assert!(b2 > b1, "{b1:?} vs {b2:?}");
        assert!(b3 > b2, "{b2:?} vs {b3:?}");
        // Within the jittered envelope.
        assert!(b1 >= Duration::from_millis(100) && b1 <= Duration::from_millis(150));
        assert!(b2 >= Duration::from_millis(200) && b2 <= Duration::from_millis(300));
    }

    #[test]
    fn backoff_caps_at_max() {
        let p = RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_secs(1),
            multiplier: 10.0,
            max_backoff: Duration::from_secs(5),
            jitter_seed: 3,
        };
        // 10^9 seconds uncapped; capped to 5 s (+50% jitter max).
        assert!(p.backoff_for("b", 10) <= Duration::from_secs_f64(7.5));
    }

    #[test]
    fn worst_case_backoff_total_bounds_every_jittered_series() {
        let p = RetryPolicy::default(); // 3 attempts: backoffs of ~100ms and ~200ms
        let bound = p.worst_case_backoff_total();
        assert_eq!(bound, Duration::from_millis(450), "(100 + 200) * 1.5");
        for block in ["a", "b", "software_upgrade"] {
            let actual: Duration = (1..p.max_attempts).map(|i| p.backoff_for(block, i)).sum();
            assert!(actual <= bound, "{actual:?} > {bound:?} for {block}");
        }
        // Capping applies to the bound as well.
        let capped = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_secs(10),
            multiplier: 10.0,
            max_backoff: Duration::from_secs(20),
            jitter_seed: 0,
        };
        // 10 + 20 + 20 seconds, each * 1.5.
        assert_eq!(capped.worst_case_backoff_total(), Duration::from_secs(75));
        // A single-attempt policy never backs off.
        assert_eq!(
            RetryPolicy::with_attempts(1).worst_case_backoff_total(),
            Duration::ZERO
        );
    }

    #[test]
    fn different_blocks_get_different_jitter() {
        let p = RetryPolicy::default();
        assert_ne!(p.backoff_for("a", 1), p.backoff_for("b", 1));
    }

    #[test]
    fn breaker_needs_min_samples() {
        let breaker = CircuitBreaker {
            failure_threshold: 0.5,
            min_samples: 5,
        };
        let small = FalloutAnalysis::from_reports([&report_with("upgrade", 0, 4)]);
        assert_eq!(breaker.check(&small), None, "4 samples < floor of 5");
        let enough = FalloutAnalysis::from_reports([&report_with("upgrade", 1, 4)]);
        let trip = breaker.check(&enough).expect("80% failure over 5 samples");
        assert_eq!(trip.block, "upgrade");
        assert_eq!(trip.samples, 5);
        assert!((trip.failure_rate - 0.8).abs() < 1e-12);
    }

    #[test]
    fn breaker_ignores_healthy_blocks() {
        let breaker = CircuitBreaker::default();
        let healthy = FalloutAnalysis::from_reports([&report_with("hc", 20, 1)]);
        assert_eq!(breaker.check(&healthy), None);
    }

    #[test]
    fn breaker_reports_worst_offender() {
        let breaker = CircuitBreaker {
            failure_threshold: 0.5,
            min_samples: 2,
        };
        let mut r = report_with("a", 1, 1); // 50%
        r.instances.extend(report_with("b", 0, 2).instances); // 100%
        let trip = breaker.check(&FalloutAnalysis::from_reports([&r])).unwrap();
        assert_eq!(trip.block, "b");
    }

    #[test]
    fn faulty_executor_is_deterministic() {
        let mut reg = ExecutorRegistry::new();
        reg.register("op", |_| Ok(()));
        let plan = FaultPlan::transient(42, 0.5);
        let outcomes = |p: &FaultPlan| {
            let faulty = FaultyExecutor::wrap(&reg, p);
            (0..32)
                .map(|i| {
                    let mut s = GlobalState::new();
                    s.insert("node".into(), ParamValue::from(format!("n-{i}")));
                    faulty.execute("op", &mut s).is_ok()
                })
                .collect::<Vec<_>>()
        };
        let a = outcomes(&plan);
        let b = outcomes(&plan);
        assert_eq!(a, b, "same seed, same fault pattern");
        assert!(
            a.iter().any(|ok| *ok) && a.iter().any(|ok| !*ok),
            "mixed outcomes at 50%"
        );
        let c = outcomes(&FaultPlan::transient(43, 0.5));
        assert_ne!(a, c, "different seed, different pattern");
    }

    #[test]
    fn flaky_then_recover_counts_per_node() {
        let mut reg = ExecutorRegistry::new();
        reg.register("op", |_| Ok(()));
        let plan = FaultPlan {
            seed: 1,
            failure_rate: 0.0,
            kind: FaultKind::FlakyThenRecover { failures: 2 },
            latency_ms: 7,
            targets: Vec::new(),
            crash: None,
        };
        let faulty = FaultyExecutor::wrap(&reg, &plan);
        let mut s = GlobalState::new();
        s.insert("node".into(), ParamValue::from("n-0"));
        assert!(faulty.execute("op", &mut s).is_err(), "1st fails");
        assert!(faulty.execute("op", &mut s).is_err(), "2nd fails");
        assert!(faulty.execute("op", &mut s).is_ok(), "3rd recovers");
        // Independent counter for a different node.
        let mut s2 = GlobalState::new();
        s2.insert("node".into(), ParamValue::from("n-1"));
        assert!(
            faulty.execute("op", &mut s2).is_err(),
            "fresh node starts failing again"
        );
        // Latency accumulated over the three invocations of n-0.
        assert_eq!(take_sim_latency(&mut s), Some(Duration::from_millis(21)));
    }

    #[test]
    fn permanent_plan_targets_only_named_block() {
        let mut reg = ExecutorRegistry::new();
        reg.register("good", |_| Ok(()));
        reg.register("bad", |_| Ok(()));
        let faulty = FaultyExecutor::wrap(&reg, &FaultPlan::permanent_on(9, 1.0, "bad"));
        let mut s = GlobalState::new();
        assert!(faulty.execute("good", &mut s).is_ok());
        let err = faulty.execute("bad", &mut s).unwrap_err();
        assert!(!err.is_transient(), "permanent fault class");
    }
}
