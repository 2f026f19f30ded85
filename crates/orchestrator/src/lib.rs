//! # cornet-orchestrator
//!
//! The change workflow orchestrator (§3.4) — the workspace's stand-in for
//! Camunda. It executes validated workflows deployed as WAR artifacts:
//! token semantics from start to end, building blocks invoked through a
//! pluggable executor registry, per-block status and timing logged for
//! fall-out troubleshooting, atomic block execution, and a dispatcher
//! that launches instances per timeslot under a concurrency limit, with
//! campaign-level pause/resume between instances.
//!
//! [`resilience`] adds the robustness layer: per-block retry/backoff
//! policies and deadlines, a circuit breaker that auto-halts roll-outs on
//! fall-out, and a deterministic fault-injection harness.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
pub mod analysis;
pub mod control;
pub mod dispatcher;
pub mod engine;
pub mod executor;
pub mod falloutanalysis;
pub mod recovery;
pub mod resilience;

pub use analysis::{analyze_replay_safety, analyze_resilience, ResilienceSpec};
pub use control::{AdmissionSlots, CampaignControl, ControlState, SlotGuard};
pub use dispatcher::{CampaignOutcome, DispatchReport, Dispatcher, InstanceReport};
pub use engine::{BlockExecution, BlockSink, BlockStatus, Engine, InstanceStatus, ReplayRow};
pub use executor::{ExecutorRegistry, GlobalState};
pub use falloutanalysis::{BlockStats, FalloutAnalysis};
pub use recovery::{
    recover_campaign, report_fingerprint, CampaignFold, CampaignResult, RecoveredCampaign,
};
pub use resilience::{
    add_sim_latency, take_sim_latency, BreakerTrip, CircuitBreaker, CrashPoint, FaultKind,
    FaultPlan, FaultyExecutor, RetryPolicy, SIM_LATENCY_KEY,
};
