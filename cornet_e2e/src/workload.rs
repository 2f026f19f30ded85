//! What the runner needs from a workload.

use crate::calibrate::Reference;
use crate::measure::Metric;
use cornet_obs::Tracer;
use std::path::PathBuf;
use std::sync::Arc;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["tenant_mix", "fleet_plan", "fleet_rollout", "kpi_verify"];

/// Inputs of a workload's set-up.
#[derive(Clone)]
pub struct Env {
    pub seed: u64,
    /// ~1/20-size op lists for `--quick` and the unit tests.
    pub quick: bool,
    /// Collecting tracer of a traced run, no-op otherwise. Workloads hand
    /// it to the program only in traced cycles.
    pub tracer: Tracer,
    /// Scratch directory for journals and daemon state.
    pub work_dir: PathBuf,
    /// The machine-speed reference; a workload samples it right after every
    /// op, outside the op's timed region, and hands the sample on with the
    /// op's result.
    pub reference: Arc<Reference>,
}

impl Env {
    /// The tracer for one cycle.
    pub fn tracer_for(&self, traced: bool) -> Tracer {
        if traced {
            self.tracer.clone()
        } else {
            Tracer::noop()
        }
    }
}

/// Outcome of one op.
#[derive(Clone, Debug, PartialEq)]
pub struct OpResult {
    /// Size/backend class, for the per-class breakdown.
    pub class: &'static str,
    pub latency_s: f64,
    /// The machine-speed reference sample taken right after the op.
    pub reference_s: f64,
    /// Whether the latency enters the percentiles (expected refusals are
    /// correct ops but not latency samples).
    pub timed: bool,
    /// First violated oracle, for the failure report.
    pub failure: Option<String>,
}

impl OpResult {
    /// Every oracle of the op held.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    pub fn new(
        class: &'static str,
        latency_s: f64,
        reference_s: f64,
        verdict: Result<(), String>,
    ) -> OpResult {
        OpResult {
            class,
            latency_s,
            reference_s,
            timed: true,
            failure: verdict.err(),
        }
    }
}

/// `Err(msg)` unless `cond`.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// A fixed, seeded op list run closed-loop, one cycle at a time. Every
/// cycle runs the same list, so the second cycle is also the determinism
/// check of the first.
pub trait Workload {
    /// Fingerprint of the seeded op list (same seed, same list).
    fn ops_fingerprint(&self) -> u64;

    /// Untimed housekeeping before a cycle (fresh testbeds, old journals).
    fn prepare_cycle(&mut self) {}

    /// Run the op list once; one result per op, in op order.
    fn run_cycle(&mut self, traced: bool) -> Vec<OpResult>;

    /// Workload-specific per-layer metrics gathered over the cycles run.
    fn layer_metrics(&self) -> Vec<Metric>;

    /// `Err` when a count that must repeat exactly differed between cycles.
    fn check_counts(&self) -> Result<(), String> {
        Ok(())
    }

    /// Stop everything the set-up started and delete its files.
    fn finish(self: Box<Self>) {}
}
