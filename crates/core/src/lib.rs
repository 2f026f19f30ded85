//! # cornet-core
//!
//! The CORNET facade: one crate that composes the catalog, workflow
//! designer, orchestrator, schedule planner and impact verifier into the
//! unified experience of Fig. 3, plus the code-reuse accounting behind the
//! §4 evaluation (Table 3).
//!
//! * [`reuse`] — module-count arithmetic for the three reuse experiments;
//! * [`executors`] — bindings from catalog block names to the simulated
//!   VNF testbed (the workspace's Ansible playbooks);
//! * [`cornet`] — the `Cornet` facade used by the examples.
//!
//! Downstream users normally depend on this crate alone; it re-exports
//! the pieces examples need.

#![forbid(unsafe_code)]
pub mod blast;
pub mod check;
pub mod cornet;
pub mod executors;
pub mod native;
pub mod reuse;
pub mod rollout;

pub use blast::{
    analyze_interference, campaign_blasts, conflicts_between, conflicts_within, render_blast_text,
    BlastConflict, CampaignBlast, NodeTouch,
};
pub use check::{bundle_from_value, check, gate, load_bundle, MopBundle};
pub use cornet::Cornet;
pub use executors::testbed_registry;
pub use native::{planning_registry, verification_registry};
pub use reuse::{table3, ReuseRow, ReuseScenario};
pub use rollout::{staged_rollout, RolloutOutcome, RolloutPlan, RolloutReport};

// Re-exports for one-stop consumption by examples and integration tests.
pub use cornet_catalog as catalog;
pub use cornet_model as model;
pub use cornet_netsim as netsim;
pub use cornet_orchestrator as orchestrator;
pub use cornet_planner as planner;
pub use cornet_solver as solver;
pub use cornet_stats as stats;
pub use cornet_types as types;
pub use cornet_verifier as verifier;
pub use cornet_workflow as workflow;
