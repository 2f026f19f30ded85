//! # cornet-workflow
//!
//! Graph-based change-workflow design (§3.2): building blocks are nodes,
//! connections are edges, decisions branch on workflow state, and the whole
//! graph is validated (zombie detection, reachability, parameter flow)
//! before being packaged into a WAR-like deployment artifact with a
//! dynamically generated REST API.
//!
//! The module split mirrors the paper's flow:
//!
//! * [`graph`] — the BPMN-like workflow structure;
//! * [`designer`] — fluent construction API ("our designer still allows the
//!   quick and flexible creation of any new workflow");
//! * [`mod@validate`] — the verification step ("we ensure that there are no
//!   zombie building blocks");
//! * [`war`] — WAR generation + REST registration for the orchestrator;
//! * [`builtin`] — canonical workflows, including Fig. 4's software
//!   upgrade and the two-workflow vCE pattern from §5.1.

#![forbid(unsafe_code)]
pub mod builtin;
pub mod designer;
pub mod effects;
pub mod graph;
pub mod validate;
pub mod war;

pub use designer::Designer;
pub use effects::{block_effects, workflow_effects, BlockEffects, WorkflowEffects};
pub use graph::{NodeId as WfNodeId, NodeKind, Workflow, WorkflowEdge, WorkflowNode};
pub use validate::analyze;
pub use war::{WarArtifact, WarManifest};
