//! # cornet-analysis
//!
//! The unified static-analysis framework. The paper's §3.2 verification
//! step (zombie detection) and §6's "intent completeness" problem are both
//! static analyses; following Relational Network Verification, CORNET
//! checks *changes* against the pre-change state before anything executes.
//! This crate is the shared substrate every checker builds on:
//!
//! * [`diag`] — the diagnostics model: [`Diagnostic`] with stable machine
//!   codes (`CN0102`), [`Severity`], a [`SourceRef`] pointing at the
//!   offending node/edge/rule/param, optional fix hints, and text + JSON
//!   lines renderers;
//! * [`baseline`] — suppression of previously accepted diagnostics so
//!   `cornet check` can gate only on *new* findings.
//!
//! Code ranges are allocated per concern: `CN01xx` structural workflow
//! checks, `CN02xx` parameter dataflow, `CN03xx` resilience arithmetic,
//! `CN04xx` schedule planning, `CN05xx` verification rules, `CN06xx`
//! cross-campaign interference. The concrete
//! passes live next to the subsystems they analyze (`cornet-workflow`,
//! `cornet-planner`, `cornet-orchestrator`, `cornet-verifier`); the
//! full-bundle pipeline is assembled in `cornet-core` and fronted by the
//! `cornet check` CLI gate.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod diag;

pub use baseline::Baseline;
pub use diag::{Code, Diagnostic, Report, Severity, SourceRef};
