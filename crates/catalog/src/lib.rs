//! # cornet-catalog
//!
//! The building-block catalog (§3.1): a library of reusable change-management
//! modules, each defined by an input/output parameter list and a REST
//! endpoint descriptor, with metadata recording which phase it serves and
//! whether it is NF-agnostic.
//!
//! The catalog is pure metadata — execution lives in `cornet-orchestrator`,
//! which binds block names to executors at run time. Keeping the two apart
//! mirrors the paper: the catalog stores "API location, input/output
//! parameter definitions" while implementations are Ansible playbooks,
//! vendor CLIs, or (here) simulated testbed actions.

#![forbid(unsafe_code)]
pub mod block;
pub mod builtin;
pub mod registry;

pub use block::{BlockSpec, ParamSpec, Phase, RestEndpoint, StateDim};
pub use builtin::builtin_catalog;
pub use registry::Catalog;
