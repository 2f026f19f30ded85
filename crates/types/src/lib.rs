//! # cornet-types
//!
//! Shared vocabulary for the CORNET workspace: identifiers, attribute maps,
//! inventory records, network topology, simulated time, and change-management
//! domain types (change types, tickets, conflict tables).
//!
//! Every other crate in the workspace builds on these types, so this crate
//! depends on nothing, inside CORNET or out. Interchange is JSON (the
//! paper's user-facing intent API) and [`json`] is the workspace's one
//! codec for it. Two std-only utilities every layer would otherwise copy
//! live here too: [`par`], the ordered bounded parallel map, and
//! [`hash`], the one FNV-1a-64.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
pub mod attr;
pub mod change;
pub mod error;
pub mod hash;
pub mod id;
pub mod inventory;
pub mod json;
pub mod nf;
pub mod par;
pub mod param;
pub mod time;
pub mod topology;

pub use attr::{AttrKey, AttrValue, Attributes};
pub use change::{ChangeTicket, ChangeType, ConflictEntry, ConflictTable, Schedule};
pub use error::{CornetError, ErrorClass};
pub use id::NodeId;
pub use inventory::{Inventory, InventoryRecord};
pub use nf::NfType;
pub use param::{ParamType, ParamValue};
pub use time::{Granularity, MaintenanceWindow, SchedulingWindow, SimTime, TimeUnit, Timeslot};
pub use topology::{ServiceChain, Topology};

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, CornetError>;
