//! # cornet-planner
//!
//! The change schedule planner (§3.3): translate high-level change-plan
//! intent into constraint models, solve them, and decode schedules — plus
//! the scaling machinery of §3.3.3 (consistency contraction, independent
//! sub-problem decomposition) and the Appendix C custom heuristic for
//! hundreds of thousands of nodes.
//!
//! * [`intent`] — the JSON intent API of Listing 1 (scheduling window,
//!   maintenance window, ESA/CA, frozen elements, conflict table, and the
//!   six constraint-rule templates);
//! * [`mod@translate`] — intent → `cornet-model` translation with the linking
//!   variable vs hybrid-weight strategies of §3.3.2;
//! * [`mod@plan`] — the end-to-end planner facade; translate → solve →
//!   decode is literally its body;
//! * [`backend`] — the interchangeable solving strategies behind `solve`;
//! * [`decompose`] — independent-component splitting and timezone/market
//!   sharding, and the one split–solve–merge fan both are solved through;
//! * [`heuristic`] — Algorithm 1: timezone-sequenced market-permutation
//!   local search scheduling whole USIDs at a time.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
pub mod backend;
pub mod campaigns;
pub mod decompose;
pub mod heuristic;
pub mod intent;
pub mod lint;
pub mod plan;
pub mod translate;

pub use backend::{BackendChoice, BackendResult, BackendRun, Budget, SolveContext, SolverBackend};
pub use campaigns::{analyze_campaigns, index_by_node, Campaign, NodeClaim};
pub use heuristic::{heuristic_schedule, HeuristicConfig};
pub use intent::{ConflictTolerance, ConstraintRule, PlanIntent};
pub use lint::analyze_intent;
pub use plan::{plan, PlanOptions, PlanResult};
pub use translate::{translate, GroupStrategy, TranslateOptions, Translation};
