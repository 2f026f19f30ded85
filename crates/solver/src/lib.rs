//! # cornet-solver
//!
//! A constraint-programming solver for the models produced by CORNET's
//! intent translation — the workspace's stand-in for the MiniZinc backends
//! (Google OR-Tools CP, COIN-OR CBC) the paper invokes (§3.3).
//!
//! Architecture — a search node costs what changed, not `vars × values`:
//!
//! * [`domain::BitDomain`] — bitset domains over slot values `0..=T`;
//! * [`state::State`] — domains, reversible counters and a domain-size
//!   bucket index of the unfixed variables, all on one trail: a fix is one
//!   trail entry per domain word, undo restores words and counters, and
//!   the smallest-domain, lowest-index variable is a bit scan away;
//! * [`propagate::Propagation`] — one filtering routine per constraint
//!   family, driven to fixpoint from the state's change and assignment
//!   notifications on reusable, run-stamped queues. `Capacity` keeps its
//!   per-granule loads in the state's counters and filters only the
//!   granules whose load rose, only for members that no longer fit;
//! * [`search`] — branch & bound DFS on an explicit frame stack (no
//!   recursion, so no stack sized to the model): cost-ordered values from
//!   objective rows sorted once and interned (a fleet model has a handful
//!   of distinct rows), per-variable minima over the root-propagated
//!   domains for pruning, node and wall-clock budgets — and a
//!   capacity-derived lower bound on the whole model at which the search
//!   stops `Optimal` the moment the incumbent meets it.
//!
//! The bound: the objective is a sum over variables, so per-variable
//! minima add up. A `Capacity` constraint whose members each cost at least
//! `k · weight · slot` (one `k` for the group, weights positive, per-slot
//! adjustments non-negative) bounds them by the *fluid* optimum — pour the
//! total weight into the granules cheapest-first up to capacity, overflow
//! paying the cheapest unscheduled price. Splitting weight across slots,
//! ignoring other members' load, forbids and penalties all relax the
//! problem, so the fluid optimum never exceeds the true one; any other
//! model keeps the per-variable minima. On the planner's fleet models the
//! greedy first dive meets this bound, so a solve is `vars + 1` nodes.
//!
//! The kernel this replaced (whole-constraint re-filtering, a scan per
//! variable pick, a sort per node, one recursion frame per variable) lives
//! on under `#[cfg(test)]` as the oracle of the equivalence suites.
//!
//! The solver is exact: given enough budget it proves optimality. Under a
//! budget it returns the incumbent and reports [`Outcome::Feasible`] —
//! matching how the paper's operations teams run their solvers with
//! discovery-time limits.

#![forbid(unsafe_code)]
pub mod domain;
#[cfg(test)]
mod equivalence;
pub mod propagate;
#[cfg(test)]
mod reference;
pub mod search;
pub mod state;

pub use propagate::Propagation;
pub use search::{
    solve, CancelToken, Outcome, SearchStats, SharedIncumbent, Solution, SolveResult, SolverConfig,
};
pub use state::{Conflict, State};

#[cfg(test)]
mod proptests {
    use crate::search::{solve, Outcome, SolverConfig};
    use cornet_model::ModelBuilder;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any solution the solver returns must pass the model checker.
        #[test]
        fn solver_solutions_always_check(
            n in 1usize..8,
            slots in 1u32..6,
            cap in 1i64..4,
        ) {
            let mut b = ModelBuilder::new("prop", slots);
            let vs = b.slot_vars("X", n);
            b.capacity("cap", vs.clone(), vec![1; n], cap);
            b.completion_objective(&vs, &vec![1; n], 1_000);
            let m = b.build();
            let r = solve(&m, &SolverConfig::default());
            prop_assert!(r.best.is_some(), "soft scheduling is always satisfiable");
            prop_assert!(m.check(&r.solution().assignment).is_ok());
        }

        /// With enough slots and capacity, everything gets scheduled and
        /// the cost equals the textbook staircase bound.
        #[test]
        fn full_schedule_cost_matches_closed_form(
            n in 1usize..7,
            cap in 1i64..4,
        ) {
            let slots = (n as u32).div_ceil(cap as u32).max(1) + 1;
            let mut b = ModelBuilder::new("prop", slots);
            let vs = b.slot_vars("X", n);
            b.capacity("cap", vs.clone(), vec![1; n], cap);
            b.require_scheduled(&vs);
            b.completion_objective(&vs, &vec![1; n], 1_000);
            let m = b.build();
            let r = solve(&m, &SolverConfig::default());
            prop_assert_eq!(r.outcome, Outcome::Optimal);
            // Optimal packs cap nodes per slot: cost = Σ ceil(i/cap).
            let expected: i64 = (1..=n as i64).map(|i| (i + cap - 1) / cap).sum();
            prop_assert_eq!(r.solution().cost, expected);
        }

        /// Consistency groups always land on a single slot.
        #[test]
        fn consistency_always_holds(
            pairs in 1usize..4,
            slots in 2u32..6,
        ) {
            let n = pairs * 2;
            let mut b = ModelBuilder::new("prop", slots);
            let vs = b.slot_vars("X", n);
            for p in 0..pairs {
                b.same_value("pair", vec![vs[2 * p], vs[2 * p + 1]]);
            }
            b.completion_objective(&vs, &vec![1; n], 1_000);
            let m = b.build();
            let r = solve(&m, &SolverConfig::default());
            let a = &r.solution().assignment;
            for p in 0..pairs {
                prop_assert_eq!(a[2 * p], a[2 * p + 1]);
            }
        }
    }
}
