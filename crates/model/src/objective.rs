//! Minimization objective as per-variable cost tables.
//!
//! Listing 2's objective is `BIGM · conflicts − Σ (T−t+1) · scheduled`,
//! i.e. every (variable, value) pair carries a cost: conflicting slots cost
//! `BIGM`, later slots cost more than earlier ones, and staying unscheduled
//! costs most of all. A per-variable cost of `slope · value + table[value]`
//! expresses all of these exactly while keeping the solver's lower-bound
//! computation trivial (sum of per-variable domain minima).

use crate::VarId;
use std::collections::BTreeMap;

/// Cost contribution of one variable: `slope · value + table[value]`.
/// Ordered so that equal terms can be interned (the solver keeps one cost
/// row per distinct term, not per variable).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VarCost {
    /// Linear coefficient on the assigned value (completion-time pressure:
    /// later slots cost more). Usually the node weight.
    pub slope: i64,
    /// Additive cost overrides for specific values (conflict penalties at
    /// busy slots, the unscheduled penalty at value 0).
    pub table: BTreeMap<i64, i64>,
}

impl VarCost {
    /// Cost of assigning `value` to this variable.
    pub fn cost_of(&self, value: i64) -> i64 {
        self.slope * value + self.table.get(&value).copied().unwrap_or(0)
    }
}

/// Total minimization objective.
#[derive(Clone, Debug, Default)]
pub struct Objective {
    /// Per-variable cost tables, keyed by variable.
    pub terms: BTreeMap<VarId, VarCost>,
    /// Constant offset (keeps emitted objectives comparable to the paper's).
    pub constant: i64,
}

impl Objective {
    /// True when no variable carries a cost (pure satisfaction problem).
    pub fn is_trivial(&self) -> bool {
        self.terms.is_empty() && self.constant == 0
    }

    /// Add `slope · value` pressure to a variable (accumulates).
    pub fn add_slope(&mut self, var: VarId, slope: i64) {
        self.terms.entry(var).or_default().slope += slope;
    }

    /// Add a one-off cost for a specific value of a variable (accumulates).
    pub fn add_value_cost(&mut self, var: VarId, value: i64, cost: i64) {
        *self
            .terms
            .entry(var)
            .or_default()
            .table
            .entry(value)
            .or_default() += cost;
    }

    /// Cost of one variable taking one value.
    pub fn var_cost(&self, var: VarId, value: i64) -> i64 {
        self.terms.get(&var).map_or(0, |c| c.cost_of(value))
    }

    /// Total cost of a full assignment.
    pub fn cost(&self, assignment: &[i64]) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(var, c)| c.cost_of(assignment[var.index()]))
                .sum::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_cost_composition() {
        let mut o = Objective::default();
        o.add_slope(VarId(0), 2);
        o.add_value_cost(VarId(0), 3, 100);
        assert_eq!(o.var_cost(VarId(0), 1), 2);
        assert_eq!(o.var_cost(VarId(0), 3), 106);
        assert_eq!(o.var_cost(VarId(1), 5), 0, "unknown var costs nothing");
    }

    #[test]
    fn total_cost() {
        let mut o = Objective {
            constant: 10,
            ..Default::default()
        };
        o.add_slope(VarId(0), 1);
        o.add_slope(VarId(1), 1);
        o.add_value_cost(VarId(1), 0, 1000); // unscheduled penalty
        assert_eq!(o.cost(&[2, 3]), 10 + 2 + 3);
        assert_eq!(o.cost(&[2, 0]), 10 + 2 + 1000);
    }

    #[test]
    fn accumulation() {
        let mut o = Objective::default();
        o.add_value_cost(VarId(0), 1, 5);
        o.add_value_cost(VarId(0), 1, 7);
        assert_eq!(o.var_cost(VarId(0), 1), 12);
        o.add_slope(VarId(0), 1);
        o.add_slope(VarId(0), 2);
        assert_eq!(o.var_cost(VarId(0), 1), 15);
    }

    #[test]
    fn trivial_detection() {
        let mut o = Objective::default();
        assert!(o.is_trivial());
        o.add_slope(VarId(0), 1);
        assert!(!o.is_trivial());
    }
}
