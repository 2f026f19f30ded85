//! Ergonomic construction of scheduling models.
//!
//! The planner assembles models constraint-by-constraint as it walks the
//! intent; this builder holds the shared conventions — slot-assignment
//! variables in `0..=T` with 0 = unscheduled, label plumbing — so the
//! translation code (and the tests) stay readable.

use crate::constraint::{CmpOp, Constraint, LinTerm};
use crate::{Model, VarId, VarName};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builder around a [`Model`] for slot-assignment scheduling problems.
#[derive(Debug)]
pub struct ModelBuilder {
    model: Model,
    /// Number of timeslots; variables range over `0..=slots`.
    slots: i64,
}

impl ModelBuilder {
    /// Start a model with `slots` available timeslots.
    pub fn new(name: impl Into<String>, slots: u32) -> Self {
        assert!(slots > 0, "a schedule needs at least one slot");
        Self {
            model: Model::new(name),
            slots: slots as i64,
        }
    }

    /// Number of timeslots.
    pub fn slots(&self) -> u32 {
        self.slots as u32
    }

    /// Add one slot-assignment variable (`0..=slots`, 0 = unscheduled).
    pub fn slot_var(&mut self, name: impl Into<VarName>) -> VarId {
        self.model.add_var(name, 0, self.slots)
    }

    /// Add `n` slot-assignment variables named `{prefix}[i]`. They share
    /// one copy of `prefix`; a name is formatted only when printed.
    pub fn slot_vars(&mut self, prefix: &str, n: usize) -> Vec<VarId> {
        let prefix: Arc<str> = Arc::from(prefix);
        self.model.vars.reserve(n);
        (0..n)
            .map(|i| self.slot_var(VarName::Indexed(Arc::clone(&prefix), i as u32)))
            .collect()
    }

    /// Require every variable to be scheduled (exclude value 0).
    ///
    /// Used under zero conflict tolerance when the operations intent is
    /// "every node must land inside the window or the plan is infeasible".
    pub fn require_scheduled(&mut self, vars: &[VarId]) {
        for &v in vars {
            self.model
                .add_constraint(Constraint::forbidden_value("must_schedule", v, 0));
        }
    }

    /// Uniform weighted capacity per slot (concurrency template).
    pub fn capacity(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        weights: Vec<i64>,
        default_cap: i64,
    ) {
        assert_eq!(vars.len(), weights.len());
        self.model.add_constraint(Constraint::Capacity {
            label: label.into(),
            vars,
            weights,
            default_cap,
            slot_caps: BTreeMap::new(),
            block: 1,
            value_granules: None,
        });
    }

    /// Capacity with per-slot overrides.
    pub fn capacity_with_overrides(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        weights: Vec<i64>,
        default_cap: i64,
        slot_caps: BTreeMap<i64, i64>,
    ) {
        assert_eq!(vars.len(), weights.len());
        self.model.add_constraint(Constraint::Capacity {
            label: label.into(),
            vars,
            weights,
            default_cap,
            slot_caps,
            block: 1,
            value_granules: None,
        });
    }

    /// Weighted capacity per granule of `block` consecutive slots — a
    /// weekly cap over daily slots is `block = 7` (§3.3.2's differing
    /// time-granularity case).
    pub fn capacity_blocked(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        weights: Vec<i64>,
        default_cap: i64,
        block: i64,
    ) {
        assert_eq!(vars.len(), weights.len());
        assert!(block >= 1, "granule must span at least one slot");
        self.model.add_constraint(Constraint::Capacity {
            label: label.into(),
            vars,
            weights,
            default_cap,
            slot_caps: BTreeMap::new(),
            block,
            value_granules: None,
        });
    }

    /// Weighted capacity with an explicit value→granule mapping (index
    /// `value−1`) — the calendar-aligned variant of [`Self::capacity_blocked`]
    /// for compacted slot lists with excluded periods.
    pub fn capacity_with_granules(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        weights: Vec<i64>,
        default_cap: i64,
        value_granules: Vec<i64>,
    ) {
        assert_eq!(vars.len(), weights.len());
        assert_eq!(
            value_granules.len(),
            self.slots as usize,
            "one granule per slot value"
        );
        self.model.add_constraint(Constraint::Capacity {
            label: label.into(),
            vars,
            weights,
            default_cap,
            slot_caps: BTreeMap::new(),
            block: 1,
            value_granules: Some(value_granules),
        });
    }

    /// At most `cap` distinct groups per slot (linking-variable strategy).
    pub fn distinct_groups(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        group_of: Vec<usize>,
        cap: i64,
    ) {
        assert_eq!(vars.len(), group_of.len());
        self.model.add_constraint(Constraint::DistinctGroups {
            label: label.into(),
            vars,
            group_of,
            cap,
        });
    }

    /// Force variables equal (consistency template).
    pub fn same_value(&mut self, label: impl Into<String>, vars: Vec<VarId>) {
        self.model.add_constraint(Constraint::SameValue {
            label: label.into(),
            vars,
        });
    }

    /// Bound the metric spread within each slot (uniformity template).
    /// `metric` values are fixed-pointed at ×1000 internally.
    pub fn max_spread(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        metric: &[f64],
        max_distance: f64,
    ) {
        assert_eq!(vars.len(), metric.len());
        self.model.add_constraint(Constraint::MaxSpread {
            label: label.into(),
            vars,
            metric_milli: metric.iter().map(|m| (m * 1000.0).round() as i64).collect(),
            max_distance_milli: (max_distance * 1000.0).round() as i64,
        });
    }

    /// Forbid interleaving of groups across slots (localize template).
    pub fn non_interleaved(
        &mut self,
        label: impl Into<String>,
        vars: Vec<VarId>,
        group_of: Vec<usize>,
    ) {
        assert_eq!(vars.len(), group_of.len());
        self.model.add_constraint(Constraint::NonInterleaved {
            label: label.into(),
            vars,
            group_of,
        });
    }

    /// Forbid one value of one variable (frozen element / busy slot).
    pub fn forbid(&mut self, label: impl Into<String>, var: VarId, value: i64) {
        self.model
            .add_constraint(Constraint::forbidden_value(label, var, value));
    }

    /// Generic linear constraint (dense translation strategy, Eq. 4).
    pub fn linear(
        &mut self,
        label: impl Into<String>,
        terms: Vec<(i64, VarId)>,
        cmp: CmpOp,
        rhs: i64,
    ) {
        self.model.add_constraint(Constraint::Linear {
            label: label.into(),
            terms: terms
                .into_iter()
                .map(|(coeff, var)| LinTerm { coeff, var })
                .collect(),
            cmp,
            rhs,
        });
    }

    /// Completion-time pressure: each scheduled slot `t` costs `weight · t`,
    /// and staying unscheduled costs `weight · unscheduled_penalty`.
    pub fn completion_objective(
        &mut self,
        vars: &[VarId],
        weights: &[i64],
        unscheduled_penalty: i64,
    ) {
        assert_eq!(vars.len(), weights.len());
        for (&v, &w) in vars.iter().zip(weights) {
            self.model.objective.add_slope(v, w);
            self.model
                .objective
                .add_value_cost(v, 0, w * unscheduled_penalty);
        }
    }

    /// Conflict penalty: assigning `var = slot` costs `penalty` (soft
    /// conflict under minimize-conflicts tolerance).
    pub fn conflict_penalty(&mut self, var: VarId, slot: i64, penalty: i64) {
        self.model.objective.add_value_cost(var, slot, penalty);
    }

    /// Finish and return the model.
    pub fn build(self) -> Model {
        self.model
    }

    /// Peek at the model under construction.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_vars_have_unscheduled_zero() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 3);
        let m = b.build();
        assert_eq!(m.var_count(), 3);
        assert_eq!(m.var(vs[0]).lo, 0);
        assert_eq!(m.var(vs[2]).hi, 5);
        assert_eq!(m.var(vs[1]).name.to_string(), "X[1]");
    }

    #[test]
    fn require_scheduled_forbids_zero() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 2);
        b.require_scheduled(&vs);
        let m = b.build();
        assert!(m.check(&[0, 1]).is_err());
        assert!(m.check(&[1, 1]).is_ok());
    }

    #[test]
    fn completion_objective_prefers_early_slots() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 2);
        b.completion_objective(&vs, &[1, 1], 100);
        let m = b.build();
        assert!(m.cost(&[1, 1]) < m.cost(&[3, 3]));
        assert!(m.cost(&[3, 3]) < m.cost(&[0, 3]), "unscheduled is worst");
    }

    #[test]
    fn max_spread_fixed_point() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 2);
        b.max_spread("tz", vs, &[-5.0, -5.5], 0.5);
        let m = b.build();
        assert!(m.check(&[1, 1]).is_ok(), "spread exactly 0.5 allowed");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        ModelBuilder::new("t", 0);
    }

    #[test]
    fn blocked_capacity_groups_slots_into_granules() {
        // Weekly cap of 1 over daily slots: two nodes in the same 7-slot
        // week violate; one per week passes.
        let mut b = ModelBuilder::new("t", 14);
        let vs = b.slot_vars("X", 2);
        b.capacity_blocked("weekly", vs, vec![1, 1], 1, 7);
        let m = b.build();
        assert!(m.check(&[1, 5]).is_err(), "slots 1 and 5 share week 0");
        assert!(
            m.check(&[1, 8]).is_ok(),
            "slots 1 and 8 are different weeks"
        );
        assert!(m.check(&[7, 8]).is_ok(), "week boundary at slot 7/8");
    }
}
