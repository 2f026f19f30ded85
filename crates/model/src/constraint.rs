//! Constraint vocabulary of the model IR.
//!
//! Each variant corresponds to a constraint family the planner's intent
//! templates translate into (§3.3.1–3.3.2). Every variant knows how to
//! *check* itself against a full assignment — the reference semantics that
//! the solver's propagators and all property tests are validated against.

use crate::VarId;
use std::collections::BTreeMap;

/// Comparison operator for linear constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

impl CmpOp {
    fn holds(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Le => lhs <= rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
        }
    }

    /// MiniZinc spelling.
    pub fn mzn(self) -> &'static str {
        match self {
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
        }
    }
}

/// One `coeff · var` term of a linear expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinTerm {
    /// Coefficient.
    pub coeff: i64,
    /// Variable.
    pub var: VarId,
}

/// A constraint over slot-assignment variables.
///
/// Variables take values in `0..=T` where 0 means *unscheduled* and
/// `1..=T` are timeslots. Constraints that quantify "per slot" skip value 0
/// — an unscheduled node consumes no capacity.
#[derive(Clone, Debug, PartialEq)]
pub enum Constraint {
    /// Weighted capacity per granule of `block` consecutive slots: for
    /// every granule `g`, `Σ weight[i] · [vars[i] ∈ g] ≤ cap(g)` — the
    /// concurrency template (Eq. 1 / Eq. 5). `block = 1` is the per-slot
    /// case; `block = 7` expresses a weekly cap over daily slots (§3.3.2's
    /// "different time granularity among constraints").
    Capacity {
        /// Human-readable provenance label.
        label: String,
        /// Participating variables.
        vars: Vec<VarId>,
        /// Per-variable weights (parallel to `vars`).
        weights: Vec<i64>,
        /// Default capacity for granules not in `slot_caps`.
        default_cap: i64,
        /// Granule-specific capacity overrides (keyed by granule index).
        slot_caps: BTreeMap<i64, i64>,
        /// Consecutive slots per granule (≥ 1).
        block: i64,
        /// Optional explicit granule id per model value (index `value−1`).
        /// When present it overrides the `(value−1)/block` bucketing —
        /// needed when model values index a *compacted* usable-slot list
        /// (excluded holidays) but granules must follow calendar weeks
        /// (§3.3.2's differing-granularity complication).
        value_granules: Option<Vec<i64>>,
    },
    /// At most `cap` *distinct groups* may occupy any single slot — the
    /// concurrency template applied to a non-ESA attribute through linking
    /// variables (Eq. 2–3: `y_mt ≥ x_it`, `Σ_m y_mt ≤ cap`).
    DistinctGroups {
        /// Provenance label.
        label: String,
        /// Participating variables.
        vars: Vec<VarId>,
        /// Group index of each variable (parallel to `vars`).
        group_of: Vec<usize>,
        /// Maximum distinct groups per slot.
        cap: i64,
    },
    /// All variables must take the same value — the consistency template
    /// (co-located 4G/5G upgrades deployed together, §3.3.1).
    SameValue {
        /// Provenance label.
        label: String,
        /// Variables forced equal.
        vars: Vec<VarId>,
    },
    /// Scheduled variables sharing a slot must have metric values within
    /// `max_distance` — the uniformity template (Listing 2's timezone
    /// constraint with `max_distance_ctr1`).
    MaxSpread {
        /// Provenance label.
        label: String,
        /// Participating variables.
        vars: Vec<VarId>,
        /// Metric value of each variable ×1000 (fixed point, so UTC
        /// offsets like +5.5 stay exact and the IR stays integral).
        metric_milli: Vec<i64>,
        /// Maximum allowed spread ×1000 within one slot.
        max_distance_milli: i64,
    },
    /// Slot intervals of different groups must not interleave — the
    /// localize template (Listing 2's MARKET_START/END disjunction).
    NonInterleaved {
        /// Provenance label.
        label: String,
        /// Participating variables.
        vars: Vec<VarId>,
        /// Group index of each variable.
        group_of: Vec<usize>,
    },
    /// A single variable must not take a value — frozen elements and
    /// zero-tolerance ticket conflicts.
    ForbiddenValue {
        /// Provenance label.
        label: String,
        /// Constrained variable.
        var: VarId,
        /// Forbidden value.
        value: i64,
    },
    /// Generic linear constraint `Σ coeff·var ⋈ rhs` — the fallback the
    /// paper's dense translation strategy produces (Eq. 4).
    Linear {
        /// Provenance label.
        label: String,
        /// Terms of the sum.
        terms: Vec<LinTerm>,
        /// Comparison operator.
        cmp: CmpOp,
        /// Right-hand side.
        rhs: i64,
    },
}

impl Constraint {
    /// Convenience constructor for [`Constraint::ForbiddenValue`].
    pub fn forbidden_value(label: impl Into<String>, var: VarId, value: i64) -> Self {
        Constraint::ForbiddenValue {
            label: label.into(),
            var,
            value,
        }
    }

    /// Provenance label of the constraint.
    pub fn label(&self) -> &str {
        match self {
            Constraint::Capacity { label, .. }
            | Constraint::DistinctGroups { label, .. }
            | Constraint::SameValue { label, .. }
            | Constraint::MaxSpread { label, .. }
            | Constraint::NonInterleaved { label, .. }
            | Constraint::ForbiddenValue { label, .. }
            | Constraint::Linear { label, .. } => label,
        }
    }

    /// Variables the constraint mentions (with repetition).
    pub fn vars(&self) -> Vec<VarId> {
        match self {
            Constraint::Capacity { vars, .. }
            | Constraint::DistinctGroups { vars, .. }
            | Constraint::SameValue { vars, .. }
            | Constraint::MaxSpread { vars, .. }
            | Constraint::NonInterleaved { vars, .. } => vars.clone(),
            Constraint::ForbiddenValue { var, .. } => vec![*var],
            Constraint::Linear { terms, .. } => terms.iter().map(|t| t.var).collect(),
        }
    }

    /// For a [`Constraint::Capacity`]: the granule a *scheduled* value
    /// (`> 0`) lands in. `None` for other constraint kinds. Exposed so
    /// the planner's cross-shard reconciliation can track loads with the
    /// exact bucketing `check` uses.
    pub fn capacity_granule(&self, value: i64) -> Option<i64> {
        match self {
            Constraint::Capacity {
                block,
                value_granules,
                ..
            } => Some(match value_granules {
                Some(vg) => vg[(value - 1) as usize],
                None => (value - 1) / (*block).max(1),
            }),
            _ => None,
        }
    }

    /// For a [`Constraint::Capacity`]: the capacity of `granule` after
    /// per-granule overrides. `None` for other constraint kinds.
    pub fn capacity_of_granule(&self, granule: i64) -> Option<i64> {
        match self {
            Constraint::Capacity {
                default_cap,
                slot_caps,
                ..
            } => Some(slot_caps.get(&granule).copied().unwrap_or(*default_cap)),
            _ => None,
        }
    }

    /// Check the constraint against a full assignment.
    pub fn check(&self, a: &[i64]) -> Result<(), String> {
        match self {
            Constraint::Capacity {
                vars,
                weights,
                default_cap,
                slot_caps,
                block,
                value_granules,
                ..
            } => {
                let block = (*block).max(1);
                let granule = |val: i64| -> i64 {
                    match value_granules {
                        Some(vg) => vg[(val - 1) as usize],
                        None => (val - 1) / block,
                    }
                };
                let mut load: BTreeMap<i64, i64> = BTreeMap::new();
                for (v, w) in vars.iter().zip(weights) {
                    let val = a[v.index()];
                    if val > 0 {
                        *load.entry(granule(val)).or_default() += w;
                    }
                }
                for (granule, l) in load {
                    let cap = slot_caps.get(&granule).copied().unwrap_or(*default_cap);
                    if l > cap {
                        return Err(format!("granule {granule} load {l} exceeds cap {cap}"));
                    }
                }
                Ok(())
            }
            Constraint::DistinctGroups {
                vars,
                group_of,
                cap,
                ..
            } => {
                let mut groups: BTreeMap<i64, std::collections::BTreeSet<usize>> = BTreeMap::new();
                for (v, g) in vars.iter().zip(group_of) {
                    let val = a[v.index()];
                    if val > 0 {
                        groups.entry(val).or_default().insert(*g);
                    }
                }
                for (slot, gs) in groups {
                    if gs.len() as i64 > *cap {
                        return Err(format!(
                            "slot {slot} touches {} distinct groups, cap {cap}",
                            gs.len()
                        ));
                    }
                }
                Ok(())
            }
            Constraint::SameValue { vars, .. } => {
                let mut it = vars.iter();
                if let Some(first) = it.next() {
                    let v0 = a[first.index()];
                    for v in it {
                        if a[v.index()] != v0 {
                            return Err(format!("values differ: {} vs {}", v0, a[v.index()]));
                        }
                    }
                }
                Ok(())
            }
            Constraint::MaxSpread {
                vars,
                metric_milli,
                max_distance_milli,
                ..
            } => {
                let mut range: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                for (v, m) in vars.iter().zip(metric_milli) {
                    let val = a[v.index()];
                    if val > 0 {
                        let e = range.entry(val).or_insert((*m, *m));
                        e.0 = e.0.min(*m);
                        e.1 = e.1.max(*m);
                    }
                }
                for (slot, (lo, hi)) in range {
                    if hi - lo > *max_distance_milli {
                        return Err(format!(
                            "slot {slot} spread {} exceeds {max_distance_milli}",
                            hi - lo
                        ));
                    }
                }
                Ok(())
            }
            Constraint::NonInterleaved { vars, group_of, .. } => {
                let n_groups = group_of.iter().copied().max().map_or(0, |m| m + 1);
                let mut intervals = vec![(i64::MAX, i64::MIN); n_groups];
                for (v, g) in vars.iter().zip(group_of) {
                    let val = a[v.index()];
                    if val > 0 {
                        intervals[*g].0 = intervals[*g].0.min(val);
                        intervals[*g].1 = intervals[*g].1.max(val);
                    }
                }
                let mut used: Vec<(i64, i64, usize)> = intervals
                    .iter()
                    .enumerate()
                    .filter(|(_, (lo, _))| *lo != i64::MAX)
                    .map(|(g, (lo, hi))| (*lo, *hi, g))
                    .collect();
                used.sort();
                for pair in used.windows(2) {
                    // Strict interleaving check: intervals may share a
                    // boundary slot (the heuristic packs group tails into
                    // leftover capacity) but must not properly overlap.
                    if pair[1].0 < pair[0].1 {
                        return Err(format!(
                            "groups {} and {} interleave: [{},{}] vs [{},{}]",
                            pair[0].2, pair[1].2, pair[0].0, pair[0].1, pair[1].0, pair[1].1
                        ));
                    }
                }
                Ok(())
            }
            Constraint::ForbiddenValue { var, value, .. } => {
                if a[var.index()] == *value {
                    Err(format!("variable takes forbidden value {value}"))
                } else {
                    Ok(())
                }
            }
            Constraint::Linear {
                terms, cmp, rhs, ..
            } => {
                let lhs: i64 = terms.iter().map(|t| t.coeff * a[t.var.index()]).sum();
                if cmp.holds(lhs, *rhs) {
                    Ok(())
                } else {
                    Err(format!("{lhs} {} {rhs} violated", cmp.mzn()))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn capacity_counts_weighted_load_per_slot() {
        let c = Constraint::Capacity {
            label: "cap".into(),
            vars: vars(3),
            weights: vec![1, 2, 1],
            default_cap: 2,
            slot_caps: BTreeMap::new(),
            block: 1,
            value_granules: None,
        };
        assert!(c.check(&[1, 2, 2]).is_err(), "slot 2 load 3 > 2");
        assert!(c.check(&[1, 2, 1]).is_ok());
        assert!(c.check(&[0, 0, 0]).is_ok(), "unscheduled consumes nothing");
    }

    #[test]
    fn capacity_slot_overrides() {
        // Keys are granule indices: with block = 1, slot t → granule t-1.
        let mut slot_caps = BTreeMap::new();
        slot_caps.insert(0, 0);
        let c = Constraint::Capacity {
            label: "cap".into(),
            vars: vars(1),
            weights: vec![1],
            default_cap: 10,
            slot_caps,
            block: 1,
            value_granules: None,
        };
        assert!(c.check(&[1]).is_err(), "slot 1 has cap 0");
        assert!(c.check(&[2]).is_ok());
    }

    #[test]
    fn distinct_groups_cap() {
        let c = Constraint::DistinctGroups {
            label: "mkt".into(),
            vars: vars(4),
            group_of: vec![0, 0, 1, 2],
            cap: 2,
        };
        assert!(c.check(&[1, 1, 1, 2]).is_ok(), "slot1 has groups {{0,1}}");
        assert!(c.check(&[1, 1, 1, 1]).is_err(), "slot1 has 3 groups");
    }

    #[test]
    fn same_value() {
        let c = Constraint::SameValue {
            label: "usid".into(),
            vars: vars(3),
        };
        assert!(c.check(&[4, 4, 4]).is_ok());
        assert!(c.check(&[4, 4, 5]).is_err());
    }

    #[test]
    fn max_spread_timezones() {
        // Offsets -5, -6, -8 (milli). Max distance 1 hour.
        let c = Constraint::MaxSpread {
            label: "tz".into(),
            vars: vars(3),
            metric_milli: vec![-5000, -6000, -8000],
            max_distance_milli: 1000,
        };
        assert!(c.check(&[1, 1, 2]).is_ok(), "-5 and -6 are adjacent");
        assert!(c.check(&[1, 2, 1]).is_err(), "-5 and -8 are 3 apart");
        assert!(
            c.check(&[1, 0, 1]).is_err(),
            "unscheduled var doesn't rescue spread"
        );
    }

    #[test]
    fn non_interleaved_groups() {
        let c = Constraint::NonInterleaved {
            label: "localize".into(),
            vars: vars(4),
            group_of: vec![0, 0, 1, 1],
        };
        assert!(c.check(&[1, 2, 3, 4]).is_ok());
        assert!(
            c.check(&[1, 3, 2, 4]).is_err(),
            "group1 slot2 inside group0 [1,3]"
        );
        assert!(
            c.check(&[1, 2, 2, 3]).is_ok(),
            "shared boundary slot allowed"
        );
        assert!(c.check(&[0, 0, 1, 2]).is_ok(), "empty group ignored");
    }

    #[test]
    fn linear_ops() {
        let t = |coeff, var| LinTerm {
            coeff,
            var: VarId(var),
        };
        let c = Constraint::Linear {
            label: "lin".into(),
            terms: vec![t(2, 0), t(-1, 1)],
            cmp: CmpOp::Le,
            rhs: 3,
        };
        assert!(c.check(&[1, 0]).is_ok()); // 2 <= 3
        assert!(c.check(&[3, 1]).is_err()); // 5 > 3
        let eq = Constraint::Linear {
            label: "eq".into(),
            terms: vec![t(1, 0)],
            cmp: CmpOp::Eq,
            rhs: 2,
        };
        assert!(eq.check(&[2, 0]).is_ok());
        assert!(eq.check(&[1, 0]).is_err());
    }

    #[test]
    fn vars_listing() {
        let c = Constraint::forbidden_value("f", VarId(3), 1);
        assert_eq!(c.vars(), vec![VarId(3)]);
        assert_eq!(c.label(), "f");
    }
}
