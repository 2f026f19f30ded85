//! Model statistics: the quantities the paper weighs when choosing between
//! translation strategies (§3.3.2 — "compute and compare the density of
//! several alternative representations").

use crate::constraint::Constraint;
use crate::Model;
use std::collections::BTreeMap;

/// Summary statistics of a constraint model.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelStats {
    /// Number of decision variables.
    pub vars: usize,
    /// Sum of domain sizes (search-space granularity).
    pub total_domain: usize,
    /// Number of constraints.
    pub constraints: usize,
    /// Constraint count per kind.
    pub by_kind: BTreeMap<String, usize>,
    /// Total variable references across constraints (model "density").
    pub var_references: usize,
    /// Average variable references per constraint.
    pub density: f64,
}

impl Model {
    /// Compute summary statistics.
    pub fn stats(&self) -> ModelStats {
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        let mut var_references = 0;
        for c in &self.constraints {
            let kind = match c {
                Constraint::Capacity { .. } => "capacity",
                Constraint::DistinctGroups { .. } => "distinct_groups",
                Constraint::SameValue { .. } => "same_value",
                Constraint::MaxSpread { .. } => "max_spread",
                Constraint::NonInterleaved { .. } => "non_interleaved",
                Constraint::ForbiddenValue { .. } => "forbidden_value",
                Constraint::Linear { .. } => "linear",
            };
            *by_kind.entry(kind.to_owned()).or_default() += 1;
            var_references += c.vars().len();
        }
        let constraints = self.constraints.len();
        ModelStats {
            vars: self.vars.len(),
            total_domain: self.vars.iter().map(|v| v.domain_size()).sum(),
            constraints,
            by_kind,
            var_references,
            density: if constraints == 0 {
                0.0
            } else {
                var_references as f64 / constraints as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ModelBuilder;

    #[test]
    fn stats_count_kinds_and_density() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.same_value("cons", vs[..2].to_vec());
        b.forbid("frozen", vs[3], 1);
        let m = b.build();
        let s = m.stats();
        assert_eq!(s.vars, 4);
        assert_eq!(s.total_domain, 4 * 6);
        assert_eq!(s.constraints, 3);
        assert_eq!(s.by_kind["capacity"], 1);
        assert_eq!(s.by_kind["same_value"], 1);
        assert_eq!(s.by_kind["forbidden_value"], 1);
        assert_eq!(s.var_references, 4 + 2 + 1);
        assert!((s.density - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_model_stats() {
        let m = crate::Model::new("empty");
        let s = m.stats();
        assert_eq!(s.vars, 0);
        assert_eq!(s.density, 0.0);
    }
}
