//! # cornet-model
//!
//! Constraint-model intermediate representation — CORNET's stand-in for
//! MiniZinc (§3.3).
//!
//! The paper translates high-level scheduling intent into MiniZinc models
//! solved by CP/MIP solvers. We reproduce that pipeline with an in-memory
//! IR: integer decision variables (one slot-assignment variable per
//! schedulable unit, value 0 = unscheduled) plus the global constraint
//! families the six intent templates need, and a cost-table objective that
//! encodes the paper's `BIGM · conflicts − completion-reward` objective
//! (Listing 2's `solve minimize`).
//!
//! The IR serves three consumers:
//!
//! * [`emit`] renders the model as MiniZinc text (Appendix B parity);
//! * `cornet-solver` solves it with propagation + branch & bound;
//! * [`Model::stats`] reports variable/constraint counts and density — the
//!   quantities the paper discusses when comparing sparse vs dense
//!   translations (§3.3.2).

#![forbid(unsafe_code)]
pub mod builder;
pub mod constraint;
pub mod emit;
pub mod objective;
pub mod stats;

pub use builder::ModelBuilder;
pub use constraint::{CmpOp, Constraint, LinTerm};
pub use objective::{Objective, VarCost};
pub use stats::ModelStats;

/// Handle to a decision variable inside a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// Vector index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An integer decision variable with a contiguous initial domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntVar {
    /// Name used in emitted MiniZinc and diagnostics.
    pub name: String,
    /// Smallest domain value (inclusive).
    pub lo: i64,
    /// Largest domain value (inclusive).
    pub hi: i64,
}

impl IntVar {
    /// Domain width.
    pub fn domain_size(&self) -> usize {
        (self.hi - self.lo + 1).max(0) as usize
    }
}

/// A complete constraint model: variables, constraints, objective.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Model name (appears in emitted text).
    pub name: String,
    /// Decision variables.
    pub vars: Vec<IntVar>,
    /// Constraints over the variables.
    pub constraints: Vec<Constraint>,
    /// Minimization objective (empty objective = satisfaction problem).
    pub objective: Objective,
}

impl Model {
    /// Empty model with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a variable with domain `lo..=hi` and return its handle.
    pub fn add_var(&mut self, name: impl Into<String>, lo: i64, hi: i64) -> VarId {
        assert!(lo <= hi, "empty initial domain");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(IntVar {
            name: name.into(),
            lo,
            hi,
        });
        id
    }

    /// Add a constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Borrow a variable definition.
    pub fn var(&self, id: VarId) -> &IntVar {
        &self.vars[id.index()]
    }

    /// Number of decision variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Evaluate whether a full assignment satisfies every constraint.
    ///
    /// `assignment[i]` is the value of variable `i`. This is the reference
    /// semantics the solver and all property tests validate against.
    pub fn check(&self, assignment: &[i64]) -> Result<(), String> {
        if assignment.len() != self.vars.len() {
            return Err(format!(
                "assignment has {} values for {} variables",
                assignment.len(),
                self.vars.len()
            ));
        }
        for (i, v) in self.vars.iter().enumerate() {
            let val = assignment[i];
            if val < v.lo || val > v.hi {
                return Err(format!("{} = {val} outside [{}, {}]", v.name, v.lo, v.hi));
            }
        }
        for c in &self.constraints {
            c.check(assignment)
                .map_err(|e| format!("constraint '{}': {e}", c.label()))?;
        }
        Ok(())
    }

    /// Total objective cost of a full assignment.
    pub fn cost(&self, assignment: &[i64]) -> i64 {
        self.objective.cost(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;

    #[test]
    fn add_and_lookup_vars() {
        let mut m = Model::new("t");
        let a = m.add_var("a", 0, 5);
        let b = m.add_var("b", 1, 3);
        assert_eq!(m.var(a).name, "a");
        assert_eq!(m.var(b).domain_size(), 3);
        assert_eq!(m.var_count(), 2);
    }

    #[test]
    #[should_panic(expected = "empty initial domain")]
    fn inverted_domain_panics() {
        Model::new("t").add_var("a", 3, 1);
    }

    #[test]
    fn check_rejects_out_of_domain() {
        let mut m = Model::new("t");
        m.add_var("a", 0, 5);
        assert!(m.check(&[9]).is_err());
        assert!(m.check(&[3]).is_ok());
        assert!(m.check(&[]).is_err());
    }

    #[test]
    fn check_reports_constraint_label() {
        let mut m = Model::new("t");
        let a = m.add_var("a", 0, 5);
        m.add_constraint(Constraint::forbidden_value("frozen", a, 2));
        let err = m.check(&[2]).unwrap_err();
        assert!(err.contains("frozen"), "{err}");
    }
}
