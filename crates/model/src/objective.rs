//! Minimization objective as per-variable cost tables.
//!
//! Listing 2's objective is `BIGM · conflicts − Σ (T−t+1) · scheduled`,
//! i.e. every (variable, value) pair carries a cost: conflicting slots cost
//! `BIGM`, later slots cost more than earlier ones, and staying unscheduled
//! costs most of all. A per-variable cost of `slope · value + table[value]`
//! (with value 0's entry held inline, as `unscheduled`) expresses all of
//! these exactly while keeping the solver's lower-bound computation
//! trivial (sum of per-variable domain minima).

use crate::VarId;

/// Cost contribution of one variable: `slope · value`, plus `unscheduled`
/// at value 0 and `table[value]` at any other value. Ordered so that
/// equal terms can be interned (the solver keeps one cost row per
/// distinct term, not per variable).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VarCost {
    /// Linear coefficient on the assigned value (completion-time pressure:
    /// later slots cost more). Usually the node weight.
    pub slope: i64,
    /// Additive cost of value 0, staying unscheduled — priced on every
    /// variable of a translated model, so it is held inline.
    pub unscheduled: i64,
    /// Additive cost overrides for other values (conflict penalties at
    /// busy slots) as `(value, cost)`, sorted by value, one entry a value.
    /// Never holds value 0: that cost is `unscheduled`.
    pub table: Vec<(i64, i64)>,
}

/// The term of a variable nothing prices.
static ZERO: VarCost = VarCost {
    slope: 0,
    unscheduled: 0,
    table: Vec::new(),
};

impl VarCost {
    /// Cost of assigning `value` to this variable.
    pub fn cost_of(&self, value: i64) -> i64 {
        if value == 0 {
            return self.unscheduled;
        }
        let adjust = match self.table.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(at) => self.table[at].1,
            Err(_) => 0,
        };
        self.slope * value + adjust
    }
}

/// Total minimization objective.
#[derive(Clone, Debug, Default)]
pub struct Objective {
    /// Per-variable terms, indexed by variable; grown only as far as the
    /// highest variable priced, so it is empty until something is.
    terms: Vec<VarCost>,
    /// Constant offset (keeps emitted objectives comparable to the paper's).
    pub constant: i64,
}

impl Objective {
    /// True when no variable carries a cost (pure satisfaction problem).
    pub fn is_trivial(&self) -> bool {
        self.terms.is_empty() && self.constant == 0
    }

    /// A variable's term; the zero term for a variable nothing priced.
    pub fn term(&self, var: VarId) -> &VarCost {
        self.terms.get(var.index()).unwrap_or(&ZERO)
    }

    fn term_mut(&mut self, var: VarId) -> &mut VarCost {
        if var.index() >= self.terms.len() {
            self.terms.resize_with(var.index() + 1, VarCost::default);
        }
        &mut self.terms[var.index()]
    }

    /// Replace a variable's whole term.
    pub fn set_term(&mut self, var: VarId, term: VarCost) {
        *self.term_mut(var) = term;
    }

    /// Add `slope · value` pressure to a variable (accumulates).
    pub fn add_slope(&mut self, var: VarId, slope: i64) {
        self.term_mut(var).slope += slope;
    }

    /// Add a one-off cost for a specific value of a variable (accumulates).
    pub fn add_value_cost(&mut self, var: VarId, value: i64, cost: i64) {
        let term = self.term_mut(var);
        if value == 0 {
            term.unscheduled += cost;
            return;
        }
        let table = &mut term.table;
        match table.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(at) => table[at].1 += cost,
            Err(at) => table.insert(at, (value, cost)),
        }
    }

    /// Cost of one variable taking one value.
    pub fn var_cost(&self, var: VarId, value: i64) -> i64 {
        self.term(var).cost_of(value)
    }

    /// Total cost of a full assignment.
    pub fn cost(&self, assignment: &[i64]) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .enumerate()
                .map(|(i, c)| c.cost_of(assignment[i]))
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
    fn untouched_variables_read_the_zero_term() {
        let mut o = Objective::default();
        o.add_value_cost(VarId(2), 0, 7);
        assert_eq!(o.term(VarId(0)), &VarCost::default());
        assert_eq!(o.term(VarId(9)), &VarCost::default());
        assert_eq!(o.term(VarId(2)).unscheduled, 7);
        assert!(o.term(VarId(2)).table.is_empty(), "value 0 is held inline");
        assert_eq!(o.cost(&[5, 5, 0]), 7);
    }

    #[test]
    fn table_stays_sorted_by_value() {
        let mut o = Objective::default();
        for value in [3, 0, -1, 2, 0, 5] {
            o.add_value_cost(VarId(0), value, 1);
        }
        let term = o.term(VarId(0));
        assert_eq!(term.table, vec![(-1, 1), (2, 1), (3, 1), (5, 1)]);
        assert_eq!(term.unscheduled, 2);
        assert_eq!(o.var_cost(VarId(0), 0), 2);
    }

    #[test]
    fn trivial_detection() {
        let mut o = Objective::default();
        assert!(o.is_trivial());
        o.add_slope(VarId(0), 1);
        assert!(!o.is_trivial());
    }
}
