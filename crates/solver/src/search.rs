//! Branch-and-bound depth-first search over the propagated state.
//!
//! The search mirrors what a CP solver does with the models CORNET
//! generates: smallest-domain-first variable selection, cost-ordered value
//! enumeration (so the first dive is the greedy plan), pruning by a
//! per-variable cost lower bound, and a stop the moment the incumbent
//! meets a capacity-derived bound on the whole model. Budgets on nodes and
//! wall-clock time make discovery time measurable — the quantity §4.2
//! evaluates.

use crate::propagate::Propagation;
use crate::state::State;
use cornet_model::{Constraint, Model, VarCost, VarId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Maximum number of search nodes to expand.
    pub max_nodes: u64,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Order branch values by objective cost (the first dive is then the
    /// greedy plan). When false, values are tried in ascending numeric
    /// order — the ablation baseline for that design choice.
    pub cost_value_order: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 1_000_000,
            time_limit: Duration::from_secs(30),
            cost_value_order: true,
        }
    }
}

/// Counters describing one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Search nodes expanded.
    pub nodes: u64,
    /// Propagation dead ends: branches whose value wiped out a domain or
    /// overloaded a constraint. Branches cut by the bound are counted in
    /// `bound_prunes`, not here.
    pub backtracks: u64,
    /// Branches skipped because their lower bound could not beat the
    /// incumbent.
    pub bound_prunes: u64,
    /// Propagator executions, root fixpoint included.
    pub propagations: u64,
    /// Improving solutions found.
    pub solutions: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Time at which the final incumbent was found.
    pub time_to_best: Duration,
}

impl SearchStats {
    /// Add another solve's counters and elapsed time to this one — how
    /// the planner totals the parts of a decomposed or sharded solve.
    pub fn absorb(&mut self, part: &SearchStats) {
        self.nodes += part.nodes;
        self.backtracks += part.backtracks;
        self.bound_prunes += part.bound_prunes;
        self.propagations += part.propagations;
        self.solutions += part.solutions;
        self.elapsed += part.elapsed;
    }
}

/// How the solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Search space exhausted; the incumbent is optimal.
    Optimal,
    /// Budget exhausted with an incumbent in hand.
    Feasible,
    /// Search space exhausted with no solution.
    Infeasible,
    /// Budget exhausted before any solution was found.
    Unknown,
}

/// A feasible assignment and its objective cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed like `Model::vars`.
    pub assignment: Vec<i64>,
    /// Objective cost of the assignment.
    pub cost: i64,
}

/// Result of a solve: outcome, best solution (if any), statistics.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Termination category.
    pub outcome: Outcome,
    /// Best solution found.
    pub best: Option<Solution>,
    /// Search counters.
    pub stats: SearchStats,
}

impl SolveResult {
    /// Borrow the best solution or panic with a readable message.
    pub fn solution(&self) -> &Solution {
        self.best.as_ref().expect("no solution found")
    }
}

/// One distinct objective row — the cost of every value of a variable and
/// the order to branch on them. Rows are interned: variables with equal
/// bounds and equal objective terms share one, so a fleet model with a
/// handful of distinct (weight, penalty) pairs has a handful of rows
/// however many variables it has.
struct CostRow {
    lo: i64,
    /// Cost of value `lo + i`.
    cost: Vec<i64>,
    /// Every value `lo..=hi` in branching order: `(cost, value)` ascending,
    /// or plain value order for the ablation.
    order: Vec<i64>,
    /// Smallest cost over the whole row.
    min_cost: i64,
    slope: i64,
    /// The fluid bound may price this variable by its slope alone: the
    /// slope is not negative and no scheduled value carries a negative
    /// adjustment (penalties only add, so ignoring them under-estimates).
    slope_bounds_cost: bool,
}

impl CostRow {
    fn new(lo: i64, hi: i64, term: &VarCost, by_cost: bool) -> Self {
        let cost: Vec<i64> = (lo..=hi).map(|v| term.cost_of(v)).collect();
        let mut order: Vec<i64> = (lo..=hi).collect();
        if by_cost {
            order.sort_by_key(|&v| (cost[(v - lo) as usize], v));
        }
        CostRow {
            lo,
            min_cost: cost.iter().copied().min().unwrap_or(0),
            cost,
            order,
            slope: term.slope,
            slope_bounds_cost: term.slope >= 0 && term.table.iter().all(|&(v, c)| v < 1 || c >= 0),
        }
    }

    #[inline]
    fn cost_of(&self, value: i64) -> i64 {
        self.cost[(value - self.lo) as usize]
    }
}

/// Intern the model's objective into rows; returns them with each
/// variable's row index.
fn intern_rows(model: &Model, by_cost: bool) -> (Vec<CostRow>, Vec<u32>) {
    let mut ids: BTreeMap<(i64, i64, &VarCost), u32> = BTreeMap::new();
    let mut rows = Vec::new();
    let row_of = model
        .vars
        .iter()
        .enumerate()
        .map(|(i, var)| {
            let term = model.objective.term(VarId(i as u32));
            *ids.entry((var.lo, var.hi, term)).or_insert_with(|| {
                rows.push(CostRow::new(var.lo, var.hi, term, by_cost));
                rows.len() as u32 - 1
            })
        })
        .collect();
    (rows, row_of)
}

/// The fluid relaxation of one capacity constraint: pour `total` units of
/// weight, each costing `slope.0 / slope.1` per slot number, into
/// `granules` (`(lowest slot, capacity)`) cheapest first; what does not
/// fit — or is cheaper left out — pays `unscheduled.0 / unscheduled.1` per
/// unit, or nothing when no member may stay unscheduled (the model is then
/// infeasible, and any number bounds it). Rounded up: costs are integers.
fn fluid_cost(
    total: i64,
    slope: (i64, i64),
    granules: &mut [(i64, i64)],
    unscheduled: Option<(i64, i64)>,
) -> i64 {
    granules.sort_unstable();
    let (s, sw) = (slope.0 as i128, slope.1 as i128);
    let (u, uw) = unscheduled.map_or((0, 1), |(u, w)| (u as i128, w as i128));
    let mut left = total as i128;
    let mut slot_units: i128 = 0;
    for &(slot, cap) in granules.iter() {
        if left == 0 || (unscheduled.is_some() && s * slot as i128 * uw >= u * sw) {
            break;
        }
        let poured = left.min(cap.max(0) as i128);
        slot_units += poured * slot as i128;
        left -= poured;
    }
    // slot_units · s/sw + left · u/uw, over the common denominator.
    let (num, den) = (slot_units * s * uw + left * u * sw, sw * uw);
    let ceil = num.div_euclid(den) + i128::from(num.rem_euclid(den) != 0);
    ceil.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// One open search node: the variable it branches on and how far through
/// that variable's values it is.
struct Frame {
    var: u32,
    /// Next position in the variable's row order.
    next: u32,
    /// Lower bound on entry.
    lb: i64,
    /// Trail mark under the value being explored.
    mark: usize,
}

struct Searcher<'a> {
    model: &'a Model,
    prop: Propagation<'a>,
    state: State,
    config: &'a SolverConfig,
    rows: Vec<CostRow>,
    row_of: Vec<u32>,
    /// Cheapest value of each variable at the root fixpoint.
    root_min: Vec<i64>,
    /// No solution costs less than this.
    global_lb: i64,
    /// Derive the bounds from the root-propagated domains and the
    /// capacity constraints (always, outside the equivalence tests).
    capacity_bound: bool,
    stack: Vec<Frame>,
    best: Option<Solution>,
    stats: SearchStats,
    start: Instant,
    aborted: bool,
    /// The incumbent met `global_lb`: nothing is left to find.
    proved: bool,
    /// Nodes between wall-clock checks, adapted to measured node cost so
    /// the overrun past `time_limit` stays bounded in *time*, not node
    /// count: big models spend far longer per node, and a fixed
    /// 1024-node stride let a 10 s budget overrun by whole seconds.
    clock_stride: u64,
    /// Next node count at which to read the clock.
    next_clock: u64,
    /// Elapsed time at the previous clock read (stride feedback).
    last_clock: Duration,
}

impl<'a> Searcher<'a> {
    fn new(model: &'a Model, config: &'a SolverConfig) -> Self {
        // Compiling the model is part of the solve, and of its time limit.
        let start = Instant::now();
        let prop = Propagation::new(model);
        let (rows, row_of) = intern_rows(model, config.cost_value_order);
        Searcher {
            model,
            state: prop.new_state(),
            prop,
            config,
            rows,
            row_of,
            root_min: Vec::new(),
            global_lb: i64::MIN,
            capacity_bound: true,
            stack: Vec::new(),
            best: None,
            stats: SearchStats::default(),
            start,
            aborted: false,
            proved: false,
            clock_stride: 8,
            next_clock: 0,
            last_clock: Duration::ZERO,
        }
    }

    /// Prune with the per-variable minima over the *declared* domains and
    /// never stop on a global bound — what the reference search does.
    #[cfg(test)]
    fn without_capacity_bound(mut self) -> Self {
        self.capacity_bound = false;
        self
    }

    #[inline]
    fn row(&self, var: usize) -> &CostRow {
        &self.rows[self.row_of[var] as usize]
    }

    /// Set `root_min` and `global_lb` from the root fixpoint.
    ///
    /// The objective is a sum over variables, so the per-variable minima
    /// add up to a bound. A capacity constraint can raise it: its members
    /// that no earlier constraint claimed form a group whose cost is at
    /// least the fluid optimum ([`fluid_cost`]) when every member has a
    /// positive weight, a cost of at least `k · weight · slot` for one `k`
    /// shared by the group, and appears once. Splitting weight across
    /// slots, dropping the other members' load, forbids and per-slot
    /// penalties only relax the problem, so the fluid optimum is a lower
    /// bound on the group; groups are disjoint, so the bounds add.
    fn set_bounds(&mut self) {
        let n = self.model.var_count();
        self.root_min = (0..n)
            .map(|var| {
                let row = self.row(var);
                if !self.capacity_bound {
                    return row.min_cost;
                }
                let values = self.state.domain(var).iter();
                values.map(|v| row.cost_of(v)).min().unwrap_or(0)
            })
            .collect();
        if !self.capacity_bound {
            return;
        }
        let mut lb = self.model.objective.constant + self.root_min.iter().sum::<i64>();
        // 0 = unclaimed, else 1 + the index of the claiming constraint.
        let mut claimed = vec![0u32; n];
        for (ci, granules) in self.prop.capacity_granules() {
            lb = lb.saturating_add(self.fluid_surplus(ci, granules, &mut claimed));
        }
        self.global_lb = lb;
    }

    /// Claim the unclaimed members of capacity constraint `ci` and return
    /// how far their fluid bound exceeds the sum of their minima — or
    /// claim nothing and return 0 when they do not meet the preconditions
    /// or the minima are already the better bound.
    fn fluid_surplus(
        &self,
        ci: usize,
        granules: impl Iterator<Item = (i64, i64)>,
        claimed: &mut [u32],
    ) -> i64 {
        let Constraint::Capacity { vars, weights, .. } = &self.model.constraints[ci] else {
            unreachable!("capacity_granules yields capacity constraints")
        };
        let tag = ci as u32 + 1;
        let mut group: Vec<(usize, i64)> = Vec::new();
        let mut sound = true;
        for (v, &w) in vars.iter().zip(weights) {
            match claimed[v.index()] {
                0 => {
                    claimed[v.index()] = tag;
                    group.push((v.index(), w));
                }
                // A member listed twice loads the granule with both weights.
                t if t == tag => sound = false,
                _ => {}
            }
        }
        let slope = group.first().map(|&(var, w)| (self.row(var).slope, w));
        let (mut total, mut minima, mut last_slot) = (0i64, 0i64, 0i64);
        // The cheapest unscheduled price per unit of weight, as (cost, weight).
        let mut unscheduled: Option<(i64, i64)> = None;
        for &(var, w) in &group {
            let row = self.row(var);
            let (s0, w0) = slope.expect("the group is not empty");
            sound &= w > 0
                && row.slope_bounds_cost
                && row.slope as i128 * w0 as i128 == s0 as i128 * w as i128;
            total = total.saturating_add(w);
            minima += self.root_min[var];
            last_slot = last_slot.max(self.model.vars[var].hi);
            if sound && self.state.domain(var).contains(0) {
                let u = row.cost_of(0);
                if unscheduled
                    .is_none_or(|(bu, bw)| u as i128 * (bw as i128) < bu as i128 * w as i128)
                {
                    unscheduled = Some((u, w));
                }
            }
        }
        let surplus = match slope {
            Some(slope) if sound => {
                let mut granules: Vec<(i64, i64)> =
                    granules.filter(|&(slot, _)| slot <= last_slot).collect();
                fluid_cost(total, slope, &mut granules, unscheduled) - minima
            }
            _ => 0,
        };
        if surplus <= 0 {
            for (var, _) in group {
                claimed[var] = 0;
            }
        }
        surplus.max(0)
    }

    fn over_budget(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        if self.stats.nodes >= self.config.max_nodes {
            self.aborted = true;
            return true;
        }
        // Instant::now is not free, so read the clock on a node stride.
        // The stride adapts to the measured time between reads (target
        // ~1 ms), which bounds the budget overrun in wall-clock terms no
        // matter how expensive a single node's propagation is.
        if self.stats.nodes >= self.next_clock {
            let now = self.start.elapsed();
            let gap = now.saturating_sub(self.last_clock);
            if gap < Duration::from_micros(500) {
                self.clock_stride = (self.clock_stride * 2).min(1024);
            } else if gap > Duration::from_millis(2) {
                self.clock_stride = (self.clock_stride / 2).max(1);
            }
            self.last_clock = now;
            self.next_clock = self.stats.nodes + self.clock_stride;
            if now >= self.config.time_limit {
                self.aborted = true;
                return true;
            }
        }
        false
    }

    /// A leaf: when it beats the incumbent, keep it and stop the search if
    /// it meets the global bound.
    fn record_solution(&mut self) {
        let assignment = self.state.assignment();
        let cost = self.model.cost(&assignment);
        if self.best.as_ref().is_some_and(|b| cost >= b.cost) {
            return;
        }
        self.best = Some(Solution { assignment, cost });
        self.stats.solutions += 1;
        self.stats.time_to_best = self.start.elapsed();
        self.proved = cost <= self.global_lb;
    }

    /// Count a search node and, when it has a variable left to branch on,
    /// open a frame for it (smallest domain, lowest index). False when the
    /// node is a leaf — a solution, recorded — or the budget is spent.
    fn open_node(&mut self, lb: i64) -> bool {
        self.stats.nodes += 1;
        if self.over_budget() {
            return false;
        }
        let Some(var) = self.state.smallest_unfixed() else {
            self.record_solution();
            return false;
        };
        self.stack.push(Frame {
            var: var as u32,
            next: 0,
            lb,
            mark: 0,
        });
        true
    }

    /// The top frame's next value in row order, skipping what propagation
    /// removed. The domain is the one the node opened with — every sibling
    /// is undone before the next is drawn.
    fn next_value(&mut self) -> Option<i64> {
        let frame = self.stack.last_mut()?;
        let var = frame.var as usize;
        let row = &self.rows[self.row_of[var] as usize];
        let domain = self.state.domain(var);
        while let Some(&value) = row.order.get(frame.next as usize) {
            frame.next += 1;
            if domain.contains(value) {
                return Some(value);
            }
        }
        None
    }

    /// Depth-first branch and bound from the current state, on an explicit
    /// stack: a frame per open node, no recursion and no per-node
    /// allocation.
    fn search(&mut self, root_lb: i64) {
        self.open_node(root_lb);
        while !(self.aborted || self.proved) {
            let Some(value) = self.next_value() else {
                // Node exhausted: back to the parent, under whose value
                // this node lived.
                self.stack.pop();
                match self.stack.last() {
                    Some(parent) => self.state.undo_to(parent.mark),
                    None => break,
                }
                continue;
            };
            let top = self.stack.len() - 1;
            let (var, lb) = (self.stack[top].var as usize, self.stack[top].lb);
            let branch_lb = lb - self.root_min[var] + self.row(var).cost_of(value);
            if self.best.as_ref().is_some_and(|b| branch_lb >= b.cost) {
                self.stats.bound_prunes += 1;
                continue;
            }
            let mark = self.state.mark();
            self.stack[top].mark = mark;
            let feasible =
                self.state.fix(var, value).is_ok() && self.prop.propagate(&mut self.state).is_ok();
            if feasible && self.open_node(branch_lb) {
                continue;
            }
            if !feasible {
                self.stats.backtracks += 1;
            }
            self.state.undo_to(mark);
        }
    }

    fn run(mut self) -> SolveResult {
        let root_ok = self.prop.propagate_all(&mut self.state).is_ok();
        if root_ok {
            self.set_bounds();
            let root_lb = self.root_min.iter().sum::<i64>() + self.model.objective.constant;
            self.search(root_lb);
        }
        self.stats.propagations = self.prop.propagations();
        self.stats.elapsed = self.start.elapsed();
        let outcome = match (&self.best, self.aborted, root_ok) {
            (Some(_), false, _) => Outcome::Optimal,
            (Some(_), true, _) => Outcome::Feasible,
            (None, false, _) | (None, _, false) => Outcome::Infeasible,
            (None, true, true) => Outcome::Unknown,
        };
        // Every returned solution must satisfy the model — in release builds
        // too: handing an invalid schedule to an operations team is strictly
        // worse than crashing, and the check is one linear pass per solve.
        if let Some(best) = &self.best {
            if let Err(e) = self.model.check(&best.assignment) {
                panic!("solver produced an invalid solution: {e}");
            }
        }
        SolveResult {
            outcome,
            best: self.best,
            stats: self.stats,
        }
    }
}

/// Solve a model to optimality or until the budget runs out.
pub fn solve(model: &Model, config: &SolverConfig) -> SolveResult {
    Searcher::new(model, config).run()
}

/// [`solve`] with the reference search's bound, for the equivalence tests.
#[cfg(test)]
pub(crate) fn solve_without_capacity_bound(model: &Model, config: &SolverConfig) -> SolveResult {
    Searcher::new(model, config).without_capacity_bound().run()
}

/// The bound [`solve`] stops at, `None` when the root propagates to a
/// conflict — for the soundness tests.
#[cfg(test)]
pub(crate) fn root_lower_bound(model: &Model) -> Option<i64> {
    let config = SolverConfig::default();
    let mut s = Searcher::new(model, &config);
    s.prop.propagate_all(&mut s.state).ok()?;
    s.set_bounds();
    Some(s.global_lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::{CmpOp, ModelBuilder};

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    /// A model the capacity bound cannot close: `n` units of weight 2 over
    /// `slots` slots of capacity 3, so a slot holds one unit where the
    /// fluid relaxation pours one and a half, and the search is left to
    /// prove the gap by enumeration.
    fn fragmented(n: usize, slots: u32) -> Model {
        let mut b = ModelBuilder::new("t", slots);
        let vs = b.slot_vars("X", n);
        b.capacity("cap", vs.clone(), vec![2; n], 3);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &vec![2; n], 10_000);
        b.build()
    }

    #[test]
    fn trivial_satisfaction() {
        let mut b = ModelBuilder::new("t", 3);
        b.slot_vars("X", 2);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        assert!(m.check(&r.solution().assignment).is_ok());
    }

    #[test]
    fn minimizes_completion_time() {
        // 3 nodes, capacity 1 per slot: optimal is slots {1,2,3} → cost 6.
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        assert_eq!(r.solution().cost, 6);
        let mut slots = r.solution().assignment.clone();
        slots.sort();
        assert_eq!(slots, vec![1, 2, 3]);
    }

    #[test]
    fn infeasible_when_capacity_too_small() {
        // 3 nodes, 2 slots, capacity 1, all must schedule: impossible.
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Infeasible);
        assert!(r.best.is_none());
    }

    #[test]
    fn respects_consistency_groups() {
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.same_value("usid", vec![vs[0], vs[1]]);
        b.same_value("usid", vec![vs[2], vs[3]]);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        let a = &r.solution().assignment;
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        // Optimal: both pairs in slots 1 and 2 → cost 1+1+2+2 = 6.
        assert_eq!(r.solution().cost, 6);
    }

    #[test]
    fn soft_conflicts_avoided_when_cheap() {
        // One node; slot 1 carries a conflict penalty, slot 2 is free.
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1], 100);
        b.conflict_penalty(vs[0], 1, 1_000);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.solution().assignment, vec![2]);
    }

    #[test]
    fn conflict_taken_when_only_option() {
        let mut b = ModelBuilder::new("t", 1);
        let vs = b.slot_vars("X", 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1], 100);
        b.conflict_penalty(vs[0], 1, 1_000);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.solution().assignment, vec![1]);
        assert_eq!(r.solution().cost, 1 + 1_000);
    }

    #[test]
    fn uniformity_splits_timezones() {
        // Two east (-5) and two west (-8) nodes; spread cap 1h; slot cap 2.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.max_spread("tz", vs.clone(), &[-5.0, -5.0, -8.0, -8.0], 1.0);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        let a = &r.solution().assignment;
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        assert_ne!(a[0], a[2], "different timezones must take different slots");
    }

    #[test]
    fn localize_keeps_groups_contiguous() {
        // Two markets of 2 nodes, capacity 1/slot: each market must occupy
        // a contiguous pair of slots.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.non_interleaved("loc", vs.clone(), vec![0, 0, 1, 1]);
        b.capacity("cap", vs.clone(), vec![1; 4], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        assert!(m.check(&r.solution().assignment).is_ok());
        assert_eq!(r.solution().cost, 1 + 2 + 3 + 4);
    }

    #[test]
    fn linear_constraint_respected() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 2);
        b.linear("sum", vec![(1, vs[0]), (1, vs[1])], CmpOp::Ge, 8);
        b.completion_objective(&vs, &[1, 1], 100);
        let m = b.build();
        let r = solve(&m, &cfg());
        assert_eq!(r.outcome, Outcome::Optimal);
        let a = &r.solution().assignment;
        assert_eq!(a[0] + a[1], 8, "minimum sum meeting the >= 8 bound");
    }

    #[test]
    fn node_budget_caps_search() {
        let m = fragmented(12, 14);
        let tight = SolverConfig {
            max_nodes: 50,
            ..Default::default()
        };
        let r = solve(&m, &tight);
        assert!(r.stats.nodes <= 51);
        assert!(matches!(r.outcome, Outcome::Feasible | Outcome::Unknown));
    }

    #[test]
    fn time_budget_overrun_is_bounded() {
        // A model large enough that nodes are slow: the wall-clock stop
        // must land close to the limit, not a node-stride late.
        let m = fragmented(600, 600);
        let limit = Duration::from_millis(120);
        let tight = SolverConfig {
            time_limit: limit,
            max_nodes: u64::MAX,
            ..Default::default()
        };
        let r = solve(&m, &tight);
        assert!(
            r.stats.elapsed < limit + Duration::from_millis(400),
            "elapsed {:?} overran the {:?} budget",
            r.stats.elapsed,
            limit
        );
    }

    #[test]
    fn value_order_ablation_still_correct() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let no_warm = SolverConfig {
            cost_value_order: false,
            ..Default::default()
        };
        let r = solve(&m, &no_warm);
        assert_eq!(r.outcome, Outcome::Optimal);
        assert_eq!(r.solution().cost, 6);
    }
}
