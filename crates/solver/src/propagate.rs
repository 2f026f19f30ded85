//! Constraint propagators and the fixpoint engine.
//!
//! Each constraint family from `cornet-model` gets a filtering routine that
//! removes values which can no longer participate in any solution extending
//! the current partial assignment. The engine runs them to a fixpoint, and
//! does work only where something changed:
//!
//! * `SameValue` and `Linear` read whole domains, so they re-run when a
//!   member's domain changes;
//! * `DistinctGroups`, `MaxSpread` and `NonInterleaved` read only *fixed*
//!   members, so they re-run when a member becomes fixed to a slot;
//! * `Capacity` keeps its per-granule load in the state's reversible
//!   counters, updated as members become fixed, and filters only the
//!   granules whose load rose — and there only the members too heavy for
//!   what is left;
//! * `ForbiddenValue` holds for good once applied, so it runs at the root
//!   only.
//!
//! Every propagator is monotone (a smaller domain never removes less), so
//! the fixpoint does not depend on the order or the number of runs — the
//! property that lets the incremental engine be tested for equality
//! against a run-everything reference.

use crate::state::{Conflict, State};
use cornet_model::{CmpOp, Constraint, Model};

const NOT_CAPACITY: u32 = u32::MAX;

/// `index → items` adjacency in compressed sparse rows: one allocation
/// however many indices there are.
#[derive(Debug, Default)]
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Rows<T> {
    /// Build from a generator of `(index, item)` pairs, called twice.
    fn build(indices: usize, pairs: impl Fn(&mut dyn FnMut(usize, T))) -> Self {
        let mut start = vec![0u32; indices + 1];
        pairs(&mut |i, _| start[i + 1] += 1);
        for i in 0..indices {
            start[i + 1] += start[i];
        }
        let mut items = vec![T::default(); start[indices] as usize];
        let mut next = start.clone();
        pairs(&mut |i, item| {
            items[next[i] as usize] = item;
            next[i] += 1;
        });
        Rows { start, items }
    }

    #[inline]
    fn row(&self, index: usize) -> &[T] {
        &self.items[self.start[index] as usize..self.start[index + 1] as usize]
    }
}

/// One `Capacity` constraint compiled for incremental filtering. Granules
/// are renumbered densely in ascending order of their model ids.
#[derive(Debug)]
struct Capacity {
    /// `(weight, var)`, heaviest first: the members a slack no longer
    /// admits are a prefix.
    by_weight: Vec<(i64, u32)>,
    /// Capacity per granule.
    cap: Vec<i64>,
    /// Granule of slot value `v` at index `v − 1`.
    granule_of: Vec<u32>,
    /// Slot values of each granule, ascending.
    values: Rows<i64>,
    /// The granule loads live in the state's cells from here on.
    first_cell: usize,
    /// Granules whose load rose since they were last filtered, valid for
    /// engine run `dirty_run` only (a conflict leaves them stale).
    dirty: Vec<u32>,
    dirty_in: Vec<u64>,
    dirty_run: u64,
}

impl Capacity {
    fn compile(c: &Constraint, model: &Model, first_cell: usize) -> Self {
        let Constraint::Capacity {
            vars,
            weights,
            default_cap,
            slot_caps,
            ..
        } = c
        else {
            unreachable!("compile is called on capacity constraints only")
        };
        let max_value = vars.iter().map(|v| model.var(*v).hi).max().unwrap_or(0);
        let ids: Vec<i64> = (1..=max_value)
            .map(|v| c.capacity_granule(v).expect("a capacity constraint"))
            .collect();
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let dense = |id: i64| distinct.binary_search(&id).expect("collected above");
        let mut by_weight: Vec<(i64, u32)> = weights
            .iter()
            .copied()
            .zip(vars.iter().map(|v| v.0))
            .collect();
        by_weight.sort_unstable_by_key(|&(w, var)| (std::cmp::Reverse(w), var));
        Capacity {
            by_weight,
            cap: distinct
                .iter()
                .map(|id| slot_caps.get(id).copied().unwrap_or(*default_cap))
                .collect(),
            granule_of: ids.iter().map(|&id| dense(id) as u32).collect(),
            values: Rows::build(distinct.len(), |push| {
                for (i, &id) in ids.iter().enumerate() {
                    push(dense(id), i as i64 + 1);
                }
            }),
            first_cell,
            dirty: Vec::new(),
            dirty_in: vec![0; distinct.len()],
            dirty_run: 0,
        }
    }

    fn granules(&self) -> usize {
        self.cap.len()
    }

    fn mark_dirty(&mut self, granule: u32, run: u64) {
        if self.dirty_run != run {
            self.dirty.clear();
            self.dirty_run = run;
        }
        if self.dirty_in[granule as usize] != run {
            self.dirty_in[granule as usize] = run;
            self.dirty.push(granule);
        }
    }

    /// A member became fixed to slot `value`: raise that granule's load.
    fn load(&mut self, state: &mut State, value: i64, weight: i64, run: u64) {
        let granule = self.granule_of[(value - 1) as usize];
        state.add_to_cell(self.first_cell + granule as usize, weight);
        self.mark_dirty(granule, run);
    }

    /// Check the dirty granules and take their slots away from every
    /// unfixed member that no longer fits.
    fn filter(&mut self, state: &mut State, run: u64) -> Result<(), Conflict> {
        if self.dirty_run != run {
            return Ok(());
        }
        for i in 0..self.dirty.len() {
            let granule = self.dirty[i] as usize;
            self.dirty_in[granule] = 0;
            let slack = self.cap[granule] - state.cell(self.first_cell + granule);
            if slack < 0 {
                return Err(Conflict);
            }
            for &(weight, var) in &self.by_weight {
                if weight <= slack {
                    break;
                }
                if state.domain(var as usize).is_fixed() {
                    continue;
                }
                for &value in self.values.row(granule) {
                    state.remove(var as usize, value)?;
                }
            }
        }
        self.dirty.clear();
        Ok(())
    }
}

/// The constraints waiting to run, reused from one engine run to the next.
/// Membership is stamped with the run that queued the constraint, so the
/// queue a conflict abandons needs no sweep: its stamps are simply stale.
#[derive(Debug)]
struct Queue {
    waiting: Vec<u32>,
    /// constraint → the run that queued it (0 once popped).
    queued_in: Vec<u64>,
    run: u64,
}

impl Queue {
    fn begin_run(&mut self) {
        self.run += 1;
        self.waiting.clear();
    }

    fn push(&mut self, ci: u32) {
        if self.queued_in[ci as usize] != self.run {
            self.queued_in[ci as usize] = self.run;
            self.waiting.push(ci);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let ci = self.waiting.pop()?;
        self.queued_in[ci as usize] = 0;
        Some(ci)
    }
}

/// Precomputed propagation structure for one model, and the engine's
/// reusable queues. One `Propagation` drives one [`State`], the one it
/// made with [`Propagation::new_state`].
pub struct Propagation<'m> {
    model: &'m Model,
    /// var → constraints re-run when its domain changes.
    on_change: Rows<u32>,
    /// var → `(constraint, weight)` re-run when it becomes fixed to a slot;
    /// the weight is the capacity weight, 0 for the other families.
    on_assign: Rows<(u32, i64)>,
    capacities: Vec<Capacity>,
    /// constraint → index into `capacities`, or `NOT_CAPACITY`.
    capacity_of: Vec<u32>,
    cells: usize,
    queue: Queue,
    /// Drained notifications, kept for their capacity.
    pending: Vec<u32>,
    propagations: u64,
}

impl<'m> Propagation<'m> {
    /// Compile the model's constraints.
    pub fn new(model: &'m Model) -> Self {
        let mut capacities = Vec::new();
        let mut capacity_of = vec![NOT_CAPACITY; model.constraints.len()];
        let mut cells = 0;
        for (ci, c) in model.constraints.iter().enumerate() {
            if matches!(c, Constraint::Capacity { .. }) {
                let compiled = Capacity::compile(c, model, cells);
                cells += compiled.granules();
                capacity_of[ci] = capacities.len() as u32;
                capacities.push(compiled);
            }
        }
        let on_change = Rows::build(model.var_count(), |push| {
            for (ci, c) in model.constraints.iter().enumerate() {
                match c {
                    Constraint::SameValue { vars, .. } => {
                        vars.iter().for_each(|v| push(v.index(), ci as u32));
                    }
                    Constraint::Linear { terms, .. } => {
                        terms.iter().for_each(|t| push(t.var.index(), ci as u32));
                    }
                    _ => {}
                }
            }
        });
        let on_assign = Rows::build(model.var_count(), |push| {
            for (ci, c) in model.constraints.iter().enumerate() {
                match c {
                    Constraint::Capacity { vars, weights, .. } => {
                        for (v, w) in vars.iter().zip(weights) {
                            push(v.index(), (ci as u32, *w));
                        }
                    }
                    Constraint::DistinctGroups { vars, .. }
                    | Constraint::MaxSpread { vars, .. }
                    | Constraint::NonInterleaved { vars, .. } => {
                        vars.iter().for_each(|v| push(v.index(), (ci as u32, 0)));
                    }
                    _ => {}
                }
            }
        });
        Propagation {
            model,
            on_change,
            on_assign,
            capacities,
            capacity_of,
            cells,
            queue: Queue {
                waiting: Vec::new(),
                queued_in: vec![0; model.constraints.len()],
                run: 0,
            },
            pending: Vec::new(),
            propagations: 0,
        }
    }

    /// A fresh search state for the model, with one reversible counter per
    /// capacity granule.
    pub fn new_state(&self) -> State {
        State::new(self.model, self.cells)
    }

    /// Propagator executions so far.
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Run every propagator, then to fixpoint — the root call. On
    /// `Err(Conflict)` the caller must undo to a mark taken at a fixpoint
    /// (or drop the state) before propagating again.
    pub fn propagate_all(&mut self, state: &mut State) -> Result<(), Conflict> {
        self.queue.begin_run();
        for ci in 0..self.capacity_of.len() {
            self.queue.push(ci as u32);
        }
        for c in &mut self.capacities {
            for granule in 0..c.granules() {
                c.mark_dirty(granule as u32, self.queue.run);
            }
        }
        self.fixpoint(state)
    }

    /// Run to fixpoint from whatever changed since the last fixpoint (a
    /// branching decision, typically). Same contract on conflict as
    /// [`Propagation::propagate_all`], which must have run first.
    pub fn propagate(&mut self, state: &mut State) -> Result<(), Conflict> {
        self.queue.begin_run();
        self.fixpoint(state)
    }

    /// Turn the state's notifications into queued constraints and capacity
    /// loads.
    fn absorb(&mut self, state: &mut State) {
        state.take_assigned_into(&mut self.pending);
        for &var in &self.pending {
            // Unscheduled (0) loads nothing and groups with nothing; an
            // emptied domain is about to fail its remover.
            let fixed = state.domain(var as usize).fixed_value();
            let Some(value) = fixed.filter(|&v| v > 0) else {
                continue;
            };
            for &(ci, weight) in self.on_assign.row(var as usize) {
                let capacity = self.capacity_of[ci as usize];
                if capacity != NOT_CAPACITY {
                    if weight == 0 {
                        continue;
                    }
                    self.capacities[capacity as usize].load(state, value, weight, self.queue.run);
                }
                self.queue.push(ci);
            }
        }
        state.take_changed_into(&mut self.pending);
        for &var in &self.pending {
            for &ci in self.on_change.row(var as usize) {
                self.queue.push(ci);
            }
        }
    }

    fn fixpoint(&mut self, state: &mut State) -> Result<(), Conflict> {
        loop {
            self.absorb(state);
            let Some(ci) = self.queue.pop() else {
                return Ok(());
            };
            self.propagations += 1;
            match self.capacity_of[ci as usize] {
                NOT_CAPACITY => filter(&self.model.constraints[ci as usize], state)?,
                capacity => self.capacities[capacity as usize].filter(state, self.queue.run)?,
            }
        }
    }

    /// For the search's lower bound: each capacity constraint as
    /// `(constraint index, granules)`, a granule as `(its lowest slot value,
    /// its capacity)`.
    pub(crate) fn capacity_granules(
        &self,
    ) -> impl Iterator<Item = (usize, impl Iterator<Item = (i64, i64)> + '_)> + '_ {
        self.capacity_of
            .iter()
            .enumerate()
            .filter(|(_, k)| **k != NOT_CAPACITY)
            .map(|(ci, &k)| {
                let c = &self.capacities[k as usize];
                let granules = (0..c.granules()).map(move |g| (c.values.row(g)[0], c.cap[g]));
                (ci, granules)
            })
    }
}

/// Interval conflict predicate shared with the NonInterleaved checker:
/// sorted by `(lo, hi)`, the later interval must not start strictly inside
/// the earlier one.
fn intervals_conflict(a: (i64, i64), b: (i64, i64)) -> bool {
    let (first, second) = if a <= b { (a, b) } else { (b, a) };
    second.0 < first.1
}

/// Run one stateless constraint's filtering against the current state.
fn filter(c: &Constraint, state: &mut State) -> Result<(), Conflict> {
    match c {
        Constraint::Capacity { .. } => unreachable!("capacity constraints are compiled"),
        Constraint::DistinctGroups {
            vars,
            group_of,
            cap,
            ..
        } => {
            use std::collections::BTreeMap;
            use std::collections::BTreeSet;
            let mut groups_at: BTreeMap<i64, BTreeSet<usize>> = BTreeMap::new();
            for (v, g) in vars.iter().zip(group_of) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        groups_at.entry(val).or_default().insert(*g);
                    }
                }
            }
            for (slot, gs) in &groups_at {
                if gs.len() as i64 > *cap {
                    return Err(Conflict);
                }
                if gs.len() as i64 == *cap {
                    // Slot is saturated: vars from other groups must avoid it.
                    for (v, g) in vars.iter().zip(group_of) {
                        let vi = v.index();
                        if !gs.contains(g) && state.domain(vi).contains(*slot) {
                            if state.domain(vi).is_fixed() {
                                return Err(Conflict);
                            }
                            state.remove(vi, *slot)?;
                        }
                    }
                }
            }
            Ok(())
        }
        Constraint::SameValue { vars, .. } => {
            // Intersect all member domains: the first member keeps what
            // every other has, then every other keeps what the first has.
            let Some((first, rest)) = vars.split_first() else {
                return Ok(());
            };
            let first = first.index();
            state.remove_where(first, |s, val| {
                !rest.iter().all(|v| s.domain(v.index()).contains(val))
            })?;
            for v in rest {
                state.remove_where(v.index(), |s, val| !s.domain(first).contains(val))?;
            }
            Ok(())
        }
        Constraint::MaxSpread {
            vars,
            metric_milli,
            max_distance_milli,
            ..
        } => {
            use std::collections::BTreeMap;
            let mut range: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for (v, m) in vars.iter().zip(metric_milli) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        let e = range.entry(val).or_insert((*m, *m));
                        e.0 = e.0.min(*m);
                        e.1 = e.1.max(*m);
                    }
                }
            }
            for (lo, hi) in range.values() {
                if hi - lo > *max_distance_milli {
                    return Err(Conflict);
                }
            }
            for (v, m) in vars.iter().zip(metric_milli) {
                let vi = v.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                state.remove_where(vi, |_, val| {
                    val > 0
                        && range
                            .get(&val)
                            .is_some_and(|(lo, hi)| hi.max(m) - lo.min(m) > *max_distance_milli)
                })?;
            }
            Ok(())
        }
        Constraint::NonInterleaved { vars, group_of, .. } => {
            let n_groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
            let mut intervals = vec![(i64::MAX, i64::MIN); n_groups];
            for (v, g) in vars.iter().zip(group_of) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        intervals[*g].0 = intervals[*g].0.min(val);
                        intervals[*g].1 = intervals[*g].1.max(val);
                    }
                }
            }
            let used: Vec<(usize, (i64, i64))> = intervals
                .iter()
                .enumerate()
                .filter(|(_, (lo, _))| *lo != i64::MAX)
                .map(|(g, iv)| (g, *iv))
                .collect();
            for i in 0..used.len() {
                for j in (i + 1)..used.len() {
                    if intervals_conflict(used[i].1, used[j].1) {
                        return Err(Conflict);
                    }
                }
            }
            // Filter unfixed vars: a candidate value must keep the var's
            // group interval conflict-free with every other group.
            for (v, g) in vars.iter().zip(group_of) {
                let vi = v.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                let own = intervals[*g];
                state.remove_where(vi, |_, val| {
                    if val == 0 {
                        return false;
                    }
                    let new_iv = if own.0 == i64::MAX {
                        (val, val)
                    } else {
                        (own.0.min(val), own.1.max(val))
                    };
                    used.iter()
                        .any(|(og, oiv)| *og != *g && intervals_conflict(new_iv, *oiv))
                })?;
            }
            Ok(())
        }
        Constraint::ForbiddenValue { var, value, .. } => {
            let vi = var.index();
            if state.domain(vi).contains(*value) {
                state.remove(vi, *value)?;
            }
            Ok(())
        }
        Constraint::Linear {
            terms, cmp, rhs, ..
        } => {
            // Value-level bounds filtering on Σ coeff·x ⋈ rhs.
            fn min_contrib(state: &State, coeff: i64, vi: usize) -> i64 {
                let d = state.domain(vi);
                if coeff >= 0 {
                    coeff * d.min().unwrap_or(0)
                } else {
                    coeff * d.max().unwrap_or(0)
                }
            }
            fn max_contrib(state: &State, coeff: i64, vi: usize) -> i64 {
                let d = state.domain(vi);
                if coeff >= 0 {
                    coeff * d.max().unwrap_or(0)
                } else {
                    coeff * d.min().unwrap_or(0)
                }
            }
            let min_act: i64 = terms
                .iter()
                .map(|t| min_contrib(state, t.coeff, t.var.index()))
                .sum();
            let max_act: i64 = terms
                .iter()
                .map(|t| max_contrib(state, t.coeff, t.var.index()))
                .sum();
            let check_le = matches!(cmp, CmpOp::Le | CmpOp::Eq);
            let check_ge = matches!(cmp, CmpOp::Ge | CmpOp::Eq);
            if check_le && min_act > *rhs {
                return Err(Conflict);
            }
            if check_ge && max_act < *rhs {
                return Err(Conflict);
            }
            for t in terms {
                let vi = t.var.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                let own_min = min_contrib(state, t.coeff, vi);
                let own_max = max_contrib(state, t.coeff, vi);
                state.remove_where(vi, |_, val| {
                    let contrib = t.coeff * val;
                    (check_le && min_act - own_min + contrib > *rhs)
                        || (check_ge && max_act - own_max + contrib < *rhs)
                })?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::ModelBuilder;

    #[test]
    fn capacity_filters_saturated_slots() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1, 1, 1], 1);
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.fix(0, 1).unwrap();
        p.propagate_all(&mut s).unwrap();
        assert!(!s.domain(1).contains(1), "slot 1 is full");
        assert!(s.domain(1).contains(2));
    }

    #[test]
    fn capacity_overload_conflicts() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 2);
        b.capacity("cap", vs, vec![2, 2], 3);
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.fix(0, 1).unwrap();
        s.fix(1, 1).unwrap();
        assert!(p.propagate_all(&mut s).is_err());
    }

    #[test]
    fn same_value_intersects() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 2);
        b.same_value("cons", vs.clone());
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.remove(0, 1).unwrap();
        s.remove(0, 2).unwrap();
        s.remove(1, 4).unwrap();
        p.propagate_all(&mut s).unwrap();
        // Intersection is {0, 3, 5}.
        for vi in 0..2 {
            let vals: Vec<i64> = s.domain(vi).iter().collect();
            assert_eq!(vals, vec![0, 3, 5]);
        }
    }

    #[test]
    fn distinct_groups_filters() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 3);
        b.distinct_groups("mkt", vs.clone(), vec![0, 1, 2], 2);
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.fix(0, 1).unwrap();
        s.fix(1, 1).unwrap();
        p.propagate_all(&mut s).unwrap();
        assert!(!s.domain(2).contains(1), "two groups already in slot 1");
        assert!(s.domain(2).contains(2));
    }

    #[test]
    fn max_spread_filters_far_zones() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 2);
        b.max_spread("tz", vs.clone(), &[-5.0, -8.0], 1.0);
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.fix(0, 1).unwrap();
        p.propagate_all(&mut s).unwrap();
        assert!(!s.domain(1).contains(1));
        assert!(s.domain(1).contains(2));
    }

    #[test]
    fn non_interleaved_filters_inner_slots() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 3);
        b.non_interleaved("loc", vs.clone(), vec![0, 0, 1]);
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.fix(0, 1).unwrap();
        s.fix(1, 4).unwrap();
        p.propagate_all(&mut s).unwrap();
        let vals: Vec<i64> = s.domain(2).iter().collect();
        // Slots 2 and 3 are strictly inside [1,4]; slots 1 and 4 are
        // boundary slots and remain allowed (the heuristic packs group
        // tails into leftover boundary capacity).
        assert_eq!(vals, vec![0, 1, 4, 5]);
    }

    #[test]
    fn linear_bounds_filter() {
        let mut b = ModelBuilder::new("t", 5);
        let vs = b.slot_vars("X", 2);
        b.linear(
            "lin",
            vec![(1, vs[0]), (1, vs[1])],
            cornet_model::CmpOp::Le,
            3,
        );
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        s.fix(0, 3).unwrap();
        p.propagate_all(&mut s).unwrap();
        assert_eq!(s.domain(1).max(), Some(0));
    }

    #[test]
    fn forbidden_value_removed_at_root() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 1);
        b.forbid("frozen", vs[0], 2);
        let m = b.build();
        let mut p = Propagation::new(&m);
        let mut s = p.new_state();
        p.propagate_all(&mut s).unwrap();
        assert!(!s.domain(0).contains(2));
    }

    #[test]
    fn interval_conflict_predicate() {
        assert!(intervals_conflict((1, 3), (2, 4)));
        assert!(!intervals_conflict((1, 3), (3, 5)));
        assert!(intervals_conflict((1, 3), (2, 2)), "point strictly inside");
        assert!(!intervals_conflict((1, 1), (1, 3)), "shared start boundary");
        assert!(!intervals_conflict((5, 6), (1, 3)));
    }
}
