//! The solver kernel as it stood before the incremental rebuild, kept as
//! the oracle of the equivalence tests and compiled for tests only: a
//! fixpoint engine that re-runs whole-constraint filters (capacity loads
//! recounted from scratch on every run) and a search that recurses once
//! per variable, scans every variable to pick the next one, sorts the
//! branch values at every node and bounds with the per-variable minima
//! over the declared domains.

use crate::search::{CancelToken, Outcome, SearchStats, Solution, SolveResult, SolverConfig};
use crate::state::{Conflict, State};
use cornet_model::{CmpOp, Constraint, Model, VarId};
use std::time::{Duration, Instant};

pub(crate) fn take_changed(state: &mut State) -> Vec<u32> {
    let mut changed = Vec::new();
    state.take_changed_into(&mut changed);
    changed
}

/// Precomputed propagation structure for one model.
pub(crate) struct Propagation {
    /// var index → constraint indices watching it.
    watchers: Vec<Vec<u32>>,
    n_constraints: usize,
}

impl Propagation {
    /// Build watcher lists from the model.
    pub(crate) fn new(model: &Model) -> Self {
        let mut watchers = vec![Vec::new(); model.var_count()];
        for (ci, c) in model.constraints.iter().enumerate() {
            for v in c.vars() {
                let list = &mut watchers[v.index()];
                if list.last() != Some(&(ci as u32)) {
                    list.push(ci as u32);
                }
            }
        }
        Propagation {
            watchers,
            n_constraints: model.constraints.len(),
        }
    }

    /// Run all propagators to fixpoint. On entry every constraint is
    /// scheduled; afterwards only constraints watching changed variables
    /// re-run. Returns `Err(Conflict)` when any domain wipes out.
    pub(crate) fn propagate_all(&self, model: &Model, state: &mut State) -> Result<(), Conflict> {
        let mut queued = vec![true; self.n_constraints];
        let mut queue: Vec<u32> = (0..self.n_constraints as u32).collect();
        self.fixpoint(model, state, &mut queue, &mut queued)
    }

    /// Run propagators to fixpoint starting from the constraints watching
    /// `seed_vars` (used after branching on a single variable).
    pub(crate) fn propagate_from(
        &self,
        model: &Model,
        state: &mut State,
        seed_vars: &[u32],
    ) -> Result<(), Conflict> {
        let mut queued = vec![false; self.n_constraints];
        let mut queue = Vec::new();
        for &v in seed_vars {
            for &ci in &self.watchers[v as usize] {
                if !queued[ci as usize] {
                    queued[ci as usize] = true;
                    queue.push(ci);
                }
            }
        }
        self.fixpoint(model, state, &mut queue, &mut queued)
    }

    fn fixpoint(
        &self,
        model: &Model,
        state: &mut State,
        queue: &mut Vec<u32>,
        queued: &mut [bool],
    ) -> Result<(), Conflict> {
        let mut changed = Vec::new();
        state.take_changed_into(&mut changed);
        while let Some(ci) = queue.pop() {
            queued[ci as usize] = false;
            let result = propagate_one(&model.constraints[ci as usize], state);
            // Requeue watchers of changed vars whether or not we conflicted,
            // so the caller's state bookkeeping stays consistent.
            state.take_changed_into(&mut changed);
            for &v in &changed {
                for &watcher in &self.watchers[v as usize] {
                    if !queued[watcher as usize] {
                        queued[watcher as usize] = true;
                        queue.push(watcher);
                    }
                }
            }
            result?;
        }
        Ok(())
    }
}

/// Interval conflict predicate shared with the NonInterleaved checker:
/// sorted by `(lo, hi)`, the later interval must not start strictly inside
/// the earlier one.
fn intervals_conflict(a: (i64, i64), b: (i64, i64)) -> bool {
    let (first, second) = if a <= b { (a, b) } else { (b, a) };
    second.0 < first.1
}

/// Run one constraint's filtering against the current state.
fn propagate_one(c: &Constraint, state: &mut State) -> Result<(), Conflict> {
    match c {
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
            let max_slot = vars
                .iter()
                .filter_map(|v| state.domain(v.index()).max())
                .max()
                .unwrap_or(0);
            if max_slot < 1 {
                return Ok(());
            }
            let granule_of = |val: i64| -> i64 {
                match value_granules {
                    Some(vg) => vg[(val - 1) as usize],
                    None => (val - 1) / block,
                }
            };
            let n_granules = (1..=max_slot).map(granule_of).max().unwrap_or(0) as usize + 1;
            let mut load = vec![0i64; n_granules];
            for (v, w) in vars.iter().zip(weights) {
                if let Some(val) = state.domain(v.index()).fixed_value() {
                    if val > 0 {
                        load[granule_of(val) as usize] += w;
                    }
                }
            }
            let cap_of = |granule: i64| slot_caps.get(&granule).copied().unwrap_or(*default_cap);
            for (granule, l) in load.iter().enumerate() {
                if *l > cap_of(granule as i64) {
                    return Err(Conflict);
                }
            }
            for (v, w) in vars.iter().zip(weights) {
                let vi = v.index();
                if state.domain(vi).is_fixed() {
                    continue;
                }
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
                        val > 0 && {
                            let g = granule_of(val);
                            load[g as usize] + w > cap_of(g)
                        }
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
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
            if vars.len() < 2 {
                return Ok(());
            }
            // Intersect all member domains.
            let keep: Vec<i64> = state
                .domain(vars[0].index())
                .iter()
                .filter(|&val| vars.iter().all(|v| state.domain(v.index()).contains(val)))
                .collect();
            if keep.is_empty() {
                return Err(Conflict);
            }
            for v in vars {
                let vi = v.index();
                let extra: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|val| keep.binary_search(val).is_err())
                    .collect();
                for val in extra {
                    state.remove(vi, val)?;
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
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
                        val > 0
                            && range
                                .get(&val)
                                .is_some_and(|(lo, hi)| hi.max(m) - lo.min(m) > *max_distance_milli)
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
                }
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
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
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
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
                }
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
                let to_remove: Vec<i64> = state
                    .domain(vi)
                    .iter()
                    .filter(|&val| {
                        let contrib = t.coeff * val;
                        (check_le && min_act - own_min + contrib > *rhs)
                            || (check_ge && max_act - own_max + contrib < *rhs)
                    })
                    .collect();
                for val in to_remove {
                    state.remove(vi, val)?;
                }
            }
            Ok(())
        }
    }
}

struct Searcher<'a> {
    model: &'a Model,
    prop: Propagation,
    state: State,
    config: &'a SolverConfig,
    root_min: Vec<i64>,
    best: Option<Solution>,
    stats: SearchStats,
    start: Instant,
    aborted: bool,
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
        let root_min: Vec<i64> = model
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (v.lo..=v.hi)
                    .map(|val| model.objective.var_cost(VarId(i as u32), val))
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        Searcher {
            model,
            prop: Propagation::new(model),
            state: State::new(model, 0),
            config,
            root_min,
            best: None,
            stats: SearchStats::default(),
            start: Instant::now(),
            aborted: false,
            clock_stride: 8,
            next_clock: 0,
            last_clock: Duration::ZERO,
        }
    }

    fn over_budget(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        if self.stats.nodes >= self.config.max_nodes {
            self.aborted = true;
            return true;
        }
        if self
            .config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
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

    /// Pick the unfixed variable with the smallest domain.
    fn pick_var(&self) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for vi in 0..self.state.var_count() {
            let d = self.state.domain(vi);
            if !d.is_fixed() {
                let size = d.len();
                if best.is_none_or(|(s, _)| size < s) {
                    if size == 2 {
                        return Some(vi); // can't do better than 2
                    }
                    best = Some((size, vi));
                }
            }
        }
        best.map(|(_, vi)| vi)
    }

    fn record_solution(&mut self) {
        let assignment = self.state.assignment();
        let cost = self.model.cost(&assignment);
        if self.best.as_ref().is_none_or(|b| cost < b.cost) {
            self.best = Some(Solution { assignment, cost });
            self.stats.solutions += 1;
            self.stats.time_to_best = self.start.elapsed();
            if let Some(inc) = &self.config.incumbent {
                inc.publish(cost);
            }
        }
    }

    fn search(&mut self, lb_acc: i64) {
        self.stats.nodes += 1;
        if self.over_budget() {
            return;
        }
        let Some(var) = self.pick_var() else {
            self.record_solution();
            return;
        };
        let mut values: Vec<i64> = self.state.domain(var).iter().collect();
        if self.config.cost_value_order {
            let vid = VarId(var as u32);
            values.sort_by_key(|&v| (self.model.objective.var_cost(vid, v), v));
        }
        let vid = VarId(var as u32);
        for v in values {
            if self.aborted {
                return;
            }
            let branch_lb = lb_acc - self.root_min[var] + self.model.objective.var_cost(vid, v);
            if self.best.as_ref().is_some_and(|b| branch_lb >= b.cost) {
                continue;
            }
            // Shared-incumbent pruning is strict (`>`), so an equal-cost
            // solution of our own stays reachable — the final incumbent
            // never depends on when a competitor published its bound.
            if self
                .config
                .incumbent
                .as_ref()
                .is_some_and(|inc| branch_lb > inc.bound())
            {
                continue;
            }
            let mark = self.state.mark();
            let feasible = self.state.fix(var, v).is_ok() && {
                let seeds = take_changed(&mut self.state);
                self.prop
                    .propagate_from(self.model, &mut self.state, &seeds)
                    .is_ok()
            };
            if feasible {
                self.search(branch_lb);
            } else {
                self.stats.backtracks += 1;
            }
            self.state.undo_to(mark);
        }
    }
}

/// The recursive search as it stood before the kernel rebuild.
pub(crate) fn solve(model: &Model, config: &SolverConfig) -> SolveResult {
    let mut s = Searcher::new(model, config);
    let root_ok = s.prop.propagate_all(model, &mut s.state).is_ok();
    if root_ok {
        let root_lb: i64 = s.root_min.iter().sum::<i64>() + model.objective.constant;
        s.search(root_lb);
    }
    s.stats.elapsed = s.start.elapsed();
    let outcome = match (&s.best, s.aborted, root_ok) {
        (Some(_), false, _) => Outcome::Optimal,
        (Some(_), true, _) => Outcome::Feasible,
        (None, false, _) | (None, _, false) => Outcome::Infeasible,
        (None, true, true) => Outcome::Unknown,
    };
    // Every returned solution must satisfy the model — in release builds
    // too: handing an invalid schedule to an operations team is strictly
    // worse than crashing, and the check is one linear pass per solve.
    if let Some(best) = &s.best {
        if let Err(e) = model.check(&best.assignment) {
            panic!("solver produced an invalid solution: {e}");
        }
    }
    SolveResult {
        outcome,
        best: s.best,
        stats: s.stats,
    }
}
