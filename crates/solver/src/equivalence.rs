//! Equivalence and soundness suites for the rebuilt kernel, against the
//! kernel it replaced ([`crate::reference`]):
//!
//! * the incremental engine reaches the reference's fixpoint after any
//!   sequence of fixes and undos, over all seven constraint families;
//! * with the capacity bound switched off, the iterative search is the
//!   reference search — same incumbent, cost, node and dead-end counts,
//!   under budgets and both value orders;
//! * the capacity bound never exceeds the brute-force optimum, and a
//!   completed [`solve`] returns the reference's answer.
//!
//! The suites run the default case count, so CI raises it with
//! `PROPTEST_CASES`.

use crate::reference;
use crate::search::{root_lower_bound, solve, solve_without_capacity_bound, Outcome, SolverConfig};
use crate::state::State;
use crate::Propagation;
use cornet_model::{CmpOp, Model, ModelBuilder, VarId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Splitmix64 over a proptest-drawn seed: the models need nested,
/// size-dependent choices that range strategies do not compose into.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A random subset of `vars` with at least `min` members.
    fn subset(&mut self, vars: &[VarId], min: usize) -> Vec<VarId> {
        let mut picked: Vec<VarId> = vars.iter().copied().filter(|_| self.chance(60)).collect();
        for &v in vars {
            if picked.len() >= min {
                break;
            }
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }
}

/// Add one random capacity constraint, in any of its four shapes (plain,
/// per-granule overrides, `block > 1`, explicit `value_granules`). Some
/// weights exceed some capacities, so units can be unschedulable.
fn add_capacity(b: &mut ModelBuilder, d: &mut Dice, vars: &[VarId], weights: &[i64]) {
    let slots = b.slots() as i64;
    let members = d.subset(vars, 1);
    let weights: Vec<i64> = members.iter().map(|v| weights[v.index()]).collect();
    let cap = d.between(1, 4);
    match d.below(4) {
        0 => b.capacity("cap", members, weights, cap),
        1 => {
            let mut overrides = BTreeMap::new();
            for granule in 0..slots {
                if d.chance(40) {
                    overrides.insert(granule, d.between(0, 3));
                }
            }
            b.capacity_with_overrides("cap", members, weights, cap, overrides);
        }
        2 => b.capacity_blocked("cap", members, weights, cap + 1, d.between(2, 3)),
        _ => {
            let granules = (0..slots).map(|_| d.between(0, 2)).collect();
            b.capacity_with_granules("cap", members, weights, cap + 1, granules);
        }
    }
}

/// A random model over every constraint family (`all_families`) or over
/// the capacity-and-forbid shape of fleet models, with a completion
/// objective (weights mostly the capacity weights), conflict penalties
/// and the odd negative adjustment.
fn random_model(seed: u64, max_vars: u64, max_slots: u64, all_families: bool) -> Model {
    let d = &mut Dice(seed);
    let n = 1 + d.below(max_vars) as usize;
    let slots = 1 + d.below(max_slots) as u32;
    let mut b = ModelBuilder::new("random", slots);
    let vars = b.slot_vars("X", n);
    let weights: Vec<i64> = (0..n).map(|_| d.between(1, 3)).collect();
    for _ in 0..d.between(1, 3) {
        match if all_families { d.below(8) } else { d.below(3) } {
            0 | 1 => add_capacity(&mut b, d, &vars, &weights),
            2 => {
                let var = vars[d.below(n as u64) as usize];
                b.forbid("frozen", var, d.between(0, slots as i64));
            }
            3 => {
                let members = d.subset(&vars, 1);
                let groups = members.iter().map(|_| d.below(3) as usize).collect();
                b.distinct_groups("mkt", members, groups, d.between(1, 2));
            }
            4 => {
                let members = d.subset(&vars, 2);
                b.same_value("usid", members);
            }
            5 => {
                let members = d.subset(&vars, 1);
                let metric: Vec<f64> = members.iter().map(|_| -(d.between(5, 8) as f64)).collect();
                b.max_spread("tz", members, &metric, d.between(0, 2) as f64);
            }
            6 => {
                let members = d.subset(&vars, 1);
                let groups = members.iter().map(|_| d.below(3) as usize).collect();
                b.non_interleaved("loc", members, groups);
            }
            _ => {
                let terms: Vec<(i64, VarId)> = d
                    .subset(&vars, 1)
                    .into_iter()
                    .map(|v| (d.between(-2, 2), v))
                    .collect();
                let cmp = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][d.below(3) as usize];
                b.linear("lin", terms, cmp, d.between(0, 2 * slots as i64));
            }
        }
    }
    if d.chance(30) {
        b.require_scheduled(&d.subset(&vars, 1));
    }
    let priced: Vec<i64> = if d.chance(75) {
        weights.clone()
    } else {
        (0..n).map(|_| d.between(0, 3)).collect()
    };
    b.completion_objective(&vars, &priced, 2 * slots as i64);
    for _ in 0..d.below(4) {
        let var = vars[d.below(n as u64) as usize];
        let penalty = if d.chance(85) {
            d.between(1, 9)
        } else {
            -d.between(1, 3)
        };
        b.conflict_penalty(var, d.between(0, slots as i64), penalty);
    }
    b.build()
}

fn domains(state: &State) -> Vec<Vec<i64>> {
    (0..state.var_count())
        .map(|v| state.domain(v).iter().collect())
        .collect()
}

/// Cheapest feasible assignment by enumeration.
fn brute_force(model: &Model) -> Option<(i64, Vec<i64>)> {
    let mut a: Vec<i64> = model.vars.iter().map(|v| v.lo).collect();
    let mut best: Option<(i64, Vec<i64>)> = None;
    loop {
        if model.check(&a).is_ok() {
            let cost = model.cost(&a);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, a.clone()));
            }
        }
        let Some(i) = (0..a.len()).find(|&i| a[i] < model.vars[i].hi) else {
            return best;
        };
        a[i] += 1;
        for (j, v) in a.iter_mut().enumerate().take(i) {
            *v = model.vars[j].lo;
        }
    }
}

proptest! {
    /// (a) Incremental fixpoint == reference fixpoint, through fixes,
    /// failed fixes and undos.
    #[test]
    fn incremental_fixpoint_matches_reference(seed in any::<u64>(), script in any::<u64>()) {
        let m = random_model(seed, 6, 6, true);
        let slots = m.vars[0].hi;
        let mut new = Propagation::new(&m);
        let mut s = new.new_state();
        let old = reference::Propagation::new(&m);
        let mut rs = State::new(&m, 0);
        let root = new.propagate_all(&mut s);
        prop_assert_eq!(root, old.propagate_all(&m, &mut rs));
        if root.is_err() {
            return Ok(());
        }
        prop_assert_eq!(domains(&s), domains(&rs));
        let d = &mut Dice(script);
        let mut marks: Vec<(usize, usize)> = Vec::new();
        for _ in 0..16 {
            if d.chance(25) {
                if let Some((mark, rmark)) = marks.pop() {
                    s.undo_to(mark);
                    rs.undo_to(rmark);
                    prop_assert_eq!(domains(&s), domains(&rs));
                }
                continue;
            }
            let (var, value) = (d.below(m.var_count() as u64) as usize, d.between(0, slots));
            let (mark, rmark) = (s.mark(), rs.mark());
            let fixed = s.fix(var, value).and_then(|()| new.propagate(&mut s));
            let rfixed = rs.fix(var, value).and_then(|()| {
                let seeds = reference::take_changed(&mut rs);
                old.propagate_from(&m, &mut rs, &seeds)
            });
            prop_assert_eq!(fixed, rfixed, "fix x{} = {}", var, value);
            if fixed.is_ok() {
                marks.push((mark, rmark));
            } else {
                s.undo_to(mark);
                rs.undo_to(rmark);
            }
            prop_assert_eq!(domains(&s), domains(&rs), "after x{} = {}", var, value);
        }
    }

    /// (b) Bound off, the iterative search is the reference search.
    #[test]
    fn search_matches_reference_without_the_bound(seed in any::<u64>(), knobs in any::<u64>()) {
        let m = random_model(seed, 6, 5, true);
        let d = &mut Dice(knobs);
        let config = SolverConfig {
            max_nodes: if d.chance(50) { 1 + d.below(60) } else { 1_000_000 },
            cost_value_order: d.chance(75),
            ..SolverConfig::default()
        };
        let new = solve_without_capacity_bound(&m, &config);
        let old = reference::solve(&m, &config);
        prop_assert_eq!(new.outcome, old.outcome);
        prop_assert_eq!(&new.best, &old.best);
        prop_assert_eq!(new.stats.nodes, old.stats.nodes, "nodes");
        prop_assert_eq!(new.stats.backtracks, old.stats.backtracks, "backtracks");
        prop_assert_eq!(new.stats.solutions, old.stats.solutions, "solutions");
    }

    /// (c) The bound is sound, and the bounded solve returns the
    /// reference's answer.
    #[test]
    fn capacity_bound_is_sound_and_keeps_the_answer(seed in any::<u64>(), fleet in any::<bool>()) {
        let m = random_model(seed, 5, 3, !fleet);
        let optimum = brute_force(&m);
        match (root_lower_bound(&m), &optimum) {
            (Some(bound), Some((cost, _))) => prop_assert!(bound <= *cost, "bound {bound} > optimum {cost}"),
            (None, Some(_)) => prop_assert!(false, "root conflict on a feasible model"),
            (_, None) => {}
        }
        let config = SolverConfig::default();
        let new = solve(&m, &config);
        let old = reference::solve(&m, &config);
        prop_assert_eq!(old.outcome, if optimum.is_some() { Outcome::Optimal } else { Outcome::Infeasible });
        prop_assert_eq!(new.outcome, old.outcome);
        prop_assert_eq!(new.best.as_ref().map(|b| b.cost), optimum.map(|(cost, _)| cost));
        prop_assert_eq!(&new.best, &old.best);
        prop_assert!(new.stats.nodes <= old.stats.nodes, "the bound may only shrink the search");
    }
}

/// On the fleet shape — unit weights 1 and 2 under one daily capacity, cost
/// proportional to weight — the greedy dive meets the fluid bound, so the
/// solve is `vars + 1` nodes where the reference burns its budget.
#[test]
fn bound_closes_a_fleet_model_after_one_dive() {
    let n = 120;
    let mut b = ModelBuilder::new("fleet", 40);
    let vars = b.slot_vars("X", n);
    let weights: Vec<i64> = (0..n as i64).map(|i| 1 + i % 2).collect();
    b.capacity("concurrency", vars.clone(), weights.clone(), 7);
    b.completion_objective(&vars, &weights, 80);
    let m = b.build();
    let config = SolverConfig {
        max_nodes: 20_000,
        ..SolverConfig::default()
    };
    let new = solve(&m, &config);
    assert_eq!(new.outcome, Outcome::Optimal);
    assert_eq!(new.stats.nodes, n as u64 + 1);
    assert_eq!(Some(new.solution().cost), root_lower_bound(&m));
    let old = reference::solve(&m, &config);
    assert_eq!(
        old.outcome,
        Outcome::Feasible,
        "budget spent proving nothing"
    );
    assert_eq!(old.best, new.best, "and on the very same plan");
}
