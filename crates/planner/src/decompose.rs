//! Independent sub-problem decomposition (§3.3.3 idea (b)).
//!
//! "We divide the changes into sets that have no dependencies with respect
//! to constraints. Then, we can solve in parallel and combine their
//! solutions." We compute connected components of the variable–constraint
//! graph; each component becomes a standalone sub-translation, and
//! [`Decomposed`] wraps any backend so that it solves them on the bounded
//! worker pool and merges the assignments back.
//!
//! Sharding ([`shard_translation`]) divides the same way but cuts through
//! shared capacity. Both splitters produce [`TranslationPart`]s and both go
//! through the one split–solve–merge fan, [`solve_parts`]: one
//! `par::map_ordered` call, one time rule, one scatter.
//!
//! Decomposition helps exactly when the intent's coupling constraints are
//! per-group (e.g. concurrency per EMS or per pool) — a global capacity or
//! a localize rule connects everything into one component, and the paper's
//! answer to that case is the timezone-sequenced heuristic instead.

use crate::backend::{BackendResult, Budget, SolveContext, SolverBackend};
use crate::translate::{Translation, Unit};
use cornet_model::{Constraint, Model, VarCost, VarId};
use cornet_solver::{Outcome, SearchStats};
use cornet_types::{par, Inventory, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Union–find over variable indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        // Iterative with path halving: wide constraints build long parent
        // chains, and a recursive find would both be O(n) and risk stack
        // overflow at 100K-variable models.
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Connected components of the variable–constraint graph, each sorted.
pub fn var_components(model: &Model) -> Vec<Vec<usize>> {
    let n = model.var_count();
    let mut dsu = Dsu::new(n);
    for c in &model.constraints {
        let vars = c.vars();
        for pair in vars.windows(2) {
            dsu.union(pair[0].index(), pair[1].index());
        }
    }
    let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for v in 0..n {
        let root = dsu.find(v);
        by_root.entry(root).or_default().push(v);
    }
    by_root.into_values().collect()
}

/// Apportioned shares of each cross-shard capacity constraint, keyed by
/// constraint index: per shard, the default-capacity share plus the
/// share of every granule-specific cap.
type CapShares = BTreeMap<usize, Vec<(i64, BTreeMap<i64, i64>)>>;

/// Extract the sub-model over `vars`. A constraint whose variables all lie
/// in `vars` copies through, renumbered. For a shard, `cut` names the
/// shard and the capacity constraints that span shards: each of those is
/// kept over the members present here, under this shard's apportioned
/// share. Without `cut`, `vars` must be closed under constraint adjacency
/// (a union of components).
fn sub_model(
    model: &Model,
    vars: &[usize],
    name: String,
    cut: Option<(usize, &CapShares)>,
) -> Model {
    let mut remap = vec![usize::MAX; model.var_count()];
    let mut sub = Model::new(name);
    for (new_idx, &old) in vars.iter().enumerate() {
        remap[old] = new_idx;
        let v = &model.vars[old];
        sub.add_var(v.name.clone(), v.lo, v.hi);
    }
    let here = |v: &VarId| remap[v.index()] != usize::MAX;
    let map_var = |v: VarId| VarId(remap[v.index()] as u32);
    for (ci, c) in model.constraints.iter().enumerate() {
        let share = cut.and_then(|(si, shares)| Some((si, &shares.get(&ci)?[si])));
        if share.is_none() && !c.vars().first().is_some_and(here) {
            continue;
        }
        let mut c2 = c.clone();
        if let Some((si, (cap, caps))) = share {
            let Constraint::Capacity {
                label,
                vars,
                weights,
                default_cap,
                slot_caps,
                ..
            } = &mut c2
            else {
                unreachable!("only capacity constraints are apportioned");
            };
            // Weights run parallel to the members: drop both alike.
            let mut present = vars.iter().map(here);
            weights.retain(|_| present.next().expect("one weight per member"));
            vars.retain(here);
            if vars.is_empty() {
                continue;
            }
            *label = format!("{label}#shard{si}");
            (*default_cap, *slot_caps) = (*cap, caps.clone());
        }
        match &mut c2 {
            Constraint::Capacity { vars, .. }
            | Constraint::DistinctGroups { vars, .. }
            | Constraint::SameValue { vars, .. }
            | Constraint::MaxSpread { vars, .. }
            | Constraint::NonInterleaved { vars, .. } => {
                for v in vars.iter_mut() {
                    *v = map_var(*v);
                }
            }
            Constraint::ForbiddenValue { var, .. } => *var = map_var(*var),
            Constraint::Linear { terms, .. } => {
                for t in terms.iter_mut() {
                    t.var = map_var(t.var);
                }
            }
        }
        sub.add_constraint(c2);
    }
    for (new_idx, &old) in vars.iter().enumerate() {
        let term = model.objective.term(VarId(old as u32));
        if *term != VarCost::default() {
            sub.objective.set_term(VarId(new_idx as u32), term.clone());
        }
    }
    sub
}

/// A decomposed piece of a translation: the original variable indices it
/// covers plus a standalone sub-translation any backend can solve.
pub struct TranslationPart {
    /// Original model variable indices, ascending; position `i` in the
    /// sub-translation corresponds to `vars[i]` in the parent.
    pub vars: Vec<usize>,
    /// The standalone sub-problem.
    pub translation: Translation,
}

impl TranslationPart {
    /// The part of `t` over `vars`, solving `model` (a [`sub_model`] over
    /// the same `vars`): its own unit table, the parent's slots and
    /// window.
    fn new(t: &Translation, vars: Vec<usize>, model: Model) -> Self {
        let units = vars
            .iter()
            .enumerate()
            .map(|(new_idx, &old)| Unit {
                nodes: t.units[old].nodes.clone(),
                var: VarId(new_idx as u32),
            })
            .collect();
        TranslationPart {
            vars,
            translation: Translation {
                model,
                units,
                slots: t.slots.clone(),
                window: t.window.clone(),
                // Whole-window freezes stay with the parent; parts only
                // schedule live units.
                frozen_out: Vec::new(),
                busy: Arc::clone(&t.busy),
            },
        }
    }
}

/// Split a translation into independent sub-translations — the §3.3.3
/// decomposition as a backend-agnostic pre-pass. Each part carries its own
/// model *and* its own unit table, so unit-level backends (the Algorithm 1
/// heuristic) decompose exactly like the exact solver. Returns one part
/// when the constraint graph is connected.
pub fn split_translation(t: &Translation) -> Vec<TranslationPart> {
    var_components(&t.model)
        .into_iter()
        .map(|vars| {
            let model = sub_model(&t.model, &vars, format!("{}#sub", t.model.name), None);
            TranslationPart::new(t, vars, model)
        })
        .collect()
}

/// The least time a part is handed, however late it starts: enough for a
/// first dive, so a queued part still reaches a solution.
const PART_TIME_FLOOR: Duration = Duration::from_millis(50);

/// The planner's one split–solve–merge fan: solve every part on the
/// bounded worker pool and put the answers back as one result over the
/// parent translation.
///
/// Each part is solved in its own [`SolveContext`] — its sub-translation,
/// spans under `ctx.span_parent`. `budget.max_nodes` is per part;
/// `budget.time_limit` is **one deadline for the whole fan**, taken here:
/// parts beyond the pool wait their turn, so a part gets what is left of
/// the deadline when it starts, floored at [`PART_TIME_FLOOR`].
/// The fan therefore returns within `time_limit + parts × 50 ms` of a
/// backend that honours its budget. `order` is the visiting order (part
/// order when `None`); the merge is in part order regardless, so it never
/// shows in the result.
///
/// The merged assignment scatters each part's through `part.vars`; a part
/// that found nothing leaves its units at 0 (unscheduled). Stats are
/// summed, runs concatenated, and the outcome is `Optimal` only when every
/// part proved its own optimum — `Feasible` otherwise.
pub(crate) fn solve_parts<F>(
    ctx: &SolveContext<'_>,
    parts: &[&TranslationPart],
    order: Option<&[usize]>,
    budget: &Budget,
    solve_part: F,
) -> BackendResult
where
    F: Fn(usize, &SolveContext<'_>, &Budget) -> BackendResult + Sync,
{
    let deadline = Instant::now() + budget.time_limit;
    let part_order: Vec<usize> =
        order.map_or_else(|| (0..parts.len()).collect(), <[usize]>::to_vec);
    #[allow(
        clippy::disallowed_methods,
        reason = "the planner's one fan: components and shards share this deadline rule and scatter"
    )]
    let mut solved: Vec<(usize, BackendResult)> = par::map_ordered(&part_order, |&i| {
        let part_ctx = SolveContext {
            translation: &parts[i].translation,
            ..ctx.clone()
        };
        let part_budget = Budget {
            max_nodes: budget.max_nodes,
            time_limit: deadline
                .saturating_duration_since(Instant::now())
                .max(PART_TIME_FLOOR),
        };
        (i, solve_part(i, &part_ctx, &part_budget))
    });
    solved.sort_by_key(|(i, _)| *i);

    let model = &ctx.translation.model;
    let mut assignment = vec![0i64; model.var_count()];
    let mut stats = SearchStats::default();
    let mut runs = Vec::new();
    let mut outcome = Outcome::Optimal;
    for (i, result) in solved {
        stats.absorb(&result.stats);
        for (&old, &val) in parts[i].vars.iter().zip(result.assignment.iter().flatten()) {
            assignment[old] = val;
        }
        if result.assignment.is_none() || result.outcome != Outcome::Optimal {
            outcome = Outcome::Feasible;
        }
        runs.extend(result.runs);
    }
    BackendResult {
        outcome,
        cost: Some(model.cost(&assignment)),
        assignment: Some(assignment),
        stats,
        runs,
        parts: parts.len(),
    }
}

/// §3.3.3 idea (b) as a backend combinator: split the translation into
/// its independent components and put them through the fan, every
/// component solved by the wrapped backend under the full node budget.
/// `plan()` wraps the chosen backend in this when `decompose` is set. A
/// connected model goes to the wrapped backend untouched.
pub(crate) struct Decomposed(pub Box<dyn SolverBackend>);

impl SolverBackend for Decomposed {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn solve(&self, ctx: &SolveContext<'_>, budget: &Budget) -> BackendResult {
        let parts = split_translation(ctx.translation);
        if parts.len() < 2 {
            return self.0.solve(ctx, budget);
        }
        // Unconstrained units are singleton parts, so this can be a part
        // per node: the fan's bounded pool, not a thread each.
        let parts: Vec<&TranslationPart> = parts.iter().collect();
        solve_parts(ctx, &parts, None, budget, |_, part_ctx, part_budget| {
            self.0.solve(part_ctx, part_budget)
        })
    }
}

/// Each node's UTC offset in milli-hours, 0 where the inventory is silent
/// or the value is not a number. The offset is read once per distinct
/// grouping key: nodes that share a key share a timezone.
pub(crate) fn tz_millis(inventory: &Inventory, nodes: &[NodeId]) -> Vec<i64> {
    let groups = inventory.group_by(nodes, "utc_offset");
    let mut of_group: Vec<Option<i64>> = vec![None; groups.group_count()];
    let milli = |n| {
        let offset = inventory.attr_of(n, "utc_offset").and_then(|v| v.as_f64());
        offset.map_or(0, |o| (o * 1000.0).round() as i64)
    };
    let keyed = groups.membership.iter().zip(nodes);
    keyed
        .map(|(g, &n)| g.map_or(0, |g| *of_group[g].get_or_insert_with(|| milli(n))))
        .collect()
}

/// Positions of `nodes` by the shard each falls into, keyed and ordered by
/// timezone offset (milli-hours, so `f64` offsets order and compare
/// exactly) and market; offset 0 and no market where the inventory is
/// silent.
pub(crate) fn shard_groups(
    inventory: &Inventory,
    nodes: &[NodeId],
) -> BTreeMap<(i64, String), Vec<usize>> {
    let tz = tz_millis(inventory, nodes);
    let markets = inventory.group_by(nodes, "market");
    let mut shards: BTreeMap<(i64, &str), Vec<usize>> = BTreeMap::new();
    for (at, (tz, market)) in tz.into_iter().zip(&markets.membership).enumerate() {
        let market = market.map_or("", |g| &markets.values[g]);
        shards.entry((tz, market)).or_default().push(at);
    }
    let owned = shards.into_iter();
    owned
        .map(|((tz, market), at)| ((tz, market.to_owned()), at))
        .collect()
}

/// One timezone/market shard of a translation.
pub struct TranslationShard {
    /// The standalone sub-problem (same shape as a decomposition part).
    pub part: TranslationPart,
    /// This shard's apportioned share of the plain concurrency capacity,
    /// if a cross-shard capacity constraint was cut — the slot capacity
    /// a per-shard heuristic member should pack against.
    pub heuristic_cap: Option<i64>,
}

/// Result of sharding a translation by timezone/market.
pub struct ShardSplit {
    /// Shards in timezone-then-market order.
    pub shards: Vec<TranslationShard>,
    /// Number of capacity constraints that span shards and were
    /// apportioned; `0` means the shards were already independent and a
    /// merged optimal is globally optimal.
    pub coupled: usize,
}

/// Proportionally split `total` across `weights`, flooring each share and
/// handing the remainder to the largest weights first (ties: lower
/// index). Shares always sum to exactly `total`, so per-granule shard
/// loads can never add up past the original capacity.
fn apportion(total: i64, weights: &[i64]) -> Vec<i64> {
    let w_sum: i64 = weights.iter().sum();
    if w_sum <= 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<i64> = weights
        .iter()
        .map(|&w| ((total as i128 * w as i128) / w_sum as i128) as i64)
        .collect();
    let mut rem = total - shares.iter().sum::<i64>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut k = 0;
    while rem > 0 && !order.is_empty() {
        shares[order[k % order.len()]] += 1;
        rem -= 1;
        k += 1;
    }
    shares
}

/// Upper bound on shard count; smaller tails are folded into the largest
/// shard.
const MAX_SHARDS: usize = 64;

/// Shard a translation by the (timezone, market) of each unit's nodes.
///
/// Unlike [`split_translation`], this cuts *through* cross-shard capacity
/// constraints: each shard receives a proportional share of the original
/// capacity (largest-remainder apportionment, so Σ shard caps ≤ original
/// cap per granule — a merged assignment satisfies the global constraint
/// by construction, and [`reconcile`] then claws back the slack the
/// apportionment stranded). Constraints that couple shards any other way
/// (consistency, uniformity, localize, distinct-groups, linear) cannot be
/// cut soundly, so their presence — or fewer than two distinct keys —
/// makes this return `None` and the caller falls back to unsharded
/// solving (the CN0419 lint flags both situations).
pub fn shard_translation(t: &Translation, inventory: &Inventory) -> Option<ShardSplit> {
    // Key every unit by its first node; ESA grouping and consistency
    // contraction only merge co-located nodes, so one representative is
    // enough.
    let firsts: Vec<NodeId> = t.units.iter().map(|unit| unit.nodes[0]).collect();
    let groups = shard_groups(inventory, &firsts);
    if groups.len() < 2 {
        return None;
    }
    // Cap the shard count: keep the largest groups, fold the tail into
    // the biggest of the kept shards (deterministic: size desc, key asc).
    let mut ordered: Vec<((i64, String), Vec<usize>)> = groups.into_iter().collect();
    ordered.sort_by(|a, b| (b.1.len(), &a.0).cmp(&(a.1.len(), &b.0)));
    while ordered.len() > MAX_SHARDS {
        let (_, tail) = ordered.pop().expect("non-empty");
        ordered[0].1.extend(tail);
    }
    ordered.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, vars) in ordered.iter_mut() {
        vars.sort_unstable();
    }

    // shard_of[var] = shard index.
    let mut shard_of = vec![0usize; t.model.var_count()];
    for (si, (_, vars)) in ordered.iter().enumerate() {
        for &v in vars {
            shard_of[v] = si;
        }
    }
    // Classify constraints: fully-local ones copy through; cross-shard
    // capacity gets apportioned; anything else crossing shards refuses.
    let mut cap_shares: CapShares = BTreeMap::new();
    for (ci, c) in t.model.constraints.iter().enumerate() {
        let cvars = c.vars();
        let Some(first) = cvars.first() else { continue };
        let home = shard_of[first.index()];
        if cvars.iter().all(|v| shard_of[v.index()] == home) {
            continue;
        }
        let Constraint::Capacity {
            vars,
            weights,
            default_cap,
            slot_caps,
            ..
        } = c
        else {
            return None; // non-capacity coupling: sharding is unsound
        };
        let mut shard_weight = vec![0i64; ordered.len()];
        for (v, w) in vars.iter().zip(weights) {
            shard_weight[shard_of[v.index()]] += *w.max(&1);
        }
        let default_shares = apportion(*default_cap, &shard_weight);
        let mut slot_shares: Vec<BTreeMap<i64, i64>> = vec![BTreeMap::new(); ordered.len()];
        for (&granule, &cap) in slot_caps {
            for (si, share) in apportion(cap, &shard_weight).into_iter().enumerate() {
                slot_shares[si].insert(granule, share);
            }
        }
        cap_shares.insert(ci, default_shares.into_iter().zip(slot_shares).collect());
    }
    let coupled = cap_shares.len();

    let shards: Vec<TranslationShard> = ordered
        .into_iter()
        .enumerate()
        .map(|(si, (_, vars))| {
            let name = format!("{}#shard{si}", t.model.name);
            let model = sub_model(&t.model, &vars, name, Some((si, &cap_shares)));
            let heuristic_cap = cap_shares
                .iter()
                .filter(|(&ci, _)| {
                    t.model.constraints[ci]
                        .vars()
                        .iter()
                        .any(|v| shard_of[v.index()] == si)
                })
                .map(|(_, shares)| shares[si].0)
                .min();
            TranslationShard {
                part: TranslationPart::new(t, vars, model),
                heuristic_cap,
            }
        })
        .collect();
    Some(ShardSplit { shards, coupled })
}

/// Counters from a cross-shard reconciliation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Improvement rounds executed (last one makes no move).
    pub rounds: u64,
    /// Variable moves applied.
    pub moves: u64,
    /// Does the final assignment pass the *full* model check?
    pub feasible: bool,
}

/// Reconciliation sweep limit: rounds of the repair loop before it settles
/// for what it has.
const MAX_RECONCILE_ROUNDS: u64 = 8;

/// Cross-shard capacity reconciliation: verify a merged shard assignment
/// against the full original model and claw back the slack that
/// proportional apportionment stranded.
///
/// The repair loop deterministically sweeps variables in ascending index
/// order and moves one to a cheaper value (earlier slot, or from
/// unscheduled into a slot) whenever every capacity constraint it
/// belongs to has room in the target granule and no forbidden value or
/// non-capacity constraint is involved. Loads are tracked incrementally
/// per (constraint, granule), so each accepted move keeps the invariant
/// "all capacity constraints satisfied" — the final full-model check is
/// the proof, not a hope.
pub fn reconcile(model: &Model, assignment: &mut [i64]) -> ReconcileOutcome {
    let n = model.var_count();
    // A variable is movable only if capacity and forbidden-value
    // constraints are the whole story for it.
    let mut locked = vec![false; n];
    let mut forbidden: BTreeMap<usize, Vec<i64>> = BTreeMap::new();
    let mut members: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for (ci, c) in model.constraints.iter().enumerate() {
        match c {
            Constraint::Capacity { vars, weights, .. } => {
                for (v, w) in vars.iter().zip(weights) {
                    members[v.index()].push((ci, *w));
                }
            }
            Constraint::ForbiddenValue { var, value, .. } => {
                forbidden.entry(var.index()).or_default().push(*value);
            }
            _ => {
                for v in c.vars() {
                    locked[v.index()] = true;
                }
            }
        }
    }
    // Load per (constraint, granule) under the current assignment.
    let granule = |ci: usize, value: i64| {
        let g = model.constraints[ci].capacity_granule(value);
        g.expect("capacity member")
    };
    let mut loads: BTreeMap<(usize, i64), i64> = BTreeMap::new();
    for (vi, &val) in assignment.iter().enumerate() {
        if val > 0 {
            for &(ci, w) in &members[vi] {
                *loads.entry((ci, granule(ci, val))).or_default() += w;
            }
        }
    }
    let mut out = ReconcileOutcome::default();
    while out.rounds < MAX_RECONCILE_ROUNDS {
        out.rounds += 1;
        let mut moved = false;
        for vi in 0..n {
            if locked[vi] {
                continue;
            }
            let cur = assignment[vi];
            let vid = VarId(vi as u32);
            let var = &model.vars[vi];
            let cur_cost = model.objective.var_cost(vid, cur);
            let banned = forbidden.get(&vi).map_or(&[][..], Vec::as_slice);
            let mut best: Option<(i64, i64)> = None; // (cost, value)
            for v in var.lo..=var.hi {
                if v == cur || banned.contains(&v) {
                    continue;
                }
                let cost = model.objective.var_cost(vid, v);
                if cost >= cur_cost || best.is_some_and(|(bc, bv)| (cost, v) >= (bc, bv)) {
                    continue;
                }
                let fits = v <= 0
                    || members[vi].iter().all(|&(ci, w)| {
                        let g = granule(ci, v);
                        let mut load = loads.get(&(ci, g)).copied().unwrap_or(0);
                        if cur > 0 && granule(ci, cur) == g {
                            load -= w;
                        }
                        let cap = model.constraints[ci].capacity_of_granule(g);
                        load + w <= cap.expect("capacity member")
                    });
                if fits {
                    best = Some((cost, v));
                }
            }
            if let Some((_, v)) = best {
                for &(ci, w) in &members[vi] {
                    if cur > 0 {
                        *loads.entry((ci, granule(ci, cur))).or_default() -= w;
                    }
                    if v > 0 {
                        *loads.entry((ci, granule(ci, v))).or_default() += w;
                    }
                }
                assignment[vi] = v;
                out.moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    out.feasible = model.check(assignment).is_ok();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::ModelBuilder;

    fn two_component_model() -> Model {
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("capA", vs[..2].to_vec(), vec![1, 1], 1);
        b.capacity("capB", vs[2..].to_vec(), vec![1, 1], 1);
        b.require_scheduled(&vs);
        b.completion_objective(&vs, &[1; 4], 100);
        b.build()
    }

    #[test]
    fn components_found() {
        let m = two_component_model();
        let comps = var_components(&m);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2, 3]);
    }

    #[test]
    fn sub_models_print_their_variables_under_the_parents_names() {
        use cornet_model::VarName;
        let prefix_of = |m: &Model, at: usize| match &m.vars[at].name {
            VarName::Indexed(prefix, _) => Arc::clone(prefix),
            other => panic!("{other} is not a slot variable"),
        };

        // A decomposed part: one component, copied through.
        let m = two_component_model();
        let part = sub_model(&m, &[2, 3], "t#sub".into(), None);
        assert_eq!(
            (part.vars[0].name.to_string(), part.vars[1].name.to_string()),
            ("X[2]".into(), "X[3]".into())
        );
        assert!(
            Arc::ptr_eq(&prefix_of(&part, 1), &prefix_of(&m, 0)),
            "a name is an Arc clone"
        );
        let text = part.to_minizinc();
        assert!(text.contains("var 0..4: X_2_ :: add_to_output;"), "{text}");
        assert!(text.contains("constraint X_3_ != 0;"), "{text}");
        assert!(
            text.contains("(if X_3_ = 0 then 100 else 0 endif)"),
            "{text}"
        );

        // A shard: a capacity cut through, members kept under their names.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let shares: CapShares = [(0, vec![(1, BTreeMap::new()); 2])].into();
        let shard = sub_model(&m, &[1, 3], "t#shard1".into(), Some((1, &shares)));
        let text = shard.to_minizinc();
        assert!(
            text.contains("var 0..4: X_1_ :: add_to_output;\nvar 0..4: X_3_"),
            "{text}"
        );
        assert!(
            text.contains(
                "% cap#shard1\nconstraint 1 * bool2int(X_1_ = 1) + 1 * bool2int(X_3_ = 1) <= 1;"
            ),
            "{text}"
        );
        assert!(
            text.contains("1 * X_3_ +\n  (if X_3_ = 0 then 100 else 0 endif);"),
            "{text}"
        );
    }

    #[test]
    fn global_constraint_is_one_component() {
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("global", vs.clone(), vec![1; 4], 2);
        let m = b.build();
        assert_eq!(var_components(&m).len(), 1);
    }

    #[test]
    fn unconstrained_vars_form_singletons() {
        let mut b = ModelBuilder::new("t", 2);
        b.slot_vars("X", 3);
        let m = b.build();
        assert_eq!(var_components(&m).len(), 3);
    }

    #[test]
    fn the_fan_has_one_deadline_for_every_part() {
        // P singleton parts (no coupling constraint) and a backend that
        // sleeps out whatever slice it is handed: the fan must share one
        // deadline, not hand every part (or every wave) a fresh limit.
        use crate::intent::PlanIntent;
        use crate::translate::{translate, TranslateOptions};
        use cornet_types::{Attributes, NfType, NodeId, Topology};
        use std::sync::Mutex;

        let workers = par::workers();
        let p = 4 * workers;
        let mut inv = Inventory::new();
        for i in 0..p {
            inv.push(format!("n{i}"), NfType::ENodeB, Attributes::new());
        }
        let intent = PlanIntent::from_json(
            r#"{
            "scheduling_window": {"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-10 23:59:00",
                                   "granularity": {"metric": "day", "value": 1}},
            "maintenance_window": {"start": "0:00", "end": "6:00"},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": []
        }"#,
        )
        .unwrap();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let translation = translate(
            &intent,
            &inv,
            &Topology::with_capacity(p),
            &nodes,
            &TranslateOptions::default(),
        )
        .unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent);
        let parts = split_translation(&translation);
        assert_eq!(parts.len(), p);
        let part_refs: Vec<&TranslationPart> = parts.iter().collect();

        let time_limit = Duration::from_millis(200);
        let budget = Budget {
            max_nodes: 7,
            time_limit,
        };
        let handed = Mutex::new(vec![Duration::ZERO; p]);
        let started = Instant::now();
        let solved = solve_parts(
            &ctx,
            &part_refs,
            None,
            &budget,
            |i, part_ctx, part_budget| {
                assert_eq!(part_budget.max_nodes, 7, "the node budget is per part");
                assert_eq!(part_ctx.translation.model.var_count(), 1);
                handed.lock().unwrap()[i] = part_budget.time_limit;
                std::thread::sleep(part_budget.time_limit);
                BackendResult {
                    outcome: Outcome::Optimal,
                    assignment: Some(vec![i as i64 + 1]),
                    cost: Some(0),
                    stats: SearchStats {
                        nodes: 1,
                        ..SearchStats::default()
                    },
                    runs: Vec::new(),
                    parts: 1,
                }
            },
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed <= time_limit + PART_TIME_FLOOR * p as u32,
            "{p} parts took {elapsed:?} against a {time_limit:?} limit"
        );

        // Parts past the first wave start after a whole slice has been
        // slept out, so they are handed strictly less than any part of
        // the first wave — and never less than the floor.
        let handed = handed.into_inner().unwrap();
        let (first_wave, queued) = handed.split_at(workers);
        let least_first = *first_wave.iter().min().unwrap();
        assert!(first_wave.iter().all(|&t| t <= time_limit));
        assert!(
            queued
                .iter()
                .all(|&t| PART_TIME_FLOOR <= t && t < least_first),
            "queued parts {queued:?} vs first wave {first_wave:?}"
        );

        // And the merge is the scatter through `part.vars`.
        assert_eq!(solved.assignment, Some((1..=p as i64).collect()));
        assert_eq!(solved.stats.nodes, p as u64);
        assert_eq!((solved.outcome, solved.parts), (Outcome::Optimal, p));
    }

    #[test]
    fn apportion_sums_to_total_and_favors_weight() {
        let shares = apportion(10, &[5, 3, 1]);
        assert_eq!(shares.iter().sum::<i64>(), 10);
        assert!(shares[0] >= shares[1] && shares[1] >= shares[2]);
        // Remainders go to the largest weights first, deterministically.
        assert_eq!(apportion(7, &[2, 2, 2]), vec![3, 2, 2]);
        assert_eq!(apportion(0, &[4, 4]), vec![0, 0]);
        assert_eq!(apportion(5, &[0, 0]), vec![0, 0]);
    }

    #[test]
    fn reconcile_claws_back_stranded_slack() {
        // Capacity 2/slot; a wasteful merged assignment with one leftover
        // must repack into the earliest slots and schedule the leftover.
        let mut b = ModelBuilder::new("t", 4);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let mut a = vec![1, 2, 3, 0];
        let out = reconcile(&m, &mut a);
        assert!(out.feasible);
        assert_eq!(a, vec![1, 1, 2, 2]);
        assert_eq!(out.moves, 3);
    }

    #[test]
    fn reconcile_respects_forbidden_and_locked_vars() {
        let mut b = ModelBuilder::new("t", 3);
        let vs = b.slot_vars("X", 3);
        b.capacity("cap", vs.clone(), vec![1; 3], 2);
        b.same_value("pair", vec![vs[1], vs[2]]);
        b.forbid("excl", vs[0], 1);
        b.completion_objective(&vs, &[1; 3], 100);
        let m = b.build();
        let mut a = vec![2, 3, 3];
        let out = reconcile(&m, &mut a);
        assert!(out.feasible);
        assert_eq!(a[0], 2, "slot 1 is forbidden for var 0");
        assert_eq!((a[1], a[2]), (3, 3), "same-value members must not move");
    }

    #[test]
    fn reconcile_never_breaks_capacity() {
        let mut b = ModelBuilder::new("t", 2);
        let vs = b.slot_vars("X", 4);
        b.capacity("cap", vs.clone(), vec![1; 4], 2);
        b.completion_objective(&vs, &[1; 4], 100);
        let m = b.build();
        let mut a = vec![1, 1, 2, 0]; // slot 2 has room for exactly one more
        let out = reconcile(&m, &mut a);
        assert!(out.feasible);
        assert!(m.check(&a).is_ok());
        assert_eq!(a, vec![1, 1, 2, 2]);
    }
}
