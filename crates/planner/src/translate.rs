//! Intent → constraint-model translation (§3.3.2).
//!
//! "The translation of high-level intent to low-level mathematical models
//! is far from simple 1:1 mapping." The moving parts reproduced here:
//!
//! * **ESA grouping** — when the schedulable attribute is not `common_id`,
//!   nodes collapse into attribute groups, each weighted by its size
//!   (Appendix B's hybrid weighting);
//! * **Consistency contraction** — units that a consistency rule ties
//!   together are merged into one variable before modeling (§4.2 credits
//!   this with a 4× smaller model); the ablation keeps the units separate
//!   and emits `SameValue` constraints instead;
//! * **Linking vs hybrid strategies** for non-ESA concurrency — the global
//!   distinct-groups constraint (the y-variable encoding of Eq. 2–3) or a
//!   weighted linear relaxation (Appendix B's "assign a weight to each
//!   market equal to its number of elements");
//! * **Conflict scoping** — same-instance, or extended over service-chain
//!   neighbors via the topology;
//! * **Tolerance** — zero tolerance forbids busy slots outright, while
//!   minimize-conflicts prices them at BIGM in the objective (Listing 2).

use crate::intent::{ConflictTolerance, ConstraintRule, PlanIntent};
use cornet_model::{Model, ModelBuilder, VarId};
use cornet_types::inventory::AttributeGroups;
use cornet_types::{
    ConflictTable, CornetError, Inventory, NodeId, Result, SchedulingWindow, SimTime, Timeslot,
    Topology,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Strategy for translating concurrency on a non-ESA attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupStrategy {
    /// Global distinct-groups constraint — semantically the linking
    /// y-variables of Eq. 2–3, with strong propagation.
    LinkingVars,
    /// Hybrid weighted relaxation: each unit weighs `1000 / group_size`
    /// against a cap of `1000 × K` — linear, denser, weaker (Appendix B's
    /// hybrid situation).
    HybridWeights,
}

/// Translation options (the §3.3.2 decision points, exposed for ablation).
#[derive(Clone, Debug)]
pub struct TranslateOptions {
    /// Non-ESA concurrency strategy.
    pub strategy: GroupStrategy,
    /// Merge consistency groups into single variables before modeling.
    pub contract_consistency: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            strategy: GroupStrategy::LinkingVars,
            contract_consistency: true,
        }
    }
}

/// One schedulable unit after ESA grouping and consistency contraction.
#[derive(Clone, Debug, PartialEq)]
pub struct Unit {
    /// Member nodes scheduled together.
    pub nodes: Vec<NodeId>,
    /// Model variable of the unit.
    pub var: VarId,
}

/// Result of translating an intent: the model plus the decode tables.
#[derive(Debug)]
pub struct Translation {
    /// The generated constraint model.
    pub model: Model,
    /// Schedulable units, parallel to the model's variables.
    pub units: Vec<Unit>,
    /// Usable timeslots; model value `k ≥ 1` decodes to `slots[k-1]`.
    pub slots: Vec<Timeslot>,
    /// Resolved scheduling window.
    pub window: SchedulingWindow,
    /// Nodes excluded because a frozen element covers the whole window.
    pub frozen_out: Vec<NodeId>,
    /// The intent's conflict table against `slots`, shared with the parts
    /// this translation is split into.
    pub(crate) busy: Arc<SlotConflicts>,
}

impl Translation {
    /// Decode a solver assignment into a schedule.
    pub fn decode(&self, assignment: &[i64], conflicts: &ConflictTable) -> cornet_types::Schedule {
        let mut schedule = cornet_types::Schedule::default();
        for unit in &self.units {
            let value = assignment[unit.var.index()];
            if value > 0 {
                let slot = self.slots[(value - 1) as usize];
                schedule
                    .assignments
                    .extend(unit.nodes.iter().map(|&n| (n, slot)));
            } else {
                schedule.leftovers.extend(unit.nodes.iter().copied());
            }
        }
        schedule.leftovers.extend(self.frozen_out.iter().copied());
        // Only a node of the table can conflict: an empty one costs nothing.
        for n in conflicts.nodes() {
            if let Some(&slot) = schedule.assignments.get(&n) {
                let (from, to) = self.window.slot_period(slot);
                schedule.conflicts += conflicts.conflicts_in(n, from, to);
            }
        }
        schedule
    }
}

/// Ticket counts per usable slot for every node of a conflict table that
/// is busy in some slot — the one place slot periods meet the table.
/// `translate` prices and forbids slots from it and Algorithm 1 steers by
/// it; a node that is not in it costs neither anything.
pub(crate) type SlotConflicts = BTreeMap<NodeId, Vec<usize>>;

/// Count `conflicts` against the calendar `periods` of the usable slots.
pub(crate) fn slot_conflicts(
    conflicts: &ConflictTable,
    periods: &[(SimTime, SimTime)],
) -> SlotConflicts {
    let mut busy = SlotConflicts::new();
    for node in conflicts.nodes() {
        let in_slot = |&(from, to): &(SimTime, SimTime)| conflicts.conflicts_in(node, from, to);
        let counts: Vec<usize> = periods.iter().map(in_slot).collect();
        if counts.iter().any(|c| *c > 0) {
            busy.insert(node, counts);
        }
    }
    busy
}

/// Tickets `node` would run into in the slot at index `slot`.
pub(crate) fn tickets(busy: &SlotConflicts, node: NodeId, slot: usize) -> usize {
    busy.get(&node).map_or(0, |counts| counts[slot])
}

/// Attribute grouping over *units*: every member of a unit must agree on
/// the attribute, otherwise the intent is contradictory — a consistency
/// rule has merged nodes that a localize/uniformity/concurrency rule needs
/// to treat separately (§3.3.2's cross-attribute dependency problem,
/// surfaced as an explicit error instead of a silent approximation). The
/// returned membership is per unit.
fn group_units(
    inventory: &Inventory,
    unit_nodes: &[Vec<NodeId>],
    attr: &str,
    rule_name: &str,
) -> Result<AttributeGroups> {
    let members: Vec<NodeId> = unit_nodes.iter().flatten().copied().collect();
    let mut groups = inventory.group_by(&members, attr);
    // Units that agree within themselves are first seen in node order, so
    // the node-level group ids are the unit-level ones.
    let mut of_unit = Vec::with_capacity(unit_nodes.len());
    let mut at = 0;
    for unit in unit_nodes {
        let of_members = &groups.membership[at..at + unit.len()];
        if let Some(other) = of_members.iter().position(|g| *g != of_members[0]) {
            return Err(CornetError::InvalidIntent(format!(
                "consistency grouped {} and {} together, but they disagree on \
                 '{attr}' which the {rule_name} rule needs uniform within a unit",
                unit[0], unit[other]
            )));
        }
        of_unit.push(of_members[0]);
        at += unit.len();
    }
    groups.membership = of_unit;
    Ok(groups)
}

/// Translate an intent over a node scope into a constraint model.
pub fn translate(
    intent: &PlanIntent,
    inventory: &Inventory,
    topology: &Topology,
    nodes: &[NodeId],
    options: &TranslateOptions,
) -> Result<Translation> {
    let window = intent.window()?;
    let slots = window.usable_slots();
    if slots.is_empty() {
        return Err(CornetError::InvalidIntent(
            "scheduling window has no usable slots after exclusions".into(),
        ));
    }
    let conflicts = intent.conflicts()?;
    let tolerance = intent.tolerance();
    let extended_scope = intent.conflict_scope() == "service_chain";

    // --- frozen elements: full-window freezes drop nodes, period freezes
    //     become per-slot forbids later. A selector is resolved to a group
    //     of each of its attributes once, not compared node by node.
    let mut fully_frozen = vec![false; nodes.len()];
    let mut frozen_periods: BTreeMap<NodeId, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for f in &intent.frozen_elements {
        let mut selected = vec![!f.selector.is_empty(); nodes.len()];
        for (key, value) in &f.selector {
            let groups = inventory.group_by(nodes, key);
            let wanted = groups.values.iter().position(|v| v == value);
            for (hit, group) in selected.iter_mut().zip(&groups.membership) {
                *hit &= wanted.is_some() && *group == wanted;
            }
        }
        if !selected.contains(&true) {
            continue;
        }
        // A period is parsed once, and only when it freezes something.
        let period = match (&f.start, &f.end) {
            (Some(s), Some(e)) => Some((SimTime::parse(s)?, SimTime::parse(e)?)),
            _ => None,
        };
        for (p, _) in selected.iter().enumerate().filter(|(_, hit)| **hit) {
            match period {
                Some(period) => frozen_periods.entry(nodes[p]).or_default().push(period),
                None => fully_frozen[p] = true,
            }
        }
    }
    let (mut frozen_out, mut active) = (Vec::new(), Vec::with_capacity(nodes.len()));
    for (&n, &out) in nodes.iter().zip(&fully_frozen) {
        (if out { &mut frozen_out } else { &mut active }).push(n);
    }

    // --- ESA grouping.
    let mut unit_nodes: Vec<Vec<NodeId>> = if intent.schedulable_attribute == "common_id" {
        active.iter().map(|&n| vec![n]).collect()
    } else {
        let groups = inventory.group_by(&active, &intent.schedulable_attribute);
        if groups.group_count() == 0 && !active.is_empty() {
            return Err(CornetError::UnknownReference(format!(
                "schedulable attribute '{}' is absent from the inventory",
                intent.schedulable_attribute
            )));
        }
        groups
            .members()
            .into_iter()
            .map(|positions| positions.into_iter().map(|p| active[p]).collect())
            .collect()
    };

    // --- consistency contraction (or deferred SameValue emission).
    let mut same_value_groups: Vec<Vec<usize>> = Vec::new();
    for rule in &intent.constraints {
        if let ConstraintRule::Consistency { attribute } = rule {
            let firsts: Vec<NodeId> = unit_nodes.iter().map(|u| u[0]).collect();
            let groups = inventory.group_by(&firsts, attribute);
            if options.contract_consistency {
                // Merge all units sharing the attribute into one unit.
                let mut merged: Vec<Vec<NodeId>> = Vec::new();
                let mut merged_of = vec![usize::MAX; groups.group_count()];
                for (unit, membership) in unit_nodes.into_iter().zip(&groups.membership) {
                    match membership {
                        Some(g) if merged_of[*g] != usize::MAX => {
                            merged[merged_of[*g]].extend(unit)
                        }
                        Some(g) => {
                            merged_of[*g] = merged.len();
                            merged.push(unit);
                        }
                        None => merged.push(unit),
                    }
                }
                unit_nodes = merged;
            } else {
                // Ablation path: keep units, record equality groups.
                for positions in groups.members() {
                    if positions.len() > 1 {
                        same_value_groups.push(positions);
                    }
                }
            }
        }
    }

    let n_units = unit_nodes.len();
    let weights: Vec<i64> = unit_nodes.iter().map(|u| u.len() as i64).collect();
    let total_weight: i64 = weights.iter().sum();
    let n_slots = slots.len() as u32;

    let mut b = ModelBuilder::new(
        format!("cornet_plan_{}", intent.schedulable_attribute),
        n_slots.max(1),
    );
    let vars = b.slot_vars("COMMON_ID_SCHEDULED", n_units);

    for positions in same_value_groups {
        b.same_value("consistency", positions.iter().map(|&p| vars[p]).collect());
    }

    // Slot-granularity ratio helper for constraint granularities. When a
    // constraint granule spans several slots, granule ids must follow the
    // *calendar* slot numbers, not the exclusion-compacted model values —
    // otherwise a weekly cap drifts across week boundaries whenever
    // holidays are excluded (§3.3.2's differing-granularity complication).
    let slot_minutes = window.granularity.minutes();
    let calendar_granules = |block: i64| -> Vec<i64> {
        slots
            .iter()
            .map(|slot| (slot.0 as i64 - 1) / block)
            .collect()
    };

    // --- constraint rules.
    for rule in &intent.constraints {
        match rule {
            ConstraintRule::Concurrency {
                base_attribute,
                aggregate_attribute,
                operator,
                granularity,
                default_capacity,
            } => {
                if operator != "<=" {
                    return Err(CornetError::InvalidIntent(format!(
                        "unsupported concurrency operator {operator:?}"
                    )));
                }
                let block = (granularity.minutes() / slot_minutes).max(1) as i64;
                let is_esa = *base_attribute == intent.schedulable_attribute;
                match (is_esa, aggregate_attribute) {
                    // Plain ESA concurrency (Eq. 1).
                    (true, None) => {
                        if block > 1 {
                            b.capacity_with_granules(
                                format!("concurrency[{base_attribute}]"),
                                vars.clone(),
                                weights.clone(),
                                *default_capacity,
                                calendar_granules(block),
                            );
                        } else {
                            b.capacity(
                                format!("concurrency[{base_attribute}]"),
                                vars.clone(),
                                weights.clone(),
                                *default_capacity,
                            );
                        }
                    }
                    // ESA concurrency within each aggregate group (Eq. 5).
                    (true, Some(agg)) => {
                        let groups = group_units(inventory, &unit_nodes, agg, "concurrency")?;
                        for positions in groups.members() {
                            if positions.is_empty() {
                                continue;
                            }
                            let label = format!("concurrency[{base_attribute} per {agg}]");
                            let pvars: Vec<_> = positions.iter().map(|&p| vars[p]).collect();
                            let pweights: Vec<_> = positions.iter().map(|&p| weights[p]).collect();
                            if block > 1 {
                                b.capacity_with_granules(
                                    label,
                                    pvars,
                                    pweights,
                                    *default_capacity,
                                    calendar_granules(block),
                                );
                            } else {
                                b.capacity(label, pvars, pweights, *default_capacity);
                            }
                        }
                    }
                    // Non-ESA concurrency: count distinct attribute groups
                    // per slot (Eq. 2–3 / Eq. 4).
                    (false, _) => {
                        let AttributeGroups {
                            values, membership, ..
                        } = group_units(inventory, &unit_nodes, base_attribute, "concurrency")?;
                        if values.is_empty() && !unit_nodes.is_empty() {
                            return Err(CornetError::UnknownReference(format!(
                                "concurrency attribute '{base_attribute}' absent from inventory"
                            )));
                        }
                        let group_of: Vec<usize> =
                            membership.iter().map(|m| m.unwrap_or(usize::MAX)).collect();
                        match options.strategy {
                            GroupStrategy::LinkingVars => {
                                // Only units with the attribute participate.
                                let (pvars, pgroups): (Vec<VarId>, Vec<usize>) = vars
                                    .iter()
                                    .zip(&group_of)
                                    .filter(|(_, g)| **g != usize::MAX)
                                    .map(|(v, g)| (*v, *g))
                                    .unzip();
                                b.distinct_groups(
                                    format!("concurrency[distinct {base_attribute}]"),
                                    pvars,
                                    pgroups,
                                    *default_capacity,
                                );
                            }
                            GroupStrategy::HybridWeights => {
                                // weight = 1000 / group size, cap = 1000·K.
                                let mut size_of = vec![0i64; values.len()];
                                for g in membership.iter().flatten() {
                                    size_of[*g] += 1;
                                }
                                let sizes: BTreeMap<usize, i64> = size_of
                                    .iter()
                                    .enumerate()
                                    .map(|(g, c)| (g, (*c).max(1)))
                                    .collect();
                                let (pvars, pweights): (Vec<VarId>, Vec<i64>) = vars
                                    .iter()
                                    .zip(&group_of)
                                    .filter(|(_, g)| **g != usize::MAX)
                                    .map(|(v, g)| (*v, 1000 / sizes[g]))
                                    .unzip();
                                if block > 1 {
                                    b.capacity_with_granules(
                                        format!("concurrency[hybrid {base_attribute}]"),
                                        pvars,
                                        pweights,
                                        1000 * *default_capacity,
                                        calendar_granules(block),
                                    );
                                } else {
                                    b.capacity(
                                        format!("concurrency[hybrid {base_attribute}]"),
                                        pvars,
                                        pweights,
                                        1000 * *default_capacity,
                                    );
                                }
                            }
                        }
                    }
                }
            }
            ConstraintRule::Uniformity { attribute, value } => {
                // Fail loudly when a consistency-merged unit spans metric
                // values (cross-attribute dependency, §3.3.2).
                group_units(inventory, &unit_nodes, attribute, "uniformity")?;
                let mut metric = Vec::with_capacity(n_units);
                for u in &unit_nodes {
                    let v = inventory
                        .attr_of(u[0], attribute)
                        .and_then(|a| a.as_f64())
                        .ok_or_else(|| {
                            CornetError::UnknownReference(format!(
                                "uniformity attribute '{attribute}' is not numeric on {}",
                                u[0]
                            ))
                        })?;
                    metric.push(v);
                }
                b.max_spread(
                    format!("uniformity[{attribute}]"),
                    vars.clone(),
                    &metric,
                    *value,
                );
            }
            ConstraintRule::Localize { attribute } => {
                let groups = group_units(inventory, &unit_nodes, attribute, "localize")?;
                let (pvars, pgroups): (Vec<VarId>, Vec<usize>) = vars
                    .iter()
                    .zip(&groups.membership)
                    .filter_map(|(v, g)| g.map(|g| (*v, g)))
                    .unzip();
                b.non_interleaved(format!("localize[{attribute}]"), pvars, pgroups);
            }
            // Handled elsewhere.
            ConstraintRule::Consistency { .. }
            | ConstraintRule::ConflictHandling { .. }
            | ConstraintRule::ConflictScope { .. } => {}
        }
    }

    // --- conflicts and frozen periods per slot.
    let bigm = (n_slots as i64 + 1) * total_weight.max(1);
    // Under minimize-conflicts, scheduling with conflicts must still beat
    // staying unscheduled ("schedule as many nodes as possible but
    // minimize the number of generated conflicts", §3.3.1/Appendix B), so
    // each unit's unscheduled penalty is priced above its worst-case
    // conflict cost. Track that maximum as we price the slots.
    let mut max_conflict_cost = vec![0i64; unit_nodes.len()];
    let periods: Vec<_> = slots.iter().map(|&s| window.slot_period(s)).collect();
    let busy = slot_conflicts(&conflicts, &periods);
    // Only a node that is busy, next to a busy one under service-chain
    // scope, or frozen for a period can forbid or price a slot: an intent
    // without tickets and freezes visits no unit at all.
    let mut touched: BTreeSet<NodeId> = frozen_periods.keys().copied().collect();
    for &n in busy.keys() {
        touched.insert(n);
        if extended_scope {
            touched.extend(topology.neighbors(n));
        }
    }
    let touched_units = unit_nodes
        .iter()
        .enumerate()
        .filter(|(_, unit)| !touched.is_empty() && unit.iter().any(|n| touched.contains(n)));
    for (ui, unit) in touched_units {
        for (k, &(start, end)) in periods.iter().enumerate() {
            let mut conflict_count = 0usize;
            let mut frozen = false;
            for &n in unit {
                conflict_count += tickets(&busy, n, k);
                if extended_scope {
                    for &nb in topology.neighbors(n) {
                        conflict_count += tickets(&busy, nb, k);
                    }
                }
                if let Some(periods) = frozen_periods.get(&n) {
                    frozen |= periods.iter().any(|(f, t)| start <= *t && end >= *f);
                }
            }
            let value = (k + 1) as i64;
            if frozen {
                b.forbid("frozen_period", vars[ui], value);
            } else if conflict_count > 0 {
                match tolerance {
                    ConflictTolerance::Zero => b.forbid("conflict", vars[ui], value),
                    ConflictTolerance::Minimize => {
                        let cost = bigm * conflict_count as i64;
                        max_conflict_cost[ui] = max_conflict_cost[ui].max(cost);
                        b.conflict_penalty(vars[ui], value, cost)
                    }
                }
            }
        }
    }

    // --- objective: minimize conflicts (priced above) then weighted
    //     completion time; staying unscheduled costs more than any slot —
    //     and under minimize-conflicts, more than any conflicted slot.
    b.completion_objective(&vars, &weights, n_slots as i64 * 2);
    if tolerance == ConflictTolerance::Minimize {
        for (ui, &extra) in max_conflict_cost.iter().enumerate() {
            if extra > 0 {
                // Raise this unit's unscheduled cost above its most
                // expensive conflicted slot.
                b.conflict_penalty(vars[ui], 0, extra + bigm);
            }
        }
    }

    let units = unit_nodes
        .into_iter()
        .zip(vars)
        .map(|(nodes, var)| Unit { nodes, var })
        .collect();
    Ok(Translation {
        model: b.build(),
        units,
        slots,
        window,
        frozen_out,
        busy: Arc::new(busy),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{Attributes, NfType};

    fn inventory4() -> (Inventory, Topology) {
        let mut inv = Inventory::new();
        for (name, market, tz, pool) in [
            ("n0", "NYC", -5.0, 1i64),
            ("n1", "NYC", -5.0, 1),
            ("n2", "DFW", -6.0, 2),
            ("n3", "DFW", -6.0, 2),
        ] {
            inv.push(
                name,
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz)
                    .with("pool_id", pool)
                    .with("usid", format!("U{pool}")),
            );
        }
        let topo = Topology::with_capacity(4);
        (inv, topo)
    }

    fn intent(extra_constraints: &str) -> PlanIntent {
        let json = format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-05 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {{"name": "concurrency", "base_attribute": "common_id",
                  "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
                  "default_capacity": 2}}{extra_constraints}
            ]
        }}"#
        );
        PlanIntent::from_json(&json).unwrap()
    }

    fn all_nodes() -> Vec<NodeId> {
        (0..4).map(NodeId).collect()
    }

    #[test]
    fn basic_translation_shape() {
        let (inv, topo) = inventory4();
        let t = translate(
            &intent(""),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(t.units.len(), 4);
        assert_eq!(t.slots.len(), 5);
        assert_eq!(t.model.var_count(), 4);
        let stats = t.model.stats();
        assert_eq!(stats.by_kind["capacity"], 1);
    }

    #[test]
    fn consistency_contraction_shrinks_model() {
        let (inv, topo) = inventory4();
        let rule = r#", {"name": "consistency", "attribute": "usid"}"#;
        let contracted = translate(
            &intent(rule),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(contracted.units.len(), 2, "two USIDs → two units");
        assert_eq!(contracted.units[0].nodes.len(), 2);

        let expanded = translate(
            &intent(rule),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions {
                contract_consistency: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(expanded.units.len(), 4);
        assert_eq!(expanded.model.stats().by_kind["same_value"], 2);
    }

    #[test]
    fn market_concurrency_linking_vs_hybrid() {
        let (inv, topo) = inventory4();
        let rule = r#", {"name": "concurrency", "base_attribute": "market",
                         "operator": "<=", "granularity": {"metric": "day", "value": 1},
                         "default_capacity": 1}"#;
        let linking = translate(
            &intent(rule),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(linking.model.stats().by_kind["distinct_groups"], 1);
        let hybrid = translate(
            &intent(rule),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions {
                strategy: GroupStrategy::HybridWeights,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(hybrid.model.stats().by_kind["capacity"], 2, "base + hybrid");
    }

    #[test]
    fn frozen_full_window_drops_node() {
        let (inv, topo) = inventory4();
        let mut it = intent("");
        it.frozen_elements.push(crate::intent::FrozenElement {
            start: None,
            end: None,
            selector: [("common_id".to_string(), "id000002".to_string())].into(),
        });
        let t = translate(&it, &inv, &topo, &all_nodes(), &TranslateOptions::default()).unwrap();
        assert_eq!(t.units.len(), 3);
        assert_eq!(t.frozen_out, vec![NodeId(2)]);
        // Decoding reports the frozen node as a leftover.
        let solved = cornet_solver::solve(&t.model, &cornet_solver::SolverConfig::default());
        let schedule = t.decode(&solved.solution().assignment, &ConflictTable::new());
        assert!(schedule.leftovers.contains(&NodeId(2)));
    }

    #[test]
    fn frozen_market_by_attribute() {
        let (inv, topo) = inventory4();
        let mut it = intent("");
        it.frozen_elements.push(crate::intent::FrozenElement {
            start: None,
            end: None,
            selector: [("market".to_string(), "NYC".to_string())].into(),
        });
        let t = translate(&it, &inv, &topo, &all_nodes(), &TranslateOptions::default()).unwrap();
        assert_eq!(t.frozen_out.len(), 2, "both NYC nodes frozen");
    }

    /// A period freeze on a 1 000-node market forbids the covered slots
    /// of exactly its nodes; a two-key selector needs both to match, and
    /// an integer attribute matches its decimal spelling.
    #[test]
    fn frozen_period_on_a_large_market() {
        let mut inv = Inventory::new();
        for i in 0..1_300 {
            let mut attrs = Attributes::new().with("pool_id", (i % 13) as i64);
            if i < 1_200 {
                attrs.set("market", if i % 6 == 5 { "SMALL" } else { "BIG" });
            }
            inv.push(format!("n{i}"), NfType::ENodeB, attrs);
        }
        let topo = Topology::with_capacity(inv.len());
        let nodes: Vec<NodeId> = inv.ids().collect();
        let freeze = |from: &str, to: &str, selector: &[(&str, &str)]| {
            let selector = selector.iter().map(|(k, v)| (k.to_string(), v.to_string()));
            crate::intent::FrozenElement {
                start: Some(format!("2020-07-{from} 00:00:00")),
                end: Some(format!("2020-07-{to} 23:59:00")),
                selector: selector.collect(),
            }
        };
        let mut it = intent("");
        it.frozen_elements = vec![
            freeze("02", "03", &[("market", "BIG")]),
            freeze("05", "05", &[("market", "BIG"), ("pool_id", "7")]),
            freeze("01", "05", &[("market", "NOWHERE")]),
        ];
        let t = translate(&it, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        assert!(t.frozen_out.is_empty());
        let big = |i: &usize| *i < 1_200 && i % 6 != 5;
        let in_pool = (0..1_300).filter(big).filter(|i| i % 13 == 7).count();
        assert_eq!((0..1_300).filter(big).count(), 1_000);
        assert_eq!(
            t.model.stats().by_kind["forbidden_value"],
            2 * 1_000 + in_pool,
            "days 2 and 3 for the market, day 5 for its pool-7 nodes"
        );
        let with_n0_on = |day| {
            let mut assignment = vec![0; 1_300];
            assignment[0] = day;
            t.model.check(&assignment)
        };
        assert!(with_n0_on(1).is_ok(), "day 1 stays open");
        assert!(with_n0_on(2).is_err(), "n0 is in BIG");
    }

    #[test]
    fn zero_tolerance_forbids_conflict_slots() {
        let (inv, topo) = inventory4();
        let mut it = intent("");
        it.conflict_table.insert(
            "id000000".into(),
            vec![crate::intent::ConflictPeriod {
                start: "2020-07-01 00:00:00".into(),
                end: "2020-07-02 23:59:00".into(),
                tickets: vec!["CHG1".into()],
            }],
        );
        let t = translate(&it, &inv, &topo, &all_nodes(), &TranslateOptions::default()).unwrap();
        let forbids = t
            .model
            .stats()
            .by_kind
            .get("forbidden_value")
            .copied()
            .unwrap_or(0);
        assert_eq!(forbids, 2, "slots 1 and 2 forbidden for node 0");
        // Solve: node 0 must land on slot ≥ 3 or stay unscheduled.
        let solved = cornet_solver::solve(&t.model, &cornet_solver::SolverConfig::default());
        let schedule = t.decode(&solved.solution().assignment, &it.conflicts().unwrap());
        let slot = schedule.assignments[&NodeId(0)];
        assert!(slot.0 >= 3);
        assert_eq!(schedule.conflicts, 0);
    }

    #[test]
    fn minimize_conflicts_prices_but_allows() {
        let (inv, topo) = inventory4();
        let mut it = intent("");
        it.constraints.push(ConstraintRule::ConflictHandling {
            value: ConflictTolerance::Minimize,
        });
        it.conflict_table.insert(
            "id000000".into(),
            vec![crate::intent::ConflictPeriod {
                start: "2020-07-01 00:00:00".into(),
                end: "2020-07-05 23:59:00".into(),
                tickets: vec!["CHG1".into()],
            }],
        );
        let t = translate(&it, &inv, &topo, &all_nodes(), &TranslateOptions::default()).unwrap();
        assert_eq!(t.model.stats().by_kind.get("forbidden_value"), None);
        let solved = cornet_solver::solve(&t.model, &cornet_solver::SolverConfig::default());
        let schedule = t.decode(&solved.solution().assignment, &it.conflicts().unwrap());
        // Every slot conflicts for node 0; minimize-conflicts tolerance
        // still schedules it ("schedule as many nodes as possible"),
        // taking exactly one priced conflict.
        assert!(
            schedule.assignments.contains_key(&NodeId(0)),
            "node 0 must be scheduled"
        );
        assert_eq!(schedule.conflicts, 1, "one minimal conflict accepted");
        assert!(schedule.leftovers.is_empty());
    }

    #[test]
    fn esa_grouping_by_market() {
        let (inv, topo) = inventory4();
        let mut it = intent("");
        it.schedulable_attribute = "market".into();
        // Rewrite the concurrency rule to the ESA attribute.
        it.constraints = vec![ConstraintRule::Concurrency {
            base_attribute: "market".into(),
            aggregate_attribute: None,
            operator: "<=".into(),
            granularity: cornet_types::Granularity::daily(),
            default_capacity: 2,
        }];
        let t = translate(&it, &inv, &topo, &all_nodes(), &TranslateOptions::default()).unwrap();
        assert_eq!(t.units.len(), 2, "NYC and DFW groups");
        assert_eq!(t.units[0].nodes.len(), 2);
    }

    #[test]
    fn weekly_granules_follow_calendar_across_exclusions() {
        // Window July 1–14 with July 5–7 excluded; weekly cap of 1.
        // Usable slots: 1-4, 8-14 → model values 1..=11. Calendar week 0 is
        // slots 1-7 (values 1..4), week 1 is slots 8-14 (values 5..11).
        // Two nodes on values 4 and 5 are in DIFFERENT calendar weeks and
        // must both be allowed; naive (value-1)/7 bucketing would lump
        // them into one granule and reject.
        let (inv, topo) = inventory4();
        let it = PlanIntent::from_json(
            r#"{
            "scheduling_window": {"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-14 23:59:00",
                                   "granularity": {"metric": "day", "value": 1}},
            "maintenance_window": {"start": "0:00", "end": "6:00"},
            "excluded_periods": [
                {"start": "2020-07-05 00:00:00", "end": "2020-07-07 23:59:00"}
            ],
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {"name": "concurrency", "base_attribute": "common_id",
                 "operator": "<=", "granularity": {"metric": "week", "value": 1},
                 "default_capacity": 1}
            ]
        }"#,
        )
        .unwrap();
        let t = translate(
            &it,
            &inv,
            &topo,
            &[NodeId(0), NodeId(1)],
            &TranslateOptions::default(),
        )
        .unwrap();
        assert_eq!(t.slots.len(), 11);
        // Values 4 (calendar slot 4, week 0) and 5 (calendar slot 8, week 1)
        // together are fine; values 4 and 1 (both week 0) violate.
        let mut ok = vec![0i64; 2];
        ok[0] = 4;
        ok[1] = 5;
        assert!(
            t.model.check(&ok).is_ok(),
            "different calendar weeks must coexist"
        );
        assert!(
            t.model.check(&[4, 1]).is_err(),
            "same calendar week exceeds cap 1"
        );
    }

    #[test]
    fn consistency_crossing_localize_is_rejected() {
        // usid groups pair nodes (0,1), (2,3) — but give node 1 a different
        // market than node 0, so the merged unit straddles localize groups.
        let mut inv = Inventory::new();
        for (name, market, usid) in [
            ("n0", "NYC", "U0"),
            ("n1", "DFW", "U0"), // same usid, different market
            ("n2", "DFW", "U1"),
            ("n3", "DFW", "U1"),
        ] {
            inv.push(
                name,
                NfType::ENodeB,
                Attributes::new().with("market", market).with("usid", usid),
            );
        }
        let topo = Topology::with_capacity(4);
        let rule = r#", {"name": "consistency", "attribute": "usid"},
                       {"name": "localize", "attribute": "market"}"#;
        let err = translate(
            &intent(rule),
            &inv,
            &topo,
            &(0..4).map(NodeId).collect::<Vec<_>>(),
            &TranslateOptions::default(),
        );
        match err {
            Err(CornetError::InvalidIntent(msg)) => {
                assert!(msg.contains("disagree on 'market'"), "{msg}");
            }
            other => panic!("expected InvalidIntent, got {other:?}"),
        }
    }

    #[test]
    fn uniformity_requires_numeric_attribute() {
        let (inv, topo) = inventory4();
        let rule = r#", {"name": "uniformity", "attribute": "market", "value": 1}"#;
        let err = translate(
            &intent(rule),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions::default(),
        );
        assert!(err.is_err(), "market is categorical, not numeric");
    }

    #[test]
    fn weekly_granularity_produces_blocked_capacity() {
        let (inv, topo) = inventory4();
        let rule = r#", {"name": "concurrency", "base_attribute": "common_id",
                         "operator": "<=", "granularity": {"metric": "week", "value": 1},
                         "default_capacity": 3}"#;
        let t = translate(
            &intent(rule),
            &inv,
            &topo,
            &all_nodes(),
            &TranslateOptions::default(),
        )
        .unwrap();
        // The weekly rule must appear as a second capacity constraint with
        // calendar-aligned granules (value-set membership in the emission).
        assert_eq!(t.model.stats().by_kind["capacity"], 2);
        let mzn = t.model.to_minizinc();
        assert!(
            mzn.contains("= 1 \\/ COMMON_ID_SCHEDULED_0_ = 2"),
            "blocked capacity emits granule value-set membership: {mzn}"
        );
    }
}
