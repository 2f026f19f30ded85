//! Incremental re-solve support: plan snapshots, intent/inventory deltas
//! and warm-start handles.
//!
//! A maintenance campaign re-plans the same network many times as the
//! scope shifts — a few nodes enter or leave, a window moves, the rest of
//! the plan should stay put. Instead of solving from scratch, the planner
//! can capture the published plan as a [`PlanSnapshot`], diff it against
//! the next translation ([`PlanDelta`]) and seed the solver with the
//! surviving assignments ([`WarmStart`]): the previous incumbent is
//! installed before search starts and unchanged units are pinned, so only
//! the delta is actually searched. With an empty delta the re-solve
//! expands a single node and returns the prior plan bit-identically.

use crate::plan::PlanResult;
use crate::translate::Translation;
use cornet_solver::search::WarmStartHint;
use cornet_types::json::{parse, JsonValue, JsonWriter};
use cornet_types::{CornetError, Inventory, Result};
use std::collections::BTreeMap;

/// Schema tag written into snapshot files.
pub const PLAN_SCHEMA: &str = "cornet-plan/v1";

/// A published plan in portable, node-name-keyed form.
///
/// Snapshots are keyed by inventory *names*, not dense [`NodeId`]s, so
/// they stay valid when the next run loads a re-numbered inventory.
///
/// [`NodeId`]: cornet_types::NodeId
#[derive(Clone, Debug, PartialEq)]
pub struct PlanSnapshot {
    /// Backend that produced the plan (informational).
    pub backend: String,
    /// Solver outcome of the producing run (informational).
    pub outcome: String,
    /// Scheduled nodes: `(node name, timeslot index)`.
    pub assignments: Vec<(String, u32)>,
    /// Nodes the producing run left unscheduled.
    pub leftovers: Vec<String>,
}

impl PlanSnapshot {
    /// Capture a planning result as a snapshot.
    pub fn capture(result: &PlanResult, inventory: &Inventory) -> PlanSnapshot {
        let assignments = result
            .schedule
            .assignments
            .iter()
            .map(|(&id, slot)| (inventory.record(id).name.clone(), slot.0))
            .collect();
        let mut leftovers: Vec<String> = result
            .schedule
            .leftovers
            .iter()
            .map(|&id| inventory.record(id).name.clone())
            .collect();
        leftovers.sort_unstable();
        PlanSnapshot {
            backend: result.backend.name().to_string(),
            outcome: format!("{:?}", result.outcome),
            assignments,
            leftovers,
        }
    }

    /// Serialize to the `cornet-plan/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::spaced(&mut out);
        w.begin_object();
        w.line(2).key("schema").str(PLAN_SCHEMA);
        w.line(2).key("backend").str(&self.backend);
        w.line(2).key("outcome").str(&self.outcome);
        w.line(2).key("assignments").begin_array();
        for (name, slot) in &self.assignments {
            w.line(4).begin_object();
            w.key("node").str(name).key("slot").int(*slot);
            w.end_object();
        }
        if !self.assignments.is_empty() {
            w.line(2);
        }
        w.end_array();
        w.line(2).key("leftovers").begin_array();
        for name in &self.leftovers {
            w.str(name);
        }
        w.end_array();
        w.line(0).end_object();
        out.push('\n');
        out
    }

    /// Parse a `cornet-plan/v1` JSON document.
    pub fn from_json(input: &str) -> Result<PlanSnapshot> {
        let doc = parse(input)?;
        let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != PLAN_SCHEMA {
            return Err(CornetError::Parse(format!(
                "unsupported plan schema {schema:?} (expected {PLAN_SCHEMA:?})"
            )));
        }
        let str_of = |v: &JsonValue, what: &str| -> Result<String> {
            v.as_str().map(str::to_string).ok_or_else(|| {
                CornetError::Parse(format!("plan snapshot: {what} must be a string"))
            })
        };
        let mut assignments = Vec::new();
        if let Some(JsonValue::Array(items)) = doc.get("assignments") {
            for item in items {
                let node = item
                    .get("node")
                    .ok_or_else(|| CornetError::Parse("assignment missing \"node\"".into()))?;
                let slot = item
                    .get("slot")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| CornetError::Parse("assignment missing \"slot\"".into()))?;
                assignments.push((str_of(node, "node")?, slot as u32));
            }
        }
        let mut leftovers = Vec::new();
        if let Some(JsonValue::Array(items)) = doc.get("leftovers") {
            for item in items {
                leftovers.push(str_of(item, "leftover")?);
            }
        }
        Ok(PlanSnapshot {
            backend: doc
                .get("backend")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string(),
            outcome: doc
                .get("outcome")
                .and_then(JsonValue::as_str)
                .unwrap_or("Unknown")
                .to_string(),
            assignments,
            leftovers,
        })
    }
}

/// Diff between a prior plan and the current planning scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanDelta {
    /// Units whose prior assignment carries over unchanged.
    pub matched: usize,
    /// Units present in the current scope with no prior assignment.
    pub new_units: usize,
    /// Units whose prior assignment no longer applies (slot outside the
    /// window, members disagree, or partially covered by the snapshot).
    pub changed: usize,
    /// Snapshot nodes that left the current scope entirely.
    pub removed_nodes: usize,
}

impl PlanDelta {
    /// True when the current scope is exactly the snapshotted plan.
    pub fn is_empty(&self) -> bool {
        self.new_units == 0 && self.changed == 0 && self.removed_nodes == 0
    }
}

/// Warm-start handle: per-variable value hints from a prior plan, plus
/// the delta that produced them.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// Hinted value per model variable ([`WarmStartHint::NO_HINT`] where
    /// the prior plan has nothing to offer).
    pub values: Vec<i64>,
    /// The intent/inventory diff behind the hints.
    pub delta: PlanDelta,
}

impl WarmStart {
    /// Diff a snapshot against the current translation and build hints.
    ///
    /// A unit is hinted only when *all* its member nodes agree on a prior
    /// slot that still exists in the current window (or were all left
    /// unscheduled, hinted as value 0). Everything else — new units,
    /// moved windows, split consistency groups — is left unhinted and
    /// re-searched.
    pub fn build(
        snapshot: &PlanSnapshot,
        translation: &Translation,
        inventory: &Inventory,
    ) -> WarmStart {
        // Slot index → model value under the *current* window.
        let slot_value: BTreeMap<u32, i64> = translation
            .slots
            .iter()
            .enumerate()
            .map(|(k, slot)| (slot.0, (k + 1) as i64))
            .collect();
        // Node name → prior hint; None marks a slot the current window no
        // longer contains (forces a re-search of that unit).
        let mut prior: BTreeMap<&str, Option<i64>> = BTreeMap::new();
        for (name, slot) in &snapshot.assignments {
            prior.insert(name.as_str(), slot_value.get(slot).copied());
        }
        for name in &snapshot.leftovers {
            prior.insert(name.as_str(), Some(0));
        }

        let mut values = vec![WarmStartHint::NO_HINT; translation.model.var_count()];
        let mut delta = PlanDelta::default();
        let mut seen: usize = 0;
        for unit in &translation.units {
            let hints: Vec<Option<&Option<i64>>> = unit
                .nodes
                .iter()
                .map(|&id| prior.get(inventory.record(id).name.as_str()))
                .collect();
            seen += hints.iter().filter(|h| h.is_some()).count();
            if hints.iter().all(Option::is_none) {
                delta.new_units += 1;
                continue;
            }
            let first = hints[0].copied().flatten();
            let agreed = first.is_some() && hints.iter().all(|h| h.copied().flatten() == first);
            if agreed {
                values[unit.var.index()] = first.expect("agreed hint is present");
                delta.matched += 1;
            } else {
                delta.changed += 1;
            }
        }
        delta.removed_nodes = prior.len().saturating_sub(seen);
        WarmStart { values, delta }
    }

    /// Number of hinted variables.
    pub fn hinted(&self) -> usize {
        self.values
            .iter()
            .filter(|&&v| v != WarmStartHint::NO_HINT)
            .count()
    }

    /// Fraction of current variables covered by the prior plan — the
    /// warm-start reuse ratio reported on plan spans.
    pub fn reuse_ratio(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.hinted() as f64 / self.values.len() as f64
        }
    }

    /// Restrict the hints to a sub-problem over `vars` (decomposed parts
    /// and shards index their own dense variable space).
    pub fn slice(&self, vars: &[usize]) -> WarmStart {
        let values: Vec<i64> = vars.iter().map(|&v| self.values[v]).collect();
        let matched = values
            .iter()
            .filter(|&&v| v != WarmStartHint::NO_HINT)
            .count();
        let changed = values.len() - matched;
        WarmStart {
            values,
            delta: PlanDelta {
                matched,
                changed,
                ..PlanDelta::default()
            },
        }
    }

    /// Solver-level hint: seed the incumbent and pin matched units so
    /// only the delta is searched.
    pub fn hint(&self) -> WarmStartHint {
        WarmStartHint::pinned(self.values.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::PlanIntent;
    use crate::plan::{plan, PlanOptions};
    use cornet_types::{Attributes, NfType, NodeId, Topology};

    fn inventory(n: usize) -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..n {
            let market = if i % 2 == 0 { "NYC" } else { "DFW" };
            let tz = if i % 2 == 0 { -5.0 } else { -6.0 };
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz),
            );
        }
        inv
    }

    fn intent(cap: i64) -> PlanIntent {
        PlanIntent::from_json(&format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-10 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {{"name": "concurrency", "base_attribute": "common_id",
                  "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
                  "default_capacity": {cap}}}
            ]
        }}"#
        ))
        .unwrap()
    }

    fn translation_for(inv: &Inventory, cap: i64) -> Translation {
        let nodes: Vec<NodeId> = inv.ids().collect();
        crate::translate::translate(
            &intent(cap),
            inv,
            &Topology::with_capacity(nodes.len()),
            &nodes,
            &crate::translate::TranslateOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let inv = inventory(6);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let r = plan(
            &intent(2),
            &inv,
            &Topology::with_capacity(6),
            &nodes,
            &PlanOptions::default(),
        )
        .unwrap();
        let snap = PlanSnapshot::capture(&r, &inv);
        assert_eq!(snap.assignments.len(), 6);
        let parsed = PlanSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_delta_hints_every_unit() {
        let inv = inventory(6);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let r = plan(
            &intent(2),
            &inv,
            &Topology::with_capacity(6),
            &nodes,
            &PlanOptions::default(),
        )
        .unwrap();
        let snap = PlanSnapshot::capture(&r, &inv);
        let t = translation_for(&inv, 2);
        let ws = WarmStart::build(&snap, &t, &inv);
        assert!(
            ws.delta.is_empty(),
            "same scope → empty delta: {:?}",
            ws.delta
        );
        assert_eq!(ws.hinted(), t.model.var_count());
        assert!((ws.reuse_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grown_inventory_marks_new_units() {
        let small = inventory(6);
        let nodes: Vec<NodeId> = small.ids().collect();
        let r = plan(
            &intent(2),
            &small,
            &Topology::with_capacity(6),
            &nodes,
            &PlanOptions::default(),
        )
        .unwrap();
        let snap = PlanSnapshot::capture(&r, &small);
        // Re-plan over a larger inventory: 2 extra nodes are new units.
        let big = inventory(8);
        let t = translation_for(&big, 2);
        let ws = WarmStart::build(&snap, &t, &big);
        assert_eq!(ws.delta.matched, 6);
        assert_eq!(ws.delta.new_units, 2);
        assert!(!ws.delta.is_empty());
        assert!(ws.reuse_ratio() > 0.7 && ws.reuse_ratio() < 0.8);
    }

    #[test]
    fn shrunk_inventory_counts_removed_nodes() {
        let big = inventory(8);
        let nodes: Vec<NodeId> = big.ids().collect();
        let r = plan(
            &intent(2),
            &big,
            &Topology::with_capacity(8),
            &nodes,
            &PlanOptions::default(),
        )
        .unwrap();
        let snap = PlanSnapshot::capture(&r, &big);
        let small = inventory(6);
        let t = translation_for(&small, 2);
        let ws = WarmStart::build(&snap, &t, &small);
        assert_eq!(ws.delta.removed_nodes, 2);
        assert!(!ws.delta.is_empty());
    }

    #[test]
    fn slice_projects_hints_onto_sub_vars() {
        let ws = WarmStart {
            values: vec![3, WarmStartHint::NO_HINT, 5, 7],
            delta: PlanDelta::default(),
        };
        let sub = ws.slice(&[2, 1]);
        assert_eq!(sub.values, vec![5, WarmStartHint::NO_HINT]);
        assert_eq!(sub.delta.matched, 1);
        assert_eq!(sub.delta.changed, 1);
    }
}
