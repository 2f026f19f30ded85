//! Units built in one flat table against the merge they replaced: ESA
//! grouping into a `Vec<Vec<NodeId>>` and consistency contraction by
//! `extend`, kept here as the oracle. Random inventories — missing and
//! repeated attribute values, an ESA other than `common_id`, up to three
//! consistency rules (one attribute possibly twice), fully frozen nodes,
//! the ablation path — must give the same units, in the same order, with
//! the same members, and the same MiniZinc text.
//!
//! The suite runs the default case count, so CI raises it with
//! `PROPTEST_CASES`.

use super::*;
use crate::intent::FrozenElement;
use cornet_types::inventory::AttributeGroups;
use cornet_types::{Attributes, Granularity, NfType};
use proptest::prelude::*;

/// Node positions of each group.
fn members(groups: &AttributeGroups) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); groups.group_count()];
    for (pos, g) in groups.membership.iter().enumerate() {
        if let Some(g) = g {
            out[*g].push(pos);
        }
    }
    out
}

/// ESA grouping and consistency contraction as `translate` did them
/// before the unit table: the units, and the equality groups of the
/// ablation path.
type Merged = (Vec<Vec<NodeId>>, Vec<Vec<usize>>);

fn units_by_merge(
    intent: &PlanIntent,
    inventory: &Inventory,
    active: &[NodeId],
    options: &TranslateOptions,
) -> Option<Merged> {
    let mut unit_nodes: Vec<Vec<NodeId>> = if intent.schedulable_attribute == "common_id" {
        active.iter().map(|&n| vec![n]).collect()
    } else {
        let groups = inventory.group_by(active, &intent.schedulable_attribute);
        if groups.group_count() == 0 && !active.is_empty() {
            return None;
        }
        members(&groups)
            .into_iter()
            .map(|positions| positions.into_iter().map(|p| active[p]).collect())
            .collect()
    };
    let mut same_value_groups: Vec<Vec<usize>> = Vec::new();
    for rule in &intent.constraints {
        if let ConstraintRule::Consistency { attribute } = rule {
            let firsts: Vec<NodeId> = unit_nodes.iter().map(|u| u[0]).collect();
            let groups = inventory.group_by(&firsts, attribute);
            if options.contract_consistency {
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
                for positions in members(&groups) {
                    if positions.len() > 1 {
                        same_value_groups.push(positions);
                    }
                }
            }
        }
    }
    Some((unit_nodes, same_value_groups))
}

const SLOTS: u32 = 5;

/// The model `translate` makes of `units` under an intent of ESA
/// concurrency and consistency rules, without tickets.
fn model_of(intent: &PlanIntent, (units, same_value): &Merged, capacity: i64) -> Model {
    let esa = &intent.schedulable_attribute;
    let weights: Vec<i64> = units.iter().map(|u| u.len() as i64).collect();
    let mut b = ModelBuilder::new(format!("cornet_plan_{esa}"), SLOTS);
    let vars = b.slot_vars("COMMON_ID_SCHEDULED", units.len());
    for positions in same_value {
        b.same_value("consistency", positions.iter().map(|&p| vars[p]).collect());
    }
    let label = format!("concurrency[{esa}]");
    b.capacity(label, vars.clone(), weights.clone(), capacity);
    b.completion_objective(&vars, &weights, 2 * SLOTS as i64);
    b.build()
}

/// Splitmix64 over a proptest-drawn seed.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Co-sited runs of nodes share a USID; any attribute may be missing, and
/// `pool` spells one group key as a string and as an integer.
fn inventory(d: &mut Dice) -> Inventory {
    let mut inv = Inventory::new();
    let mut usid = 0;
    for i in 0..d.below(48) {
        if d.below(3) == 0 {
            usid = d.below(12);
        }
        let mut attrs = Attributes::new();
        if d.below(6) > 0 {
            attrs.set("usid", format!("U{usid}"));
        }
        if d.below(5) > 0 {
            attrs.set("market", format!("M{}", d.below(4)));
        }
        if d.below(4) > 0 {
            attrs.set("tac", (usid / 3) as i64);
        }
        match d.below(4) {
            0 => attrs.set("pool", "5"),
            1 => attrs.set("pool", 5i64),
            2 => attrs.set("pool", "P"),
            _ => &mut attrs,
        };
        inv.push(format!("n{i}"), NfType::ENodeB, attrs);
    }
    inv
}

/// An ESA, capacity on it, up to three consistency rules and two
/// full-window freezes; returns the capacity too.
fn intent(d: &mut Dice) -> (PlanIntent, i64) {
    let mut intent = PlanIntent::from_json(
        r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-07-05 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": []
    }"#,
    )
    .unwrap();
    let esa = d.pick(&["common_id", "common_id", "market", "pool", "tac"]);
    let capacity = 1 + d.below(6) as i64;
    intent.schedulable_attribute = esa.into();
    intent.constraints.push(ConstraintRule::Concurrency {
        base_attribute: esa.into(),
        aggregate_attribute: None,
        operator: "<=".into(),
        granularity: Granularity::daily(),
        default_capacity: capacity,
    });
    for _ in 0..d.below(4) {
        let attribute = d.pick(&["usid", "usid", "market", "tac", "pool", "absent"]);
        let attribute = attribute.into();
        intent
            .constraints
            .push(ConstraintRule::Consistency { attribute });
    }
    for _ in 0..d.below(3) {
        let (key, value) = [("market", "M1"), ("usid", "U3"), ("pool", "5")][d.below(3)];
        intent.frozen_elements.push(FrozenElement {
            start: None,
            end: None,
            selector: [(key.to_string(), value.to_string())].into(),
        });
    }
    (intent, capacity)
}

proptest! {
    #[test]
    fn the_unit_table_is_the_merge(seed in any::<u64>()) {
        let d = &mut Dice(seed);
        let inv = inventory(d);
        let nodes: Vec<NodeId> = match inv.len() {
            0 => Vec::new(),
            len if d.below(2) == 0 => (0..len as u32).map(NodeId).collect(),
            // A subset in any order, with repeats.
            len => (0..d.below(2 * len)).map(|_| NodeId(d.below(len) as u32)).collect(),
        };
        let (intent, capacity) = intent(d);
        let options = TranslateOptions {
            contract_consistency: d.below(3) > 0,
            ..TranslateOptions::default()
        };
        // Freezing, which this suite does not replace, decides `active`.
        let frozen = |n: NodeId| {
            intent.frozen_elements.iter().any(|f| {
                let (key, value) = f.selector.iter().next().unwrap();
                inv.group_key_of(n, key).as_ref() == Some(value)
            })
        };
        let active: Vec<NodeId> = nodes.iter().copied().filter(|&n| !frozen(n)).collect();
        let topology = Topology::with_capacity(inv.len());
        let got = translate(&intent, &inv, &topology, &nodes, &options);
        match (got, units_by_merge(&intent, &inv, &active, &options)) {
            (Ok(t), Some(merged)) => {
                let units: Vec<Vec<NodeId>> = t.units.iter().map(|u| u.nodes.clone()).collect();
                prop_assert_eq!(&units, &merged.0);
                let vars: Vec<usize> = t.units.iter().map(|u| u.var.index()).collect();
                prop_assert_eq!(vars, (0..units.len()).collect::<Vec<_>>());
                prop_assert_eq!(t.frozen_out.len() + active.len(), nodes.len());
                let want = model_of(&intent, &merged, capacity).to_minizinc();
                prop_assert_eq!(t.model.to_minizinc(), want);
            }
            (Err(CornetError::UnknownReference(_)), None) => {}
            (got, want) => prop_assert!(false, "translate {got:?}, merge {want:?}"),
        }
    }
}
