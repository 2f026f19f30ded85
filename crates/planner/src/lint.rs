//! Intent linting — the §6 "high-level intent completeness" problem.
//!
//! "For new intents, it takes some level of mathematical sophistication to
//! translate network operator's intent … and guarantee that they indeed
//! capture network operators' intent." The linter closes part of that gap
//! mechanically: before translation it checks an intent against the
//! inventory for contradictions, vacuous rules, and capacity shortfalls
//! that would otherwise surface as mysterious infeasibility or silently
//! empty schedules, and explains each finding in operator language.
//!
//! The checks are `cornet-analysis` passes emitting `CN04xx` diagnostics;
//! [`analyze_intent`] returns them as a [`Report`].

use crate::decompose::shard_groups;
use crate::intent::{ConstraintRule, PlanIntent};
use cornet_analysis::{Code, Diagnostic, Report, SourceRef};
use cornet_types::{Inventory, NodeId, Result};

/// Scope size below which a single timezone/market shard is normal and
/// `CN0419` stays quiet.
const SHARD_SCOPE_THRESHOLD: usize = 256;

/// Most nodes one timezone/market shard should hold before `CN0418` flags
/// it as dominating the sharded wall-clock.
const MAX_SHARD_NODES: usize = 50_000;

/// Analyze an intent against the inventory and node scope, emitting
/// `CN04xx` diagnostics anchored to the offending rule.
pub fn analyze_intent(
    intent: &PlanIntent,
    inventory: &Inventory,
    nodes: &[NodeId],
) -> Result<Report> {
    let mut report = Report::new();
    let window = intent.window()?;
    let usable = window.usable_slots();

    // --- window sanity.
    if usable.is_empty() {
        report.push(Diagnostic::error(
            Code("CN0401"),
            SourceRef::Intent,
            "every slot of the scheduling window falls inside an excluded period",
        ));
    } else if usable.len() < window.raw_slot_count() as usize / 2 {
        report.push(Diagnostic::warning(
            Code("CN0402"),
            SourceRef::Intent,
            format!(
                "only {} of {} slots are usable after exclusions",
                usable.len(),
                window.raw_slot_count()
            ),
        ));
    }
    if window.maintenance.duration_minutes() == 0 {
        report.push(Diagnostic::error(
            Code("CN0403"),
            SourceRef::Intent,
            "the maintenance window has zero duration; no change can execute",
        ));
    }

    // --- rule-by-rule checks.
    let mut total_capacity_per_slot: Option<i64> = None;
    let mut has_capacity_rule = false;
    let mut largest_consistency_group = 0usize;
    let mut consistency_attr = String::new();

    for rule in &intent.constraints {
        match rule {
            ConstraintRule::Concurrency {
                base_attribute,
                aggregate_attribute,
                granularity,
                default_capacity,
                ..
            } => {
                let anchor = SourceRef::Rule {
                    rule: format!("concurrency[{base_attribute}]"),
                };
                has_capacity_rule = true;
                if *default_capacity <= 0 {
                    report.push(Diagnostic::error(
                        Code("CN0404"),
                        anchor.clone(),
                        format!(
                            "concurrency on '{base_attribute}' has capacity {default_capacity}; nothing can be scheduled"
                        ),
                    ));
                }
                if granularity.minutes() < window.granularity.minutes() {
                    report.push(Diagnostic::warning(
                        Code("CN0405"),
                        anchor.clone(),
                        format!(
                            "concurrency granularity ({} min) is finer than the timeslot ({} min); it will be applied per slot",
                            granularity.minutes(),
                            window.granularity.minutes()
                        ),
                    ));
                }
                let check_attr = |attr: &str, report: &mut Report| {
                    if attr != "common_id"
                        && inventory.group_ids(nodes, attr).count == 0
                        && !nodes.is_empty()
                    {
                        report.push(Diagnostic::error(
                            Code("CN0406"),
                            anchor.clone(),
                            format!("attribute '{attr}' is absent from every node in scope"),
                        ));
                    }
                };
                check_attr(base_attribute, &mut report);
                if let Some(agg) = aggregate_attribute {
                    check_attr(agg, &mut report);
                }
                // Estimate total per-slot throughput for the shortfall check.
                let slots_per_granule =
                    (granularity.minutes() / window.granularity.minutes()).max(1) as i64;
                // Round the per-slot throughput UP: a weekly cap of 5 over
                // daily slots still admits up to 5 in some single slot, and
                // flooring to 0 would raise false shortfall errors.
                let per_slot = if base_attribute == &intent.schedulable_attribute {
                    match aggregate_attribute {
                        Some(agg) => {
                            let groups = inventory.group_ids(nodes, agg).count.max(1);
                            ((default_capacity + slots_per_granule - 1) / slots_per_granule)
                                * groups as i64
                        }
                        None => (default_capacity + slots_per_granule - 1) / slots_per_granule,
                    }
                } else {
                    i64::MAX // distinct-group caps don't bound node throughput directly
                };
                total_capacity_per_slot = Some(match total_capacity_per_slot {
                    Some(c) => c.min(per_slot),
                    None => per_slot,
                });
            }
            ConstraintRule::Consistency { attribute } => {
                let anchor = SourceRef::Rule {
                    rule: format!("consistency[{attribute}]"),
                };
                let groups = inventory.group_ids(nodes, attribute);
                if groups.count == 0 && !nodes.is_empty() {
                    report.push(Diagnostic::error(
                        Code("CN0406"),
                        anchor,
                        format!("consistency attribute '{attribute}' is absent from the scope"),
                    ));
                } else {
                    let largest = groups.sizes().into_iter().max().unwrap_or(0);
                    if largest > largest_consistency_group {
                        largest_consistency_group = largest;
                        consistency_attr = attribute.clone();
                    }
                    if groups.count == nodes.len() {
                        report.push(Diagnostic::warning(
                            Code("CN0407"),
                            anchor,
                            format!(
                                "every node has a distinct '{attribute}'; the consistency rule groups nothing"
                            ),
                        ));
                    }
                }
            }
            ConstraintRule::Uniformity { attribute, value } => {
                let anchor = SourceRef::Rule {
                    rule: format!("uniformity[{attribute}]"),
                };
                // Sample evenly across the scope — node ids are often
                // sorted by geography, so a prefix sample would see one
                // timezone only.
                let stride = (nodes.len() / 64).max(1);
                let vals: Vec<f64> = nodes
                    .iter()
                    .step_by(stride)
                    .filter_map(|&n| inventory.attr_of(n, attribute).and_then(|v| v.as_f64()))
                    .collect();
                if vals.is_empty() && !nodes.is_empty() {
                    report.push(Diagnostic::error(
                        Code("CN0408"),
                        anchor,
                        format!(
                            "uniformity needs a numeric attribute; '{attribute}' is categorical or absent"
                        ),
                    ));
                } else if *value < 0.0 {
                    report.push(Diagnostic::error(
                        Code("CN0409"),
                        anchor,
                        format!("uniformity distance {value} is negative"),
                    ));
                } else if !vals.is_empty() {
                    let (lo, hi) = vals
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(l, h), v| (l.min(*v), h.max(*v)));
                    if hi - lo <= *value {
                        report.push(Diagnostic::warning(
                            Code("CN0410"),
                            anchor,
                            format!(
                                "all '{attribute}' values span {:.2} ≤ allowed {value}; the rule constrains nothing",
                                hi - lo
                            ),
                        ));
                    }
                }
            }
            ConstraintRule::Localize { attribute } => {
                let anchor = SourceRef::Rule {
                    rule: format!("localize[{attribute}]"),
                };
                let groups = inventory.group_ids(nodes, attribute);
                if groups.count == 0 && !nodes.is_empty() {
                    report.push(Diagnostic::error(
                        Code("CN0406"),
                        anchor,
                        format!("localize attribute '{attribute}' is absent from the scope"),
                    ));
                } else if groups.count <= 1 {
                    report.push(Diagnostic::warning(
                        Code("CN0411"),
                        anchor,
                        format!(
                            "scope has {} group(s) of '{attribute}'; localize needs at least two to matter",
                            groups.count
                        ),
                    ));
                }
            }
            ConstraintRule::ConflictHandling { .. } | ConstraintRule::ConflictScope { .. } => {}
        }
    }

    // --- capacity shortfall: can the window even hold the scope?
    if let Some(per_slot) = total_capacity_per_slot {
        if per_slot != i64::MAX {
            let total = per_slot.saturating_mul(usable.len() as i64);
            if (nodes.len() as i64) > total {
                report.push(Diagnostic::error(
                    Code("CN0412"),
                    SourceRef::Intent,
                    format!(
                        "{} nodes in scope but the window holds at most {} ({} usable slots × {} per slot); expect leftovers",
                        nodes.len(),
                        total,
                        usable.len(),
                        per_slot
                    ),
                ));
            }
            if largest_consistency_group as i64 > per_slot {
                report.push(Diagnostic::error(
                    Code("CN0413"),
                    SourceRef::Rule {
                        rule: format!("consistency[{consistency_attr}]"),
                    },
                    format!(
                        "largest '{consistency_attr}' consistency group has {largest_consistency_group} nodes but per-slot capacity is {per_slot}; the group can never be scheduled together"
                    ),
                ));
            }
        }
    } else if !has_capacity_rule {
        report.push(Diagnostic::warning(
            Code("CN0414"),
            SourceRef::Intent,
            "no concurrency rule: the whole scope may be scheduled into a single slot",
        ));
    }

    // --- frozen elements that match nothing.
    for f in &intent.frozen_elements {
        let matches_any = nodes.iter().any(|&n| {
            f.selector.iter().all(|(key, value)| {
                inventory.group_key_of(n, key).as_deref() == Some(value.as_str())
            }) && !f.selector.is_empty()
        });
        if !matches_any {
            report.push(Diagnostic::warning(
                Code("CN0415"),
                SourceRef::Intent,
                format!("frozen element {:?} matches no node in scope", f.selector),
            ));
        }
    }

    // --- shard shape: will sharded solving actually parallelize?
    // Nodes are keyed as `decompose::shard_translation` keys units.
    {
        let shards = shard_groups(inventory, nodes);
        if shards.len() == 1 && nodes.len() >= SHARD_SCOPE_THRESHOLD {
            let (tz_milli, market) = shards.keys().next().expect("one shard");
            report.push(Diagnostic::warning(
                Code("CN0419"),
                SourceRef::Intent,
                format!(
                    "all {} nodes fall into one timezone/market shard (utc_offset {}, market {:?}); \
                     sharded solving degenerates to a single sequential solve",
                    nodes.len(),
                    *tz_milli as f64 / 1000.0,
                    market
                ),
            ));
        }
        for ((tz_milli, market), positions) in &shards {
            let size = positions.len();
            if size > MAX_SHARD_NODES {
                report.push(Diagnostic::warning(
                    Code("CN0418"),
                    SourceRef::Intent,
                    format!(
                        "timezone/market shard (utc_offset {}, market {:?}) holds {size} nodes, \
                         over the {MAX_SHARD_NODES}-node bound; this shard dominates the sharded \
                         wall-clock",
                        *tz_milli as f64 / 1000.0,
                        market
                    ),
                ));
            }
        }
    }

    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_analysis::Severity;
    use cornet_types::{Attributes, NfType};

    fn inventory() -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..8 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", if i < 4 { "NYC" } else { "DFW" })
                    .with("utc_offset", if i < 4 { -5.0 } else { -6.0 })
                    .with("usid", format!("U{}", i / 2)),
            );
        }
        inv
    }

    fn intent(json_constraints: &str) -> PlanIntent {
        PlanIntent::from_json(&format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-04 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [{json_constraints}]
        }}"#
        ))
        .unwrap()
    }

    fn nodes() -> Vec<NodeId> {
        (0..8).map(NodeId).collect()
    }

    const CAP2: &str = r#"{"name": "concurrency", "base_attribute": "common_id",
        "operator": "<=", "granularity": {"metric": "day", "value": 1},
        "default_capacity": 2}"#;

    #[test]
    fn clean_intent_passes() {
        let it = intent(CAP2);
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn capacity_shortfall_detected() {
        // 8 nodes, 4 slots × capacity 1 = 4 places.
        let it = intent(
            r#"{"name": "concurrency", "base_attribute": "common_id",
                "operator": "<=", "granularity": {"metric": "day", "value": 1},
                "default_capacity": 1}"#,
        );
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.has_errors());
        assert!(r.iter().any(|d| d.code == Code("CN0412")));
    }

    #[test]
    fn consistency_group_exceeding_capacity() {
        let it = intent(&format!(
            r#"{}, {{"name": "consistency", "attribute": "usid"}}"#,
            r#"{"name": "concurrency", "base_attribute": "common_id",
                "operator": "<=", "granularity": {"metric": "day", "value": 1},
                "default_capacity": 1}"#
        ));
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(
            r.iter().any(|d| d.code == Code("CN0413")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn unknown_attribute_is_error() {
        let it = intent(r#"{"name": "localize", "attribute": "region_code"}"#);
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.has_errors());
        assert!(r.iter().any(|d| d.code == Code("CN0406")));
    }

    #[test]
    fn categorical_uniformity_is_error() {
        let it = intent(r#"{"name": "uniformity", "attribute": "market", "value": 1}"#);
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.iter().any(|d| d.code == Code("CN0408")));
    }

    #[test]
    fn vacuous_rules_warn() {
        let it = intent(&format!(
            r#"{CAP2}, {{"name": "uniformity", "attribute": "utc_offset", "value": 10}},
               {{"name": "localize", "attribute": "nf_type"}}"#
        ));
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(!r.has_errors());
        assert!(r.iter().any(|d| d.code == Code("CN0410")));
        assert!(r.iter().any(|d| d.code == Code("CN0411")));
    }

    #[test]
    fn fully_excluded_window_is_error() {
        let mut it = intent(CAP2);
        it.excluded_periods.push(crate::intent::PeriodSpec {
            start: "2020-07-01 00:00:00".into(),
            end: "2020-07-04 23:59:00".into(),
        });
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.iter().any(|d| d.code == Code("CN0401")));
    }

    #[test]
    fn frozen_matching_nothing_warns() {
        let mut it = intent(CAP2);
        it.frozen_elements.push(crate::intent::FrozenElement {
            start: None,
            end: None,
            selector: [("market".to_string(), "SEA".to_string())].into(),
        });
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.iter().any(|d| d.code == Code("CN0415")));
    }

    #[test]
    fn missing_concurrency_warns() {
        let it = intent(r#"{"name": "conflict_handling", "value": "zero-tolerance"}"#);
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(!r.has_errors());
        assert!(r.iter().any(|d| d.code == Code("CN0414")));
    }

    #[test]
    fn errors_sort_before_warnings() {
        let it = intent(&format!(
            r#"{{"name": "uniformity", "attribute": "market", "value": 1}}, {CAP2}"#
        ));
        let mut it = it;
        it.frozen_elements.push(crate::intent::FrozenElement {
            start: None,
            end: None,
            selector: [("market".to_string(), "SEA".to_string())].into(),
        });
        let r = analyze_intent(&it, &inventory(), &nodes()).unwrap();
        assert!(r.diagnostics.len() >= 2);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
    }

    fn mono_market_inventory(n: usize) -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..n {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", "NYC")
                    .with("utc_offset", -5.0),
            );
        }
        inv
    }

    #[test]
    fn single_mega_shard_warns_at_scale() {
        let inv = mono_market_inventory(300);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let it = intent(&CAP2.replace("\"default_capacity\": 2", "\"default_capacity\": 100"));
        let r = analyze_intent(&it, &inv, &nodes).unwrap();
        assert!(
            r.iter().any(|d| d.code == Code("CN0419")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn small_single_market_scope_is_not_flagged() {
        let r = analyze_intent(&intent(CAP2), &mono_market_inventory(8), &nodes()).unwrap();
        assert!(!r.iter().any(|d| d.code == Code("CN0419")));
    }

    #[test]
    fn oversized_shard_warns_past_the_bound() {
        // Two markets, one just past MAX_SHARD_NODES and one exactly at
        // it: only the first is flagged (the bound is inclusive) while the
        // scope still parallelizes.
        let big = MAX_SHARD_NODES + 1;
        let mut inv = Inventory::new();
        for i in 0..big + MAX_SHARD_NODES {
            let (market, tz) = if i < big {
                ("NYC", -5.0)
            } else {
                ("DFW", -6.0)
            };
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz),
            );
        }
        let nodes: Vec<NodeId> = inv.ids().collect();
        let it = intent(&CAP2.replace("\"default_capacity\": 2", "\"default_capacity\": 100"));
        let report = analyze_intent(&it, &inv, &nodes).unwrap();
        let flagged: Vec<_> = report.iter().filter(|d| d.code == Code("CN0418")).collect();
        assert_eq!(flagged.len(), 1, "only the NYC shard is over bound");
        assert!(flagged[0].message.contains(&format!("{big} nodes")));
        assert!(flagged[0].message.contains("50000-node bound"));
    }
}
