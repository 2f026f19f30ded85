//! # cornet-bench
//!
//! Shared workload builders and reporting helpers for the experiment
//! harness. Every table and figure of the paper has a regenerator:
//!
//! * `src/bin/` — one binary per table/figure that prints the same rows
//!   or series the paper reports (`cargo run -p cornet-bench --bin table1`);
//! * `benches/` — Criterion benchmarks for the timing-shaped results
//!   (schedule discovery time, verification time, ablations);
//! * [`events`] — the event-driven composition §3.2 contrasts with
//!   workflows, kept here because only the `orchestrator_modes` bench
//!   runs it.
//!
//! `EXPERIMENTS.md` at the workspace root records paper-reported vs
//! measured values for each experiment.

#![forbid(unsafe_code)]
pub mod events;

use cornet_netsim::{Network, NetworkConfig};
use cornet_planner::{ConstraintRule, PlanIntent};
use cornet_types::{Granularity, NodeId};

/// A RAN sized to approximately `target` nodes, deterministic in `seed`.
pub fn ran_with(seed: u64, target: usize) -> Network {
    let cfg = NetworkConfig {
        seed,
        ..Default::default()
    }
    .with_target_nodes(target);
    Network::generate_ran(&cfg)
}

/// All RAN nodes (eNodeB + gNodeB) of a network, sorted.
pub fn ran_nodes(net: &Network) -> Vec<NodeId> {
    net.ran_nodes()
}

/// The §4.2 base intent: a 60-slot daily window, zero conflict tolerance,
/// concurrency per EMS (the paper fixes 200/EMS; capacity is a knob here).
pub fn base_intent(ems_capacity: i64) -> PlanIntent {
    let mut intent = PlanIntent::from_json(
        r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-08-29 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": []
    }"#,
    )
    .expect("static intent parses");
    intent.constraints = vec![ConstraintRule::Concurrency {
        base_attribute: "common_id".into(),
        aggregate_attribute: Some("ems".into()),
        operator: "<=".into(),
        granularity: Granularity::daily(),
        default_capacity: ems_capacity,
    }];
    intent
}

/// Append the §4.2 composition constraints selected by `mask` bit flags:
/// 1 = consistency(usid), 2 = uniformity(utc_offset ≤ 1), 4 = localize(market).
pub fn add_composition(intent: &mut PlanIntent, mask: u32) {
    if mask & 1 != 0 {
        intent.constraints.push(ConstraintRule::Consistency {
            attribute: "usid".into(),
        });
    }
    if mask & 2 != 0 {
        intent.constraints.push(ConstraintRule::Uniformity {
            attribute: "utc_offset".into(),
            value: 1.0,
        });
    }
    if mask & 4 != 0 {
        intent.constraints.push(ConstraintRule::Localize {
            attribute: "market".into(),
        });
    }
}

/// Composition name for reports.
pub fn composition_name(mask: u32) -> String {
    let mut parts = Vec::new();
    if mask & 1 != 0 {
        parts.push("consistency");
    }
    if mask & 2 != 0 {
        parts.push("uniformity");
    }
    if mask & 4 != 0 {
        parts.push("localize");
    }
    if parts.is_empty() {
        parts.push("base");
    }
    parts.join("+")
}

/// Print a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown-ish header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Render a simple ASCII sparkline bar for a 0..=1 fraction.
pub fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ran_with_hits_target() {
        let net = ran_with(1, 1000);
        let n = ran_nodes(&net).len();
        assert!((800..1600).contains(&n), "{n}");
    }

    #[test]
    fn composition_masks() {
        assert_eq!(composition_name(0), "base");
        assert_eq!(composition_name(7), "consistency+uniformity+localize");
        let mut intent = base_intent(10);
        add_composition(&mut intent, 7);
        assert_eq!(intent.constraints.len(), 4);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(2.0, 4), "####");
    }
}
