//! 4G/5G RAN schedule planning at two scales:
//!
//! * a few hundred eNodeBs through the *generic* intent → MiniZinc-style
//!   model → CP solver pipeline (§3.3, §4.2), printing the model shape and
//!   an excerpt of the emitted MiniZinc;
//! * tens of thousands of nodes through the Appendix C custom heuristic,
//!   with consistency (co-sited 4G/5G together), timezone sequencing, and
//!   conflict avoidance.
//!
//! Run with: `cargo run --release --example ran_schedule_planning`

use cornet::netsim::{Network, NetworkConfig};
use cornet::planner::intent::ConflictPeriod;
use cornet::planner::{
    plan, translate, BackendChoice, HeuristicConfig, PlanIntent, PlanOptions, TranslateOptions,
};
use cornet::types::{NfType, NodeId};

const INTENT: &str = r#"{
    "scheduling_window": {"start": "2020-07-01 00:00:00",
                           "end": "2020-07-28 23:59:00",
                           "granularity": {"metric": "day", "value": 1}},
    "maintenance_window": {"start": "0:00", "end": "6:00"},
    "excluded_periods": [
        {"start": "2020-07-04 00:00:00", "end": "2020-07-05 23:59:00"}
    ],
    "schedulable_attribute": "common_id",
    "conflict_attribute": "common_id",
    "constraints": [
        {"name": "conflict_handling", "value": "zero-tolerance"},
        {"name": "concurrency", "base_attribute": "common_id",
         "aggregate_attribute": "ems", "operator": "<=",
         "granularity": {"metric": "day", "value": 1},
         "default_capacity": 12},
        {"name": "consistency", "attribute": "usid"},
        {"name": "uniformity", "attribute": "utc_offset", "value": 1}
    ]
}"#;

fn ran_nodes(net: &Network) -> Vec<NodeId> {
    let mut nodes = net.nodes_of_type(NfType::ENodeB);
    nodes.extend(net.nodes_of_type(NfType::GNodeB));
    nodes.sort();
    nodes
}

fn main() {
    // ---------- generic pipeline on a few hundred nodes ----------
    let small = Network::generate_ran(&NetworkConfig {
        markets_per_tz: 1,
        tacs_per_market: 3,
        usids_per_tac: 8,
        ..Default::default()
    });
    let nodes = ran_nodes(&small);
    println!("=== generic solver pipeline: {} RAN nodes ===", nodes.len());

    let intent = PlanIntent::from_json(INTENT).expect("intent parses");
    let translation = translate(
        &intent,
        &small.inventory,
        &small.topology,
        &nodes,
        &TranslateOptions::default(),
    )
    .expect("intent translates");
    let stats = translation.model.stats();
    println!(
        "model: {} vars (after consistency contraction from {} nodes), {} constraints {:?}",
        stats.vars,
        nodes.len(),
        stats.constraints,
        stats.by_kind
    );
    let mzn = translation.model.to_minizinc();
    println!("\nMiniZinc excerpt ({} lines total):", mzn.lines().count());
    for line in mzn.lines().take(8) {
        println!("  {line}");
    }
    println!("  ...");

    let options = PlanOptions {
        solver: cornet::solver::SolverConfig {
            time_limit: std::time::Duration::from_secs(5),
            ..Default::default()
        },
        ..Default::default()
    };
    let result =
        plan(&intent, &small.inventory, &small.topology, &nodes, &options).expect("plan found");
    println!(
        "\nschedule: {} nodes over {} slots (makespan), {:?} ({} search nodes, {:?})",
        result.schedule.scheduled_count(),
        result.makespan(),
        result.outcome,
        result.search_stats.nodes,
        result.discovery_time,
    );

    // Same intent through the racing portfolio: exact and the heuristic
    // compete; the winner is deterministic (best cost, fixed tie-break
    // order — never wall-clock).
    let portfolio = plan(
        &intent,
        &small.inventory,
        &small.topology,
        &nodes,
        &PlanOptions {
            backend: BackendChoice::Portfolio,
            ..options.clone()
        },
    )
    .expect("portfolio plan found");
    println!("\nportfolio race on the same intent:");
    for run in &portfolio.backend_runs {
        println!(
            "  {}{}: {:?}, cost {}, in {:?}",
            run.backend,
            if run.winner { " (winner)" } else { "" },
            run.outcome,
            run.cost.map_or_else(|| "-".into(), |c| c.to_string()),
            run.stats.elapsed,
        );
    }

    // ---------- Appendix C heuristic at 20K+ nodes, via plan() ----------
    let big = Network::generate_ran(&NetworkConfig::default().with_target_nodes(20_000));
    let big_nodes = ran_nodes(&big);
    println!(
        "\n=== Appendix C heuristic backend: {} RAN nodes ===",
        big_nodes.len()
    );

    // Busy periods for a slice of nodes (ticketed work elsewhere), fed
    // through the intent's conflict table like any production run.
    let mut big_intent = intent.clone();
    for &n in big_nodes.iter().step_by(37) {
        big_intent.conflict_table.insert(
            n.to_string(),
            vec![ConflictPeriod {
                start: "2020-07-02 00:00:00".into(),
                end: "2020-07-06 23:59:00".into(),
                tickets: vec![format!("CHG-{n}")],
            }],
        );
    }
    let big_result = plan(
        &big_intent,
        &big.inventory,
        &big.topology,
        &big_nodes,
        &PlanOptions {
            backend: BackendChoice::Heuristic,
            heuristic: HeuristicConfig {
                slot_capacity: 900,
                iterations: 6,
                seed: 4,
            },
            ..Default::default()
        },
    )
    .expect("heuristic plan found");
    let schedule = &big_result.schedule;
    println!(
        "heuristic: {} scheduled, {} leftovers, {} conflicts, makespan {:?}, wtct {}, in {:?}",
        schedule.scheduled_count(),
        schedule.leftovers.len(),
        schedule.conflicts,
        schedule.makespan().map(|s| s.0).unwrap_or(0),
        schedule.weighted_completion_time(),
        big_result.discovery_time,
    );

    // Per-slot load profile (first 10 slots).
    println!("\nper-slot load (first 10 slots):");
    for slot_idx in 0..10u32 {
        let slot = cornet::types::Timeslot(slot_idx + 1);
        let count = schedule.nodes_in_slot(slot).len();
        println!(
            "  slot {:2}: {:5} nodes  {}",
            slot.0,
            count,
            "#".repeat(count / 25)
        );
    }
}
