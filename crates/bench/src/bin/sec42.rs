//! §4.2: change schedule planner evaluation.
//!
//! (a) discovery time grows with instance count (200 → 1000 eNodeBs);
//! (b) localize/uniformity dramatically increase discovery time;
//! (c) consistency shrinks the model ≈4× and speeds discovery;
//! and the generic-solver vs custom-heuristic makespan gap (≈7% in the
//! paper).
//!
//! This binary prints a compact sweep; the full statistical version runs
//! under Criterion (`--bench planner_scaling`).

use cornet_bench::{
    add_composition, base_intent, composition_name, header, ran_nodes, ran_with, row,
};
use cornet_planner::{heuristic_schedule, plan, HeuristicConfig, PlanOptions};
use cornet_solver::SolverConfig;
use cornet_types::ConflictTable;
use std::time::Duration;

/// Per-EMS concurrency capacity shared by the intent and the heuristic's
/// equivalent slot budget.
const EMS_CAPACITY: i64 = 25;

fn options() -> PlanOptions {
    PlanOptions {
        solver: SolverConfig {
            max_nodes: 150_000,
            time_limit: Duration::from_secs(4),
            ..Default::default()
        },
        ..Default::default()
    }
}

fn main() {
    // --- (a) instance scaling, fixed composition (consistency).
    // "Discovery time" is time-to-best-schedule: the CP search keeps
    // improving until the budget, but the incumbent stabilizes much
    // earlier — that is the moment the schedule is discovered.
    println!("§4.2(a) — discovery time vs instance count (composition: consistency)\n");
    header(&[
        "nodes",
        "model vars",
        "time to best schedule",
        "makespan",
        "outcome",
    ]);
    for target in [200, 400, 600, 800, 1000] {
        let net = ran_with(7, target);
        let nodes = ran_nodes(&net);
        let mut intent = base_intent(EMS_CAPACITY);
        add_composition(&mut intent, 1);
        let r = plan(&intent, &net.inventory, &net.topology, &nodes, &options()).unwrap();
        row(&[
            nodes.len().to_string(),
            r.model_stats.vars.to_string(),
            format!("{:?}", r.search_stats.time_to_best),
            r.makespan().to_string(),
            format!("{:?}", r.outcome),
        ]);
    }

    // --- (b) composition sweep, solved to proven optimality at a size
    // where that is possible — localize/uniformity force the solver to
    // search orderings, which is where the paper observes the dramatic
    // slowdown. Two changes a day per EMS: at four the 15 nodes never
    // contend and every composition is one dive.
    println!("\n§4.2(b) — time to proven optimum vs composition (15 nodes, 2 per EMS per day)\n");
    header(&[
        "composition",
        "vars",
        "search nodes",
        "time to optimum",
        "outcome",
    ]);
    let small = cornet_netsim::Network::generate_ran(&cornet_netsim::NetworkConfig {
        markets_per_tz: 1,
        tacs_per_market: 1,
        usids_per_tac: 3,
        ..Default::default()
    });
    let small_nodes = ran_nodes(&small);
    for mask in [0u32, 1, 2, 4, 3, 5, 6, 7] {
        let mut intent = base_intent(2);
        add_composition(&mut intent, mask);
        let opts = PlanOptions {
            solver: SolverConfig {
                max_nodes: 5_000_000,
                time_limit: Duration::from_secs(20),
                ..Default::default()
            },
            ..Default::default()
        };
        let r = plan(
            &intent,
            &small.inventory,
            &small.topology,
            &small_nodes,
            &opts,
        )
        .unwrap();
        row(&[
            composition_name(mask),
            r.model_stats.vars.to_string(),
            r.search_stats.nodes.to_string(),
            format!("{:?}", r.discovery_time),
            format!("{:?}", r.outcome),
        ]);
    }
    let net = ran_with(7, 400);
    let nodes = ran_nodes(&net);

    // --- (c) consistency contraction factor.
    println!("\n§4.2(c) — consistency contraction (400 nodes)\n");
    let mut with = base_intent(EMS_CAPACITY);
    add_composition(&mut with, 1);
    let contracted = plan(&with, &net.inventory, &net.topology, &nodes, &options()).unwrap();
    let expanded = plan(
        &with,
        &net.inventory,
        &net.topology,
        &nodes,
        &PlanOptions {
            translate: cornet_planner::TranslateOptions {
                contract_consistency: false,
                ..Default::default()
            },
            ..options()
        },
    )
    .unwrap();
    println!(
        "contracted: {} vars, best at {:?}   expanded: {} vars, best at {:?}",
        contracted.model_stats.vars,
        contracted.search_stats.time_to_best,
        expanded.model_stats.vars,
        expanded.search_stats.time_to_best,
    );
    println!("(paper: 4× reduction in discovery time with consistency)");

    // --- generic solver vs custom heuristic makespan.
    println!("\n§4.2 — generic CORNET solver vs Appendix C heuristic (makespan)\n");
    header(&[
        "nodes",
        "solver makespan",
        "heuristic makespan",
        "solver overhead",
    ]);
    for target in [200, 600, 1000] {
        let net = ran_with(11, target);
        let nodes = ran_nodes(&net);
        let mut intent = base_intent(EMS_CAPACITY);
        add_composition(&mut intent, 1);
        let generic = plan(&intent, &net.inventory, &net.topology, &nodes, &options()).unwrap();
        // The heuristic gets the equivalent instance: same window, slot
        // capacity equal to total per-slot EMS budget.
        let ems_count = net.inventory.distinct_values("ems").len() as i64;
        let hs = heuristic_schedule(
            &net.inventory,
            &nodes,
            &ConflictTable::new(),
            &intent.window().unwrap(),
            &HeuristicConfig {
                slot_capacity: EMS_CAPACITY * ems_count,
                iterations: 8,
                seed: 5,
            },
        );
        let sm = generic.makespan() as f64;
        let hm = hs.makespan().map(|s| s.0).unwrap_or(0) as f64;
        row(&[
            nodes.len().to_string(),
            format!("{sm}"),
            format!("{hm}"),
            format!("{:+.0}%", (sm - hm) / hm.max(1.0) * 100.0),
        ]);
    }
    println!("\npaper: the generic composition-driven solver costs ≈7% extra makespan");
}
