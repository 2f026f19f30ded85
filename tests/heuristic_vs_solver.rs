//! Integration test for §3.3.3/§4.2's generic-solver vs custom-heuristic
//! comparison — now run through the *same* pipeline: every strategy is a
//! `SolverBackend` selected via `PlanOptions::backend`, so the comparison
//! exercises the pluggable seam instead of two bespoke call paths. The
//! heuristic must produce schedules whose makespan is within a small
//! factor of the exact solver's (the paper reports ≈7% extra makespan for
//! the generic path; at small scale the exact solver is the reference),
//! while scaling to node counts the solver cannot touch.

use cornet::netsim::{Network, NetworkConfig};
use cornet::planner::{
    heuristic_schedule, plan, BackendChoice, ConstraintRule, HeuristicConfig, PlanIntent,
    PlanOptions,
};
use cornet::types::{ConflictTable, Granularity, NfType, NodeId, SchedulingWindow, SimTime};
use std::time::Instant;

fn ran(usids_per_tac: usize) -> Network {
    Network::generate_ran(&NetworkConfig {
        markets_per_tz: 1,
        tacs_per_market: 2,
        usids_per_tac,
        ..Default::default()
    })
}

fn ran_nodes(net: &Network) -> Vec<NodeId> {
    let mut nodes = net.nodes_of_type(NfType::ENodeB);
    nodes.extend(net.nodes_of_type(NfType::GNodeB));
    nodes.sort();
    nodes
}

fn comparison_intent(capacity: i64) -> PlanIntent {
    let mut intent = PlanIntent::from_json(
        r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-08-09 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": []
    }"#,
    )
    .unwrap();
    intent.constraints = vec![
        ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: None,
            operator: "<=".into(),
            granularity: Granularity::daily(),
            default_capacity: capacity,
        },
        ConstraintRule::Consistency {
            attribute: "usid".into(),
        },
    ];
    intent
}

fn options_for(backend: BackendChoice) -> PlanOptions {
    PlanOptions {
        solver: cornet::solver::SolverConfig {
            time_limit: std::time::Duration::from_secs(5),
            ..Default::default()
        },
        backend,
        heuristic: HeuristicConfig {
            iterations: 8,
            seed: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn heuristic_makespan_close_to_solver_optimum() {
    let net = ran(3);
    let nodes = ran_nodes(&net);
    let intent = comparison_intent(6);

    let exact = plan(
        &intent,
        &net.inventory,
        &net.topology,
        &nodes,
        &options_for(BackendChoice::Exact),
    )
    .unwrap();
    let heuristic = plan(
        &intent,
        &net.inventory,
        &net.topology,
        &nodes,
        &options_for(BackendChoice::Heuristic),
    )
    .unwrap();

    assert!(heuristic.schedule.leftovers.is_empty());
    assert_eq!(heuristic.schedule.scheduled_count(), nodes.len());
    let solver_makespan = exact.makespan() as f64;
    let heuristic_makespan = heuristic.makespan() as f64;
    // The heuristic schedules timezones sequentially (deployability trumps
    // tightness, Appendix C), so allow generous headroom — but it must
    // stay within a small constant factor of optimal.
    assert!(
        heuristic_makespan <= solver_makespan * 2.5 + 4.0,
        "heuristic {heuristic_makespan} vs solver {solver_makespan}"
    );
}

#[test]
fn portfolio_beats_or_matches_every_member() {
    let net = ran(3);
    let nodes = ran_nodes(&net);
    let intent = comparison_intent(6);

    let run = |backend| {
        plan(
            &intent,
            &net.inventory,
            &net.topology,
            &nodes,
            &options_for(backend),
        )
        .unwrap()
    };
    let exact = run(BackendChoice::Exact);
    let heuristic = run(BackendChoice::Heuristic);
    let portfolio = run(BackendChoice::Portfolio);

    // The §4.2 acceptance bar: the race's makespan is never worse than the
    // best standalone member's.
    let best = exact.makespan().min(heuristic.makespan());
    assert!(
        portfolio.makespan() <= best,
        "portfolio {} vs best member {best}",
        portfolio.makespan()
    );
    assert_eq!(portfolio.backend_runs.len(), 2, "all members reported");
    assert_eq!(
        portfolio.backend_runs.iter().filter(|r| r.winner).count(),
        1
    );
}

#[test]
fn portfolio_winner_is_deterministic_across_races() {
    let net = ran(2);
    let nodes = ran_nodes(&net);
    let intent = comparison_intent(4);

    let reference = plan(
        &intent,
        &net.inventory,
        &net.topology,
        &nodes,
        &options_for(BackendChoice::Portfolio),
    )
    .unwrap();
    let winner = |r: &cornet::planner::PlanResult| {
        r.backend_runs
            .iter()
            .find(|run| run.winner)
            .map(|run| run.backend)
    };
    for _ in 0..5 {
        let again = plan(
            &intent,
            &net.inventory,
            &net.topology,
            &nodes,
            &options_for(BackendChoice::Portfolio),
        )
        .unwrap();
        assert_eq!(
            again.schedule.assignments, reference.schedule.assignments,
            "racing must be timing-independent"
        );
        assert_eq!(winner(&again), winner(&reference));
        assert_eq!(again.outcome, reference.outcome);
    }
}

#[test]
fn heuristic_scales_to_tens_of_thousands() {
    // §5.2: "For a network size of 100K, CORNET takes only a few minutes."
    // We check 20K+ nodes schedule in a few seconds here.
    let net = Network::generate_ran(&NetworkConfig::default().with_target_nodes(20_000));
    let nodes = ran_nodes(&net);
    assert!(nodes.len() >= 18_000, "target sizing: {}", nodes.len());
    let started = Instant::now();
    let hs = heuristic_schedule(
        &net.inventory,
        &nodes,
        &ConflictTable::new(),
        &SchedulingWindow::daily(SimTime::from_ymd_hm(2020, 7, 1, 0, 0), 60),
        &HeuristicConfig {
            slot_capacity: 400,
            iterations: 4,
            seed: 1,
        },
    );
    let elapsed = started.elapsed();
    assert_eq!(hs.scheduled_count() + hs.leftovers.len(), nodes.len());
    assert!(hs.leftovers.is_empty(), "60 slots × 400 fits 24K");
    assert!(elapsed.as_secs() < 30, "took {elapsed:?}");
}

#[test]
fn heuristic_respects_usid_and_capacity_at_scale() {
    let net = Network::generate_ran(&NetworkConfig::default().with_target_nodes(5_000));
    let nodes = ran_nodes(&net);
    let hs = heuristic_schedule(
        &net.inventory,
        &nodes,
        &ConflictTable::new(),
        &SchedulingWindow::daily(SimTime::from_ymd_hm(2020, 7, 1, 0, 0), 40),
        &HeuristicConfig {
            slot_capacity: 200,
            iterations: 3,
            seed: 2,
        },
    );
    // Capacity.
    let mut per_slot = std::collections::BTreeMap::new();
    for slot in hs.assignments.values() {
        *per_slot.entry(*slot).or_insert(0usize) += 1;
    }
    assert!(per_slot.values().all(|&c| c <= 200));
    // USID atomicity (consistency): sample check.
    for &n in nodes.iter().take(500) {
        if let Some(&slot) = hs.assignments.get(&n) {
            let usid = net.inventory.group_key_of(n, "usid").unwrap();
            for &m in &nodes {
                if m != n && net.inventory.group_key_of(m, "usid").as_deref() == Some(usid.as_str())
                {
                    assert_eq!(hs.assignments.get(&m), Some(&slot));
                }
            }
        }
    }
}
