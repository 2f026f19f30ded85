//! A portfolio race needs no watcher thread: every member runs on one
//! child of the caller's `CancelToken`, so an external cancellation is
//! seen by each member on its next search node. The observable is the
//! latency from `cancel()` to `solve` returning.

// Test harness: a cancelling thread sleeps before it fires (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet_model::ModelBuilder;
use cornet_planner::backend::{Budget, PortfolioBackend, SolveContext};
use cornet_planner::heuristic::HeuristicConfig;
use cornet_planner::intent::PlanIntent;
use cornet_planner::translate::{translate, TranslateOptions};
use cornet_planner::SolverBackend;
use cornet_solver::{CancelToken, Outcome, SolverConfig};
use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};
use std::time::{Duration, Instant};

#[test]
fn externally_cancelled_race_returns_promptly_with_its_incumbent() {
    let n = 14;
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
    let intent = PlanIntent::from_json(
        r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-07-16 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": [
            {"name": "concurrency", "base_attribute": "common_id",
             "operator": "<=", "granularity": {"metric": "day", "value": 1},
             "default_capacity": 2}
        ]
    }"#,
    )
    .unwrap();
    let nodes: Vec<NodeId> = inv.ids().collect();
    let mut translation = translate(
        &intent,
        &inv,
        &Topology::with_capacity(n),
        &nodes,
        &TranslateOptions::default(),
    )
    .unwrap();
    // Unit weight 2 under capacity 3: one unit per slot is the best there
    // is, but the capacity bound cannot prove it, so the exact member
    // searches until its budget — 5 s and no node limit here.
    let mut b = ModelBuilder::new("fragmented", translation.slots.len() as u32);
    let vs = b.slot_vars("X", n);
    b.capacity("cap", vs.clone(), vec![2; n], 3);
    b.require_scheduled(&vs);
    b.completion_objective(&vs, &vec![2; n], 10_000);
    translation.model = b.build();
    let ctx = SolveContext::new(&translation, &inv, &intent);
    let backend = PortfolioBackend::standard(&SolverConfig::default(), &HeuristicConfig::default());
    let budget = Budget {
        max_nodes: u64::MAX,
        time_limit: Duration::from_secs(5),
    };

    let cancel = CancelToken::new();
    let (r, latency) = std::thread::scope(|scope| {
        let canceller = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(100));
            cancel.cancel();
            Instant::now()
        });
        let r = backend.solve(&ctx, &budget, &cancel);
        let returned = Instant::now();
        let cancelled_at = canceller.join().unwrap();
        (r, returned.saturating_duration_since(cancelled_at))
    });

    // The exact member was cut short, not finished: on its own it searches
    // this model until the 5 s limit.
    let exact = &r.runs[0];
    assert_eq!(exact.backend, "exact");
    assert!(
        matches!(exact.outcome, Outcome::Feasible | Outcome::Unknown),
        "exact ended {:?}",
        exact.outcome
    );
    assert!(exact.elapsed < Duration::from_secs(2));
    assert!(
        latency < Duration::from_millis(50),
        "the race outlived its cancellation by {latency:?}"
    );
    // Cancellation loses nothing: the best incumbent any member had is
    // what the race reports.
    assert!(r.assignment.is_some(), "the incumbent survives");
    let feasible = r.runs.iter().filter(|run| run.feasible);
    if let Some(best) = feasible.filter_map(|run| run.cost).min() {
        assert_eq!(r.cost, Some(best));
        assert!(translation.model.check(&r.assignment.unwrap()).is_ok());
    }
}
