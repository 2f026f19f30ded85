//! Properties of sharded portfolio solving (tentpole invariants):
//!
//! * on capacity-independent shards (per-market aggregate capacity) the
//!   sharded solve matches the unsharded exact optimum;
//! * on coupled instances (one global capacity cut across shards) the
//!   published plan is never worse than the Appendix C heuristic under
//!   the (feasibility, leftovers, makespan, cost) schedule-quality order;
//! * the published plan does not depend on shard solve order.

use cornet_planner::backend::{
    Budget, ExactBackend, HeuristicBackend, ShardedBackend, SolveContext,
};
use cornet_planner::heuristic::HeuristicConfig;
use cornet_planner::intent::{ConstraintRule, PlanIntent};
use cornet_planner::translate::{translate, TranslateOptions, Translation};
use cornet_planner::SolverBackend;
use cornet_solver::SolverConfig;
use cornet_types::{Attributes, Granularity, Inventory, NfType, NodeId, Topology};
use proptest::prelude::*;

const MARKETS: [(&str, f64); 3] = [("NYC", -5.0), ("DFW", -6.0), ("SEA", -8.0)];

fn inventory(n: usize, markets: usize) -> Inventory {
    let mut inv = Inventory::new();
    for i in 0..n {
        let (market, tz) = MARKETS[i % markets];
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

fn intent(cap: i64, days: u32, per_market: bool) -> PlanIntent {
    let mut it = PlanIntent::from_json(&format!(
        r#"{{
        "scheduling_window": {{"start": "2020-07-01 00:00:00",
                               "end": "2020-07-{days:02} 23:59:00",
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
    .unwrap();
    if per_market {
        it.constraints = vec![ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: Some("market".into()),
            operator: "<=".into(),
            granularity: Granularity::daily(),
            default_capacity: cap,
        }];
    }
    it
}

struct Fixture {
    intent: PlanIntent,
    inventory: Inventory,
    translation: Translation,
}

fn fixture(n: usize, markets: usize, cap: i64, days: u32, per_market: bool) -> Fixture {
    let inventory = inventory(n, markets);
    let intent = intent(cap, days, per_market);
    let nodes: Vec<NodeId> = inventory.ids().collect();
    let translation = translate(
        &intent,
        &inventory,
        &Topology::with_capacity(n),
        &nodes,
        &TranslateOptions::default(),
    )
    .unwrap();
    Fixture {
        intent,
        inventory,
        translation,
    }
}

/// Schedule-quality rank mirroring the sharded backend's selection order.
fn rank(f: &Fixture, a: &[i64]) -> (bool, usize, i64, i64) {
    let feasible = f.translation.model.check(a).is_ok();
    let leftovers = a.iter().filter(|&&v| v == 0).count();
    let makespan = a.iter().copied().max().unwrap_or(0);
    (!feasible, leftovers, makespan, f.translation.model.cost(a))
}

fn sharded() -> ShardedBackend {
    ShardedBackend::standard(&SolverConfig::default(), &HeuristicConfig::default())
}

/// Node-capped budget: termination is decided by the deterministic node
/// counter, never the wall clock, and oversubscribed instances cannot
/// burn the default million-node ceiling per case.
fn budget(max_nodes: u64) -> Budget {
    Budget {
        max_nodes,
        time_limit: std::time::Duration::from_secs(30),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Capacity-independent shards: per-market capacity means no
    /// constraint crosses shards, so shard optima compose into a global
    /// optimum — same cost and makespan as the unsharded exact solver.
    #[test]
    fn decoupled_sharded_matches_unsharded_exact(
        n in 4usize..12,
        markets in 2usize..4,
        cap in 1i64..4,
    ) {
        let f = fixture(n, markets, cap, 12, true);
        let ctx = SolveContext::new(&f.translation, &f.inventory, &f.intent);
        let exact = ExactBackend::default().solve(&ctx, &budget(120_000));
        // The equality claim is about the proved optimum; skip the rare
        // case where the node budget cut the unsharded proof short.
        if exact.outcome != cornet_solver::Outcome::Optimal {
            return Ok(());
        }
        let shard = sharded().solve(&ctx, &budget(120_000));
        let ea = exact.assignment.expect("exact plan");
        let sa = shard.assignment.expect("sharded plan");
        prop_assert_eq!(f.translation.model.cost(&sa), f.translation.model.cost(&ea));
        prop_assert_eq!(
            sa.iter().copied().max(),
            ea.iter().copied().max(),
            "equal makespan on capacity-independent shards"
        );
    }

    /// Coupled instances: a single global capacity is apportioned across
    /// shards; whatever merging and reconciliation do, the published plan
    /// must rank at least as well as the plain heuristic.
    #[test]
    fn coupled_sharded_never_worse_than_heuristic(
        n in 4usize..20,
        markets in 2usize..4,
        cap in 1i64..5,
        days in 4u32..13,
    ) {
        let f = fixture(n, markets, cap, days, false);
        let ctx = SolveContext::new(&f.translation, &f.inventory, &f.intent);
        let heuristic = HeuristicBackend {
            config: HeuristicConfig::default(),
            capacity_override: None,
        }
        .solve(&ctx, &budget(60_000));
        let shard = sharded().solve(&ctx, &budget(60_000));
        let ha = heuristic.assignment.expect("heuristic plan");
        let sa = shard.assignment.expect("sharded plan");
        prop_assert!(
            rank(&f, &sa) <= rank(&f, &ha),
            "sharded {:?} ranks worse than heuristic {:?}",
            rank(&f, &sa),
            rank(&f, &ha)
        );
    }

    /// Shard solve order must not leak into the published plan.
    #[test]
    fn shard_solve_order_does_not_change_the_plan(
        n in 6usize..16,
        markets in 2usize..4,
        cap in 1i64..4,
        seed in 0usize..6,
    ) {
        let f = fixture(n, markets, cap, 12, false);
        let ctx = SolveContext::new(&f.translation, &f.inventory, &f.intent);
        let backend = sharded();
        let shard_count =
            cornet_planner::decompose::shard_translation(&f.translation, &f.inventory)
                .map_or(1, |s| s.shards.len());
        let forward: Vec<usize> = (0..shard_count).collect();
        let mut rotated = forward.clone();
        rotated.rotate_left(seed % shard_count.max(1));
        let a = backend.solve_ordered(&ctx, &budget(60_000), Some(&forward));
        let b = backend.solve_ordered(&ctx, &budget(60_000), Some(&rotated));
        prop_assert_eq!(a.assignment, b.assignment);
        prop_assert_eq!(a.cost, b.cost);
        prop_assert_eq!(a.outcome, b.outcome);
    }
}
