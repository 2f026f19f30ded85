//! Equivalence properties for the continuous-admission dispatcher and the
//! rayon-fanned verifier: parallelism must change wall-clock time only,
//! never outcomes.
//!
//! Three families of properties:
//!
//! 1. **Dispatch**: any concurrency in 2..=8 under a seeded fault plan
//!    produces the same per-instance statuses and block logs as
//!    concurrency 1.
//! 2. **Breaker**: the circuit breaker trips after the same instance at
//!    every concurrency — the deterministic `instances` prefix and the
//!    trip itself are identical; drained stragglers match the outcome the
//!    same node has in an unhalted run.
//! 3. **Verification**: `verify_rule` (parallel units + series cache) is
//!    verdict- and p-value-identical to `verify_rule_sequential`.

use cornet::catalog::builtin_catalog;
use cornet::orchestrator::resilience::{
    CircuitBreaker, FaultKind, FaultPlan, FaultyExecutor, RetryPolicy,
};
use cornet::orchestrator::{
    BlockStatus, DispatchReport, Dispatcher, ExecutorRegistry, GlobalState,
};
use cornet::types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet::verifier::{
    verify_rule, verify_rule_sequential, ClosureAdapter, Expectation, KpiQuery, VerificationRule,
};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::WarArtifact;
use proptest::prelude::*;

const NODES: u32 = 24;
const PER_SLOT: u32 = 12;

fn happy_registry() -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    reg.register("health_check", |s| {
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("software_upgrade", |s| {
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    reg.register("pre_post_comparison", |s| {
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("roll_back", |s| {
        s.insert("rolled_back".into(), ParamValue::from(true));
        Ok(())
    });
    reg
}

fn schedule(nodes: u32, per_slot: u32) -> Schedule {
    let mut s = Schedule::default();
    for i in 0..nodes {
        s.assignments.insert(NodeId(i), Timeslot(i / per_slot + 1));
    }
    s
}

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// Canonical per-instance outcome rows: node, per-block status, attempts,
/// simulated duration, backoff — everything that must not depend on
/// thread interleaving.
fn fingerprint(report: &DispatchReport) -> Vec<(u32, String, BlockStatus, u32, u128, u128)> {
    let mut rows = Vec::new();
    for i in &report.instances {
        for b in &i.blocks {
            rows.push((
                i.node.0,
                b.block.clone(),
                b.status,
                b.attempts,
                b.duration.as_millis(),
                b.backoff.as_millis(),
            ));
        }
    }
    rows
}

fn faulty_dispatcher(plan: &FaultPlan, concurrency: usize) -> Dispatcher {
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    let mut reg = FaultyExecutor::wrap(&happy_registry(), plan);
    reg.set_default_retry_policy(RetryPolicy::with_attempts(3));
    Dispatcher::new(war, reg, concurrency).unwrap()
}

fn plan_from(seed: u64, rate_millis: u32, kind_sel: u8, latency_ms: u64) -> FaultPlan {
    let kind = match kind_sel % 3 {
        0 => FaultKind::Transient,
        1 => FaultKind::Permanent,
        _ => FaultKind::FlakyThenRecover { failures: 1 },
    };
    FaultPlan {
        seed,
        failure_rate: rate_millis as f64 / 1000.0,
        kind,
        latency_ms,
        ..FaultPlan::transient(seed, 0.0)
    }
}

proptest! {
    #[test]
    fn dispatch_outcomes_independent_of_concurrency(
        seed in any::<u64>(),
        rate_millis in 0u32..500,
        kind_sel in 0u8..3,
        concurrency in 2usize..9,
    ) {
        // Latency > 0 keeps block durations on the simulated clock, so
        // the fingerprint rows are fully deterministic.
        let plan = plan_from(seed, rate_millis, kind_sel, 5);
        let base = faulty_dispatcher(&plan, 1)
            .run(&schedule(NODES, PER_SLOT), inputs)
            .unwrap();
        let wide = faulty_dispatcher(&plan, concurrency)
            .run(&schedule(NODES, PER_SLOT), inputs)
            .unwrap();
        prop_assert!(base.drained.is_empty() && wide.drained.is_empty());
        prop_assert_eq!(fingerprint(&base), fingerprint(&wide));
    }

    #[test]
    fn breaker_trips_after_the_same_instance_at_any_concurrency(
        seed in any::<u64>(),
        rate_millis in 600u32..1001,
        concurrency in 2usize..9,
    ) {
        let plan = FaultPlan {
            latency_ms: 5,
            ..FaultPlan::permanent_on(seed, rate_millis as f64 / 1000.0, "software_upgrade")
        };
        let breaker = CircuitBreaker { failure_threshold: 0.5, min_samples: 4 };
        let sched = schedule(NODES, PER_SLOT);
        let (base, base_trip) = faulty_dispatcher(&plan, 1)
            .run_campaign(&sched, inputs, Some(&breaker), None)
            .map(|o| (o.report, o.trip))
            .unwrap();
        let (wide, wide_trip) = faulty_dispatcher(&plan, concurrency)
            .run_campaign(&sched, inputs, Some(&breaker), None)
            .map(|o| (o.report, o.trip))
            .unwrap();
        prop_assert_eq!(&base_trip, &wide_trip);
        prop_assert_eq!(fingerprint(&base), fingerprint(&wide));
        // Drained stragglers are timing-dependent in membership but not
        // in outcome: each must match the same node's result in a run
        // that never halts.
        if !wide.drained.is_empty() {
            let unhalted = faulty_dispatcher(&plan, 1)
                .run(&sched, inputs)
                .unwrap();
            for d in &wide.drained {
                let reference = unhalted
                    .instances
                    .iter()
                    .find(|i| i.node == d.node)
                    .expect("drained node exists in the full run");
                prop_assert_eq!(&d.status, &reference.status);
                prop_assert_eq!(d.blocks.len(), reference.blocks.len());
            }
        }
        // A sequential run admits exactly the prefix; concurrency 1 must
        // never drain.
        prop_assert!(base.drained.is_empty());
    }

    #[test]
    fn verification_parallel_equals_sequential(
        delta_tenths in -300i32..300,
        dfw_extra_tenths in -300i32..300,
        kpi_count in 1usize..4,
    ) {
        use cornet::stats::TimeSeries;
        use cornet::types::{Attributes, Inventory, NfType, Topology};
        use cornet::verifier::ChangeScope;

        let mut inv = Inventory::new();
        for i in 0..8 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new().with("market", if i % 2 == 0 { "NYC" } else { "DFW" }),
            );
        }
        let mut topo = Topology::with_capacity(8);
        for i in 0..4u32 {
            topo.add_edge(NodeId(i), NodeId(i + 4));
        }
        let delta = delta_tenths as f64 / 10.0;
        let dfw_extra = dfw_extra_tenths as f64 / 10.0;
        let adapter = ClosureAdapter(move |node: NodeId, kpi: &str, _: Option<usize>| {
            let kpi_salt = kpi.len() as f64 * 0.3;
            let values: Vec<f64> = (0..200u64)
                .map(|k| {
                    let minute = k * 60;
                    let wiggle = ((k * 11 + node.0 as u64 * 3) % 5) as f64 * 0.15;
                    let mut v = 100.0 + kpi_salt + wiggle;
                    if node.0 < 4 && minute >= 6000 {
                        v += delta;
                        if node.0 % 2 == 1 {
                            v += dfw_extra;
                        }
                    }
                    v
                })
                .collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let mut rule = VerificationRule::standard(
            "equiv",
            (0..kpi_count)
                .map(|i| KpiQuery::expecting(format!("kpi{i}"), true, Expectation::Improve))
                .collect(),
        );
        rule.location_attributes = vec!["market".into()];
        let scope = ChangeScope::simultaneous(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 6000);
        let par = verify_rule(&adapter, &rule, &scope, &inv, &topo).unwrap();
        let seq = verify_rule_sequential(&adapter, &rule, &scope, &inv, &topo).unwrap();
        prop_assert_eq!(par.decision, seq.decision);
        prop_assert_eq!(par.kpis.len(), seq.kpis.len());
        for (p, s) in par.kpis.iter().zip(&seq.kpis) {
            prop_assert_eq!(p.overall.verdict, s.overall.verdict);
            prop_assert_eq!(p.overall.p_value.to_bits(), s.overall.p_value.to_bits());
            prop_assert_eq!(
                p.overall.relative_shift.to_bits(),
                s.overall.relative_shift.to_bits()
            );
            prop_assert_eq!(p.meets_expectation, s.meets_expectation);
            prop_assert_eq!(p.per_location.len(), s.per_location.len());
            for (pl, sl) in p.per_location.iter().zip(&s.per_location) {
                prop_assert_eq!((&pl.attribute, &pl.value), (&sl.attribute, &sl.value));
                match (&pl.analysis, &sl.analysis) {
                    (Ok(pa), Ok(sa)) => {
                        prop_assert_eq!(pa.verdict, sa.verdict);
                        prop_assert_eq!(pa.p_value.to_bits(), sa.p_value.to_bits());
                    }
                    (Err(pe), Err(se)) => prop_assert_eq!(pe, se),
                    other => prop_assert!(false, "ok/err mismatch: {:?}", other),
                }
            }
        }
    }
}
