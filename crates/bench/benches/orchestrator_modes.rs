//! §3.2's deferred comparison: workflow-driven vs event-driven
//! composition of the same Fig. 4 change flow ("In the future, we plan to
//! quantitatively compare the approaches" — here is that comparison for
//! execution overhead).

use cornet_bench::events::EventBus;
use cornet_catalog::builtin_catalog;
use cornet_orchestrator::resilience::{FaultPlan, FaultyExecutor, RetryPolicy};
use cornet_orchestrator::{Engine, ExecutorRegistry, GlobalState};
use cornet_types::ParamValue;
use cornet_workflow::builtin::software_upgrade_workflow;
use cornet_workflow::WarArtifact;
use criterion::{criterion_group, criterion_main, Criterion};

fn registry() -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    reg.register("health_check", |s| {
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("software_upgrade", |s| {
        s.insert("previous_version".into(), ParamValue::from("old"));
        Ok(())
    });
    reg.register("pre_post_comparison", |s| {
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("roll_back", |_| Ok(()));
    reg
}

fn inputs() -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from("enb-1"));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

fn bench_workflow_vs_events(c: &mut Criterion) {
    let cat = builtin_catalog();
    let wf = software_upgrade_workflow(&cat);
    let war = WarArtifact::package(&wf, &cat).unwrap();
    let reg = registry();

    let mut group = c.benchmark_group("composition_mode");
    group.bench_function("workflow_engine", |b| {
        b.iter(|| {
            let mut engine = Engine::from_war(&war, reg.clone(), inputs()).unwrap();
            engine.run().unwrap().clone()
        })
    });
    group.bench_function("workflow_engine_prebuilt_graph", |b| {
        b.iter(|| {
            let mut engine = Engine::new(wf.clone(), reg.clone(), inputs());
            engine.run().unwrap().clone()
        })
    });
    group.bench_function("event_bus", |b| {
        b.iter(|| {
            let mut bus = EventBus::new(reg.clone());
            bus.subscribe("change.requested", "health_check", Some("health.checked"));
            bus.subscribe_if(
                "health.checked",
                |s| s.get("healthy").and_then(|v| v.as_bool()) == Some(true),
                "software_upgrade",
                Some("upgrade.done"),
            );
            bus.subscribe(
                "upgrade.done",
                "pre_post_comparison",
                Some("comparison.done"),
            );
            bus.subscribe_if(
                "comparison.done",
                |s| s.get("passed").and_then(|v| v.as_bool()) == Some(false),
                "roll_back",
                None,
            );
            let mut state = inputs();
            bus.publish("change.requested", &mut state, 100).unwrap()
        })
    });
    group.finish();
}

/// Retry overhead under injected transient faults: the same engine run at
/// 0%, 5%, and 20% per-invocation fault rates with a 6-attempt policy.
/// Backoffs advance the simulated clock only, so the measured cost is the
/// orchestration overhead of the retry machinery itself.
fn bench_fault_rates(c: &mut Criterion) {
    let cat = builtin_catalog();
    let wf = software_upgrade_workflow(&cat);
    let base = registry();

    let mut group = c.benchmark_group("fault_rate");
    for rate_pct in [0u32, 5, 20] {
        let plan = FaultPlan::transient(0xC0FFEE, rate_pct as f64 / 100.0);
        let mut reg = FaultyExecutor::wrap(&base, &plan);
        reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
        group.bench_function(format!("workflow_engine_fault_{rate_pct}pct"), |b| {
            let mut instance = 0u64;
            b.iter(|| {
                // Distinct node names walk the fault plan's keyspace so
                // iterations do not replay one node's fault decisions.
                instance += 1;
                let mut state = inputs();
                state.insert("node".into(), ParamValue::from(format!("enb-{instance}")));
                let mut engine = Engine::new(wf.clone(), reg.clone(), state);
                engine.run().unwrap().clone()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workflow_vs_events, bench_fault_rates);
criterion_main!(benches);
