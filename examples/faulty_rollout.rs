//! Resilient orchestration under injected faults: the same staggered
//! roll-out run twice — once through a 20% transient-fault storm that
//! retry policies absorb completely, and once against a permanent fault
//! that trips the circuit breaker, halts the remaining slots, and backs
//! out every in-flight failure. Both runs are reproducible bit-for-bit
//! from the fault-plan seed.
//!
//! Run with: `cargo run --release --example faulty_rollout`

use cornet::catalog::builtin_catalog;
use cornet::orchestrator::resilience::{CircuitBreaker, FaultPlan, FaultyExecutor, RetryPolicy};
use cornet::orchestrator::{
    BlockStatus, DispatchReport, Dispatcher, ExecutorRegistry, FalloutAnalysis, GlobalState,
};
use cornet::types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::{Designer, WarArtifact};

const NODES: u32 = 50;
const SEED: u64 = 42;

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
    reg.register("roll_back", |_| Ok(()));
    reg
}

fn schedule() -> Schedule {
    let mut s = Schedule::default();
    for i in 0..NODES {
        s.assignments.insert(NodeId(i), Timeslot(i / 10 + 1));
    }
    s
}

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

fn summarize(report: &DispatchReport) {
    let (mut recovered, mut attempts) = (0usize, 0u32);
    for b in report.instances.iter().flat_map(|i| &i.blocks) {
        attempts += b.attempts;
        if matches!(b.status, BlockStatus::Recovered { .. }) {
            recovered += 1;
        }
    }
    println!(
        "  {} instances: {} completed, {} failed, {} rolled back",
        report.instances.len(),
        report.completed(),
        report.failures().len(),
        report.rolled_back(),
    );
    println!("  {recovered} blocks recovered via retry ({attempts} attempts total)");
}

fn main() {
    let cat = builtin_catalog();

    // --- Scenario 1: transient-fault storm, fully absorbed -------------
    // 20% of block invocations fail with §5.1's canonical transient fault
    // (connectivity loss) and every invocation costs 12ms of simulated
    // latency. Six retry attempts with exponential backoff make an
    // instance failure a 0.2^6 event.
    println!("=== 20% transient faults, 6-attempt retry policy ===");
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::transient(SEED, 0.20).with_latency_ms(12),
    );
    reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
    let report = Dispatcher::new(war, reg, 4)
        .unwrap()
        .run(&schedule(), inputs)
        .unwrap();
    summarize(&report);

    // --- Scenario 2: permanent fault → breaker trip + backout ----------
    // Every software_upgrade invocation now fails permanently. The
    // circuit breaker watches running fall-out analysis and halts the
    // roll-out once a block's failure rate crosses 50%; each failed
    // instance executes the workflow's designated backout flow.
    println!("\n=== permanent fault on software_upgrade, breaker armed ===");
    let mut wf = software_upgrade_workflow(&cat);
    let mut d = Designer::new(&cat, "backout");
    let s = d.start();
    let rb = d.task("roll_back").unwrap();
    let e = d.end();
    d.connect(s, rb).connect(rb, e);
    wf.set_backout(d.build());
    let war = WarArtifact::package(&wf, &cat).unwrap();

    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::permanent_on(SEED, 1.0, "software_upgrade"),
    );
    reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
    let breaker = CircuitBreaker {
        failure_threshold: 0.5,
        min_samples: 5,
    };
    let outcome = Dispatcher::new(war, reg, 4)
        .unwrap()
        .run_campaign(&schedule(), inputs, Some(&breaker), None)
        .unwrap();
    let report = outcome.report;
    summarize(&report);
    match outcome.trip {
        Some(t) => println!(
            "  breaker tripped on '{}': {:.0}% failure rate over {} samples; {} nodes spared",
            t.block,
            t.failure_rate * 100.0,
            t.samples,
            NODES as usize - report.instances.len(),
        ),
        None => println!("  breaker never tripped"),
    }
    let fallout = FalloutAnalysis::from_reports([&report]);
    println!(
        "  fall-out analysis: completion {:.0}%, offenders: {:?}",
        fallout.completion_rate() * 100.0,
        fallout
            .offenders()
            .iter()
            .map(|(b, s)| format!("{b}×{}", s.failures))
            .collect::<Vec<_>>(),
    );
}
