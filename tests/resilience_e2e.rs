//! Resilient-orchestration integration tests: a 50-instance staggered
//! roll-out under seeded fault injection.
//!
//! Three §2.1/§5.1 scenarios: (1) a 20% transient-fault storm that retry
//! policies fully absorb, (2) a permanent fault on one block that trips
//! the circuit breaker, halts the remaining slots, and backs out the
//! in-flight failures, (3) deadline overruns surfacing as timed-out
//! blocks. Everything is reproducible from fixed seeds: the fault plan,
//! the backoff jitter, and the simulated clock are all deterministic.

use cornet::catalog::builtin_catalog;
use cornet::orchestrator::resilience::{CircuitBreaker, FaultPlan, FaultyExecutor, RetryPolicy};
use cornet::orchestrator::{
    BlockExecution, BlockStatus, DispatchReport, Dispatcher, ExecutorRegistry, GlobalState,
    InstanceStatus,
};
use cornet::types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::{Designer, WarArtifact};

const NODES: u32 = 50;
const PER_SLOT: u32 = 10;
const SEED: u64 = 42;

/// Happy-path executors for the software-upgrade workflow.
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

/// 50 nodes staggered over 5 slots of 10.
fn staggered_schedule() -> Schedule {
    let mut s = Schedule::default();
    for i in 0..NODES {
        s.assignments.insert(NodeId(i), Timeslot(i / PER_SLOT + 1));
    }
    s
}

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// Canonical execution-log fingerprint: everything deterministic under a
/// seeded fault plan (durations included — they come from the simulated
/// clock, never the wall clock, once the plan injects latency).
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

fn run_transient_storm() -> DispatchReport {
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    // 20% transient faults on every block, 12ms simulated latency each
    // invocation; 6 attempts make a six-in-a-row streak (0.2^6) the only
    // way to lose an instance.
    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::transient(SEED, 0.20).with_latency_ms(12),
    );
    reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
    let d = Dispatcher::new(war, reg, 4).unwrap();
    d.run(&staggered_schedule(), inputs).unwrap()
}

#[test]
fn transient_storm_is_fully_absorbed_by_retries() {
    let report = run_transient_storm();
    assert_eq!(report.instances.len(), NODES as usize);
    assert_eq!(
        report.completed(),
        NODES as usize,
        "retries absorb every transient fault"
    );
    assert!(report.failures().is_empty());
    // The recovery path actually ran: at 20% fault rate across ~150 block
    // executions, plenty of blocks needed retries.
    let recovered: usize = report
        .instances
        .iter()
        .flat_map(|i| &i.blocks)
        .filter(|b| matches!(b.status, BlockStatus::Recovered { .. }))
        .count();
    assert!(
        recovered > 10,
        "expected a visible recovery count, got {recovered}"
    );
    // Recovered rows carry their attempt count and accumulated backoff.
    let sample: &BlockExecution = report
        .instances
        .iter()
        .flat_map(|i| &i.blocks)
        .find(|b| matches!(b.status, BlockStatus::Recovered { .. }))
        .unwrap();
    assert!(sample.attempts > 1);
    assert!(sample.backoff > std::time::Duration::ZERO);
}

#[test]
fn same_seed_reproduces_the_execution_log_exactly() {
    let a = fingerprint(&run_transient_storm());
    let b = fingerprint(&run_transient_storm());
    assert_eq!(a, b, "same seed ⇒ byte-identical execution log");
    assert!(!a.is_empty());
}

#[test]
fn permanent_fault_trips_breaker_and_backs_out_in_flight_failures() {
    let cat = builtin_catalog();
    // The upgrade workflow with an explicitly designed backout flow.
    let mut wf = software_upgrade_workflow(&cat);
    let mut d = Designer::new(&cat, "upgrade-with-backout");
    let s = d.start();
    let rb = d.task("roll_back").unwrap();
    let e = d.end();
    d.connect(s, rb).connect(rb, e);
    wf.set_backout(d.build());
    let war = WarArtifact::package(&wf, &cat).unwrap();

    // Every software_upgrade invocation fails permanently; retries are
    // configured but must not fire for permanent errors.
    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::permanent_on(SEED, 1.0, "software_upgrade"),
    );
    reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
    let breaker = CircuitBreaker {
        failure_threshold: 0.5,
        min_samples: 5,
    };
    let d = Dispatcher::new(war, reg, 4).unwrap();
    let (report, trip) = d
        .run_campaign(&staggered_schedule(), inputs, Some(&breaker), None)
        .map(|o| (o.report, o.trip))
        .unwrap();

    // The breaker now checks on every instance completion (in dispatch
    // order), so it trips the moment the sample floor is met: after 5
    // all-failing instances, not at the end of slot 1. The deterministic
    // report is exactly that 5-instance prefix; anything already in
    // flight when the trip landed drains separately.
    let trip = trip.expect("breaker must trip");
    assert_eq!(trip.block, "software_upgrade");
    assert!(trip.failure_rate >= 0.5);
    assert_eq!(
        report.instances.len(),
        breaker.min_samples,
        "halt at the sample floor, mid-slot"
    );
    assert!(
        report.instances.len() + report.drained.len() <= PER_SLOT as usize,
        "no instance beyond slot 1 ever started"
    );

    // Every in-flight failure was backed out, not abandoned — including
    // the drained stragglers.
    assert_eq!(report.rolled_back(), breaker.min_samples);
    assert_eq!(report.completed(), 0);
    for i in report.instances.iter().chain(&report.drained) {
        assert!(matches!(&i.status, InstanceStatus::RolledBack(b) if b == "software_upgrade"));
        let last = i.blocks.last().unwrap();
        assert_eq!(last.block, "roll_back", "backout flow executed");
        assert!(last.status.is_success());
        let upgrade = i
            .blocks
            .iter()
            .find(|b| b.block == "software_upgrade")
            .unwrap();
        assert_eq!(upgrade.status, BlockStatus::Failed);
        assert_eq!(upgrade.attempts, 1, "permanent faults never retry");
        assert!(upgrade.error.as_deref().unwrap().contains("injected fault"));
    }
}

/// A breaker trip is part of the campaign's durable history: whether the
/// crash lands after the trip was journaled or just before, a resumed
/// campaign must come back halted at the same instance — never re-admit
/// the nodes the trip spared.
#[test]
fn tripped_breaker_stays_tripped_across_crash_and_resume() {
    use cornet::journal::{boundaries, FsyncPolicy, Journal};
    use std::collections::BTreeMap;

    let cat = builtin_catalog();
    let mut wf = software_upgrade_workflow(&cat);
    let mut dsg = Designer::new(&cat, "upgrade-with-backout");
    let s = dsg.start();
    let rb = dsg.task("roll_back").unwrap();
    let e = dsg.end();
    dsg.connect(s, rb).connect(rb, e);
    wf.set_backout(dsg.build());
    let war = WarArtifact::package(&wf, &cat).unwrap();

    let plan = FaultPlan::permanent_on(SEED, 1.0, "software_upgrade").with_latency_ms(5);
    let stack = || {
        let mut reg = FaultyExecutor::wrap(&happy_registry(), &plan);
        reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
        Dispatcher::new(war.clone(), reg, 4).unwrap()
    };
    let breaker = CircuitBreaker {
        failure_threshold: 0.5,
        min_samples: 5,
    };

    let path = std::env::temp_dir().join(format!(
        "cornet-resilience-trip-{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::create(&path, FsyncPolicy::Always).unwrap();
    let (report, trip) = stack()
        .with_journal(journal, BTreeMap::new())
        .run_campaign(&staggered_schedule(), inputs, Some(&breaker), None)
        .map(|o| (o.report, o.trip))
        .unwrap();
    let trip = trip.expect("breaker must trip");
    let bytes = std::fs::read(&path).unwrap();

    // Crash after the trip was journaled: the full journal replays to the
    // same halted prefix, the same drained stragglers, the same trip.
    let (resumed, resumed_trip) = stack()
        .resume_from_journal(&path, FsyncPolicy::Always, inputs, Some(&breaker))
        .unwrap();
    assert_eq!(Some(&trip), resumed_trip.as_ref());
    assert_eq!(report.instances, resumed.instances);
    assert_eq!(report.drained, resumed.drained);

    // Crash just *before* the trip record made it to disk: chop the
    // trailing breaker_tripped + campaign_closed records. The trip must be
    // re-derived from the replayed completions at the exact same instance,
    // and halt-drain semantics must hold — no node past the recorded set
    // is ever admitted.
    let cuts = boundaries(&bytes);
    let cut = cuts[cuts.len() - 3]; // drop the last two records
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let (rederived, rederived_trip) = stack()
        .resume_from_journal(&path, FsyncPolicy::Always, inputs, Some(&breaker))
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(Some(&trip), rederived_trip.as_ref());
    assert_eq!(report.instances, rederived.instances);
    assert_eq!(report.drained, rederived.drained);
    assert_eq!(rederived.instances.len(), breaker.min_samples);
    for i in rederived.instances.iter().chain(&rederived.drained) {
        assert!(matches!(&i.status, InstanceStatus::RolledBack(b) if b == "software_upgrade"));
    }
}

#[test]
fn deadline_overruns_are_logged_as_timed_out() {
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    // 300ms of injected latency against a 100ms deadline on the upgrade
    // block; no retry policy, so the overrun is terminal.
    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::transient(SEED, 0.0)
            .with_latency_ms(300)
            .targeting(&["software_upgrade"]),
    );
    reg.set_deadline("software_upgrade", std::time::Duration::from_millis(100));
    let d = Dispatcher::new(war, reg, 4).unwrap();
    let mut schedule = Schedule::default();
    for i in 0..4 {
        schedule.assignments.insert(NodeId(i), Timeslot(1));
    }
    let report = d.run(&schedule, inputs).unwrap();
    assert_eq!(report.completed(), 0);
    for i in &report.instances {
        let row = i
            .blocks
            .iter()
            .find(|b| b.block == "software_upgrade")
            .unwrap();
        assert_eq!(row.status, BlockStatus::TimedOut);
        assert!(row.error.as_deref().unwrap().contains("deadline"));
        assert_eq!(row.duration.as_millis(), 300, "simulated, not wall-clock");
    }
}
