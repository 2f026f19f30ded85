//! Crash-recovery equivalence for the durable campaign journal: a resumed
//! campaign must be indistinguishable from one that never crashed.
//!
//! Three families of properties:
//!
//! 1. **Record-cut replay**: truncate a finished campaign's journal at
//!    *any* record boundary (simulating a kill at that point) and resume —
//!    the recovered `DispatchReport` equals the uninterrupted one exactly.
//! 2. **No re-execution**: resuming from a complete journal invokes zero
//!    executors; every outcome is replayed from disk.
//! 3. **Crash points**: the seeded `FaultyExecutor` kill-switch (mid-block
//!    and mid-append torn record) produces journals that resume to the
//!    same report as a run that never crashed.

use cornet::catalog::builtin_catalog;
use cornet::journal::{boundaries, CrashMode, FsyncPolicy, Journal};
use cornet::orchestrator::resilience::{FaultPlan, FaultyExecutor, RetryPolicy};
use cornet::orchestrator::{DispatchReport, Dispatcher, ExecutorRegistry, GlobalState};
use cornet::types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::{Designer, WarArtifact};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const NODES: u32 = 12;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cornet-jrec-{name}-{}.jsonl", std::process::id()))
}

/// Happy-path registry whose every successful block execution bumps the
/// shared counter — the witness that replayed blocks never re-run.
fn counting_registry(executions: Arc<AtomicUsize>) -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    let c = executions.clone();
    reg.register("health_check", move |s| {
        c.fetch_add(1, Ordering::SeqCst);
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    let c = executions.clone();
    reg.register("software_upgrade", move |s| {
        c.fetch_add(1, Ordering::SeqCst);
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    let c = executions.clone();
    reg.register("pre_post_comparison", move |s| {
        c.fetch_add(1, Ordering::SeqCst);
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    let c = executions;
    reg.register("roll_back", move |s| {
        c.fetch_add(1, Ordering::SeqCst);
        s.insert("rolled_back".into(), ParamValue::from(true));
        Ok(())
    });
    reg
}

fn schedule() -> Schedule {
    let mut s = Schedule::default();
    for i in 0..NODES {
        s.assignments.insert(NodeId(i), Timeslot(i / 4 + 1));
    }
    s
}

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// Fig. 4 upgrade workflow with a roll_back backout, so crashed-and-
/// resumed campaigns also exercise backout replay.
fn war() -> WarArtifact {
    let cat = builtin_catalog();
    let mut wf = software_upgrade_workflow(&cat);
    let mut d = Designer::new(&cat, "backout");
    let s = d.start();
    let rb = d.task("roll_back").unwrap();
    let e = d.end();
    d.connect(s, rb).connect(rb, e);
    wf.set_backout(d.build());
    WarArtifact::package(&wf, &cat).unwrap()
}

fn dispatcher(reg: ExecutorRegistry) -> Dispatcher {
    let mut reg = reg;
    reg.set_default_retry_policy(RetryPolicy::with_attempts(3));
    Dispatcher::new(war(), reg, 1).unwrap()
}

/// Run the campaign to completion with a journal attached.
fn journaled_run(plan: &FaultPlan, path: &PathBuf) -> DispatchReport {
    let executions = Arc::new(AtomicUsize::new(0));
    let reg = FaultyExecutor::wrap(&counting_registry(executions), plan);
    let journal = Journal::create(path, FsyncPolicy::Always).unwrap();
    dispatcher(reg)
        .with_journal(journal, BTreeMap::new())
        .run(&schedule(), inputs)
        .unwrap()
}

/// Resume from `path` with a fresh executor stack, returning the report
/// and how many blocks actually (re-)executed.
fn resume(plan: &FaultPlan, path: &PathBuf) -> (DispatchReport, usize) {
    let executions = Arc::new(AtomicUsize::new(0));
    let reg = FaultyExecutor::wrap(&counting_registry(executions.clone()), plan);
    let (report, trip) = dispatcher(reg)
        .resume_from_journal(path, FsyncPolicy::Always, inputs, None)
        .unwrap();
    assert!(trip.is_none(), "no breaker was armed");
    (report, executions.load(Ordering::SeqCst))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill the campaign at an arbitrary record boundary: replaying the
    /// surviving prefix and re-executing the rest reproduces the clean
    /// run's report byte for byte, at any fault rate. Each cut is followed
    /// by zeros, as a journal that syncs leaves the space it grew ahead of
    /// its records: that tail is unused space, not a torn one.
    #[test]
    fn resume_after_any_record_cut_reproduces_the_clean_report(
        seed in any::<u64>(),
        rate_millis in 0u32..500,
        cut_percent in 0u32..101,
        zero_tail in 0usize..(1 << 20) + 1,
    ) {
        let plan = FaultPlan::transient(seed, rate_millis as f64 / 1000.0).with_latency_ms(5);
        let clean_path = tmp("cut-clean");
        let clean = journaled_run(&plan, &clean_path);
        let bytes = std::fs::read(&clean_path).unwrap();
        let cuts = boundaries(&bytes);
        prop_assert!(!cuts.is_empty());
        // cuts[0] keeps only the campaign_opened record; the last cut is
        // the full journal.
        let cut = cuts[(cut_percent as usize * (cuts.len() - 1)) / 100];
        let cut_path = tmp("cut-truncated");
        let mut cut_bytes = bytes[..cut].to_vec();
        cut_bytes.resize(cut + zero_tail, 0);
        std::fs::write(&cut_path, &cut_bytes).unwrap();
        let (_, recovery) = Journal::read(&cut_path).unwrap();
        prop_assert!(!recovery.torn);
        prop_assert_eq!(recovery.dropped_bytes, 0);
        prop_assert_eq!(recovery.valid_len, cut as u64);
        let (resumed, _) = resume(&plan, &cut_path);
        std::fs::remove_file(&clean_path).ok();
        std::fs::remove_file(&cut_path).ok();
        prop_assert_eq!(clean, resumed);
    }
}

#[test]
fn resuming_a_complete_journal_executes_nothing() {
    let plan = FaultPlan::transient(7, 0.25).with_latency_ms(5);
    let path = tmp("complete");
    let clean = journaled_run(&plan, &path);
    let (resumed, executed) = resume(&plan, &path);
    std::fs::remove_file(&path).ok();
    assert_eq!(clean, resumed);
    assert_eq!(executed, 0, "every outcome must come from the journal");
}

/// Run the campaign with a deterministic kill armed at node 5's first
/// software_upgrade invocation, then resume with a crash-free stack.
fn crashed_then_resumed(mode: CrashMode) -> (DispatchReport, DispatchReport) {
    let plan = FaultPlan::transient(11, 0.2).with_latency_ms(5);
    let clean_path = tmp("crash-clean");
    let clean = journaled_run(&plan, &clean_path);
    std::fs::remove_file(&clean_path).ok();

    let crash_plan =
        plan.clone()
            .crash_at("software_upgrade", &format!("enb-{}", NodeId(5)), 1, mode);
    let crash_path = tmp("crash-journal");
    let journal = Journal::create(&crash_path, FsyncPolicy::Always).unwrap();
    let switch = journal.crash_switch();
    let executions = Arc::new(AtomicUsize::new(0));
    let reg = FaultyExecutor::wrap_with_crash(
        &counting_registry(executions),
        &crash_plan,
        switch.clone(),
    );
    // The simulated process keeps running after the kill, but its journal
    // is frozen — everything after this run sees only the surviving prefix.
    let _ = dispatcher(reg)
        .with_journal(journal, BTreeMap::new())
        .run(&schedule(), inputs)
        .unwrap();
    assert!(switch.is_dead(), "the armed crash point must fire");

    let (resumed, _) = resume(&plan, &crash_path);
    std::fs::remove_file(&crash_path).ok();
    (clean, resumed)
}

#[test]
fn mid_block_crash_resumes_to_the_clean_report() {
    let (clean, resumed) = crashed_then_resumed(CrashMode::MidBlock);
    assert_eq!(clean, resumed);
}

#[test]
fn torn_record_crash_resumes_to_the_clean_report() {
    // MidAppend half-writes the next record before dying; recovery must
    // truncate the torn tail and replay the intact prefix.
    let (clean, resumed) = crashed_then_resumed(CrashMode::MidAppend);
    assert_eq!(clean, resumed);
}

#[test]
fn a_journal_dropped_mid_campaign_under_every_n_resumes_to_the_clean_report() {
    let plan = FaultPlan::transient(11, 0.2).with_latency_ms(5);
    let clean_path = tmp("dropped-clean");
    let clean = journaled_run(&plan, &clean_path);
    std::fs::remove_file(&clean_path).ok();

    // The process dies in node 5's upgrade and never closes its journal:
    // the file still reaches past its records, into the zeros it grew.
    let crash_plan = plan.clone().crash_at(
        "software_upgrade",
        &format!("enb-{}", NodeId(5)),
        1,
        CrashMode::MidBlock,
    );
    let path = tmp("dropped");
    let journal = Journal::create(&path, FsyncPolicy::EveryN(4)).unwrap();
    let switch = journal.crash_switch();
    let reg = FaultyExecutor::wrap_with_crash(
        &counting_registry(Arc::new(AtomicUsize::new(0))),
        &crash_plan,
        switch.clone(),
    );
    let _ = dispatcher(reg)
        .with_journal(journal, BTreeMap::new())
        .run(&schedule(), inputs)
        .unwrap();
    assert!(switch.is_dead(), "the armed crash point must fire");
    let (_, recovery) = Journal::read(&path).unwrap();
    assert!(!recovery.torn && recovery.dropped_bytes == 0);
    assert!(std::fs::metadata(&path).unwrap().len() > recovery.valid_len);

    let (resumed, _) = resume(&plan, &path);
    std::fs::remove_file(&path).ok();
    assert_eq!(clean, resumed);
}
