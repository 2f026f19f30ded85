//! `cornetd` reads a campaign's state from its journal, so a restart
//! reads back exactly what the live daemon showed.
//!
//! * Every terminal campaign — breaker-halted ones with drained
//!   instances, one cancelled mid-run — reads back the phase and outcome
//!   of its live snapshot after a restart, from its journal and the
//!   record submit appended (identity, scenario and spec, nothing a run
//!   added).
//! * A campaign cancelled while queued for resume stays cancelled across
//!   a restart and executes no block.

#![allow(clippy::disallowed_methods)]

use cornet::daemon::{
    CampaignManager, CampaignPhase, CampaignSnapshot, JournalScenario, ManagerConfig, SubmitOutcome,
};
use cornet::journal::{CampaignStore, FsyncPolicy, Journal, JournalEvent};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cornet-restart-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 24 nodes in one slot, 70 % faults without retries, and a breaker that
/// trips at 30 % after 2 samples: at concurrency 4 it halts with
/// instances in flight, which drain.
fn breaker_scenario(seed: u64) -> JournalScenario {
    JournalScenario {
        seed,
        nodes: 24,
        per_slot: 24,
        concurrency: 4,
        fault_rate_milli: 700,
        attempts: 1,
        breaker_threshold_milli: 300,
        breaker_min_samples: 2,
        ..JournalScenario::default()
    }
}

fn config(dir: &Path, max_campaigns: usize) -> ManagerConfig {
    ManagerConfig {
        state_dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        max_campaigns,
        ..ManagerConfig::default()
    }
}

fn submit(manager: &Arc<CampaignManager>, body: &str) -> String {
    match manager.submit("acme", body).unwrap() {
        SubmitOutcome::Accepted { id, .. } => id,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

fn wait_terminal(manager: &Arc<CampaignManager>, id: &str) -> CampaignSnapshot {
    for _ in 0..6000 {
        let snap = manager.snapshot("acme", id).unwrap();
        if snap.phase.is_terminal() {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("campaign {id} never reached a terminal phase");
}

fn stop(manager: Arc<CampaignManager>) {
    manager.begin_shutdown();
    assert!(manager.drain(Duration::from_secs(60)));
}

/// What a restart must read back exactly: everything but the split of
/// block records into live and recovered.
fn terminal_view(s: &CampaignSnapshot) -> impl PartialEq + std::fmt::Debug {
    (
        s.phase,
        s.outcome.clone(),
        s.error.clone(),
        s.instances_done,
        s.events,
        s.blocks_live + s.blocks_recovered,
    )
}

#[test]
fn every_terminal_campaign_reads_back_its_live_snapshot_after_a_restart() {
    let dir = tmp("restart");
    let manager = CampaignManager::start(config(&dir, 4)).unwrap();
    let mut ids = Vec::new();
    for seed in 0..6 {
        let s = breaker_scenario(seed);
        ids.push(submit(
            &manager,
            &format!(
                r#"{{"name": "breaker-{seed}", "scenario": {{"seed": {seed}, "nodes": {}, "per_slot": {},
                "concurrency": {}, "fault_rate_milli": {}, "attempts": {},
                "breaker_threshold_milli": {}, "breaker_min_samples": {}}}}}"#,
                s.nodes,
                s.per_slot,
                s.concurrency,
                s.fault_rate_milli,
                s.attempts,
                s.breaker_threshold_milli,
                s.breaker_min_samples
            ),
        ));
    }
    // Long enough to be cancelled while it runs: pause it once an
    // instance finished (in-flight ones finish, nothing new starts), then
    // cancel it.
    let long = submit(
        &manager,
        r#"{"name": "cancelled", "scenario": {"nodes": 4096, "concurrency": 4, "latency_ms": 1}}"#,
    );
    for _ in 0..6000 {
        if manager.snapshot("acme", &long).unwrap().instances_done > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    manager.pause("acme", &long).unwrap();
    manager.cancel("acme", &long).unwrap();
    ids.push(long);

    let live: Vec<CampaignSnapshot> = ids.iter().map(|id| wait_terminal(&manager, id)).collect();
    for snap in &live[..6] {
        assert_eq!(snap.phase, CampaignPhase::Completed, "{}", snap.name);
        let outcome = snap.outcome.as_ref().expect("terminal outcome");
        assert!(outcome.trip.is_some(), "{} tripped its breaker", snap.name);
        assert!(!outcome.cancelled, "{}", snap.name);
    }
    let cancelled = &live[6];
    assert_eq!(cancelled.phase, CampaignPhase::Cancelled);
    let outcome = cancelled.outcome.as_ref().expect("terminal outcome");
    assert!(outcome.cancelled);
    assert!(outcome.completed < 4096, "cancelled mid-run: {outcome:?}");
    stop(manager);

    let manager = CampaignManager::start(config(&dir, 4)).unwrap();
    for (id, before) in ids.iter().zip(&live) {
        let after = manager.snapshot("acme", id).unwrap();
        assert_eq!(
            terminal_view(&after),
            terminal_view(before),
            "{} after a restart",
            before.name
        );
        assert_eq!(after.blocks_live, 0, "{}: nothing ran again", before.name);
    }
    stop(manager);
    std::fs::remove_dir_all(&dir).ok();
}

fn block_records(path: &Path) -> usize {
    let (events, _) = Journal::read(path).unwrap();
    events
        .iter()
        .filter(|e| matches!(e, JournalEvent::BlockCompleted(_)))
        .count()
}

#[test]
fn a_campaign_cancelled_while_queued_for_resume_stays_cancelled_and_runs_nothing() {
    let dir = tmp("queued-resume");
    let manager = CampaignManager::start(config(&dir, 4)).unwrap();
    let id = submit(&manager, r#"{"name": "cut", "scenario": {"nodes": 24}}"#);
    wait_terminal(&manager, &id);
    stop(manager);

    // Interrupted: half its journal.
    let journal_path = CampaignStore::journal_path(&dir, &id).unwrap();
    let (events, _) = Journal::read(&journal_path).unwrap();
    let journal = Journal::create(&journal_path, FsyncPolicy::Never).unwrap();
    for event in &events[..events.len() / 2] {
        journal.append(event).unwrap();
    }
    drop(journal);
    let blocks = block_records(&journal_path);

    // No scheduler slot: the campaign waits in the queue for its resume.
    let manager = CampaignManager::start(config(&dir, 0)).unwrap();
    let queued = manager.snapshot("acme", &id).unwrap();
    assert_eq!(queued.phase, CampaignPhase::Queued);
    assert_eq!(queued.blocks_recovered, blocks);
    let cancelled = manager.cancel("acme", &id).unwrap();
    assert_eq!(cancelled.phase, CampaignPhase::Cancelled);
    let outcome = cancelled
        .outcome
        .clone()
        .expect("a cancelled campaign has an outcome");
    assert!(outcome.cancelled);
    stop(manager);

    let manager = CampaignManager::start(config(&dir, 4)).unwrap();
    let after = manager.snapshot("acme", &id).unwrap();
    stop(manager);
    assert_eq!(after.phase, CampaignPhase::Cancelled);
    assert_eq!(after.outcome, Some(outcome));
    assert_eq!(after.blocks_live, 0);
    assert_eq!(block_records(&journal_path), blocks, "no block ran");
    std::fs::remove_dir_all(&dir).ok();
}
