//! Multi-campaign crash recovery (the daemon's bread and butter): K
//! campaigns run **interleaved** — concurrently, one journal each, the
//! way `cornetd` hosts them — then the "process" dies. Some journals are
//! left complete, some are cut at a record boundary, some carry a torn
//! half-written tail. Recovering every journal must reproduce each
//! campaign's exact outcome fingerprint, and no block whose completion
//! survived in a journal may execute a second time.
//!
//! Uses the shared [`JournalScenario`] (the same campaign shape `cornet
//! run --journal` and `cornetd` execute) with a zero fault rate so the
//! executor-invocation count is exact: every one of the `nodes × 3`
//! blocks runs exactly once across the original run and the recovery,
//! no matter where the cut landed.

use cornet::daemon::{report_fingerprint, ExecutionWitness, JournalScenario};
use cornet::journal::{boundaries, FsyncPolicy, Journal, JournalEvent};
use cornet::orchestrator::{recover_campaign, Dispatcher};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BLOCKS_PER_INSTANCE: usize = 3; // health_check, software_upgrade, pre_post_comparison

fn tmp(tag: &str, i: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cornet-drec-{tag}-{i}-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id(),
    ))
}

fn scenario(i: usize, seed: u64, nodes: u32) -> JournalScenario {
    JournalScenario {
        seed: seed.wrapping_add(i as u64),
        nodes,
        fault_rate_milli: 0, // exact invocation accounting
        latency_ms: 1,       // simulated durations → deterministic fingerprints
        ..JournalScenario::default()
    }
}

/// Run one campaign to completion with a journal attached, counting
/// executor invocations, and return its outcome fingerprint.
fn run_journaled(s: &JournalScenario, path: &PathBuf, witness: ExecutionWitness) -> u64 {
    let journal = Journal::create(path, FsyncPolicy::Always).unwrap();
    let reg = s.registry(None, Some(witness));
    let (report, trip) = Dispatcher::new(s.war().unwrap(), reg, s.concurrency)
        .unwrap()
        .with_journal(journal, s.meta())
        .run_campaign(
            &s.schedule(),
            JournalScenario::inputs,
            Some(&s.breaker()),
            None,
        )
        .map(|o| (o.report, o.trip))
        .unwrap();
    assert!(trip.is_none(), "fault-free campaign never trips");
    report_fingerprint(&report)
}

/// Recover a (possibly cut, possibly torn) journal exactly as `cornetd`
/// does on restart: rebuild the scenario from the journal's own
/// metadata, then resume. Returns the finished campaign's fingerprint
/// and how many blocks actually executed during recovery.
fn recover_one(path: &PathBuf) -> (u64, usize) {
    let campaign = Journal::read(path)
        .and_then(|(events, recovery)| recover_campaign(&events, recovery))
        .unwrap();
    let s = JournalScenario::from_meta(&campaign.meta).unwrap();
    let witness: ExecutionWitness = Arc::new(AtomicUsize::new(0));
    let reg = s.registry(None, Some(witness.clone()));
    let (report, _trip) = Dispatcher::new(s.war().unwrap(), reg, s.concurrency)
        .unwrap()
        .resume_from_journal(path, FsyncPolicy::Always, JournalScenario::inputs, None)
        .unwrap();
    (report_fingerprint(&report), witness.load(Ordering::SeqCst))
}

/// How many block completions survive in the journal file at `path`
/// (tolerating a torn tail, like recovery itself).
fn surviving_blocks(path: &PathBuf) -> usize {
    let (events, _recovery) = Journal::read(path).unwrap();
    events
        .iter()
        .filter(|e| matches!(e, JournalEvent::BlockCompleted(_)))
        .count()
}

/// What the driver leaves behind for one campaign's journal.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// The campaign finished; its journal is intact.
    Complete,
    /// Killed at a record boundary `percent` of the way through.
    Cut { percent: u32 },
    /// Killed mid-`write(2)`: cut at a boundary, then a torn partial
    /// record after it.
    Torn { percent: u32 },
}

fn apply_damage(path: &PathBuf, damage: Damage) {
    let bytes = std::fs::read(path).unwrap();
    let cuts = boundaries(&bytes);
    assert!(!cuts.is_empty());
    let keep = |percent: u32| cuts[(percent as usize * (cuts.len() - 1)) / 100];
    match damage {
        Damage::Complete => {}
        Damage::Cut { percent } => std::fs::write(path, &bytes[..keep(percent)]).unwrap(),
        Damage::Torn { percent } => {
            let mut kept = bytes[..keep(percent)].to_vec();
            kept.extend_from_slice(b"{\"ev\":\"block_completed\",\"node\":9");
            std::fs::write(path, kept).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// K campaigns run interleaved, the process dies, and every journal —
    /// complete, cut, or torn — recovers to the uninterrupted outcome
    /// with zero re-executed blocks.
    #[test]
    fn interleaved_journals_recover_exactly_with_zero_reexecution(
        seed in any::<u64>(),
        nodes in 4u32..9,
        cut_percent in 0u32..101,
        torn_percent in 0u32..101,
    ) {
        // One always-complete, one always-torn, two randomly cut — "some
        // complete, some torn" holds in every generated case.
        let damages = [
            Damage::Complete,
            Damage::Torn { percent: torn_percent },
            Damage::Cut { percent: cut_percent },
            Damage::Cut { percent: 100 - cut_percent },
        ];
        let paths: Vec<PathBuf> = (0..damages.len()).map(|i| tmp("mix", i)).collect();

        // Phase 1: all K campaigns execute concurrently, each appending
        // to its own journal — the interleaving cornetd produces.
        let runs: Vec<_> = damages
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let s = scenario(i, seed, nodes);
                let path = paths[i].clone();
                let witness: ExecutionWitness = Arc::new(AtomicUsize::new(0));
                let w = witness.clone();
                (
                    std::thread::spawn(move || run_journaled(&s, &path, w)),
                    witness,
                )
            })
            .collect();
        let mut clean_fingerprints = Vec::new();
        let mut executed = Vec::new();
        for (handle, witness) in runs {
            clean_fingerprints.push(handle.join().unwrap());
            executed.push(witness.load(Ordering::SeqCst));
        }
        let total_blocks = nodes as usize * BLOCKS_PER_INSTANCE;
        for &count in &executed {
            prop_assert_eq!(count, total_blocks);
        }

        // Phase 2: the "kill" — damage the journals as configured.
        for (path, &damage) in paths.iter().zip(&damages) {
            apply_damage(path, damage);
        }

        // Phase 3: recover every campaign; outcomes must match the clean
        // runs exactly, and only never-journaled blocks may execute.
        for (i, path) in paths.iter().enumerate() {
            let survived = surviving_blocks(path);
            let (fingerprint, reexecuted) = recover_one(path);
            prop_assert_eq!(
                fingerprint,
                clean_fingerprints[i],
                "campaign {} ({:?}) diverged after recovery",
                i,
                damages[i]
            );
            prop_assert_eq!(
                reexecuted,
                total_blocks - survived,
                "campaign {} ({:?}) re-executed journaled blocks",
                i,
                damages[i]
            );
            std::fs::remove_file(path).ok();
        }
    }
}

/// The degenerate-but-critical case: every journal complete. Recovery is
/// pure replay — zero executor invocations across all campaigns.
#[test]
fn complete_journals_replay_without_any_execution() {
    let paths: Vec<PathBuf> = (0..3).map(|i| tmp("replay", i)).collect();
    let mut clean = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let s = scenario(i, 7, 6);
        clean.push(run_journaled(&s, path, Arc::new(AtomicUsize::new(0))));
    }
    for (i, path) in paths.iter().enumerate() {
        let (fingerprint, reexecuted) = recover_one(path);
        assert_eq!(fingerprint, clean[i]);
        assert_eq!(reexecuted, 0, "replay must not re-execute anything");
        std::fs::remove_file(path).ok();
    }
}
