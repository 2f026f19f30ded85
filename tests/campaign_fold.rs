//! One campaign fold: a campaign's outcome is what its journal folds to.
//!
//! Over seeds × concurrency {1, 4} × {clean, breaker-halted with drains,
//! cancelled mid-run, cancelled before start}, the fold of the whole
//! journal equals the `CampaignResult` built from the dispatcher's own
//! `CampaignOutcome`, and the fold of every cut of the journal gives the
//! counters a live listener held at that record. `tests/daemon_restart.rs`
//! is the same property seen through `cornetd` across a restart.

use cornet::daemon::{report_fingerprint, CampaignResult, JournalScenario};
use cornet::journal::{FsyncPolicy, Journal, JournalEvent};
use cornet::orchestrator::{CampaignControl, CampaignFold, CampaignOutcome, Dispatcher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cornet-fold-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 24 nodes in one slot, 70 % faults without retries, and a breaker that
/// trips at 30 % after 2 samples: at concurrency 4 it halts with
/// instances in flight, which drain.
fn breaker_scenario(seed: u64, concurrency: usize) -> JournalScenario {
    JournalScenario {
        seed,
        nodes: 24,
        per_slot: 24,
        concurrency,
        fault_rate_milli: 700,
        attempts: 1,
        breaker_threshold_milli: 300,
        breaker_min_samples: 2,
        ..JournalScenario::default()
    }
}

fn clean_scenario(seed: u64, concurrency: usize) -> JournalScenario {
    JournalScenario {
        seed,
        concurrency,
        ..JournalScenario::default()
    }
}

#[derive(Clone, Copy, Debug)]
enum Ending {
    Clean,
    Breaker,
    CancelledMidRun,
    CancelledBeforeStart,
}

/// What the old live log counted after each record: records, block
/// records and finished instances.
type Counters = (usize, usize, usize);

/// What the dispatcher itself says the campaign came to.
fn result_of(outcome: &CampaignOutcome) -> CampaignResult {
    CampaignResult {
        fingerprint: report_fingerprint(&outcome.report),
        completed: outcome.report.completed(),
        failed: outcome.report.failures().len(),
        rolled_back: outcome.report.rolled_back(),
        trip: outcome.trip.as_ref().map(|t| t.block.clone()),
        cancelled: outcome.cancelled,
    }
}

/// Run one journaled campaign; return the dispatcher's outcome, the
/// journal's records and the live counters after each of them.
fn journaled(
    run: Ending,
    seed: u64,
    concurrency: usize,
    path: &Path,
) -> (CampaignOutcome, Vec<JournalEvent>, Vec<Counters>) {
    let scenario = match run {
        Ending::Breaker => breaker_scenario(seed, concurrency),
        _ => clean_scenario(seed, concurrency),
    };
    let control = CampaignControl::new();
    if let Ending::CancelledBeforeStart = run {
        control.cancel();
    }
    let seen = Arc::new(Mutex::new((Vec::new(), Vec::new(), (0, 0, 0))));
    let tap = {
        let (seen, control) = (Arc::clone(&seen), control.clone());
        move |event: &JournalEvent| {
            let mut seen = seen.lock().unwrap();
            let (events, live, counters): &mut (Vec<_>, Vec<_>, Counters) = &mut seen;
            counters.0 += 1;
            match event {
                JournalEvent::BlockCompleted(_) => counters.1 += 1,
                JournalEvent::InstanceFinished { .. } => counters.2 += 1,
                _ => {}
            }
            events.push(event.clone());
            live.push(*counters);
            if let (Ending::CancelledMidRun, 5) = (run, counters.2) {
                control.cancel();
            }
        }
    };
    let journal = Journal::create(path, FsyncPolicy::Never)
        .unwrap()
        .with_listener(Arc::new(tap));
    let outcome = Dispatcher::new(
        scenario.war().unwrap(),
        scenario.registry(None, None),
        concurrency,
    )
    .unwrap()
    .with_journal(journal, scenario.meta())
    .run_campaign(
        &scenario.schedule(),
        JournalScenario::inputs,
        Some(&scenario.breaker()),
        Some(&control),
    )
    .unwrap();
    let (events, live, _) = std::mem::take(&mut *seen.lock().unwrap());
    (outcome, events, live)
}

fn fold(events: &[JournalEvent]) -> CampaignFold {
    let mut fold = CampaignFold::default();
    for event in events {
        fold.apply(event).unwrap();
    }
    fold
}

#[test]
fn the_fold_of_a_journal_is_the_dispatchers_outcome_and_its_cuts_the_live_counters() {
    let dir = tmp("oracle");
    let path = dir.join("journal.wal");
    let mut drained = 0;
    for seed in 0..4 {
        for concurrency in [1, 4] {
            for run in [
                Ending::Clean,
                Ending::Breaker,
                Ending::CancelledMidRun,
                Ending::CancelledBeforeStart,
            ] {
                let case = format!("{run:?} seed {seed} concurrency {concurrency}");
                let (outcome, events, live) = journaled(run, seed, concurrency, &path);
                assert_eq!(Journal::read(&path).unwrap().0, events, "{case}");
                let expected = result_of(&outcome);
                match run {
                    Ending::Clean => assert!(outcome.halted.is_none(), "{case}"),
                    Ending::Breaker => assert!(expected.trip.is_some(), "{case}"),
                    Ending::CancelledMidRun => {
                        assert!(expected.cancelled, "{case}");
                        assert!(outcome.report.instances.len() < 24, "{case}");
                    }
                    Ending::CancelledBeforeStart => {
                        assert!(expected.cancelled, "{case}");
                        assert!(outcome.report.instances.is_empty(), "{case}");
                    }
                }
                drained += outcome.report.drained.len();
                let whole = fold(&events);
                assert_eq!(whole.result(), Some(&expected), "{case}");
                for cut in 0..events.len() {
                    let prefix = fold(&events[..cut]);
                    let counters = (prefix.events(), prefix.blocks(), prefix.instances_done());
                    let want = if cut == 0 { (0, 0, 0) } else { live[cut - 1] };
                    assert_eq!(counters, want, "{case}, cut {cut}");
                    assert_eq!(prefix.result(), None, "{case}, cut {cut}: not closed yet");
                }
                let all = (whole.events(), whole.blocks(), whole.instances_done());
                assert_eq!(Some(&all), live.last(), "{case}");
            }
        }
    }
    assert!(drained > 0, "some halt drained instances in flight");
    std::fs::remove_dir_all(&dir).ok();
}
