//! The journal's one write-ahead guarantee, checked from the executor's
//! side: *no executor runs while a block outcome of its own instance is
//! unwritten.*
//!
//! Every executor of the registry below first reads the journal file
//! (`Journal::read`, exactly what a resume after `kill -9` would find)
//! and checks that each block its instance has finished is already there
//! as a `block_completed` record. It runs under all three fsync policies,
//! at concurrency 1 and 4, on a campaign with one retried block and one
//! instance that fails into its `roll_back` backout.
//!
//! The counts pin where records are written: a 3-block instance makes 3
//! `write`s, and under `Always` at concurrency 1 exactly 3 syncs.

use cornet::catalog::builtin_catalog;
use cornet::journal::{FsyncPolicy, Journal, JournalEvent};
use cornet::obs::{ManualClock, Tracer};
use cornet::orchestrator::{
    DispatchReport, Dispatcher, ExecutorRegistry, GlobalState, RetryPolicy,
};
use cornet::types::{CornetError, NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::{Designer, WarArtifact};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const NODES: u32 = 12;
/// Its `software_upgrade` fails transiently once, then succeeds on retry.
const RETRIED: &str = "enb-3";
/// Its `software_upgrade` fails for good: the backout runs `roll_back`.
const BACKED_OUT: &str = "enb-8";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cornet-wal-{name}-{}.wal", std::process::id()))
}

/// Fig. 4's upgrade workflow with a `roll_back` backout.
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

fn schedule() -> Schedule {
    let mut s = Schedule::default();
    for i in 0..NODES {
        s.assignments.insert(NodeId(i), Timeslot(i / 6 + 1));
    }
    s
}

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(format!("enb-{}", node.0)));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// What the executors saw: per node, the blocks whose executor started,
/// one entry a block (a retry does not add one), and every violation.
#[derive(Default)]
struct Witness {
    started: BTreeMap<String, Vec<String>>,
    violations: Vec<String>,
}

/// The block names of `node`'s `block_completed` records in the file.
fn on_disk(path: &Path, node: &str) -> Vec<String> {
    let (events, _) = Journal::read(path).expect("the journal reads while it is written");
    events
        .iter()
        .filter_map(|event| match event {
            JournalEvent::BlockCompleted(rec) if format!("enb-{}", rec.node) == node => {
                Some(rec.block.clone())
            }
            _ => None,
        })
        .collect()
}

/// A registry whose every executor first checks the journal at `path`:
/// the blocks its instance started before this one have finished, so each
/// must be on disk. Blocks of one instance run in sequence, so a block
/// whose executor starts has finished every block started before it.
fn checking_registry(path: PathBuf, witness: Arc<Mutex<Witness>>) -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    let retried = Arc::new(AtomicBool::new(false));
    for block in [
        "health_check",
        "software_upgrade",
        "pre_post_comparison",
        "roll_back",
    ] {
        let (path, witness, retried) = (path.clone(), witness.clone(), retried.clone());
        reg.register(block, move |state: &mut GlobalState| {
            let node = state
                .get("node")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_owned();
            let finished = {
                let mut w = witness.lock().unwrap();
                let started = w.started.entry(node.clone()).or_default();
                if started.last().map(String::as_str) != Some(block) {
                    started.push(block.to_owned());
                }
                started[..started.len() - 1].to_vec()
            };
            let written = on_disk(&path, &node);
            if written != finished {
                witness.lock().unwrap().violations.push(format!(
                    "{block} on {node}: finished {finished:?}, on disk {written:?}"
                ));
            }
            match block {
                "health_check" => state.insert("healthy".into(), ParamValue::from(true)),
                "pre_post_comparison" => state.insert("passed".into(), ParamValue::from(true)),
                "software_upgrade" if node == BACKED_OUT => {
                    return Err(CornetError::ExecutionFailed("bad image".into()));
                }
                "software_upgrade" if node == RETRIED && !retried.swap(true, Ordering::SeqCst) => {
                    return Err(CornetError::TransientFailure("flaky link".into()));
                }
                _ => state.insert("previous_version".into(), ParamValue::from("19.3")),
            };
            Ok(())
        });
    }
    reg.set_retry_policy("software_upgrade", RetryPolicy::with_attempts(2));
    reg
}

/// Run the campaign journaled at `path`, returning the report, the
/// executors' witness and the tracer's `journal.writes`/`journal.fsyncs`.
fn run(
    policy: FsyncPolicy,
    concurrency: usize,
    path: &Path,
) -> (DispatchReport, Witness, u64, u64) {
    let witness = Arc::new(Mutex::new(Witness::default()));
    let tracer = Tracer::with_clock(ManualClock::ticking(1));
    let journal = Journal::create(path, policy)
        .unwrap()
        .with_tracer(tracer.clone());
    let report = Dispatcher::new(
        war(),
        checking_registry(path.to_owned(), witness.clone()),
        concurrency,
    )
    .unwrap()
    .with_journal(journal, BTreeMap::new())
    .run(&schedule(), inputs)
    .unwrap();
    let counters = tracer.metrics().unwrap().snapshot();
    let witness = std::mem::take(&mut *witness.lock().unwrap());
    (
        report,
        witness,
        counters.counter("journal.writes"),
        counters.counter("journal.fsyncs"),
    )
}

#[test]
fn no_executor_runs_while_a_block_outcome_of_its_instance_is_unwritten() {
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(4),
        FsyncPolicy::Never,
    ] {
        for concurrency in [1, 4] {
            let path = tmp(&format!("{policy}-{concurrency}"));
            let (report, witness, writes, fsyncs) = run(policy, concurrency, &path);
            let case = format!("{policy} at concurrency {concurrency}");
            assert!(
                witness.violations.is_empty(),
                "{case}: {:#?}",
                witness.violations
            );
            // The campaign took both paths: one block retried, one
            // instance backed out, the rest completed.
            assert_eq!(report.completed(), NODES as usize - 1, "{case}");
            assert_eq!(report.rolled_back(), 1, "{case}");
            let retried = report.instances.iter().flat_map(|i| &i.blocks);
            assert_eq!(retried.filter(|b| b.attempts == 2).count(), 1, "{case}");
            // Every instance runs 3 blocks, so makes 3 `write`s; the
            // campaign adds its opening and closing records.
            let blocks: usize = report.instances.iter().map(|i| i.blocks.len()).sum();
            assert_eq!(blocks, 3 * NODES as usize, "{case}");
            assert_eq!(writes, 2 + 3 * u64::from(NODES), "{case}");
            if (policy, concurrency) == (FsyncPolicy::Always, 1) {
                assert_eq!(fsyncs, writes, "{case}: one sync a write");
            }
            // A closed journal is its records and nothing after them.
            let (events, rec) = Journal::read(&path).unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len, rec.valid_len, "{case}");
            assert!(!rec.torn, "{case}");
            // Admission, every block and the finish of each instance.
            assert_eq!(events.len(), 2 + 5 * NODES as usize, "{case}");
            std::fs::remove_file(&path).ok();
        }
    }
}
