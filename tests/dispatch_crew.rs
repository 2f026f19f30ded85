//! A dispatch's workers live for the whole dispatch.
//!
//! The dispatcher starts its helper threads once per dispatch, not once
//! per slot: over many slots, the executors of one dispatch run on at
//! most `min(concurrency, admission capacity)` distinct threads, and at
//! concurrency 1 on the calling thread alone. Thread ids are never
//! reused within a process, so a thread spawned per slot would show here
//! as one more id per slot; the test needs no timing.

use cornet::catalog::builtin_catalog;
use cornet::daemon::QuotaBook;
use cornet::orchestrator::{AdmissionSlots, Dispatcher, ExecutorRegistry, GlobalState};
use cornet::types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::WarArtifact;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

const SLOTS: u32 = 24;
const PER_SLOT: u32 = 8;

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(node.0.to_string()));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// The distinct threads the executors of one dispatch ran on.
fn executor_threads(
    concurrency: usize,
    slots: Option<Arc<dyn AdmissionSlots>>,
) -> HashSet<ThreadId> {
    let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
    let mut reg = ExecutorRegistry::new();
    for (block, output) in [
        ("health_check", "healthy"),
        ("software_upgrade", "upgraded"),
        ("pre_post_comparison", "passed"),
    ] {
        let seen = seen.clone();
        reg.register(block, move |s| {
            seen.lock().unwrap().insert(thread::current().id());
            s.insert(output.into(), ParamValue::from(true));
            Ok(())
        });
    }
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    let mut d = Dispatcher::new(war, reg, concurrency).unwrap();
    if let Some(slots) = slots {
        d = d.with_admission(slots);
    }
    let mut schedule = Schedule::default();
    for i in 0..SLOTS * PER_SLOT {
        schedule
            .assignments
            .insert(NodeId(i), Timeslot(i / PER_SLOT + 1));
    }
    let report = d.run(&schedule, inputs).unwrap();
    assert_eq!(report.completed(), (SLOTS * PER_SLOT) as usize);
    let seen = seen.lock().unwrap().clone();
    seen
}

#[test]
fn concurrency_one_runs_on_the_calling_thread_only() {
    let threads = executor_threads(1, None);
    assert_eq!(threads, HashSet::from([thread::current().id()]));
}

#[test]
fn a_dispatch_runs_on_at_most_concurrency_threads() {
    for concurrency in [2, 4] {
        let threads = executor_threads(concurrency, None);
        assert!(
            threads.len() <= concurrency,
            "{} threads over {SLOTS} slots at concurrency {concurrency}",
            threads.len()
        );
    }
}

#[test]
fn a_quota_caps_the_threads_of_a_dispatch() {
    let book = QuotaBook::new(8, 2, BTreeMap::new());
    let handle = book.handle("tenant");
    assert_eq!(handle.capacity(), 2);
    let threads = executor_threads(4, Some(handle));
    assert!(
        threads.len() <= 2,
        "{} threads over {SLOTS} slots at concurrency 4 under a quota of 2",
        threads.len()
    );
}
