//! Admission never outruns a verdict.
//!
//! The dispatcher's workers admit their own next instance, under the slot
//! lock, right after the gate/breaker/control verdict on everything
//! completed so far. These properties watch that protocol from the
//! outside — through an executor-side log of instance starts and finishes
//! — on random schedules, failing node sets, breaker thresholds and
//! cancel points, at concurrency 1, 2, 3 and 8:
//!
//! 1. the deterministic part of the outcome (`instances`, `halted`,
//!    `trip`) is concurrency 1's at every concurrency;
//! 2. `instances` and `drained` are disjoint, inside the schedule, and
//!    together exactly what was started; nothing past the halted slot
//!    starts, and never more than `concurrency` instances are in flight;
//! 3. at concurrency 1 the log is literally admit-check-admit: nothing
//!    starts after the halting instance finished;
//! 4. once an executor cancels, each *other* worker starts at most the one
//!    instance it had already admitted — no verdict is taken after the
//!    admission it could have vetoed.
//!
//! Plus the two lifecycle cases the lock protocol has to get right: a
//! pause with work in flight, and a journaled run whose log agrees with
//! its report.

// Test harness: gated executors are driven over channels and sleeps (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet::catalog::builtin_catalog;
use cornet::journal::{FsyncPolicy, Journal, JournalEvent};
use cornet::orchestrator::{
    recover_campaign, AdmissionSlots, CampaignControl, CampaignOutcome, CircuitBreaker, Dispatcher,
    ExecutorRegistry, GlobalState, InstanceReport,
};
use cornet::types::{CornetError, NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::WarArtifact;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// What the executors saw, in the order they saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seen {
    /// First block of an instance.
    Start(u32),
    /// Logged together with the `CampaignControl::cancel` call, by the
    /// last block of the instance that cancels.
    Cancel,
    /// Last block of an instance.
    Finish(u32),
}

type Log = Arc<Mutex<Vec<Seen>>>;

fn node_of(state: &GlobalState) -> u32 {
    let name = state.get("node").and_then(|v| v.as_str()).expect("node");
    name.parse().expect("node input is the node number")
}

fn inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(node.0.to_string()));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// Executors that log starts and finishes; `software_upgrade` fails
/// permanently on `failing` nodes (the instance's last block, then), and
/// the last block of `cancel_at` cancels the campaign.
fn logging_registry(
    log: &Log,
    failing: &BTreeSet<u32>,
    cancel: Option<(u32, CampaignControl)>,
) -> ExecutorRegistry {
    let finish = {
        let log = log.clone();
        move |node: u32| {
            let mut log = log.lock().unwrap();
            if let Some((_, control)) = cancel.as_ref().filter(|(at, _)| *at == node) {
                control.cancel();
                log.push(Seen::Cancel);
            }
            log.push(Seen::Finish(node));
        }
    };
    let mut reg = ExecutorRegistry::new();
    let starts = log.clone();
    reg.register("health_check", move |s| {
        starts.lock().unwrap().push(Seen::Start(node_of(s)));
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    let (failing, failed) = (failing.clone(), finish.clone());
    reg.register("software_upgrade", move |s| {
        if failing.contains(&node_of(s)) {
            failed(node_of(s));
            return Err(CornetError::ExecutionFailed("bad image".into()));
        }
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    reg.register("pre_post_comparison", move |s| {
        finish(node_of(s));
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg
}

fn dispatcher(registry: ExecutorRegistry, concurrency: usize) -> Dispatcher {
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    Dispatcher::new(war, registry, concurrency).unwrap()
}

/// Splitmix64: the scenario is a pure function of the proptest seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

struct Scenario {
    schedule: Schedule,
    failing: BTreeSet<u32>,
    breaker: Option<CircuitBreaker>,
    cancel_at: Option<u32>,
}

impl Scenario {
    /// 1–6 slots of 1–40 instances, nodes numbered in dispatch order.
    fn generate(seed: u64) -> Scenario {
        let mut rng = Rng(seed);
        let mut schedule = Schedule::default();
        let mut nodes = 0u32;
        for slot in 1..=rng.below(6) as u32 + 1 {
            for _ in 0..=rng.below(40) {
                schedule.assignments.insert(NodeId(nodes), Timeslot(slot));
                nodes += 1;
            }
        }
        let fail_pct = rng.below(60);
        let failing = (0..nodes).filter(|_| rng.below(100) < fail_pct).collect();
        let breaker = (rng.below(3) > 0).then(|| CircuitBreaker {
            failure_threshold: (5 + rng.below(70)) as f64 / 100.0,
            min_samples: 1 + rng.below(8) as usize,
        });
        let cancel_at = (rng.below(3) == 0).then(|| rng.below(u64::from(nodes)) as u32);
        Scenario {
            schedule,
            failing,
            breaker,
            cancel_at,
        }
    }

    fn slot_of(&self, node: u32) -> Timeslot {
        self.schedule.assignments[&NodeId(node)]
    }

    fn run(&self, concurrency: usize, cancel_at: Option<u32>) -> (CampaignOutcome, Vec<Seen>) {
        let log = Log::default();
        let control = CampaignControl::new();
        let cancel = cancel_at.map(|at| (at, control.clone()));
        let d = dispatcher(logging_registry(&log, &self.failing, cancel), concurrency);
        let outcome = d
            .run_campaign(
                &self.schedule,
                inputs,
                self.breaker.as_ref(),
                Some(&control),
            )
            .unwrap();
        let log = log.lock().unwrap().clone();
        (outcome, log)
    }
}

/// An instance's outcome without its wall-clock block durations.
fn row(i: &InstanceReport) -> String {
    let blocks: Vec<_> = i
        .blocks
        .iter()
        .map(|b| (&b.block, &b.status, b.attempts, &b.error))
        .collect();
    format!("{} {:?} {:?} {blocks:?}", i.node, i.slot, i.status)
}

fn rows(instances: &[InstanceReport]) -> Vec<String> {
    instances.iter().map(row).collect()
}

fn nodes(instances: &[InstanceReport]) -> Vec<u32> {
    instances.iter().map(|i| i.node.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn admission_never_outruns_a_verdict(seed in any::<u64>()) {
        let sc = Scenario::generate(seed);
        // Concurrency 1, never cancelled: what the breaker alone decides.
        let (uncancelled, _) = sc.run(1, None);
        let (base, _) = sc.run(1, sc.cancel_at);
        for concurrency in [1usize, 2, 3, 8] {
            let (out, log) = sc.run(concurrency, sc.cancel_at);
            let ran = nodes(&out.report.instances);
            let drained = nodes(&out.report.drained);

            // 1. Deterministic outcome. A cancel from inside an executor
            // lands at a timing-dependent completion when others are in
            // flight, so there the prefix is compared, not the length.
            let reference = rows(&uncancelled.report.instances);
            prop_assert!(reference.starts_with(&rows(&out.report.instances)));
            if !out.cancelled || concurrency == 1 {
                prop_assert_eq!(rows(&out.report.instances), rows(&base.report.instances));
                prop_assert_eq!(out.halted, base.halted);
                prop_assert_eq!(&out.trip, &base.trip);
                prop_assert_eq!(out.cancelled, base.cancelled);
            } else if out.trip.is_some() {
                prop_assert_eq!(&out.trip, &uncancelled.trip);
                prop_assert_eq!(ran.len(), reference.len());
            }

            // 2. `instances` is a dispatch-order prefix (nodes are numbered
            // in dispatch order); `drained` lies past it, inside the slot
            // the roll-out halted in, sorted; both are exactly what started.
            prop_assert_eq!(&ran, &(0..ran.len() as u32).collect::<Vec<_>>());
            prop_assert!(drained.windows(2).all(|w| w[0] < w[1]));
            for &d in &drained {
                prop_assert!(d >= ran.len() as u32 && sc.schedule.assignments.contains_key(&NodeId(d)));
                prop_assert_eq!(Some(sc.slot_of(d)), out.halted);
            }
            let started: Vec<u32> = log
                .iter()
                .filter_map(|s| match s { Seen::Start(n) => Some(*n), _ => None })
                .collect();
            let mut accounted: Vec<u32> = ran.iter().chain(&drained).copied().collect();
            accounted.sort_unstable();
            let mut sorted = started.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &accounted, "started == instances + drained, each once");
            let mut in_flight = 0usize;
            for seen in &log {
                match seen {
                    Seen::Start(_) => in_flight += 1,
                    Seen::Finish(_) => in_flight -= 1,
                    Seen::Cancel => {}
                }
                prop_assert!(in_flight <= concurrency);
            }
            prop_assert_eq!(in_flight, 0);

            // 3. Concurrency 1 is admit-check-admit: each instance starts
            // after the one before it finished, and nothing starts after
            // the halting instance.
            if concurrency == 1 {
                prop_assert!(drained.is_empty());
                let expect: Vec<Seen> = ran
                    .iter()
                    .flat_map(|&n| [Seen::Start(n), Seen::Finish(n)])
                    .collect();
                let without_cancel: Vec<Seen> =
                    log.iter().copied().filter(|s| *s != Seen::Cancel).collect();
                prop_assert_eq!(without_cancel, expect);
                if let Some(at) = sc.cancel_at.filter(|_| out.cancelled && out.trip.is_none()) {
                    prop_assert_eq!(ran.last(), Some(&at), "the cancelling instance is the last");
                }
            }

            // 4. After the cancel, only admissions already made can still
            // start: at most one per other worker, all in the same slot.
            if let Some(cancelled_at) = log.iter().position(|s| *s == Seen::Cancel) {
                let late: Vec<u32> = log[cancelled_at..]
                    .iter()
                    .filter_map(|s| match s { Seen::Start(n) => Some(*n), _ => None })
                    .collect();
                prop_assert!(late.len() < concurrency, "{late:?} started after the cancel");
                let at = sc.cancel_at.expect("only a scenario with a cancel logs one");
                prop_assert!(late.iter().all(|&n| sc.slot_of(n) == sc.slot_of(at)));
            }
        }
    }
}

/// Nodes of the held slot, and the concurrency it runs at.
const HELD: u32 = 9;
const IN_FLIGHT: u32 = 3;

/// One slot of `HELD` nodes, run `IN_FLIGHT` at a time, whose
/// `software_upgrade` announces itself on `running` and then waits for a
/// permit on `go` — the test decides when each in-flight instance may
/// finish.
struct Held {
    dispatcher: Dispatcher,
    log: Log,
    running: mpsc::Receiver<u32>,
    go: BTreeMap<u32, mpsc::Sender<()>>,
    finished: mpsc::Receiver<u32>,
    path: std::path::PathBuf,
}

fn held(tag: &str) -> Held {
    let log = Log::default();
    let mut reg = logging_registry(&log, &BTreeSet::new(), None);
    let (running_tx, running) = mpsc::channel();
    let mut go = BTreeMap::new();
    let mut gates = BTreeMap::new();
    for node in 0..HELD {
        let (tx, rx) = mpsc::channel::<()>();
        go.insert(node, tx);
        gates.insert(node, Mutex::new(rx));
    }
    let running_tx = Mutex::new(running_tx);
    reg.register("software_upgrade", move |s| {
        let node = node_of(s);
        running_tx.lock().unwrap().send(node).unwrap();
        gates[&node].lock().unwrap().recv().unwrap();
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    let path =
        std::env::temp_dir().join(format!("cornet-admission-{tag}-{}.wal", std::process::id()));
    let (finished_tx, finished) = mpsc::channel();
    let finished_tx = Mutex::new(finished_tx);
    let journal = Journal::create(&path, FsyncPolicy::EveryN(4))
        .unwrap()
        .with_listener(Arc::new(move |event: &JournalEvent| {
            if let JournalEvent::InstanceFinished { node, .. } = event {
                finished_tx.lock().unwrap().send(*node).unwrap();
            }
        }));
    let dispatcher = dispatcher(reg, IN_FLIGHT as usize).with_journal(journal, BTreeMap::new());
    Held {
        dispatcher,
        log,
        running,
        go,
        finished,
        path,
    }
}

fn held_slot() -> Schedule {
    let mut s = Schedule::default();
    for node in 0..HELD {
        s.assignments.insert(NodeId(node), Timeslot(1));
    }
    s
}

fn started(log: &Log) -> BTreeSet<u32> {
    let log = log.lock().unwrap();
    log.iter()
        .filter_map(|s| match s {
            Seen::Start(n) => Some(*n),
            _ => None,
        })
        .collect()
}

/// Pause with `IN_FLIGHT` instances in flight, let them finish one by
/// one, give a wrongly admitted instance time to show, and then open every
/// gate, so that the run ends whatever it did. Returns which instances had
/// started before the pause and by the end of it; the caller asserts after
/// joining.
fn pause_with_work_in_flight(
    h: &Held,
    control: &CampaignControl,
) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let first: BTreeSet<u32> = (0..IN_FLIGHT).map(|_| h.running.recv().unwrap()).collect();
    control.pause();
    for node in &first {
        h.go[node].send(()).unwrap();
        // Journaled and announced while the campaign is paused.
        h.finished.recv().unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(40));
    let paused = started(&h.log);
    for (_, go) in h.go.iter().filter(|(node, _)| !first.contains(node)) {
        go.send(()).unwrap();
    }
    (first, paused)
}

#[test]
fn a_pause_lets_in_flight_work_finish_and_admits_nothing_until_resume() {
    let h = held("pause");
    let control = CampaignControl::new();
    let (outcome, first, paused) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            h.dispatcher
                .run_campaign(&held_slot(), inputs, None, Some(&control))
                .unwrap()
        });
        let (first, paused) = pause_with_work_in_flight(&h, &control);
        control.resume();
        (run.join().unwrap(), first, paused)
    });
    let _ = std::fs::remove_file(&h.path);
    assert_eq!(
        first,
        BTreeSet::from([0, 1, 2]),
        "the slot starts on its head"
    );
    assert_eq!(paused, first, "nothing is admitted during a pause");
    assert_eq!(
        outcome.report.completed(),
        HELD as usize,
        "everything runs on resume"
    );
    assert!(outcome.report.drained.is_empty() && outcome.halted.is_none());
    assert_eq!(
        nodes(&outcome.report.instances),
        (0..HELD).collect::<Vec<_>>()
    );
}

#[test]
fn a_cancel_during_a_pause_drains_what_was_in_flight() {
    let h = held("pause-cancel");
    let control = CampaignControl::new();
    let (outcome, first, paused) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            h.dispatcher
                .run_campaign(&held_slot(), inputs, None, Some(&control))
                .unwrap()
        });
        let (first, paused) = pause_with_work_in_flight(&h, &control);
        control.cancel();
        (run.join().unwrap(), first, paused)
    });
    let (events, recovery) = Journal::read(&h.path).unwrap();
    let _ = std::fs::remove_file(&h.path);
    assert_eq!(first, BTreeSet::from([0, 1, 2]));
    assert_eq!(paused, first, "nothing is admitted during a pause");
    assert_eq!(started(&h.log), first, "nor after the cancel");
    assert!(outcome.cancelled);
    assert_eq!(outcome.halted, Some(Timeslot(1)));
    // Which of the three reached the lock first is timing; that all three
    // are reported, once, and nothing else ran is not.
    let mut all = nodes(&outcome.report.instances);
    all.extend(nodes(&outcome.report.drained));
    all.sort_unstable();
    assert_eq!(all, vec![0, 1, 2]);
    // The journal holds all three, closed.
    let campaign = recover_campaign(&events, recovery).unwrap();
    assert!(campaign.closed && campaign.partial.is_empty());
    let journaled: Vec<u32> = campaign.completed.keys().map(|&(_, node)| node).collect();
    assert_eq!(journaled, vec![0, 1, 2]);
}

#[test]
fn a_journaled_run_at_concurrency_four_recovers_to_its_own_report() {
    for seed in 0..6u64 {
        let sc = Scenario::generate(0xad_0000 + seed);
        let path = std::env::temp_dir().join(format!(
            "cornet-admission-journaled-{seed}-{}.wal",
            std::process::id()
        ));
        let journal = Journal::create(&path, FsyncPolicy::EveryN(8)).unwrap();
        let log = Log::default();
        let d = dispatcher(logging_registry(&log, &sc.failing, None), 4)
            .with_journal(journal, BTreeMap::new());
        let out = d
            .run_campaign(&sc.schedule, inputs, sc.breaker.as_ref(), None)
            .unwrap();
        let (events, recovery) = Journal::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(!recovery.torn);
        let campaign = recover_campaign(&events, recovery).unwrap();
        assert!(campaign.closed && campaign.partial.is_empty());
        assert_eq!(campaign.trip, out.trip);
        // Everything that finished is in the log — the deterministic prefix
        // and the drained stragglers alike — with the report's outcome.
        let mut reported: BTreeMap<(u32, u32), String> = BTreeMap::new();
        for i in out.report.instances.iter().chain(&out.report.drained) {
            assert!(reported.insert((i.slot.0, i.node.0), row(i)).is_none());
        }
        let recovered: BTreeMap<(u32, u32), String> = campaign
            .completed
            .iter()
            .map(|(k, i)| (*k, row(i)))
            .collect();
        assert_eq!(recovered, reported, "seed {seed}");
    }
}

/// Admission slots that never block and only count: if a slot ran more
/// workers than `capacity`, more permits than that would be out at once.
struct CountingSlots {
    capacity: usize,
    out: AtomicUsize,
    high_water: AtomicUsize,
}

impl AdmissionSlots for CountingSlots {
    fn acquire(&self) {
        let out = self.out.fetch_add(1, Ordering::SeqCst) + 1;
        self.high_water.fetch_max(out, Ordering::SeqCst);
    }
    fn release(&self) {
        self.out.fetch_sub(1, Ordering::SeqCst);
    }
    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[test]
fn admission_capacity_bounds_the_workers_and_changes_no_outcome() {
    for seed in 0..12u64 {
        let sc = Scenario::generate(0xca_0000 + seed);
        let run = |concurrency: usize, slots: Option<Arc<CountingSlots>>| {
            let log = Log::default();
            let mut d = dispatcher(logging_registry(&log, &sc.failing, None), concurrency);
            if let Some(slots) = slots {
                d = d.with_admission(slots);
            }
            d.run_campaign(&sc.schedule, inputs, sc.breaker.as_ref(), None)
                .unwrap()
        };
        let slots = Arc::new(CountingSlots {
            capacity: 2,
            out: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        });
        let capped = run(8, Some(slots.clone()));
        let two = run(2, None);
        assert_eq!(
            rows(&capped.report.instances),
            rows(&two.report.instances),
            "seed {seed}"
        );
        assert_eq!(capped.halted, two.halted, "seed {seed}");
        assert_eq!(capped.trip, two.trip, "seed {seed}");
        // These slots never block, so a third worker would show as a
        // third permit out.
        assert!(slots.high_water.load(Ordering::SeqCst) <= 2, "seed {seed}");
        assert_eq!(slots.out.load(Ordering::SeqCst), 0);
        // What drains behind a halt is timing at any concurrency above 1;
        // that nothing drains without one is not.
        if capped.halted.is_none() {
            assert!(capped.report.drained.is_empty(), "seed {seed}");
        }
    }
}
