//! The change dispatcher (§3.4).
//!
//! "After the change schedule plan … is acknowledged by the operations
//! teams, it is sent to the dispatcher along with the corresponding change
//! workflow. The dispatcher automatically invokes the change orchestrator
//! at the specific time for the scheduled instances." Instances of one
//! slot run concurrently up to a limit; as an instance finishes, the next
//! is triggered.
//!
//! # Continuous admission, no hand-off
//!
//! A dispatch runs on a **crew**: the calling thread plus
//! `min(concurrency, admission capacity) − 1` helper threads, started
//! once per dispatch and parked between slots (none at concurrency 1). A
//! slot is run by `min(concurrency, runnable, admission capacity)` of
//! them as **self-admitting workers**. A worker runs one instance, then
//! takes the crew's one lock and, under it: deposits its report in a
//! reorder buffer, advances the contiguous completed prefix through the
//! breaker (once per instance, in dispatch order), asks the campaign
//! control, and — if nobody halted — takes the next dispatch index *for
//! itself*. There is no wave barrier, so one straggler never idles the
//! other workers; and there is no queue, collector thread or condition
//! variable between a completion and the next admission, so an instance
//! costs one uncontended lock, not two thread wake-ups. A slot costs a
//! wake-up per helper it uses and one at its end, not a thread spawn and
//! join (DESIGN.md § *Continuous-admission dispatch* has the protocol
//! and the arithmetic). A panic on any worker ends the dispatch in a
//! panic: the crew is told to quit, so nothing waits on a dead worker.
//!
//! Three invariants hold at every concurrency:
//!
//! * [`DispatchReport::instances`] is always in deterministic dispatch
//!   order (slot-major, node order within the slot) no matter how threads
//!   interleave.
//! * Gate/breaker decisions are evaluated on dispatch-order *prefixes* of
//!   completed instances, and each is taken before the admission it could
//!   veto, so a halt happens after the same instance on every run —
//!   concurrency changes wall-clock time, never outcomes.
//! * A halt stops **admission** immediately but lets in-flight work
//!   finish; those instances are reported separately (see
//!   [`DispatchReport::drained`]) because which instances were in flight
//!   at halt time is inherently timing-dependent.
//!
//! Slot boundaries remain barriers: a timeslot is a scheduling promise to
//! operations teams, so slot N+1 never starts before slot N finished.

use crate::control::{AdmissionSlots, CampaignControl, SlotGuard};
use crate::engine::{BlockExecution, BlockSink, Engine, InstanceStatus, ReplayRow};
use crate::executor::{ExecutorRegistry, GlobalState};
use crate::falloutanalysis::FalloutAnalysis;
use crate::recovery::{block_record, recover_campaign, status_parts, RecoveredCampaign};
use crate::resilience::{BreakerTrip, CircuitBreaker};
use cornet_journal::{FsyncPolicy, Halt, Journal, JournalEvent, Recovery};
use cornet_obs::{SpanId, Tracer};
use cornet_types::{CornetError, NodeId, Result, Schedule, Timeslot};
use cornet_workflow::{WarArtifact, Workflow};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Result of one workflow instance run by the dispatcher.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceReport {
    /// Node the change ran on.
    pub node: NodeId,
    /// Slot the instance was dispatched in.
    pub slot: Timeslot,
    /// Final status.
    pub status: InstanceStatus,
    /// Full per-block execution log: status, duration, error detail,
    /// attempt count — everything fall-out analysis groups on.
    pub blocks: Vec<BlockExecution>,
}

/// Aggregated dispatch outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DispatchReport {
    /// Per-instance results in dispatch order. Deterministic: when a gate
    /// or breaker halts the roll-out, this is truncated to an exact
    /// dispatch-order prefix — the same prefix on every run, regardless of
    /// thread scheduling or concurrency.
    pub instances: Vec<InstanceReport>,
    /// Instances that were already in flight when a halt was requested and
    /// completed while the pool drained. *Which* instances land here
    /// depends on worker timing, so they are quarantined from the
    /// deterministic `instances` prefix. Sorted by dispatch index; empty
    /// unless a halt interrupted a slot mid-flight.
    pub drained: Vec<InstanceReport>,
}

/// Outcome of a campaign run: the report plus where and why it stopped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignOutcome {
    /// Per-instance results (see [`DispatchReport`]).
    pub report: DispatchReport,
    /// The slot the roll-out stopped at: the one a breaker trip or cancel
    /// interrupted (or kept from starting), or the one whose gate said
    /// no. `None` when every slot ran to its end.
    pub halted: Option<Timeslot>,
    /// The breaker trip that halted admission, if any.
    pub trip: Option<BreakerTrip>,
    /// True when a [`CampaignControl::cancel`] halted the campaign.
    pub cancelled: bool,
}

impl DispatchReport {
    /// Instances that completed a start→end flow. Counts only the
    /// deterministic `instances` prefix, never `drained`.
    pub fn completed(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.status == InstanceStatus::Completed)
            .count()
    }

    /// Instances whose backout flow reverted them after a permanent
    /// failure.
    pub fn rolled_back(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| matches!(i.status, InstanceStatus::RolledBack(_)))
            .count()
    }

    /// Instances that failed, with the offending block.
    pub fn failures(&self) -> Vec<(&InstanceReport, &str)> {
        self.instances
            .iter()
            .filter_map(|i| match &i.status {
                InstanceStatus::Failed(block) => Some((i, block.as_str())),
                _ => None,
            })
            .collect()
    }
}

/// Dispatches workflow instances according to a schedule.
pub struct Dispatcher {
    war: WarArtifact,
    registry: ExecutorRegistry,
    /// The maximum number of instances in flight at any moment within a
    /// slot — the number of workers a slot runs on.
    pub concurrency: usize,
    /// Observability handle. Noop by default; attach one with
    /// [`Dispatcher::with_tracer`] to record dispatch → slot → instance →
    /// block span trees and per-status counters.
    tracer: Tracer,
    /// Durable campaign journal: when attached, every lifecycle event is
    /// written ahead so a crashed campaign can resume without repeating
    /// completed work.
    journal: Option<Journal>,
    /// Free-form metadata recorded in the journal's opening record.
    meta: BTreeMap<String, String>,
    /// Capacity gate acquired around each instance execution (per-tenant
    /// quotas in service mode). `None` = unthrottled.
    permits: Option<Arc<dyn AdmissionSlots>>,
}

/// One unit of work inside a slot when resuming: either a report the
/// journal proves finished (re-admitted without execution), or an instance
/// to run — with the journaled prefix of its block log to replay first.
enum SlotItem {
    /// Fully recorded: flows through the reorder buffer and the gate like
    /// a live completion, but never touches a worker.
    Done(InstanceReport),
    /// Needs execution; `replay` restores any journaled prefix.
    Run {
        /// Target node.
        node: NodeId,
        /// Journaled rows to replay before fresh execution (empty on a
        /// normal, non-resumed run).
        replay: Vec<ReplayRow>,
    },
}

/// An instance's journal records, held until the write-ahead rule needs
/// them on file: *no executor runs while a block outcome of its own
/// instance is unwritten*. They are written with one `write` just before
/// an executor is invoked while a block outcome is pending, and when the
/// instance finishes. So `instance_admitted` rides with the first block's
/// record and `instance_finished` with the last block's, and a k-block
/// instance costs k `write`s (and, under `Always`, k syncs).
struct InstanceLog {
    journal: Journal,
    node: NodeId,
    slot: Timeslot,
    pending: Mutex<Vec<JournalEvent>>,
}

impl InstanceLog {
    fn new(journal: &Journal, node: NodeId, slot: Timeslot) -> InstanceLog {
        // Re-admission on resume writes a duplicate `instance_admitted`,
        // which recovery treats idempotently.
        let admitted = JournalEvent::InstanceAdmitted {
            node: node.0,
            slot: slot.0,
        };
        InstanceLog {
            journal: journal.clone(),
            node,
            slot,
            pending: Mutex::new(vec![admitted]),
        }
    }

    /// Write the pending records with the instance's last one,
    /// `instance_finished`.
    fn finish(&self, status: &InstanceStatus) {
        let (status, detail) = status_parts(status);
        let mut pending = self.pending();
        pending.push(JournalEvent::InstanceFinished {
            node: self.node.0,
            slot: self.slot.0,
            status,
            detail,
        });
        self.write(&mut pending);
    }

    /// One `write` for what is pending. A failed write is dropped like a
    /// dead journal's: the records are what a resume finds missing.
    fn write(&self, pending: &mut Vec<JournalEvent>) {
        let _ = self.journal.append_all(pending);
        pending.clear();
    }

    fn pending(&self) -> MutexGuard<'_, Vec<JournalEvent>> {
        self.pending.lock().expect(
            "only the instance's own thread holds its records, and it ends with a panic there",
        )
    }
}

impl BlockSink for InstanceLog {
    fn before_execute(&self) {
        let mut pending = self.pending();
        if matches!(pending.last(), Some(JournalEvent::BlockCompleted(_))) {
            self.write(&mut pending);
        }
    }

    fn completed(&self, exec: &BlockExecution, state: &GlobalState, backout: bool) {
        let record = block_record(self.node, self.slot, exec, state, backout);
        self.pending().push(JournalEvent::BlockCompleted(record));
    }
}

/// The go/no-go question asked after a slot ran to its end, with the
/// report so far; `false` halts the roll-out.
type SlotGate<'a> = &'a mut dyn FnMut(Timeslot, &DispatchReport) -> bool;

impl Dispatcher {
    /// Create a dispatcher for one deployed workflow. A concurrency of
    /// zero is a misconfiguration and is rejected loudly rather than
    /// silently clamped.
    pub fn new(war: WarArtifact, registry: ExecutorRegistry, concurrency: usize) -> Result<Self> {
        if concurrency == 0 {
            return Err(CornetError::InvalidInput(
                "dispatcher concurrency must be at least 1, got 0".into(),
            ));
        }
        Ok(Dispatcher {
            war,
            registry,
            concurrency,
            tracer: Tracer::noop(),
            journal: None,
            meta: BTreeMap::new(),
            permits: None,
        })
    }

    /// Attach a tracer: every subsequent run records a `dispatch` →
    /// `slot` → `instance` → `block` span tree plus per-status counters.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a durable journal: every subsequent run write-ahead-logs its
    /// lifecycle (campaign opened, admissions, block completions with
    /// state snapshots, instance finishes, breaker trips, campaign
    /// closed), making the campaign resumable after a crash via
    /// [`Dispatcher::resume_from_journal`]. `meta` is free-form campaign
    /// identity recorded in the opening record.
    pub fn with_journal(mut self, journal: Journal, meta: BTreeMap<String, String>) -> Self {
        self.journal = Some(journal);
        self.meta = meta;
        self
    }

    /// Attach an admission-slot gate: each instance execution holds one
    /// slot for its duration. The daemon's per-tenant quota book plugs in
    /// here so a single tenant cannot monopolise the worker pool.
    pub fn with_admission(mut self, slots: Arc<dyn AdmissionSlots>) -> Self {
        self.permits = Some(slots);
        self
    }

    /// The dispatcher's tracer (noop unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Execute the schedule slot by slot. `inputs_for` supplies each
    /// node's workflow input state (node name, target version, …).
    pub fn run(
        &self,
        schedule: &Schedule,
        inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
    ) -> Result<DispatchReport> {
        self.drive(schedule, None, &inputs_for, None, None, None)
            .map(|o| o.report)
    }

    /// Execute the schedule with a go/no-go gate between slots and,
    /// optionally, a breaker inside them: after each slot that ran to its
    /// end, `gate(slot, report_so_far)` is consulted; `false` halts the
    /// roll-out ("a decision is made to halt the roll-out to the rest of
    /// the network", §2.1). A breaker trip halts mid-slot as in
    /// [`Dispatcher::run_campaign`], and the gate is not asked about a
    /// slot the breaker already stopped. [`CampaignOutcome::halted`] names
    /// the slot either of them stopped the roll-out at.
    pub fn run_gated(
        &self,
        schedule: &Schedule,
        inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
        breaker: Option<&CircuitBreaker>,
        mut gate: impl FnMut(Timeslot, &DispatchReport) -> bool,
    ) -> Result<CampaignOutcome> {
        self.drive(schedule, None, &inputs_for, breaker, None, Some(&mut gate))
    }

    /// Execute the schedule as a controlled campaign: an optional breaker
    /// plus an optional [`CampaignControl`].
    ///
    /// With a breaker, the running fall-out analysis is updated on **every
    /// instance completion** (taken in dispatch order) and fed to it; a
    /// trip stops admission immediately — mid-slot, not just at the next
    /// slot boundary — the paper's "decision is made to halt the roll-out"
    /// (§2.1) taken by software instead of an operator. Already-running
    /// instances are drained into [`DispatchReport::drained`]; no new ones
    /// start. The trip point is deterministic: breaker checks consume
    /// completed instances in dispatch order, so the same schedule,
    /// registry, and breaker trip after the same instance at any
    /// concurrency.
    ///
    /// The control is consulted at every admission point — pause blocks
    /// new admissions while in-flight instances finish, cancel halts
    /// exactly like a breaker trip (in-flight work drains, the journal is
    /// closed). This is the entry point the campaign manager drives.
    pub fn run_campaign(
        &self,
        schedule: &Schedule,
        inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
        breaker: Option<&CircuitBreaker>,
        control: Option<&CampaignControl>,
    ) -> Result<CampaignOutcome> {
        self.drive(schedule, None, &inputs_for, breaker, control, None)
    }

    /// Resume a journaled campaign after a crash.
    ///
    /// Reads the journal at `path`, rebuilds the campaign from its valid
    /// records, and only then takes the write handle, truncating any torn
    /// tail: a file whose records do not fold is refused as it is. Then it
    /// re-runs the schedule through the same continuous-admission pool —
    /// except that instances the log proves finished are re-admitted as
    /// recorded reports (their blocks never re-execute), and interrupted
    /// instances replay their journaled block prefix before fresh execution
    /// takes over. Gate and breaker decisions are re-taken over the same
    /// dispatch-order stream of completions, so a resumed campaign produces
    /// the same deterministic report prefix as an uninterrupted run —
    /// including re-tripping (and re-arming) the breaker at the same
    /// instance when `breaker` is supplied.
    ///
    /// The dispatcher's own WAR and registry are used for the re-run; the
    /// caller is responsible for supplying the same workflow and executors
    /// as the crashed campaign. Appends from the resumed run extend the
    /// recovered journal, so a second crash resumes again.
    pub fn resume_from_journal(
        &self,
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
        breaker: Option<&CircuitBreaker>,
    ) -> Result<(DispatchReport, Option<BreakerTrip>)> {
        let (events, recovery) = Journal::read(&path)?;
        let campaign = recover_campaign(&events, recovery)?;
        let journal = Journal::reopen(&path, policy, &recovery)?.with_tracer(self.tracer.clone());
        let resumed = Some((&journal, &campaign));
        self.drive(
            &campaign.schedule,
            resumed,
            &inputs_for,
            breaker,
            None,
            None,
        )
        .map(|o| (o.report, o.trip))
    }

    /// Resume a journaled campaign under lifecycle control — the
    /// controlled-campaign counterpart of
    /// [`Dispatcher::resume_from_journal`], sharing its replay semantics
    /// and [`Dispatcher::run_campaign`]'s pause/cancel behaviour.
    ///
    /// `recovered` is what [`Journal::recover`] returned: the caller owns
    /// the recovered write handle exactly as it owns a fresh one passed to
    /// [`Dispatcher::with_journal`], and attaches its tracer and listener
    /// to it the same way before handing it over.
    pub fn resume_campaign(
        &self,
        recovered: (Journal, Vec<JournalEvent>, Recovery),
        inputs_for: impl Fn(NodeId) -> GlobalState + Sync,
        breaker: Option<&CircuitBreaker>,
        control: Option<&CampaignControl>,
    ) -> Result<CampaignOutcome> {
        let (journal, events, recovery) = recovered;
        let campaign = recover_campaign(&events, recovery)?;
        self.drive(
            &campaign.schedule,
            Some((&journal, &campaign)),
            &inputs_for,
            breaker,
            control,
            None,
        )
    }

    /// The one campaign loop, behind every `run*` and `resume*` entry
    /// point: open the attached journal (or re-open the recovered one a
    /// resume brings, with what it proved), walk the schedule slot by
    /// slot — re-admitting journaled completions without execution,
    /// replaying partial prefixes, consulting breaker and control on the
    /// deterministic dispatch-order completion stream and the gate after
    /// each slot that ran to its end — then close the `dispatch` span and
    /// the journal.
    fn drive(
        &self,
        schedule: &Schedule,
        resumed: Option<(&Journal, &RecoveredCampaign)>,
        inputs_for: &(impl Fn(NodeId) -> GlobalState + Sync),
        breaker: Option<&CircuitBreaker>,
        control: Option<&CampaignControl>,
        mut gate: Option<SlotGate<'_>>,
    ) -> Result<CampaignOutcome> {
        // Unpack the WAR once; every instance shares the in-memory graph.
        let workflow = Arc::new(self.war.unpack()?);
        let (journal, resumed) = match resumed {
            Some((journal, campaign)) => (Some(journal), Some(campaign)),
            None => (self.journal.as_ref(), None),
        };
        if let Some(j) = journal {
            let _ = j.append(&match resumed {
                Some(campaign) => JournalEvent::CampaignResumed {
                    meta: campaign.meta.clone(),
                },
                None => JournalEvent::CampaignOpened {
                    meta: self.meta.clone(),
                    assignments: schedule
                        .assignments
                        .iter()
                        .map(|(&n, &s)| (n.0, s.0))
                        .collect(),
                    // Past u32::MAX a worker pool is no larger in effect:
                    // a slot never holds that many instances.
                    concurrency: u32::try_from(self.concurrency).unwrap_or(u32::MAX),
                },
            });
        }
        let mut span = self.tracer.span("dispatch");
        span.attr("instances", schedule.assignments.len());
        span.attr("concurrency", self.concurrency);
        span.attr("breaker", breaker.is_some());
        if let Some(campaign) = resumed {
            span.attr("resumed", true);
            span.attr("journal_events", campaign.recovery.events);
            span.attr("journal_torn", campaign.recovery.torn);
        }
        let dispatch_id = span.is_recording().then(|| span.id());

        let mut out = CampaignOutcome::default();
        // The one walk of a schedule, slot by slot in slot order, nodes in
        // their deterministic order within a slot.
        let mut by_slot: BTreeMap<Timeslot, Vec<NodeId>> = BTreeMap::new();
        for (&node, &slot) in &schedule.assignments {
            by_slot.entry(slot).or_default().push(node);
        }
        let crew = Crew {
            dispatcher: self,
            workflow,
            journal,
            inputs_for,
            dispatch_span: dispatch_id,
            admission: Mutex::new(Admission::new(control, breaker)),
            work: Condvar::new(),
            idle: Condvar::new(),
        };
        // No slot runs more workers than it has instances, so no more
        // helpers than the largest slot needs are started.
        let largest = by_slot.values().map(Vec::len).max().unwrap_or(0);
        let helpers = crew.workers(largest).saturating_sub(1);
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| crew.help());
            }
            // The scope joins the helpers only once they return: on a
            // panic here they are told to, as at the end of the loop.
            let _quit_on_unwind = QuitOnUnwind(&crew);
            for (slot, nodes) in by_slot {
                // Slot boundaries are admission points too: a pause blocks
                // here between slots, a cancel stops before the next starts.
                if control.is_some_and(|c| !c.admit()) {
                    out.halted = Some(slot);
                    break;
                }
                let items = nodes
                    .into_iter()
                    .map(|node| {
                        let key = (slot.0, node.0);
                        match resumed.and_then(|c| c.completed.get(&key)) {
                            Some(recorded) => SlotItem::Done(recorded.clone()),
                            None => SlotItem::Run {
                                node,
                                replay: resumed
                                    .and_then(|c| c.partial.get(&key))
                                    .cloned()
                                    .unwrap_or_default(),
                            },
                        }
                    })
                    .collect();
                let (mut instances, mut drained, halted) = crew.run_slot(slot, items);
                out.report.instances.append(&mut instances);
                out.report.drained.append(&mut drained);
                if halted || gate.as_mut().is_some_and(|g| !g(slot, &out.report)) {
                    out.halted = Some(slot);
                    break;
                }
            }
            crew.quit();
        });
        out.trip = crew
            .admission
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .trip;
        out.cancelled = control.is_some_and(CampaignControl::is_cancelled);

        if let Some(slot) = out.halted {
            span.attr("halted_at_slot", slot.0);
        }
        if let Some(t) = &out.trip {
            span.attr("breaker_tripped", true);
            span.attr("trip_block", t.block.as_str());
            span.attr("trip_failure_rate", t.failure_rate);
            span.attr("trip_samples", t.samples);
            self.tracer.incr("breaker.trips", 1);
        }
        if out.cancelled {
            span.attr("cancelled", true);
        }
        span.attr("completed", out.report.instances.len());
        span.attr("drained", out.report.drained.len());

        // Trip (if any) and close records, then force the log to stable
        // storage — a journal ending in `campaign_closed` needs no resume.
        // A halted or cancelled dispatch closes with the two facts its
        // records cannot show: how long the report's prefix is, and
        // whether a cancel ended it. The `dispatch` span covers the close.
        if let Some(j) = journal {
            if let Some(t) = &out.trip {
                let _ = j.append(&JournalEvent::BreakerTripped {
                    block: t.block.clone(),
                    failure_rate: t.failure_rate,
                    samples: t.samples as u64,
                });
            }
            let halt = (out.halted.is_some() || out.cancelled).then(|| Halt {
                ordered: u32::try_from(out.report.instances.len()).unwrap_or(u32::MAX),
                cancelled: out.cancelled,
            });
            let _ = j.append(&JournalEvent::CampaignClosed(halt));
            let _ = j.sync();
        }
        span.finish();
        Ok(out)
    }
}

/// The workers of one dispatch: the calling thread and the helpers
/// [`Dispatcher::drive`] starts once, in one `std::thread::scope`, for
/// all of its slots — `min(concurrency, capacity, largest slot) − 1` of
/// them, none at concurrency 1.
///
/// A slot's first `workers` instances are admitted at its start. The
/// caller runs the first and publishes the rest as **starts** under the
/// crew lock, waking one parked helper per start on `work`. A worker
/// with a start runs instances until [`Admission::complete`] gives it no
/// next one, then leaves the slot; the last to leave wakes the caller on
/// `idle`. A start no helper has claimed by the time the caller's own
/// run ends is run by the caller, so a slot never waits on a thread that
/// has not been scheduled yet.
struct Crew<'a, I> {
    dispatcher: &'a Dispatcher,
    workflow: Arc<Workflow>,
    journal: Option<&'a Journal>,
    inputs_for: &'a I,
    dispatch_span: Option<SpanId>,
    admission: Mutex<Admission<'a>>,
    /// Helpers park here until a slot has a start for them, or the crew
    /// quits.
    work: Condvar,
    /// The caller parks here until the slot's last worker has left.
    idle: Condvar,
}

impl<'a, I: Fn(NodeId) -> GlobalState + Sync> Crew<'a, I> {
    /// The crew lock. A worker that panicked holding it is on its way to
    /// quitting the crew, which must not wait on the poison: the lock is
    /// taken back, and the dispatch ends in that panic whatever it holds.
    fn lock(&self) -> MutexGuard<'_, Admission<'a>> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// How many workers a slot of `runnable` instances runs on:
    /// `min(concurrency, runnable, admission capacity)`. A worker above
    /// the capacity could only ever park in `acquire`.
    fn workers(&self, runnable: usize) -> usize {
        let d = self.dispatcher;
        d.concurrency.min(runnable).min(
            d.permits
                .as_deref()
                .map_or(usize::MAX, AdmissionSlots::capacity),
        )
    }

    /// A helper's life: claim a start, run the slot with the others until
    /// admission gives it nothing more, park; return once the crew quits.
    fn help(&self) {
        let _quit_on_unwind = QuitOnUnwind(self);
        loop {
            let mut admission = self.lock();
            let ticket = loop {
                if admission.quit {
                    return;
                }
                if let Some(ticket) = admission.claim_start() {
                    break ticket;
                }
                admission = self.work.wait(admission).unwrap_or_else(|e| e.into_inner());
            };
            drop(admission);
            self.shift(ticket);
        }
    }

    /// Run instances, each admitted by the completion of the one before,
    /// until admission gives this worker none; then leave the slot.
    fn shift(&self, mut ticket: Ticket) {
        loop {
            let (index, report) = {
                // Hold a quota slot for exactly the execution.
                let _slot = self.dispatcher.permits.as_deref().map(SlotGuard::acquire);
                self.run_instance(ticket)
            };
            let mut admission = self.lock();
            if admission.quit {
                return;
            }
            match admission.complete(index, report) {
                Some(next) => ticket = next,
                None => {
                    admission.busy -= 1;
                    if admission.busy == 0 {
                        self.idle.notify_one();
                    }
                    return;
                }
            }
        }
    }

    /// Tell every helper to return once it is out of work: at the end of
    /// the dispatch, and when a worker unwinds.
    fn quit(&self) {
        self.lock().quit = true;
        self.work.notify_all();
        self.idle.notify_all();
    }

    /// Run one slot on the crew.
    ///
    /// `min(concurrency, runnable, admission capacity)` workers — the
    /// calling thread first, then the helpers that claim the slot's
    /// starts — each begin on one dispatch index. A worker that finishes
    /// an instance takes the crew lock and [`Admission::complete`]s it:
    /// the reorder buffer advances the contiguous completed prefix
    /// through the breaker (once per instance, in dispatch order), and
    /// only then does the worker take the next index for itself. Nothing
    /// is handed to another thread, so a completion costs no wake-up;
    /// every completion still admits at most one instance, and a
    /// gate/breaker verdict is always taken **before** the admission it
    /// could have vetoed — at concurrency 1 this is literally the
    /// sequential admit-check-admit loop, which is what makes the
    /// dispatch-equivalence properties hold. A slot costs one wake-up per
    /// helper it starts and one for the caller at its end; no thread is
    /// spawned for it.
    ///
    /// A breaker trip halts admission: workers leave as they finish,
    /// their instances land in the drained list, and the ordered prefix
    /// is frozen at the halting instance.
    ///
    /// On resume, `items` may contain recorded [`SlotItem::Done`] reports:
    /// they pre-fill the reorder buffer, so the breaker consumes them in
    /// dispatch order exactly as live completions — a recorded halt
    /// therefore vetoes every fresh admission it would have vetoed live,
    /// before any worker starts.
    ///
    /// Returns `(ordered_prefix, drained, halted)`. Panics if a worker
    /// panicked.
    fn run_slot(
        &self,
        slot: Timeslot,
        items: Vec<SlotItem>,
    ) -> (Vec<InstanceReport>, Vec<InstanceReport>, bool) {
        let n = items.len();
        if n == 0 {
            return (Vec::new(), Vec::new(), false);
        }
        let tracer = &self.dispatcher.tracer;
        let mut slot_span = tracer.span_with_parent("slot", self.dispatch_span);
        slot_span.attr("slot", slot.0);
        slot_span.attr("nodes", n);
        let slot_id = slot_span.is_recording().then(|| slot_span.id());
        let mut admission = self.lock();
        // Pre-fill the reorder buffer with recorded completions and
        // advance the contiguous prefix through them, consulting the
        // breaker BEFORE any fresh admission it could veto.
        admission.open(slot, slot_id, items);
        // Admission point: a pause blocks here before any fresh work
        // starts; a cancel halts the slot before a worker does. After a
        // (recorded) halt nothing fresh runs, and recorded completions
        // past it drain exactly as live in-flight work would have.
        if !admission.halted && admission.control.is_some_and(|c| !c.admit()) {
            admission.halted = true;
        }
        let workers = if admission.halted {
            admission.drain_pending();
            0
        } else {
            self.workers(admission.runs.len())
        };
        admission.next = workers;
        if workers > 0 {
            admission.starts = 1..workers;
            admission.busy = 1;
            let first = admission.ticket(0);
            drop(admission);
            for _ in 1..workers {
                self.work.notify_one();
            }
            self.shift(first);
            admission = self.lock();
            loop {
                assert!(!admission.quit, "a dispatch worker panicked");
                if let Some(ticket) = admission.claim_start() {
                    drop(admission);
                    self.shift(ticket);
                    admission = self.lock();
                } else if admission.busy == 0 {
                    break;
                } else {
                    admission = self.idle.wait(admission).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        let (ordered, drained, halted) = admission.close();
        drop(admission);
        if slot_span.is_recording() {
            slot_span.attr("completed", ordered.len());
            slot_span.attr("drained", drained.len());
            slot_span.attr("halted", halted);
            tracer.incr("instances.drained", drained.len() as u64);
        }
        (ordered, drained, halted)
    }

    /// Run one workflow instance, folding engine-level errors (corrupt
    /// WAR, missing decision variable, dangling edge) into a failed report
    /// so fall-out analysis sees them instead of losing them. Returns the
    /// instance's dispatch index with its report.
    fn run_instance(&self, ticket: Ticket) -> (usize, InstanceReport) {
        let Ticket {
            index,
            node,
            slot,
            parent,
            replay,
        } = ticket;
        let tracer = &self.dispatcher.tracer;
        let inputs = (self.inputs_for)(node);
        let log = self
            .journal
            .map(|j| Arc::new(InstanceLog::new(j, node, slot)));
        let mut span = tracer.span_with_parent("instance", parent);
        span.attr("node", node.0 as u64);
        span.attr("slot", slot.0);
        let span_id = span.is_recording().then(|| span.id());
        let run = || -> Result<(InstanceStatus, Vec<BlockExecution>)> {
            let mut engine = Engine::new(
                Arc::clone(&self.workflow),
                self.dispatcher.registry.clone(),
                inputs,
            );
            engine.set_trace(tracer.clone(), span_id);
            engine.set_replay(replay);
            if let Some(log) = &log {
                engine.set_block_sink(log.clone());
            }
            let status = engine.run()?.clone();
            if engine.replay_remaining() > 0 {
                return Err(CornetError::DataIntegrity(format!(
                    "journal holds {} rows the workflow never reached",
                    engine.replay_remaining()
                )));
            }
            Ok((status, engine.into_log()))
        };
        let report = match run() {
            Ok((status, blocks)) => InstanceReport {
                node,
                slot,
                status,
                blocks,
            },
            Err(e) => InstanceReport {
                node,
                slot,
                status: InstanceStatus::Failed(format!("engine: {e}")),
                blocks: Vec::new(),
            },
        };
        if span.is_recording() {
            span.attr("status", report.status.label());
            span.attr("blocks", report.blocks.len());
            let retries: u64 = report
                .blocks
                .iter()
                .map(|b| b.attempts.saturating_sub(1) as u64)
                .sum();
            span.attr("retries", retries);
            if let InstanceStatus::Failed(block) | InstanceStatus::RolledBack(block) =
                &report.status
            {
                span.attr("failed_block", block.as_str());
            }
            span.finish();
            tracer.incr(&format!("instances.{}", report.status.label()), 1);
        }
        if let Some(log) = log {
            log.finish(&report.status);
        }
        (index, report)
    }
}

/// Quits the crew when the thread holding it unwinds, so that a panic on
/// any worker ends the dispatch in a panic instead of a hang: a parked
/// helper is woken to return, and the caller stops waiting for a slot
/// whose worker is gone.
struct QuitOnUnwind<'c, 'a, I: Fn(NodeId) -> GlobalState + Sync>(&'c Crew<'a, I>);

impl<I: Fn(NodeId) -> GlobalState + Sync> Drop for QuitOnUnwind<'_, '_, I> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.quit();
        }
    }
}

/// What a worker takes from the crew lock to run one instance.
struct Ticket {
    /// Dispatch index within the slot.
    index: usize,
    node: NodeId,
    slot: Timeslot,
    /// The slot's span, parent of the instance's.
    parent: Option<SpanId>,
    /// Journaled rows to replay before fresh execution.
    replay: Vec<ReplayRow>,
}

/// A slot instance that needs a worker.
struct Run {
    /// Dispatch index within the slot.
    index: usize,
    node: NodeId,
    /// Moved into the instance's ticket at its admission.
    replay: Vec<ReplayRow>,
}

/// The dispatch's admission state — what the crew lock guards. Every
/// worker that finishes an instance brings it here and leaves with the
/// next instance to run, or with none. Its slot fields are reset by
/// [`Admission::open`] at every slot.
struct Admission<'a> {
    slot: Timeslot,
    slot_span: Option<SpanId>,
    /// Reorder buffer: completions waiting for the ones dispatched before
    /// them.
    pending: Vec<Option<InstanceReport>>,
    /// The slot's instances that need a worker, in dispatch order.
    runs: Vec<Run>,
    /// The contiguous completed prefix, already shown to the breaker.
    ordered: Vec<InstanceReport>,
    /// Completions quarantined by a halt, with their dispatch index.
    drained: Vec<(usize, InstanceReport)>,
    halted: bool,
    /// Position in `runs` of the next instance to admit.
    next: usize,
    /// Positions in `runs` admitted at the slot's start that no worker
    /// has claimed yet.
    starts: Range<usize>,
    /// Workers in the slot, the caller among them.
    busy: usize,
    /// The dispatch is over, or a worker panicked: helpers return.
    quit: bool,
    control: Option<&'a CampaignControl>,
    breaker: Option<&'a CircuitBreaker>,
    /// The running fall-out analysis the breaker checks.
    analysis: FalloutAnalysis,
    trip: Option<BreakerTrip>,
}

impl<'a> Admission<'a> {
    fn new(control: Option<&'a CampaignControl>, breaker: Option<&'a CircuitBreaker>) -> Self {
        Admission {
            slot: Timeslot(0),
            slot_span: None,
            pending: Vec::new(),
            runs: Vec::new(),
            ordered: Vec::new(),
            drained: Vec::new(),
            halted: false,
            next: 0,
            starts: 0..0,
            busy: 0,
            quit: false,
            control,
            breaker,
            analysis: FalloutAnalysis::default(),
            trip: None,
        }
    }

    /// Start a slot: recorded completions pre-fill the reorder buffer and
    /// advance the prefix, the rest wait for a worker.
    fn open(&mut self, slot: Timeslot, slot_span: Option<SpanId>, items: Vec<SlotItem>) {
        self.slot = slot;
        self.slot_span = slot_span;
        self.pending.clear();
        self.runs.clear();
        self.ordered = Vec::with_capacity(items.len());
        self.halted = false;
        self.next = 0;
        for (index, item) in items.into_iter().enumerate() {
            match item {
                SlotItem::Done(recorded) => self.pending.push(Some(recorded)),
                SlotItem::Run { node, replay } => {
                    self.pending.push(None);
                    self.runs.push(Run {
                        index,
                        node,
                        replay,
                    });
                }
            }
        }
        self.advance();
    }

    /// End a slot: `(ordered_prefix, drained, halted)`, drained in
    /// dispatch order.
    fn close(&mut self) -> (Vec<InstanceReport>, Vec<InstanceReport>, bool) {
        let mut drained = std::mem::take(&mut self.drained);
        drained.sort_by_key(|&(i, _)| i);
        let drained = drained.into_iter().map(|(_, r)| r).collect();
        (std::mem::take(&mut self.ordered), drained, self.halted)
    }

    /// The ticket of the instance at position `k` of `runs`.
    fn ticket(&mut self, k: usize) -> Ticket {
        let run = &mut self.runs[k];
        Ticket {
            index: run.index,
            node: run.node,
            slot: self.slot,
            parent: self.slot_span,
            replay: std::mem::take(&mut run.replay),
        }
    }

    /// A start no worker has claimed yet, for the worker asking.
    fn claim_start(&mut self) -> Option<Ticket> {
        let k = self.starts.next()?;
        self.busy += 1;
        Some(self.ticket(k))
    }

    /// The breaker's verdict on one more completion in dispatch order;
    /// `false` halts.
    fn verdict(&mut self, instance: &InstanceReport) -> bool {
        let Some(breaker) = self.breaker else {
            return true;
        };
        self.analysis.add_instance(instance);
        self.trip = breaker.check(&self.analysis);
        self.trip.is_none()
    }

    /// Advance the contiguous completed prefix, consulting the breaker
    /// once per instance in dispatch order; its `false` halts.
    fn advance(&mut self) {
        while !self.halted {
            let Some(next) = self
                .pending
                .get_mut(self.ordered.len())
                .and_then(Option::take)
            else {
                break;
            };
            self.halted = !self.verdict(&next);
            self.ordered.push(next);
        }
    }

    /// After a halt: what is buffered out of order past the halting
    /// instance will never join the prefix, so it drains.
    fn drain_pending(&mut self) {
        for (i, buffered) in self.pending.iter_mut().enumerate() {
            if let Some(report) = buffered.take() {
                self.drained.push((i, report));
            }
        }
    }

    /// Deposit the report of dispatch index `i` and admit the depositing
    /// worker's next instance, unless the roll-out halted or none is left.
    fn complete(&mut self, i: usize, report: InstanceReport) -> Option<Ticket> {
        self.pending[i] = Some(report);
        self.advance();
        let more = self.next < self.runs.len();
        // Admission point: a pause blocks the worker here, holding the
        // lock — in-flight instances finish behind it, nothing new
        // starts — and a cancel vetoes the admission and drains like a
        // trip.
        if !self.halted && more && self.control.is_some_and(|c| !c.admit()) {
            self.halted = true;
        }
        if self.halted {
            self.drain_pending();
            return None;
        }
        if !more {
            return None;
        }
        self.next += 1;
        Some(self.ticket(self.next - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_catalog::builtin_catalog;
    use cornet_types::ParamValue;
    use cornet_workflow::builtin::software_upgrade_workflow;

    fn happy_registry() -> ExecutorRegistry {
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

    fn schedule(n: u32, per_slot: u32) -> Schedule {
        let mut s = Schedule::default();
        for i in 0..n {
            s.assignments.insert(NodeId(i), Timeslot(i / per_slot + 1));
        }
        s
    }

    fn inputs(node: NodeId) -> GlobalState {
        let mut g = GlobalState::new();
        g.insert("node".into(), ParamValue::from(format!("node-{node}")));
        g.insert("software_version".into(), ParamValue::from("20.1"));
        g
    }

    #[test]
    fn dispatches_all_instances() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 3).unwrap();
        let report = d.run(&schedule(10, 4), inputs).unwrap();
        assert_eq!(report.instances.len(), 10);
        assert_eq!(report.completed(), 10);
        assert!(report.failures().is_empty());
    }

    #[test]
    fn slot_order_is_respected() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 2).unwrap();
        let report = d.run(&schedule(9, 3), inputs).unwrap();
        let slots: Vec<u32> = report.instances.iter().map(|i| i.slot.0).collect();
        let mut sorted = slots.clone();
        sorted.sort();
        assert_eq!(slots, sorted, "instances dispatched slot by slot");
    }

    #[test]
    fn failures_are_attributed() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let mut reg = happy_registry();
        reg.register("software_upgrade", |s| {
            let node = crate::executor::require_str(s, "node")?;
            if node.ends_with('3') {
                return Err(cornet_types::CornetError::ExecutionFailed(
                    "ssh connectivity lost".into(),
                ));
            }
            s.insert("previous_version".into(), ParamValue::from("old"));
            Ok(())
        });
        let d = Dispatcher::new(war, reg, 4).unwrap();
        let report = d.run(&schedule(10, 5), inputs).unwrap();
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0.node, NodeId(3));
        assert_eq!(failures[0].1, "software_upgrade");
        assert_eq!(report.completed(), 9);
    }

    #[test]
    fn engine_errors_become_failed_instances() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        // A health_check that never sets `healthy` makes the decision
        // gateway error out at engine level.
        let mut reg = ExecutorRegistry::new();
        reg.register("health_check", |_| Ok(()));
        let d = Dispatcher::new(war, reg, 2).unwrap();
        let report = d.run(&schedule(3, 3), inputs).unwrap();
        assert_eq!(
            report.instances.len(),
            3,
            "errored instances are not dropped"
        );
        assert_eq!(report.completed(), 0);
        assert!(report
            .instances
            .iter()
            .all(|i| matches!(&i.status, InstanceStatus::Failed(m) if m.starts_with("engine:"))));
    }

    #[test]
    fn gate_halts_remaining_slots() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 4).unwrap();
        // 12 nodes over 4 slots; gate says no after slot 2.
        let outcome = d
            .run_gated(&schedule(12, 3), inputs, None, |slot, _| slot.0 < 2)
            .unwrap();
        assert_eq!(outcome.halted, Some(Timeslot(2)));
        assert!(outcome.trip.is_none() && !outcome.cancelled);
        let report = outcome.report;
        assert_eq!(report.instances.len(), 6, "slots 1 and 2 only");
        assert!(report.instances.iter().all(|i| i.slot.0 <= 2));
        assert!(report.drained.is_empty(), "a gate halts between slots");
    }

    #[test]
    fn gate_sees_cumulative_report() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 4).unwrap();
        let mut seen = Vec::new();
        let outcome = d
            .run_gated(&schedule(9, 3), inputs, None, |slot, report| {
                seen.push((slot.0, report.instances.len()));
                true
            })
            .unwrap();
        assert_eq!(outcome.halted, None);
        assert_eq!(seen, vec![(1, 3), (2, 6), (3, 9)]);
    }

    /// Registry whose `software_upgrade` fails permanently on every node
    /// numbered `from` or higher.
    fn failing_from(from: u32) -> ExecutorRegistry {
        let mut reg = happy_registry();
        let clean: Vec<String> = (0..from).map(|i| format!("node-{}", NodeId(i))).collect();
        reg.register("software_upgrade", move |s| {
            if !clean.contains(&crate::executor::require_str(s, "node")?) {
                return Err(CornetError::ExecutionFailed("bad image".into()));
            }
            s.insert("previous_version".into(), ParamValue::from("old"));
            Ok(())
        });
        reg
    }

    #[test]
    fn breaker_trips_mid_slot_before_the_gate_is_asked() {
        use crate::resilience::CircuitBreaker;
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        // Slot 1 (nodes 0..8) is clean; every node of slot 2 fails. One
        // worker, so nothing is in flight when the trip lands.
        let d = Dispatcher::new(war, failing_from(8), 1).unwrap();
        let breaker = CircuitBreaker {
            failure_threshold: 0.25,
            min_samples: 3,
        };
        let mut asked = Vec::new();
        let outcome = d
            .run_gated(&schedule(24, 8), inputs, Some(&breaker), |slot, _| {
                asked.push(slot.0);
                true
            })
            .unwrap();
        assert_eq!(
            asked,
            vec![1],
            "the gate sees slot 1, never the tripped slot"
        );
        assert_eq!(outcome.halted, Some(Timeslot(2)));
        let trip = outcome.trip.expect("the breaker halted the roll-out");
        assert_eq!(trip.block, "software_upgrade");
        // 8 clean + 3 failed of 11 crosses 25 %: the trip lands on the
        // third instance of slot 2, not at its end.
        assert_eq!(outcome.report.instances.len(), 11);
        assert!(outcome.report.drained.is_empty());
    }

    #[test]
    fn run_is_run_campaign_without_breaker_or_control() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let dir = std::env::temp_dir();
        // Concurrency 1 keeps the interleaving of journal records fixed.
        let journaled = |tag: &str| {
            let path = dir.join(format!("cornet_one_loop_{}_{tag}.wal", std::process::id()));
            let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
            let d = Dispatcher::new(war.clone(), failing_from(4), 1)
                .unwrap()
                .with_journal(journal, BTreeMap::new());
            (d, path)
        };
        // Block durations are wall-clock; everything else must agree.
        let rows = |report: &DispatchReport| -> Vec<String> {
            let row = |i: &InstanceReport| {
                let blocks: Vec<_> = i
                    .blocks
                    .iter()
                    .map(|b| (&b.block, &b.status, b.attempts, &b.error))
                    .collect();
                format!("{} {:?} {:?} {blocks:?}", i.node, i.slot, i.status)
            };
            assert!(report.drained.is_empty());
            report.instances.iter().map(row).collect()
        };
        let kinds = |path: &Path| -> Vec<&'static str> {
            let (events, _) = Journal::read(path).unwrap();
            let _ = std::fs::remove_file(path);
            events.iter().map(JournalEvent::kind).collect()
        };
        let (d, path) = journaled("run");
        let plain = d.run(&schedule(6, 3), inputs).unwrap();
        let plain_kinds = kinds(&path);
        let (d, path) = journaled("campaign");
        let campaign = d.run_campaign(&schedule(6, 3), inputs, None, None).unwrap();
        assert_eq!(rows(&campaign.report), rows(&plain));
        assert_eq!(plain.failures().len(), 2);
        assert_eq!(
            (campaign.halted, campaign.trip, campaign.cancelled),
            (None, None, false)
        );
        assert_eq!(kinds(&path), plain_kinds);
        assert_eq!(plain_kinds.first(), Some(&"campaign_opened"));
        assert_eq!(plain_kinds.last(), Some(&"campaign_closed"));
    }

    #[test]
    fn zero_concurrency_is_rejected() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let err = match Dispatcher::new(war, happy_registry(), 0) {
            Err(e) => e,
            Ok(_) => panic!("zero concurrency must be rejected"),
        };
        assert!(matches!(err, CornetError::InvalidInput(_)), "got {err:?}");
    }

    #[test]
    fn spans_nest_instance_under_slot_under_dispatch_concurrently() {
        use cornet_obs::{AttrValue, ManualClock, Tracer};
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        // A ticking manual clock keeps timestamps deterministic even with
        // 4 workers racing: every clock read is distinct and ordered.
        let tracer = Tracer::with_clock(ManualClock::ticking(1_000));
        let d = Dispatcher::new(war, happy_registry(), 4)
            .unwrap()
            .with_tracer(tracer.clone());
        let report = d.run(&schedule(8, 4), inputs).unwrap();
        assert_eq!(report.completed(), 8);

        let trace = tracer.snapshot();
        let dispatch: Vec<_> = trace.spans_named("dispatch").collect();
        assert_eq!(dispatch.len(), 1);
        let slots: Vec<_> = trace.spans_named("slot").collect();
        assert_eq!(slots.len(), 2);
        assert!(slots.iter().all(|s| s.parent == Some(dispatch[0].id)));
        let instances: Vec<_> = trace.spans_named("instance").collect();
        assert_eq!(instances.len(), 8);
        for inst in &instances {
            let slot = slots
                .iter()
                .find(|s| Some(s.id) == inst.parent)
                .expect("instance parents a slot span");
            // Time containment: the instance ran within its slot's window.
            assert!(slot.start_ns < inst.start_ns && inst.end_ns < slot.end_ns);
            assert_eq!(
                inst.attr("status"),
                Some(&AttrValue::Str("completed".into()))
            );
            // Each instance has exactly 3 block children, each contained.
            let blocks = trace.children_of(inst.id);
            assert_eq!(blocks.len(), 3);
            for b in &blocks {
                assert_eq!(b.name, "block");
                assert!(inst.start_ns < b.start_ns && b.end_ns < inst.end_ns);
            }
        }
        // Counters aggregate across workers.
        assert_eq!(trace.metrics.counter("instances.completed"), 8);
        assert_eq!(trace.metrics.counter("blocks.success"), 24);
        // Span ids are unique even under concurrency.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn instance_spans_carry_retry_and_failure_attributes() {
        use crate::resilience::RetryPolicy;
        use cornet_obs::{AttrValue, ManualClock, Tracer};
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let mut reg = happy_registry();
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        reg.register("software_upgrade", move |s| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(cornet_types::CornetError::TransientFailure(
                    "flaky link".into(),
                ));
            }
            s.insert("previous_version".into(), ParamValue::from("old"));
            Ok(())
        });
        reg.set_retry_policy("software_upgrade", RetryPolicy::with_attempts(3));
        let tracer = Tracer::with_clock(ManualClock::ticking(1_000));
        let d = Dispatcher::new(war, reg, 1)
            .unwrap()
            .with_tracer(tracer.clone());
        let report = d.run(&schedule(1, 1), inputs).unwrap();
        assert_eq!(report.completed(), 1);
        let trace = tracer.snapshot();
        let inst = trace.spans_named("instance").next().unwrap();
        assert_eq!(inst.attr("retries"), Some(&AttrValue::Int(1)));
        let upgrade = trace
            .spans_named("block")
            .find(|s| s.attr("block") == Some(&AttrValue::Str("software_upgrade".into())))
            .unwrap();
        assert_eq!(
            upgrade.attr("status"),
            Some(&AttrValue::Str("recovered".into()))
        );
        assert_eq!(upgrade.attr("attempts"), Some(&AttrValue::Int(2)));
        assert_eq!(trace.metrics.counter("blocks.recovered"), 1);
        assert_eq!(trace.metrics.counter("blocks.retry_attempts"), 1);
    }

    #[test]
    fn breaker_trip_is_recorded_on_dispatch_span() {
        use crate::resilience::CircuitBreaker;
        use cornet_obs::{AttrValue, ManualClock, Tracer};
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let mut reg = happy_registry();
        reg.register("software_upgrade", |_| {
            Err(cornet_types::CornetError::ExecutionFailed(
                "bad image".into(),
            ))
        });
        let breaker = CircuitBreaker {
            failure_threshold: 0.5,
            min_samples: 2,
        };
        let tracer = Tracer::with_clock(ManualClock::ticking(1_000));
        let d = Dispatcher::new(war, reg, 2)
            .unwrap()
            .with_tracer(tracer.clone());
        let outcome = d
            .run_campaign(&schedule(8, 8), inputs, Some(&breaker), None)
            .unwrap();
        assert!(outcome.trip.is_some());
        assert_eq!(outcome.halted, Some(Timeslot(1)));
        let trace = tracer.snapshot();
        let dispatch = trace.spans_named("dispatch").next().unwrap();
        assert_eq!(
            dispatch.attr("breaker_tripped"),
            Some(&AttrValue::Bool(true))
        );
        assert_eq!(
            dispatch.attr("trip_block"),
            Some(&AttrValue::Str("software_upgrade".into()))
        );
        assert_eq!(dispatch.attr("halted_at_slot"), Some(&AttrValue::Int(1)));
        assert_eq!(trace.metrics.counter("breaker.trips"), 1);
    }

    #[test]
    fn noop_tracer_keeps_dispatch_untouched() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 2).unwrap();
        assert!(!d.tracer().is_enabled());
        let report = d.run(&schedule(4, 2), inputs).unwrap();
        assert_eq!(report.completed(), 4);
        assert_eq!(d.tracer().finished_spans(), 0);
    }

    #[test]
    fn cancel_halts_like_a_trip_and_marks_the_outcome() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 1).unwrap();
        let ctl = crate::control::CampaignControl::new();
        ctl.cancel();
        let outcome = d
            .run_campaign(&schedule(6, 3), inputs, None, Some(&ctl))
            .unwrap();
        assert!(outcome.cancelled);
        assert!(outcome.trip.is_none());
        assert_eq!(outcome.halted, Some(Timeslot(1)), "slot 1 never started");
        assert!(
            outcome.report.instances.is_empty(),
            "cancelled before any admission"
        );
    }

    #[test]
    fn paused_campaign_blocks_until_resumed() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let d = Dispatcher::new(war, happy_registry(), 2).unwrap();
        let ctl = crate::control::CampaignControl::new();
        ctl.pause();
        let ctl2 = ctl.clone();
        let unpauser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            ctl2.resume();
        });
        let outcome = d
            .run_campaign(&schedule(6, 3), inputs, None, Some(&ctl))
            .unwrap();
        unpauser.join().unwrap();
        assert!(!outcome.cancelled);
        assert_eq!(outcome.report.completed(), 6, "all instances ran on resume");
    }

    #[test]
    fn admission_slots_bound_concurrent_executions() {
        use std::sync::atomic::{AtomicI64, Ordering};

        struct CountingSlots {
            in_flight: AtomicI64,
            high_water: AtomicI64,
        }
        impl crate::control::AdmissionSlots for CountingSlots {
            fn acquire(&self) {
                let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                self.high_water.fetch_max(now, Ordering::SeqCst);
            }
            fn release(&self) {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }

        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let slots = Arc::new(CountingSlots {
            in_flight: AtomicI64::new(0),
            high_water: AtomicI64::new(0),
        });
        let d = Dispatcher::new(war, happy_registry(), 4)
            .unwrap()
            .with_admission(slots.clone());
        let report = d.run(&schedule(12, 12), inputs).unwrap();
        assert_eq!(report.completed(), 12);
        assert_eq!(slots.in_flight.load(Ordering::SeqCst), 0, "all released");
        assert!(
            slots.high_water.load(Ordering::SeqCst) <= 4,
            "never more in flight than the pool admits"
        );
    }

    /// Runs a one-slot dispatch of 6 nodes at concurrency 3 on a thread of
    /// its own, whose id `registry` is handed first, and waits at most
    /// ten seconds for `run` to end. `Some(panicked)` when it ended,
    /// `None` when it hung. `run` ends only after its scope joined every
    /// crew thread, so an ended run left none behind.
    fn run_under_deadline(
        registry: impl FnOnce(std::thread::ThreadId) -> ExecutorRegistry + Send + 'static,
    ) -> Option<bool> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (done, ended) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let cat = builtin_catalog();
            let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
            let reg = registry(std::thread::current().id());
            let d = Dispatcher::new(war, reg, 3).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| d.run(&schedule(6, 6), inputs)));
            let _ = done.send(outcome.is_err());
        });
        let ended = ended.recv_timeout(std::time::Duration::from_secs(10)).ok();
        if ended.is_some() {
            runner.join().unwrap();
        }
        ended
    }

    #[test]
    fn crew_a_panic_on_a_helper_panics_the_run() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let outcome = run_under_deadline(|caller| {
            let helper_ran = Arc::new(AtomicBool::new(false));
            let mut reg = happy_registry();
            reg.register("health_check", move |s| {
                if std::thread::current().id() != caller {
                    helper_ran.store(true, Ordering::SeqCst);
                    panic!("executor panics on a helper");
                }
                // The caller holds its first instance until a helper ran
                // one, so that a helper is sure to.
                let waited = std::time::Instant::now();
                while !helper_ran.load(Ordering::SeqCst)
                    && waited.elapsed() < std::time::Duration::from_secs(5)
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                s.insert("healthy".into(), ParamValue::from(true));
                Ok(())
            });
            reg
        });
        assert_eq!(outcome, Some(true), "the run panics, within the deadline");
    }

    #[test]
    fn crew_a_panic_on_the_calling_thread_panics_the_run() {
        let outcome = run_under_deadline(|caller| {
            let mut reg = happy_registry();
            reg.register("health_check", move |s| {
                if std::thread::current().id() == caller {
                    panic!("executor panics on the calling thread");
                }
                s.insert("healthy".into(), ParamValue::from(true));
                Ok(())
            });
            reg
        });
        assert_eq!(outcome, Some(true), "the run panics, within the deadline");
    }

    #[test]
    fn reports_carry_block_detail() {
        let cat = builtin_catalog();
        let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
        let mut reg = happy_registry();
        reg.register("software_upgrade", |_| {
            Err(cornet_types::CornetError::ExecutionFailed(
                "disk full".into(),
            ))
        });
        let d = Dispatcher::new(war, reg, 2).unwrap();
        let report = d.run(&schedule(2, 2), inputs).unwrap();
        let failed_block = report.instances[0]
            .blocks
            .iter()
            .find(|b| b.block == "software_upgrade")
            .expect("failed block is logged");
        assert_eq!(
            failed_block.error.as_deref(),
            Some("execution failed: disk full")
        );
        assert_eq!(failed_block.attempts, 1, "permanent errors are not retried");
    }
}
