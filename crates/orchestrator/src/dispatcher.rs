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
//! A slot is run by `min(concurrency, runnable, admission capacity)`
//! **self-admitting workers**, the calling thread among them. A worker
//! runs one instance, then takes the slot's one lock and, under it:
//! deposits its report in a reorder buffer, advances the contiguous completed prefix through the
//! gate/breaker callback (once per instance, in dispatch order), asks the
//! campaign control, and — if nobody halted — takes the next dispatch
//! index *for itself*. There is no wave barrier, so one straggler never
//! idles the other workers; and there is no queue, collector thread or
//! condition variable between a completion and the next admission, so an
//! instance costs one uncontended lock, not two thread wake-ups (DESIGN.md
//! § *Continuous-admission dispatch* has the protocol and the arithmetic).
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
use crate::engine::{BlockExecution, Engine, InstanceStatus, ReplayRow};
use crate::executor::{ExecutorRegistry, GlobalState};
use crate::falloutanalysis::FalloutAnalysis;
use crate::recovery::{block_record, recover_campaign, status_parts, RecoveredCampaign};
use crate::resilience::{BreakerTrip, CircuitBreaker};
use cornet_journal::{FsyncPolicy, Journal, JournalEvent, Recovery};
use cornet_obs::{SpanId, Tracer};
use cornet_types::{CornetError, NodeId, Result, Schedule, Timeslot};
use cornet_workflow::{WarArtifact, Workflow};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

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

/// Run one workflow instance, folding engine-level errors (corrupt WAR,
/// missing decision variable, dangling edge) into a failed report so
/// fall-out analysis sees them instead of losing them.
#[allow(clippy::too_many_arguments)]
fn run_instance(
    workflow: &Workflow,
    registry: ExecutorRegistry,
    node: NodeId,
    slot: Timeslot,
    inputs: GlobalState,
    tracer: &Tracer,
    parent: Option<SpanId>,
    journal: Option<&Journal>,
    replay: Vec<ReplayRow>,
) -> InstanceReport {
    if let Some(j) = journal {
        // Write-ahead: the admission record lands before any block runs.
        // Re-admission on resume appends a duplicate, which recovery
        // treats idempotently.
        let _ = j.append(&JournalEvent::InstanceAdmitted {
            node: node.0,
            slot: slot.0,
        });
    }
    let mut span = tracer.span_with_parent("instance", parent);
    span.attr("node", node.0 as u64);
    span.attr("slot", slot.0);
    let span_id = span.is_recording().then(|| span.id());
    let run = || -> Result<(InstanceStatus, Vec<BlockExecution>)> {
        let mut engine = Engine::new(workflow.clone(), registry, inputs);
        engine.set_trace(tracer.clone(), span_id);
        engine.set_replay(replay);
        if let Some(j) = journal {
            let j = j.clone();
            engine.set_block_sink(Arc::new(move |exec, state, backout| {
                let _ = j.append(&JournalEvent::BlockCompleted(block_record(
                    node, slot, exec, state, backout,
                )));
            }));
        }
        let status = engine.run()?.clone();
        if engine.replay_remaining() > 0 {
            return Err(CornetError::DataIntegrity(format!(
                "journal holds {} rows the workflow never reached",
                engine.replay_remaining()
            )));
        }
        Ok((status, engine.log().to_vec()))
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
        if let InstanceStatus::Failed(block) | InstanceStatus::RolledBack(block) = &report.status {
            span.attr("failed_block", block.as_str());
        }
        span.finish();
        tracer.incr(&format!("instances.{}", report.status.label()), 1);
    }
    if let Some(j) = journal {
        let (status, detail) = status_parts(&report.status);
        let _ = j.append(&JournalEvent::InstanceFinished {
            node: node.0,
            slot: slot.0,
            status,
            detail,
        });
    }
    report
}

/// The go/no-go question asked after a slot ran to its end, with the
/// report so far; `false` halts the roll-out.
type SlotGate<'a> = &'a mut dyn FnMut(Timeslot, &DispatchReport) -> bool;

/// Group a schedule's assignments by slot, preserving slot order and the
/// deterministic node order within each slot.
fn group_by_slot(schedule: &Schedule) -> BTreeMap<Timeslot, Vec<NodeId>> {
    let mut by_slot: BTreeMap<Timeslot, Vec<NodeId>> = BTreeMap::new();
    for (&node, &slot) in &schedule.assignments {
        by_slot.entry(slot).or_default().push(node);
    }
    by_slot
}

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
    /// Recovers the journal at `path` (truncating any torn tail), rebuilds
    /// the campaign from the surviving records, and re-runs the schedule
    /// through the same continuous-admission pool — except that instances
    /// the log proves finished are re-admitted as recorded reports (their
    /// blocks never re-execute), and interrupted instances replay their
    /// journaled block prefix before fresh execution takes over. Gate and
    /// breaker decisions are re-taken over the same dispatch-order stream
    /// of completions, so a resumed campaign produces the same
    /// deterministic report prefix as an uninterrupted run — including
    /// re-tripping (and re-arming) the breaker at the same instance when
    /// `breaker` is supplied.
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
        let (journal, events, recovery) = Journal::recover(&path, policy)?;
        let journal = journal.with_tracer(self.tracer.clone());
        self.resume_campaign((journal, events, recovery), inputs_for, breaker, None)
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
        // Unpack the WAR once; instances clone the in-memory graph instead
        // of re-deserializing JSON per instance.
        let workflow = self.war.unpack()?;
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
                    concurrency: self.concurrency as u32,
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
        let mut analysis = FalloutAnalysis::default();
        let mut trip: Option<BreakerTrip> = None;
        for (slot, nodes) in group_by_slot(schedule) {
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
            let (mut instances, mut drained, halted) = self.run_slot(
                &workflow,
                slot,
                items,
                inputs_for,
                dispatch_id,
                journal,
                control,
                |instance| match breaker {
                    Some(b) => {
                        analysis.add_instance(instance);
                        trip = b.check(&analysis);
                        trip.is_none()
                    }
                    None => true,
                },
            );
            out.report.instances.append(&mut instances);
            out.report.drained.append(&mut drained);
            if halted || gate.as_mut().is_some_and(|g| !g(slot, &out.report)) {
                out.halted = Some(slot);
                break;
            }
        }
        out.trip = trip;
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
        // The `dispatch` span covers the close.
        if let Some(j) = journal {
            if let Some(t) = &out.trip {
                let _ = j.append(&JournalEvent::BreakerTripped {
                    block: t.block.clone(),
                    failure_rate: t.failure_rate,
                    samples: t.samples as u64,
                });
            }
            let _ = j.append(&JournalEvent::CampaignClosed);
            let _ = j.sync();
        }
        span.finish();
        Ok(out)
    }

    /// Run one slot with self-admitting workers.
    ///
    /// `min(concurrency, runnable, admission capacity)` workers — the
    /// calling thread is the first — each start on one dispatch index. A
    /// worker that finishes an instance takes the slot lock and
    /// [`Admission::complete`]s it: the reorder buffer advances the
    /// contiguous completed prefix through `on_complete` (once per
    /// instance, in dispatch order), and only then
    /// does the worker take the next index for itself. Nothing is handed
    /// to another thread, so a completion costs no wake-up; every
    /// completion still admits at most one instance, and a gate/breaker
    /// verdict is always taken **before** the admission it could have
    /// vetoed — at concurrency 1 this is literally the sequential
    /// admit-check-admit loop, which is what makes the
    /// dispatch-equivalence properties hold.
    ///
    /// `on_complete` returning `false` halts admission: workers exit as
    /// they finish, their instances land in the drained list, and the
    /// ordered prefix is frozen at the halting instance.
    ///
    /// On resume, `items` may contain recorded [`SlotItem::Done`] reports:
    /// they pre-fill the reorder buffer, so the gate consumes them in
    /// dispatch order exactly as live completions — a recorded halt
    /// therefore vetoes every fresh admission it would have vetoed live,
    /// before any worker starts.
    ///
    /// Returns `(ordered_prefix, drained, halted)`.
    #[allow(clippy::too_many_arguments)]
    fn run_slot(
        &self,
        workflow: &Workflow,
        slot: Timeslot,
        items: Vec<SlotItem>,
        inputs_for: &(impl Fn(NodeId) -> GlobalState + Sync),
        dispatch_parent: Option<SpanId>,
        journal: Option<&Journal>,
        control: Option<&CampaignControl>,
        on_complete: impl FnMut(&InstanceReport) -> bool + Send,
    ) -> (Vec<InstanceReport>, Vec<InstanceReport>, bool) {
        let n = items.len();
        if n == 0 {
            return (Vec::new(), Vec::new(), false);
        }
        let mut slot_span = self.tracer.span_with_parent("slot", dispatch_parent);
        slot_span.attr("slot", slot.0);
        slot_span.attr("nodes", n);
        let slot_id = slot_span.is_recording().then(|| slot_span.id());
        // Dispatch indices that actually need a worker.
        let run_indices: Vec<usize> = (0..n)
            .filter(|&i| matches!(items[i], SlotItem::Run { .. }))
            .collect();
        // Phase 0: pre-fill the reorder buffer with recorded completions
        // and advance the contiguous prefix through them, consulting the
        // gate BEFORE any fresh admission it could veto.
        let mut admission = Admission {
            pending: items
                .iter()
                .map(|item| match item {
                    SlotItem::Done(recorded) => Some(recorded.clone()),
                    SlotItem::Run { .. } => None,
                })
                .collect(),
            ordered: Vec::with_capacity(n),
            drained: Vec::new(),
            halted: false,
            next: 0,
            run_indices: &run_indices,
            control,
            on_complete,
        };
        admission.advance();
        // Admission point: a pause blocks here before any fresh work
        // starts; a cancel halts the slot before a worker does. After a
        // (recorded) halt nothing fresh runs, and recorded completions
        // past it drain exactly as live in-flight work would have.
        if !admission.halted && control.is_some_and(|c| !c.admit()) {
            admission.halted = true;
        }
        let permits = self.permits.as_deref();
        let workers = if admission.halted {
            admission.drain_pending();
            0
        } else {
            self.concurrency
                .min(run_indices.len())
                .min(permits.map_or(usize::MAX, AdmissionSlots::capacity))
        };
        admission.next = workers;
        let admission = Mutex::new(admission);
        let work = |mut i: usize| loop {
            let SlotItem::Run { node, replay } = &items[i] else {
                unreachable!("only Run indices are admitted");
            };
            let report = {
                // Hold a quota slot for exactly the execution.
                let _slot = permits.map(SlotGuard::acquire);
                run_instance(
                    workflow,
                    self.registry.clone(),
                    *node,
                    slot,
                    inputs_for(*node),
                    &self.tracer,
                    slot_id,
                    journal,
                    replay.clone(),
                )
            };
            let mut admission = admission.lock().unwrap_or_else(|e| e.into_inner());
            match admission.complete(i, report) {
                Some(next) => i = next,
                None => break,
            }
        };
        std::thread::scope(|scope| {
            let work = &work;
            if let Some((&mine, others)) = run_indices[..workers].split_first() {
                for &i in others {
                    scope.spawn(move || work(i));
                }
                work(mine);
            }
        });
        let Admission {
            ordered,
            mut drained,
            halted,
            ..
        } = admission.into_inner().unwrap_or_else(|e| e.into_inner());
        drained.sort_by_key(|&(i, _)| i);
        let drained: Vec<InstanceReport> = drained.into_iter().map(|(_, r)| r).collect();
        if slot_span.is_recording() {
            slot_span.attr("completed", ordered.len());
            slot_span.attr("drained", drained.len());
            slot_span.attr("halted", halted);
            self.tracer.incr("instances.drained", drained.len() as u64);
        }
        (ordered, drained, halted)
    }
}

/// One slot's admission state — what the slot lock guards. Every worker
/// that finishes an instance brings it here and leaves with the next
/// dispatch index to run, or with none.
struct Admission<'a, F> {
    /// Reorder buffer: completions waiting for the ones dispatched before
    /// them.
    pending: Vec<Option<InstanceReport>>,
    /// The contiguous completed prefix, already shown to `on_complete`.
    ordered: Vec<InstanceReport>,
    /// Completions quarantined by a halt, with their dispatch index.
    drained: Vec<(usize, InstanceReport)>,
    halted: bool,
    /// Position in `run_indices` of the next instance to admit.
    next: usize,
    run_indices: &'a [usize],
    control: Option<&'a CampaignControl>,
    on_complete: F,
}

impl<F: FnMut(&InstanceReport) -> bool> Admission<'_, F> {
    /// Advance the contiguous completed prefix, consulting the gate once
    /// per instance in dispatch order; its `false` halts.
    fn advance(&mut self) {
        while !self.halted {
            let Some(next) = self
                .pending
                .get_mut(self.ordered.len())
                .and_then(Option::take)
            else {
                break;
            };
            self.halted = !(self.on_complete)(&next);
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
    fn complete(&mut self, i: usize, report: InstanceReport) -> Option<usize> {
        self.pending[i] = Some(report);
        self.advance();
        let next = self.run_indices.get(self.next).copied();
        // Admission point: a pause blocks the worker here, holding the
        // lock — in-flight instances finish behind it, nothing new
        // starts — and a cancel vetoes the admission and drains like a
        // trip.
        if !self.halted && next.is_some() && self.control.is_some_and(|c| !c.admit()) {
            self.halted = true;
        }
        if self.halted {
            self.drain_pending();
            return None;
        }
        self.next += 1;
        next
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
