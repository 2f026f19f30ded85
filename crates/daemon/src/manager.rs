//! The campaign manager: the layer between the HTTP front-end and the
//! continuous-admission dispatcher.
//!
//! One manager owns one state directory. Submission runs the `cornet
//! check` gate (bundles with error diagnostics are refused before any
//! state is created), appends the campaign to the store's submissions
//! log, and queues it for execution. A fair-share scheduler starts queued
//! campaigns round-robin across tenants up to a global concurrent-campaign
//! limit; each running campaign journals into its own WAL and charges its
//! instance executions to its tenant's admission quota.
//!
//! A campaign's journal is its state. Every record the journal writes is
//! folded, as it lands, into the campaign's [`CampaignFold`] — progress
//! counters, trip, close and outcome — and on restart the manager folds
//! each stored journal the same way: a closed one is terminal with the
//! outcome it folds to, an open one is reopened with its records and run
//! again, which resumes it (completed blocks are replayed from the
//! journal, never re-executed). The submission record is written once,
//! at submit, and holds identity, the scenario and the spec. `Queued`,
//! `Running` and `Paused` are the manager's own state: no journal record
//! says them.

use crate::quota::{QuotaBook, QuotaSnapshot};
use crate::scenario::JournalScenario;
use cornet_analysis::{Code, Diagnostic, Report, SourceRef};
use cornet_core::blast::{campaign_blasts, conflicts_between, BlastConflict, CampaignBlast};
use cornet_core::{bundle_from_value, gate, load_bundle};
use cornet_journal::{
    CampaignStore, EventListener, FsyncPolicy, Journal, JournalEvent, Manifest, RecordListener,
    Submission,
};
use cornet_obs::Tracer;
use cornet_orchestrator::{CampaignControl, CampaignFold, CampaignResult, Dispatcher};
use cornet_types::json::{parse, JsonWriter};
use cornet_types::CornetError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors the API maps onto HTTP status codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Unknown campaign id (404).
    NotFound(String),
    /// Campaign belongs to a different tenant (403).
    Forbidden(String),
    /// Malformed request (400).
    Invalid(String),
    /// Request is valid but the campaign is in the wrong state (409).
    Conflict(String),
    /// Daemon-side failure (500).
    Internal(String),
}

/// A store or journal failure behind a request is the daemon's (500).
impl From<CornetError> for ApiError {
    fn from(e: CornetError) -> Self {
        ApiError::Internal(e.to_string())
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::NotFound(m) => write!(f, "not found: {m}"),
            ApiError::Forbidden(m) => write!(f, "forbidden: {m}"),
            ApiError::Invalid(m) => write!(f, "invalid request: {m}"),
            ApiError::Conflict(m) => write!(f, "conflict: {m}"),
            ApiError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// Campaign lifecycle as the manager tracks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Accepted, waiting for a scheduler slot (fresh or pending resume).
    Queued,
    /// A runner thread is driving the dispatcher.
    Running,
    /// Admission is paused; in-flight instances finish.
    Paused,
    /// Terminal: ran to completion (possibly halted by a breaker trip).
    Completed,
    /// Terminal: cancelled by the tenant.
    Cancelled,
    /// Terminal: the runner hit an internal error.
    Failed,
}

impl CampaignPhase {
    /// Lower-case label used in API payloads.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignPhase::Queued => "queued",
            CampaignPhase::Running => "running",
            CampaignPhase::Paused => "paused",
            CampaignPhase::Completed => "completed",
            CampaignPhase::Cancelled => "cancelled",
            CampaignPhase::Failed => "failed",
        }
    }

    /// Whether the campaign can never change phase again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignPhase::Completed | CampaignPhase::Cancelled | CampaignPhase::Failed
        )
    }
}

/// Point-in-time public view of one campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSnapshot {
    /// Campaign id (`c000001`, …).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Display name from the submitted spec.
    pub name: String,
    /// Current lifecycle phase.
    pub phase: CampaignPhase,
    /// Scheduled instance count.
    pub total_instances: u32,
    /// Instances with a terminal status so far.
    pub instances_done: usize,
    /// Blocks executed (journal appends) since this process started
    /// driving the campaign — replayed blocks never count.
    pub blocks_live: usize,
    /// Block records recovered from the journal before this process took
    /// over (prior run's completed work).
    pub blocks_recovered: usize,
    /// Journal events observed so far (the `/events` stream length).
    pub events: usize,
    /// Terminal outcome, once reached.
    pub outcome: Option<CampaignResult>,
    /// Runner error detail for `Failed` campaigns.
    pub error: Option<String>,
}

/// Result of a submission that passed request validation.
#[derive(Clone, Debug)]
pub enum SubmitOutcome {
    /// The bundle passed the check gate; a campaign was created.
    Accepted {
        /// Allocated campaign id.
        id: String,
        /// The gate report (warnings may be present).
        report: Report,
    },
    /// The bundle carries error diagnostics; nothing was created.
    Rejected {
        /// The gate report with the refusing diagnostics.
        report: Report,
    },
    /// The bundle passed the check gate but its declared campaigns'
    /// blast radii collide with a live campaign; nothing was created.
    Interfering {
        /// Interference diagnostics (foreign-tenant details redacted).
        report: Report,
    },
}

/// Daemon-side configuration for a [`CampaignManager`].
#[derive(Clone)]
pub struct ManagerConfig {
    /// State directory holding the campaign store.
    pub state_dir: PathBuf,
    /// Durability policy for every campaign journal.
    pub fsync: FsyncPolicy,
    /// Global instance-execution pool shared by all campaigns.
    pub pool: usize,
    /// Per-tenant cap on concurrent instance executions.
    pub default_quota: usize,
    /// Per-tenant overrides of the default quota.
    pub quota_overrides: BTreeMap<String, usize>,
    /// Maximum campaigns running at once (fair-share across tenants).
    pub max_campaigns: usize,
    /// Observability handle shared by every campaign.
    pub tracer: Tracer,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            state_dir: PathBuf::from("cornetd-state"),
            fsync: FsyncPolicy::EveryN(64),
            pool: 8,
            default_quota: 2,
            quota_overrides: BTreeMap::new(),
            max_campaigns: 4,
            tracer: Tracer::noop(),
        }
    }
}

struct Entry {
    manifest: Manifest,
    scenario: JournalScenario,
    control: CampaignControl,
    phase: CampaignPhase,
    log: Arc<EventLog>,
    error: Option<String>,
    /// Blast radii of the bundle's declared campaigns, when it declared
    /// any — the interference gate compares submissions against these
    /// while the campaign is live. Recomputed from the stored spec on
    /// restart.
    blast: Option<Vec<CampaignBlast>>,
}

impl Entry {
    fn snapshot(&self) -> CampaignSnapshot {
        let log = self.log.lock();
        let fold = &log.fold;
        let ended = matches!(
            self.phase,
            CampaignPhase::Completed | CampaignPhase::Cancelled
        );
        CampaignSnapshot {
            id: self.manifest.id.clone(),
            tenant: self.manifest.tenant.clone(),
            name: self.manifest.name.clone(),
            phase: self.phase,
            total_instances: self.scenario.nodes,
            instances_done: fold.instances_done(),
            blocks_live: fold.blocks() - log.blocks_recovered,
            blocks_recovered: log.blocks_recovered,
            events: fold.events(),
            outcome: fold.result().filter(|_| ended).cloned(),
            error: self.error.clone(),
        }
    }

    /// Enter the terminal phase the journal folds to — `Failed` with
    /// `error` if the runner hit one — and end the event stream, in one
    /// step under the manager lock: when a follower's stream ends, the
    /// next snapshot has phase and outcome, and the scheduler and the
    /// interference gate see the campaign terminal.
    fn finish(&mut self, error: Option<String>) -> CampaignPhase {
        let (phase, error) = match error {
            Some(e) => (CampaignPhase::Failed, Some(e)),
            None => self.log.terminal().unwrap_or_else(|| {
                let open = "the dispatch ended with the campaign's journal open";
                (CampaignPhase::Failed, Some(open.into()))
            }),
        };
        self.phase = phase;
        self.error = error;
        self.log.close();
        phase
    }
}

/// How long a record that wakes nobody (`instance_admitted`,
/// `block_completed`) can wait for a parked follower to look again.
const FOLLOW_STALENESS: Duration = Duration::from_millis(100);

/// One campaign's journal records as JSONL lines and their fold, behind
/// its own lock. The journal listener writes and takes nothing else;
/// readers take the manager mutex only to find the log.
#[derive(Default)]
struct EventLog {
    state: Mutex<LogState>,
    cond: Condvar,
}

#[derive(Default)]
struct LogState {
    lines: Vec<String>,
    /// Every record of the journal, folded in order.
    fold: CampaignFold,
    /// The first record the fold refused: the campaign fails with it.
    fault: Option<String>,
    /// `block_completed` records the journal held when this process took
    /// the campaign over (a prior run's completed work).
    blocks_recovered: usize,
    /// The campaign is terminal: no line will follow.
    closed: bool,
}

impl LogState {
    fn push(&mut self, event: &JournalEvent, line: String) {
        self.lines.push(line);
        if self.fault.is_none() {
            if let Err(e) = self.fold.apply(event) {
                self.fault = Some(format!("journal: {e}"));
            }
        }
    }
}

impl EventLog {
    /// The log of a campaign whose journal already holds `events`.
    fn recovered(events: &[JournalEvent]) -> EventLog {
        let mut state = LogState::default();
        for event in events {
            state.push(event, event.encode());
        }
        state.blocks_recovered = state.fold.blocks();
        EventLog {
            state: Mutex::new(state),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The terminal phase the journal folds to, or `None` while it is
    /// open: `Completed` or `Cancelled` once it is closed, `Failed` if a
    /// record did not fold.
    fn terminal(&self) -> Option<(CampaignPhase, Option<String>)> {
        let state = self.lock();
        if let Some(fault) = &state.fault {
            return Some((CampaignPhase::Failed, Some(fault.clone())));
        }
        state.fold.result().map(|r| {
            let phase = if r.cancelled {
                CampaignPhase::Cancelled
            } else {
                CampaignPhase::Completed
            };
            (phase, None)
        })
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Lines from index `cursor` on, and whether the stream is complete,
    /// parking up to `timeout` while there would be nothing new.
    fn wait_since(&self, cursor: usize, timeout: Duration) -> (Vec<String>, bool) {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if state.lines.len() > cursor || state.closed || left.is_zero() {
                let lines = state.lines.get(cursor..).unwrap_or_default();
                return (lines.to_vec(), state.closed);
            }
            state = self
                .cond
                .wait_timeout(state, left.min(FOLLOW_STALENESS))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// The journal's tap: each line is the payload the journal encoded for
/// its record, copied before the log lock is taken.
impl RecordListener for EventLog {
    /// Followers are woken at instance and campaign boundaries; an
    /// instance's admission and block records ride along with its
    /// `instance_finished`, or are found within the bound.
    fn record(&self, event: &JournalEvent, payload: &str) {
        let line = payload.to_owned();
        let mut state = self.lock();
        state.push(event, line);
        if matches!(
            event,
            JournalEvent::InstanceAdmitted { .. } | JournalEvent::BlockCompleted(_)
        ) {
            return;
        }
        drop(state);
        self.cond.notify_all();
    }
}

struct ManagerState {
    entries: BTreeMap<String, Entry>,
    /// Submission-ordered queue of campaign ids awaiting a runner.
    queue: Vec<String>,
    running: usize,
    /// The runner threads not yet joined: `lock` drops the finished ones
    /// (the thread has exited; its handle only holds its result), and
    /// `drain` joins the rest.
    runners: Vec<JoinHandle<()>>,
    /// Fair-share bookkeeping: the scheduler tick at which each tenant
    /// was last served.
    served: BTreeMap<String, u64>,
    tick: u64,
    accepting: bool,
    /// Number of the last campaign id handed out (or found on disk).
    last_id: u64,
}

/// The multi-tenant campaign service behind `cornetd`.
pub struct CampaignManager {
    config: ManagerConfig,
    store: CampaignStore,
    book: QuotaBook,
    state: Mutex<ManagerState>,
    /// Signalled when a runner finishes (`drain` waits on it).
    cond: Condvar,
}

impl CampaignManager {
    /// Open the state directory, recover every stored campaign, and start
    /// runners for everything that was interrupted.
    pub fn start(config: ManagerConfig) -> Result<Arc<CampaignManager>, ApiError> {
        let (store, submissions) = CampaignStore::open(&config.state_dir)?;
        let book = QuotaBook::new(
            config.pool,
            config.default_quota,
            config.quota_overrides.clone(),
        );
        let manager = Arc::new(CampaignManager {
            store,
            book,
            state: Mutex::new(ManagerState {
                entries: BTreeMap::new(),
                queue: Vec::new(),
                running: 0,
                runners: Vec::new(),
                served: BTreeMap::new(),
                tick: 0,
                accepting: true,
                last_id: 0,
            }),
            cond: Condvar::new(),
            config,
        });
        manager.recover(submissions)?;
        manager.schedule();
        Ok(manager)
    }

    /// The tenant quota ledger.
    pub fn quotas(&self) -> BTreeMap<String, QuotaSnapshot> {
        self.book.snapshot()
    }

    /// `(in_flight, high_water, pool)` of the global execution pool.
    pub fn pool_usage(&self) -> (usize, usize, usize) {
        self.book.global()
    }

    /// The manager's tracer (per-tenant counters, campaign spans).
    pub fn tracer(&self) -> &Tracer {
        &self.config.tracer
    }

    /// Lock the manager's state, first dropping finished runners' handles:
    /// kept any longer, they raised `tenant_mix`'s peak RSS.
    fn lock(&self) -> std::sync::MutexGuard<'_, ManagerState> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.runners.retain(|runner| !runner.is_finished());
        state
    }

    /// Rebuild in-memory state from the store's submissions at startup.
    fn recover(self: &Arc<Self>, submissions: Vec<Submission>) -> Result<(), ApiError> {
        let mut state = self.lock();
        // Every id the store holds counts, with or without a record: an id
        // is never handed out twice, whatever a crash left behind.
        state.last_id = self.store.highest_id();
        for Submission { manifest, spec } in submissions {
            let scenario = JournalScenario::from_meta(&manifest.meta)
                .map_err(|e| ApiError::Internal(format!("{}: {e}", manifest.id)))?;
            // Recompute declared blast radii from the stored spec so the
            // interference gate survives restarts.
            let blast = load_bundle(&spec)
                .ok()
                .filter(|b| !b.campaigns.is_empty())
                .map(|b| campaign_blasts(&b));
            // No journal yet (or none readable): a fresh campaign.
            let journal = CampaignStore::journal_path(&self.config.state_dir, &manifest.id)?;
            let events = Journal::read(&journal)
                .map(|(events, _)| events)
                .unwrap_or_default();
            let mut entry = Entry {
                scenario,
                control: CampaignControl::new(),
                phase: CampaignPhase::Queued,
                log: Arc::new(EventLog::recovered(&events)),
                error: None,
                blast,
                manifest,
            };
            if entry.log.terminal().is_some() {
                entry.finish(None);
            } else {
                state.queue.push(entry.manifest.id.clone());
            }
            state.entries.insert(entry.manifest.id.clone(), entry);
        }
        Ok(())
    }

    /// Submit a MOP bundle for tenant `tenant`. The check gate runs
    /// first; bundles with error diagnostics are refused without creating
    /// any state.
    pub fn submit(self: &Arc<Self>, tenant: &str, body: &str) -> Result<SubmitOutcome, ApiError> {
        validate_tenant(tenant)?;
        let spec = parse(body).map_err(|e| ApiError::Invalid(format!("bad JSON body: {e}")))?;
        let name = spec
            .get("name")
            .and_then(|v| v.as_str())
            .unwrap_or("campaign")
            .to_string();
        let scenario = match spec.get("scenario") {
            Some(value) => JournalScenario::from_json(value).map_err(ApiError::Invalid)?,
            None => JournalScenario::default(),
        };
        let bundle = bundle_from_value(&spec).map_err(|e| ApiError::Invalid(e.to_string()))?;
        let report = match gate(&bundle) {
            Ok(report) => report,
            Err(report) => {
                self.config
                    .tracer
                    .incr(&format!("daemon.tenant.{tenant}.rejected"), 1);
                return Ok(SubmitOutcome::Rejected { report });
            }
        };
        // Declared-campaign bundles pass the interference gate: their
        // blast radii must not collide with any live campaign's.
        // Scenario-only submissions carry no declared campaigns and are
        // exempt (nothing to compare).
        let blast = if bundle.campaigns.is_empty() {
            None
        } else {
            Some(campaign_blasts(&bundle))
        };
        let mut state = self.lock();
        if !state.accepting {
            return Err(ApiError::Conflict("daemon is shutting down".into()));
        }
        if let Some(submitted) = &blast {
            let mut conflicts = Report::new();
            for entry in state.entries.values() {
                if entry.phase.is_terminal() {
                    continue;
                }
                let Some(live) = &entry.blast else { continue };
                for c in conflicts_between(submitted, live) {
                    conflicts.push(admission_conflict_diagnostic(&c, tenant, &entry.manifest));
                }
            }
            if conflicts.has_errors() {
                conflicts.sort();
                self.config
                    .tracer
                    .incr(&format!("daemon.tenant.{tenant}.interfering"), 1);
                return Ok(SubmitOutcome::Interfering { report: conflicts });
            }
        }
        state.last_id += 1;
        let id = CampaignStore::id_for(state.last_id);
        let mut meta = scenario.meta();
        meta.insert("fsync".into(), self.config.fsync.to_string());
        meta.insert("name".into(), name.clone());
        let manifest = Manifest {
            id: id.clone(),
            tenant: tenant.to_string(),
            name,
            meta,
        };
        self.store.create(&manifest, body)?;
        state.entries.insert(
            id.clone(),
            Entry {
                scenario,
                manifest,
                control: CampaignControl::new(),
                phase: CampaignPhase::Queued,
                log: Arc::default(),
                error: None,
                blast,
            },
        );
        state.queue.push(id.clone());
        drop(state);
        self.config
            .tracer
            .incr(&format!("daemon.tenant.{tenant}.submitted"), 1);
        self.schedule();
        Ok(SubmitOutcome::Accepted { id, report })
    }

    /// Snapshots of every campaign owned by `tenant`, id order.
    pub fn list(&self, tenant: &str) -> Vec<CampaignSnapshot> {
        self.lock()
            .entries
            .values()
            .filter(|e| e.manifest.tenant == tenant)
            .map(Entry::snapshot)
            .collect()
    }

    /// Snapshot of one campaign, enforcing tenant ownership.
    pub fn snapshot(&self, tenant: &str, id: &str) -> Result<CampaignSnapshot, ApiError> {
        let state = self.lock();
        owned_entry(&state, tenant, id).map(Entry::snapshot)
    }

    /// The declared blast radii of one campaign as a JSON document,
    /// enforcing tenant ownership — a tenant may inspect only its own
    /// blast radii, never reconstruct another tenant's from a 409.
    pub fn blast(&self, tenant: &str, id: &str) -> Result<String, ApiError> {
        let state = self.lock();
        let entry = owned_entry(&state, tenant, id)?;
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("id").str(&entry.manifest.id);
        w.key("campaigns").begin_array();
        for b in entry.blast.iter().flatten() {
            w.raw(&b.render_json());
        }
        w.end_array().end_object();
        Ok(out)
    }

    /// Pause a queued or running campaign: no new instances are admitted;
    /// in-flight work finishes.
    pub fn pause(&self, tenant: &str, id: &str) -> Result<CampaignSnapshot, ApiError> {
        let mut state = self.lock();
        let entry = owned_entry_mut(&mut state, tenant, id)?;
        match entry.phase {
            CampaignPhase::Running | CampaignPhase::Queued => {
                entry.control.pause();
                entry.phase = CampaignPhase::Paused;
                Ok(entry.snapshot())
            }
            CampaignPhase::Paused => Ok(entry.snapshot()),
            other => Err(ApiError::Conflict(format!(
                "campaign {id} is {}, cannot pause",
                other.label()
            ))),
        }
    }

    /// Resume a paused campaign.
    pub fn resume(self: &Arc<Self>, tenant: &str, id: &str) -> Result<CampaignSnapshot, ApiError> {
        let mut state = self.lock();
        // A runner is attached iff the id left the queue.
        let queued = state.queue.contains(&id.to_string());
        let entry = owned_entry_mut(&mut state, tenant, id)?;
        match entry.phase {
            CampaignPhase::Paused => {
                entry.control.resume();
                entry.phase = if queued {
                    CampaignPhase::Queued
                } else {
                    CampaignPhase::Running
                };
                let snap = entry.snapshot();
                drop(state);
                self.schedule();
                Ok(snap)
            }
            CampaignPhase::Running | CampaignPhase::Queued => Ok(entry.snapshot()),
            other => Err(ApiError::Conflict(format!(
                "campaign {id} is {}, cannot resume",
                other.label()
            ))),
        }
    }

    /// Cancel a campaign. Running campaigns drain in-flight work and
    /// close their journal (exactly like a breaker halt). A queued one is
    /// run cancelled: its dispatcher opens its journal — or reopens an
    /// interrupted one — and closes it at once, `cancelled` with nothing
    /// ordered, so a restart folds it cancelled and never starts it.
    pub fn cancel(self: &Arc<Self>, tenant: &str, id: &str) -> Result<CampaignSnapshot, ApiError> {
        let mut state = self.lock();
        let queued = state.queue.contains(&id.to_string());
        let entry = owned_entry_mut(&mut state, tenant, id)?;
        match entry.phase {
            CampaignPhase::Running | CampaignPhase::Paused if !queued => {
                entry.control.cancel();
                Ok(entry.snapshot())
            }
            CampaignPhase::Queued | CampaignPhase::Paused => {
                entry.control.cancel();
                // Under the manager lock: nothing sees the campaign between
                // its close record and its terminal phase. No block runs.
                let (manifest, scenario) = (&entry.manifest, &entry.scenario);
                let closed = self.drive_campaign(manifest, scenario, &entry.control, &entry.log);
                entry.finish(closed.err().map(|e| e.to_string()));
                let snap = entry.snapshot();
                state.queue.retain(|q| q != id);
                Ok(snap)
            }
            other => Err(ApiError::Conflict(format!(
                "campaign {id} is {}, cannot cancel",
                other.label()
            ))),
        }
    }

    /// Journal-event JSONL lines starting at index `from`, plus whether
    /// the campaign is terminal (stream complete), waiting up to `timeout`
    /// for new events when none are pending.
    pub fn wait_events(
        &self,
        tenant: &str,
        id: &str,
        from: usize,
        timeout: Duration,
    ) -> Result<(Vec<String>, bool), ApiError> {
        // The manager mutex only finds the log; the wait is on its own.
        let log = Arc::clone(&owned_entry(&self.lock(), tenant, id)?.log);
        Ok(log.wait_since(from, timeout))
    }

    /// Stop accepting submissions.
    pub fn begin_shutdown(&self) {
        self.lock().accepting = false;
    }

    /// Wait up to `timeout` for all runners to finish, and join their
    /// threads. Returns true when the manager drained completely: no
    /// campaign runs and no runner thread is left. Journals make an
    /// impatient exit safe either way.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (mut state, wait) = self
                .cond
                .wait_timeout_while(self.lock(), left, |s| s.running > 0)
                .unwrap_or_else(|e| e.into_inner());
            if wait.timed_out() {
                return false;
            }
            // Every runner has ended its campaign; what is left of each
            // thread is its last `schedule`, which may start another.
            let runners = std::mem::take(&mut state.runners);
            if runners.is_empty() {
                return true;
            }
            drop(state);
            for runner in runners {
                let _ = runner.join();
            }
        }
    }

    /// Start queued campaigns while scheduler slots are free, choosing
    /// the least-recently-served tenant first (FIFO within a tenant).
    fn schedule(self: &Arc<Self>) {
        loop {
            let mut state = self.lock();
            if state.running >= self.config.max_campaigns {
                return;
            }
            let pick = state
                .queue
                .iter()
                .filter(|id| {
                    state
                        .entries
                        .get(*id)
                        .is_some_and(|e| e.phase == CampaignPhase::Queued)
                })
                .min_by_key(|id| {
                    let tenant = &state.entries[*id].manifest.tenant;
                    state.served.get(tenant).copied().unwrap_or(0)
                })
                .cloned();
            let Some(id) = pick else {
                return;
            };
            state.queue.retain(|q| q != &id);
            state.running += 1;
            state.tick += 1;
            let tick = state.tick;
            let entry = state.entries.get_mut(&id).expect("picked entry exists");
            entry.phase = CampaignPhase::Running;
            let tenant = entry.manifest.tenant.clone();
            state.served.insert(tenant.clone(), tick);
            // Started under the lock, so `drain` never misses its handle.
            let manager = Arc::clone(self);
            let runner = std::thread::Builder::new()
                .name(format!("campaign-{id}"))
                .spawn(move || manager.run_one(&id))
                .expect("spawn campaign runner");
            state.runners.push(runner);
            drop(state);
            self.config
                .tracer
                .incr(&format!("daemon.tenant.{tenant}.started"), 1);
        }
    }

    /// Drive one campaign to a terminal state (runner thread body).
    fn run_one(self: &Arc<Self>, id: &str) {
        let (manifest, scenario, control, log) = {
            let state = self.lock();
            let entry = &state.entries[id];
            (
                entry.manifest.clone(),
                entry.scenario.clone(),
                entry.control.clone(),
                Arc::clone(&entry.log),
            )
        };
        let result = self.drive_campaign(&manifest, &scenario, &control, &log);
        let mut state = self.lock();
        state.running -= 1;
        let entry = state.entries.get_mut(id).expect("runner entry exists");
        let phase = entry.finish(result.err().map(|e| e.to_string()));
        drop(state);
        self.config.tracer.incr(
            &format!("daemon.tenant.{}.{}", manifest.tenant, phase.label()),
            1,
        );
        self.cond.notify_all();
        self.schedule();
    }

    /// Run or resume the dispatcher for one campaign, journaling into its
    /// log: the outcome is what the journal folds to.
    fn drive_campaign(
        &self,
        manifest: &Manifest,
        scenario: &JournalScenario,
        control: &CampaignControl,
        log: &Arc<EventLog>,
    ) -> cornet_types::Result<()> {
        let id = manifest.id.as_str();
        // An interrupted journal (records, not closed) resumes.
        let resume = log.lock().fold.events() > 0;
        let path = CampaignStore::journal_path(&self.config.state_dir, id)?;
        let tracer = self.config.tracer.clone();
        let mut span = tracer.span("campaign");
        span.attr("campaign", id);
        span.attr("tenant", manifest.tenant.as_str());
        span.attr("resumed", resume);
        let war = scenario.war().map_err(CornetError::InvalidWorkflow)?;
        // Fresh or reopened with its records (which the run resumes), the
        // write handle is ours: same tracer, and the campaign's log as the
        // journal's tap — only records that reached the file are folded,
        // and replayed blocks never re-append.
        let fsync = self.config.fsync;
        let journal = if resume {
            Journal::reopen(&path, fsync, Journal::read(&path)?)?
        } else {
            Journal::create(&path, fsync)?
        };
        let journal = journal
            .with_tracer(tracer.clone())
            .with_listener(Arc::clone(log) as EventListener);
        Dispatcher::new(war, scenario.registry(None, None), scenario.concurrency)?
            .with_tracer(tracer.clone())
            .with_admission(self.book.handle(&manifest.tenant))
            .with_journal(journal, manifest.meta.clone())
            .run_campaign(
                &scenario.schedule(),
                JournalScenario::inputs,
                Some(&scenario.breaker()),
                Some(control),
            )?;
        if let Some(result) = log.lock().fold.result() {
            span.attr("fingerprint", format!("{:016x}", result.fingerprint));
            span.attr("cancelled", result.cancelled);
        }
        span.finish();
        Ok(())
    }
}

/// Render one admission-gate conflict as a diagnostic. Same-tenant
/// conflicts name the live campaign; foreign-tenant conflicts are
/// redacted to the contested node/dimension — the 409 body must not leak
/// another tenant's campaign ids, names, or workflow names.
fn admission_conflict_diagnostic(c: &BlastConflict, tenant: &str, live: &Manifest) -> Diagnostic {
    let dims = c
        .dims
        .iter()
        .map(|d| d.label())
        .collect::<Vec<_>>()
        .join(", ");
    let other = if live.tenant == tenant {
        format!("your live campaign {} ('{}')", live.id, c.right)
    } else {
        "a live campaign of another tenant".to_string()
    };
    let source = SourceRef::Target {
        node: c.node_id,
        slot: Some(c.slot),
    };
    match c.code {
        "CN0601" => Diagnostic::error(
            Code("CN0601"),
            source,
            format!(
                "write-write race: submitted campaign '{}' and {} both write {{{dims}}} of {} \
                 in overlapping windows",
                c.left, other, c.node
            ),
        )
        .with_hint("wait for the live campaign to finish or reschedule into disjoint waves"),
        "CN0602" => Diagnostic::warning(
            Code("CN0602"),
            source,
            format!(
                "backout-vs-mainline overlap: a backout would race {} over {{{dims}}} of {}",
                other, c.node
            ),
        ),
        _ => Diagnostic::warning(
            Code("CN0604"),
            source,
            format!(
                "read-write hazard: submitted campaign '{}' and {} contest {{{dims}}} of {}",
                c.left, other, c.node
            ),
        ),
    }
}

fn validate_tenant(tenant: &str) -> Result<(), ApiError> {
    if tenant.is_empty()
        || tenant.len() > 64
        || !tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(ApiError::Invalid(format!(
            "bad tenant id {tenant:?}: expected 1-64 chars of [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

fn owned_entry<'a>(state: &'a ManagerState, tenant: &str, id: &str) -> Result<&'a Entry, ApiError> {
    let entry = state
        .entries
        .get(id)
        .ok_or_else(|| ApiError::NotFound(format!("no campaign {id}")))?;
    if entry.manifest.tenant != tenant {
        return Err(ApiError::Forbidden(format!(
            "campaign {id} belongs to another tenant"
        )));
    }
    Ok(entry)
}

fn owned_entry_mut<'a>(
    state: &'a mut ManagerState,
    tenant: &str,
    id: &str,
) -> Result<&'a mut Entry, ApiError> {
    owned_entry(state, tenant, id)?;
    Ok(state.entries.get_mut(id).expect("owned_entry found it"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_journal::Halt;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cornet-mgr-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn config(dir: &std::path::Path) -> ManagerConfig {
        ManagerConfig {
            state_dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            ..Default::default()
        }
    }

    fn small_spec() -> String {
        r#"{"name": "mgr-test", "scenario": {"nodes": 4, "latency_ms": 1}}"#.into()
    }

    /// A bundle that *declares* a campaign: one workflow, one inventory
    /// node, one [node, slot] assignment. Declared bundles go through the
    /// interference gate; node identity across bundles is the inventory
    /// name.
    fn declared_spec(name: &str, wf: &str, node: &str, slot: u32) -> String {
        format!(
            r#"{{"name": "{name}", "scenario": {{"nodes": 2, "latency_ms": 50}},
            "workflows": [{{"name": "{wf}",
                            "inputs": {{"node": "string", "software_version": "string"}},
                            "sequence": ["software_upgrade"]}}],
            "inventory": [{{"name": "{node}", "nf_type": "enb"}}],
            "campaigns": [{{"workflow": "{wf}", "assignments": [[0, {slot}]]}}]}}"#
        )
    }

    fn wait_terminal(manager: &Arc<CampaignManager>, tenant: &str, id: &str) -> CampaignSnapshot {
        // A campaign's event stream ends when it turns terminal.
        let mut from = 0;
        loop {
            let waited = manager.wait_events(tenant, id, from, Duration::from_secs(30));
            let (lines, done) = waited.unwrap();
            if done {
                return manager.snapshot(tenant, id).unwrap();
            }
            assert!(!lines.is_empty(), "campaign {id} wrote nothing for 30 s");
            from += lines.len();
        }
    }

    #[test]
    fn submit_runs_to_completion_with_progress() {
        let dir = tmp_dir("complete");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let out = manager.submit("acme", &small_spec()).unwrap();
        let SubmitOutcome::Accepted { id, .. } = out else {
            panic!("clean spec should be accepted");
        };
        let snap = wait_terminal(&manager, "acme", &id);
        assert_eq!(snap.phase, CampaignPhase::Completed);
        let outcome = snap.outcome.expect("terminal outcome");
        assert_eq!(outcome.completed + outcome.failed + outcome.rolled_back, 4);
        assert_eq!(snap.instances_done, 4);
        assert!(snap.blocks_live > 0, "listener saw live appends");
        assert_eq!(snap.blocks_recovered, 0);
        assert!(snap.events > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_drained_manager_has_joined_every_runner_thread() {
        let dir = tmp_dir("drain-joins");
        let manager = CampaignManager::start(ManagerConfig {
            max_campaigns: 2,
            ..config(&dir)
        })
        .unwrap();
        for _ in 0..5 {
            manager.submit("acme", &small_spec()).unwrap();
        }
        manager.begin_shutdown();
        assert!(manager.drain(Duration::from_secs(60)));
        assert!(manager.lock().runners.is_empty());
        // Each runner thread holds the manager until it has returned.
        assert_eq!(Arc::strong_count(&manager), 1, "a runner outlived drain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defective_bundle_is_refused_without_state() {
        let dir = tmp_dir("refused");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let body = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/check/defective.json"
        ))
        .expect("repo fixture");
        match manager.submit("acme", &body) {
            Ok(SubmitOutcome::Rejected { report }) => assert!(report.has_errors()),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(manager.list("acme").is_empty(), "no campaign was created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_isolation_hides_and_protects_campaigns() {
        let dir = tmp_dir("isolation");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let SubmitOutcome::Accepted { id, .. } = manager.submit("acme", &small_spec()).unwrap()
        else {
            panic!("accepted");
        };
        assert!(manager.list("rival").is_empty());
        assert!(matches!(
            manager.snapshot("rival", &id),
            Err(ApiError::Forbidden(_))
        ));
        assert!(matches!(
            manager.cancel("rival", &id),
            Err(ApiError::Forbidden(_))
        ));
        wait_terminal(&manager, "acme", &id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_resumes_interrupted_campaigns_without_reexecution() {
        let dir = tmp_dir("restart");
        // First life: run a campaign to completion, remember its
        // fingerprint, then fabricate an interrupted sibling by copying
        // a truncated journal prefix.
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let SubmitOutcome::Accepted { id, .. } = manager.submit("acme", &small_spec()).unwrap()
        else {
            panic!("accepted");
        };
        let done = wait_terminal(&manager, "acme", &id);
        let clean = done.outcome.expect("outcome").fingerprint;
        manager.begin_shutdown();
        assert!(manager.drain(Duration::from_secs(30)));
        drop(manager);

        // Cut the journal mid-campaign so the restart sees an interrupted
        // run.
        let path = CampaignStore::journal_path(&dir, &id).unwrap();
        let (events, _) = Journal::read(&path).unwrap();
        let keep = events.len() / 2;
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for event in &events[..keep] {
            journal.append(event).unwrap();
        }
        drop(journal);
        let recovered_blocks = events[..keep]
            .iter()
            .filter(|e| matches!(e, JournalEvent::BlockCompleted(_)))
            .count();

        // Second life: the manager must resume and land on the same
        // fingerprint, replaying (not re-executing) the prefix.
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let snap = wait_terminal(&manager, "acme", &id);
        assert_eq!(snap.phase, CampaignPhase::Completed);
        assert_eq!(snap.outcome.expect("outcome").fingerprint, clean);
        assert_eq!(snap.blocks_recovered, recovered_blocks);
        let total_blocks = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::BlockCompleted(_)))
            .count();
        assert_eq!(
            snap.blocks_live,
            total_blocks - recovered_blocks,
            "resume re-executes exactly the un-journaled remainder"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interfering_submission_is_refused_while_disjoint_is_admitted() {
        let dir = tmp_dir("interfere");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let SubmitOutcome::Accepted { id, .. } = manager
            .submit("acme", &declared_spec("a", "up-a", "enb-0", 1))
            .unwrap()
        else {
            panic!("first declared bundle admitted");
        };
        // Same node name, same slot, both write 'version': refused.
        match manager
            .submit("acme", &declared_spec("b", "up-b", "enb-0", 1))
            .unwrap()
        {
            SubmitOutcome::Interfering { report } => {
                assert!(report.has_errors());
                assert!(report.iter().any(|d| d.code == Code("CN0601")));
                assert!(
                    report.render_jsonl().contains(&id),
                    "same-tenant conflicts name the live campaign"
                );
            }
            other => panic!("expected interference refusal, got {other:?}"),
        }
        assert_eq!(manager.list("acme").len(), 1, "nothing was created");
        // Disjoint node: admitted alongside.
        let SubmitOutcome::Accepted { id: disjoint, .. } = manager
            .submit("acme", &declared_spec("c", "up-c", "gnb-9", 1))
            .unwrap()
        else {
            panic!("disjoint declared bundle admitted");
        };
        wait_terminal(&manager, "acme", &id);
        wait_terminal(&manager, "acme", &disjoint);
        // Terminal campaigns no longer occupy their blast radius.
        let SubmitOutcome::Accepted { id: retry, .. } = manager
            .submit("acme", &declared_spec("b", "up-b", "enb-0", 1))
            .unwrap()
        else {
            panic!("terminal campaigns must not block resubmission");
        };
        wait_terminal(&manager, "acme", &retry);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn admission_verdict_is_order_independent() {
        for (first, second) in [("up-a", "up-b"), ("up-b", "up-a")] {
            let dir = tmp_dir(&format!("order-{first}"));
            let manager = CampaignManager::start(config(&dir)).unwrap();
            let SubmitOutcome::Accepted { id, .. } = manager
                .submit("acme", &declared_spec(first, first, "enb-0", 1))
                .unwrap()
            else {
                panic!("first admitted");
            };
            // Whichever workflow arrives second, the pair's verdict is the
            // same write-write race on the same node.
            match manager
                .submit("acme", &declared_spec(second, second, "enb-0", 1))
                .unwrap()
            {
                SubmitOutcome::Interfering { report } => {
                    let d = report
                        .iter()
                        .find(|d| d.code == Code("CN0601"))
                        .expect("write-write race");
                    assert!(d.message.contains("enb-0"), "{}", d.message);
                    assert!(d.message.contains("version"), "{}", d.message);
                }
                other => panic!("expected interference, got {other:?}"),
            }
            wait_terminal(&manager, "acme", &id);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn foreign_tenant_conflicts_are_redacted_and_blast_is_owner_only() {
        let dir = tmp_dir("redact");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let SubmitOutcome::Accepted { id, .. } = manager
            .submit("acme", &declared_spec("a", "secret-flow", "enb-0", 1))
            .unwrap()
        else {
            panic!("admitted");
        };
        // The owner inspects its blast radii; other tenants get 403.
        let body = manager.blast("acme", &id).unwrap();
        assert!(body.contains("\"writes\""), "{body}");
        assert!(body.contains("secret-flow"), "{body}");
        assert!(matches!(
            manager.blast("rival", &id),
            Err(ApiError::Forbidden(_))
        ));
        // A rival's conflicting submission is refused without revealing
        // whose campaign it collided with.
        match manager
            .submit("rival", &declared_spec("b", "rival-flow", "enb-0", 1))
            .unwrap()
        {
            SubmitOutcome::Interfering { report } => {
                let jsonl = report.render_jsonl();
                assert!(jsonl.contains("another tenant"), "{jsonl}");
                assert!(!jsonl.contains(&id), "campaign id leaked: {jsonl}");
                assert!(
                    !jsonl.contains("secret-flow"),
                    "workflow name leaked: {jsonl}"
                );
            }
            other => panic!("expected interference, got {other:?}"),
        }
        wait_terminal(&manager, "acme", &id);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blast_radii_are_recomputed_from_the_spec_on_restart() {
        let dir = tmp_dir("blast-restart");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let SubmitOutcome::Accepted { id, .. } = manager
            .submit("acme", &declared_spec("a", "up-a", "enb-0", 1))
            .unwrap()
        else {
            panic!("admitted");
        };
        wait_terminal(&manager, "acme", &id);
        manager.begin_shutdown();
        assert!(manager.drain(Duration::from_secs(30)));
        drop(manager);
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let body = manager.blast("acme", &id).unwrap();
        assert!(body.contains("enb-0"), "{body}");
        assert!(body.contains("\"writes\""), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancel_queued_campaign_never_runs_even_after_restart() {
        let dir = tmp_dir("cancel-queued");
        let mut cfg = config(&dir);
        cfg.max_campaigns = 1;
        let manager = CampaignManager::start(cfg.clone()).unwrap();
        // Occupy the single scheduler slot, then queue a second campaign.
        let SubmitOutcome::Accepted { id: first, .. } =
            manager.submit("acme", &small_spec()).unwrap()
        else {
            panic!("accepted");
        };
        let SubmitOutcome::Accepted { id: second, .. } =
            manager.submit("acme", &small_spec()).unwrap()
        else {
            panic!("accepted");
        };
        let snap = manager.cancel("acme", &second).unwrap();
        assert_eq!(snap.phase, CampaignPhase::Cancelled);
        wait_terminal(&manager, "acme", &first);
        manager.begin_shutdown();
        assert!(manager.drain(Duration::from_secs(30)));
        drop(manager);
        let manager = CampaignManager::start(cfg).unwrap();
        let snap = manager.snapshot("acme", &second).unwrap();
        assert_eq!(snap.phase, CampaignPhase::Cancelled);
        assert_eq!(snap.instances_done, 0, "tombstone, not a run");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn accepted(manager: &Arc<CampaignManager>) -> String {
        match manager.submit("acme", &small_spec()).unwrap() {
            SubmitOutcome::Accepted { id, .. } => id,
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn a_journal_or_a_directory_without_a_record_still_holds_its_id() {
        let dir = tmp_dir("orphan");
        // What a lost record, or a crash of an older build between its
        // `mkdir` and its manifest write, leaves behind.
        std::fs::create_dir_all(dir.join("campaigns/c000003")).unwrap();
        std::fs::write(dir.join("campaigns/c000007.wal"), "").unwrap();
        let manager = CampaignManager::start(config(&dir)).unwrap();
        assert!(manager.list("acme").is_empty(), "an orphan is no campaign");
        for id in ["c000008", "c000009"] {
            assert_eq!(accepted(&manager), id);
            wait_terminal(&manager, "acme", id);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ids_stay_unique_across_a_restart_with_every_kind_of_directory() {
        let dir = tmp_dir("ids-restart");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let terminal = accepted(&manager);
        let interrupted = accepted(&manager);
        wait_terminal(&manager, "acme", &terminal);
        wait_terminal(&manager, "acme", &interrupted);
        manager.begin_shutdown();
        assert!(manager.drain(Duration::from_secs(30)));
        drop(manager);
        // Make the second campaign look interrupted: half a journal. And
        // leave an orphan above both.
        let journal_path = CampaignStore::journal_path(&dir, &interrupted).unwrap();
        let (events, _) = Journal::read(&journal_path).unwrap();
        let journal = Journal::create(&journal_path, FsyncPolicy::Never).unwrap();
        for event in &events[..events.len() / 2] {
            journal.append(event).unwrap();
        }
        drop(journal);
        std::fs::write(dir.join("campaigns/c000005.wal"), "").unwrap();

        let manager = CampaignManager::start(config(&dir)).unwrap();
        assert_eq!(accepted(&manager), "c000006");
        assert_eq!(accepted(&manager), "c000007");
        let mut ids: Vec<String> = manager.list("acme").into_iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids, ["c000001", "c000002", "c000006", "c000007"]);
        for id in &ids {
            wait_terminal(&manager, "acme", id);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a submission costs must not depend on what the store holds:
    /// it opens no file of another campaign. Timing that is noise on a
    /// shared disk, so the witness is a journal that blocks whoever opens
    /// it — a FIFO with no writer.
    #[test]
    fn submit_opens_no_other_campaigns_file() {
        let dir = tmp_dir("fifo");
        let manager = CampaignManager::start(config(&dir)).unwrap();
        let fifo = std::process::Command::new("mkfifo")
            .arg(dir.join("campaigns/c000041.wal"))
            .status();
        if !fifo.is_ok_and(|status| status.success()) {
            eprintln!("skipped: no mkfifo on this machine");
            return;
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let submitter = Arc::clone(&manager);
        std::thread::spawn(move || tx.send(accepted(&submitter)));
        let id = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("submit blocked on a manifest it has no reason to open");
        assert_eq!(id, "c000001", "the counter was seeded at start-up, once");
        wait_terminal(&manager, "acme", &id);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn opened() -> JournalEvent {
        JournalEvent::CampaignOpened {
            meta: BTreeMap::new(),
            assignments: vec![(0, 1), (1, 1)],
            concurrency: 1,
        }
    }

    fn admitted(node: u32) -> JournalEvent {
        JournalEvent::InstanceAdmitted { node, slot: 1 }
    }

    fn finished(node: u32) -> JournalEvent {
        JournalEvent::InstanceFinished {
            node,
            slot: 1,
            status: "completed".into(),
            detail: None,
        }
    }

    #[test]
    fn a_record_that_wakes_nobody_reaches_a_parked_follower_within_the_staleness_bound() {
        let log = Arc::new(EventLog::default());
        let (parking_tx, parking) = std::sync::mpsc::channel();
        let follower = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                parking_tx.send(()).unwrap();
                let started = Instant::now();
                (
                    log.wait_since(0, Duration::from_secs(10)),
                    started.elapsed(),
                )
            })
        };
        parking.recv().unwrap();
        // Give the follower time to park; if it has not, it finds the line
        // at once and the bound holds trivially.
        std::thread::sleep(Duration::from_millis(20));
        log.record(&admitted(3), &admitted(3).encode());
        let ((lines, closed), waited) = follower.join().unwrap();
        assert_eq!(lines, [admitted(3).encode()]);
        assert!(!closed);
        // No boundary record and no close followed: the follower looked
        // again on its own, long before its deadline.
        assert!(waited < Duration::from_secs(5), "parked for {waited:?}");
    }

    #[test]
    fn the_log_counts_what_it_holds_and_closing_it_ends_every_wait() {
        let log = EventLog::recovered(&[opened(), admitted(0), finished(0), admitted(1)]);
        assert_eq!(
            log.wait_since(2, Duration::ZERO).0,
            [finished(0).encode(), admitted(1).encode()]
        );
        assert_eq!(log.wait_since(7, Duration::ZERO), (Vec::new(), false));
        log.record(&finished(1), &finished(1).encode());
        {
            let state = log.lock();
            assert_eq!(state.lines.len(), 5);
            assert_eq!((state.fold.events(), state.fold.instances_done()), (5, 2));
            assert_eq!(state.fold.blocks() - state.blocks_recovered, 0);
            assert!(state.fault.is_none());
        }
        assert_eq!(log.terminal(), None, "open until its journal closes");
        // Nothing new and not closed: the wait runs to its (short) timeout.
        assert_eq!(
            log.wait_since(5, Duration::from_millis(1)),
            (Vec::new(), false)
        );
        log.close();
        assert_eq!(
            log.wait_since(5, Duration::from_secs(10)),
            (Vec::new(), true)
        );
        assert_eq!(
            log.wait_since(4, Duration::ZERO),
            (vec![finished(1).encode()], true)
        );
    }

    #[test]
    fn a_closed_journal_folds_to_its_phase_and_a_refused_record_fails_the_campaign() {
        let cancelled = JournalEvent::CampaignClosed(Some(Halt {
            ordered: 0,
            cancelled: true,
        }));
        let log = EventLog::recovered(&[opened(), cancelled]);
        assert_eq!(log.terminal(), Some((CampaignPhase::Cancelled, None)));
        let (a, b) = (admitted(0), admitted(1));
        let closed = JournalEvent::CampaignClosed(None);
        let log = EventLog::recovered(&[opened(), a, finished(0), b, finished(1), closed]);
        assert_eq!(log.terminal(), Some((CampaignPhase::Completed, None)));
        // A bare close reports every instance: one that never finished is
        // corruption, not an outcome.
        let closed = JournalEvent::CampaignClosed(None);
        let log = EventLog::recovered(&[opened(), admitted(0), finished(0), closed]);
        let (phase, error) = log.terminal().expect("closed");
        assert_eq!(phase, CampaignPhase::Failed);
        assert!(error.unwrap().contains("never finished"));
        let log = EventLog::recovered(&[admitted(0)]);
        let (phase, error) = log.terminal().expect("a refused record ends the campaign");
        assert_eq!(phase, CampaignPhase::Failed);
        assert!(error.unwrap().contains("campaign_opened"));
    }
}
