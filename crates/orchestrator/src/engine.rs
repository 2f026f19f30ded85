//! The workflow execution engine.
//!
//! Token semantics over a validated workflow graph: start → tasks /
//! decisions → end. Each building block executes atomically; its status
//! and wall-clock duration are logged ("we enhanced the Camunda-based
//! workflow orchestrator to automatically log the status of execution for
//! each building block along with the time taken", §3.4).

use crate::executor::{ExecutorRegistry, GlobalState};
use cornet_obs::{SpanId, Tracer};
use cornet_types::{CornetError, ParamValue, Result};
use cornet_workflow::{NodeKind, WarArtifact, WfNodeId, Workflow};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A journaled block outcome to be replayed instead of re-executed.
///
/// Crash recovery reconstructs these from `BlockCompleted` journal records:
/// the logged execution row, the post-block global state snapshot, and
/// whether the block ran in the forward flow or a backout subgraph.
#[derive(Clone, Debug)]
pub struct ReplayRow {
    /// The execution log row exactly as it was first recorded.
    pub exec: BlockExecution,
    /// Global state immediately after the block completed.
    pub state: GlobalState,
    /// True when the row was recorded inside a backout subgraph.
    pub backout: bool,
}

/// Hears the blocks an engine executes fresh — never replayed rows, which
/// are already journaled. The dispatcher journals through it.
pub trait BlockSink: Send + Sync {
    /// A block is about to invoke its executor for the first time. Called
    /// before the block's span opens, so what the sink does here is not
    /// charged to the block: the dispatcher writes the outcomes it holds,
    /// so that no executor runs while a block outcome of its instance is
    /// unwritten.
    fn before_execute(&self);

    /// A block finished: its log row, the post-block state, and whether
    /// it ran inside a backout subgraph.
    fn completed(&self, exec: &BlockExecution, state: &GlobalState, backout: bool);
}

/// Outcome of one building-block execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockStatus {
    /// The block completed successfully on the first attempt.
    Success,
    /// The block returned an error (the offending block for fall-out
    /// analysis).
    Failed,
    /// The block overran its execution deadline on its final attempt.
    TimedOut,
    /// The block failed transiently, then succeeded on a retry.
    Recovered {
        /// Total attempts taken, including the successful one.
        attempts: u32,
    },
}

impl BlockStatus {
    /// True when the block ultimately produced its outputs (first-try
    /// success or recovery through retries).
    pub fn is_success(self) -> bool {
        matches!(self, BlockStatus::Success | BlockStatus::Recovered { .. })
    }

    /// Stable label used as the `status` span attribute and the metrics
    /// counter suffix.
    pub fn label(self) -> &'static str {
        match self {
            BlockStatus::Success => "success",
            BlockStatus::Failed => "failed",
            BlockStatus::TimedOut => "timed_out",
            BlockStatus::Recovered { .. } => "recovered",
        }
    }
}

/// One row of the fine-grained execution log.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockExecution {
    /// Block name.
    pub block: String,
    /// Execution status.
    pub status: BlockStatus,
    /// Execution time summed over attempts — simulated when the executor
    /// reports latency through [`crate::resilience::SIM_LATENCY_KEY`],
    /// wall-clock otherwise.
    pub duration: Duration,
    /// Error detail of the final attempt when failed.
    pub error: Option<String>,
    /// Attempts taken (1 = no retries).
    pub attempts: u32,
    /// Total simulated backoff waited between attempts.
    pub backoff: Duration,
}

/// Status of a workflow instance.
#[derive(Clone, Debug, PartialEq)]
pub enum InstanceStatus {
    /// Not yet started or mid-flight.
    Running,
    /// Reached an end node — "completed through at least one start to end
    /// flow".
    Completed,
    /// A block failed; carries the block name.
    Failed(String),
    /// A block failed permanently and the workflow's backout subgraph
    /// completed, reverting the change; carries the offending block.
    RolledBack(String),
}

impl InstanceStatus {
    /// Stable label used as the `status` span attribute and the metrics
    /// counter suffix.
    pub fn label(&self) -> &'static str {
        match self {
            InstanceStatus::Running => "running",
            InstanceStatus::Completed => "completed",
            InstanceStatus::Failed(_) => "failed",
            InstanceStatus::RolledBack(_) => "rolled_back",
        }
    }
}

/// Executes one workflow instance.
pub struct Engine {
    /// Shared, never copied: every instance of a dispatch reads one graph.
    workflow: Arc<Workflow>,
    registry: ExecutorRegistry,
    state: GlobalState,
    position: Option<WfNodeId>,
    status: InstanceStatus,
    log: Vec<BlockExecution>,
    /// Virtual clock: simulated execution latency plus retry backoffs.
    sim_elapsed: Duration,
    /// Observability: block spans are recorded here, parented under
    /// `span_parent` (the dispatcher's instance span).
    tracer: Tracer,
    span_parent: Option<SpanId>,
    /// True for the sub-engine that executes a backout subgraph; its block
    /// spans are tagged so fall-out dashboards can split forward flow from
    /// revert flow.
    in_backout: bool,
    /// Journaled rows still to be replayed. While non-empty, `step()`
    /// restores each recorded outcome instead of invoking the executor, so
    /// resumed instances never re-execute a completed (possibly mutating)
    /// block.
    replay: VecDeque<ReplayRow>,
    /// Hears fresh executions (journaling).
    sink: Option<Arc<dyn BlockSink>>,
}

impl Engine {
    /// Create an engine over an already-validated workflow — owned, or
    /// an `Arc` shared with the other instances of a dispatch.
    pub fn new(
        workflow: impl Into<Arc<Workflow>>,
        registry: ExecutorRegistry,
        inputs: GlobalState,
    ) -> Self {
        let workflow = workflow.into();
        let position = workflow.start();
        Engine {
            workflow,
            registry,
            state: inputs,
            position,
            status: InstanceStatus::Running,
            log: Vec::new(),
            sim_elapsed: Duration::ZERO,
            tracer: Tracer::noop(),
            span_parent: None,
            in_backout: false,
            replay: VecDeque::new(),
            sink: None,
        }
    }

    /// Load journaled rows to replay. Must be called before the first
    /// `step()`; rows are consumed in order and validated against the
    /// workflow's actual token path.
    pub fn set_replay(&mut self, rows: Vec<ReplayRow>) {
        self.replay = rows.into();
    }

    /// How many journaled rows have not yet been consumed. A non-zero
    /// value after the instance finished means the journal disagrees with
    /// the workflow — the caller must treat that as corruption.
    pub fn replay_remaining(&self) -> usize {
        self.replay.len()
    }

    /// Attach a sink that hears every freshly executed block (replayed
    /// rows are skipped — they are already journaled).
    pub fn set_block_sink(&mut self, sink: Arc<dyn BlockSink>) {
        self.sink = Some(sink);
    }

    /// Attach a tracer; block spans nest under `parent` (typically the
    /// dispatcher's instance span).
    pub fn set_trace(&mut self, tracer: Tracer, parent: Option<SpanId>) {
        self.tracer = tracer;
        self.span_parent = parent;
    }

    /// Create an engine by unpacking a deployed WAR artifact — the
    /// dispatcher's invocation path ("the change workflow execution is
    /// invoked by the orchestrator using the REST API information stored
    /// in the workflow meta-data").
    pub fn from_war(
        war: &WarArtifact,
        registry: ExecutorRegistry,
        inputs: GlobalState,
    ) -> Result<Self> {
        Ok(Self::new(war.unpack()?, registry, inputs))
    }

    /// Current status.
    pub fn status(&self) -> &InstanceStatus {
        &self.status
    }

    /// The execution log so far.
    pub fn log(&self) -> &[BlockExecution] {
        &self.log
    }

    /// The execution log, moved out of the finished engine.
    pub fn into_log(self) -> Vec<BlockExecution> {
        self.log
    }

    /// Read a variable from the instance's global state.
    pub fn state_var(&self, key: &str) -> Option<&ParamValue> {
        self.state.get(key)
    }

    /// The full global state (for end-of-run output extraction).
    pub fn state(&self) -> &GlobalState {
        &self.state
    }

    /// Simulated time spent in this instance: injected executor latency
    /// plus retry backoffs. Wall time is never slept on.
    pub fn sim_elapsed(&self) -> Duration {
        self.sim_elapsed
    }

    /// Execute a single node and advance the token. Returns the new status.
    pub fn step(&mut self) -> Result<&InstanceStatus> {
        if self.status != InstanceStatus::Running {
            return Err(CornetError::InvalidState(format!(
                "instance already finished: {:?}",
                self.status
            )));
        }
        let Some(pos) = self.position else {
            self.status = InstanceStatus::Failed("no start node".into());
            return Ok(&self.status);
        };
        // The node is borrowed from the shared graph, so the arms below
        // change the instance's own fields directly, never `&mut self`
        // as a whole, until the node's last use.
        let node = self.workflow.node(pos);
        match &node.kind {
            NodeKind::Start => {
                self.position = Some(next_node(&self.workflow, pos, None)?);
            }
            NodeKind::End => {
                self.status = InstanceStatus::Completed;
            }
            NodeKind::Task { block } => {
                // Replay path: a journaled outcome exists for this block —
                // restore it instead of re-executing, so a kill-safe resume
                // never runs a completed (possibly mutating) block twice.
                if let Some(front) = self.replay.front() {
                    if front.exec.block != *block || front.backout != self.in_backout {
                        return Err(CornetError::DataIntegrity(format!(
                            "journal replay mismatch: recorded block '{}' (backout: {}) but workflow is at '{}' (backout: {})",
                            front.exec.block, front.backout, block, self.in_backout
                        )));
                    }
                    let row = self.replay.pop_front().expect("front was checked");
                    self.sim_elapsed += row.exec.duration + row.exec.backoff;
                    self.state = row.state;
                    let succeeded = row.exec.status.is_success();
                    let block_name = row.exec.block.clone();
                    // Replayed rows are NOT sent to the sink: they are
                    // already in the journal.
                    self.log.push(row.exec);
                    if succeeded {
                        self.position = Some(next_node(&self.workflow, pos, None)?);
                    } else {
                        self.fail_block(block_name);
                    }
                    return Ok(&self.status);
                }
                let policy = self.registry.retry_policy_for(block);
                let deadline = self.registry.deadline_for(block);
                if let Some(sink) = &self.sink {
                    sink.before_execute();
                }
                let mut span = self.tracer.span_with_parent("block", self.span_parent);
                span.attr("block", block.as_str());
                if self.in_backout {
                    span.attr("backout", true);
                }
                let mut attempts: u32 = 0;
                let mut exec_total = Duration::ZERO;
                let mut backoff_total = Duration::ZERO;
                // Retry loop: each attempt is atomic; transient errors
                // retry under the block's policy.
                let outcome = loop {
                    attempts += 1;
                    let started = Instant::now();
                    let result = self.registry.execute(block, &mut self.state);
                    let wall = started.elapsed();
                    let duration =
                        crate::resilience::take_sim_latency(&mut self.state).unwrap_or(wall);
                    exec_total += duration;
                    // Deadline overruns become timeout failures even when
                    // the executor itself returned Ok — a change that
                    // lands outside its window is a fall-out.
                    let result = match deadline {
                        Some(d) if duration > d => Err(CornetError::Timeout(format!(
                            "block '{block}' ran {}ms, deadline {}ms",
                            duration.as_millis(),
                            d.as_millis()
                        ))),
                        _ => result,
                    };
                    match result {
                        Ok(()) => break Ok(()),
                        Err(e) => {
                            let may_retry = e.is_transient()
                                && policy.as_ref().is_some_and(|p| p.allows_retry(attempts));
                            if !may_retry {
                                break Err(e);
                            }
                            backoff_total += policy
                                .as_ref()
                                .expect("retry implies policy")
                                .backoff_for(block, attempts);
                        }
                    }
                };
                self.sim_elapsed += exec_total + backoff_total;
                match outcome {
                    Ok(()) => {
                        let status = if attempts > 1 {
                            BlockStatus::Recovered { attempts }
                        } else {
                            BlockStatus::Success
                        };
                        self.finish_block_span(span, status, attempts, backoff_total);
                        self.log.push(BlockExecution {
                            block: block.clone(),
                            status,
                            duration: exec_total,
                            error: None,
                            attempts,
                            backoff: backoff_total,
                        });
                        self.emit_to_sink();
                        self.position = Some(next_node(&self.workflow, pos, None)?);
                    }
                    Err(e) => {
                        let status = if matches!(e, CornetError::Timeout(_)) {
                            BlockStatus::TimedOut
                        } else {
                            BlockStatus::Failed
                        };
                        span.attr("error", e.to_string());
                        self.finish_block_span(span, status, attempts, backoff_total);
                        self.log.push(BlockExecution {
                            block: block.clone(),
                            status,
                            duration: exec_total,
                            error: Some(e.to_string()),
                            attempts,
                            backoff: backoff_total,
                        });
                        self.emit_to_sink();
                        self.fail_block(block.clone());
                    }
                }
            }
            NodeKind::Decision { variable } => {
                let value = self
                    .state
                    .get(variable)
                    .and_then(|v| v.as_bool())
                    .ok_or_else(|| {
                        CornetError::ExecutionFailed(format!(
                            "decision variable '{variable}' is not a bool in state"
                        ))
                    })?;
                self.position = Some(next_node(&self.workflow, pos, Some(value))?);
            }
        }
        Ok(&self.status)
    }

    /// Report the just-pushed log row to the block sink (fresh executions
    /// only — replay never calls this).
    fn emit_to_sink(&self) {
        if let (Some(sink), Some(row)) = (&self.sink, self.log.last()) {
            sink.completed(row, &self.state, self.in_backout);
        }
    }

    /// Close a block span with the outcome attributes every block span
    /// carries, and bump the per-status counters / duration histogram.
    fn finish_block_span(
        &self,
        mut span: cornet_obs::ActiveSpan,
        status: BlockStatus,
        attempts: u32,
        backoff_total: Duration,
    ) {
        if !span.is_recording() {
            return;
        }
        // Elapsed time comes from the tracer's own clock (not the wall)
        // so a deterministic clock yields a byte-stable export; the
        // wall-measured execution split stays in the BlockExecution log.
        let elapsed_ms = self.tracer.now_ns().saturating_sub(span.start_ns()) as f64 / 1e6;
        span.attr("status", status.label());
        span.attr("attempts", attempts);
        span.attr("backoff_ms", backoff_total.as_secs_f64() * 1e3);
        span.finish();
        self.tracer.incr(&format!("blocks.{}", status.label()), 1);
        if attempts > 1 {
            self.tracer
                .incr("blocks.retry_attempts", (attempts - 1) as u64);
        }
        self.tracer.observe("block.duration_ms", elapsed_ms);
    }

    /// Handle a block that failed beyond recovery: execute the workflow's
    /// backout subgraph if one is designated (the paper's MOPs carry
    /// backout steps), reporting `RolledBack` on a clean revert and
    /// `Failed` otherwise. Engine-structural errors never reach here —
    /// backout only makes sense for block-level fall-outs.
    fn fail_block(&mut self, block: String) {
        let Some(backout) = self.workflow.backout.clone() else {
            self.status = InstanceStatus::Failed(block);
            return;
        };
        let mut span = self.tracer.span_with_parent("backout", self.span_parent);
        span.attr("block", block.as_str());
        // The backout runs over the instance's *current* state — it sees
        // everything the forward flow produced before failing (e.g.
        // `previous_version` from a half-done upgrade).
        let mut sub = Engine::new(*backout, self.registry.clone(), self.state.clone());
        sub.set_trace(
            self.tracer.clone(),
            Some(span.id()).filter(|_| span.is_recording()),
        );
        sub.in_backout = true;
        // Hand any remaining journaled rows to the backout sub-engine:
        // they were recorded with `backout: true`, so its replay check
        // accepts them. Fresh backout blocks flow through the same sink.
        sub.replay = std::mem::take(&mut self.replay);
        sub.sink = self.sink.clone();
        let reverted = sub
            .run()
            .map(|s| *s == InstanceStatus::Completed)
            .unwrap_or(false);
        self.log.extend(sub.log.iter().cloned());
        self.sim_elapsed += sub.sim_elapsed;
        self.replay = std::mem::take(&mut sub.replay);
        span.attr("reverted", reverted);
        span.finish();
        if reverted {
            self.state = sub.state;
            self.status = InstanceStatus::RolledBack(block);
        } else {
            self.status = InstanceStatus::Failed(block);
        }
    }

    /// Run until completion or failure.
    ///
    /// Engine-level errors (missing decision variable, dangling edge) are
    /// both returned AND recorded in the instance status, so fall-out
    /// analysis never sees an errored instance stuck at `Running`.
    pub fn run(&mut self) -> Result<&InstanceStatus> {
        while self.status == InstanceStatus::Running {
            if let Err(e) = self.step() {
                self.status = InstanceStatus::Failed(format!("engine: {e}"));
                return Err(e);
            }
        }
        Ok(&self.status)
    }
}

/// The node the token moves to from `from` along the edge whose guard is
/// `guard`.
fn next_node(workflow: &Workflow, from: WfNodeId, guard: Option<bool>) -> Result<WfNodeId> {
    workflow
        .out_edges(from)
        .find(|e| e.guard == guard)
        .map(|e| e.to)
        .ok_or_else(|| {
            CornetError::InvalidWorkflow(format!(
                "no outgoing edge with guard {guard:?} from '{}'",
                workflow.node(from).label
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_catalog::builtin_catalog;
    use cornet_types::ParamType;
    use cornet_workflow::builtin::software_upgrade_workflow;
    use cornet_workflow::Designer;

    /// Executors that simulate a happy-path upgrade in state only.
    fn happy_registry() -> ExecutorRegistry {
        let mut reg = ExecutorRegistry::new();
        reg.register("health_check", |s| {
            s.insert("healthy".into(), ParamValue::from(true));
            Ok(())
        });
        reg.register("software_upgrade", |s| {
            s.insert("previous_version".into(), ParamValue::from("19.3"));
            s.insert("upgraded".into(), ParamValue::from(true));
            Ok(())
        });
        reg.register("pre_post_comparison", |s| {
            s.insert("passed".into(), ParamValue::from(true));
            Ok(())
        });
        reg.register("roll_back", |s| {
            s.insert("rolled_back".into(), ParamValue::from(true));
            Ok(())
        });
        reg
    }

    fn inputs() -> GlobalState {
        let mut g = GlobalState::new();
        g.insert("node".into(), ParamValue::from("enb-1"));
        g.insert("software_version".into(), ParamValue::from("20.1"));
        g
    }

    #[test]
    fn happy_path_completes_without_rollback() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut engine = Engine::new(wf, happy_registry(), inputs());
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        let blocks: Vec<&str> = engine.log().iter().map(|b| b.block.as_str()).collect();
        assert_eq!(
            blocks,
            vec!["health_check", "software_upgrade", "pre_post_comparison"]
        );
        assert!(engine
            .log()
            .iter()
            .all(|b| b.status == BlockStatus::Success));
    }

    #[test]
    fn failed_comparison_triggers_rollback() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        reg.register("pre_post_comparison", |s| {
            s.insert("passed".into(), ParamValue::from(false));
            Ok(())
        });
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        let blocks: Vec<&str> = engine.log().iter().map(|b| b.block.as_str()).collect();
        assert!(blocks.contains(&"roll_back"), "{blocks:?}");
    }

    #[test]
    fn unhealthy_node_ends_early() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        reg.register("health_check", |s| {
            s.insert("healthy".into(), ParamValue::from(false));
            Ok(())
        });
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        assert_eq!(engine.log().len(), 1, "only the health check ran");
    }

    #[test]
    fn block_failure_identifies_offender() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        reg.register("software_upgrade", |_| {
            Err(CornetError::ExecutionFailed("ssh connectivity lost".into()))
        });
        let mut engine = Engine::new(wf, reg, inputs());
        let status = engine.run().unwrap().clone();
        assert_eq!(status, InstanceStatus::Failed("software_upgrade".into()));
        let failed = engine.log().last().unwrap();
        assert_eq!(failed.status, BlockStatus::Failed);
        assert!(failed.error.as_deref().unwrap().contains("ssh"));
    }

    #[test]
    fn finished_instance_rejects_further_steps() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut engine = Engine::new(wf, happy_registry(), inputs());
        engine.run().unwrap();
        assert!(engine.step().is_err());
    }

    #[test]
    fn decision_without_variable_fails_loudly() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "bad");
        d.input("node", ParamType::String);
        let start = d.start();
        let hc = d.task("health_check").unwrap();
        let dec = d.decision("healthy");
        let e1 = d.end();
        let e2 = d.end();
        d.connect(start, hc).connect(hc, dec);
        d.connect_if(dec, e1, true).connect_if(dec, e2, false);
        let wf = d.build();
        // health_check executor that does NOT set `healthy`.
        let mut reg = ExecutorRegistry::new();
        reg.register("health_check", |_| Ok(()));
        let mut engine = Engine::new(wf, reg, inputs());
        let err = engine.run();
        assert!(err.is_err(), "decision on unset variable must error");
        assert!(
            matches!(engine.status(), InstanceStatus::Failed(m) if m.starts_with("engine:")),
            "status records the engine-level failure: {:?}",
            engine.status()
        );
    }

    #[test]
    fn from_war_round_trip() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let war = WarArtifact::package(&wf, &cat).unwrap();
        let mut engine = Engine::from_war(&war, happy_registry(), inputs()).unwrap();
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
    }

    // --- Resilience: retries, deadlines, backout. ---

    use crate::resilience::{add_sim_latency, RetryPolicy};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    /// A sink recording every fresh block as the row a resume replays.
    struct Recorder(Arc<Mutex<Vec<ReplayRow>>>);

    impl BlockSink for Recorder {
        fn before_execute(&self) {}

        fn completed(&self, exec: &BlockExecution, state: &GlobalState, backout: bool) {
            self.0.lock().unwrap().push(ReplayRow {
                exec: exec.clone(),
                state: state.clone(),
                backout,
            });
        }
    }

    #[test]
    fn transient_failure_recovers_under_retry_policy() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        reg.register("software_upgrade", move |s| {
            if c.fetch_add(1, Ordering::SeqCst) < 2 {
                return Err(CornetError::TransientFailure(
                    "ssh connectivity lost".into(),
                ));
            }
            s.insert("previous_version".into(), ParamValue::from("19.3"));
            Ok(())
        });
        reg.set_retry_policy("software_upgrade", RetryPolicy::with_attempts(5));
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        let row = engine
            .log()
            .iter()
            .find(|b| b.block == "software_upgrade")
            .unwrap();
        assert_eq!(row.status, BlockStatus::Recovered { attempts: 3 });
        assert_eq!(row.attempts, 3);
        assert!(
            row.backoff > Duration::ZERO,
            "two backoffs were accumulated"
        );
        assert!(
            engine.sim_elapsed() >= row.backoff,
            "backoff counts as simulated time"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_failure_never_retries() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        reg.register("software_upgrade", move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            Err(CornetError::ExecutionFailed("bad image".into()))
        });
        reg.set_retry_policy("software_upgrade", RetryPolicy::with_attempts(5));
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(
            engine.run().unwrap(),
            &InstanceStatus::Failed("software_upgrade".into())
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "permanent errors are terminal"
        );
    }

    #[test]
    fn deadline_overrun_becomes_timed_out() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        // The executor "succeeds", but reports 900ms of simulated latency
        // against a 200ms deadline.
        reg.register("software_upgrade", |s| {
            add_sim_latency(s, 900);
            s.insert("previous_version".into(), ParamValue::from("19.3"));
            Ok(())
        });
        reg.set_deadline("software_upgrade", Duration::from_millis(200));
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(
            engine.run().unwrap(),
            &InstanceStatus::Failed("software_upgrade".into())
        );
        let row = engine.log().last().unwrap();
        assert_eq!(row.status, BlockStatus::TimedOut);
        assert!(row.error.as_deref().unwrap().contains("deadline"));
        assert!(engine.sim_elapsed() >= Duration::from_millis(900));
    }

    #[test]
    fn timeouts_are_retried_as_transient() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut reg = happy_registry();
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        // First attempt overruns its deadline; the second is quick.
        reg.register("software_upgrade", move |s| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                add_sim_latency(s, 900);
            } else {
                add_sim_latency(s, 50);
            }
            s.insert("previous_version".into(), ParamValue::from("19.3"));
            Ok(())
        });
        reg.set_deadline("software_upgrade", Duration::from_millis(200));
        reg.set_retry_policy("software_upgrade", RetryPolicy::default());
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        let row = engine
            .log()
            .iter()
            .find(|b| b.block == "software_upgrade")
            .unwrap();
        assert_eq!(row.status, BlockStatus::Recovered { attempts: 2 });
    }

    #[test]
    fn permanent_failure_runs_backout_and_reports_rolled_back() {
        let cat = builtin_catalog();
        let mut wf = software_upgrade_workflow(&cat);
        let mut backout = cornet_workflow::Workflow::new("upgrade-backout");
        let s = backout.add_node("start", cornet_workflow::NodeKind::Start);
        let rb = backout.add_node(
            "roll_back",
            cornet_workflow::NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let e = backout.add_node("end", cornet_workflow::NodeKind::End);
        backout.add_edge(s, rb, None);
        backout.add_edge(rb, e, None);
        wf.set_backout(backout);
        let mut reg = happy_registry();
        reg.register("software_upgrade", |_| {
            Err(CornetError::ExecutionFailed("bad image".into()))
        });
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(
            engine.run().unwrap(),
            &InstanceStatus::RolledBack("software_upgrade".into())
        );
        // The log shows the failed block followed by the backout's blocks.
        let blocks: Vec<&str> = engine.log().iter().map(|b| b.block.as_str()).collect();
        assert_eq!(
            blocks,
            vec!["health_check", "software_upgrade", "roll_back"]
        );
        assert!(engine.log().last().unwrap().status.is_success());
        // The backout's state writes are visible afterwards.
        assert_eq!(
            engine.state_var("rolled_back").and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn failed_backout_leaves_instance_failed() {
        let cat = builtin_catalog();
        let mut wf = software_upgrade_workflow(&cat);
        let mut backout = cornet_workflow::Workflow::new("upgrade-backout");
        let s = backout.add_node("start", cornet_workflow::NodeKind::Start);
        let rb = backout.add_node(
            "roll_back",
            cornet_workflow::NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let e = backout.add_node("end", cornet_workflow::NodeKind::End);
        backout.add_edge(s, rb, None);
        backout.add_edge(rb, e, None);
        wf.set_backout(backout);
        let mut reg = happy_registry();
        reg.register("software_upgrade", |_| {
            Err(CornetError::ExecutionFailed("bad image".into()))
        });
        reg.register("roll_back", |_| {
            Err(CornetError::ExecutionFailed("backout also broken".into()))
        });
        let mut engine = Engine::new(wf, reg, inputs());
        assert_eq!(
            engine.run().unwrap(),
            &InstanceStatus::Failed("software_upgrade".into()),
            "a failed backout cannot claim RolledBack"
        );
    }

    #[test]
    fn replay_restores_outcomes_without_reexecution() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        // First run records every completed block through the sink.
        let recorded: Arc<Mutex<Vec<ReplayRow>>> = Arc::new(Mutex::new(Vec::new()));
        let rows = recorded.clone();
        let mut engine = Engine::new(wf.clone(), happy_registry(), inputs());
        engine.set_block_sink(Arc::new(Recorder(rows)));
        assert_eq!(engine.run().unwrap(), &InstanceStatus::Completed);
        let first_log = engine.log().to_vec();
        let first_state = engine.state().clone();
        // Second run replays the first two rows; a counting registry
        // proves those blocks never re-executed.
        let mut rows = recorded.lock().unwrap().clone();
        rows.truncate(2);
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let mut reg = happy_registry();
        reg.register("health_check", move |s| {
            c.fetch_add(1, Ordering::SeqCst);
            s.insert("healthy".into(), ParamValue::from(true));
            Ok(())
        });
        let c = calls.clone();
        reg.register("software_upgrade", move |s| {
            c.fetch_add(1, Ordering::SeqCst);
            s.insert("previous_version".into(), ParamValue::from("19.3"));
            s.insert("upgraded".into(), ParamValue::from(true));
            Ok(())
        });
        let mut resumed = Engine::new(wf, reg, inputs());
        resumed.set_replay(rows);
        assert_eq!(resumed.run().unwrap(), &InstanceStatus::Completed);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "replayed blocks must not re-execute"
        );
        assert_eq!(resumed.replay_remaining(), 0);
        // Replayed prefix is byte-identical (including durations); the
        // fresh tail re-measures wall time, so compare its shape.
        assert_eq!(&resumed.log()[..2], &first_log[..2]);
        let shape = |log: &[BlockExecution]| -> Vec<(String, BlockStatus)> {
            log.iter().map(|b| (b.block.clone(), b.status)).collect()
        };
        assert_eq!(shape(resumed.log()), shape(&first_log));
        assert_eq!(resumed.state(), &first_state);
    }

    /// A sink that logs what it hears, in order.
    struct Hearing(Mutex<Vec<String>>);

    impl BlockSink for Hearing {
        fn before_execute(&self) {
            self.0.lock().unwrap().push("before".into());
        }

        fn completed(&self, exec: &BlockExecution, _: &GlobalState, backout: bool) {
            let tag = if backout { "backout " } else { "" };
            self.0.lock().unwrap().push(format!("{tag}{}", exec.block));
        }
    }

    #[test]
    fn the_sink_hears_before_each_fresh_block_once_and_never_before_a_replayed_one() {
        let cat = builtin_catalog();
        let mut wf = software_upgrade_workflow(&cat);
        let mut backout = cornet_workflow::Workflow::new("upgrade-backout");
        let s = backout.add_node("start", cornet_workflow::NodeKind::Start);
        let rb = backout.add_node(
            "roll_back",
            cornet_workflow::NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let e = backout.add_node("end", cornet_workflow::NodeKind::End);
        backout.add_edge(s, rb, None);
        backout.add_edge(rb, e, None);
        wf.set_backout(backout);
        // One transient failure, retried, then a permanent one: the hook
        // runs once a block, not once an attempt, and the backout's block
        // hears it too.
        let mut reg = happy_registry();
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        reg.register("health_check", move |s| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                return Err(CornetError::TransientFailure("blip".into()));
            }
            s.insert("healthy".into(), ParamValue::from(true));
            Ok(())
        });
        reg.set_retry_policy("health_check", RetryPolicy::with_attempts(2));
        reg.register("software_upgrade", |_| {
            Err(CornetError::ExecutionFailed("bad image".into()))
        });
        let heard = Arc::new(Hearing(Mutex::default()));
        let recorded = Arc::new(Mutex::new(Vec::new()));
        let mut engine = Engine::new(wf.clone(), reg.clone(), inputs());
        engine.set_block_sink(heard.clone());
        engine.run().unwrap();
        let log = std::mem::take(&mut *heard.0.lock().unwrap());
        assert_eq!(
            log,
            [
                "before",
                "health_check",
                "before",
                "software_upgrade",
                "before",
                "backout roll_back"
            ]
        );
        // Replaying the first two rows: the sink hears only the fresh one.
        let mut first = Engine::new(wf.clone(), reg.clone(), inputs());
        first.set_block_sink(Arc::new(Recorder(recorded.clone())));
        first.run().unwrap();
        let mut rows = recorded.lock().unwrap().clone();
        rows.truncate(2);
        let mut resumed = Engine::new(wf, reg, inputs());
        resumed.set_replay(rows);
        resumed.set_block_sink(heard.clone());
        resumed.run().unwrap();
        assert_eq!(*heard.0.lock().unwrap(), ["before", "backout roll_back"]);
    }

    #[test]
    fn replay_mismatch_is_data_integrity() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let mut engine = Engine::new(wf, happy_registry(), inputs());
        engine.set_replay(vec![ReplayRow {
            exec: BlockExecution {
                block: "unrelated_block".into(),
                status: BlockStatus::Success,
                duration: Duration::ZERO,
                error: None,
                attempts: 1,
                backoff: Duration::ZERO,
            },
            state: inputs(),
            backout: false,
        }]);
        let err = engine.run().unwrap_err();
        assert!(
            matches!(err, CornetError::DataIntegrity(_)),
            "a row that disagrees with the workflow is corruption"
        );
    }

    #[test]
    fn replayed_failure_row_hands_remaining_rows_to_backout() {
        let cat = builtin_catalog();
        let mut wf = software_upgrade_workflow(&cat);
        let mut backout = cornet_workflow::Workflow::new("upgrade-backout");
        let s = backout.add_node("start", cornet_workflow::NodeKind::Start);
        let rb = backout.add_node(
            "roll_back",
            cornet_workflow::NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let e = backout.add_node("end", cornet_workflow::NodeKind::End);
        backout.add_edge(s, rb, None);
        backout.add_edge(rb, e, None);
        wf.set_backout(backout);
        // First run: upgrade fails permanently, backout reverts. Record
        // everything through the sink.
        let recorded: Arc<Mutex<Vec<ReplayRow>>> = Arc::new(Mutex::new(Vec::new()));
        let rows = recorded.clone();
        let mut reg = happy_registry();
        reg.register("software_upgrade", |_| {
            Err(CornetError::ExecutionFailed("bad image".into()))
        });
        let mut engine = Engine::new(wf.clone(), reg.clone(), inputs());
        engine.set_block_sink(Arc::new(Recorder(rows)));
        assert_eq!(
            engine.run().unwrap(),
            &InstanceStatus::RolledBack("software_upgrade".into())
        );
        let first_log = engine.log().to_vec();
        let rows = recorded.lock().unwrap().clone();
        assert!(rows.iter().any(|r| r.backout), "backout rows were recorded");
        // Replay the whole journal: nothing re-executes, and the failure
        // row routes the remaining (backout-flagged) rows into the
        // backout sub-engine.
        let mut poisoned = ExecutorRegistry::new();
        for name in [
            "health_check",
            "software_upgrade",
            "pre_post_comparison",
            "roll_back",
        ] {
            poisoned.register(name, |_| {
                Err(CornetError::ExecutionFailed(
                    "replay must not re-execute".into(),
                ))
            });
        }
        let mut resumed = Engine::new(wf, poisoned, inputs());
        resumed.set_replay(rows);
        assert_eq!(
            resumed.run().unwrap(),
            &InstanceStatus::RolledBack("software_upgrade".into())
        );
        assert_eq!(resumed.replay_remaining(), 0);
        assert_eq!(resumed.log(), first_log.as_slice());
    }
}
