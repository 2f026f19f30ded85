//! `fleet_rollout`: one campaign at library level per op — package the
//! WAR, dispatch it journaled against testbed executors, close. The
//! journal is used three ways (batched append, fsync-bound append, read +
//! replay), so a gain for writes that costs recovery shows.

use crate::gen::{rollout_ops, RolloutKind, RolloutOp};
use crate::measure::Metric;
use crate::trace::{layer_call, op_span};
use crate::workload::{ensure, Env, OpResult, Workload};
use cornet_catalog::{builtin_catalog, Catalog};
use cornet_core::testbed_registry;
use cornet_daemon::report_fingerprint;
use cornet_journal::{CrashMode, CrashSwitch, FsyncPolicy, Journal, JournalEvent};
use cornet_netsim::{Testbed, TestbedConfig};
use cornet_orchestrator::{
    CampaignControl, DispatchReport, Dispatcher, ExecutorRegistry, FaultPlan, FaultyExecutor,
    GlobalState,
};
use cornet_types::{NfType, NodeId, ParamValue, Schedule, Timeslot};
use cornet_workflow::builtin::software_upgrade_workflow;
use cornet_workflow::{WarArtifact, Workflow};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Dispatcher worker-pool size of every campaign.
pub const CONCURRENCY: usize = 2;
/// Blocks on the mainline of the upgrade workflow.
pub const BLOCKS_PER_INSTANCE: u64 = 3;
const OLD_VERSION: &str = "19.3";

pub fn node_name(node: NodeId) -> String {
    format!("vnf-{:05}", node.0)
}

/// The schedule of one op: `per_slot` instances a slot; the instance a
/// crash op dies on sits alone in its slot, so nothing else is in flight
/// at the kill and the journal's content at that point is exact.
pub fn schedule_of(op: &RolloutOp) -> Schedule {
    let alone = match op.kind {
        RolloutKind::CrashResume { crash_at } => Some(crash_at),
        _ => None,
    };
    let mut schedule = Schedule::default();
    let (mut slot, mut filled) = (1u32, 0u32);
    for i in 0..op.instances {
        let solo = alone == Some(i);
        if filled > 0 && (solo || filled == op.per_slot) {
            slot += 1;
            filled = 0;
        }
        schedule.assignments.insert(NodeId(i), Timeslot(slot));
        filled += 1;
        if solo {
            slot += 1;
            filled = 0;
        }
    }
    schedule
}

/// Testbed executors behind the seeded fault wrapper at fault rate 0 with
/// 1 ms of *simulated* latency per block: block durations (and with them
/// the report fingerprint) are then the same on every run, and nothing
/// sleeps. Every invocation is counted in `calls`.
pub fn counted_registry(
    testbed: &Testbed,
    crash: Option<(&str, CrashSwitch, CampaignControl)>,
    calls: Arc<AtomicU64>,
) -> ExecutorRegistry {
    let base = testbed_registry(testbed.clone());
    let plan = FaultPlan::transient(1, 0.0).with_latency_ms(1);
    let (inner, halt) = match crash {
        Some((node, switch, control)) => {
            let plan = plan.crash_at("software_upgrade", node, 1, CrashMode::MidBlock);
            let reg = FaultyExecutor::wrap_with_crash(&base, &plan, switch.clone());
            (reg, Some((switch, control)))
        }
        None => (FaultyExecutor::wrap(&base, &plan), None),
    };
    let mut counted = inner.clone();
    let names: Vec<String> = inner.block_names().into_iter().map(str::to_owned).collect();
    for block in names {
        let inner = inner.clone();
        let calls = calls.clone();
        let halt = halt.clone();
        let name = block.clone();
        counted.register(&block, move |state: &mut GlobalState| {
            calls.fetch_add(1, Ordering::Relaxed);
            let result = inner.execute(&name, state);
            // The simulated process died in this block: stop admitting,
            // as a dead process would.
            if let Some((switch, control)) = &halt {
                if switch.is_dead() {
                    control.cancel();
                }
            }
            result
        });
    }
    counted
}

pub fn inputs_for(version: &str) -> impl Fn(NodeId) -> GlobalState + Sync + '_ {
    move |node| {
        let mut g = GlobalState::new();
        g.insert("node".into(), ParamValue::from(node_name(node)));
        g.insert("software_version".into(), ParamValue::from(version));
        g
    }
}

pub fn fresh_testbed(instances: u32) -> Testbed {
    let testbed = Testbed::new(TestbedConfig::default());
    for i in 0..instances {
        testbed.instantiate(&node_name(NodeId(i)), NfType::VceRouter, OLD_VERSION);
    }
    testbed
}

#[derive(Default)]
struct Counters {
    /// Exact counts of the last cycle, and whether every cycle agreed.
    replayed_blocks: u64,
    executor_calls: u64,
    counts_repeat: bool,
}

pub struct FleetRollout {
    env: Env,
    ops: Vec<RolloutOp>,
    catalog: Catalog,
    workflow: Workflow,
    testbeds: Vec<Testbed>,
    dir: PathBuf,
    cycle: u64,
    /// Fingerprint of the first uncrashed run per campaign size.
    reference: BTreeMap<u32, u64>,
    counters: Counters,
}

impl FleetRollout {
    pub fn setup(env: &Env) -> FleetRollout {
        let dir = env.work_dir.join("fleet_rollout");
        std::fs::create_dir_all(&dir).expect("create journal directory");
        let catalog = builtin_catalog();
        let workflow = software_upgrade_workflow(&catalog);
        let mut w = FleetRollout {
            env: env.clone(),
            ops: rollout_ops(env.seed, env.quick),
            catalog,
            workflow,
            testbeds: Vec::new(),
            dir,
            cycle: 0,
            reference: BTreeMap::new(),
            counters: Counters {
                counts_repeat: true,
                ..Counters::default()
            },
        };
        w.prepare_cycle();
        w
    }

    fn journal_path(&self, op: usize) -> PathBuf {
        self.dir.join(format!("op{op:03}.journal"))
    }

    /// Oracles shared by all three kinds: everything completed, every
    /// testbed node on the target version (§4.1), and the report equals
    /// the first uncrashed run of the same size.
    fn check_report(
        &mut self,
        op: &RolloutOp,
        testbed: &Testbed,
        version: &str,
        report: &DispatchReport,
    ) -> Result<(), String> {
        ensure(report.completed() == op.instances as usize, || {
            format!(
                "{} of {} instances completed",
                report.completed(),
                op.instances
            )
        })?;
        for i in 0..op.instances {
            let name = node_name(NodeId(i));
            let on = testbed.state(&name).map(|s| s.sw_version);
            ensure(on.as_deref() == Some(version), || {
                format!("{name} is on {on:?}, want {version}")
            })?;
        }
        let fingerprint = report_fingerprint(report);
        let reference = *self.reference.entry(op.instances).or_insert(fingerprint);
        ensure(fingerprint == reference, || {
            format!(
                "report fingerprint {fingerprint:016x} differs from the reference {reference:016x}"
            )
        })
    }
}

impl Workload for FleetRollout {
    fn ops_fingerprint(&self) -> u64 {
        crate::gen::fingerprint(&self.ops)
    }

    fn prepare_cycle(&mut self) {
        self.testbeds = self
            .ops
            .iter()
            .map(|op| fresh_testbed(op.instances))
            .collect();
        for i in 0..self.ops.len() {
            let _ = std::fs::remove_file(self.journal_path(i));
        }
    }

    fn run_cycle(&mut self, traced: bool) -> Vec<OpResult> {
        let tracer = self.env.tracer_for(traced);
        self.cycle += 1;
        let version = format!("20.{}", self.cycle);
        let ops = self.ops.clone();
        let (mut replayed, mut calls_total) = (0u64, 0u64);
        let mut results = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let testbed = self.testbeds[i].clone();
            let path = self.journal_path(i);
            let schedule = schedule_of(op);
            let inputs = inputs_for(&version);
            let calls = Arc::new(AtomicU64::new(0));
            let class = match op.kind {
                RolloutKind::Straight => "straight.every64",
                RolloutKind::CrashResume { .. } => "crash_resume",
                RolloutKind::SmallAlways => "small.always",
            };
            let span = op_span(&tracer, i, class);
            let started = Instant::now();
            let war = layer_call(&tracer, &span, "workflow.package", |_| {
                WarArtifact::package(&self.workflow, &self.catalog)
            });
            let outcome: Result<DispatchReport, String> = war.map_err(|e| e.to_string()).and_then(|war| {
                let policy = match op.kind {
                    RolloutKind::SmallAlways => FsyncPolicy::Always,
                    _ => FsyncPolicy::EveryN(64),
                };
                match op.kind {
                    RolloutKind::Straight | RolloutKind::SmallAlways => {
                        layer_call(&tracer, &span, "orchestrator.dispatch_journaled", |_| {
                            let journal = Journal::create(&path, policy)
                                .map_err(|e| e.to_string())?
                                .with_tracer(tracer.clone());
                            Dispatcher::new(war, counted_registry(&testbed, None, calls.clone()), CONCURRENCY)
                                .map_err(|e| e.to_string())?
                                .with_tracer(tracer.clone())
                                .with_journal(journal, BTreeMap::new())
                                .run(&schedule, &inputs)
                                .map_err(|e| e.to_string())
                        })
                    }
                    RolloutKind::CrashResume { crash_at } => {
                        let journaled = Arc::new(AtomicU64::new(0));
                        let crashed = layer_call(&tracer, &span, "orchestrator.dispatch_until_kill", |_| {
                            let switch = CrashSwitch::new();
                            let control = CampaignControl::new();
                            let tap = journaled.clone();
                            let journal = Journal::create(&path, policy)
                                .map_err(|e| e.to_string())?
                                .with_tracer(tracer.clone())
                                .with_crash_switch(switch.clone())
                                .with_listener(Arc::new(move |event: &JournalEvent| {
                                    if matches!(event, JournalEvent::BlockCompleted(_)) {
                                        tap.fetch_add(1, Ordering::Relaxed);
                                    }
                                }));
                            let victim = node_name(NodeId(crash_at));
                            let registry = counted_registry(
                                &testbed,
                                Some((&victim, switch, control.clone())),
                                calls.clone(),
                            );
                            Dispatcher::new(war.clone(), registry, CONCURRENCY)
                                .map_err(|e| e.to_string())?
                                .with_tracer(tracer.clone())
                                .with_journal(journal, BTreeMap::new())
                                .run_campaign(&schedule, &inputs, None, Some(&control))
                                .map_err(|e| e.to_string())
                        });
                        crashed.and_then(|_| {
                            let before = calls.load(Ordering::Relaxed);
                            let resumed = layer_call(&tracer, &span, "orchestrator.resume_from_journal", |_| {
                                Dispatcher::new(war, counted_registry(&testbed, None, calls.clone()), CONCURRENCY)
                                    .map_err(|e| e.to_string())?
                                    .with_tracer(tracer.clone())
                                    .resume_from_journal(&path, policy, &inputs, None)
                                    .map_err(|e| e.to_string())
                            });
                            let resumed_calls = calls.load(Ordering::Relaxed) - before;
                            let on_disk = journaled.load(Ordering::Relaxed);
                            replayed += on_disk;
                            let (report, _) = resumed?;
                            // Zero re-execution: the resume ran exactly the
                            // blocks the journal does not hold.
                            let want = BLOCKS_PER_INSTANCE * op.instances as u64 - on_disk;
                            ensure(resumed_calls == want, || {
                                format!("resume made {resumed_calls} executor calls, want {want} ({on_disk} journaled)")
                            })?;
                            Ok(report)
                        })
                    }
                }
            });
            let latency = started.elapsed().as_secs_f64();
            calls_total += calls.load(Ordering::Relaxed);
            let verdict = layer_call(&tracer, &span, "harness.oracle", |_| {
                outcome.and_then(|report| self.check_report(op, &testbed, &version, &report))
            });
            let reference = layer_call(&tracer, &span, "harness.reference", |_| {
                self.env.reference.sample()
            });
            span.finish();
            results.push(OpResult::new(class, latency, reference, verdict));
        }
        let c = &mut self.counters;
        if self.cycle > 1 && (c.replayed_blocks, c.executor_calls) != (replayed, calls_total) {
            c.counts_repeat = false;
        }
        c.replayed_blocks = replayed;
        c.executor_calls = calls_total;
        results
    }

    fn check_counts(&self) -> Result<(), String> {
        ensure(self.counters.counts_repeat, || {
            "dispatch.replayed_blocks / dispatch.executor_calls differed between cycles".into()
        })
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        vec![
            Metric::new(
                "dispatch.replayed_blocks",
                c.replayed_blocks as f64,
                "count",
            ),
            Metric::new("dispatch.executor_calls", c.executor_calls as f64, "count"),
        ]
    }

    fn finish(self: Box<Self>) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_victim_sits_alone_in_its_slot() {
        let op = RolloutOp {
            kind: RolloutKind::CrashResume { crash_at: 7 },
            instances: 20,
            per_slot: 5,
        };
        let s = schedule_of(&op);
        let slot_of = |i: u32| s.assignments[&NodeId(i)];
        assert_eq!(s.nodes_in_slot(slot_of(7)), vec![NodeId(7)]);
        assert!(slot_of(6) < slot_of(7) && slot_of(7) < slot_of(8));
        assert_eq!(s.assignments.len(), 20);
        // Slots are monotone in node id, so dispatch order is node order.
        assert!((1..20).all(|i| slot_of(i - 1) <= slot_of(i)));
        let straight = schedule_of(&RolloutOp {
            kind: RolloutKind::Straight,
            instances: 20,
            per_slot: 5,
        });
        assert_eq!(straight.makespan(), Some(Timeslot(4)));
    }
}
