//! `fleet_plan`: one `planner::plan()` call per op on a generated RAN
//! network (40-day window, daily concurrency capacity, USID consistency) —
//! the §4.2 schedule-discovery curve. Budgets are search-node budgets with
//! a non-binding time limit, so time measures the code, not the limit.

use crate::gen::{network_seed, plan_mix, plan_ops, PlanClass, PlanOp};
use crate::measure::Metric;
use crate::trace::{layer_call, op_span};
use crate::workload::{ensure, Env, OpResult, Workload};
use cornet_netsim::{Network, NetworkConfig};
use cornet_obs::Tracer;
use cornet_planner::{
    plan, BackendChoice, ConstraintRule, HeuristicConfig, PlanIntent, PlanOptions, PlanResult,
};
use cornet_solver::{Outcome, SolverConfig};
use cornet_types::{Granularity, NfType, NodeId, Timeslot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Far beyond any op: the node budget always binds first.
pub const TIME_LIMIT: Duration = Duration::from_secs(120);

/// The §4.2 comparison intent: 40 daily slots, global concurrency
/// capacity, co-sited 4G/5G (one USID) move together.
pub fn planner_intent(capacity: i64) -> PlanIntent {
    let mut intent = PlanIntent::from_json(
        r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-08-09 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": []
    }"#,
    )
    .expect("benchmark intent parses");
    intent.constraints = vec![
        ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: None,
            operator: "<=".into(),
            granularity: Granularity::daily(),
            default_capacity: capacity,
        },
        ConstraintRule::Consistency {
            attribute: "usid".into(),
        },
    ];
    intent
}

/// One generated planning problem.
pub struct PlanNet {
    pub net: Network,
    /// eNodeBs and gNodeBs, id order.
    pub nodes: Vec<NodeId>,
    pub capacity: i64,
    pub intent: PlanIntent,
}

impl PlanNet {
    pub fn generate(seed: u64, target_nodes: usize) -> PlanNet {
        let config = NetworkConfig {
            seed,
            ..NetworkConfig::default()
        }
        .with_target_nodes(target_nodes);
        let net = Network::generate_ran(&config);
        let mut nodes = net.nodes_of_type(NfType::ENodeB);
        nodes.extend(net.nodes_of_type(NfType::GNodeB));
        nodes.sort();
        // 40 slots hold the fleet with ~60 % slack.
        let capacity = ((nodes.len() as i64) / 25).max(4);
        PlanNet {
            intent: planner_intent(capacity),
            net,
            nodes,
            capacity,
        }
    }
}

pub fn backend_of(class: PlanClass) -> BackendChoice {
    match class {
        PlanClass::Exact200 | PlanClass::Exact1k | PlanClass::Exact3k => BackendChoice::Exact,
        PlanClass::Portfolio1k => BackendChoice::Portfolio,
        PlanClass::Heuristic50k => BackendChoice::Heuristic,
        PlanClass::Sharded3k => BackendChoice::Sharded,
    }
}

pub fn options_of(class: PlanClass, heuristic_seed: u64, tracer: Tracer) -> PlanOptions {
    PlanOptions {
        solver: SolverConfig {
            max_nodes: class.max_nodes(),
            time_limit: TIME_LIMIT,
            ..SolverConfig::default()
        },
        backend: backend_of(class),
        heuristic: HeuristicConfig {
            iterations: 4,
            seed: heuristic_seed,
            ..HeuristicConfig::default()
        },
        tracer,
        ..PlanOptions::default()
    }
}

/// The oracles a schedule must meet, recounted from the schedule itself.
pub fn check_schedule(problem: &PlanNet, result: &PlanResult) -> Result<(), String> {
    let schedule = &result.schedule;
    ensure(
        schedule.assignments.len() == problem.nodes.len() && schedule.leftovers.is_empty(),
        || {
            format!(
                "{} of {} nodes scheduled, {} leftovers",
                schedule.assignments.len(),
                problem.nodes.len(),
                schedule.leftovers.len()
            )
        },
    )?;
    ensure(schedule.conflicts == 0, || {
        format!("{} ticket conflicts", schedule.conflicts)
    })?;
    let mut load: BTreeMap<Timeslot, i64> = BTreeMap::new();
    let mut usid_slot: BTreeMap<String, Timeslot> = BTreeMap::new();
    for (&node, &slot) in &schedule.assignments {
        *load.entry(slot).or_default() += 1;
        if let Some(usid) = problem.net.inventory.group_key_of(node, "usid") {
            let first = *usid_slot.entry(usid.clone()).or_insert(slot);
            ensure(first == slot, || {
                format!("USID {usid} split across {first:?} and {slot:?}")
            })?;
        }
    }
    match load.iter().find(|(_, &n)| n > problem.capacity) {
        Some((slot, n)) => Err(format!(
            "{slot:?} carries {n} changes, capacity {}",
            problem.capacity
        )),
        None => Ok(()),
    }
}

/// FNV-1a over the assignments: equal schedules hash equal.
pub fn schedule_fingerprint(result: &PlanResult) -> u64 {
    let mut bytes = Vec::with_capacity(8 * result.schedule.assignments.len());
    for (node, slot) in &result.schedule.assignments {
        bytes.extend_from_slice(&node.0.to_le_bytes());
        bytes.extend_from_slice(&slot.0.to_le_bytes());
    }
    crate::gen::fnv1a64(&bytes)
}

#[derive(Default)]
struct Counters {
    /// Exact-backend search counters of the last cycle.
    nodes: u64,
    backtracks: u64,
    counts_repeat: bool,
    cycles: u64,
    exact_ops: u64,
    exact_optimal: u64,
    shard_overhead_s: f64,
    sharded_ops: u64,
    portfolio_lost_s: f64,
    portfolio_all_s: f64,
}

pub struct FleetPlan {
    env: Env,
    ops: Vec<PlanOp>,
    nets: BTreeMap<PlanClass, Vec<PlanNet>>,
    /// Schedule fingerprint of each op's first run.
    first: Vec<Option<u64>>,
    counters: Counters,
}

impl FleetPlan {
    pub fn setup(env: &Env) -> FleetPlan {
        let nets = plan_mix(env.quick)
            .into_iter()
            .map(|(class, _, count)| {
                let nets = (0..count)
                    .map(|i| {
                        PlanNet::generate(
                            network_seed(env.seed, class, i),
                            class.target_nodes(env.quick),
                        )
                    })
                    .collect();
                (class, nets)
            })
            .collect();
        let ops = plan_ops(env.seed, env.quick);
        FleetPlan {
            env: env.clone(),
            first: vec![None; ops.len()],
            ops,
            nets,
            counters: Counters {
                counts_repeat: true,
                ..Counters::default()
            },
        }
    }
}

impl Workload for FleetPlan {
    fn ops_fingerprint(&self) -> u64 {
        crate::gen::fingerprint(&self.ops)
    }

    fn run_cycle(&mut self, traced: bool) -> Vec<OpResult> {
        let tracer = self.env.tracer_for(traced);
        let (mut nodes, mut backtracks) = (0u64, 0u64);
        let mut results = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let problem = &self.nets[&op.class][op.net];
            let options = options_of(op.class, op.heuristic_seed, tracer.clone());
            let span = op_span(&tracer, i, op.class.label());
            let started = Instant::now();
            let planned = layer_call(&tracer, &span, "planner.plan", |_| {
                plan(
                    &problem.intent,
                    &problem.net.inventory,
                    &problem.net.topology,
                    &problem.nodes,
                    &options,
                )
            });
            let wall = started.elapsed();
            let c = &mut self.counters;
            let oracle = |result: PlanResult| {
                let slowest = result
                    .backend_runs
                    .iter()
                    .map(|r| r.elapsed)
                    .max()
                    .unwrap_or_default();
                match options.backend {
                    BackendChoice::Exact => {
                        nodes += result.search_stats.nodes;
                        backtracks += result.search_stats.backtracks;
                        c.exact_ops += 1;
                        c.exact_optimal += u64::from(result.outcome == Outcome::Optimal);
                    }
                    BackendChoice::Sharded => {
                        c.shard_overhead_s += wall.saturating_sub(slowest).as_secs_f64();
                        c.sharded_ops += 1;
                    }
                    BackendChoice::Portfolio => {
                        for run in &result.backend_runs {
                            c.portfolio_all_s += run.elapsed.as_secs_f64();
                            if !run.winner {
                                c.portfolio_lost_s += run.elapsed.as_secs_f64();
                            }
                        }
                    }
                    _ => {}
                }
                check_schedule(problem, &result)?;
                let fingerprint = schedule_fingerprint(&result);
                let first = *self.first[i].get_or_insert(fingerprint);
                ensure(first == fingerprint, || {
                    "schedule differs from the first call on the same input".into()
                })
            };
            let verdict = layer_call(&tracer, &span, "harness.oracle", |_| {
                planned.map_err(|e| e.to_string()).and_then(oracle)
            });
            let reference = layer_call(&tracer, &span, "harness.reference", |_| {
                self.env.reference.sample()
            });
            span.finish();
            results.push(OpResult::new(
                op.class.label(),
                wall.as_secs_f64(),
                reference,
                verdict,
            ));
        }
        let c = &mut self.counters;
        if c.cycles > 0 && (c.nodes, c.backtracks) != (nodes, backtracks) {
            c.counts_repeat = false;
        }
        c.nodes = nodes;
        c.backtracks = backtracks;
        c.cycles += 1;
        results
    }

    fn check_counts(&self) -> Result<(), String> {
        ensure(self.counters.counts_repeat, || {
            "solver.nodes / solver.backtracks of the exact backend differed between cycles".into()
        })
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            Metric::new("solver.nodes", c.nodes as f64, "count"),
            Metric::new("solver.backtracks", c.backtracks as f64, "count"),
            Metric::new(
                "solver.optimal_share",
                share(c.exact_optimal as f64, c.exact_ops as f64),
                "ratio",
            ),
            Metric::new(
                "planner.shard_overhead_ms",
                share(c.shard_overhead_s * 1e3, c.sharded_ops as f64),
                "ms",
            ),
            Metric::new(
                "planner.portfolio_waste_share",
                share(c.portfolio_lost_s, c.portfolio_all_s),
                "ratio",
            ),
        ]
    }
}
