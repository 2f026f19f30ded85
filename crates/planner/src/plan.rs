//! End-to-end planning facade: translate → solve → decode.
//!
//! That is literally the body of [`plan`]: `decompose` does not give it a
//! second arm, it wraps the chosen backend in the crate's
//! split–solve–merge combinator ([`crate::decompose`]), which is a backend
//! like any other.
//!
//! This is the "schedule planning workflow" of §4.2 — the NF-agnostic
//! composition of extract-inventory, extract-topology, detect-conflicts,
//! model-translation and optimization-solver building blocks, callable as
//! one function. It reports both the *schedule quality* (makespan,
//! conflicts) and the *discovery time* the paper's evaluation measures.

use crate::backend::{BackendChoice, BackendRun, Budget, SolveContext};
use crate::decompose::Decomposed;
use crate::heuristic::HeuristicConfig;
use crate::intent::PlanIntent;
use crate::translate::{translate, TranslateOptions, Translation};
use cornet_model::ModelStats;
use cornet_obs::Tracer;
use cornet_solver::{CancelToken, Outcome, SearchStats, SolverConfig};
use cornet_types::{Inventory, NodeId, Result, Schedule, Topology};
use std::time::{Duration, Instant};

/// Options for one planning run.
#[derive(Clone, Debug, Default)]
pub struct PlanOptions {
    /// Translation strategy knobs.
    pub translate: TranslateOptions,
    /// Solver budgets.
    pub solver: SolverConfig,
    /// Scheduling backend (§3.3's interchangeable optimizers).
    pub backend: BackendChoice,
    /// Heuristic backend knobs (`slot_capacity` is taken from the intent's
    /// plain concurrency rule when declared).
    pub heuristic: HeuristicConfig,
    /// Split the model into independent components and solve them in
    /// parallel (§3.3.3 idea (b)) — a backend-agnostic pre-pass.
    pub decompose: bool,
    /// Tracer for plan/solve spans (noop by default; attach a collecting
    /// tracer to record a `plan` root span with nested `solve.*` spans).
    pub tracer: Tracer,
}

/// Outcome of a planning run.
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The discovered schedule.
    pub schedule: Schedule,
    /// Solver outcome (optimality/feasibility).
    pub outcome: Outcome,
    /// Statistics of the generated model.
    pub model_stats: ModelStats,
    /// Search statistics (summed over components when decomposed).
    pub search_stats: SearchStats,
    /// Wall-clock schedule discovery time (translation + solving) — the
    /// §4.2 metric.
    pub discovery_time: Duration,
    /// Number of independent components solved.
    pub components: usize,
    /// The backend that produced the schedule.
    pub backend: BackendChoice,
    /// Per-backend statistics for every run that participated (one entry
    /// per backend per component; portfolios contribute one per member,
    /// sharded solves one per member per shard — each with its own
    /// elapsed wall time).
    pub backend_runs: Vec<BackendRun>,
}

impl PlanResult {
    /// Makespan in slots (0 when nothing scheduled).
    pub fn makespan(&self) -> u32 {
        self.schedule.makespan().map_or(0, |s| s.0)
    }
}

/// Discover a schedule for `nodes` under `intent`.
pub fn plan(
    intent: &PlanIntent,
    inventory: &Inventory,
    topology: &Topology,
    nodes: &[NodeId],
    options: &PlanOptions,
) -> Result<PlanResult> {
    let started = Instant::now();
    let mut plan_span = options.tracer.span("plan");
    plan_span.attr("backend", format!("{:?}", options.backend));
    plan_span.attr("nodes", nodes.len());
    plan_span.attr("decompose", options.decompose);
    let plan_id = plan_span.is_recording().then(|| plan_span.id());
    let translation: Translation =
        translate(intent, inventory, topology, nodes, &options.translate)?;
    let model_stats = translation.model.stats();
    let conflicts = intent.conflicts()?;
    let mut backend = options
        .backend
        .instantiate(&options.solver, &options.heuristic);
    if options.decompose {
        backend = Box::new(Decomposed(backend));
    }

    let mut ctx = SolveContext::new(&translation, inventory, intent);
    (ctx.tracer, ctx.span_parent) = (options.tracer.clone(), plan_id);
    let budget = Budget::from_config(&options.solver);
    let r = backend.solve(&ctx, &budget, &CancelToken::new());
    let outcome = r.outcome;
    let Some(assignment) = r.assignment else {
        plan_span.attr("error", "infeasible");
        return Err(cornet_types::CornetError::Infeasible(format!(
            "no schedule under the given intent ({outcome:?})"
        )));
    };

    let schedule = translation.decode(&assignment, &conflicts);
    plan_span.attr("outcome", format!("{outcome:?}"));
    plan_span.attr("components", r.parts);
    plan_span.attr("discovery_ms", started.elapsed().as_secs_f64() * 1e3);
    plan_span.attr("scheduled", schedule.scheduled_count());
    plan_span.finish();
    Ok(PlanResult {
        schedule,
        outcome,
        model_stats,
        search_stats: r.stats,
        discovery_time: started.elapsed(),
        components: r.parts,
        backend: options.backend,
        backend_runs: r.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{Attributes, NfType, Timeslot};

    fn inventory(n: usize) -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..n {
            let market = if i % 2 == 0 { "NYC" } else { "DFW" };
            let tz = if i % 2 == 0 { -5.0 } else { -6.0 };
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz)
                    .with("ems", format!("EMS-{}", i % 2)),
            );
        }
        inv
    }

    fn base_intent(cap: i64) -> PlanIntent {
        PlanIntent::from_json(&format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-10 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {{"name": "concurrency", "base_attribute": "common_id",
                  "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
                  "default_capacity": {cap}}}
            ]
        }}"#
        ))
        .unwrap()
    }

    #[test]
    fn plans_and_respects_capacity() {
        let inv = inventory(6);
        let topo = Topology::with_capacity(6);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let r = plan(
            &base_intent(2),
            &inv,
            &topo,
            &nodes,
            &PlanOptions::default(),
        )
        .unwrap();
        assert_eq!(r.schedule.scheduled_count(), 6);
        assert_eq!(r.outcome, Outcome::Optimal);
        assert_eq!(r.makespan(), 3, "6 nodes at 2/slot");
        for slot in 1..=3 {
            assert!(r.schedule.nodes_in_slot(Timeslot(slot)).len() <= 2);
        }
        assert!(r.discovery_time > Duration::ZERO);
    }

    #[test]
    fn per_ems_concurrency_decomposes() {
        let inv = inventory(8);
        let topo = Topology::with_capacity(8);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let mut intent = base_intent(4);
        // Replace global concurrency with a per-EMS one → two components.
        intent.constraints = vec![crate::intent::ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: Some("ems".into()),
            operator: "<=".into(),
            granularity: cornet_types::Granularity::daily(),
            default_capacity: 2,
        }];
        let opts = PlanOptions {
            decompose: true,
            ..Default::default()
        };
        let r = plan(&intent, &inv, &topo, &nodes, &opts).unwrap();
        assert_eq!(r.components, 2, "per-EMS capacity separates the model");
        assert_eq!(r.schedule.scheduled_count(), 8);
        assert_eq!(r.makespan(), 2, "4 per EMS at 2/slot");
    }

    #[test]
    fn decomposed_equals_monolithic_cost() {
        let inv = inventory(8);
        let topo = Topology::with_capacity(8);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let mut intent = base_intent(4);
        intent.constraints = vec![crate::intent::ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: Some("ems".into()),
            operator: "<=".into(),
            granularity: cornet_types::Granularity::daily(),
            default_capacity: 2,
        }];
        let mono = plan(&intent, &inv, &topo, &nodes, &PlanOptions::default()).unwrap();
        let deco = plan(
            &intent,
            &inv,
            &topo,
            &nodes,
            &PlanOptions {
                decompose: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            mono.schedule.weighted_completion_time(),
            deco.schedule.weighted_completion_time()
        );
    }

    #[test]
    fn a_thousand_singleton_parts_equal_the_monolithic_schedule() {
        // No coupling constraint: every unit is its own component. The
        // parts run through the bounded map, not a thread each.
        let inv = inventory(1000);
        let topo = Topology::with_capacity(1000);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let mut intent = base_intent(1);
        intent.constraints.clear();
        let mono = plan(&intent, &inv, &topo, &nodes, &PlanOptions::default()).unwrap();
        let deco = plan(
            &intent,
            &inv,
            &topo,
            &nodes,
            &PlanOptions {
                decompose: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(deco.components, 1000);
        assert_eq!(deco.outcome, Outcome::Optimal);
        assert_eq!(deco.schedule, mono.schedule);
    }

    #[test]
    fn infeasible_window_is_reported() {
        let inv = inventory(4);
        let topo = Topology::with_capacity(4);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let mut intent = base_intent(1);
        // 1-day window, capacity 1, 4 nodes, zero tolerance doesn't force
        // scheduling — so this is feasible with leftovers, not infeasible.
        intent.scheduling_window.end = "2020-07-01 23:59:00".into();
        let r = plan(&intent, &inv, &topo, &nodes, &PlanOptions::default()).unwrap();
        assert_eq!(r.schedule.scheduled_count(), 1);
        assert_eq!(
            r.schedule.leftovers.len(),
            3,
            "window too small → leftovers"
        );
    }

    #[test]
    fn plan_span_nests_solver_spans() {
        use cornet_obs::{AttrValue, ManualClock, Tracer};
        let inv = inventory(6);
        let topo = Topology::with_capacity(6);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let tracer = Tracer::with_clock(ManualClock::ticking(1_000));
        let opts = PlanOptions {
            tracer: tracer.clone(),
            ..Default::default()
        };
        let r = plan(&base_intent(2), &inv, &topo, &nodes, &opts).unwrap();
        assert_eq!(r.outcome, Outcome::Optimal);

        let trace = tracer.snapshot();
        let plan_span = trace.spans_named("plan").next().expect("plan span");
        assert_eq!(
            plan_span.attr("outcome"),
            Some(&AttrValue::Str("Optimal".into()))
        );
        assert_eq!(plan_span.attr("nodes"), Some(&AttrValue::Int(6)));
        let solves = trace.children_of(plan_span.id);
        assert_eq!(solves.len(), 1, "one monolithic solve under the plan");
        let solve = solves[0];
        assert_eq!(solve.name, "solve.exact");
        assert_eq!(
            solve.attr("outcome"),
            Some(&AttrValue::Str("Optimal".into()))
        );
        assert!(solve.attr("search_nodes").is_some());
        assert!(
            plan_span.start_ns < solve.start_ns && solve.end_ns < plan_span.end_ns,
            "solver span is time-contained in the plan span"
        );
        assert_eq!(trace.metrics.counter("solves.exact"), 1);
    }

    #[test]
    fn portfolio_members_nest_under_portfolio_span() {
        use cornet_obs::{AttrValue, Tracer};
        let inv = inventory(6);
        let topo = Topology::with_capacity(6);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let tracer = Tracer::wall();
        let opts = PlanOptions {
            backend: BackendChoice::Portfolio,
            tracer: tracer.clone(),
            ..Default::default()
        };
        plan(&base_intent(2), &inv, &topo, &nodes, &opts).unwrap();

        let trace = tracer.snapshot();
        let portfolio = trace
            .spans_named("solve.portfolio")
            .next()
            .expect("portfolio span");
        let members = trace.children_of(portfolio.id);
        assert_eq!(members.len(), 2, "exact and heuristic members");
        let names: Vec<&str> = {
            let mut n: Vec<&str> = members.iter().map(|s| s.name.as_str()).collect();
            n.sort_unstable();
            n
        };
        assert_eq!(names, ["solve.exact", "solve.heuristic"]);
        assert_eq!(
            portfolio.attr("winner"),
            Some(&AttrValue::Str("exact".into())),
            "proved optimum wins the race"
        );
        assert_eq!(
            portfolio.attr("cancel_cause"),
            Some(&AttrValue::Str("optimal_member".into()))
        );
        assert!(trace.metrics.counter("incumbent.published") >= 1);
    }

    #[test]
    fn sharded_backend_plans_end_to_end() {
        let inv = inventory(12);
        let topo = Topology::with_capacity(12);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let opts = PlanOptions {
            backend: BackendChoice::Sharded,
            ..Default::default()
        };
        let r = plan(&base_intent(4), &inv, &topo, &nodes, &opts).unwrap();
        assert_eq!(r.schedule.scheduled_count(), 12);
        assert!(r.backend_runs.iter().any(|run| run.shard.is_some()));
        // Global capacity holds after cross-shard reconciliation.
        for slot in 1..=10 {
            assert!(r.schedule.nodes_in_slot(Timeslot(slot)).len() <= 4);
        }
    }

    #[test]
    fn full_composition_solves() {
        // Concurrency + consistency + uniformity + localize together (the
        // §4.2 exhaustive-composition experiment's richest point).
        let mut inv = Inventory::new();
        for i in 0..8 {
            let market = ["NYC", "DFW"][i / 4];
            let tz = [-5.0, -6.0][i / 4];
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz)
                    .with("usid", format!("U{}", i / 2)),
            );
        }
        let topo = Topology::with_capacity(8);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let intent = PlanIntent::from_json(
            r#"{
            "scheduling_window": {"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-12 23:59:00",
                                   "granularity": {"metric": "day", "value": 1}},
            "maintenance_window": {"start": "0:00", "end": "6:00"},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {"name": "conflict_handling", "value": "zero-tolerance"},
                {"name": "concurrency", "base_attribute": "common_id",
                 "operator": "<=", "granularity": {"metric": "day", "value": 1},
                 "default_capacity": 2},
                {"name": "consistency", "attribute": "usid"},
                {"name": "uniformity", "attribute": "utc_offset", "value": 0.5},
                {"name": "localize", "attribute": "market"}
            ]
        }"#,
        )
        .unwrap();
        let r = plan(&intent, &inv, &topo, &nodes, &PlanOptions::default()).unwrap();
        assert_eq!(r.schedule.scheduled_count(), 8);
        // Consistency: USID pairs share a slot.
        for p in 0..4 {
            assert_eq!(
                r.schedule.assignments[&NodeId(2 * p)],
                r.schedule.assignments[&NodeId(2 * p + 1)]
            );
        }
        // Uniformity: NYC (−5) and DFW (−6) never share a slot.
        for (n, slot) in &r.schedule.assignments {
            for (m, slot2) in &r.schedule.assignments {
                if slot == slot2 {
                    let tz_n = inv.attr_of(*n, "utc_offset").unwrap().as_f64().unwrap();
                    let tz_m = inv.attr_of(*m, "utc_offset").unwrap().as_f64().unwrap();
                    assert!((tz_n - tz_m).abs() <= 0.5);
                }
            }
        }
    }
}
