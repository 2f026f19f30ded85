//! The names the `cornet_e2e` benchmark calls, with the argument shapes it
//! calls them with. The benchmark is a package of its own, built only
//! where it runs, so a rename or a changed signature in one of these
//! breaks its build and nothing else; this file makes it break
//! `cargo test` first. Nothing here runs: it only has to compile.
//!
//! Keep it in step with `cornet_e2e/src`: a name the harness starts to
//! call goes in here, and a name in here may change only together with
//! the harness.

use cornet::daemon::{
    report_fingerprint, ApiServer, CampaignManager, ClientResponse, DaemonClient, ManagerConfig,
    SubmitOutcome,
};
use cornet::journal::{CrashMode, CrashSwitch, FsyncPolicy, Journal, JournalEvent};
use cornet::obs::Tracer;
use cornet::orchestrator::{
    CampaignControl, DispatchReport, Dispatcher, ExecutorRegistry, GlobalState,
};
use cornet::planner::heuristic::heuristic_schedule_units;
use cornet::planner::{
    plan, translate, BackendChoice, ConstraintRule, HeuristicConfig, PlanIntent, PlanOptions,
    PlanResult, TranslateOptions,
};
use cornet::solver::{solve, Outcome, SolverConfig};
use cornet::stats::{robust_rank_order, theil_sen, MultiTimescaleDetector, TimeSeries};
use cornet::types::{Granularity, Inventory, NodeId, Schedule, Topology};
use cornet::verifier::{
    verify_rules_traced, ChangeScope, ClosureAdapter, ImpactVerdict, IngestStats, KpiAnalysis,
    KpiQuery, StreamConfig, StreamSample, StreamingVerifier, VerificationReport, VerificationRule,
};
use cornet::workflow::WarArtifact;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// `tenant_mix` and the `daemon.*`/`http.*` layer rows.
fn daemon(state_dir: &Path, tracer: Tracer, bundle: &str) -> Result<(), String> {
    let manager: Arc<CampaignManager> = CampaignManager::start(ManagerConfig {
        state_dir: state_dir.to_path_buf(),
        tracer,
        fsync: FsyncPolicy::Never,
        ..ManagerConfig::default()
    })
    .expect("campaign manager starts");
    let api = ApiServer::bind("127.0.0.1:0", 2, manager.clone()).expect("binds");
    let addr: String = api.local_addr().to_string();
    let owned = DaemonClient::new(addr.clone(), "tenant-0");
    let borrowed = DaemonClient::new(addr.as_str(), "tenant-0");
    let r: ClientResponse = owned.post("/v1/campaigns", bundle)?;
    let (_status, _body): (u16, String) = (r.status, r.body);
    let _: ClientResponse = borrowed.get("/v1/healthz")?;
    let _: u16 = owned.stream("/v1/campaigns/c000001/events?follow=1", |_| true)?;
    match manager.submit("layers", bundle).expect("submit") {
        SubmitOutcome::Accepted { id, .. } => drop(id),
        SubmitOutcome::Rejected { .. } | SubmitOutcome::Interfering { .. } => {}
    }
    let (_in_flight, _high_water, _pool): (usize, usize, usize) = manager.pool_usage();
    manager.begin_shutdown();
    let _: bool = manager.drain(Duration::from_secs(60));
    api.shutdown();
    Ok(())
}

/// `fleet_rollout` and the `dispatch.*`/`journal.*` layer rows.
fn dispatch(
    war: WarArtifact,
    registry: ExecutorRegistry,
    path: &Path,
    tracer: Tracer,
    schedule: &Schedule,
) -> Result<(), String> {
    let version = String::from("20.1");
    let inputs = move |_: NodeId| -> GlobalState {
        let mut g = GlobalState::new();
        g.insert("software_version".into(), version.as_str().into());
        g
    };
    let switch = CrashSwitch::new();
    let _ = CrashMode::MidBlock;
    let control = CampaignControl::new();
    let journal = Journal::create(path, FsyncPolicy::EveryN(64))
        .map_err(|e| e.to_string())?
        .with_tracer(tracer.clone())
        .with_crash_switch(switch.clone())
        .with_listener(Arc::new(move |event: &JournalEvent| {
            let _ = matches!(event, JournalEvent::BlockCompleted(_));
        }));
    let dispatcher = Dispatcher::new(war.clone(), registry.clone(), 4)
        .map_err(|e| e.to_string())?
        .with_tracer(tracer.clone())
        .with_journal(journal, BTreeMap::new());
    let report: DispatchReport = dispatcher
        .run(schedule, &inputs)
        .map_err(|e| e.to_string())?;
    let _: u64 = report_fingerprint(&report);
    let _ = dispatcher
        .run_campaign(schedule, &inputs, None, Some(&control))
        .map_err(|e| e.to_string())?;
    let (_report, _trip) = Dispatcher::new(war, registry, 4)
        .map_err(|e| e.to_string())?
        .with_tracer(tracer)
        .resume_from_journal(path, FsyncPolicy::EveryN(64), &inputs, None)
        .map_err(|e| e.to_string())?;
    let (events, _recovery) = Journal::read(path).map_err(|e| e.to_string())?;
    let copy = Journal::create(path, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    copy.append(&events[0]).map_err(|e| e.to_string())?;
    Ok(())
}

/// `kpi_verify` and the `verifier.*`/`stats.*` layer rows.
fn verify(
    study: &[NodeId],
    inventory: Inventory,
    topology: Topology,
    tracer: Tracer,
) -> Result<(), String> {
    let mut rule = VerificationRule::standard(
        "session",
        vec![
            KpiQuery::monitor("thr", true),
            KpiQuery::monitor("lat", false),
        ],
    );
    rule.location_attributes = vec!["market".into()];
    let scope = ChangeScope::simultaneous(study, 600);
    let engine = StreamingVerifier::new(
        vec![rule.clone()],
        scope.clone(),
        inventory.clone(),
        topology.clone(),
        StreamConfig {
            step_minutes: 60,
            queue_capacity: 1_000,
            ..StreamConfig::default()
        },
        tracer.clone(),
    );
    engine.offer(StreamSample {
        node: NodeId(0),
        kpi: "thr".to_string(),
        carrier: None,
        minute: 60,
        value: 1.0,
    });
    engine.pump();
    let streamed: Vec<VerificationReport> = engine.poll_verdicts().map_err(|e| e.to_string())?;
    let stats: IngestStats = engine.stats();
    let _: (u64, u64, u64) = (stats.processed, stats.shed, stats.accepted);
    let _: Option<f64> = engine.detection_latency_quantile(0.99);
    let series: Vec<TimeSeries> = Vec::new();
    let adapter = ClosureAdapter(|node: NodeId, _kpi: &str, _: Option<usize>| {
        series.get(node.0 as usize).cloned()
    });
    let batch: Vec<VerificationReport> = verify_rules_traced(
        &adapter,
        std::slice::from_ref(&rule),
        &scope,
        &inventory,
        &topology,
        &tracer,
        None,
    )
    .map_err(|e| e.to_string())?;
    for (s, b) in streamed.iter().zip(&batch) {
        let _ = (s.decision == b.decision, &s.rule);
        for k in &s.kpis {
            let overall: &KpiAnalysis = &k.overall;
            let _ = (overall.verdict == ImpactVerdict::NoImpact, overall.p_value);
            let _ = (&k.query.kpi, k.per_location.len());
        }
    }
    let (xs, ys) = ([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]);
    let _ = robust_rank_order(&xs, &ys);
    let _ = theil_sen(&xs, &ys);
    let mut detector = MultiTimescaleDetector::new(&[1, 24], 8, 5.0);
    let _ = detector.push(1.0);
    Ok(())
}

/// `fleet_plan` and the `planner.*`/`model.*`/`solver.*` layer rows.
fn planner(
    inventory: &Inventory,
    topology: &Topology,
    nodes: &[NodeId],
    tracer: Tracer,
) -> Result<(), String> {
    let mut intent = PlanIntent::from_json("{}").map_err(|e| e.to_string())?;
    intent.constraints = vec![
        ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: None,
            operator: "<=".into(),
            granularity: Granularity::daily(),
            default_capacity: 4,
        },
        ConstraintRule::Consistency {
            attribute: "usid".into(),
        },
    ];
    for backend in [
        BackendChoice::Exact,
        BackendChoice::Heuristic,
        BackendChoice::Portfolio,
        BackendChoice::Sharded,
    ] {
        let options = PlanOptions {
            solver: SolverConfig {
                max_nodes: 20_000,
                time_limit: Duration::from_secs(120),
                ..SolverConfig::default()
            },
            backend,
            heuristic: HeuristicConfig {
                iterations: 4,
                seed: 7,
                ..HeuristicConfig::default()
            },
            tracer: tracer.clone(),
            ..PlanOptions::default()
        };
        let result: PlanResult =
            plan(&intent, inventory, topology, nodes, &options).map_err(|e| e.to_string())?;
        let schedule: &Schedule = &result.schedule;
        let _ = (
            schedule.assignments.len(),
            schedule.leftovers.len(),
            schedule.conflicts,
        );
        let _: bool = result.outcome == Outcome::Optimal;
        let _: (u64, u64) = (result.search_stats.nodes, result.search_stats.backtracks);
        for run in &result.backend_runs {
            let _: (Duration, bool) = (run.elapsed, run.winner);
        }
    }
    let translation = translate(
        &intent,
        inventory,
        topology,
        nodes,
        &TranslateOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let model = &translation.model;
    let _: (usize, usize) = (model.var_count(), model.constraint_count());
    let units: Vec<Vec<NodeId>> = translation.units.iter().map(|u| u.nodes.clone()).collect();
    let conflicts = intent.conflicts().map_err(|e| e.to_string())?;
    let config = HeuristicConfig {
        seed: 7,
        slot_capacity: 4,
        iterations: 4,
    };
    let _ = heuristic_schedule_units(inventory, &units, &conflicts, &translation.window, &config);
    let solved = solve(model, &SolverConfig::default());
    let _: (u64, bool) = (solved.stats.nodes, solved.outcome == Outcome::Optimal);
    Ok(())
}

#[test]
fn the_names_the_benchmark_calls_keep_their_shapes() {
    // Taking each function as a pointer type-checks every call in it.
    let _ = daemon as fn(&Path, Tracer, &str) -> Result<(), String>;
    let _ = dispatch
        as fn(WarArtifact, ExecutorRegistry, &Path, Tracer, &Schedule) -> Result<(), String>;
}

#[test]
fn the_verifier_and_stats_names_the_benchmark_calls_keep_their_shapes() {
    let _ = verify as fn(&[NodeId], Inventory, Topology, Tracer) -> Result<(), String>;
}

#[test]
fn the_planner_and_solver_names_the_benchmark_calls_keep_their_shapes() {
    let _ = planner as fn(&Inventory, &Topology, &[NodeId], Tracer) -> Result<(), String>;
}
