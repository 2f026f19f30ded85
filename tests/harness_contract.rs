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
use cornet::types::{NodeId, Schedule};
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

#[test]
fn the_names_the_benchmark_calls_keep_their_shapes() {
    // Taking each function as a pointer type-checks every call in it.
    let _ = daemon as fn(&Path, Tracer, &str) -> Result<(), String>;
    let _ = dispatch
        as fn(WarArtifact, ExecutorRegistry, &Path, Tracer, &Schedule) -> Result<(), String>;
}
