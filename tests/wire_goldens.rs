//! Byte-level goldens for every JSON document the workspace writes to
//! disk or to the wire: check diagnostics (JSONL, SARIF), journal frames,
//! campaign manifests, `cornetd` responses, blast radii, trace renderings
//! and the WAR payload. The files under `tests/golden/` are the contract —
//! a WAL written by one build must read back under the next — so a
//! rendering change has to show up here as a diff.
//!
//! Regenerate (only when a format change is intended) with
//! `UPDATE_GOLDEN=1 cargo test --test wire_goldens`.

// Test harness: the daemon handler is built with a shutdown channel (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet::core::blast::campaign_blasts;
use cornet::core::load_bundle;
use cornet::core::native::param_value_to_json;
use cornet::daemon::api::render_snapshot;
use cornet::daemon::{CampaignPhase, CampaignResult, CampaignSnapshot, StreamHub};
use cornet::journal::{encode_record, BlockRecord, JournalEvent, Manifest, StateMap};
use cornet::obs::{JsonLinesSink, ManualClock, TraceSink, Tracer};
use cornet::types::ParamValue;
use std::collections::BTreeMap;
use std::process::Command;

/// A string exercising every escape class: quote, backslash, the named
/// control escapes, a `\u00XX` control, a BMP and a non-BMP character.
const NASTY: &str = "q\"b\\n\nr\rt\tu\u{1}é😀";

fn assert_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with UPDATE_GOLDEN=1)"));
    assert_eq!(rendered, golden, "{name} changed on the wire");
}

fn check_defective(format: &str) -> String {
    let bundle = format!(
        "{}/examples/check/defective.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_cornet"))
        .args(["check", &bundle, "--format", format])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn check_jsonl_is_byte_stable() {
    assert_golden("check_defective.jsonl", &check_defective("json"));
}

#[test]
fn check_sarif_is_byte_stable() {
    assert_golden("check_defective.sarif", &check_defective("sarif"));
}

fn nested_state() -> StateMap {
    let mut inner = StateMap::new();
    inner.insert("k".into(), ParamValue::from("v"));
    inner.insert(NASTY.into(), ParamValue::Bool(false));
    let mut state = StateMap::new();
    state.insert("node".into(), ParamValue::from("enb-1"));
    state.insert("int".into(), ParamValue::Int(2));
    state.insert("float".into(), ParamValue::Float(2.0));
    state.insert("min".into(), ParamValue::Int(i64::MIN));
    state.insert("rate".into(), ParamValue::Float(0.1 + 0.2));
    state.insert("nan".into(), ParamValue::Float(f64::NAN));
    state.insert("inf".into(), ParamValue::Float(f64::NEG_INFINITY));
    state.insert("ok".into(), ParamValue::Bool(true));
    state.insert(
        "list".into(),
        ParamValue::List(vec![
            ParamValue::Int(1),
            ParamValue::from(NASTY),
            ParamValue::List(vec![]),
            ParamValue::Map(inner.clone()),
        ]),
    );
    state.insert("map".into(), ParamValue::Map(inner));
    state
}

fn every_event_kind() -> Vec<JournalEvent> {
    let mut meta = BTreeMap::new();
    meta.insert("seed".to_string(), "42".to_string());
    meta.insert(NASTY.to_string(), NASTY.to_string());
    vec![
        JournalEvent::CampaignOpened {
            meta: meta.clone(),
            assignments: vec![(0, 1), (7, 2), (u32::MAX, 5)],
            concurrency: 4,
        },
        JournalEvent::CampaignOpened {
            meta: BTreeMap::new(),
            assignments: vec![],
            concurrency: 1,
        },
        JournalEvent::CampaignResumed { meta },
        JournalEvent::InstanceAdmitted { node: 3, slot: 1 },
        JournalEvent::BlockCompleted(BlockRecord {
            node: 12,
            slot: 2,
            block: "software_upgrade".into(),
            status: "recovered".into(),
            attempts: 3,
            duration_ns: u64::MAX,
            backoff_ns: 1_500_000_000,
            error: Some(NASTY.into()),
            backout: true,
            state: nested_state(),
        }),
        JournalEvent::BlockCompleted(BlockRecord {
            node: 0,
            slot: 1,
            block: "health_check".into(),
            status: "success".into(),
            attempts: 1,
            duration_ns: 0,
            backoff_ns: 0,
            error: None,
            backout: false,
            state: StateMap::new(),
        }),
        JournalEvent::InstanceFinished {
            node: 3,
            slot: 1,
            status: "rolled_back".into(),
            detail: Some(NASTY.into()),
        },
        JournalEvent::InstanceFinished {
            node: 4,
            slot: 1,
            status: "completed".into(),
            detail: None,
        },
        JournalEvent::BreakerTripped {
            block: "software_upgrade".into(),
            failure_rate: 0.8333333333333334,
            samples: 6,
        },
        JournalEvent::BreakerTripped {
            block: NASTY.into(),
            failure_rate: 1.0,
            samples: u64::MAX,
        },
        JournalEvent::CampaignClosed(None),
    ]
}

#[test]
fn journal_frames_are_byte_stable() {
    let mut wal = String::new();
    for ev in every_event_kind() {
        wal.push_str(&encode_record(&ev.encode()));
    }
    assert_golden("journal_frames.wal", &wal);
}

#[test]
fn manifest_is_byte_stable() {
    let mut meta = BTreeMap::new();
    meta.insert("fsync".to_string(), "every-n=64".to_string());
    meta.insert("name".to_string(), NASTY.to_string());
    meta.insert("nodes".to_string(), "24".to_string());
    let manifest = Manifest {
        id: "c000007".into(),
        tenant: "alice".into(),
        name: NASTY.into(),
        meta,
    };
    assert_golden("manifest.json", &manifest.encode());
    let bare = Manifest {
        id: "c000001".into(),
        tenant: "bob".into(),
        name: "campaign".into(),
        meta: BTreeMap::new(),
    };
    assert_golden("manifest_bare.json", &bare.encode());
}

#[test]
fn campaign_snapshots_are_byte_stable() {
    let running = CampaignSnapshot {
        id: "c000002".into(),
        tenant: "alice".into(),
        name: NASTY.into(),
        phase: CampaignPhase::Running,
        total_instances: 24,
        instances_done: 7,
        blocks_live: 31,
        blocks_recovered: 4,
        events: 52,
        outcome: None,
        error: None,
    };
    let tripped = CampaignSnapshot {
        phase: CampaignPhase::Completed,
        instances_done: 9,
        outcome: Some(CampaignResult {
            fingerprint: 0x00ab_cdef_0123_4567,
            completed: 5,
            failed: 1,
            rolled_back: 3,
            trip: Some("software_upgrade".into()),
            cancelled: false,
        }),
        ..running.clone()
    };
    let failed = CampaignSnapshot {
        phase: CampaignPhase::Failed,
        outcome: Some(CampaignResult {
            fingerprint: u64::MAX,
            completed: 0,
            failed: 0,
            rolled_back: 0,
            trip: None,
            cancelled: true,
        }),
        error: Some(NASTY.into()),
        ..running.clone()
    };
    let body = [running, tripped, failed]
        .iter()
        .map(|s| render_snapshot(s) + "\n")
        .collect::<String>();
    assert_golden("campaign_snapshots.jsonl", &body);
}

#[test]
fn blast_radii_are_byte_stable() {
    let text = std::fs::read_to_string(format!(
        "{}/examples/check/conflict.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let bundle = load_bundle(&text).unwrap();
    let body = campaign_blasts(&bundle)
        .iter()
        .map(|b| b.render_json() + "\n")
        .collect::<String>();
    assert_golden("blast_conflict.jsonl", &body);
}

/// The one measured (wall-clock) figure in the session snapshot.
fn mask_latency(snapshot: &str) -> String {
    let key = "\"detection_latency_p99_ms\":";
    let start = snapshot.find(key).expect("latency field present") + key.len();
    let end = start + snapshot[start..].find(',').expect("a field follows");
    format!("{}<measured>{}", &snapshot[..start], &snapshot[end..])
}

#[test]
fn ingest_receipt_and_snapshot_are_byte_stable() {
    let hub = StreamHub::new(Tracer::noop());
    let params = [
        ("nodes", "2"),
        ("kpi", "thr\"put"),
        ("change_minute", "3000"),
        ("expect", "improve"),
        ("threshold", "4.5"),
    ]
    .map(|(k, v)| (k.to_string(), v.to_string()));
    let mut body = String::from("not json\n");
    for k in 0..100u64 {
        for node in ["study-0", "study-1", "control-0", "control-1"] {
            let mut v = 100.0 + ((k * 7) % 5) as f64 * 0.2;
            if node.starts_with("study") && k * 60 >= 3000 {
                v += 25.0;
            }
            body.push_str(&format!(
                "{{\"node\":\"{node}\",\"kpi\":\"thr\\\"put\",\"minute\":{},\"value\":{v}}}\n",
                k * 60
            ));
        }
    }
    let receipt = hub.ingest("t", params.into_iter(), &body).unwrap();
    assert_golden("ingest_receipt.json", &receipt);
    let snapshot = mask_latency(&hub.snapshot("t").unwrap());
    assert_golden("ingest_snapshot.json", &snapshot);

    // Too little data for a verdict: the error-field arm.
    let early = StreamHub::new(Tracer::noop());
    early
        .ingest(
            "t",
            std::iter::empty(),
            "{\"node\":\"study-0\",\"kpi\":\"kpi\",\"minute\":0,\"value\":1}",
        )
        .unwrap();
    let snapshot = mask_latency(&early.snapshot("t").unwrap());
    assert_golden("ingest_snapshot_early.json", &snapshot);
}

fn small_trace() -> cornet::obs::Trace {
    let t = Tracer::with_clock(ManualClock::ticking(1_500_000));
    let root = t.span("dispatch");
    let mut child = t.child_span("instance", root.id());
    child.attr("node", NASTY);
    child.attr("attempts", 2u32);
    child.attr("recovered", true);
    child.attr("rate", 0.25f64);
    child.attr("bad", f64::NAN);
    child.finish();
    t.child_span("instance", root.id()).finish();
    root.finish();
    t.span(NASTY).finish();
    t.incr("instances.completed", 2);
    t.observe("block.duration_ms", 1.5);
    t.observe("block.duration_ms", 2500.0);
    t.snapshot()
}

#[test]
fn trace_lines_are_byte_stable() {
    assert_golden("trace_lines.jsonl", &JsonLinesSink.render(&small_trace()));
}

/// The WAR payload is the workflow's identity: its bytes, and therefore
/// the digest and REST path, are the same in every process and build.
#[test]
fn war_payload_and_digest_are_byte_stable() {
    let catalog = cornet::catalog::builtin_catalog();
    let fig4 = cornet::workflow::builtin::software_upgrade_workflow(&catalog);
    let war = cornet::workflow::WarArtifact::package(&fig4, &catalog).expect("Fig. 4 packages");
    let payload = std::str::from_utf8(&war.payload).expect("UTF-8 payload");
    assert_golden("war_payload.json", payload);
    assert_eq!(war.manifest.digest, "cb497a328f7d2d6f");
    assert_eq!(
        war.manifest.rest_api,
        "/wf/software_upgrade/cb497a328f7d2d6f"
    );
}

#[test]
fn param_values_are_byte_stable() {
    let mut map = BTreeMap::new();
    map.insert(NASTY.to_string(), ParamValue::from(NASTY));
    map.insert("int".into(), ParamValue::Int(-7));
    map.insert("whole".into(), ParamValue::Float(2.0));
    map.insert("tiny".into(), ParamValue::Float(1e-7));
    map.insert("huge".into(), ParamValue::Float(1e21));
    map.insert("nan".into(), ParamValue::Float(f64::NAN));
    map.insert(
        "list".into(),
        ParamValue::List(vec![
            ParamValue::Bool(true),
            ParamValue::Map(BTreeMap::new()),
        ]),
    );
    assert_golden(
        "param_value.json",
        &param_value_to_json(&ParamValue::Map(map)),
    );
}

fn fingerprint_of(out: &std::process::Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    let at = text
        .find("fingerprint=")
        .unwrap_or_else(|| panic!("no fingerprint in: {text}"));
    text[at..].trim().to_string()
}

/// `crashed_run.wal` was written by `cornet run --journal F --crash-at 5`
/// at the commit before the shared JSON writer existed: a WAL from an
/// older build must resume to the fingerprint of an uninterrupted run.
#[test]
fn wal_from_an_older_build_resumes_to_the_clean_fingerprint() {
    let dir = std::env::temp_dir().join(format!("cornet-wire-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let crashed = dir.join("crashed.wal");
    std::fs::copy(
        format!(
            "{}/tests/golden/crashed_run.wal",
            env!("CARGO_MANIFEST_DIR")
        ),
        &crashed,
    )
    .unwrap();
    let cornet = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_cornet"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{args:?}: {out:?}");
        out
    };
    let resumed = cornet(&["resume", crashed.to_str().unwrap()]);
    let clean = cornet(&["run", "--journal", dir.join("clean.wal").to_str().unwrap()]);
    assert_eq!(fingerprint_of(&resumed), fingerprint_of(&clean));
    std::fs::remove_dir_all(&dir).ok();
}

/// Bodies of the `cornetd` endpoints that are not a campaign snapshot:
/// quotas, the 201 receipt, owner-only blast radii and the error shapes.
#[test]
fn daemon_api_bodies_are_byte_stable() {
    use cornet::daemon::api::handler;
    use cornet::daemon::{CampaignManager, ManagerConfig, Reply, Request};

    let state_dir = std::env::temp_dir().join(format!("cornet-wire-api-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let manager = CampaignManager::start(ManagerConfig {
        state_dir: state_dir.clone(),
        quota_overrides: BTreeMap::from([("alice".to_string(), 3)]),
        // The final ledger pins the tenant's high-water mark at its quota.
        // Instances this short only overlap that far when the workers
        // wait on one another with their permits held, and under `Always`
        // they do at every append: one syncs, the rest queue behind it.
        fsync: cornet::journal::FsyncPolicy::Always,
        ..ManagerConfig::default()
    })
    .unwrap();
    let (tx, _rx) = std::sync::mpsc::channel();
    let handle = handler(manager.clone(), tx);
    let call = |method: &str, path: &str, tenant: Option<&str>, body: &str| {
        let mut headers = BTreeMap::new();
        if let Some(t) = tenant {
            headers.insert("x-cornet-tenant".to_string(), t.to_string());
        }
        let reply = handle(Request {
            method: method.into(),
            path: path.into(),
            query: BTreeMap::new(),
            headers,
            body: body.into(),
        });
        match reply {
            Reply::Full(r) => format!("{method} {path} -> {} {}\n", r.status, r.body),
            Reply::Stream { .. } => panic!("{path}: unexpected stream"),
        }
    };
    let conflict = std::fs::read_to_string(format!(
        "{}/examples/check/conflict.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    // conflict.json races with itself; submit only its first campaign.
    let first_only = conflict.replace(
        ",\n    {\"workflow\": \"hot-patch\", \"assignments\": [[0, 1], [9, 1]]}",
        "",
    );
    assert_ne!(first_only, conflict);

    let mut log = String::new();
    log += &call("GET", "/v1/healthz", None, "");
    log += &call("GET", "/v1/quotas", Some("alice"), "");
    log += &call("GET", "/v1/quotas", Some("nobody"), "");
    log += &call("GET", "/v1/quotas", None, "");
    log += &call("POST", "/v1/campaigns", Some("alice"), &first_only);
    log += &call("GET", "/v1/campaigns/c000001/blast", Some("alice"), "");
    log += &call("GET", "/v1/campaigns/c000001/blast", Some("bob"), "");
    log += &call("GET", "/v1/campaigns/c\"9", Some("alice"), "");
    log += &call("POST", "/v1/campaigns", Some("alice"), "{\"name\": [1, }");
    log += &call("DELETE", "/v1/campaigns", Some("alice"), "");
    log += &call("GET", "/nope\n", None, "");
    log += &call("GET", "/v1/ingest", Some("alice"), "");

    // Once the two-instance campaign (one instance per slot) has run,
    // the tenant's ledger and the terminal snapshot are deterministic.
    manager.begin_shutdown();
    assert!(manager.drain(std::time::Duration::from_secs(30)));
    log += &call("GET", "/v1/quotas", Some("alice"), "");
    log += &call("GET", "/v1/campaigns", Some("alice"), "");
    assert_golden("daemon_api_bodies.txt", &log);
    let _ = std::fs::remove_dir_all(&state_dir);
}
