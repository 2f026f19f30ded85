//! What `cornetd` keeps on disk, and what it makes of it at boot.
//!
//! * A submit appends one record to `submissions.log` and creates no
//!   file; the run creates one, its journal `campaigns/<id>.wal`. A
//!   refused submit (422 or 409) writes nothing.
//! * Each shape a crash or an older build can leave boots the way the
//!   store's module doc says: a torn last record is cut; a journal with no
//!   record holds its id; a record with no journal is queued again;
//!   garbage in the log's place and the older per-campaign directory
//!   layout are refused, their bytes untouched.

#![allow(clippy::disallowed_methods)]

use cornet::daemon::{
    ApiError, CampaignManager, CampaignPhase, CampaignSnapshot, ManagerConfig, SubmitOutcome,
};
use cornet::journal::{boundaries, scan, CampaignStore, FsyncPolicy, Journal};
use cornet::types::CornetError;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SMALL: &str = r#"{"name": "small", "scenario": {"nodes": 4, "latency_ms": 1}}"#;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cornet-state-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start(dir: &Path, max_campaigns: usize) -> Arc<CampaignManager> {
    CampaignManager::start(ManagerConfig {
        state_dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        max_campaigns,
        ..ManagerConfig::default()
    })
    .unwrap_or_else(|e| panic!("boot refused: {e}"))
}

fn refused_boot(dir: &Path) -> ApiError {
    let config = ManagerConfig {
        state_dir: dir.to_path_buf(),
        ..ManagerConfig::default()
    };
    CampaignManager::start(config).err().expect("boot refused")
}

fn stop(manager: Arc<CampaignManager>) {
    manager.begin_shutdown();
    assert!(manager.drain(Duration::from_secs(60)));
}

fn accepted(manager: &Arc<CampaignManager>, body: &str) -> String {
    match manager.submit("acme", body).unwrap() {
        SubmitOutcome::Accepted { id, .. } => id,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

fn wait_terminal(manager: &Arc<CampaignManager>, id: &str) -> CampaignSnapshot {
    for _ in 0..6000 {
        let snap = manager.snapshot("acme", id).unwrap();
        if snap.phase.is_terminal() {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("campaign {id} never reached a terminal phase");
}

/// Every file and directory under `dir`, relative to it.
fn paths(dir: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(at) = todo.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                todo.push(path.clone());
            }
            out.insert(path.strip_prefix(dir).unwrap().display().to_string());
        }
    }
    out
}

fn log_of(dir: &Path) -> PathBuf {
    dir.join("submissions.log")
}

/// The records of the submissions log.
fn records(dir: &Path) -> Vec<String> {
    let bytes = std::fs::read(log_of(dir)).expect("the submissions log exists");
    scan(&bytes).payloads
}

/// A bundle declaring one campaign on inventory node `node`: two of them
/// on the same node race (CN0601, a 409 while the first is live).
fn declared(name: &str, node: &str) -> String {
    format!(
        r#"{{"name": "{name}", "scenario": {{"nodes": 2, "latency_ms": 1}},
        "workflows": [{{"name": "wave-{name}",
                        "inputs": {{"node": "string", "software_version": "string"}},
                        "sequence": ["software_upgrade"]}}],
        "inventory": [{{"name": "{node}", "nf_type": "enb"}}],
        "campaigns": [{{"workflow": "wave-{name}", "assignments": [[0, 1]]}}]}}"#
    )
}

#[test]
fn an_accepted_submit_appends_one_record_its_run_one_file_and_a_refused_one_nothing() {
    let dir = tmp("work");
    // No scheduler slot: what the submit itself writes stays visible.
    let manager = start(&dir, 0);
    let before = paths(&dir);
    let first = declared("first", "enb-0");
    let id = accepted(&manager, &first);
    assert_eq!(paths(&dir), before, "a submit creates no file");
    let log = records(&dir);
    assert_eq!(log.len(), 1);
    assert!(log[0].contains(&format!("\"id\":\"{id}\"")), "{}", log[0]);

    let defective = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/check/defective.json"
    ))
    .unwrap();
    let refused = manager.submit("acme", &defective).unwrap();
    assert!(matches!(refused, SubmitOutcome::Rejected { .. }), "422");
    let racing = manager
        .submit("acme", &declared("second", "enb-0"))
        .unwrap();
    assert!(matches!(racing, SubmitOutcome::Interfering { .. }), "409");
    assert_eq!(paths(&dir), before, "a refused submit creates no file");
    assert_eq!(records(&dir), log, "a refused submit appends no record");
    stop(manager);

    // The record has no journal yet: the next boot runs it, and the run
    // creates exactly its journal.
    let manager = start(&dir, 4);
    assert_eq!(wait_terminal(&manager, &id).phase, CampaignPhase::Completed);
    let wal = |id: &str| format!("campaigns/{id}.wal");
    let mut expected = before.clone();
    expected.insert(wal(&id));
    assert_eq!(paths(&dir), expected);
    assert_eq!(records(&dir), log);

    // And a submit that runs at once: one record, one file.
    let next = accepted(&manager, SMALL);
    assert_eq!(
        wait_terminal(&manager, &next).phase,
        CampaignPhase::Completed
    );
    expected.insert(wal(&next));
    assert_eq!(paths(&dir), expected);
    assert_eq!(records(&dir).len(), 2);
    stop(manager);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_last_record_is_cut_and_the_records_before_it_boot() {
    let dir = tmp("torn");
    let manager = start(&dir, 0);
    let ids = [accepted(&manager, SMALL), accepted(&manager, SMALL)];
    stop(manager);
    let whole = std::fs::read(log_of(&dir)).unwrap();
    let first_end = boundaries(&whole)[0];
    // The second append was cut short by the crash.
    std::fs::write(
        log_of(&dir),
        &whole[..first_end + (whole.len() - first_end) / 2],
    )
    .unwrap();

    let manager = start(&dir, 4);
    let listed: Vec<String> = manager.list("acme").into_iter().map(|s| s.id).collect();
    assert_eq!(listed, [ids[0].as_str()]);
    assert_eq!(std::fs::read(log_of(&dir)).unwrap(), &whole[..first_end]);
    // A torn record is a submit whose one write never completed: its id
    // was never answered, and is free again.
    let next = accepted(&manager, SMALL);
    assert_eq!(next, ids[1]);
    wait_terminal(&manager, &ids[0]);
    wait_terminal(&manager, &next);
    stop(manager);
    assert_eq!(records(&dir).len(), 2, "the next record follows the cut");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_journal_without_a_record_holds_its_id_and_is_never_opened() {
    let dir = tmp("orphan-wal");
    let manager = start(&dir, 4);
    let id = accepted(&manager, SMALL);
    wait_terminal(&manager, &id);
    stop(manager);
    // The journal of a campaign whose record was lost, under a higher id.
    let journal = std::fs::read(CampaignStore::journal_path(&dir, &id).unwrap()).unwrap();
    let orphan = CampaignStore::journal_path(&dir, "c000007").unwrap();
    std::fs::write(&orphan, &journal).unwrap();

    let manager = start(&dir, 4);
    let listed: Vec<String> = manager.list("acme").into_iter().map(|s| s.id).collect();
    assert_eq!(listed, [id.as_str()], "an orphan journal is no campaign");
    let next = accepted(&manager, SMALL);
    assert_eq!(next, "c000008", "the orphan's id is never reused");
    wait_terminal(&manager, &next);
    stop(manager);
    assert_eq!(std::fs::read(&orphan).unwrap(), journal);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_record_without_a_journal_is_queued_again() {
    let dir = tmp("no-wal");
    let manager = start(&dir, 0);
    let id = accepted(&manager, SMALL);
    assert_eq!(
        manager.snapshot("acme", &id).unwrap().phase,
        CampaignPhase::Queued
    );
    stop(manager);
    assert!(!CampaignStore::journal_path(&dir, &id).unwrap().exists());

    let manager = start(&dir, 4);
    let snap = wait_terminal(&manager, &id);
    stop(manager);
    assert_eq!(snap.phase, CampaignPhase::Completed);
    assert_eq!(snap.instances_done, 4);
    assert_eq!(snap.blocks_recovered, 0, "a fresh run, not a resume");
    let (events, _) = Journal::read(CampaignStore::journal_path(&dir, &id).unwrap()).unwrap();
    assert!(!events.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_in_the_logs_place_is_refused_with_its_bytes_unchanged() {
    let dir = tmp("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = b"campaigns: c000001, c000002\n".to_vec();
    std::fs::write(log_of(&dir), &garbage).unwrap();
    let err = CampaignStore::open(&dir).err().expect("refused");
    assert!(matches!(err, CornetError::DataIntegrity(_)), "{err}");
    let err = refused_boot(&dir);
    assert!(err.to_string().contains("submissions.log"), "{err}");
    assert_eq!(std::fs::read(log_of(&dir)).unwrap(), garbage);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_older_per_campaign_directory_layout_is_refused_by_name() {
    let dir = tmp("old-layout");
    let old = dir.join("campaigns/c000001");
    std::fs::create_dir_all(&old).unwrap();
    let manifest = r#"{"id":"c000001","tenant":"acme","name":"old","meta":{}}"#;
    std::fs::write(old.join("manifest.json"), manifest).unwrap();
    std::fs::write(old.join("spec.json"), SMALL).unwrap();
    let err = CampaignStore::open(&dir).err().expect("refused");
    assert!(matches!(err, CornetError::InvalidState(_)), "{err}");
    let err = refused_boot(&dir);
    assert!(err.to_string().contains("manifest.json"), "{err}");
    assert_eq!(
        std::fs::read_to_string(old.join("manifest.json")).unwrap(),
        manifest
    );
    // A directory a crash left empty only holds its id.
    std::fs::remove_dir_all(&old).unwrap();
    std::fs::create_dir(&old).unwrap();
    let manager = start(&dir, 4);
    let next = accepted(&manager, SMALL);
    assert_eq!(next, "c000002");
    wait_terminal(&manager, &next);
    stop(manager);
    std::fs::remove_dir_all(&dir).ok();
}
