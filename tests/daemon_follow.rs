//! The follow stream is the journal.
//!
//! `GET /v1/campaigns/{id}/events?follow=1` over real HTTP against an
//! in-process `cornetd`: whatever cursor a follower starts from and
//! whenever it attaches, it receives exactly the lines the campaign's
//! journal decodes to, in file order, once each; its stream ends only
//! once the snapshot already answers the terminal phase with its outcome;
//! and a foreign tenant gets a 403 before a byte streams.

// Test harness: the early follower reports what it saw over a channel (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet::daemon::{ApiServer, CampaignManager, DaemonClient, ManagerConfig};
use cornet::journal::{CampaignStore, Journal, JournalEvent};
use cornet::types::json::{parse, JsonValue};
use std::sync::mpsc;

const NODES: usize = 96;

fn number(doc: &JsonValue, key: &str) -> usize {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("snapshot field {key}")) as usize
}

/// Follow `id` from `from` to the end of the stream, then fetch the
/// snapshot at once. `seen` hears the running line count.
fn follow(
    client: &DaemonClient,
    id: &str,
    from: usize,
    seen: Option<mpsc::Sender<usize>>,
) -> (Vec<String>, JsonValue) {
    let mut lines = Vec::new();
    let status = client
        .stream(
            &format!("/v1/campaigns/{id}/events?follow=1&from={from}"),
            |line| {
                lines.push(line.to_string());
                if let Some(seen) = &seen {
                    let _ = seen.send(lines.len());
                }
                true
            },
        )
        .expect("stream runs to its end");
    assert_eq!(status, 200);
    let resp = client.get(&format!("/v1/campaigns/{id}")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    (lines, parse(&resp.body).expect("snapshot JSON"))
}

#[test]
fn every_follower_receives_the_journal_from_its_cursor() {
    let state_dir = std::env::temp_dir().join(format!("cornet-follow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let manager = CampaignManager::start(ManagerConfig {
        state_dir: state_dir.clone(),
        ..ManagerConfig::default()
    })
    .unwrap();
    // Three followers hold a worker each for the length of the campaign.
    let api = ApiServer::bind("127.0.0.1:0", 5, manager.clone()).unwrap();
    let addr = api.local_addr().to_string();
    let client = DaemonClient::new(addr.clone(), "acme");

    let spec =
        format!("{{\"name\":\"follow\",\"scenario\":{{\"nodes\":{NODES},\"latency_ms\":1}}}}");
    let resp = client.post("/v1/campaigns", &spec).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let id = parse(&resp.body)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str()).map(str::to_string))
        .expect("submit response carries an id");
    // Hold the campaign until two followers are attached (409: it already
    // ran to its end, and every follower reads a closed log).
    let resp = client
        .post(&format!("/v1/campaigns/{id}/pause"), "")
        .unwrap();
    assert!(matches!(resp.status, 200 | 409), "{}", resp.body);

    // A foreign tenant is refused before anything streams.
    let mut leaked = 0;
    let refused = DaemonClient::new(addr, "rival").stream(
        &format!("/v1/campaigns/{id}/events?follow=1"),
        |_| {
            leaked += 1;
            true
        },
    );
    assert!(
        refused.as_ref().is_err_and(|e| e.starts_with("HTTP 403")),
        "{refused:?}"
    );
    assert_eq!(leaked, 0);

    let (followed, snapshots) = std::thread::scope(|scope| {
        let (seen_tx, seen) = mpsc::channel();
        let (client, id) = (&client, id.as_str());
        let early = scope.spawn(move || follow(client, id, 0, Some(seen_tx)));
        let offset = scope.spawn(move || follow(client, id, 40, None));
        let resp = client
            .post(&format!("/v1/campaigns/{id}/resume"), "")
            .unwrap();
        assert!(matches!(resp.status, 200 | 409), "{}", resp.body);
        // The late follower attaches mid-campaign (or after it, on a fast
        // machine): either way it starts from the first record.
        while seen.recv().is_ok_and(|n| n < 100) {}
        let late = scope.spawn(move || follow(client, id, 0, None));
        let (early, offset, late) = (
            early.join().unwrap(),
            offset.join().unwrap(),
            late.join().unwrap(),
        );
        ([early.0, late.0, offset.0], [early.1, late.1, offset.1])
    });

    let wal = CampaignStore::journal_path(&state_dir, &id).unwrap();
    let (events, recovery) = Journal::read(&wal).expect("journal readable");
    assert!(!recovery.torn);
    let journal: Vec<String> = events.iter().map(JournalEvent::encode).collect();
    assert!(journal.len() > 40 + NODES);
    assert_eq!(
        followed[0], journal,
        "from=0, attached before the first record"
    );
    assert_eq!(followed[1], journal, "from=0, attached late");
    assert_eq!(followed[2], journal[40..], "from=40");

    let blocks = events
        .iter()
        .filter(|e| matches!(e, JournalEvent::BlockCompleted(_)))
        .count();
    for snapshot in &snapshots {
        // Taken right after the stream ended: already terminal, outcome in.
        let phase = snapshot.get("phase").and_then(JsonValue::as_str);
        assert_eq!(phase, Some("completed"), "{snapshot:?}");
        let outcome = snapshot.get("outcome").expect("outcome field");
        assert_eq!(number(outcome, "completed"), NODES, "{snapshot:?}");
        assert_eq!(number(snapshot, "events"), journal.len());
        assert_eq!(number(snapshot, "blocks_live"), blocks);
        assert_eq!(number(snapshot, "instances_done"), NODES);
    }

    // The buffered listing is the same log.
    let resp = client
        .get(&format!("/v1/campaigns/{id}/events?from=40"))
        .unwrap();
    assert_eq!(resp.status, 200);
    let listed: Vec<&str> = resp.body.lines().collect();
    assert_eq!(listed, journal[40..]);

    manager.begin_shutdown();
    assert!(manager.drain(std::time::Duration::from_secs(30)));
    api.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}
