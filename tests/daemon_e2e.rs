//! End-to-end `cornetd` service test (ISSUE 8 acceptance): a real daemon
//! process, two tenants, real HTTP — through submission (including a
//! gate-refused bundle), per-tenant quota enforcement under a saturated
//! pool, a mid-campaign SIGKILL, and a restart that resumes every
//! interrupted campaign to the exact uninterrupted outcome with zero
//! re-executed blocks.
//!
//! The reference outcomes come from phase A: the same two campaigns run
//! on a daemon that is never killed (and is shut down cleanly via
//! `POST /v1/shutdown`). Phase B reruns them, SIGKILLs the daemon while
//! both are mid-flight, and verifies recovery against phase A.

// Test harness: polling loops sleep between tries (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet::daemon::DaemonClient;
use cornet::journal::{scan, CampaignStore, Journal, JournalEvent};
use cornet::types::json::{parse, JsonValue};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODES: u32 = 160;
const BLOCKS_PER_INSTANCE: u32 = 3;
const TOTAL_BLOCKS: u32 = NODES * BLOCKS_PER_INSTANCE;
const POOL: u32 = 4;
const TENANT_QUOTA: u32 = 2;

/// A zero-fault campaign big enough that a SIGKILL lands mid-flight
/// (every append fsyncs under `--fsync always`, so the run takes real
/// wall-clock time even though block latency is simulated).
fn spec() -> String {
    format!(
        "{{\"name\":\"e2e\",\"scenario\":{{\"nodes\":{NODES},\"latency_ms\":1,\
         \"fault_rate_milli\":0}}}}"
    )
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(state_dir: &Path) -> Daemon {
        Daemon::spawn(Command::new(env!("CARGO_BIN_EXE_cornetd")), state_dir)
    }

    /// The daemon under an address-space limit of `kib` KiB: an
    /// allocation past it aborts the process instead of paging.
    fn start_limited(state_dir: &Path, kib: u64) -> Daemon {
        let mut shell = Command::new("sh");
        shell
            .arg("-c")
            .arg(format!("ulimit -v {kib} && exec \"$0\" \"$@\""))
            .arg(env!("CARGO_BIN_EXE_cornetd"));
        Daemon::spawn(shell, state_dir)
    }

    fn spawn(mut command: Command, state_dir: &Path) -> Daemon {
        let mut child = command
            .args([
                "--listen",
                "127.0.0.1:0",
                "--state-dir",
                state_dir.to_str().unwrap(),
                "--fsync",
                "always",
                "--pool",
                &POOL.to_string(),
                "--default-quota",
                &TENANT_QUOTA.to_string(),
                "--max-campaigns",
                "4",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("cornetd starts");
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).expect("cornetd announces");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("listen line has an address")
            .to_string();
        assert!(addr.contains(':'), "unexpected announce line: {line:?}");
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Daemon { child, addr }
    }

    fn client(&self, tenant: &str) -> DaemonClient {
        DaemonClient::new(self.addr.clone(), tenant)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cornet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(client: &DaemonClient, body: &str) -> String {
    let resp = client.post("/v1/campaigns", body).expect("submit succeeds");
    assert_eq!(resp.status, 201, "submit accepted: {}", resp.body);
    parse(&resp.body)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str()).map(str::to_string))
        .expect("submit response carries an id")
}

fn snapshot(client: &DaemonClient, id: &str) -> JsonValue {
    let resp = client
        .get(&format!("/v1/campaigns/{id}"))
        .expect("status succeeds");
    assert_eq!(resp.status, 200, "campaign visible: {}", resp.body);
    parse(&resp.body).expect("snapshot is valid JSON")
}

fn field_u64(snap: &JsonValue, name: &str) -> u64 {
    snap.get(name)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("snapshot field {name}")) as u64
}

fn phase_of(snap: &JsonValue) -> String {
    snap.get("phase")
        .and_then(|v| v.as_str())
        .expect("snapshot has a phase")
        .to_string()
}

fn wait_terminal(client: &DaemonClient, id: &str, budget: Duration) -> JsonValue {
    let deadline = Instant::now() + budget;
    loop {
        let snap = snapshot(client, id);
        match phase_of(&snap).as_str() {
            "completed" | "failed" | "cancelled" => return snap,
            _ if Instant::now() > deadline => panic!("campaign {id} never finished: {snap:?}"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn fingerprint_of(snap: &JsonValue) -> String {
    snap.get("outcome")
        .and_then(|o| o.get("fingerprint"))
        .and_then(|f| f.as_str())
        .expect("terminal snapshot has a fingerprint")
        .to_string()
}

/// Durable `block_completed` count in a campaign's WAL — what a
/// restarted daemon will replay instead of re-executing.
fn surviving_blocks(state: &Path, id: &str) -> u64 {
    let wal = CampaignStore::journal_path(state, id).unwrap();
    let (events, _recovery) = Journal::read(&wal).expect("journal readable");
    events
        .iter()
        .filter(|e| matches!(e, JournalEvent::BlockCompleted(_)))
        .count() as u64
}

#[test]
fn daemon_survives_sigkill_and_resumes_every_campaign() {
    let tenants = ["acme", "zephyr"];

    // ---- Phase A: uninterrupted reference run + API contract checks.
    let state_a = state_dir("ref");
    let mut reference = Vec::new();
    {
        let mut daemon = Daemon::start(&state_a);
        let ops = daemon.client("ops");

        // The check gate refuses a defective bundle with 422 + JSONL
        // diagnostics, and leaves no campaign behind.
        let defective = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/examples/check/defective.json"
        ))
        .unwrap();
        let refused = ops.post("/v1/campaigns", &defective).expect("submit runs");
        assert_eq!(refused.status, 422);
        assert!(
            refused.body.lines().any(|l| l.contains("\"error\"")),
            "diagnostics returned: {}",
            refused.body
        );
        let listed = ops.get("/v1/campaigns").expect("list runs");
        assert_eq!(listed.body.trim(), "[]", "refused bundle left no state");

        let ids: Vec<String> = tenants
            .iter()
            .map(|t| submit(&daemon.client(t), &spec()))
            .collect();

        // Tenant isolation over real HTTP: acme cannot see zephyr's
        // campaign, and a stranger can't drive it.
        let foreign = daemon
            .client(tenants[0])
            .get(&format!("/v1/campaigns/{}", ids[1]))
            .expect("request runs");
        assert_eq!(foreign.status, 403);
        let meddle = ops
            .post(&format!("/v1/campaigns/{}/cancel", ids[0]), "")
            .expect("request runs");
        assert_eq!(meddle.status, 403);

        for (t, id) in tenants.iter().zip(&ids) {
            let snap = wait_terminal(&daemon.client(t), id, Duration::from_secs(120));
            assert_eq!(phase_of(&snap), "completed");
            assert_eq!(field_u64(&snap, "blocks_recovered"), 0);
            assert_eq!(field_u64(&snap, "blocks_live"), u64::from(TOTAL_BLOCKS));
            reference.push(fingerprint_of(&snap));
        }
        assert_eq!(
            reference[0], reference[1],
            "identical specs produce identical outcomes"
        );

        // Clean shutdown: the daemon drains and exits zero.
        let resp = ops.post("/v1/shutdown", "").expect("shutdown accepted");
        assert_eq!(resp.status, 202);
        let status = daemon.child.wait_with_deadline();
        assert!(status.success(), "clean shutdown exits zero: {status:?}");
    }
    let _ = std::fs::remove_dir_all(&state_a);

    // ---- Phase B: same campaigns, SIGKILL mid-flight, restart, resume.
    let state_b = state_dir("kill");
    let ids: Vec<String>;
    let mut quota_ceiling = 0u64;
    let mut pool_ceiling = 0u64;
    {
        let mut daemon = Daemon::start(&state_b);
        ids = tenants
            .iter()
            .map(|t| submit(&daemon.client(t), &spec()))
            .collect();

        // Let both campaigns get provably mid-flight, watching quota
        // usage while the pool saturates.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            for t in &tenants {
                let resp = daemon.client(t).get("/v1/quotas").expect("quotas");
                let doc = parse(&resp.body).expect("quotas JSON");
                if let Some(tq) = doc.get("tenant").filter(|v| !matches!(v, JsonValue::Null)) {
                    quota_ceiling = quota_ceiling.max(field_u64(tq, "high_water"));
                    assert!(
                        field_u64(tq, "high_water") <= u64::from(TENANT_QUOTA),
                        "tenant {t} exceeded its quota: {}",
                        resp.body
                    );
                }
                pool_ceiling = pool_ceiling.max(field_u64(
                    doc.get("global").expect("global pool stats"),
                    "high_water",
                ));
            }
            let live: Vec<u64> = tenants
                .iter()
                .zip(&ids)
                .map(|(t, id)| field_u64(&snapshot(&daemon.client(t), id), "blocks_live"))
                .collect();
            if live.iter().all(|&n| n >= 1)
                && pool_ceiling == u64::from(POOL)
                && quota_ceiling == u64::from(TENANT_QUOTA)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "campaigns never saturated the pool: live={live:?}, \
                 pool_ceiling={pool_ceiling}, quota_ceiling={quota_ceiling}"
            );
        }
        daemon.child.kill().expect("SIGKILL lands"); // SIGKILL, not a drain
        let _ = daemon.child.wait();
    }
    assert_eq!(
        pool_ceiling,
        u64::from(POOL),
        "the global pool saturated while tenants stayed capped"
    );
    assert_eq!(
        quota_ceiling,
        u64::from(TENANT_QUOTA),
        "tenants actually used their full quota"
    );

    // The kill landed mid-campaign: durable progress exists, completion
    // doesn't.
    let survived: Vec<u64> = ids
        .iter()
        .map(|id| surviving_blocks(&state_b, id))
        .collect();
    for (id, &n) in ids.iter().zip(&survived) {
        assert!(
            n >= 1,
            "campaign {id} made durable progress before the kill"
        );
        assert!(
            n < u64::from(TOTAL_BLOCKS),
            "campaign {id} was still mid-flight when killed"
        );
    }

    // Restart on the same state dir: every campaign resumes and finishes
    // with the reference fingerprint; journaled blocks replay instead of
    // re-executing.
    {
        let mut daemon = Daemon::start(&state_b);
        for ((t, id), &prekill) in tenants.iter().zip(&ids).zip(&survived) {
            let snap = wait_terminal(&daemon.client(t), id, Duration::from_secs(120));
            assert_eq!(phase_of(&snap), "completed");
            assert_eq!(
                fingerprint_of(&snap),
                reference[0],
                "campaign {id} diverged from the uninterrupted outcome"
            );
            assert_eq!(
                field_u64(&snap, "blocks_recovered"),
                prekill,
                "campaign {id} replayed exactly the durable prefix"
            );
            assert_eq!(
                field_u64(&snap, "blocks_live"),
                u64::from(TOTAL_BLOCKS) - prekill,
                "campaign {id} executed exactly the missing remainder"
            );
        }
        let resp = daemon
            .client("ops")
            .post("/v1/shutdown", "")
            .expect("shutdown accepted");
        assert_eq!(resp.status, 202);
        let status = daemon.child.wait_with_deadline();
        assert!(status.success());
    }
    let _ = std::fs::remove_dir_all(&state_b);
}

/// `Child::wait` with a 60 s deadline, so a hung daemon fails the test
/// instead of wedging CI.
trait WaitWithDeadline {
    fn wait_with_deadline(&mut self) -> std::process::ExitStatus;
}

impl WaitWithDeadline for Child {
    fn wait_with_deadline(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.try_wait().expect("try_wait") {
                return status;
            }
            if Instant::now() > deadline {
                let _ = self.kill();
                panic!("daemon did not exit before the deadline");
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// A 2 KB bundle whose scheduling window spans centuries of one-minute
/// slots is refused by the check gate with a 422 — it does not take the
/// daemon, and every other tenant with it, down listing the slots — and
/// the next submission is served.
#[test]
fn a_runaway_scheduling_window_gets_422_and_the_daemon_keeps_serving() {
    let dir = state_dir("runaway");
    let daemon = Daemon::start_limited(&dir, 1_500_000);
    let clean = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/check/clean.json"
    ))
    .unwrap();
    let runaway = clean
        .replace("\"2020-07-04 23:59:00\"", "\"3500-07-04 23:59:00\"")
        .replacen("\"metric\": \"day\"", "\"metric\": \"minute\"", 1);
    assert_ne!(runaway, clean);

    let mallory = daemon.client("mallory");
    let resp = mallory
        .post("/v1/campaigns", &runaway)
        .expect("daemon answers a runaway window");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"CN0417\""), "{}", resp.body);
    assert!(resp.body.contains("65536-slot bound"), "{}", resp.body);

    let alice = daemon.client("alice");
    let id = submit(
        &alice,
        "{\"name\":\"after\",\"scenario\":{\"nodes\":4,\"latency_ms\":1,\"fault_rate_milli\":0}}",
    );
    let snap = wait_terminal(&alice, &id, Duration::from_secs(60));
    assert_eq!(phase_of(&snap), "completed");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile bodies are refused with a 400, never a dead process: 300 KB of
/// `[` (one stack frame per bracket in a recursive reader) and a body at
/// the 8 MiB cap (minutes of re-validation in a quadratic one). Another
/// tenant's next submission is served by the same daemon.
#[test]
fn hostile_bodies_get_400_and_the_daemon_keeps_serving() {
    let dir = state_dir("hostile");
    let daemon = Daemon::start(&dir);
    let mallory = daemon.client("mallory");

    let resp = mallory
        .post("/v1/campaigns", &"[".repeat(300_000))
        .expect("daemon answers a deeply nested body");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);

    let filler = "\"enb-0001 – Zürich\",".repeat((8 << 20) / 24 - 8);
    let big = format!("{{\"junk\": [{filler}\"end\"], \"workflows\": [\"no_such_flow\"]}}");
    assert!(big.len() > 8_000_000 && big.len() <= 8 << 20);
    let started = Instant::now();
    let resp = mallory
        .post("/v1/campaigns", &big)
        .expect("daemon answers a body at the size cap");
    assert_eq!(
        resp.status,
        400,
        "{}",
        &resp.body[..resp.body.len().min(200)]
    );
    assert!(resp.body.contains("no_such_flow"), "{}", resp.body);
    assert!(started.elapsed() < Duration::from_secs(60));

    let alice = daemon.client("alice");
    let id = submit(
        &alice,
        "{\"name\":\"after\",\"scenario\":{\"nodes\":4,\"latency_ms\":1,\"fault_rate_milli\":0}}",
    );
    let snap = wait_terminal(&alice, &id, Duration::from_secs(60));
    assert_eq!(phase_of(&snap), "completed");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario sized past its bound is refused with a 400 at submission:
/// 4 097 nodes is one past the bound, and 1e12 once saturated to
/// `u32::MAX` nodes and asked for a 4.3 × 10⁹-entry schedule. The daemon
/// runs under an address-space limit, so that allocation would abort it;
/// another tenant's next submission is served by the same process.
#[test]
fn oversized_scenarios_get_400_and_the_daemon_keeps_serving() {
    let dir = state_dir("oversized");
    let daemon = Daemon::start_limited(&dir, 1_500_000);
    let mallory = daemon.client("mallory");
    for nodes in ["4097", "1e12"] {
        let body = format!("{{\"name\":\"big\",\"scenario\":{{\"nodes\":{nodes}}}}}");
        let resp = mallory
            .post("/v1/campaigns", &body)
            .expect("daemon answers an oversized scenario");
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains("scenario.nodes: want 1..=4096"),
            "{}",
            resp.body
        );
    }

    let alice = daemon.client("alice");
    let id = submit(
        &alice,
        "{\"name\":\"after\",\"scenario\":{\"nodes\":4,\"latency_ms\":1,\"fault_rate_milli\":0}}",
    );
    let snap = wait_terminal(&alice, &id, Duration::from_secs(60));
    assert_eq!(phase_of(&snap), "completed");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A concurrency past `u32` was once accepted, ran, and journaled
/// `"concurrency":0` — a value the dispatcher refuses. It is a 400 now,
/// and the next submission, at the bound, runs.
#[test]
fn a_concurrency_past_its_bound_gets_400_and_the_next_submission_201() {
    let dir = state_dir("wide");
    let daemon = Daemon::start(&dir);
    let alice = daemon.client("alice");
    let resp = alice
        .post(
            "/v1/campaigns",
            "{\"name\":\"wide\",\"scenario\":{\"concurrency\":4294967296}}",
        )
        .expect("daemon answers a too-wide scenario");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("scenario.concurrency: want 1..=4096"),
        "{}",
        resp.body
    );
    let id = submit(
        &alice,
        "{\"name\":\"after\",\"scenario\":{\"nodes\":4,\"latency_ms\":1,\"fault_rate_milli\":0,\"concurrency\":4096}}",
    );
    let snap = wait_terminal(&alice, &id, Duration::from_secs(60));
    assert_eq!(phase_of(&snap), "completed");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `/events` line is the payload the campaign's journal holds
/// for the same record, byte for byte: the daemon's event log keeps what
/// the journal encoded instead of encoding each event a second time. A
/// faulty campaign, so retried blocks are among the records.
#[test]
fn every_event_line_is_the_payload_of_its_journal_record() {
    let dir = state_dir("payloads");
    let daemon = Daemon::start(&dir);
    let alice = daemon.client("alice");
    let id = submit(
        &alice,
        "{\"name\":\"payloads\",\"scenario\":{\"nodes\":16,\"latency_ms\":1,\"fault_rate_milli\":300}}",
    );
    wait_terminal(&alice, &id, Duration::from_secs(60));
    let resp = alice
        .get(&format!("/v1/campaigns/{id}/events"))
        .expect("events listing");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let lines: Vec<&str> = resp.body.lines().collect();

    let wal = std::fs::read(CampaignStore::journal_path(&dir, &id).unwrap()).unwrap();
    let journal = scan(&wal);
    assert!(!journal.torn);
    assert!(
        journal.payloads.len() > 16 * 3,
        "{} records",
        journal.payloads.len()
    );
    assert!(
        journal
            .payloads
            .iter()
            .any(|p| p.contains("\"status\":\"recovered\"")),
        "the faults reached the journal"
    );
    assert_eq!(lines, journal.payloads);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
