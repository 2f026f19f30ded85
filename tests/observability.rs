//! End-to-end observability tests (ISSUE 4 acceptance).
//!
//! * `run_trace_round_trips_through_chrome_format` drives the real
//!   `cornet run` binary (the faulty-rollout demo: transient-fault storm
//!   absorbed by retries, then a permanent fault tripping the breaker
//!   into backout flows) with `--trace`, then parses the emitted
//!   Chrome-trace JSON back and walks the span tree: dispatch → slot →
//!   instance → block nesting, retry attributes, breaker attributes.
//! * `chrome_trace_export_is_byte_stable` pins a small rollout's export
//!   against the checked-in golden file `tests/golden/small_rollout.trace.json`
//!   (regenerate with `UPDATE_GOLDEN=1 cargo test --test observability`).

use cornet::catalog::builtin_catalog;
use cornet::obs::{ChromeTraceSink, ManualClock, TraceSink, Tracer};
use cornet::orchestrator::resilience::RetryPolicy;
use cornet::orchestrator::{Dispatcher, ExecutorRegistry};
use cornet::types::json::{parse, JsonValue};
use cornet::types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet::workflow::builtin::software_upgrade_workflow;
use cornet::workflow::WarArtifact;
use std::collections::BTreeMap;
use std::process::Command;

/// A span attribute from a Chrome-trace event's `args` object.
fn arg<'a>(event: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    event.get("args").and_then(|a| a.get(key))
}

fn arg_id(event: &JsonValue, key: &str) -> Option<i64> {
    arg(event, key).and_then(|v| v.as_f64()).map(|v| v as i64)
}

fn name_of(event: &JsonValue) -> &str {
    event.get("name").and_then(|v| v.as_str()).unwrap_or("")
}

#[test]
fn run_trace_round_trips_through_chrome_format() {
    let trace_path = std::env::temp_dir().join(format!(
        "cornet_obs_roundtrip_{}.trace.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_cornet"))
        .args([
            "run",
            "--nodes",
            "16",
            "--concurrency",
            "4",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("cornet run executes");
    assert!(
        output.status.success(),
        "cornet run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("trace summary"),
        "summary printed: {stdout}"
    );
    assert!(stdout.contains("breaker tripped"), "demo trips the breaker");

    let body = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    let doc = parse(&body).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every event is a complete ("X") event with a span id; index them.
    let mut by_id: BTreeMap<i64, &JsonValue> = BTreeMap::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
        let id = arg_id(ev, "span_id").expect("span_id in args");
        assert!(by_id.insert(id, ev).is_none(), "span ids are unique");
    }
    let named = |n: &str| {
        events
            .iter()
            .filter(|ev| name_of(ev) == n)
            .collect::<Vec<_>>()
    };

    // The demo runs two campaigns: plain dispatch, then breaker-armed.
    let dispatches = named("dispatch");
    assert_eq!(dispatches.len(), 2, "two campaigns in the demo");

    // Nesting: every instance parents a slot, every slot a dispatch, and
    // every block an instance.
    let instances = named("instance");
    assert!(instances.len() >= 16, "first campaign alone has 16 nodes");
    for inst in &instances {
        let slot = by_id[&arg_id(inst, "parent_id").expect("instance has parent")];
        assert_eq!(name_of(slot), "slot");
        let dispatch = by_id[&arg_id(slot, "parent_id").expect("slot has parent")];
        assert_eq!(name_of(dispatch), "dispatch");
    }
    // Blocks nest under their instance — directly on the forward path,
    // via a `backout` span (itself under the instance) on the revert path.
    let blocks = named("block");
    assert!(!blocks.is_empty());
    for block in &blocks {
        let parent = by_id[&arg_id(block, "parent_id").expect("block has parent")];
        match name_of(parent) {
            "instance" => {}
            "backout" => {
                let inst = by_id[&arg_id(parent, "parent_id").expect("backout has parent")];
                assert_eq!(name_of(inst), "instance");
            }
            other => panic!("block parented under unexpected span kind {other:?}"),
        }
    }

    // Retry attributes: the 20% transient-fault storm recovers blocks
    // via retry, which the spans record as status + attempt counts.
    assert!(
        blocks.iter().any(|b| {
            arg(b, "status").and_then(|v| v.as_str()) == Some("recovered")
                && arg(b, "attempts").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 2.0
        }),
        "at least one block recovered after a retry"
    );
    assert!(
        instances
            .iter()
            .any(|i| arg(i, "retries").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0),
        "instance spans aggregate retry counts"
    );

    // Breaker attributes: the second campaign's permanent fault trips the
    // breaker on software_upgrade and rolls instances back through the
    // backout flow.
    let tripped: Vec<_> = dispatches
        .iter()
        .filter(|d| arg(d, "breaker_tripped").map(|v| v == &JsonValue::Bool(true)) == Some(true))
        .collect();
    assert_eq!(tripped.len(), 1, "exactly one campaign trips the breaker");
    assert_eq!(
        arg(tripped[0], "trip_block").and_then(|v| v.as_str()),
        Some("software_upgrade")
    );
    assert!(arg(tripped[0], "trip_failure_rate")
        .and_then(|v| v.as_f64())
        .is_some_and(|r| r >= 0.5));
    assert!(
        instances
            .iter()
            .any(|i| arg(i, "status").and_then(|v| v.as_str()) == Some("rolled_back")),
        "breaker campaign rolls instances back"
    );
    assert!(
        blocks
            .iter()
            .any(|b| arg(b, "backout").map(|v| v == &JsonValue::Bool(true)) == Some(true)),
        "backout-flow blocks are tagged"
    );

    // Counters rode along in otherData.
    let counters = doc
        .get("otherData")
        .and_then(|o| o.get("counters"))
        .expect("counters object");
    assert!(counters
        .get("instances.completed")
        .and_then(|v| v.as_f64())
        .is_some_and(|n| n >= 16.0));
}

/// Observability parity for crash recovery (ISSUE 8 satellite): `cornet
/// resume --trace` must emit the same span families a journaled run
/// does — dispatch/slot/instance/block nesting *plus* the journal's own
/// append/fsync spans and byte counters — and still converge on the
/// uninterrupted campaign's fingerprint.
#[test]
fn resume_trace_has_journal_observability() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("cornet_obs_resume_{}.jsonl", std::process::id()));
    let trace_path = dir.join(format!(
        "cornet_obs_resume_{}.trace.json",
        std::process::id()
    ));
    let cornet = env!("CARGO_BIN_EXE_cornet");

    // Reference: the same campaign run uninterrupted.
    let clean_journal = dir.join(format!(
        "cornet_obs_resume_clean_{}.jsonl",
        std::process::id()
    ));
    let clean = Command::new(cornet)
        .args(["run", "--journal", clean_journal.to_str().unwrap()])
        .output()
        .expect("clean journaled run executes");
    assert!(clean.status.success());
    let clean_stdout = String::from_utf8_lossy(&clean.stdout);
    let fingerprint_of = |s: &str| {
        s.lines()
            .find_map(|l| l.split("fingerprint=").nth(1))
            .map(str::to_string)
            .expect("summary line carries a fingerprint")
    };
    let clean_fingerprint = fingerprint_of(&clean_stdout);
    let _ = std::fs::remove_file(&clean_journal);

    // Crash mid-campaign, then resume with --trace.
    let crashed = Command::new(cornet)
        .args([
            "run",
            "--journal",
            journal.to_str().unwrap(),
            "--crash-at",
            "9",
        ])
        .output()
        .expect("crashing journaled run executes");
    assert!(crashed.status.success());
    assert!(String::from_utf8_lossy(&crashed.stdout).contains("simulated crash"));
    let resumed = Command::new(cornet)
        .args([
            "resume",
            journal.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("cornet resume executes");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("trace summary"),
        "summary printed: {stdout}"
    );
    assert_eq!(
        fingerprint_of(&stdout),
        clean_fingerprint,
        "recovery must converge on the uninterrupted outcome"
    );
    let _ = std::fs::remove_file(&journal);

    let body = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    let doc = parse(&body).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let count = |n: &str| events.iter().filter(|ev| name_of(ev) == n).count();

    // Execution spans: the resumed half of the campaign still traces.
    assert_eq!(count("dispatch"), 1);
    assert!(count("instance") >= 1);
    assert!(count("block") >= 1);
    // Journal spans: every append the resume made is visible, including
    // the campaign_resumed record itself.
    assert!(count("journal.append") >= 1, "journal appends are traced");
    assert!(
        events.iter().any(|ev| name_of(ev) == "journal.append"
            && arg(ev, "event").and_then(|v| v.as_str()) == Some("campaign_resumed")),
        "the resume marker append is traced"
    );
    let counters = doc
        .get("otherData")
        .and_then(|o| o.get("counters"))
        .expect("counters object");
    assert!(counters
        .get("journal.bytes_written")
        .and_then(|v| v.as_f64())
        .is_some_and(|n| n > 0.0));
    assert!(counters
        .get("blocks.recovered")
        .and_then(|v| v.as_f64())
        .is_some_and(|n| n >= 1.0));
}

/// A deterministic three-node rollout: single worker, self-ticking manual
/// clock, one scripted transient failure recovered by retry.
fn small_rollout_trace() -> String {
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    let mut reg = ExecutorRegistry::new();
    reg.register("health_check", |s| {
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    let failed_once = std::sync::atomic::AtomicBool::new(false);
    reg.register("software_upgrade", move |s| {
        let node = s.get("node").and_then(|v| v.as_str()).unwrap_or("");
        if node == "enb-1" && !failed_once.swap(true, std::sync::atomic::Ordering::SeqCst) {
            return Err(cornet::types::CornetError::TransientFailure(
                "scripted blip".into(),
            ));
        }
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    reg.register("pre_post_comparison", |s| {
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg.set_retry_policy("software_upgrade", RetryPolicy::with_attempts(2));

    let mut schedule = Schedule::default();
    schedule.assignments.insert(NodeId(0), Timeslot(1));
    schedule.assignments.insert(NodeId(1), Timeslot(1));
    schedule.assignments.insert(NodeId(2), Timeslot(2));

    let tracer = Tracer::with_clock(ManualClock::ticking(1_000));
    let dispatcher = Dispatcher::new(war, reg, 1)
        .unwrap()
        .with_tracer(tracer.clone());
    let report = dispatcher
        .run(&schedule, |node| {
            let mut g = cornet::orchestrator::GlobalState::new();
            g.insert("node".into(), ParamValue::from(format!("enb-{}", node.0)));
            g.insert("software_version".into(), ParamValue::from("20.1"));
            g
        })
        .unwrap();
    assert_eq!(report.completed(), 3);
    ChromeTraceSink.render(&tracer.snapshot())
}

#[test]
fn chrome_trace_export_is_byte_stable() {
    let golden_path = format!(
        "{}/tests/golden/small_rollout.trace.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let rendered = small_rollout_trace();

    // The export is deterministic run-to-run (single worker + manual
    // clock), so the golden comparison pins bytes, not just structure.
    let second = small_rollout_trace();
    if rendered != second {
        for (a, b) in rendered.lines().zip(second.lines()) {
            if a != b {
                eprintln!("-{a}\n+{b}");
            }
        }
    }
    assert_eq!(rendered, second);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file present (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rendered, golden,
        "Chrome-trace export changed; regenerate the golden file with \
         UPDATE_GOLDEN=1 cargo test --test observability if intentional"
    );

    // The golden trace itself carries the retry the registry scripted.
    let doc = parse(&golden).expect("golden parses");
    let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(events.iter().any(|ev| {
        ev.get("name").and_then(|v| v.as_str()) == Some("block")
            && arg(ev, "status").and_then(|v| v.as_str()) == Some("recovered")
    }));
}
