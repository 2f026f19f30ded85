//! End-to-end tests of the `cornet check` gate: exit codes, output
//! formats, baseline suppression, and warning denial, driven through the
//! real binary against the shipped example bundles.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cornet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cornet"))
}

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/check")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    let mut cmd = cornet();
    cmd.arg("check").args(args);
    cmd.output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_bundle_exits_zero() {
    let out = run(&[example("clean.json").to_str().unwrap()]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("bundle is clean"));
}

#[test]
fn defective_bundle_exits_one_with_findings_from_every_pass() {
    let out = run(&[example("defective.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    // One finding per analysis family: dataflow, resilience, planning,
    // verification — the whole pipeline ran.
    for code in ["CN0201", "CN0301", "CN0416", "CN0502"] {
        assert!(text.contains(code), "missing {code} in:\n{text}");
    }
    assert!(text.contains("error("), "totals line present:\n{text}");
}

#[test]
fn json_format_emits_parseable_jsonl() {
    let out = run(&[
        example("defective.json").to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "format does not change the gate"
    );
    let text = stdout(&out);
    let mut lines = 0;
    for line in text.lines() {
        let v = cornet::types::json::parse(line).expect("each line is a JSON object");
        for field in ["code", "severity", "where", "message", "pass"] {
            assert!(v.get(field).is_some(), "missing '{field}' in {line}");
        }
        lines += 1;
    }
    assert!(lines >= 8, "expected the full report, got {lines} lines");
}

#[test]
fn baseline_suppresses_accepted_findings() {
    let json = run(&[
        example("defective.json").to_str().unwrap(),
        "--format",
        "json",
    ]);
    let baseline_path = std::env::temp_dir().join("cornet-check-gate-baseline.jsonl");
    std::fs::write(&baseline_path, &json.stdout).unwrap();
    let out = run(&[
        example("defective.json").to_str().unwrap(),
        "--baseline",
        baseline_path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&baseline_path).ok();
    assert!(
        out.status.success(),
        "fully baselined bundle passes: {}",
        stdout(&out)
    );
}

/// `examples/check/clean.json` with its scheduling window stretched to
/// one-minute slots until the year 3500: a 2 KB bundle asking for
/// ≈ 7.8 × 10⁸ slots.
fn runaway_window_bundle() -> String {
    let clean = std::fs::read_to_string(example("clean.json")).unwrap();
    let stretched = clean.replace("\"2020-07-04 23:59:00\"", "\"3500-07-04 23:59:00\"");
    let day = r#""granularity": {"metric": "day", "value": 1}"#;
    let minute = r#""granularity": {"metric": "minute", "value": 1}"#;
    // The window's granularity comes first; the concurrency rule keeps its own.
    let stretched = stretched.replacen(day, minute, 1);
    assert_ne!(stretched, clean);
    stretched
}

/// `cornet check` under a 1.5 GB address-space limit, so a pass that
/// tries to list the window's slots aborts instead of paging.
fn run_limited(args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 1500000 && exec \"$0\" check \"$@\"")
        .arg(env!("CARGO_BIN_EXE_cornet"))
        .args(args)
        .output()
        .expect("shell runs")
}

#[test]
fn runaway_scheduling_window_is_a_gate_error_not_an_abort() {
    let path = std::env::temp_dir().join(format!(
        "cornet-check-gate-runaway-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, runaway_window_bundle()).unwrap();
    let out = run_limited(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("error[CN0417]"), "{text}");
    assert!(text.contains("65536-slot bound"), "{text}");
}

/// A scope of `n` nodes in one market and timezone, under a daily
/// concurrency cap with room for all of them.
fn mono_market_bundle(n: usize, intent_end: &str, granularity: &str) -> String {
    let records: Vec<String> = (0..n)
        .map(|i| {
            format!(r#"{{"name": "enb-{i}", "attrs": {{"market": "NYC", "utc_offset": -5}}}}"#)
        })
        .collect();
    format!(
        r#"{{"inventory": [{}],
            "intent": {{
              "scheduling_window": {{"start": "2020-07-01 00:00:00", "end": "{intent_end}",
                                     "granularity": {{"metric": "{granularity}", "value": 1}}}},
              "maintenance_window": {{"start": "0:00", "end": "6:00"}},
              "schedulable_attribute": "common_id", "conflict_attribute": "common_id",
              "constraints": [{{"name": "concurrency", "base_attribute": "common_id",
                                "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
                                "default_capacity": {n}}}]}}}}"#,
        records.join(", ")
    )
}

#[test]
fn a_baselined_shard_warning_does_not_hide_an_unanalyzable_intent() {
    let dir = std::env::temp_dir().join(format!("cornet-check-gate-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let accepted = dir.join("accepted.json");
    std::fs::write(
        &accepted,
        mono_market_bundle(300, "2020-07-04 23:59:00", "day"),
    )
    .unwrap();
    let json = run(&[accepted.to_str().unwrap(), "--format", "json"]);
    assert!(json.status.success(), "warnings only: {}", stdout(&json));
    assert!(stdout(&json).contains("\"CN0419\""), "{}", stdout(&json));
    let baseline = dir.join("baseline.jsonl");
    std::fs::write(&baseline, &json.stdout).unwrap();

    // The same scope under a window no pass can list: the intent cannot
    // be analyzed, and the accepted warning must not suppress that.
    let runaway = dir.join("runaway.json");
    std::fs::write(
        &runaway,
        mono_market_bundle(300, "3500-07-04 23:59:00", "minute"),
    )
    .unwrap();
    let out = run_limited(&[
        runaway.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("error[CN0417]"), "{}", stdout(&out));
}

#[test]
fn deny_warnings_tightens_the_gate() {
    // The builtin fig4 workflow carries mutating blocks with no backout:
    // warnings only, so it passes by default but fails under --deny.
    let bundle_path = std::env::temp_dir().join("cornet-check-gate-warned.json");
    std::fs::write(&bundle_path, r#"{"workflows": ["fig4"]}"#).unwrap();
    let relaxed = run(&[bundle_path.to_str().unwrap()]);
    let strict = run(&[bundle_path.to_str().unwrap(), "--deny", "warnings"]);
    std::fs::remove_file(&bundle_path).ok();
    assert!(relaxed.status.success(), "{}", stdout(&relaxed));
    assert!(stdout(&relaxed).contains("CN0209"), "{}", stdout(&relaxed));
    assert_eq!(strict.status.code(), Some(1));
}

#[test]
fn load_errors_exit_two() {
    let out = run(&["/no/such/bundle.json"]);
    assert_eq!(out.status.code(), Some(2));
    let bad_path = std::env::temp_dir().join("cornet-check-gate-bad.json");
    std::fs::write(&bad_path, r#"{"workflows": ["no_such_flow"]}"#).unwrap();
    let out = run(&[bad_path.to_str().unwrap()]);
    std::fs::remove_file(&bad_path).ok();
    assert_eq!(
        out.status.code(),
        Some(2),
        "load errors are not diagnostics"
    );
    // 300 KB of '[' is a load error too, not a stack overflow.
    let deep_path = std::env::temp_dir().join("cornet-check-gate-deep.json");
    std::fs::write(&deep_path, "[".repeat(300_000)).unwrap();
    let out = run(&[deep_path.to_str().unwrap()]);
    std::fs::remove_file(&deep_path).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("nesting deeper than"),
        "{out:?}"
    );
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_rejected_before_anything_runs() {
    // A typo must not silently plan with the default backend, and a flag
    // the CLI no longer has must not be silently ignored. The rejection
    // comes before `--intent` is asked for.
    for flag in ["--bakend", "--warm-from"] {
        let out = cornet().args(["plan", flag, "sharded"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let text = stderr(&out);
        assert!(text.contains(&format!("unknown option {flag}")), "{text}");
        assert!(!text.contains("--intent <file> is required"), "{text}");
    }
}

#[test]
fn plan_refuses_bad_values_and_races_two_members() {
    let dir = std::env::temp_dir().join(format!("cornet-check-gate-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let intent = dir.join("intent.json");
    std::fs::write(
        &intent,
        r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-07-10 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": [
            {"name": "concurrency", "base_attribute": "common_id",
             "operator": "<=", "granularity": {"metric": "day", "value": 1},
             "default_capacity": 10}
        ]
    }"#,
    )
    .unwrap();
    let plan = |extra: &[&str]| {
        let mut cmd = cornet();
        cmd.args(["plan", "--network", "ran:60", "--intent"]);
        cmd.arg(&intent).args(extra).output().expect("binary runs")
    };

    let out = plan(&["--time-limit", "abc"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr(&out).contains("--time-limit"), "{out:?}");
    assert!(!stdout(&out).contains("schedule["), "nothing was planned");

    // A model that cannot be emitted fails the command, plan or no plan.
    let out = plan(&[
        "--emit-mzn",
        dir.join("no/such/dir/m.mzn").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = plan(&["--backend", "portfolio"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let members: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  backend "))
        .map(|l| l.split([' ', ':']).next().unwrap())
        .collect();
    assert_eq!(members, ["exact", "heuristic"], "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
