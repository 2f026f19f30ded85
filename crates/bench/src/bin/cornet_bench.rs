//! `cornet_bench` — wall-clock evidence for the perf PR, as JSON.
//!
//! Three scenario groups, each pitting the optimized path against a
//! faithful reimplementation of the code it replaced:
//!
//! * **orchestrator** — a 200-instance, straggler-heavy, single-slot
//!   dispatch through the continuous-admission pool vs the old
//!   wave/barrier loop (reconstructed locally);
//! * **verifier** — a 50-market × 8-KPI verification sweep through the
//!   thread-fanned (`par::map_ordered`), series-cached `verify_rule` vs the sequential,
//!   uncached reference;
//! * **stats** — the O((n+m) log(n+m)) rank test, selection median, and
//!   capped Theil–Sen vs their naive counterparts on 10k-point series;
//! * **planner** — schedule discovery through the pluggable backends at
//!   200/1000/10k RAN nodes (exact, the Appendix C heuristic, the racing
//!   portfolio), sharded discovery at 100k/1M and the warm re-solve. Each
//!   row's ratio is the solver budget over the discovery time of the
//!   backend the row is about, so a faster solver raises it; the hard
//!   bars are asserted in the binary (exact proves `Optimal` in < 100 ms
//!   at all three sizes; deterministic portfolio winner with makespan ≤
//!   min of the members; the warm re-solve replays in one node);
//! * **streaming** — 100k samples through the online verification
//!   engine vs chunked batch re-verification, reporting sustained
//!   samples/sec and per-sample detection-latency p99 (hard bars: ≥ 50k
//!   samples/sec, p99 < 10 ms, verdicts bit-identical to batch).
//!
//! Results land in `BENCH_orchestrator.json`, `BENCH_verifier.json`
//! (stats ride in the verifier file — they are its substrate),
//! `BENCH_planner.json`, `BENCH_daemon.json` and `BENCH_streaming.json`.
//! Usage:
//!
//! ```text
//! cargo run --release -p cornet-bench --bin cornet_bench \
//!     [-- --smoke] [--only GROUP] [--out-dir DIR] \
//!     [--gate BASELINE_DIR] [--gate-tolerance FRAC]
//! ```
//!
//! `--smoke` shrinks every scenario to CI size (seconds, not minutes)
//! while exercising the identical code paths (the streaming scenario
//! keeps its full sample count — its metrics are rates, not wall-time).
//! `--only <group>` runs a single scenario group. `--gate <dir>` is the
//! CI bench-regression gate: after measuring, each scenario's fresh
//! speedup is compared against the checked-in `BENCH_*.json` baselines
//! in `dir` — which groups and which scenarios are mandatory comes from
//! `dir/MANIFEST.json` — and the process exits non-zero when any speedup
//! regressed by more than the tolerance (default 30%) or a required
//! scenario is missing.

use cornet_catalog::builtin_catalog;
use cornet_daemon::{CampaignManager, ManagerConfig, SubmitOutcome};
use cornet_journal::FsyncPolicy;
use cornet_netsim::{KpiGenerator, Network, NetworkConfig};
use cornet_obs::{TraceSummary, Tracer};
use cornet_orchestrator::{Dispatcher, Engine, ExecutorRegistry, GlobalState, InstanceStatus};
use cornet_planner::{
    plan, BackendChoice, ConstraintRule, HeuristicConfig, PlanIntent, PlanOptions, PlanResult,
    PlanSnapshot,
};
use cornet_stats::{
    median, quantile, robust_rank_order, robust_rank_order_naive, theil_sen, theil_sen_exact,
};
use cornet_types::json::{parse, FloatFmt, JsonWriter};
use cornet_types::{
    Attributes, Granularity, Inventory, NfType, NodeId, ParamValue, Schedule, Timeslot, Topology,
};
use cornet_verifier::{
    verify_rule, verify_rule_sequential, verify_rules, ChangeScope, ClosureAdapter,
    ControlSelection, KpiQuery, StreamConfig, StreamSample, StreamingVerifier, VerificationRule,
};
use cornet_workflow::builtin::software_upgrade_workflow;
use cornet_workflow::WarArtifact;
use std::time::{Duration, Instant};

/// One measured comparison.
struct Scenario {
    name: &'static str,
    params: Vec<(&'static str, String)>,
    baseline_ms: f64,
    optimized_ms: f64,
    /// Span-level breakdown of the optimized run (pre-rendered JSON from
    /// [`TraceSummary::render_json`]), when the scenario was traced.
    trace_summary: Option<String>,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        if self.optimized_ms > 0.0 {
            self.baseline_ms / self.optimized_ms
        } else {
            f64::INFINITY
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ".".into());
    let gate_dir = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let gate_tolerance: f64 = args
        .iter()
        .position(|a| a == "--gate-tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.30);
    // Floor on best-of-N repetitions. Smoke mode defaults to best-of-1
    // for speed; gated runs pass --min-reps 5 so one scheduler hiccup
    // cannot fake a regression.
    let min_reps: usize = args
        .iter()
        .position(|a| a == "--min-reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // `--only <group>` runs a single scenario group (the streaming-soak
    // CI job drives just the streaming group); the gate then checks only
    // the reports this invocation produced.
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mode = if smoke { "smoke" } else { "full" };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("cornet_bench: mode={mode} cpus={cpus} out_dir={out_dir}");
    if let Some(group) = &only {
        let known = ["orchestrator", "verifier", "planner", "daemon", "streaming"];
        if !known.contains(&group.as_str()) {
            eprintln!("cornet_bench: unknown --only group {group:?} (want one of {known:?})");
            std::process::exit(2);
        }
    }
    let wants = |group: &str| only.as_deref().is_none_or(|o| o == group);

    let mut all: Vec<Scenario> = Vec::new();
    if wants("orchestrator") {
        let orchestrator = vec![
            bench_dispatch(smoke, min_reps),
            bench_journaled_dispatch(smoke, min_reps),
        ];
        write_report(&out_dir, "orchestrator", mode, cpus, &orchestrator);
        all.extend(orchestrator);
    }
    if wants("verifier") {
        let mut verifier = vec![bench_verification_sweep(smoke, min_reps)];
        verifier.extend(bench_stats_kernels(smoke, min_reps));
        write_report(&out_dir, "verifier", mode, cpus, &verifier);
        all.extend(verifier);
    }
    if wants("planner") {
        let mut planner = bench_planner_backends(smoke, min_reps);
        planner.extend(bench_sharded_discovery(smoke, min_reps));
        planner.push(bench_incremental_resolve(smoke, min_reps));
        write_report(&out_dir, "planner", mode, cpus, &planner);
        all.extend(planner);
    }
    if wants("daemon") {
        let daemon = vec![bench_daemon_submit_latency(smoke, min_reps)];
        write_report(&out_dir, "daemon", mode, cpus, &daemon);
        all.extend(daemon);
    }
    if wants("streaming") {
        let streaming = vec![bench_streaming_verify(min_reps)];
        write_report(&out_dir, "streaming", mode, cpus, &streaming);
        all.extend(streaming);
    }

    for s in &all {
        eprintln!(
            "  {:<32} baseline {:>9.2} ms  optimized {:>9.2} ms  speedup {:.2}x",
            s.name,
            s.baseline_ms,
            s.optimized_ms,
            s.speedup()
        );
    }

    if let Some(baseline_dir) = gate_dir {
        if !run_gate(&baseline_dir, &out_dir, gate_tolerance, only.as_deref()) {
            std::process::exit(1);
        }
    }
}

/// The planner rows' gated denominator: a discovery of a few
/// milliseconds swings by integer factors on one scheduler hiccup, which
/// would trip the 30 % ratio tolerance on pure noise, so the gated figure
/// is floored at 10 ms. The raw measurement rides in `params` and the hard
/// bars are asserted on it.
fn gated_ms(raw_ms: f64) -> f64 {
    raw_ms.max(10.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-`reps` for a deterministic planner run: the first result with
/// the fastest discovery and solver times of `reps` runs. One scheduler
/// hiccup can double a millisecond-scale discovery; the gate and the hard
/// bars read these times. Panics if a re-run schedules differently.
fn best_of(what: &str, reps: usize, run: impl Fn() -> PlanResult) -> PlanResult {
    let mut best = run();
    for _ in 1..reps {
        let again = run();
        assert_eq!(
            again.schedule.assignments, best.schedule.assignments,
            "{what} re-run must be deterministic"
        );
        best.discovery_time = best.discovery_time.min(again.discovery_time);
        best.search_stats.elapsed = best.search_stats.elapsed.min(again.search_stats.elapsed);
    }
    best
}

/// Best-of-`reps` wall-clock time of `f` in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

// --- orchestrator -------------------------------------------------------

/// Registry whose `software_upgrade` sleeps: every `straggler_every`-th
/// node is a straggler. Sleeping (not spinning) keeps the comparison
/// honest on any core count — overlap is what the pool buys.
fn sleeping_registry(
    base: Duration,
    straggler: Duration,
    straggler_every: u32,
) -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    reg.register("health_check", |s| {
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("software_upgrade", move |s| {
        // Node names look like "enb-id000012" (NodeId renders as
        // `id000012`); recover the numeric id from the digit suffix.
        let node = s.get("node").and_then(|v| v.as_str()).unwrap_or("");
        let digits: String = node.chars().filter(|c| c.is_ascii_digit()).collect();
        let id: u32 = digits.parse().unwrap_or(0);
        std::thread::sleep(if id.is_multiple_of(straggler_every) {
            straggler
        } else {
            base
        });
        s.insert("previous_version".into(), ParamValue::from("old"));
        Ok(())
    });
    reg.register("pre_post_comparison", |s| {
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("roll_back", |_| Ok(()));
    reg
}

fn dispatch_inputs(node: NodeId) -> GlobalState {
    let mut g = GlobalState::new();
    g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
    g.insert("software_version".into(), ParamValue::from("20.1"));
    g
}

/// The pre-PR dispatcher loop, verbatim in shape: waves of `concurrency`
/// instances with a join barrier after each wave. This is the baseline
/// the continuous-admission pool replaced.
fn wave_dispatch(
    war: &WarArtifact,
    registry: &ExecutorRegistry,
    nodes: &[NodeId],
    concurrency: usize,
) -> usize {
    let workflow = war.unpack().expect("war unpacks");
    let mut completed = 0;
    for wave in nodes.chunks(concurrency) {
        let statuses: Vec<InstanceStatus> = std::thread::scope(|scope| {
            let handles: Vec<_> = wave
                .iter()
                .map(|&node| {
                    let workflow = &workflow;
                    let registry = registry.clone();
                    scope.spawn(move || {
                        let mut engine =
                            Engine::new(workflow.clone(), registry, dispatch_inputs(node));
                        engine.run().expect("instance runs").clone()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("instance thread"))
                .collect()
        });
        completed += statuses
            .iter()
            .filter(|s| **s == InstanceStatus::Completed)
            .count();
    }
    completed
}

fn bench_dispatch(smoke: bool, min_reps: usize) -> Scenario {
    let (instances, base_ms, straggler_ms, reps) = if smoke {
        (40u32, 1u64, 8u64, 1)
    } else {
        (200u32, 2u64, 20u64, 3)
    };
    let reps = reps.max(min_reps);
    let concurrency = 8usize;
    let straggler_every = 8u32;
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    let reg = sleeping_registry(
        Duration::from_millis(base_ms),
        Duration::from_millis(straggler_ms),
        straggler_every,
    );
    let nodes: Vec<NodeId> = (0..instances).map(NodeId).collect();
    let mut schedule = Schedule::default();
    for &n in &nodes {
        schedule.assignments.insert(n, Timeslot(1));
    }

    let baseline_ms = time_ms(reps, || {
        let done = wave_dispatch(&war, &reg, &nodes, concurrency);
        assert_eq!(done, instances as usize, "wave baseline completes all");
    });
    let dispatcher = Dispatcher::new(war.clone(), reg.clone(), concurrency).unwrap();
    let optimized_ms = time_ms(reps, || {
        let report = dispatcher.run(&schedule, dispatch_inputs).unwrap();
        assert_eq!(report.completed(), instances as usize);
        assert!(report.drained.is_empty());
    });

    // Tracing-overhead bar: the same dispatch with a collecting tracer
    // attached must stay within 5% of the noop run (plus a small absolute
    // epsilon for scheduler jitter on short smoke runs).
    let tracer = Tracer::wall();
    let traced_dispatcher = Dispatcher::new(war, reg, concurrency)
        .unwrap()
        .with_tracer(tracer.clone());
    let traced_ms = time_ms(reps, || {
        let report = traced_dispatcher.run(&schedule, dispatch_inputs).unwrap();
        assert_eq!(report.completed(), instances as usize);
    });
    assert!(
        traced_ms <= optimized_ms * 1.05 + 3.0,
        "tracing overhead bar: traced {traced_ms:.2} ms vs noop {optimized_ms:.2} ms (>5%)"
    );
    let trace = tracer.take();
    assert_eq!(
        trace.spans_named("instance").count(),
        instances as usize * reps,
        "collector saw every instance"
    );

    Scenario {
        name: "straggler_heavy_dispatch",
        params: vec![
            ("instances", instances.to_string()),
            ("concurrency", concurrency.to_string()),
            ("straggler_every", straggler_every.to_string()),
            ("straggler_ms", straggler_ms.to_string()),
            ("base_ms", base_ms.to_string()),
            ("traced_ms", format!("{traced_ms:.3}")),
        ],
        baseline_ms,
        optimized_ms,
        trace_summary: Some(TraceSummary::from_trace(&trace).render_json()),
    }
}

/// Journal-overhead bar: the same dispatch with a durable write-ahead
/// journal attached (length-prefixed checksummed records, fsync every 32
/// appends) must stay within 10% of the unjournaled run — durability is
/// not allowed to tax the roll-out.
fn bench_journaled_dispatch(smoke: bool, min_reps: usize) -> Scenario {
    use cornet_journal::{FsyncPolicy, Journal};
    use std::collections::BTreeMap;

    let (instances, block_ms) = if smoke { (40u32, 2u64) } else { (200u32, 2u64) };
    // Best-of-3 even in smoke mode: the journal's fsync batches are a
    // fixed cost whose latency jitters on overlay filesystems, and one
    // slow batch must not fake an overhead regression.
    let reps = 3.max(min_reps);
    let concurrency = 8usize;
    let fsync_every = 64u32;
    let cat = builtin_catalog();
    let war = WarArtifact::package(&software_upgrade_workflow(&cat), &cat).unwrap();
    // Uniform block latency: journaling overhead, not straggler overlap,
    // is what this scenario measures.
    let reg = sleeping_registry(
        Duration::from_millis(block_ms),
        Duration::from_millis(block_ms),
        u32::MAX,
    );
    let mut schedule = Schedule::default();
    for i in 0..instances {
        schedule.assignments.insert(NodeId(i), Timeslot(1));
    }

    let plain = Dispatcher::new(war.clone(), reg.clone(), concurrency).unwrap();
    let unjournaled_ms = time_ms(reps, || {
        let report = plain.run(&schedule, dispatch_inputs).unwrap();
        assert_eq!(report.completed(), instances as usize);
    });
    let path =
        std::env::temp_dir().join(format!("cornet-bench-journal-{}.jsonl", std::process::id()));
    let journaled_ms = time_ms(reps, || {
        let journal = Journal::create(&path, FsyncPolicy::EveryN(fsync_every)).unwrap();
        let report = Dispatcher::new(war.clone(), reg.clone(), concurrency)
            .unwrap()
            .with_journal(journal, BTreeMap::new())
            .run(&schedule, dispatch_inputs)
            .unwrap();
        assert_eq!(report.completed(), instances as usize);
    });
    std::fs::remove_file(&path).ok();
    assert!(
        journaled_ms <= unjournaled_ms * 1.10 + 4.0,
        "journal overhead bar: journaled {journaled_ms:.2} ms vs plain {unjournaled_ms:.2} ms (>10%)"
    );

    Scenario {
        name: "journaled_dispatch",
        params: vec![
            ("instances", instances.to_string()),
            ("concurrency", concurrency.to_string()),
            ("block_ms", block_ms.to_string()),
            ("fsync_every", fsync_every.to_string()),
        ],
        baseline_ms: unjournaled_ms,
        optimized_ms: journaled_ms,
        trace_summary: None,
    }
}

// --- verifier -----------------------------------------------------------

fn bench_verification_sweep(smoke: bool, min_reps: usize) -> Scenario {
    let (markets, per_market, kpis, controls, len, reps) = if smoke {
        (10usize, 2usize, 2usize, 16usize, 150usize, 1)
    } else {
        (50usize, 4usize, 8usize, 64usize, 300usize, 3)
    };
    let reps = reps.max(min_reps);
    let mut inv = Inventory::new();
    let mut study = Vec::new();
    for m in 0..markets {
        for j in 0..per_market {
            study.push(inv.push(
                format!("enb-{m}-{j}"),
                NfType::ENodeB,
                Attributes::new().with("market", format!("m{m:03}")),
            ));
        }
    }
    let control: Vec<NodeId> = (0..controls)
        .map(|c| {
            inv.push(
                format!("ctl-{c}"),
                NfType::ENodeB,
                Attributes::new().with("market", "control"),
            )
        })
        .collect();
    let topo = Topology::with_capacity(inv.len());
    let scope = ChangeScope::simultaneous(&study, (len as u64 / 2) * 60);
    let rule = VerificationRule {
        name: "sweep".into(),
        kpis: (0..kpis)
            .map(|i| KpiQuery::monitor(format!("kpi{i}"), true))
            .collect(),
        location_attributes: vec!["market".into()],
        control: ControlSelection::Explicit(control),
        control_attr_filter: None,
        timescales: vec![1, 24],
        alpha: 0.01,
        min_relative_shift: 0.01,
    };
    let gen = KpiGenerator {
        seed: 17,
        noise: 0.02,
        ..Default::default()
    };
    let adapter = ClosureAdapter(move |node: NodeId, kpi: &str, carrier: Option<usize>| {
        Some(gen.series(node, kpi, carrier, len, &[]))
    });

    let baseline_ms = time_ms(reps, || {
        let r = verify_rule_sequential(&adapter, &rule, &scope, &inv, &topo).unwrap();
        assert_eq!(r.kpis.len(), kpis);
    });
    let optimized_ms = time_ms(reps, || {
        let r = verify_rule(&adapter, &rule, &scope, &inv, &topo).unwrap();
        assert_eq!(r.kpis.len(), kpis);
    });
    Scenario {
        name: "market_sweep_verification",
        params: vec![
            ("markets", markets.to_string()),
            ("study_nodes", (markets * per_market).to_string()),
            ("kpis", kpis.to_string()),
            ("controls", controls.to_string()),
            ("series_len", len.to_string()),
        ],
        baseline_ms,
        optimized_ms,
        trace_summary: None,
    }
}

// --- stats kernels ------------------------------------------------------

/// Deterministic pseudo-random series without touching `rand`.
fn synth(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2_000_001) as f64 - 1_000_000.0) / 1000.0
        })
        .collect()
}

fn bench_stats_kernels(smoke: bool, min_reps: usize) -> Vec<Scenario> {
    let (n_rank, n_median, n_ts, reps) = if smoke {
        (2_000usize, 10_000usize, 600usize, 3)
    } else {
        (10_000usize, 10_000usize, 2_000usize, 5)
    };
    let reps = reps.max(min_reps);
    let xs = synth(0xA5A5, n_rank);
    let ys = synth(0x5A5A, n_rank);
    let rank = Scenario {
        name: "robust_rank_order_10k",
        params: vec![("n", n_rank.to_string()), ("m", n_rank.to_string())],
        baseline_ms: time_ms(reps, || {
            std::hint::black_box(robust_rank_order_naive(&xs, &ys));
        }),
        optimized_ms: time_ms(reps, || {
            std::hint::black_box(robust_rank_order(&xs, &ys));
        }),
        trace_summary: None,
    };

    let ms = synth(0xBEEF, n_median);
    let med = Scenario {
        name: "median_10k",
        params: vec![("n", n_median.to_string())],
        baseline_ms: time_ms(reps, || {
            std::hint::black_box(quantile(&ms, 0.5));
        }),
        optimized_ms: time_ms(reps, || {
            std::hint::black_box(median(&ms));
        }),
        trace_summary: None,
    };

    let tx: Vec<f64> = (0..n_ts).map(|i| i as f64).collect();
    let ty: Vec<f64> = synth(0xF00D, n_ts)
        .iter()
        .enumerate()
        .map(|(i, w)| 3.0 * i as f64 + w * 0.01)
        .collect();
    let ts = Scenario {
        name: "theil_sen_capped",
        params: vec![
            ("n", n_ts.to_string()),
            ("exact_pairs", ((n_ts * (n_ts - 1)) / 2).to_string()),
            ("pair_cap", cornet_stats::THEIL_SEN_PAIR_CAP.to_string()),
        ],
        baseline_ms: time_ms(reps, || {
            std::hint::black_box(theil_sen_exact(&tx, &ty));
        }),
        optimized_ms: time_ms(reps, || {
            std::hint::black_box(theil_sen(&tx, &ty));
        }),
        trace_summary: None,
    };
    vec![rank, med, ts]
}

// --- planner ------------------------------------------------------------

/// The §4.2 comparison workload: a 40-day window, global concurrency
/// capacity, and USID consistency (co-sited 4G/5G move together).
fn planner_intent(capacity: i64) -> PlanIntent {
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
    .expect("bench intent parses");
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

fn ran_scope(net: &Network) -> Vec<NodeId> {
    let mut nodes = net.nodes_of_type(NfType::ENodeB);
    nodes.extend(net.nodes_of_type(NfType::GNodeB));
    nodes.sort();
    nodes
}

/// Exact vs heuristic vs portfolio through the one `plan()` pipeline at
/// three network sizes. The row is about the exact backend: `baseline_ms`
/// is its budget, `optimized_ms` its discovery time ([`gated_ms`]); the
/// heuristic's and the portfolio's times, every makespan, the exact
/// outcome and node count, and the deterministic winner ride in `params`.
/// Panics unless exact proves `Optimal` in < 100 ms (ROADMAP item 2) and
/// the portfolio meets the §4.2 acceptance bar.
fn bench_planner_backends(smoke: bool, min_reps: usize) -> Vec<Scenario> {
    let cases: [(&'static str, usize); 3] = if smoke {
        [
            ("schedule_discovery_200", 120),
            ("schedule_discovery_1k", 400),
            ("schedule_discovery_10k", 1_200),
        ]
    } else {
        [
            ("schedule_discovery_200", 200),
            ("schedule_discovery_1k", 1_000),
            ("schedule_discovery_10k", 10_000),
        ]
    };
    let budget = Duration::from_secs(if smoke { 2 } else { 10 });

    cases
        .iter()
        .map(|&(name, target)| {
            let net = Network::generate_ran(&NetworkConfig::default().with_target_nodes(target));
            let nodes = ran_scope(&net);
            // Capacity sized so 40 slots hold the fleet with ~60% slack.
            let capacity = ((nodes.len() as i64) / 25).max(4);
            let intent = planner_intent(capacity);
            let options = |backend| PlanOptions {
                solver: cornet_solver::SolverConfig {
                    time_limit: budget,
                    ..Default::default()
                },
                backend,
                heuristic: HeuristicConfig {
                    iterations: 4,
                    seed: 7,
                    ..Default::default()
                },
                ..Default::default()
            };
            let run = |backend| {
                plan(
                    &intent,
                    &net.inventory,
                    &net.topology,
                    &nodes,
                    &options(backend),
                )
                .unwrap_or_else(|e| panic!("{name}: {backend:?} backend failed: {e}"))
            };

            let exact = best_of(&format!("{name}: exact"), min_reps, || {
                run(BackendChoice::Exact)
            });
            assert_eq!(
                exact.outcome,
                cornet_solver::Outcome::Optimal,
                "{name}: exact must prove its plan optimal"
            );
            assert!(
                exact.discovery_time < Duration::from_millis(100),
                "{name}: exact took {:?}, bar is 100 ms",
                exact.discovery_time
            );
            let heuristic = best_of(&format!("{name}: heuristic"), min_reps, || {
                run(BackendChoice::Heuristic)
            });
            let portfolio = run(BackendChoice::Portfolio);
            let rerace = run(BackendChoice::Portfolio);

            // §4.2 acceptance bar, part 1: re-racing is bit-identical —
            // the winner is decided by cost and member order, not timing.
            let winner = |r: &PlanResult| {
                r.backend_runs
                    .iter()
                    .find(|run| run.winner)
                    .map(|run| run.backend)
                    .expect("portfolio names a winner")
            };
            assert_eq!(
                portfolio.schedule.assignments, rerace.schedule.assignments,
                "{name}: portfolio race must be deterministic"
            );
            assert_eq!(
                winner(&portfolio),
                winner(&rerace),
                "{name}: winner flapped"
            );
            // Part 2: the race never does worse than its best member.
            let best = exact.makespan().min(heuristic.makespan());
            assert!(
                portfolio.makespan() <= best,
                "{name}: portfolio makespan {} > best member {best}",
                portfolio.makespan()
            );

            Scenario {
                name,
                params: vec![
                    ("nodes", nodes.len().to_string()),
                    ("capacity_per_day", capacity.to_string()),
                    ("exact_budget_s", budget.as_secs().to_string()),
                    ("exact_ms_raw", format!("{:.3}", ms(exact.discovery_time))),
                    ("exact_outcome", format!("{:?}", exact.outcome)),
                    ("exact_nodes", exact.search_stats.nodes.to_string()),
                    ("exact_makespan", exact.makespan().to_string()),
                    ("heuristic_makespan", heuristic.makespan().to_string()),
                    ("portfolio_makespan", portfolio.makespan().to_string()),
                    (
                        "heuristic_ms",
                        format!("{:.3}", ms(heuristic.discovery_time)),
                    ),
                    (
                        "portfolio_ms",
                        format!("{:.3}", ms(portfolio.discovery_time)),
                    ),
                    ("portfolio_winner", winner(&portfolio).to_string()),
                ],
                baseline_ms: ms(budget),
                optimized_ms: gated_ms(ms(exact.discovery_time)),
                trace_summary: None,
            }
        })
        .collect()
}

/// Sharded portfolio solving at the §3.3.3 scales (100k and 1M RAN
/// nodes). The row is about the sharded backend — timezone/market shards
/// raced concurrently under sliced budgets, merged, then capacity-
/// reconciled: `baseline_ms` is the solver budget, `optimized_ms` the
/// sharded discovery time; the plain whole-problem portfolio race and the
/// heuristic ride in `params`. Panics if the sharded solve blows its
/// ceiling.
fn bench_sharded_discovery(smoke: bool, min_reps: usize) -> Vec<Scenario> {
    let cases: [(&'static str, usize); 2] = if smoke {
        [
            ("schedule_discovery_100k", 2_400),
            ("schedule_discovery_1m", 4_800),
        ]
    } else {
        [
            ("schedule_discovery_100k", 100_000),
            ("schedule_discovery_1m", 1_000_000),
        ]
    };
    let budget = Duration::from_secs(if smoke { 2 } else { 10 });

    cases
        .iter()
        .map(|&(name, target)| {
            let net = Network::generate_ran(&NetworkConfig::default().with_target_nodes(target));
            let nodes = ran_scope(&net);
            let capacity = ((nodes.len() as i64) / 25).max(4);
            let intent = planner_intent(capacity);
            let options = |backend| PlanOptions {
                solver: cornet_solver::SolverConfig {
                    time_limit: budget,
                    ..Default::default()
                },
                backend,
                heuristic: HeuristicConfig {
                    iterations: 4,
                    seed: 7,
                    ..Default::default()
                },
                ..Default::default()
            };
            let run = |backend| {
                plan(
                    &intent,
                    &net.inventory,
                    &net.topology,
                    &nodes,
                    &options(backend),
                )
                .unwrap_or_else(|e| panic!("{name}: {backend:?} backend failed: {e}"))
            };

            let heuristic = run(BackendChoice::Heuristic);
            let portfolio = run(BackendChoice::Portfolio);
            let sharded = best_of(&format!("{name}: sharded"), min_reps, || {
                run(BackendChoice::Sharded)
            });

            // At 100k full the sliced (budget/2) solve phase plus
            // translate + merge + reconcile stays under the solver
            // budget — that is the hard acceptance bar. Smoke
            // gets 2x grace (fixed overheads dominate a 2 s budget); the
            // 1M row gets 4x: a single solver step on a 125k-var shard
            // costs more than the slice check granularity, so slices
            // overshoot — the ceiling there only guards against a
            // pathological regression, the speedup gate tracks the rest.
            let ceiling = match (smoke, target <= 100_000) {
                (false, true) => budget,
                (true, _) => budget * 2,
                (false, false) => budget * 4,
            };
            assert!(
                sharded.discovery_time <= ceiling,
                "{name}: sharded discovery {:?} exceeds ceiling {:?}",
                sharded.discovery_time,
                ceiling
            );

            let winner = |r: &PlanResult| {
                r.backend_runs
                    .iter()
                    .find(|run| run.winner)
                    .map(|run| run.backend)
                    .expect("race names a winner")
            };
            // Shard-order determinism is proptested in tier-1; the bench
            // re-races the smaller case once as an end-to-end check.
            if name == "schedule_discovery_100k" {
                let again = run(BackendChoice::Sharded);
                assert_eq!(
                    again.schedule.assignments, sharded.schedule.assignments,
                    "{name}: sharded re-run must be deterministic"
                );
                assert_eq!(winner(&again), winner(&sharded), "{name}: winner flapped");
            }

            let shard_runs = sharded
                .backend_runs
                .iter()
                .filter(|run| run.shard.is_some())
                .count();
            let shards = sharded
                .backend_runs
                .iter()
                .filter_map(|run| run.shard)
                .max()
                .map_or(0, |hi| hi + 1);

            Scenario {
                name,
                params: vec![
                    ("nodes", nodes.len().to_string()),
                    ("capacity_per_day", capacity.to_string()),
                    ("solver_budget_s", budget.as_secs().to_string()),
                    ("shards", shards.to_string()),
                    ("shard_member_runs", shard_runs.to_string()),
                    ("heuristic_makespan", heuristic.makespan().to_string()),
                    ("portfolio_makespan", portfolio.makespan().to_string()),
                    ("sharded_makespan", sharded.makespan().to_string()),
                    (
                        "heuristic_ms",
                        format!("{:.3}", ms(heuristic.discovery_time)),
                    ),
                    (
                        "portfolio_ms",
                        format!("{:.3}", ms(portfolio.discovery_time)),
                    ),
                    ("portfolio_winner", winner(&portfolio).to_string()),
                    ("sharded_winner", winner(&sharded).to_string()),
                ],
                baseline_ms: ms(budget),
                optimized_ms: ms(sharded.discovery_time),
                trace_summary: None,
            }
        })
        .collect()
}

/// Incremental warm-start re-solve: a cold exact discovery at 10k RAN
/// nodes, snapshotted, then re-planned with an empty delta. The warm run
/// must replay the prior plan bit-identically (100% reuse, one search
/// node) in no more solver time than the cold solve — `baseline_ms` is
/// the solver budget, `optimized_ms` the warm discovery ([`gated_ms`]);
/// the cold discovery and both solver times ride in `params`.
fn bench_incremental_resolve(smoke: bool, min_reps: usize) -> Scenario {
    let name = "incremental_resolve_10k";
    let target = if smoke { 1_200 } else { 10_000 };
    let budget = Duration::from_secs(if smoke { 2 } else { 10 });

    let net = Network::generate_ran(&NetworkConfig::default().with_target_nodes(target));
    let nodes = ran_scope(&net);
    let capacity = ((nodes.len() as i64) / 25).max(4);
    let intent = planner_intent(capacity);
    let options = |warm_from| PlanOptions {
        solver: cornet_solver::SolverConfig {
            time_limit: budget,
            ..Default::default()
        },
        backend: BackendChoice::Exact,
        warm_from,
        ..Default::default()
    };
    let run = |warm_from| {
        plan(
            &intent,
            &net.inventory,
            &net.topology,
            &nodes,
            &options(warm_from),
        )
        .unwrap_or_else(|e| panic!("{name}: plan failed: {e}"))
    };

    let cold = run(None);
    let snapshot = PlanSnapshot::capture(&cold, &net.inventory);
    let warm = best_of(&format!("{name}: warm"), min_reps, || {
        run(Some(snapshot.clone()))
    });

    // Empty delta: the warm solve must publish the prior plan verbatim,
    // reuse every unit, search a single node, and spend no longer in the
    // solver than the cold solve. The cold search now closes at the bound
    // after one dive, so there is no budget burn left to be "5x faster"
    // than — and matching the snapshot to the inventory costs more than
    // the dive it saves, so the comparison is of solver time, with both
    // discovery times in `params`.
    assert_eq!(
        warm.schedule.assignments, cold.schedule.assignments,
        "{name}: warm re-plan must be bit-identical on an empty delta"
    );
    assert_eq!(
        warm.schedule.leftovers, cold.schedule.leftovers,
        "{name}: warm leftovers diverged"
    );
    assert_eq!(
        warm.warm_reuse,
        Some(1.0),
        "{name}: empty delta must reuse 100% of units"
    );
    assert_eq!(
        warm.search_stats.nodes, 1,
        "{name}: everything pinned, nothing to branch on"
    );
    assert!(
        warm.search_stats.elapsed <= cold.search_stats.elapsed,
        "{name}: warm solve {:?} is slower than cold solve {:?}",
        warm.search_stats.elapsed,
        cold.search_stats.elapsed
    );

    let warm_ms_raw = ms(warm.discovery_time);
    Scenario {
        name,
        params: vec![
            ("nodes", nodes.len().to_string()),
            ("capacity_per_day", capacity.to_string()),
            ("solver_budget_s", budget.as_secs().to_string()),
            ("cold_makespan", cold.makespan().to_string()),
            ("warm_makespan", warm.makespan().to_string()),
            (
                "warm_reuse",
                format!("{:.3}", warm.warm_reuse.unwrap_or(0.0)),
            ),
            ("warm_search_nodes", warm.search_stats.nodes.to_string()),
            ("warm_ms_raw", format!("{warm_ms_raw:.3}")),
            ("cold_ms", format!("{:.3}", ms(cold.discovery_time))),
            (
                "warm_solve_ms",
                format!("{:.3}", ms(warm.search_stats.elapsed)),
            ),
            (
                "cold_solve_ms",
                format!("{:.3}", ms(cold.search_stats.elapsed)),
            ),
            ("cold_outcome", format!("{:?}", cold.outcome)),
        ],
        baseline_ms: ms(budget),
        optimized_ms: gated_ms(warm_ms_raw),
        trace_summary: None,
    }
}

// --- streaming verification ---------------------------------------------

/// The streaming-soak scenario: 100k samples (100 streams × 1000 ticks, a
/// mid-feed level shift on the study half) delivered sample-by-sample
/// through the online engine vs the pre-streaming alternative — re-running
/// a full batch verification over everything-so-far at every poll point.
/// Both paths must surface a change signal at the same cadence; the
/// streaming path gets it from the per-sample detectors instead.
///
/// Unlike the other scenarios this one does not shrink under `--smoke`:
/// its headline metrics are *sustained ingest rate* and *per-sample
/// detection latency*, which only mean something at the full sample
/// count, and the soak job gates on them directly. Hard bars (asserted
/// here, not just reported): ≥ 50k samples/sec sustained, detection
/// latency p99 < 10 ms, and the final streamed verdicts bit-identical to
/// the last batch re-verification.
fn bench_streaming_verify(min_reps: usize) -> Scenario {
    const STUDY: u32 = 50;
    const TICKS: u64 = 1_000;
    const CHANGE_TICK: u64 = 500;
    const POLL_EVERY: u64 = 100;
    const PUMP_EVERY: u64 = 4;
    const STEP: u64 = 60;
    let reps = min_reps.max(1);
    let total_samples = (2 * STUDY as u64 * TICKS) as usize;

    let mut inv = Inventory::new();
    let mut study = Vec::new();
    for i in 0..STUDY {
        study.push(inv.push(
            format!("enb-{i}"),
            NfType::ENodeB,
            Attributes::new().with("market", format!("m{:02}", i % 10)),
        ));
    }
    let mut topo = Topology::with_capacity(2 * STUDY as usize);
    for i in 0..STUDY {
        let ctl = inv.push(
            format!("ctl-{i}"),
            NfType::ENodeB,
            Attributes::new().with("market", format!("m{:02}", i % 10)),
        );
        topo.add_edge(study[i as usize], ctl);
    }
    let scope = ChangeScope::simultaneous(&study, CHANGE_TICK * STEP);
    let rule = || {
        let mut rule = VerificationRule::standard("soak", vec![KpiQuery::monitor("kpi0", true)]);
        rule.location_attributes = vec!["market".into()];
        rule
    };
    let value_at = |node: NodeId, k: u64| {
        let wiggle = ((k * 13 + node.0 as u64 * 7) % 9) as f64 * 0.1;
        let mut v = 100.0 + wiggle;
        if node.0 < STUDY && k >= CHANGE_TICK {
            v += 12.0;
        }
        v
    };

    // Baseline: the pre-streaming way to match the engine's outputs.
    // The engine yields (a) a per-stream change signal refreshed at every
    // pump and (b) verdicts on demand. Batch tooling gets (a) only by
    // re-running the changepoint kernel over each study stream's full
    // prefix at every pump point — both timescale lanes, exactly what the
    // online detector maintains incrementally — and (b) by re-running the
    // batch verification at every poll point over everything-so-far
    // (polls start once the post-change window is long enough to verify
    // at all; the verifier refuses shorter windows). The last poll covers
    // the full feed; its reports are the bit-equality reference for the
    // streamed verdicts.
    let timescales = StreamConfig::default().detect_timescales;
    let detect_window = StreamConfig::default().detect_window;
    let coarsen = |xs: &[f64], factor: usize| -> Vec<f64> {
        xs.chunks(factor.max(1))
            .map(|c| {
                let clean: Vec<f64> = c.iter().copied().filter(|v| !v.is_nan()).collect();
                if clean.is_empty() {
                    f64::NAN
                } else {
                    clean.iter().sum::<f64>() / clean.len() as f64
                }
            })
            .collect()
    };
    let mut reference = None;
    let mut baseline_detections = 0usize;
    let baseline_ms = time_ms(reps, || {
        let mut last = None;
        let mut prefixes: Vec<Vec<f64>> = vec![Vec::with_capacity(TICKS as usize); STUDY as usize];
        baseline_detections = 0;
        for k in 0..TICKS {
            for (i, prefix) in prefixes.iter_mut().enumerate() {
                prefix.push(value_at(study[i], k));
            }
            if k % PUMP_EVERY == PUMP_EVERY - 1 {
                for prefix in &prefixes {
                    for &factor in &timescales {
                        let lane = coarsen(prefix, factor);
                        baseline_detections +=
                            cornet_stats::detect_level_shifts(&lane, detect_window, 5.0).len();
                    }
                }
            }
            let upto = k + 1;
            if upto > CHANGE_TICK && upto.is_multiple_of(POLL_EVERY) {
                let adapter = ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
                    Some(cornet_stats::TimeSeries::new(
                        0,
                        STEP,
                        (0..upto).map(|k| value_at(node, k)).collect(),
                    ))
                });
                last = Some(verify_rules(&adapter, &[rule()], &scope, &inv, &topo).unwrap());
            }
        }
        reference = last;
    });
    let reference = reference.expect("baseline ran");
    assert!(
        baseline_detections > 0,
        "batch re-detection must also see the injected shift"
    );

    // Optimized: stream every sample through the engine. Ingest time
    // (offers + pumps, the sustained-rate denominator) is tracked apart
    // from the one final verdict poll.
    let mut best_ingest_s = f64::INFINITY;
    let mut optimized_ms = f64::INFINITY;
    let mut p99_ms = f64::NAN;
    let mut detections = 0u64;
    for _ in 0..reps {
        let engine = StreamingVerifier::new(
            vec![rule()],
            scope.clone(),
            inv.clone(),
            topo.clone(),
            StreamConfig {
                step_minutes: STEP,
                queue_capacity: total_samples,
                ..StreamConfig::default()
            },
            Tracer::noop(),
        );
        let t = Instant::now();
        for k in 0..TICKS {
            for n in 0..2 * STUDY {
                engine.offer(StreamSample {
                    node: NodeId(n),
                    kpi: "kpi0".to_string(),
                    carrier: None,
                    minute: k * STEP,
                    value: value_at(NodeId(n), k),
                });
            }
            if k % PUMP_EVERY == PUMP_EVERY - 1 {
                engine.pump();
            }
        }
        engine.pump();
        let ingest_s = t.elapsed().as_secs_f64();
        let streamed = engine.poll_verdicts().unwrap();
        let total_ms = t.elapsed().as_secs_f64() * 1e3;

        let stats = engine.stats();
        assert_eq!(stats.processed, total_samples as u64, "no sample lost");
        assert_eq!(stats.shed, 0, "queue sized for the feed");
        assert!(stats.detections > 0, "the injected shift must be detected");
        // Bit-equality bar: the streamed verdicts equal the final batch
        // re-verification, p-value bits included.
        assert_eq!(streamed.len(), reference.len());
        for (s, b) in streamed.iter().zip(&reference) {
            assert_eq!(s.decision, b.decision, "streamed decision diverged");
            for (sk, bk) in s.kpis.iter().zip(&b.kpis) {
                assert_eq!(sk.overall.verdict, bk.overall.verdict);
                assert_eq!(
                    sk.overall.p_value.to_bits(),
                    bk.overall.p_value.to_bits(),
                    "streamed p-value diverged from batch"
                );
            }
        }
        if ingest_s < best_ingest_s {
            best_ingest_s = ingest_s;
            optimized_ms = total_ms;
            p99_ms = engine
                .detection_latency_quantile(0.99)
                .expect("latencies recorded")
                * 1e3;
            detections = stats.detections;
        }
    }
    let samples_per_sec = total_samples as f64 / best_ingest_s;
    assert!(
        samples_per_sec >= 50_000.0,
        "sustained ingest {samples_per_sec:.0} samples/sec below the 50k bar"
    );
    assert!(
        p99_ms < 10.0,
        "detection latency p99 {p99_ms:.3} ms breaches the 10 ms bar"
    );

    Scenario {
        name: "streaming_verify_100k",
        params: vec![
            ("samples", total_samples.to_string()),
            ("streams", (2 * STUDY).to_string()),
            ("ticks", TICKS.to_string()),
            ("poll_every", POLL_EVERY.to_string()),
            ("pump_every", PUMP_EVERY.to_string()),
            ("samples_per_sec", format!("{samples_per_sec:.0}")),
            ("detect_p99_ms", format!("{p99_ms:.3}")),
            ("detections", detections.to_string()),
        ],
        baseline_ms,
        optimized_ms,
        trace_summary: None,
    }
}

// --- reporting ----------------------------------------------------------

fn render_report(bench: &str, mode: &str, cpus: usize, scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::spaced(&mut out);
    w.begin_object();
    w.line(2).key("bench").str(bench);
    w.line(2).key("mode").str(mode);
    w.line(2).key("cpu_count").int(cpus);
    w.line(2).key("scenarios").begin_array();
    for s in scenarios {
        w.line(4).begin_object();
        w.line(6).key("name").str(s.name);
        w.line(6).key("params").begin_object();
        for (k, v) in &s.params {
            // Numeric param values render bare; anything else as a string.
            if v.parse::<f64>().is_ok_and(f64::is_finite) {
                w.key(k).raw(v);
            } else {
                w.key(k).str(v);
            }
        }
        w.end_object();
        let ms = FloatFmt::Fixed(3);
        w.line(6).key("baseline_ms").float(s.baseline_ms, ms);
        w.line(6).key("optimized_ms").float(s.optimized_ms, ms);
        if let Some(summary) = &s.trace_summary {
            // Already-rendered JSON from TraceSummary::render_json.
            w.line(6).key("trace_summary").raw(summary);
        }
        w.line(6).key("speedup").float(s.speedup(), ms);
        w.line(4).end_object();
    }
    w.line(2).end_array();
    w.line(0).end_object();
    out.push('\n');
    out
}

fn write_report(out_dir: &str, bench: &str, mode: &str, cpus: usize, scenarios: &[Scenario]) {
    let body = render_report(bench, mode, cpus, scenarios);
    // Self-check: the report reads back with one speedup per scenario.
    let read_back = parse_speedups(&body).unwrap_or_else(|e| panic!("emitted report: {e}"));
    assert_eq!(read_back.len(), scenarios.len());
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| panic!("create {out_dir}: {e}"));
    let path = format!("{out_dir}/BENCH_{bench}.json");
    std::fs::write(&path, &body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

// --- daemon -------------------------------------------------------------

/// Submit-to-done wall-clock for a 4-tenant batch of journaled campaigns
/// through the `cornetd` [`CampaignManager`]: serial admission
/// (`max_campaigns = 1`, the one-campaign-at-a-time operator workflow the
/// daemon replaces) vs the daemon's fair-share concurrent scheduling over
/// a shared slot pool with per-tenant quotas. Params also record the
/// worst submit→first-durable-journal-record latency observed while all
/// four campaigns were admitted at once.
fn bench_daemon_submit_latency(smoke: bool, min_reps: usize) -> Scenario {
    let nodes: u32 = if smoke { 12 } else { 48 };
    const CAMPAIGNS: usize = 4;
    const POOL: usize = 8;
    const QUOTA: usize = 2;
    let mut spec = String::new();
    let mut w = JsonWriter::compact(&mut spec);
    w.begin_object();
    w.key("name").str("bench");
    w.key("scenario").begin_object();
    w.key("nodes").int(nodes);
    w.key("latency_ms").int(1);
    w.key("fault_rate_milli").int(0);
    w.end_object().end_object();
    let tenants: Vec<String> = (0..CAMPAIGNS).map(|i| format!("tenant{i}")).collect();

    let manager_at = |state: &std::path::Path, max_campaigns: usize| {
        let _ = std::fs::remove_dir_all(state);
        let config = ManagerConfig {
            state_dir: state.to_path_buf(),
            fsync: FsyncPolicy::Always,
            pool: POOL,
            default_quota: QUOTA,
            max_campaigns,
            ..ManagerConfig::default()
        };
        CampaignManager::start(config).expect("manager starts")
    };
    let submit_one = |manager: &std::sync::Arc<CampaignManager>, tenant: &str| -> String {
        match manager.submit(tenant, &spec).expect("submit succeeds") {
            SubmitOutcome::Accepted { id, .. } => id,
            SubmitOutcome::Rejected { .. } | SubmitOutcome::Interfering { .. } => {
                panic!("bench spec passes the gate")
            }
        }
    };
    let wait_all = |manager: &std::sync::Arc<CampaignManager>, ids: &[(String, String)]| {
        for (tenant, id) in ids {
            loop {
                let snap = manager.snapshot(tenant, id).expect("snapshot");
                if snap.phase.is_terminal() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let run_batch = |tag: &str, max_campaigns: usize| -> f64 {
        let state =
            std::env::temp_dir().join(format!("cornet-bench-dmn-{tag}-{}", std::process::id()));
        let elapsed = time_ms(min_reps, || {
            let manager = manager_at(&state, max_campaigns);
            let ids: Vec<(String, String)> = tenants
                .iter()
                .map(|t| (t.clone(), submit_one(&manager, t)))
                .collect();
            wait_all(&manager, &ids);
            manager.begin_shutdown();
            manager.drain(Duration::from_secs(60));
        });
        let _ = std::fs::remove_dir_all(&state);
        elapsed
    };

    // Instrumented pass (not timed): how long until each submission's
    // campaign has durable journal records, with all four admitted at once.
    let state = std::env::temp_dir().join(format!("cornet-bench-dmn-lat-{}", std::process::id()));
    let manager = manager_at(&state, CAMPAIGNS);
    let mut first_admission_ms = 0f64;
    let mut ids = Vec::new();
    for tenant in &tenants {
        let submitted = Instant::now();
        let id = submit_one(&manager, tenant);
        loop {
            let snap = manager.snapshot(tenant, &id).expect("snapshot");
            if snap.events >= 2 || snap.phase.is_terminal() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        first_admission_ms = first_admission_ms.max(submitted.elapsed().as_secs_f64() * 1e3);
        ids.push((tenant.clone(), id));
    }
    wait_all(&manager, &ids);
    manager.begin_shutdown();
    manager.drain(Duration::from_secs(60));
    let _ = std::fs::remove_dir_all(&state);

    let baseline_ms = run_batch("serial", 1);
    let optimized_ms = run_batch("conc", CAMPAIGNS);
    Scenario {
        name: "daemon_submit_latency",
        params: vec![
            ("campaigns", CAMPAIGNS.to_string()),
            ("nodes", nodes.to_string()),
            ("pool", POOL.to_string()),
            ("tenant_quota", QUOTA.to_string()),
            ("fsync", "always".into()),
            (
                "worst_first_admission_ms",
                format!("{first_admission_ms:.3}"),
            ),
        ],
        baseline_ms,
        optimized_ms,
        trace_summary: None,
    }
}

// --- bench-regression gate ----------------------------------------------

/// Extract `scenario name → speedup` from a `BENCH_*.json` document.
fn parse_speedups(body: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse(body).map_err(|e| e.to_string())?;
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_array())
        .ok_or("no \"scenarios\" array")?;
    scenarios
        .iter()
        .map(|s| {
            let name = s
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("scenario without \"name\"")?
                .to_owned();
            let speedup = s
                .get("speedup")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("scenario {name} without \"speedup\""))?;
            Ok((name, speedup))
        })
        .collect()
}

/// Compare fresh speedups against a baseline. A scenario regresses when
/// its fresh speedup drops below `baseline × (1 − tolerance)`. Baseline
/// scenarios missing from the fresh run are skipped with a note (smoke
/// mode may drop the largest sizes); fresh scenarios without a baseline
/// pass by definition. Returns the per-scenario report lines and the
/// names of regressed scenarios.
fn gate_compare(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
) -> (Vec<String>, Vec<String>) {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (name, base) in baseline {
        let Some((_, new)) = fresh.iter().find(|(n, _)| n == name) else {
            lines.push(format!(
                "  {name:<32} baseline {base:.2}x  (not in fresh run, skipped)"
            ));
            continue;
        };
        let floor = base * (1.0 - tolerance);
        if *new < floor {
            regressions.push(name.clone());
            lines.push(format!(
                "  {name:<32} baseline {base:.2}x  fresh {new:.2}x  REGRESSED (floor {floor:.2}x)"
            ));
        } else {
            lines.push(format!(
                "  {name:<32} baseline {base:.2}x  fresh {new:.2}x  ok (floor {floor:.2}x)"
            ));
        }
    }
    for (name, new) in fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            lines.push(format!(
                "  {name:<32} fresh {new:.2}x  (new scenario, no baseline)"
            ));
        }
    }
    (lines, regressions)
}

/// One entry of the gate manifest: a bench group and the scenarios whose
/// presence in its fresh report is mandatory.
struct ManifestEntry {
    name: String,
    required: Vec<String>,
}

/// Parse `MANIFEST.json` — the single source of truth for which bench
/// groups the gate checks and which scenarios must be present. Both this
/// binary and the CI workflow read it, so adding a scenario (or a whole
/// group) cannot silently skip the gate by leaving one of the two
/// hand-pinned lists stale.
fn parse_manifest(body: &str) -> Result<Vec<ManifestEntry>, String> {
    let doc = parse(body).map_err(|e| e.to_string())?;
    let benches = doc
        .get("benches")
        .and_then(|b| b.as_array())
        .ok_or("no \"benches\" array")?;
    benches
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("bench entry without \"name\"")?
                .to_owned();
            let required = b
                .get("required")
                .and_then(|r| r.as_array())
                .ok_or_else(|| format!("bench {name} without \"required\" array"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("bench {name}: non-string required entry"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ManifestEntry { name, required })
        })
        .collect()
}

/// The CI bench-regression gate: for every group in the baseline dir's
/// `MANIFEST.json`, compare the fresh `BENCH_*.json` in `out_dir` against
/// the checked-in baseline. Returns false (→ non-zero exit) when any
/// scenario's speedup regressed by more than `tolerance` or any
/// manifest-required scenario is missing from its fresh report. With
/// `--only <group>`, groups this invocation did not run are skipped.
fn run_gate(baseline_dir: &str, out_dir: &str, tolerance: f64, only: Option<&str>) -> bool {
    eprintln!(
        "bench gate: baselines from {baseline_dir}, tolerance {:.0}%",
        tolerance * 100.0
    );
    let manifest_path = format!("{baseline_dir}/MANIFEST.json");
    let manifest_body = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("{manifest_path}: {e} (the gate needs the manifest)"));
    let manifest =
        parse_manifest(&manifest_body).unwrap_or_else(|e| panic!("{manifest_path}: {e}"));
    let mut all_regressions = Vec::new();
    let mut all_missing = Vec::new();
    for entry in &manifest {
        let bench = entry.name.as_str();
        if only.is_some_and(|o| o != bench) {
            eprintln!("  [{bench}] skipped (--only {})", only.unwrap_or_default());
            continue;
        }
        let base_path = format!("{baseline_dir}/BENCH_{bench}.json");
        let base_body = match std::fs::read_to_string(&base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("  {base_path}: {e} (no baseline, skipped)");
                continue;
            }
        };
        let fresh_path = format!("{out_dir}/BENCH_{bench}.json");
        let fresh_body =
            std::fs::read_to_string(&fresh_path).unwrap_or_else(|e| panic!("{fresh_path}: {e}"));
        let base = parse_speedups(&base_body).unwrap_or_else(|e| panic!("{base_path}: {e}"));
        let fresh = parse_speedups(&fresh_body).unwrap_or_else(|e| panic!("{fresh_path}: {e}"));
        let (lines, regressions) = gate_compare(&base, &fresh, tolerance);
        eprintln!("  [{bench}]");
        for line in lines {
            eprintln!("  {line}");
        }
        for name in &entry.required {
            if !fresh.iter().any(|(n, _)| n == name) {
                eprintln!("  {name:<32} REQUIRED but missing from {fresh_path}");
                all_missing.push(name.clone());
            }
        }
        all_regressions.extend(regressions);
    }
    if !all_missing.is_empty() {
        eprintln!(
            "bench gate: FAILED — {} required scenario(s) missing: {}",
            all_missing.len(),
            all_missing.join(", ")
        );
        return false;
    }
    if all_regressions.is_empty() {
        eprintln!("bench gate: ok");
        true
    } else {
        eprintln!(
            "bench gate: FAILED — {} scenario(s) regressed >{:.0}%: {}",
            all_regressions.len(),
            tolerance * 100.0,
            all_regressions.join(", ")
        );
        false
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;

    fn named(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(n, s)| (n.to_string(), *s)).collect()
    }

    #[test]
    fn parse_speedups_reads_real_report_format() {
        let body = render_report(
            "orchestrator",
            "smoke",
            4,
            &[Scenario {
                name: "straggler_heavy_dispatch",
                params: vec![("instances", "200".into())],
                baseline_ms: 500.0,
                optimized_ms: 125.0,
                trace_summary: Some("{}".into()),
            }],
        );
        let speedups = parse_speedups(&body).unwrap();
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, "straggler_heavy_dispatch");
        assert!((speedups[0].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn report_rendering_is_byte_stable() {
        let body = render_report(
            "orchestrator",
            "smoke",
            4,
            &[
                Scenario {
                    name: "straggler_heavy_dispatch",
                    params: vec![
                        ("instances", "200".into()),
                        ("winner", "exact \"portfolio\"".into()),
                        ("p99_ms", "1.250".into()),
                    ],
                    baseline_ms: 500.0,
                    optimized_ms: 125.0,
                    trace_summary: Some("{\"block\": {\"count\": 3}}".into()),
                },
                Scenario {
                    name: "empty",
                    params: vec![],
                    baseline_ms: 0.0004,
                    optimized_ms: 3.0,
                    trace_summary: None,
                },
            ],
        );
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/bench_report.json"
        );
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &body).unwrap();
        }
        assert_eq!(body, std::fs::read_to_string(path).unwrap());
    }

    #[test]
    fn parse_speedups_rejects_malformed_reports() {
        assert!(parse_speedups("{}").is_err());
        assert!(parse_speedups("{\"scenarios\": [{\"name\": \"x\"}]}").is_err());
        assert!(parse_speedups("not json").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond_it() {
        let base = named(&[("a", 4.0), ("b", 3.0)]);
        // a: 3.0 ≥ 4.0×0.7=2.8 → ok; b: 2.0 < 3.0×0.7=2.1 → regressed.
        let fresh = named(&[("a", 3.0), ("b", 2.0)]);
        let (_, regressions) = gate_compare(&base, &fresh, 0.30);
        assert_eq!(regressions, vec!["b".to_string()]);
    }

    #[test]
    fn gate_skips_missing_scenarios_and_accepts_new_ones() {
        let base = named(&[("dropped_in_smoke", 10.0)]);
        let fresh = named(&[("brand_new", 0.1)]);
        let (lines, regressions) = gate_compare(&base, &fresh, 0.30);
        assert!(regressions.is_empty());
        assert!(lines.iter().any(|l| l.contains("skipped")));
        assert!(lines.iter().any(|l| l.contains("no baseline")));
    }

    #[test]
    fn gate_improvements_always_pass() {
        let base = named(&[("a", 2.0)]);
        let fresh = named(&[("a", 5.0)]);
        let (_, regressions) = gate_compare(&base, &fresh, 0.30);
        assert!(regressions.is_empty());
    }

    #[test]
    fn manifest_parses_groups_and_required_scenarios() {
        let body = r#"{
            "benches": [
                {"name": "planner", "required": ["schedule_discovery_100k"]},
                {"name": "streaming", "required": ["streaming_verify_100k"]}
            ]
        }"#;
        let manifest = parse_manifest(body).unwrap();
        assert_eq!(manifest.len(), 2);
        assert_eq!(manifest[0].name, "planner");
        assert_eq!(manifest[0].required, vec!["schedule_discovery_100k"]);
        assert_eq!(manifest[1].name, "streaming");
    }

    #[test]
    fn manifest_rejects_malformed_documents() {
        assert!(parse_manifest("{}").is_err());
        assert!(parse_manifest(r#"{"benches": [{"name": "x"}]}"#).is_err());
        assert!(parse_manifest(r#"{"benches": [{"required": []}]}"#).is_err());
        assert!(parse_manifest("not json").is_err());
    }

    #[test]
    fn checked_in_manifest_matches_the_scenarios_this_binary_emits() {
        // The manifest is the single source of truth for the gate; if a
        // scenario is renamed or a group added without updating it, this
        // test fails before CI does.
        let body = include_str!("../../../../ci/bench-baselines/MANIFEST.json");
        let manifest = parse_manifest(body).unwrap();
        let groups: Vec<&str> = manifest.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            groups,
            vec!["orchestrator", "verifier", "planner", "daemon", "streaming"]
        );
        let required: Vec<&str> = manifest
            .iter()
            .flat_map(|e| e.required.iter().map(String::as_str))
            .collect();
        for name in [
            "straggler_heavy_dispatch",
            "journaled_dispatch",
            "market_sweep_verification",
            "robust_rank_order_10k",
            "median_10k",
            "theil_sen_capped",
            "schedule_discovery_200",
            "schedule_discovery_1k",
            "schedule_discovery_10k",
            "schedule_discovery_100k",
            "schedule_discovery_1m",
            "incremental_resolve_10k",
            "daemon_submit_latency",
            "streaming_verify_100k",
        ] {
            assert!(required.contains(&name), "manifest missing {name}");
        }
    }
}
