//! The layer microbench table: each row times one public function of one
//! crate for a fixed time, with the size class in the metric name. Rows are
//! independent of the workload being run; README.md says which end-to-end
//! metric each row should move.

use crate::fleet_plan::{PlanNet, TIME_LIMIT};
use crate::fleet_rollout::{counted_registry, fresh_testbed, inputs_for, CONCURRENCY};
use crate::gen::{campaign_bundle, network_seed, PlanClass, VerifyOp};
use crate::kpi_verify::{Session, PUMP_EVERY};
use crate::measure::Metric;
use crate::run::work_dir;
use crate::tenant_mix::{submit, wait_terminal, Daemon};
use cornet_catalog::builtin_catalog;
use cornet_core::blast::{campaign_blasts, conflicts_between};
use cornet_core::{gate, load_bundle};
use cornet_daemon::SubmitOutcome;
use cornet_journal::{FsyncPolicy, Journal};
use cornet_netsim::Testbed;
use cornet_obs::Tracer;
use cornet_orchestrator::{Dispatcher, Engine, ExecutorRegistry, GlobalState};
use cornet_planner::heuristic::heuristic_schedule_units;
use cornet_planner::{translate, HeuristicConfig, TranslateOptions};
use cornet_solver::{solve, SolverConfig};
use cornet_stats::{robust_rank_order, theil_sen, MultiTimescaleDetector};
use cornet_types::json::parse;
use cornet_types::{NodeId, ParamValue, Schedule, Timeslot};
use cornet_workflow::builtin::software_upgrade_workflow;
use cornet_workflow::WarArtifact;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds per row of `--layers`, of a traced run, and of `--quick`.
pub const FULL_ROW_SECONDS: f64 = 0.5;
pub const TRACE_ROW_SECONDS: f64 = 0.1;
pub const QUICK_ROW_SECONDS: f64 = 0.005;

/// Instances of the dispatch and journal rows.
const INSTANCES: u32 = 1_000;

/// Mean seconds per call of `run` over at least `seconds` of calls (at
/// least one); `prep` builds each call's input off the clock.
fn per_call<T>(seconds: f64, mut prep: impl FnMut() -> T, mut run: impl FnMut(T)) -> f64 {
    let (mut spent, mut calls) = (Duration::ZERO, 0u32);
    while calls == 0 || spent.as_secs_f64() < seconds {
        let input = prep();
        let started = Instant::now();
        run(input);
        spent += started.elapsed();
        calls += 1;
    }
    spent.as_secs_f64() / f64::from(calls)
}

fn simple(seconds: f64, mut run: impl FnMut()) -> f64 {
    per_call(seconds, || (), |()| run())
}

struct Table {
    seconds: f64,
    rows: Vec<Metric>,
}

impl Table {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push(Metric::new(name, value, unit));
    }
}

fn check_rows(t: &mut Table) {
    let small = campaign_bundle("l24", 24, 1);
    let large = campaign_bundle("l384", 384, 1);
    let s = simple(t.seconds, || {
        black_box(parse(black_box(&large)).expect("bundle is JSON"));
    });
    t.push(
        "types.json_parse_mb_s",
        large.len() as f64 / 1e6 / s,
        "MB/s",
    );
    for (text, class) in [(&small, "n24"), (&large, "n384")] {
        let s = simple(t.seconds, || {
            black_box(load_bundle(black_box(text)).expect("bundle loads"));
        });
        t.push(&format!("check.load_bundle_us.{class}"), s * 1e6, "us");
        let bundle = load_bundle(text).expect("bundle loads");
        let s = simple(t.seconds, || {
            black_box(gate(black_box(&bundle)).is_ok());
        });
        t.push(&format!("check.gate_us.{class}"), s * 1e6, "us");
    }
    let bundle = load_bundle(&large).expect("bundle loads");
    let s = simple(t.seconds, || {
        black_box(campaign_blasts(black_box(&bundle)));
    });
    t.push("blast.radii_us.n384", s * 1e6, "us");
    // A submission against a live campaign over the same 384 nodes: every
    // touch finds its rival claim (the worst case of the admission gate).
    let blasts = campaign_blasts(&bundle);
    let touches: usize = blasts.iter().map(|b| b.touches.len()).sum();
    let s = simple(t.seconds, || {
        black_box(conflicts_between(black_box(&blasts), black_box(&blasts)));
    });
    t.push("blast.conflict_checks_per_s", touches as f64 / s, "1/s");
}

fn planner_rows(t: &mut Table, seed: u64, quick: bool) {
    let big = if quick { 2_000 } else { 100_000 };
    let translated = |problem: &PlanNet| {
        translate(
            &problem.intent,
            &problem.net.inventory,
            &problem.net.topology,
            &problem.nodes,
            &TranslateOptions::default(),
        )
        .expect("benchmark intent translates")
    };
    for (class, target, label) in [
        (PlanClass::Exact1k, 1_000, "n1k"),
        (PlanClass::Heuristic50k, big, "n100k"),
    ] {
        let problem = PlanNet::generate(network_seed(seed, class, 0), target);
        let s = simple(t.seconds, || {
            black_box(translated(black_box(&problem)));
        });
        t.push(&format!("planner.translate_ms.{label}"), s * 1e3, "ms");
        let translation = translated(&problem);
        if label == "n1k" {
            t.push(
                "model.vars.n1k",
                translation.model.var_count() as f64,
                "count",
            );
            t.push(
                "model.constraints.n1k",
                translation.model.constraint_count() as f64,
                "count",
            );
        } else {
            let units: Vec<Vec<NodeId>> =
                translation.units.iter().map(|u| u.nodes.clone()).collect();
            let conflicts = problem.intent.conflicts().expect("conflict table");
            let config = HeuristicConfig {
                seed: 7,
                slot_capacity: problem.capacity,
                iterations: 4,
            };
            let s = simple(t.seconds, || {
                black_box(heuristic_schedule_units(
                    &problem.net.inventory,
                    &units,
                    &conflicts,
                    &translation.window,
                    &config,
                ));
            });
            t.push("planner.heuristic_ms.n100k", s * 1e3, "ms");
        }
    }
    // The exact kernel alone, under the node budgets of the workload. The
    // search recurses once per variable, so it runs on a sized stack as
    // the planner's exact backend does.
    for (class, label) in [
        (PlanClass::Exact200, "n200"),
        (PlanClass::Exact1k, "n1k"),
        (PlanClass::Exact3k, "n3k"),
    ] {
        let problem = PlanNet::generate(network_seed(seed, class, 0), class.target_nodes(quick));
        let translation = translated(&problem);
        let config = SolverConfig {
            max_nodes: class.max_nodes(),
            time_limit: TIME_LIMIT,
            ..SolverConfig::default()
        };
        let seconds = t.seconds;
        let rate = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(256 << 20)
                .spawn_scoped(scope, || {
                    let mut nodes = 0u64;
                    let s = simple(seconds, || {
                        nodes = solve(black_box(&translation.model), &config).stats.nodes;
                    });
                    nodes as f64 / s
                })
                .expect("spawn solver thread")
                .join()
                .expect("solver thread")
        });
        t.push(&format!("solver.nodes_per_s.{label}"), rate, "1/s");
    }
}

fn zero_cost_registry() -> ExecutorRegistry {
    let mut reg = ExecutorRegistry::new();
    reg.register("health_check", |s: &mut GlobalState| {
        s.insert("healthy".into(), ParamValue::from(true));
        Ok(())
    });
    reg.register("software_upgrade", |s: &mut GlobalState| {
        s.insert("previous_version".into(), ParamValue::from("19.3"));
        Ok(())
    });
    reg.register("pre_post_comparison", |s: &mut GlobalState| {
        s.insert("passed".into(), ParamValue::from(true));
        Ok(())
    });
    reg
}

fn rollout_rows(t: &mut Table, dir: &Path) {
    let catalog = builtin_catalog();
    let workflow = software_upgrade_workflow(&catalog);
    let s = simple(t.seconds, || {
        black_box(WarArtifact::package(black_box(&workflow), &catalog).expect("WAR packages"));
    });
    t.push("workflow.package_us", s * 1e6, "us");

    let registry = zero_cost_registry();
    let inputs = inputs_for("20.1");
    let s = simple(t.seconds, || {
        let mut engine = Engine::new(workflow.clone(), registry.clone(), inputs(NodeId(1)));
        black_box(engine.run().expect("instance runs"));
    });
    t.push("engine.ns_per_block", s * 1e9 / 3.0, "ns");

    let war = WarArtifact::package(&workflow, &catalog).expect("WAR packages");
    let mut schedule = Schedule::default();
    for i in 0..INSTANCES {
        schedule.assignments.insert(NodeId(i), Timeslot(i / 50 + 1));
    }
    let dispatcher = |testbed: Testbed| {
        let calls = Arc::new(AtomicU64::new(0));
        Dispatcher::new(
            war.clone(),
            counted_registry(&testbed, None, calls),
            CONCURRENCY,
        )
        .expect("dispatcher")
    };
    let s = per_call(
        t.seconds,
        || dispatcher(fresh_testbed(INSTANCES)),
        |d| {
            black_box(d.run(&schedule, &inputs).expect("dispatch runs"));
        },
    );
    t.push(
        "dispatch.instances_per_s.plain",
        f64::from(INSTANCES) / s,
        "1/s",
    );
    let path = dir.join("layers.journal");
    let journaled = |policy| {
        let journal = Journal::create(&path, policy).expect("journal");
        dispatcher(fresh_testbed(INSTANCES)).with_journal(journal, BTreeMap::new())
    };
    let s = per_call(
        t.seconds,
        || journaled(FsyncPolicy::EveryN(64)),
        |d| {
            black_box(d.run(&schedule, &inputs).expect("dispatch runs"));
        },
    );
    t.push(
        "dispatch.instances_per_s.journaled",
        f64::from(INSTANCES) / s,
        "1/s",
    );

    // `path` now holds a complete 1 000-instance journal.
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    t.push(
        "journal.bytes_per_instance",
        bytes / f64::from(INSTANCES),
        "B",
    );
    let s = simple(t.seconds, || {
        black_box(Journal::read(black_box(&path)).expect("journal reads"));
    });
    t.push("journal.read_mb_s", bytes / 1e6 / s, "MB/s");
    let (events, _) = Journal::read(&path).expect("journal reads");
    // Resume of the complete journal: read + replay, nothing re-executes.
    let copy = dir.join("layers.resume.journal");
    let s = per_call(
        t.seconds,
        || {
            std::fs::copy(&path, &copy).expect("copy journal");
            dispatcher(fresh_testbed(0))
        },
        |d| {
            black_box(
                d.resume_from_journal(&copy, FsyncPolicy::EveryN(64), &inputs, None)
                    .expect("resume"),
            );
        },
    );
    t.push("dispatch.resume_ms", s * 1e3, "ms");
    for (policy, label) in [
        (FsyncPolicy::Never, "never"),
        (FsyncPolicy::EveryN(64), "every64"),
        (FsyncPolicy::Always, "always"),
    ] {
        let journal = Journal::create(&copy, policy).expect("journal");
        let mut next = events.iter().cycle();
        let s = simple(t.seconds, || {
            journal
                .append(next.next().expect("journal has events"))
                .expect("append");
        });
        t.push(&format!("journal.append_us.{label}"), s * 1e6, "us");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&copy);
}

fn verifier_rows(t: &mut Table, seed: u64, quick: bool) {
    let session = Session::generate(&VerifyOp {
        study: if quick { 10 } else { 50 },
        ticks: 250,
        impact: Some(0.2),
        seed,
    });
    let ingest = |engine: &cornet_verifier::StreamingVerifier| {
        for k in 0..session.op.ticks {
            session.offer_tick(engine, k);
            if k % PUMP_EVERY == PUMP_EVERY - 1 {
                engine.pump();
            }
        }
        engine.pump();
    };
    let s = per_call(t.seconds, || session.engine(Tracer::noop()), |e| ingest(&e));
    t.push(
        "verifier.ingest_samples_per_s",
        session.samples() as f64 / s,
        "1/s",
    );
    let mut last = None;
    let s = per_call(
        t.seconds,
        || {
            let engine = session.engine(Tracer::noop());
            ingest(&engine);
            engine
        },
        |e| {
            black_box(e.poll_verdicts().expect("verdicts"));
            last = Some(e);
        },
    );
    t.push("verifier.poll_ms", s * 1e3, "ms");
    let engine = last.expect("at least one poll ran");
    let stats = engine.stats();
    t.push(
        "verifier.detect_p99_ms",
        engine.detection_latency_quantile(0.99).unwrap_or(0.0) * 1e3,
        "ms",
    );
    t.push(
        "verifier.shed_share",
        stats.shed as f64 / stats.accepted.max(1) as f64,
        "ratio",
    );
    let s = simple(t.seconds, || {
        black_box(session.batch(&Tracer::noop()).expect("batch verifies"));
    });
    t.push("verifier.batch_ms", s * 1e3, "ms");
}

/// Deterministic noise without a generator crate.
fn synth(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = crate::gen::Rng::new(seed, "stats");
    (0..len)
        .map(|_| (rng.below(2_000_001) as f64 - 1_000_000.0) / 1_000.0)
        .collect()
}

fn stats_rows(t: &mut Table) {
    let (xs, ys) = (synth(1, 5_000), synth(2, 5_000));
    let s = simple(t.seconds, || {
        black_box(robust_rank_order(black_box(&xs), black_box(&ys)));
    });
    t.push("stats.rank_order_ns_per_sample", s * 1e9 / 10_000.0, "ns");
    let tx: Vec<f64> = (0..2_000).map(f64::from).collect();
    let ty: Vec<f64> = synth(3, 2_000)
        .iter()
        .zip(&tx)
        .map(|(w, x)| 3.0 * x + w * 0.01)
        .collect();
    let s = simple(t.seconds, || {
        black_box(theil_sen(black_box(&tx), black_box(&ty)));
    });
    t.push("stats.theil_sen_ns_per_sample", s * 1e9 / 2_000.0, "ns");
    let feed = synth(4, 10_000);
    let s = simple(t.seconds, || {
        let mut detector = MultiTimescaleDetector::new(&[1, 24], 8, 5.0);
        for &v in &feed {
            black_box(detector.push(v));
        }
    });
    t.push("stats.online_ns_per_sample", s * 1e9 / 10_000.0, "ns");
}

fn daemon_rows(t: &mut Table, dir: &Path) {
    let daemon = Daemon::boot(&dir.join("layers-state"), Tracer::noop());
    let client = daemon.client("layers");
    let s = simple(t.seconds, || {
        let r = client.get("/v1/healthz").expect("healthz answers");
        assert_eq!(r.status, 200, "healthz");
    });
    t.push("http.req_per_s", 1.0 / s, "1/s");
    // One 24-node bundle per call (fresh node names, so nothing interferes);
    // each campaign finishes off the clock before the next submission.
    let pending: RefCell<Option<String>> = RefCell::new(None);
    let settle = || {
        if let Some(id) = pending.borrow_mut().take() {
            let _ = wait_terminal(&client, &id);
        }
    };
    let mut n = 0u32;
    let mut next_bundle = || {
        settle();
        n += 1;
        campaign_bundle(&format!("layers{n}"), 24, 1)
    };
    let direct = per_call(t.seconds, &mut next_bundle, |text| {
        match daemon.manager.submit("layers", &text).expect("submit") {
            SubmitOutcome::Accepted { id, .. } => *pending.borrow_mut() = Some(id),
            _ => panic!("a clean bundle is accepted"),
        }
    });
    let rtt = per_call(t.seconds, &mut next_bundle, |text| {
        *pending.borrow_mut() = Some(submit(&client, &text).expect("submit over HTTP"));
    });
    settle();
    t.push("daemon.submit_ms", direct * 1e3, "ms");
    t.push("http.submit_overhead_ms", (rtt - direct) * 1e3, "ms");
    daemon.stop();
}

/// Every row of the table, `seconds` each.
pub fn run_all(seconds: f64, seed: u64) -> Vec<Metric> {
    let quick = seconds <= QUICK_ROW_SECONDS;
    let dir = work_dir();
    std::fs::create_dir_all(&dir).expect("create layers scratch directory");
    let mut t = Table {
        seconds,
        rows: Vec::new(),
    };
    check_rows(&mut t);
    planner_rows(&mut t, seed, quick);
    rollout_rows(&mut t, &dir);
    verifier_rows(&mut t, seed, quick);
    stats_rows(&mut t);
    daemon_rows(&mut t, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    t.rows
}
