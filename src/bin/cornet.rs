//! `cornet` — command-line front end to the composition framework.
//!
//! ```text
//! cornet catalog                      list the building-block catalog
//! cornet workflows                    list & validate the built-in workflows
//! cornet check <bundle.json> [--format json|sarif] [--deny warnings] [--baseline F]
//!              [--interference]   restrict to the CN06xx cross-campaign findings
//! cornet blast <bundle.json>          print each campaign's inferred blast radius
//! cornet lint  --intent F [--network SPEC]   lint a JSON intent
//! cornet plan  --intent F [--network SPEC] [--backend B] [--emit-mzn F] [--trace F]
//! cornet run   [--nodes N] [--concurrency C] [--trace F]   resilient roll-out demo
//! cornet run   --journal F [--crash-at N] [--fsync P]   journaled campaign (kill-safe)
//! cornet resume <journal> [--fsync P] [--trace F]   resume a crashed campaign
//! cornet verify [--shift D] [--trace F]      impact-verification demo
//! cornet verify --follow [--shift D] [--ticks N]   streaming verification demo
//! cornet demo                         run a miniature end-to-end cycle
//! cornet submit <bundle.json>         submit a campaign to a running cornetd
//! cornet status [id]                  list / inspect cornetd campaigns
//! cornet watch <id>                   follow a cornetd campaign's event stream
//! ```
//!
//! The daemon subcommands take `--daemon <addr>` (default `127.0.0.1:7171`)
//! and `--tenant <t>` (default `default`).
//!
//! `SPEC` is `ran:<nodes>` (default `ran:200`) or `cloud:<vces>`.
//! `--trace <file>` writes a Chrome-trace JSON (open in Perfetto or
//! `chrome://tracing`) and prints a span-level summary table.

use cornet::catalog::builtin_catalog;
use cornet::daemon::{DaemonClient, JournalScenario};
use cornet::journal::{FsyncPolicy, Journal};
use cornet::netsim::{Network, NetworkConfig};
use cornet::obs::{write_trace, ChromeTraceSink, TraceSummary, Tracer};
use cornet::planner::{analyze_intent, plan, BackendChoice, PlanIntent, PlanOptions};
use cornet::stats::TimeSeries;
use cornet::types::{Attributes, Inventory, NfType, NodeId, Topology};
use cornet::verifier::{
    verify_rules_traced, ChangeScope, ClosureAdapter, DataAdapter, Expectation, GoNoGo, KpiQuery,
    StreamConfig, StreamSample, StreamingVerifier, VerificationReport, VerificationRule,
};
use cornet::workflow::{analyze, WarArtifact};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The options block of the usage text, and the one list of flags the CLI
/// takes: [`parse_flags`] rejects a `--name` that starts no line of it.
const OPTIONS: &str = "\
--format <f>        (check) text | json | sarif  (default text)
--deny <class>      (check) also fail on warnings: --deny warnings
--baseline <file>   (check) suppress previously accepted findings
--interference      (check) only report CN06xx cross-campaign findings
--intent <file>     JSON intent (Listing 1 format)
--network <spec>    ran:<nodes> | cloud:<vces>   (default ran:200)
--backend <b>       exact | heuristic | portfolio | sharded (default exact)
--emit-mzn <file>   write the generated MiniZinc model
--time-limit <s>    solver budget in seconds (default 5)
--trace <file>      write a Chrome-trace JSON + print a span summary
--nodes <n>         (run) roll-out size (default 50)
--concurrency <c>   (run) parallel workflow instances (default 4)
--journal <file>    (run) write a durable campaign journal
--crash-at <n>      (run --journal) kill the campaign at node n's upgrade
--fsync <policy>    (run --journal, resume) always | every-n=N | never
                                         (default every-n=64)
--shift <d>         (verify) injected KPI shift on study nodes (default 15)
--follow            (verify) stream the feed sample-by-sample online
--ticks <n>         (verify --follow) samples per stream (default 200)
--daemon <addr>     (submit/status/watch) cornetd address (default 127.0.0.1:7171)
--tenant <t>        (submit/status/watch) tenant identity  (default default)";

fn usage() -> ExitCode {
    eprintln!(
        "usage: cornet <catalog|workflows|check|blast|lint|plan|run|resume|verify|demo|\n\
         \x20              submit|status|watch> [options]\n\
         \n\
         options:\n{OPTIONS}"
    );
    ExitCode::from(2)
}

/// Build the tracer for a command: collecting when `--trace` was given,
/// noop (zero overhead) otherwise.
fn tracer_for(flags: &BTreeMap<String, String>) -> Tracer {
    if flags.contains_key("trace") {
        Tracer::wall()
    } else {
        Tracer::noop()
    }
}

/// If `--trace <path>` was given, export the collected spans as a Chrome
/// trace and print the span-level summary. The exit code of a command
/// that got this far: a failure only if the trace could not be written.
fn finish_trace(flags: &BTreeMap<String, String>, tracer: &Tracer) -> ExitCode {
    let Some(path) = flags.get("trace") else {
        return ExitCode::SUCCESS;
    };
    let trace = tracer.snapshot();
    if let Err(e) = write_trace(path, &ChromeTraceSink, &trace) {
        eprintln!("error: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", TraceSummary::from_trace(&trace).render());
    println!("trace written to {path} (open in Perfetto or chrome://tracing)");
    ExitCode::SUCCESS
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !OPTIONS.lines().any(|l| l.split(' ').next() == Some(a)) {
                return Err(format!("unknown option {a}"));
            }
            let value = if it.peek().is_some_and(|n| !n.starts_with("--")) {
                it.next().unwrap().clone()
            } else {
                "true".to_string()
            };
            flags.insert(name.to_string(), value);
        }
    }
    Ok(flags)
}

fn build_network(spec: &str) -> Result<Network, String> {
    let (kind, size) = spec.split_once(':').unwrap_or((spec, "200"));
    let size: usize = size
        .parse()
        .map_err(|_| format!("bad network size in {spec:?}"))?;
    match kind {
        "ran" => Ok(Network::generate_ran(
            &NetworkConfig::default().with_target_nodes(size),
        )),
        "cloud" => Ok(Network::generate_cloud(1, size, 3)),
        other => Err(format!(
            "unknown network kind {other:?} (want ran: or cloud:)"
        )),
    }
}

fn scope_nodes(net: &Network) -> Vec<NodeId> {
    let mut nodes = net.nodes_of_type(NfType::ENodeB);
    nodes.extend(net.nodes_of_type(NfType::GNodeB));
    if nodes.is_empty() {
        nodes = net.nodes_of_type(NfType::VceRouter);
    }
    nodes.sort();
    nodes
}

fn load_intent(flags: &BTreeMap<String, String>) -> Result<PlanIntent, String> {
    let path = flags.get("intent").ok_or("--intent <file> is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    PlanIntent::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_catalog() -> ExitCode {
    let cat = builtin_catalog();
    println!("{:<28} {:<22} {:<3} function", "block", "phase", "agn");
    for b in cat.iter() {
        println!(
            "{:<28} {:<22} {:<3} {}",
            b.name,
            b.phase.to_string(),
            if b.nf_agnostic { "✓" } else { "✗" },
            b.function
        );
    }
    ExitCode::SUCCESS
}

fn cmd_workflows() -> ExitCode {
    use cornet::workflow::builtin::*;
    let cat = builtin_catalog();
    for wf in [
        software_upgrade_workflow(&cat),
        config_change_workflow(&cat),
        vce_download_workflow(&cat),
        vce_activate_workflow(&cat),
        sdwan_upgrade_workflow(&cat),
        schedule_planning_workflow(&cat),
        impact_verification_workflow(&cat),
    ] {
        let rep = analyze(&wf, &cat);
        let war = WarArtifact::package(&wf, &cat);
        println!(
            "{:<26} nodes={:<2} blocks={:<2} valid={} rest={}",
            wf.name,
            wf.nodes.len(),
            wf.blocks().len(),
            !rep.has_errors(),
            war.map(|w| w.manifest.rest_api)
                .unwrap_or_else(|e| format!("({e})")),
        );
    }
    ExitCode::SUCCESS
}

/// `cornet check` — run every static-analysis pass over a MOP bundle and
/// gate on the result: exit 0 when clean (modulo baseline), 1 when
/// errors (or, under `--deny warnings`, warnings) remain, 2 on usage or
/// load errors. The paper's pre-deployment verification step as a CI
/// command.
fn cmd_check(path: Option<&str>, flags: &BTreeMap<String, String>) -> ExitCode {
    use cornet::analysis::Baseline;
    use cornet::core::{check, load_bundle};

    let Some(path) = path else {
        eprintln!(
            "usage: cornet check <bundle.json> [--format json|sarif] [--deny warnings] \
             [--baseline <file>] [--interference]"
        );
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let bundle = match load_bundle(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path} is not a valid bundle: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = check(&bundle);
    if flags.contains_key("interference") {
        report
            .diagnostics
            .retain(|d| d.code.category() == "interference");
    }
    if let Some(baseline_path) = flags.get("baseline") {
        let body = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: reading {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        };
        match Baseline::from_jsonl(&body) {
            Ok(baseline) => {
                let dropped = baseline.suppress(&mut report);
                if dropped > 0 {
                    eprintln!("{dropped} finding(s) suppressed by {baseline_path}");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let deny_warnings = flags.get("deny").is_some_and(|d| d == "warnings");
    match flags.get("format").map(String::as_str).unwrap_or("text") {
        "json" => print!("{}", report.render_jsonl()),
        "sarif" => println!("{}", report.render_sarif()),
        "text" => {
            if report.diagnostics.is_empty() {
                println!(
                    "bundle is clean: {} workflow(s), {} rule(s), {} campaign(s) checked",
                    bundle.workflows.len(),
                    bundle.rules.len(),
                    bundle.campaigns.len(),
                );
            } else {
                print!("{}", report.render_text());
            }
        }
        other => {
            eprintln!("error: unknown --format {other:?} (want text, json, or sarif)");
            return ExitCode::from(2);
        }
    }
    if report.passes_gate(deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cornet blast` — print each campaign's statically inferred blast
/// radius (which state dimensions of which nodes it may touch, in which
/// windows) and any cross-campaign interference. Exit 0 when no
/// interference errors, 1 when the campaigns conflict, 2 on load errors.
fn cmd_blast(path: Option<&str>, flags: &BTreeMap<String, String>) -> ExitCode {
    use cornet::core::blast::{analyze_interference, campaign_blasts, render_blast_text};
    use cornet::core::load_bundle;

    let Some(path) = path else {
        eprintln!("usage: cornet blast <bundle.json> [--format json]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let bundle = match load_bundle(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path} is not a valid bundle: {e}");
            return ExitCode::from(2);
        }
    };
    let blasts = campaign_blasts(&bundle);
    let mut report = cornet::analysis::Report::new();
    analyze_interference(&bundle, &mut report);
    report.sort();
    if flags.get("format").map(String::as_str) == Some("json") {
        for b in &blasts {
            println!("{}", b.render_json());
        }
    } else {
        if blasts.is_empty() {
            println!("bundle declares no campaigns: nothing to blast-analyze");
        } else {
            print!("{}", render_blast_text(&blasts));
        }
        if !report.is_clean() {
            println!("\ninterference findings:");
            print!("{}", report.render_text());
        }
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_lint(flags: &BTreeMap<String, String>) -> ExitCode {
    let intent = match load_intent(flags) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let net = match build_network(
        flags
            .get("network")
            .map(String::as_str)
            .unwrap_or("ran:200"),
    ) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nodes = scope_nodes(&net);
    match analyze_intent(&intent, &net.inventory, &nodes) {
        Ok(report) => {
            if report.is_clean() {
                println!("intent is clean ({} nodes in scope)", nodes.len());
            }
            for d in report.iter() {
                println!("{}", d.render());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_plan(flags: &BTreeMap<String, String>) -> ExitCode {
    let intent = match load_intent(flags) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let net = match build_network(
        flags
            .get("network")
            .map(String::as_str)
            .unwrap_or("ran:200"),
    ) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nodes = scope_nodes(&net);

    // Lint first — the paper's adoption lesson: surprises at plan time
    // erode operator trust. A lint failure is itself a refusal: planning
    // an unlintable intent would bypass the safety gate.
    match analyze_intent(&intent, &net.inventory, &nodes) {
        Ok(report) => {
            for d in report.iter() {
                eprintln!("lint {}", d.render());
            }
            if report.has_errors() {
                eprintln!("refusing to plan: fix the errors above");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("refusing to plan: lint failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let backend_name = flags.get("backend").map(String::as_str).unwrap_or("exact");
    let backend = match BackendChoice::parse(backend_name) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let secs: u64 = match flags.get("time-limit").map_or(Ok(5), |s| s.parse()) {
        Ok(secs) => secs,
        Err(e) => {
            eprintln!("error: --time-limit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = tracer_for(flags);
    let options = PlanOptions {
        solver: cornet::solver::SolverConfig {
            time_limit: std::time::Duration::from_secs(secs),
            ..Default::default()
        },
        backend,
        tracer: tracer.clone(),
        ..Default::default()
    };
    match plan(&intent, &net.inventory, &net.topology, &nodes, &options) {
        Ok(result) => {
            println!(
                "schedule[{}]: {} scheduled, {} leftovers, {} conflicts, makespan {}, {:?}, discovered in {:?}",
                result.backend.name(),
                result.schedule.scheduled_count(),
                result.schedule.leftovers.len(),
                result.schedule.conflicts,
                result.makespan(),
                result.outcome,
                result.discovery_time,
            );
            for run in &result.backend_runs {
                println!(
                    "  backend {}{}{}: {:?}, cost {}, {} nodes in {:?}",
                    run.backend,
                    run.shard
                        .map_or_else(String::new, |s| format!("[shard {s}]")),
                    if run.winner { " (winner)" } else { "" },
                    run.outcome,
                    run.cost.map_or_else(|| "-".into(), |c| c.to_string()),
                    run.stats.nodes,
                    run.elapsed,
                );
            }
            if let Some(path) = flags.get("emit-mzn") {
                match cornet::planner::translate(
                    &intent,
                    &net.inventory,
                    &net.topology,
                    &nodes,
                    &Default::default(),
                ) {
                    Ok(t) => {
                        if let Err(e) = std::fs::write(path, t.model.to_minizinc()) {
                            eprintln!("writing {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("MiniZinc model written to {path}");
                    }
                    Err(e) => {
                        eprintln!("translation for --emit-mzn failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            finish_trace(flags, &tracer)
        }
        Err(e) => {
            eprintln!("planning failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The journaled demo scenario — the shared [`JournalScenario`] defaults
/// with `--nodes` / `--concurrency` overrides applied.
fn scenario_from_flags(flags: &BTreeMap<String, String>) -> JournalScenario {
    let mut s = JournalScenario::default();
    if let Some(n) = flags.get("nodes").and_then(|v| v.parse().ok()) {
        s.nodes = n;
    }
    if let Some(c) = flags.get("concurrency").and_then(|v| v.parse().ok()) {
        s.concurrency = c;
    }
    s
}

/// `cornet run --journal <path>` — the kill-safe variant of the roll-out
/// demo: one journaled fault-storm campaign. With `--crash-at <n>` the
/// simulated process dies at node n's first upgrade invocation (the
/// journal freezes mid-campaign, exactly as a SIGKILL would leave it);
/// `cornet resume <path>` then finishes the campaign and must print the
/// same fingerprint as an uninterrupted run.
fn cmd_run_journaled(flags: &BTreeMap<String, String>, path: &str) -> ExitCode {
    let scenario = scenario_from_flags(flags);
    println!(
        "=== journaled campaign: {} nodes, {}% transient faults, journal {path} ===",
        scenario.nodes,
        scenario.fault_rate_milli / 10,
    );
    let crash_at: Option<u32> = flags.get("crash-at").and_then(|s| s.parse().ok());
    run_journaled(flags, &scenario, crash_at, |fsync| {
        Journal::create(path, fsync)
    })
}

/// `cornet resume <journal>` — recover a journaled campaign: replay every
/// completed block without re-executing it, re-admit interrupted
/// instances, and finish the remaining work. Prints the same summary
/// line (including fingerprint) a clean uninterrupted run prints.
fn cmd_resume(path: Option<&str>, flags: &BTreeMap<String, String>) -> ExitCode {
    use cornet::orchestrator::CampaignFold;

    let Some(path) = path else {
        eprintln!("usage: cornet resume <journal> [--fsync P] [--trace F]");
        return ExitCode::from(2);
    };
    // One read of the journal: its fold gives the banner and the scenario,
    // and its records go with the write handle to the run, which resumes
    // them. The handle is taken (and a torn tail cut) only once the
    // records are known to be a campaign.
    let mut fold = CampaignFold::default();
    let read = Journal::read(path)
        .map_err(|e| e.to_string())
        .and_then(|read| {
            let apply = read.0.iter().try_for_each(|event| fold.apply(event));
            apply.map_err(|e| e.to_string())?;
            let meta = fold.meta().ok_or("it holds no campaign_opened record")?;
            Ok((read, JournalScenario::from_meta(meta)?))
        });
    let (read, scenario) = match read {
        Ok(read) => read,
        Err(e) => {
            eprintln!("error: reading journal {path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "=== resuming campaign from {path}: {} instance(s) already complete, {} in flight ===",
        fold.instances_done(),
        fold.in_flight(),
    );
    run_journaled(flags, &scenario, None, |fsync| {
        Journal::reopen(path, fsync, read)
    })
}

/// The run both `cornet run --journal` and `cornet resume` end in, which
/// differ only in how they `open` the journal under the `--fsync` policy
/// (a reopened one resumes): one campaign, its summary line, and the
/// trace. With `crash_at`, the simulated process dies at that node's
/// first upgrade invocation.
fn run_journaled(
    flags: &BTreeMap<String, String>,
    scenario: &JournalScenario,
    crash_at: Option<u32>,
    open: impl FnOnce(FsyncPolicy) -> cornet::types::Result<Journal>,
) -> ExitCode {
    use cornet::orchestrator::Dispatcher;
    use cornet::types::CornetError;

    let tracer = tracer_for(flags);
    // `--fsync always|every-n=N|never`, defaulting to `every-n=64`.
    let fsync = flags.get("fsync").map_or("every-n=64", String::as_str);
    let fsync = match FsyncPolicy::parse(fsync) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let journal = match open(fsync) {
        Ok(journal) => journal.with_tracer(tracer.clone()),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let switch = journal.crash_switch();
    let path = journal.path().display().to_string();
    let reg = scenario.registry(crash_at.map(|n| (n, switch.clone())), None);
    let breaker = scenario.breaker();
    let result = scenario
        .war()
        .map_err(CornetError::InvalidWorkflow)
        .and_then(|war| Dispatcher::new(war, reg, scenario.concurrency))
        .and_then(|d| {
            d.with_tracer(tracer.clone())
                .with_journal(journal, scenario.meta())
                .run_campaign(
                    &scenario.schedule(),
                    JournalScenario::inputs,
                    Some(&breaker),
                    None,
                )
        });
    let (report, trip) = match result {
        Ok(o) => (o.report, o.trip),
        Err(e) => {
            eprintln!("dispatch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if switch.is_dead() {
        println!(
            "simulated crash at node {}: journal frozen mid-campaign; \
             run 'cornet resume {path}' to finish",
            crash_at.unwrap_or_default(),
        );
    } else {
        println!("{}", JournalScenario::summary_line(&report, trip.as_ref()));
    }
    finish_trace(flags, &tracer)
}

/// `cornet run` — the resilient roll-out demo: a staggered software
/// upgrade first through a 20% transient-fault storm (absorbed by
/// retries), then against a permanent fault with the circuit breaker
/// armed and a backout flow attached. With `--trace` every dispatch,
/// slot, instance, block, and backout span lands in one Chrome trace.
/// With `--journal <path>` the demo switches to a single journaled
/// campaign (see [`cmd_run_journaled`]).
fn cmd_run(flags: &BTreeMap<String, String>) -> ExitCode {
    if let Some(path) = flags.get("journal") {
        return cmd_run_journaled(flags, &path.clone());
    }
    use cornet::orchestrator::resilience::{
        CircuitBreaker, FaultPlan, FaultyExecutor, RetryPolicy,
    };
    use cornet::orchestrator::{BlockStatus, DispatchReport, Dispatcher, ExecutorRegistry};
    use cornet::types::{ParamValue, Schedule, Timeslot};
    use cornet::workflow::builtin::software_upgrade_workflow;
    use cornet::workflow::Designer;

    const SEED: u64 = 42;
    let nodes: u32 = flags
        .get("nodes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let concurrency: usize = flags
        .get("concurrency")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let tracer = tracer_for(flags);

    let happy_registry = || {
        let mut reg = ExecutorRegistry::new();
        reg.register("health_check", |s| {
            s.insert("healthy".into(), ParamValue::from(true));
            Ok(())
        });
        reg.register("software_upgrade", |s| {
            s.insert("previous_version".into(), ParamValue::from("19.3"));
            Ok(())
        });
        reg.register("pre_post_comparison", |s| {
            s.insert("passed".into(), ParamValue::from(true));
            Ok(())
        });
        reg.register("roll_back", |_| Ok(()));
        reg
    };
    let schedule = {
        let mut s = Schedule::default();
        for i in 0..nodes {
            s.assignments.insert(NodeId(i), Timeslot(i / 10 + 1));
        }
        s
    };
    let inputs = |node: NodeId| {
        let mut g = cornet::orchestrator::GlobalState::new();
        g.insert("node".into(), ParamValue::from(format!("enb-{node}")));
        g.insert("software_version".into(), ParamValue::from("20.1"));
        g
    };
    let summarize = |report: &DispatchReport| {
        let (mut recovered, mut attempts) = (0usize, 0u32);
        for b in report.instances.iter().flat_map(|i| &i.blocks) {
            attempts += b.attempts;
            if matches!(b.status, BlockStatus::Recovered { .. }) {
                recovered += 1;
            }
        }
        println!(
            "  {} instances: {} completed, {} failed, {} rolled back; \
             {recovered} blocks recovered via retry ({attempts} attempts)",
            report.instances.len(),
            report.completed(),
            report.failures().len(),
            report.rolled_back(),
        );
    };
    let cat = builtin_catalog();

    // Scenario 1: transient faults, absorbed by retries.
    println!("=== {nodes} nodes, 20% transient faults, 6-attempt retries ===");
    let war = match WarArtifact::package(&software_upgrade_workflow(&cat), &cat) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::transient(SEED, 0.20).with_latency_ms(12),
    );
    reg.set_default_retry_policy(RetryPolicy::with_attempts(6));
    let report = match Dispatcher::new(war, reg, concurrency)
        .map(|d| d.with_tracer(tracer.clone()))
        .and_then(|d| d.run(&schedule, inputs))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dispatch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    summarize(&report);

    // Scenario 2: permanent fault → breaker trip + backout flows.
    println!("=== permanent fault on software_upgrade, breaker armed ===");
    let mut wf = software_upgrade_workflow(&cat);
    let mut d = Designer::new(&cat, "backout");
    let s = d.start();
    let rb = d.task("roll_back").unwrap();
    let e = d.end();
    d.connect(s, rb).connect(rb, e);
    wf.set_backout(d.build());
    let war = match WarArtifact::package(&wf, &cat) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reg = FaultyExecutor::wrap(
        &happy_registry(),
        &FaultPlan::permanent_on(SEED, 1.0, "software_upgrade"),
    );
    reg.set_default_retry_policy(RetryPolicy::with_attempts(3));
    let breaker = CircuitBreaker {
        failure_threshold: 0.5,
        min_samples: 5,
    };
    let (report, trip) = match Dispatcher::new(war, reg, concurrency)
        .map(|d| d.with_tracer(tracer.clone()))
        .and_then(|d| d.run_campaign(&schedule, inputs, Some(&breaker), None))
    {
        Ok(o) => (o.report, o.trip),
        Err(e) => {
            eprintln!("dispatch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    summarize(&report);
    match trip {
        Some(t) => println!(
            "  breaker tripped on '{}': {:.0}% failure rate over {} samples; {} nodes spared",
            t.block,
            t.failure_rate * 100.0,
            t.samples,
            nodes as usize - report.instances.len(),
        ),
        None => println!("  breaker never tripped"),
    }

    finish_trace(flags, &tracer)
}

/// The synthetic roll-out both verify demos check: 8 study nodes across
/// two markets, each linked to one of 8 controls, sampled hourly; from the
/// change minute on, the study nodes' throughput rises and their latency
/// falls by `shift`.
#[derive(Clone, Copy)]
struct VerifyDemo {
    shift: f64,
}

impl VerifyDemo {
    const NODES: u32 = 16;
    const STUDY: u32 = 8;
    const CHANGE_MINUTE: u64 = 6000;
    const KPIS: [&'static str; 2] = ["throughput_mbps", "latency_ms"];

    fn from_flags(flags: &BTreeMap<String, String>) -> VerifyDemo {
        let shift = flags.get("shift").and_then(|s| s.parse().ok());
        VerifyDemo {
            shift: shift.unwrap_or(15.0),
        }
    }

    fn inventory() -> Inventory {
        let mut inv = Inventory::new();
        for i in 0..Self::NODES {
            inv.push(
                format!("enb-{i}"),
                NfType::ENodeB,
                Attributes::new().with("market", if i % 2 == 0 { "NYC" } else { "DFW" }),
            );
        }
        inv
    }

    fn topology() -> Topology {
        let mut topo = Topology::with_capacity(Self::NODES as usize);
        for i in 0..Self::STUDY {
            topo.add_edge(NodeId(i), NodeId(i + Self::STUDY));
        }
        topo
    }

    fn scope() -> ChangeScope {
        let study: Vec<NodeId> = (0..Self::STUDY).map(NodeId).collect();
        ChangeScope::simultaneous(&study, Self::CHANGE_MINUTE)
    }

    fn rule() -> VerificationRule {
        let mut rule = VerificationRule::standard(
            "post-upgrade",
            vec![
                KpiQuery::expecting(Self::KPIS[0], true, Expectation::Improve),
                KpiQuery::expecting(Self::KPIS[1], false, Expectation::Improve),
            ],
        );
        rule.location_attributes = vec!["market".into()];
        rule
    }

    /// Sample `k` of one stream.
    fn value_at(self, node: NodeId, kpi: &str, k: u64) -> f64 {
        let wiggle = ((k * 11 + node.0 as u64 * 3) % 5) as f64 * 0.15;
        let shift = self.shift;
        let mut v = 100.0 + wiggle;
        if node.0 < Self::STUDY && k * 60 >= Self::CHANGE_MINUTE {
            // Latency is downward-good: the upgrade lowers it.
            v += if kpi == "latency_ms" { -shift } else { shift };
        }
        v
    }

    /// Every stream's first `ticks` samples as one series.
    fn adapter(self, ticks: u64) -> impl DataAdapter {
        ClosureAdapter(move |node: NodeId, kpi: &str, _: Option<usize>| {
            let values = (0..ticks).map(|k| self.value_at(node, kpi, k)).collect();
            Some(TimeSeries::new(0, 60, values))
        })
    }
}

/// Print a report's decision and per-KPI verdicts; true when it says halt.
fn print_report(report: &VerificationReport) -> bool {
    println!(
        "rule '{}': {:?} ({} KPIs, verified in {:?})",
        report.rule,
        report.decision,
        report.kpis.len(),
        report.duration,
    );
    for kr in &report.kpis {
        println!(
            "  {:<16} {:?} (p={:.4}, shift {:+.1}%) expectation met: {}",
            kr.query.kpi,
            kr.overall.verdict,
            kr.overall.p_value,
            kr.overall.relative_shift * 100.0,
            kr.meets_expectation,
        );
    }
    report.decision == GoNoGo::NoGo
}

/// Write the trace, then print the roll-out decision as the exit code.
fn finish_verify(flags: &BTreeMap<String, String>, tracer: &Tracer, halt: bool) -> ExitCode {
    if finish_trace(flags, tracer) == ExitCode::FAILURE {
        return ExitCode::FAILURE;
    }
    if halt {
        println!("decision: NO-GO — halt the roll-out");
        ExitCode::FAILURE
    } else {
        println!("decision: GO");
        ExitCode::SUCCESS
    }
}

/// `cornet verify` — the impact-verification demo: the [`VerifyDemo`]
/// feed verified against its topology-derived control group. With
/// `--trace` every verify.rule / verify.unit span and the series-cache
/// counters land in the Chrome trace.
fn cmd_verify(flags: &BTreeMap<String, String>) -> ExitCode {
    if flags.contains_key("follow") {
        return cmd_verify_follow(flags);
    }
    let demo = VerifyDemo::from_flags(flags);
    let tracer = tracer_for(flags);
    let reports = match verify_rules_traced(
        &demo.adapter(200),
        &[VerifyDemo::rule()],
        &VerifyDemo::scope(),
        &VerifyDemo::inventory(),
        &VerifyDemo::topology(),
        &tracer,
        None,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verification failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut no_go = false;
    for report in &reports {
        no_go |= print_report(report);
        for (kpi, attr, value) in report.problem_locations() {
            println!("  problem location: {kpi} @ {attr}={value}");
        }
    }
    finish_verify(flags, &tracer, no_go)
}

/// `cornet verify --follow` — the streaming demo: the same synthetic
/// roll-out as `cornet verify`, but delivered sample-by-sample through
/// the online engine. Live changepoint detections print as the feed
/// advances; the final verdicts are checked bit-for-bit against a batch
/// re-verification of the identical series.
fn cmd_verify_follow(flags: &BTreeMap<String, String>) -> ExitCode {
    let demo = VerifyDemo::from_flags(flags);
    let ticks: u64 = flags
        .get("ticks")
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let tracer = tracer_for(flags);
    let (inv, topo, scope) = (
        VerifyDemo::inventory(),
        VerifyDemo::topology(),
        VerifyDemo::scope(),
    );
    let engine = StreamingVerifier::new(
        vec![VerifyDemo::rule()],
        scope.clone(),
        inv.clone(),
        topo.clone(),
        StreamConfig::default(),
        tracer.clone(),
    );

    println!("following synthetic feed: 16 streams x 2 KPIs, {ticks} samples each");
    for k in 0..ticks {
        for n in 0..VerifyDemo::NODES {
            for kpi in VerifyDemo::KPIS {
                engine.offer(StreamSample {
                    node: NodeId(n),
                    kpi: kpi.to_string(),
                    carrier: None,
                    minute: k * 60,
                    value: demo.value_at(NodeId(n), kpi, k),
                });
            }
        }
        engine.pump();
        for d in engine.take_detections() {
            println!(
                "  detected: {:<16} node {:>2} @ minute {:>6} (x{} timescale, delta {:+.2}, score {:.1})",
                d.kpi, d.node.0, d.minute, d.timescale, d.delta, d.score
            );
        }
    }
    let stats = engine.stats();
    println!(
        "ingested {} samples ({} shed, {} rejected), {} raw detections",
        stats.processed, stats.shed, stats.rejected, stats.detections
    );
    if let Some(p99) = engine.detection_latency_quantile(0.99) {
        println!("per-sample detection latency p99: {:.3} ms", p99 * 1e3);
    }

    let streamed = match engine.poll_verdicts() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verification failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut no_go = false;
    for report in &streamed {
        no_go |= print_report(report);
    }

    // Cross-check: a batch verification over the identical series must
    // agree bit-for-bit (the streaming engine's core promise).
    let batch = verify_rules_traced(
        &demo.adapter(ticks),
        &[VerifyDemo::rule()],
        &scope,
        &inv,
        &topo,
        &Tracer::noop(),
        None,
    );
    let consistent = match batch {
        Ok(batch) => {
            streamed.len() == batch.len()
                && streamed.iter().zip(&batch).all(|(s, b)| {
                    s.decision == b.decision
                        && s.kpis.iter().zip(&b.kpis).all(|(sk, bk)| {
                            sk.overall.verdict == bk.overall.verdict
                                && sk.overall.p_value.to_bits() == bk.overall.p_value.to_bits()
                        })
                })
        }
        Err(e) => {
            eprintln!("batch cross-check failed: {e}");
            false
        }
    };
    println!(
        "batch replay cross-check: {}",
        if consistent {
            "verdicts identical"
        } else {
            "MISMATCH"
        }
    );
    finish_verify(flags, &tracer, !consistent || no_go)
}

fn cmd_demo() -> ExitCode {
    use cornet::core::{testbed_registry, Cornet};
    use cornet::netsim::{Testbed, TestbedConfig};
    use cornet::orchestrator::GlobalState;
    use cornet::types::ParamValue;
    use cornet::workflow::builtin::software_upgrade_workflow;

    let net = Network::generate_cloud(1, 6, 1);
    let tb = Testbed::new(TestbedConfig::default());
    let vces: Vec<NodeId> = net
        .inventory
        .iter()
        .filter(|r| r.nf_type == NfType::VceRouter)
        .map(|r| {
            tb.instantiate(&r.name, r.nf_type, "16.9");
            r.id
        })
        .collect();
    let cornet = Cornet::new(
        net.inventory.clone(),
        net.topology,
        testbed_registry(tb.clone()),
    );
    let war = cornet
        .deploy_workflow(&software_upgrade_workflow(&cornet.catalog))
        .expect("builtin workflow deploys");
    let intent = r#"{
        "scheduling_window": {"start": "2020-07-01 00:00:00",
                               "end": "2020-07-05 23:59:00",
                               "granularity": {"metric": "day", "value": 1}},
        "maintenance_window": {"start": "0:00", "end": "6:00"},
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "constraints": [
            {"name": "concurrency", "base_attribute": "common_id",
             "operator": "<=", "granularity": {"metric": "day", "value": 1},
             "default_capacity": 2}
        ]
    }"#;
    let result = cornet
        .plan_from_json(intent, &vces, &PlanOptions::default())
        .expect("demo intent plans");
    println!(
        "planned {} vCEs over {} nights",
        result.schedule.scheduled_count(),
        result.makespan()
    );
    let inv = &cornet.inventory;
    let report = cornet
        .dispatch(&war, &result.schedule, 2, |node| {
            let mut g = GlobalState::new();
            g.insert(
                "node".into(),
                ParamValue::from(inv.record(node).name.clone()),
            );
            g.insert("software_version".into(), ParamValue::from("17.3"));
            g
        })
        .expect("dispatch runs");
    println!(
        "executed {} workflow instances, {} completed",
        report.instances.len(),
        report.completed()
    );
    for &v in &vces {
        let name = &cornet.inventory.record(v).name;
        println!("  {name}: {}", tb.state(name).unwrap().sw_version);
    }
    ExitCode::SUCCESS
}

/// The daemon client for the `--daemon` / `--tenant` flags.
fn daemon_client(flags: &BTreeMap<String, String>) -> DaemonClient {
    let addr = flags
        .get("daemon")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7171");
    let tenant = flags.get("tenant").map(String::as_str).unwrap_or("default");
    DaemonClient::new(addr, tenant)
}

/// `cornet submit <bundle.json>` — submit a MOP bundle to a running
/// `cornetd`. The daemon runs the `cornet check` gate before accepting;
/// a bundle with error diagnostics is refused (HTTP 422) and the
/// diagnostics are printed, one JSON line each.
fn cmd_submit(path: Option<&str>, flags: &BTreeMap<String, String>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: cornet submit <bundle.json> [--daemon A] [--tenant T]");
        return ExitCode::from(2);
    };
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match daemon_client(flags).post("/v1/campaigns", &body) {
        Ok(resp) if resp.status == 201 => {
            println!("{}", resp.body.trim_end());
            ExitCode::SUCCESS
        }
        Ok(resp) if resp.status == 422 => {
            eprintln!("bundle refused by the pre-deploy check gate:");
            for line in resp.body.lines().filter(|l| !l.trim().is_empty()) {
                eprintln!("  {line}");
            }
            ExitCode::FAILURE
        }
        Ok(resp) if resp.status == 409 => {
            eprintln!("bundle refused: it interferes with a live campaign:");
            for line in resp.body.lines().filter(|l| !l.trim().is_empty()) {
                eprintln!("  {line}");
            }
            ExitCode::FAILURE
        }
        Ok(resp) => {
            eprintln!("error: HTTP {}: {}", resp.status, resp.body.trim_end());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cornet status [id]` — list the tenant's campaigns, or inspect one.
fn cmd_status(id: Option<&str>, flags: &BTreeMap<String, String>) -> ExitCode {
    let path = match id {
        Some(id) => format!("/v1/campaigns/{id}"),
        None => "/v1/campaigns".to_string(),
    };
    match daemon_client(flags).get(&path) {
        Ok(resp) if resp.status == 200 => {
            println!("{}", resp.body.trim_end());
            ExitCode::SUCCESS
        }
        Ok(resp) => {
            eprintln!("error: HTTP {}: {}", resp.status, resp.body.trim_end());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cornet watch <id>` — follow a campaign's journal event stream
/// (JSONL) until the campaign reaches a terminal phase.
fn cmd_watch(id: Option<&str>, flags: &BTreeMap<String, String>) -> ExitCode {
    let Some(id) = id else {
        eprintln!("usage: cornet watch <id> [--daemon A] [--tenant T]");
        return ExitCode::from(2);
    };
    let path = format!("/v1/campaigns/{id}/events?follow=1");
    // Stop (don't panic) when stdout goes away, e.g. `cornet watch | head`.
    use std::io::Write;
    let mut out = std::io::stdout();
    match daemon_client(flags).stream(&path, |line| writeln!(out, "{line}").is_ok()) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match cmd.as_str() {
        "catalog" => cmd_catalog(),
        "workflows" => cmd_workflows(),
        "check" => cmd_check(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        "blast" => cmd_blast(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        "lint" => cmd_lint(&flags),
        "plan" => cmd_plan(&flags),
        "run" => cmd_run(&flags),
        "resume" => cmd_resume(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        "verify" => cmd_verify(&flags),
        "demo" => cmd_demo(),
        "submit" => cmd_submit(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        "status" => cmd_status(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        "watch" => cmd_watch(
            args.get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str),
            &flags,
        ),
        _ => usage(),
    }
}
