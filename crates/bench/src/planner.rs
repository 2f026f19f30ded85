//! The planner experiments: §4.2, §5.2 / Appendix C, the backend and
//! scale bars ROADMAP item 9 keeps, and the three design choices
//! DESIGN.md states a direction for.

use crate::claims::{table, Bound, Claims, Row, Scale};
use cornet_netsim::{Network, NetworkConfig};
use cornet_planner::{
    heuristic_schedule, plan, translate, BackendChoice, ConstraintRule, GroupStrategy,
    HeuristicConfig, PlanIntent, PlanOptions, PlanResult,
};
use cornet_solver::{solve, Outcome};
use cornet_types::{ConflictTable, Granularity, NodeId, Schedule, SchedulingWindow, SimTime};
use std::time::{Duration, Instant};

/// A generated RAN and its eNodeBs and gNodeBs.
fn ran(config: NetworkConfig) -> (Network, Vec<NodeId>) {
    let net = Network::generate_ran(&config);
    let nodes = net.ran_nodes();
    (net, nodes)
}

/// A RAN of about `target` nodes, deterministic in `seed`.
fn ran_with(seed: u64, target: usize) -> (Network, Vec<NodeId>) {
    let config = NetworkConfig {
        seed,
        ..Default::default()
    };
    ran(config.with_target_nodes(target))
}

/// A concurrency rule: `capacity` changes a day per value of `per`, or
/// over the whole fleet.
fn concurrency(base: &str, per: Option<&str>, capacity: i64) -> ConstraintRule {
    ConstraintRule::Concurrency {
        base_attribute: base.into(),
        aggregate_attribute: per.map(str::to_owned),
        operator: "<=".into(),
        granularity: Granularity::daily(),
        default_capacity: capacity,
    }
}

/// A daily-slot intent from 2020-07-01 to `end` with one concurrency rule
/// plus the §4.2 compositions selected by `mask`: 1 = consistency(usid),
/// 2 = uniformity(utc_offset ≤ 1), 4 = localize(market).
fn intent(end: &str, per: Option<&str>, capacity: i64, mask: u32) -> PlanIntent {
    let mut intent = PlanIntent::from_json(&format!(
        r#"{{"scheduling_window": {{"start": "2020-07-01 00:00:00", "end": "{end} 23:59:00",
                                    "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id", "conflict_attribute": "common_id",
            "constraints": []}}"#
    ))
    .expect("static intent parses");
    intent.constraints = vec![concurrency("common_id", per, capacity)];
    let (usid, utc_offset, market) = ("usid".into(), "utc_offset".into(), "market".into());
    let compositions = [
        ConstraintRule::Consistency { attribute: usid },
        ConstraintRule::Uniformity {
            attribute: utc_offset,
            value: 1.0,
        },
        ConstraintRule::Localize { attribute: market },
    ];
    let chosen = compositions.into_iter().enumerate();
    let chosen = chosen.filter(|(bit, _)| mask & (1 << bit) != 0);
    intent.constraints.extend(chosen.map(|(_, rule)| rule));
    intent
}

const EMS_CAPACITY: i64 = 25;

/// §4.2's intent: a 60-day window and `capacity` changes per EMS per day.
fn sec42_intent(capacity: i64, mask: u32) -> PlanIntent {
    intent("2020-08-29", Some("ems"), capacity, mask)
}

fn composition_name(mask: u32) -> String {
    let names = ["consistency", "uniformity", "localize"];
    let chosen = (0..3).filter(|bit| mask & (1 << bit) != 0);
    let parts: Vec<&str> = chosen.map(|bit| names[bit]).collect();
    if parts.is_empty() {
        return "base".into();
    }
    parts.join("+")
}

/// Node cap binds, never the clock: the counts below must not depend on
/// how fast the machine (or a debug build) is.
fn node_budget(max_nodes: u64) -> PlanOptions {
    let mut options = PlanOptions::default();
    options.solver.max_nodes = max_nodes;
    options.solver.time_limit = Duration::from_secs(600);
    options
}

/// The same, with consistency kept as equalities instead of merged units.
fn expanded(max_nodes: u64) -> PlanOptions {
    let mut options = node_budget(max_nodes);
    options.translate.contract_consistency = false;
    options
}

fn plan_on(
    net: &Network,
    nodes: &[NodeId],
    intent: &PlanIntent,
    options: &PlanOptions,
) -> PlanResult {
    plan(intent, &net.inventory, &net.topology, nodes, options).expect("bench intent plans")
}

/// Algorithm 1 on `nodes` with nothing busy.
fn algorithm1(
    net: &Network,
    nodes: &[NodeId],
    window: &SchedulingWindow,
    slot_capacity: i64,
    iterations: usize,
    seed: u64,
) -> Schedule {
    let config = HeuristicConfig {
        slot_capacity,
        iterations,
        seed,
    };
    heuristic_schedule(
        &net.inventory,
        nodes,
        &ConflictTable::new(),
        window,
        &config,
    )
}

/// A RAN where every site hosts both radios, so consistency(usid) merges
/// pairs everywhere — the setting of the paper's 4× (§4.2(c)) — and the
/// consistency intent for it. The EMS capacity is even: two-node units
/// tile it, so the capacity bound closes the first dive in both models
/// and the comparison is of two discoveries, not of two spent budgets.
fn paired_ran(usids_per_tac: usize) -> (Network, Vec<NodeId>, PlanIntent) {
    let (net, nodes) = ran(NetworkConfig {
        seed: 7,
        usids_per_tac,
        gnb_probability: 1.0,
        ..Default::default()
    });
    (net, nodes, sec42_intent(24, 1))
}

/// §4.2, the parts that are counts: search effort per composition, the
/// contraction, and the generic solver's makespan against Algorithm 1's.
pub fn sec42(_: Scale) -> Vec<Row> {
    let mut t = Claims::new("sec42", "§4.2(b)");

    // (b) 15 nodes, two changes per EMS per day (at four the nodes never
    // contend and every composition is one dive), solved to a proof or to
    // the node cap.
    let (small, small_nodes) = ran(NetworkConfig {
        markets_per_tz: 1,
        tacs_per_market: 1,
        usids_per_tac: 3,
        ..Default::default()
    });
    let cap = 60_000;
    let mut search_nodes = [0.0; 8];
    let mut base_vars = 0.0;
    let mut cells = Vec::new();
    for mask in [0u32, 1, 2, 4, 3, 5, 6, 7] {
        let r = plan_on(
            &small,
            &small_nodes,
            &sec42_intent(2, mask),
            &node_budget(cap),
        );
        let (vars, nodes) = (r.model_stats.vars, r.search_stats.nodes);
        search_nodes[mask as usize] = nodes as f64;
        if mask == 0 {
            base_vars = vars as f64;
        }
        let name = composition_name(mask);
        cells.push(format!("{name} | {vars} | {nodes} | {:?}", r.outcome));
    }
    let title =
        format!("§4.2(b) — search effort vs composition (15 nodes, 2 per EMS-day, cap {cap})");
    table(
        &title,
        "composition | vars | search nodes | outcome",
        &cells,
    );
    let [base, _, uniformity, both, localize, ..] = search_nodes;
    let permutations = "dramatically more: a search over permutations";
    t.claim("uniformity_blowup", "search nodes, uniformity ÷ base")
        .paper(permutations)
        .measured(uniformity / base, Bound::at_least(100.0));
    t.claim("localize_blowup", "search nodes (capped), localize ÷ base")
        .paper(permutations)
        .measured(localize / base, Bound::at_least(100.0));
    t.source("DESIGN");
    t.claim("one_dive", "search nodes − variables, base composition")
        .paper("1: the capacity bound proves the first dive")
        .measured(base - base_vars, Bound::exactly(1.0));
    t.source("§4.2(c)");
    t.claim("contraction", "search nodes, uniformity ÷ + consistency")
        .paper("consistency shrinks the search")
        .measured(uniformity / both, Bound::at_least(2.0));

    // (c) the model halves where every site hosts both radios.
    let (paired, paired_nodes, with) = paired_ran(5);
    let vars = |options| {
        plan_on(&paired, &paired_nodes, &with, &options)
            .model_stats
            .vars
    };
    let (contracted, full) = (vars(node_budget(cap)), vars(expanded(cap)));
    let sites = paired_nodes.len() / 2;
    println!("\n§4.2(c) — {sites} sites with both radios: {contracted} vars, {full} expanded");
    t.claim("paired_vars", "model variables, expanded ÷ contracted")
        .paper("2 (eNodeB + gNodeB per USID)")
        .measured(full as f64 / contracted as f64, Bound::exactly(2.0));

    // Makespan: the composed solver against the custom heuristic, which
    // gets the equivalent instance (one slot capacity = every EMS's cap).
    let mut cells = Vec::new();
    let mut worst: Option<f64> = None;
    for target in [200, 600, 1000] {
        let (net, nodes) = ran_with(11, target);
        let with = sec42_intent(EMS_CAPACITY, 1);
        let generic = plan_on(&net, &nodes, &with, &node_budget(150_000));
        let pooled = EMS_CAPACITY * net.inventory.distinct_values("ems").len() as i64;
        let window = with.window().expect("intent has a window");
        let custom = algorithm1(&net, &nodes, &window, pooled, 8, 5);
        let (sm, hm) = (
            generic.makespan() as f64,
            custom.makespan().map_or(0, |s| s.0) as f64,
        );
        let overhead = 100.0 * (sm - hm) / hm.max(1.0);
        if sm >= 4.0 {
            worst = Some(worst.map_or(overhead, |w| w.max(overhead)));
        }
        cells.push(format!("{} | {sm} | {hm} | {overhead:+.0}%", nodes.len()));
    }
    let header = "nodes | solver makespan | heuristic makespan | solver overhead";
    table(
        "§4.2 — generic solver vs Appendix C heuristic (makespan)",
        header,
        &cells,
    );
    t.source("§4.2");
    t.claim("overhead_pct", "solver overhead, %, worst size ≥ 4 slots")
        .paper("≈ 7")
        .measured(worst, Bound::within(0.0, 20.0));
    t.done()
}

/// The fastest of `reps` runs of `f`, in seconds, with the last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        last = Some(std::hint::black_box(f()));
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, last.expect("at least one repetition"))
}

/// §4.2, the parts that are times: (a) discovery time against instance
/// count and (c) the speed-up consistency buys.
pub fn sec42_time(scale: Scale) -> Vec<Row> {
    let reps = if scale == Scale::Quick { 5 } else { 15 };
    let with = sec42_intent(EMS_CAPACITY, 1);
    let mut cells = Vec::new();
    let mut seconds = Vec::new();
    for target in [200, 400, 600, 800, 1000] {
        let (net, nodes) = ran_with(7, target);
        let (s, r) = best_of(reps, || plan_on(&net, &nodes, &with, &node_budget(150_000)));
        seconds.push(s);
        let (n, vars, micros) = (nodes.len(), r.model_stats.vars, s * 1e6);
        cells.push(format!(
            "{n} | {vars} | {micros:.0} µs | {} | {:?}",
            r.makespan(),
            r.outcome
        ));
    }
    let header = "nodes | model vars | discovery (translate + solve) | makespan | outcome";
    table(
        "§4.2(a) — discovery time vs instance count (consistency)",
        header,
        &cells,
    );

    let (paired, paired_nodes, paired_with) =
        paired_ran(if scale == Scale::Quick { 20 } else { 40 });
    let discover = |options: PlanOptions| {
        best_of(reps, || {
            plan_on(&paired, &paired_nodes, &paired_with, &options)
        })
        .0
    };
    let (fast, slow) = (discover(node_budget(150_000)), discover(expanded(150_000)));
    let (sites, fast_us, slow_us) = (paired_nodes.len() / 2, fast * 1e6, slow * 1e6);
    println!(
        "\n§4.2(c) — {sites} sites with both radios: {fast_us:.0} µs, expanded {slow_us:.0} µs"
    );
    let mut t = Claims::new("sec42_time", "§4.2(a)");
    t.claim("growth", "discovery time, 1 000 ÷ 200 nodes")
        .paper("grows with the number of instances")
        .measured(seconds[4] / seconds[0], Bound::at_least(1.5));
    t.source("§4.2(c)");
    t.claim("paired_time", "discovery time, expanded ÷ contracted")
        .paper("≈ 4")
        .measured(slow / fast, Bound::within(2.0, 8.0));
    t.done()
}

/// §5.2 and Appendix C: Algorithm 1 on a whole network in one request.
pub fn sec52(scale: Scale) -> Vec<Row> {
    let targets: &[usize] = match scale {
        Scale::Quick => &[10_000, 30_000],
        Scale::Full => &[10_000, 30_000, 100_000],
    };
    let window = SchedulingWindow::daily(SimTime::from_ymd_hm(2020, 7, 1, 0, 0), 70);
    let mut cells = Vec::new();
    let (mut seconds, mut leftovers) = (0.0, 0);
    for &target in targets {
        let (net, nodes) = ran_with(13, target);
        let capacity = (nodes.len() / 55).max(200) as i64;
        let started = Instant::now();
        let schedule = algorithm1(&net, &nodes, &window, capacity, 6, 9);
        (seconds, leftovers) = (started.elapsed().as_secs_f64(), schedule.leftovers.len());
        let (n, ms) = (nodes.len(), seconds * 1e3);
        let makespan = schedule.makespan().map_or(0, |s| s.0);
        cells.push(format!("{n} | {ms:.1} ms | {makespan} | {leftovers}"));
    }
    let title = "§5.2 — whole-network discovery with the Appendix C heuristic (70 daily slots)";
    table(
        title,
        "nodes | discovery time | makespan | leftovers",
        &cells,
    );
    // ~30 manual one-hour batch rounds before CORNET against one request
    // plus two minutes of review.
    let savings = cornet_netsim::usage::human_time_savings_pct(30, (seconds / 60.0).max(2.0));
    let mut t = Claims::new("sec52", "§5.2");
    t.claim("seconds", "seconds to schedule the largest network above")
        .paper("100K nodes in a few minutes")
        .measured(seconds, Bound::at_most(60.0));
    t.claim("savings_pct", "time saved vs 30 one-hour manual rounds, %")
        .paper("88.6")
        .measured(savings, Bound::at_least(88.6));
    t.source("App. C");
    t.claim("leftovers", "nodes Algorithm 1 leaves unscheduled there")
        .exactly(0.0, leftovers);
    t.done()
}

/// ROADMAP item 9's workload: a 40-day window, a fleet-wide daily cap
/// sized so the fleet fits with ~60 % slack, co-sited radios together.
fn fleet(target: usize) -> (Network, Vec<NodeId>, PlanIntent) {
    let (net, nodes) = ran(NetworkConfig::default().with_target_nodes(target));
    let capacity = (nodes.len() as i64 / 25).max(4);
    (net, nodes, intent("2020-08-09", None, capacity, 1))
}

fn fleet_options(backend: BackendChoice, budget: Duration) -> PlanOptions {
    let mut options = PlanOptions {
        backend,
        ..Default::default()
    };
    options.solver.time_limit = budget;
    (options.heuristic.iterations, options.heuristic.seed) = (4, 7);
    options
}

fn winner(r: &PlanResult) -> &str {
    let won = r.backend_runs.iter().find(|run| run.winner);
    won.map_or("nobody", |run| run.backend)
}

/// The exact backend proves its plan in milliseconds and a portfolio race
/// is decided by cost and member order, not by timing.
pub fn backends(scale: Scale) -> Vec<Row> {
    let (targets, budget) = match scale {
        Scale::Quick => ([120, 400, 1_200], Duration::from_secs(2)),
        Scale::Full => ([200, 1_000, 10_000], Duration::from_secs(10)),
    };
    let mut t = Claims::new("backends", "ROADMAP 9");
    let mut cells = Vec::new();
    let (mut proofs, mut reraces_identical, mut worst_gap) = (0, true, i64::MIN);
    for (label, target) in ["200", "1k", "10k"].into_iter().zip(targets) {
        let (net, nodes, intent) = fleet(target);
        let run = |backend| plan_on(&net, &nodes, &intent, &fleet_options(backend, budget));
        let (exact_s, exact) = best_of(3, || run(BackendChoice::Exact));
        let heuristic = run(BackendChoice::Heuristic);
        let (portfolio, rerace) = (run(BackendChoice::Portfolio), run(BackendChoice::Portfolio));
        proofs += usize::from(exact.outcome == Outcome::Optimal);
        reraces_identical &= portfolio.schedule.assignments == rerace.schedule.assignments
            && winner(&portfolio) != "nobody"
            && winner(&portfolio) == winner(&rerace);
        let makespans = [&exact, &heuristic, &portfolio].map(|r| i64::from(r.makespan()));
        worst_gap = worst_gap.max(makespans[2] - makespans[0].min(makespans[1]));
        let (exact_ms, proof) = (exact_s * 1e3, exact.outcome);
        let heuristic_ms = heuristic.discovery_time.as_secs_f64() * 1e3;
        cells.push(format!(
            "{} | {exact_ms:.2} ms, {proof:?} | {heuristic_ms:.2} ms | {makespans:?} | {}",
            nodes.len(),
            winner(&portfolio)
        ));
        t.claim(&format!("exact_ms_{label}"), "exact backend, discovery, ms")
            .paper("< 100")
            .measured(exact_ms, Bound::at_most(100.0));
    }
    let header = "nodes | exact | heuristic | makespans [exact, heuristic, portfolio] | winner";
    table(
        "Backends — exact vs heuristic vs portfolio through plan()",
        header,
        &cells,
    );
    t.claim("exact_proofs", "of three sizes, exact proves Optimal")
        .exactly(3.0, proofs);
    t.claim("rerace", "two races agree at every size: 1 yes, 0 no")
        .exactly(1.0, usize::from(reraces_identical));
    t.claim("race_gap", "portfolio − best member's makespan, worst")
        .paper("a race never does worse than its best member")
        .measured(worst_gap as f64, Bound::at_most(0.0));
    t.done()
}

/// Plain and sharded discovery at fleet scale, inside the solver budget.
pub fn scale(scale: Scale) -> Vec<Row> {
    let (targets, budget) = match scale {
        Scale::Quick => ([2_400, 4_800], Duration::from_secs(2)),
        Scale::Full => ([100_000, 1_000_000], Duration::from_secs(10)),
    };
    let inside = format!("inside the {} s solver budget", budget.as_secs());
    let mut t = Claims::new("scale", "ROADMAP 9");
    let mut cells = Vec::new();
    for (label, target) in ["100k", "1m"].into_iter().zip(targets) {
        let (net, nodes, intent) = fleet(target);
        let mut cell = nodes.len().to_string();
        for (name, backend) in [
            ("plain", BackendChoice::Portfolio),
            ("sharded", BackendChoice::Sharded),
        ] {
            let r = plan_on(&net, &nodes, &intent, &fleet_options(backend, budget));
            let (seconds, makespan) = (r.discovery_time.as_secs_f64(), r.makespan());
            cell += &format!(
                " | {seconds:.2} s, makespan {makespan}, {} wins",
                winner(&r)
            );
            t.claim(
                &format!("{name}_seconds_{label}"),
                "whole-fleet discovery, s",
            )
            .paper(&inside)
            .measured(seconds, Bound::at_most(budget.as_secs_f64()));
        }
        cells.push(cell);
    }
    let title = "Scale — whole-fleet discovery (fleet-wide cap + USID consistency, 40 days)";
    table(title, "nodes | plain portfolio | sharded", &cells);
    t.done()
}

/// The three design choices DESIGN.md § *Design decisions* states a
/// direction for, each under one node budget for both arms.
pub fn ablation(_: Scale) -> Vec<Row> {
    let budget = node_budget(60_000);
    let (net, nodes) = ran_with(7, 300);
    let mut cells = Vec::new();

    // Market-level concurrency as linking variables (Eq. 2–3) or as
    // hybrid weights (Appendix B): the same search, node for node.
    let mut market = sec42_intent(EMS_CAPACITY, 1);
    market.constraints.push(concurrency("market", None, 3));
    let strategies = [GroupStrategy::LinkingVars, GroupStrategy::HybridWeights];
    let [linking, hybrid] = strategies.map(|strategy| {
        let mut options = budget.clone();
        options.translate.strategy = strategy;
        let (seconds, r) = best_of(3, || plan_on(&net, &nodes, &market, &options));
        let (searched, makespan, ms) = (r.search_stats.nodes, r.makespan(), seconds * 1e3);
        cells.push(format!(
            "{strategy:?} | {searched} search nodes, makespan {makespan}, {ms:.1} ms"
        ));
        seconds
    });

    // Branch values in cost order (the greedy warm start) or ascending.
    let with = sec42_intent(EMS_CAPACITY, 1);
    let translated = translate(
        &with,
        &net.inventory,
        &net.topology,
        &nodes,
        &Default::default(),
    );
    let model = translated.expect("bench intent translates").model;
    let [cost_ordered, value_ordered] = [true, false].map(|cost_value_order| {
        let mut config = budget.solver.clone();
        config.cost_value_order = cost_value_order;
        let solved = solve(&model, &config);
        let cost = solved.best.as_ref().map(|b| b.cost as f64);
        let (searched, outcome) = (solved.stats.nodes, solved.outcome);
        cells.push(format!(
            "cost_value_order = {cost_value_order} | {searched} search nodes, {outcome:?}, cost {cost:?}"
        ));
        cost
    });

    // Per-EMS concurrency alone separates by EMS.
    let (net, nodes) = ran_with(7, 400);
    let [whole, parts] = [false, true].map(|decompose| {
        let mut options = budget.clone();
        options.decompose = decompose;
        let r = plan_on(&net, &nodes, &sec42_intent(EMS_CAPACITY, 0), &options);
        let (parts, searched, makespan) = (r.components, r.search_stats.nodes, r.makespan());
        cells.push(format!(
            "decompose = {decompose} | {parts} components, {searched} search nodes, makespan {makespan}"
        ));
        r
    });
    table(
        "Ablations — one node budget for both arms of each",
        "arm | result",
        &cells,
    );

    let cost_ratio = value_ordered.zip(cost_ordered).map(|(v, c)| v / c);
    let extra = parts.search_stats.nodes as f64 - whole.search_stats.nodes as f64;
    let same_plan = whole.makespan() == parts.makespan();
    let mut t = Claims::new("ablation", "DESIGN");
    t.claim("linking_cost", "same search: time, linking ÷ hybrid")
        .paper("hybrid weights propagate a group capacity as one sum")
        .measured(linking / hybrid, Bound::at_least(2.0));
    t.claim("value_order", "best plan's cost, ascending ÷ cost-ordered")
        .paper("the first cost-ordered dive is the greedy plan")
        .measured(cost_ratio, Bound::at_least(2.0));
    t.claim("split_cost", "extra search nodes a part, same makespan")
        .paper("a root node a component buys a parallel solve")
        .measured(
            same_plan.then_some(extra / parts.components as f64),
            Bound::at_most(1.0),
        );
    t.done()
}
